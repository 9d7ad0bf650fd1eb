"""Tests for the SecAgg simulator (repro.secagg.protocol)."""

import numpy as np
import pytest

from repro.errors import AggregationError, ConfigurationError
from repro.secagg.protocol import ZeroSumMaskProtocol, secure_sum


@pytest.fixture(params=[ZeroSumMaskProtocol])
def protocol_class(request):
    return request.param


class TestCorrectness:
    def test_modular_sum_recovered(self, protocol_class):
        rng = np.random.default_rng(0)
        inputs = rng.integers(0, 256, size=(12, 9), dtype=np.int64)
        protocol = protocol_class(256, rng)
        assert np.array_equal(
            protocol.run(inputs), inputs.sum(axis=0) % 256
        )

    def test_single_participant(self, protocol_class):
        rng = np.random.default_rng(1)
        inputs = rng.integers(0, 64, size=(1, 5), dtype=np.int64)
        protocol = protocol_class(64, rng)
        assert np.array_equal(protocol.run(inputs), inputs[0])

    def test_two_participants(self, protocol_class):
        rng = np.random.default_rng(2)
        inputs = np.array([[63, 0], [1, 63]], dtype=np.int64)
        protocol = protocol_class(64, rng)
        assert np.array_equal(protocol.run(inputs), [0, 63])

    def test_repeated_runs_consistent(self, protocol_class):
        rng = np.random.default_rng(3)
        inputs = rng.integers(0, 16, size=(5, 4), dtype=np.int64)
        protocol = protocol_class(16, rng)
        expected = inputs.sum(axis=0) % 16
        for _ in range(5):
            assert np.array_equal(protocol.run(inputs), expected)


class TestConfidentiality:
    def test_messages_differ_from_inputs(self, protocol_class):
        rng = np.random.default_rng(4)
        inputs = np.zeros((8, 50), dtype=np.int64)
        protocol = protocol_class(256, rng)
        messages = protocol.transmit(inputs)
        # All-zero inputs produce non-zero masked messages.
        assert np.any(messages != 0)

    def test_individual_message_marginally_uniform(self, protocol_class):
        # Chi-square test of one participant's message bytes against
        # the uniform distribution on Z_16.
        rng = np.random.default_rng(5)
        modulus = 16
        inputs = np.zeros((4, 4000), dtype=np.int64)
        protocol = protocol_class(modulus, rng)
        messages = protocol.transmit(inputs)
        counts = np.bincount(messages[0], minlength=modulus)
        expected = messages.shape[1] / modulus
        chi_square = float(((counts - expected) ** 2 / expected).sum())
        # dof 15; 0.999 quantile ~37.7.
        assert chi_square < 45.0

    def test_masks_sum_to_zero(self, protocol_class):
        rng = np.random.default_rng(6)
        modulus = 128
        protocol = protocol_class(modulus, rng)
        masks = protocol._masks(7, 11)
        assert np.all(masks.sum(axis=0) % modulus == 0)


class TestValidation:
    def test_rejects_float_inputs(self, protocol_class):
        protocol = protocol_class(256, np.random.default_rng(0))
        with pytest.raises(AggregationError):
            protocol.run(np.zeros((2, 3), dtype=np.float64))

    def test_rejects_out_of_range(self, protocol_class):
        protocol = protocol_class(256, np.random.default_rng(0))
        with pytest.raises(AggregationError):
            protocol.run(np.full((2, 3), 256, dtype=np.int64))
        with pytest.raises(AggregationError):
            protocol.run(np.full((2, 3), -1, dtype=np.int64))

    def test_rejects_1d_input(self, protocol_class):
        protocol = protocol_class(256, np.random.default_rng(0))
        with pytest.raises(AggregationError):
            protocol.run(np.zeros(3, dtype=np.int64))

    def test_rejects_odd_modulus(self, protocol_class):
        with pytest.raises(ConfigurationError):
            protocol_class(15, np.random.default_rng(0))


class TestSecureSumWrapper:
    def test_both_schemes(self):
        rng = np.random.default_rng(7)
        inputs = rng.integers(0, 32, size=(6, 8), dtype=np.int64)
        expected = inputs.sum(axis=0) % 32
        assert np.array_equal(secure_sum(inputs, 32, rng, "zero-sum"), expected)
        assert np.array_equal(secure_sum(inputs, 32, rng, "bonawitz"), expected)

    def test_unknown_scheme_rejected(self):
        for scheme in ("magic", "pairwise"):
            with pytest.raises(ConfigurationError, match="zero-sum"):
                secure_sum(
                    np.zeros((2, 2), dtype=np.int64),
                    32,
                    np.random.default_rng(0),
                    scheme,
                )


class TestBonawitzScheme:
    def test_secure_sum_bonawitz_matches_plain_sum(self):
        rng = np.random.default_rng(21)
        inputs = rng.integers(0, 2**8, size=(5, 16), dtype=np.int64)
        result = secure_sum(inputs, 2**8, rng, scheme="bonawitz")
        np.testing.assert_array_equal(
            result, np.mod(inputs.sum(axis=0), 2**8)
        )

    def test_bonawitz_scheme_agrees_with_masks(self):
        rng = np.random.default_rng(22)
        inputs = rng.integers(0, 2**10, size=(4, 8), dtype=np.int64)
        via_bonawitz = secure_sum(
            inputs, 2**10, np.random.default_rng(1), scheme="bonawitz"
        )
        via_masks = secure_sum(
            inputs, 2**10, np.random.default_rng(2), scheme="zero-sum"
        )
        np.testing.assert_array_equal(via_bonawitz, via_masks)

    def test_unknown_scheme_error_mentions_bonawitz(self):
        inputs = np.zeros((2, 4), dtype=np.int64)
        with pytest.raises(ConfigurationError, match="bonawitz"):
            secure_sum(inputs, 2**8, np.random.default_rng(0), scheme="nope")
