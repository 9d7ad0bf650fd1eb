"""Tests for the modular wraparound codec (repro.linalg.modular)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.linalg.modular import (
    decode_centered,
    encode_mod,
    horner_mod,
    mul_mod,
    pow_mod,
    pow_mod_elementwise,
    sum_mod,
    wraps_around,
)
from repro.secagg.field import MERSENNE_61


class TestEncodeMod:
    def test_range(self):
        values = np.array([-300, -1, 0, 1, 300])
        encoded = encode_mod(values, 256)
        assert encoded.min() >= 0
        assert encoded.max() < 256

    def test_negative_values_wrap(self):
        assert np.array_equal(encode_mod(np.array([-1]), 256), [255])
        assert np.array_equal(encode_mod(np.array([-128]), 256), [128])

    def test_odd_modulus_rejected(self):
        with pytest.raises(ConfigurationError):
            encode_mod(np.array([1]), 7)


class TestDecodeCentered:
    def test_positive_half_unchanged(self):
        residues = np.arange(0, 128)
        assert np.array_equal(decode_centered(residues, 256), residues)

    def test_negative_half_shifts(self):
        # Values m/2..m-1 map to -m/2..-1 (line 1 of Algorithm 6).
        residues = np.arange(128, 256)
        decoded = decode_centered(residues, 256)
        assert np.array_equal(decoded, residues - 256)

    def test_out_of_range_rejected(self):
        with pytest.raises(ConfigurationError):
            decode_centered(np.array([256]), 256)
        with pytest.raises(ConfigurationError):
            decode_centered(np.array([-1]), 256)

    def test_empty_array(self):
        assert decode_centered(np.array([], dtype=np.int64), 256).size == 0


class TestRoundtrip:
    def test_exact_recovery_in_centered_range(self):
        values = np.arange(-128, 128)
        assert np.array_equal(
            decode_centered(encode_mod(values, 256), 256), values
        )

    def test_wraparound_outside_range(self):
        # 130 is outside [-128, 128) so it comes back as 130 - 256.
        assert decode_centered(encode_mod(np.array([130]), 256), 256)[0] == -126

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.integers(min_value=-10**9, max_value=10**9), min_size=1),
        st.integers(min_value=1, max_value=15),
    )
    def test_property_roundtrip_iff_in_range(self, values, log_modulus):
        modulus = 2**log_modulus
        array = np.array(values, dtype=np.int64)
        decoded = decode_centered(encode_mod(array, modulus), modulus)
        half = modulus // 2
        in_range = (array >= -half) & (array < half)
        assert np.array_equal(decoded[in_range], array[in_range])
        # All decoded values are congruent to the originals mod m.
        assert np.all((decoded - array) % modulus == 0)


class TestWrapsAround:
    def test_within_range(self):
        assert not wraps_around(np.array([-128, 127]), 256)

    def test_above_range(self):
        assert wraps_around(np.array([128]), 256)

    def test_below_range(self):
        assert wraps_around(np.array([-129]), 256)


class TestFieldKernels:
    """128-bit-safe limb-split arithmetic against Python-int references."""

    PRIMES = [MERSENNE_61, (1 << 31) - 1, 101, 2]

    @pytest.mark.parametrize("prime", PRIMES)
    def test_mul_mod_matches_python_ints(self, prime):
        rng = np.random.default_rng(2022)
        a = rng.integers(0, prime, size=500, dtype=np.uint64)
        b = rng.integers(0, prime, size=500, dtype=np.uint64)
        expected = [(int(x) * int(y)) % prime for x, y in zip(a, b)]
        assert mul_mod(a, b, prime).tolist() == expected

    def test_mul_mod_worst_case_operands(self):
        p = MERSENNE_61
        edge = np.array([p - 1, p - 1, 1, 0, p // 2, (1 << 60) + 12345],
                        dtype=np.uint64)
        assert mul_mod(edge, edge, p).tolist() == [
            (int(v) ** 2) % p for v in edge
        ]

    def test_mul_mod_reduces_out_of_range_inputs(self):
        # Operands above the modulus are reduced, not silently wrong.
        assert int(mul_mod(np.uint64(2**63), np.uint64(3), 101)) == (
            (2**63 % 101) * 3
        ) % 101

    def test_mul_mod_oversized_modulus_rejected(self):
        with pytest.raises(ConfigurationError, match="2\\^61"):
            mul_mod(np.uint64(1), np.uint64(1), (1 << 61) + 2)

    @pytest.mark.parametrize("prime", PRIMES)
    def test_pow_mod_matches_python_pow(self, prime):
        rng = np.random.default_rng(7)
        base = rng.integers(0, prime, size=40, dtype=np.uint64)
        for exponent in (0, 1, 2, 12345, prime - 1):
            assert pow_mod(base, exponent, prime).tolist() == [
                pow(int(b), exponent, prime) for b in base
            ]

    def test_pow_mod_negative_exponent_rejected(self):
        with pytest.raises(ConfigurationError, match="exponent"):
            pow_mod(np.uint64(2), -1, 101)

    def test_pow_mod_elementwise_matches_python_pow(self):
        p = MERSENNE_61
        rng = np.random.default_rng(11)
        bases = rng.integers(1, p, size=200, dtype=np.uint64)
        exponents = rng.integers(0, p, size=200, dtype=np.uint64)
        got = pow_mod_elementwise(bases, exponents, p)
        assert got.tolist() == [
            pow(int(b), int(e), p) for b, e in zip(bases, exponents)
        ]

    @pytest.mark.parametrize("prime", [MERSENNE_61, (1 << 31) - 1, 101])
    @pytest.mark.parametrize("num_coeffs", [1, 2, 3, 8, 40])
    def test_horner_matches_python_reference(self, prime, num_coeffs):
        rng = np.random.default_rng(num_coeffs)
        coeffs = rng.integers(0, prime, size=(3, num_coeffs), dtype=np.uint64)
        xs = rng.integers(1, min(prime, 600), size=17, dtype=np.uint64)
        out = horner_mod(coeffs, xs, prime)
        for k in range(3):
            for j in range(17):
                reference = 0
                for c in reversed(coeffs[k].tolist()):
                    reference = (reference * int(xs[j]) + c) % prime
                assert int(out[k, j]) == reference

    def test_horner_large_points_use_generic_path(self):
        # Points >= 2^29 leave the lazy-reduction fast path but stay exact.
        p = MERSENNE_61
        rng = np.random.default_rng(5)
        coeffs = rng.integers(0, p, size=(2, 6), dtype=np.uint64)
        xs = rng.integers(1 << 40, p, size=5, dtype=np.uint64)
        out = horner_mod(coeffs, xs, p)
        for k in range(2):
            reference = 0
            for c in reversed(coeffs[k].tolist()):
                reference = (reference * int(xs[0]) + c) % p
            assert int(out[k, 0]) == reference

    def test_sum_mod_overflow_safe(self):
        p = MERSENNE_61
        values = np.full(5000, p - 1, dtype=np.uint64)
        assert int(sum_mod(values, p)) == (5000 * (p - 1)) % p

    def test_sum_mod_axis_and_empty(self):
        matrix = np.arange(12, dtype=np.uint64).reshape(3, 4)
        assert sum_mod(matrix, 7, axis=1).tolist() == [
            int(row.sum()) % 7 for row in matrix
        ]
        assert sum_mod(np.empty((0, 4), dtype=np.uint64), 7).tolist() == [
            0, 0, 0, 0,
        ]

    @given(
        a=st.integers(min_value=0, max_value=(1 << 61) - 2),
        b=st.integers(min_value=0, max_value=(1 << 61) - 2),
    )
    @settings(max_examples=60, deadline=None)
    def test_mul_mod_property_mersenne(self, a, b):
        p = MERSENNE_61
        assert int(mul_mod(np.uint64(a), np.uint64(b), p)) == (a * b) % p
