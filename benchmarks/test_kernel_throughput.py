"""Kernel micro-benchmarks: mask PRG and Shamir throughput.

Measures the vectorised SecAgg kernels against scalar baselines —
masks/sec for the PRG backends (batched SHA-256 counter mode and numpy
Philox vs the pre-kernel scalar loop), shares/sec for batched Shamir
split/reconstruct vs the per-coefficient Python loops, and µs per
Lagrange weight set.  The scalar baselines are local copies of the
pre-kernel code.  Results land in ``benchmarks/results/kernels.txt``.

The smoke assertions run in tier 1: they only require the vectorised
kernels not to be *slower* than the scalar baselines (with generous
slack for timer noise), guarding against a regression that silently
reroutes the hot paths through scalar code.
"""

from __future__ import annotations

import hashlib
import time

import numpy as np

from repro.secagg.field import DEFAULT_FIELD
from repro.secagg.kernels import (
    PhiloxPrg,
    Sha256CounterPrg,
    lagrange_weights_at_zero,
)
from repro.secagg.shamir import (
    LimbShares,
    reconstruct_secrets,
    split_secret_scalar,
    split_secrets,
)
from repro.secagg.wire import (
    PROTOCOL_V1,
    MaskedInput,
    SealedShares,
    UnmaskColumns,
    encode_masked_input,
    encode_message,
    encode_sealed_matrix,
    encode_unmask_columns,
    intern_header,
    route_sealed_stack,
)

RESULTS_FILE = "kernels.txt"
MASK_DIMENSION = 512
MASK_BATCH = 48
MODULUS = 2**16
SHAMIR_THRESHOLD = 48
SHAMIR_SHARES = 96
SHAMIR_BATCH = 6


LAGRANGE_THRESHOLD = 10


def _expand_mask_scalar(seed: bytes, dimension: int, modulus: int):
    """Pre-kernel expansion for a power-of-two modulus: one SHA-256
    counter block per loop step."""
    blocks = (dimension + 3) // 4
    digest = b"".join(
        hashlib.sha256(seed + i.to_bytes(8, "little")).digest()
        for i in range(blocks)
    )
    words = np.frombuffer(digest, dtype="<u8")[:dimension]
    return (words & np.uint64(modulus - 1)).astype(np.int64)


def _lagrange_weights_scalar(xs, field) -> list[int]:
    """Pre-kernel Lagrange weights: per-pair loops, one inverse each."""
    weights = []
    for i, x_i in enumerate(xs):
        numerator = 1
        denominator = 1
        for j, x_j in enumerate(xs):
            if i != j:
                numerator = field.mul(numerator, field.neg(x_j))
                denominator = field.mul(denominator, field.sub(x_i, x_j))
        weights.append(field.mul(numerator, field.inv(denominator)))
    return weights


def _reconstruct_scalar(xs, ys, field) -> int:
    weights = _lagrange_weights_scalar(xs, field)
    return sum(w * y for w, y in zip(weights, ys)) % field.prime


def _best_of(repeats: int, func) -> float:
    """Best-of-``repeats`` wall time — robust to scheduler noise."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        func()
        best = min(best, time.perf_counter() - started)
    return best


def test_mask_prg_throughput(emit):
    """Masks/sec: scalar reference vs batched SHA-256 vs Philox."""
    seeds = [bytes([i & 255, i >> 8]) * 16 for i in range(MASK_BATCH)]

    def scalar():
        for seed in seeds:
            _expand_mask_scalar(seed, MASK_DIMENSION, MODULUS)

    philox_prg = PhiloxPrg()
    scalar_time = _best_of(5, scalar)
    # Fresh instance per repetition: measures the hash loop itself, not
    # the per-instance expansion memo.
    sha_time = _best_of(
        5,
        lambda: Sha256CounterPrg().expand_batch(
            seeds, MASK_DIMENSION, MODULUS
        ),
    )
    philox_time = _best_of(
        5, lambda: philox_prg.expand_batch(seeds, MASK_DIMENSION, MODULUS)
    )
    for name, elapsed in [
        ("scalar-reference", scalar_time),
        ("sha256-ctr-batch", sha_time),
        ("philox-batch", philox_time),
    ]:
        emit(
            f"kernel_masks backend={name:17s} dimension={MASK_DIMENSION} "
            f"batch={MASK_BATCH} masks_per_sec={MASK_BATCH / elapsed:10.1f}",
            RESULTS_FILE,
        )
    # The sha256-ctr batch kernel hashes exactly what the scalar loop
    # hashes; it must not be slower (1.5x slack absorbs timer noise).
    assert sha_time <= scalar_time * 1.5

    # Caching makes re-expansion of the same seeds nearly free.
    sha_prg = Sha256CounterPrg()
    sha_prg.expand_batch(seeds, MASK_DIMENSION, MODULUS)  # warm the memo
    cached_time = _best_of(
        5, lambda: sha_prg.expand_batch(seeds, MASK_DIMENSION, MODULUS)
    )
    emit(
        f"kernel_masks backend={'sha256-ctr-cached':17s} "
        f"dimension={MASK_DIMENSION} batch={MASK_BATCH} "
        f"masks_per_sec={MASK_BATCH / cached_time:10.1f}",
        RESULTS_FILE,
    )
    assert cached_time <= sha_time


def test_shamir_throughput(emit, bench_rng):
    """Shares/sec: scalar split/reconstruct loops vs batched kernels."""
    field = DEFAULT_FIELD
    secrets = [
        int(bench_rng.integers(0, field.prime)) for _ in range(SHAMIR_BATCH)
    ]

    def scalar_split():
        for secret in secrets:
            split_secret_scalar(
                secret, SHAMIR_THRESHOLD, SHAMIR_SHARES, bench_rng, field
            )

    def batched_split_call():
        split_secrets(
            secrets, SHAMIR_THRESHOLD, SHAMIR_SHARES, bench_rng, field
        )

    scalar_split_time = _best_of(5, scalar_split)
    batched_split_time = _best_of(5, batched_split_call)
    total_shares = SHAMIR_BATCH * SHAMIR_SHARES
    emit(
        f"kernel_shamir op=split     path=scalar    t={SHAMIR_THRESHOLD} "
        f"n={SHAMIR_SHARES} batch={SHAMIR_BATCH} "
        f"shares_per_sec={total_shares / scalar_split_time:10.1f}",
        RESULTS_FILE,
    )
    emit(
        f"kernel_shamir op=split     path=batched   t={SHAMIR_THRESHOLD} "
        f"n={SHAMIR_SHARES} batch={SHAMIR_BATCH} "
        f"shares_per_sec={total_shares / batched_split_time:10.1f}",
        RESULTS_FILE,
    )
    assert batched_split_time <= scalar_split_time * 1.5

    share_matrix = split_secrets(
        secrets, SHAMIR_THRESHOLD, SHAMIR_SHARES, bench_rng, field
    )
    xs = list(range(1, SHAMIR_THRESHOLD + 1))
    rows = [
        [int(share_matrix[i, j]) for j in range(SHAMIR_THRESHOLD)]
        for i in range(SHAMIR_BATCH)
    ]

    def scalar_reconstruct():
        for row in rows:
            _reconstruct_scalar(xs, row, field)

    scalar_rec_time = _best_of(5, scalar_reconstruct)
    batched_rec_time = _best_of(
        5, lambda: reconstruct_secrets(xs, rows, field)
    )
    recovered = reconstruct_secrets(xs, rows, field)
    assert recovered == secrets  # exactness, not just speed
    total = SHAMIR_BATCH * SHAMIR_THRESHOLD
    emit(
        f"kernel_shamir op=reconstruct path=scalar  t={SHAMIR_THRESHOLD} "
        f"n={SHAMIR_SHARES} batch={SHAMIR_BATCH} "
        f"shares_per_sec={total / scalar_rec_time:10.1f}",
        RESULTS_FILE,
    )
    emit(
        f"kernel_shamir op=reconstruct path=batched t={SHAMIR_THRESHOLD} "
        f"n={SHAMIR_SHARES} batch={SHAMIR_BATCH} "
        f"shares_per_sec={total / batched_rec_time:10.1f}",
        RESULTS_FILE,
    )
    assert batched_rec_time <= scalar_rec_time * 1.5


def test_lagrange_weights_latency(emit):
    """µs per weight set at t=10: exact-integer kernel vs scalar loops.

    Emission only: the one assertion is exactness, so the row tracks
    the cost of Shamir recovery's fixed per-point-set step without a
    wall-clock gate.
    """
    field = DEFAULT_FIELD
    xs = list(range(3, 3 + LAGRANGE_THRESHOLD))
    assert lagrange_weights_at_zero(xs, field.prime) == (
        _lagrange_weights_scalar(xs, field)
    )
    calls = 200
    paths = {
        "scalar": lambda: _lagrange_weights_scalar(xs, field),
        "kernel": lambda: lagrange_weights_at_zero(xs, field.prime),
    }
    for name, weights in paths.items():

        def repeated(weights=weights):
            for _ in range(calls):
                weights()

        elapsed = _best_of(5, repeated)
        emit(
            f"kernel_lagrange path={name:6s} t={LAGRANGE_THRESHOLD} "
            f"us_per_call={elapsed / calls * 1e6:8.1f}",
            RESULTS_FILE,
        )


WIRE_ROSTER = 96
WIRE_CIPHERTEXT = 33


def _encode_bulk_legs_per_frame(recipients, ciphertexts, vector, columns,
                                header):
    """Reference: the three bulk legs through the per-frame encoder."""
    return (
        b"".join(
            encode_message(
                SealedShares(
                    sender=1,
                    recipient=recipient,
                    ciphertext=ciphertexts[position].tobytes(),
                ),
                header,
            )
            for position, recipient in enumerate(recipients)
        ),
        encode_message(MaskedInput(sender=1, vector=vector), header),
        encode_message(columns.to_response(), header),
    )


def _encode_bulk_legs_batched(recipients, ciphertexts, vector, columns,
                              header):
    return (
        encode_sealed_matrix(1, recipients, ciphertexts, header),
        encode_masked_input(1, vector, header),
        encode_unmask_columns(columns, header),
    )


def test_wire_codec_throughput(emit, bench_rng):
    """Frames/sec: per-frame reference vs batched encoders, bulk legs."""
    header = intern_header(PROTOCOL_V1, "sha256-ctr")
    recipients = list(range(1, WIRE_ROSTER + 1))
    ciphertexts = bench_rng.integers(
        0, 256, size=(WIRE_ROSTER, WIRE_CIPHERTEXT), dtype=np.uint8
    )
    vector = bench_rng.integers(0, MODULUS, size=512, dtype=np.int64)
    columns = UnmaskColumns(
        responder=1,
        peers=np.arange(2, WIRE_ROSTER + 2, dtype="<u4"),
        xs=np.full(WIRE_ROSTER, 1, dtype="<u4"),
        ys=bench_rng.integers(
            0, 2**61 - 1, size=WIRE_ROSTER, dtype=np.uint64
        ),
        key_shares={0: LimbShares(x=1, ys=(5, 6))},
    )
    args = (recipients, ciphertexts, vector, columns, header)
    paths = {
        "scalar": _encode_bulk_legs_per_frame,
        "batched": _encode_bulk_legs_batched,
    }
    assert paths["batched"](*args) == paths["scalar"](*args)
    times = {}
    for name, encode in paths.items():
        times[name] = _best_of(5, lambda encode=encode: encode(*args))
        frames = WIRE_ROSTER + 2
        emit(
            f"kernel_wire codec={name:8s} roster={WIRE_ROSTER} "
            f"frames_per_sec={frames / times[name]:10.1f}",
            RESULTS_FILE,
        )
    # The batched encoders exist to be faster on the quadratic leg; 1.5x
    # slack tolerates timer noise, not a rerouted hot path.
    assert times["batched"] <= times["scalar"] * 1.5

    datagram = encode_sealed_matrix(1, recipients, ciphertexts, header)
    frame_len = len(datagram) // WIRE_ROSTER
    stack = np.stack(
        [
            np.frombuffer(datagram, dtype=np.uint8).reshape(
                WIRE_ROSTER, frame_len
            )
        ]
        * WIRE_ROSTER
    )
    route_time = _best_of(5, lambda: route_sealed_stack(stack))
    emit(
        f"kernel_wire codec=route    roster={WIRE_ROSTER} "
        f"frames_per_sec={WIRE_ROSTER * WIRE_ROSTER / route_time:10.1f}",
        RESULTS_FILE,
    )
