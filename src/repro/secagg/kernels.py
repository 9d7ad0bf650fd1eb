"""Vectorised SecAgg kernels: mask PRG backends and batched Shamir.

The Bonawitz protocol's two hot paths are embarrassingly batchable:

* **Mask expansion.**  Every client expands one pairwise seed per peer
  plus its self-mask seed; the server re-expands the same seeds during
  dropout recovery.  A full cohort of ``n`` clients expands ``Θ(n²)``
  masks per round.  The seed implementation hashed one counter block at
  a time through a Python generator; :class:`Sha256CounterPrg` instead
  precomputes the whole little-endian counter buffer with numpy and
  hashes it in a single tight loop over a reusable ``memoryview``,
  producing *bit-identical* output.  The backend sits behind the small
  :class:`MaskPrg` strategy interface so a protocol version can opt into
  the ~10× faster numpy-Philox backend (:class:`PhiloxPrg`) where
  SHA-256 compatibility is not required.

* **Shamir sharing.**  Each client splits its self-mask seed and every
  limb of its mask private key over the same ``n`` evaluation points,
  and the server reconstructs one secret per survivor from shares at the
  same ``t`` points.  :func:`batched_split` evaluates all polynomials at
  all points with one vectorised Horner recurrence
  (:func:`repro.linalg.modular.horner_mod`) over uint64 arrays, using
  128-bit-safe limb-split modular multiplication.
  :func:`batched_reconstruct` computes the Lagrange weights once per
  point set and applies them to every secret's share row.  Point sets
  are threshold-sized (``t`` of about ten), too small for array
  programs to pay off, so the weights and their application run in
  exact Python integers with a single batched modular inversion — for
  any prime, not only fields that fit the limb kernels.

Both layers are exact: no floats, no wraparound, and the golden-vector
and property-test suites (``tests/test_keys_prg.py``,
``tests/test_shamir.py``, ``tests/test_secagg_kernels.py``) pin them
against scalar test oracles.
"""

from __future__ import annotations

import abc
import hashlib
import math
import operator
from collections.abc import Sequence

import numpy as np

from repro.errors import AggregationError, ConfigurationError
from repro.linalg.modular import LIMB_SPLIT_MAX_MODULUS, horner_mod, sum_mod

_BLOCK_WORDS = 4  # SHA-256 digest = 32 bytes = 4 uint64 words.
_DIGEST_BYTES = 32

#: Shared little-endian counter-block buffer, grown on demand (doubling)
#: and sliced by every expansion — "precompute once, hash in a tight
#: loop" instead of serialising each counter inside the hash loop.
_counter_buffer = np.arange(1024, dtype="<u8").tobytes()


def _counter_bytes(limit: int) -> bytes:
    """Counter buffer covering counters ``0..limit-1`` (8 bytes each)."""
    global _counter_buffer, _counter_slice_cache
    if limit * 8 > len(_counter_buffer):
        size = len(_counter_buffer) // 8
        while size < limit:
            size *= 2
        _counter_buffer = np.arange(size, dtype="<u8").tobytes()
        _counter_slice_cache = []
    return _counter_buffer


#: Pre-cut 8-byte counter slices (lazily extended), so batch hash loops
#: reuse one bytes object per counter instead of slicing per (seed, i).
_counter_slice_cache: list[bytes] = []


def _counter_slices(offset: int, blocks: int) -> list[bytes]:
    """8-byte little-endian counter slices for ``offset..offset+blocks-1``."""
    limit = offset + blocks
    buffer = _counter_bytes(limit)
    cache = _counter_slice_cache
    if len(cache) < limit:
        cache.extend(
            buffer[8 * i : 8 * i + 8] for i in range(len(cache), limit)
        )
    return cache[offset:limit]


def _validate_mask_request(dimension: int, modulus: int) -> None:
    if dimension < 0:
        raise ConfigurationError(f"dimension must be >= 0, got {dimension}")
    if modulus < 2:
        raise ConfigurationError(f"modulus must be >= 2, got {modulus}")


class MaskPrg(abc.ABC):
    """Strategy interface: expand a short seed to a vector over ``Z_m``.

    Implementations must be *pure*: ``expand`` is a deterministic
    function of ``(seed, dimension, modulus)`` alone, because dropout
    recovery depends on the server regenerating bit-identical masks from
    reconstructed seeds.  Prefixes must also be stable — expanding to a
    larger dimension extends the shorter expansion.
    """

    #: Registry / wire-format identifier for backend negotiation.
    name: str

    @abc.abstractmethod
    def expand(self, seed: bytes, dimension: int, modulus: int) -> np.ndarray:
        """Expand ``seed`` into a length-``dimension`` vector over ``Z_m``."""

    def expand_batch(
        self, seeds: Sequence[bytes], dimension: int, modulus: int
    ) -> np.ndarray:
        """Expand many seeds at once; returns a ``(len(seeds), d)`` array.

        The default implementation loops over :meth:`expand`; backends
        may override with something flatter.
        """
        _validate_mask_request(dimension, modulus)
        out = np.empty((len(seeds), dimension), dtype=np.int64)
        for row, seed in enumerate(seeds):
            out[row] = self.expand(seed, dimension, modulus)
        return out


def _words_to_residues_pow2(words: np.ndarray, modulus: int) -> np.ndarray:
    """Mask uniform uint64 words down to a power-of-two modulus."""
    return (words & np.uint64(modulus - 1)).astype(np.int64)


class Sha256CounterPrg(MaskPrg):
    """SHA-256 counter mode — the bit-identical compatibility default.

    ``block_i = SHA256(seed || i)`` with a little-endian 64-bit counter,
    blocks concatenated and read as little-endian uint64 words; power-of-
    two moduli mask low bits, general moduli rejection-sample below the
    largest multiple of ``m`` in 64 bits.  Identical output to the seed
    implementation (see the golden vectors in ``tests/test_keys_prg.py``)
    but ~3× faster: the counter buffer for all blocks is built in one
    numpy call and the hash loop reuses one message buffer through a
    ``memoryview`` instead of allocating per-block byte strings.
    """

    name = "sha256-ctr"

    #: Expansion memo budget in bytes.  Every pairwise mask is expanded
    #: once by *each* endpoint (and again by the server for dropout
    #: pairs), so memoising halves the protocol's SHA-256 volume; the
    #: cache clears wholesale when the budget is hit (entries are
    #: round-local, like the DH pair cache).
    CACHE_BUDGET_BYTES = 128 * 1024 * 1024

    def __init__(self) -> None:
        self._cache: dict[tuple[bytes, int, int], np.ndarray] = {}
        self._cache_bytes = 0

    def _cache_store(
        self, key: tuple[bytes, int, int], value: np.ndarray
    ) -> None:
        if self._cache_bytes + value.nbytes > self.CACHE_BUDGET_BYTES:
            self._cache.clear()
            self._cache_bytes = 0
        self._cache[key] = value
        self._cache_bytes += value.nbytes

    @staticmethod
    def _counter_digests(seed: bytes, blocks: int, offset: int = 0) -> bytes:
        """Concatenated ``SHA256(seed || i)`` for ``i`` in the block range."""
        sha256 = hashlib.sha256
        return b"".join(
            [
                sha256(seed + counter).digest()
                for counter in _counter_slices(offset, blocks)
            ]
        )

    def _counter_words(
        self, seed: bytes, num_words: int, offset: int = 0
    ) -> np.ndarray:
        """``num_words`` uint64 words from SHA-256(seed || counter)."""
        blocks = (num_words + _BLOCK_WORDS - 1) // _BLOCK_WORDS
        if blocks == 0:
            return np.empty(0, dtype="<u8")
        digest = self._counter_digests(seed, blocks, offset)
        return np.frombuffer(digest, dtype="<u8")[:num_words]

    def expand(self, seed: bytes, dimension: int, modulus: int) -> np.ndarray:
        _validate_mask_request(dimension, modulus)
        if modulus & (modulus - 1) == 0:
            # Power of two: masking low bits of a uniform word is uniform.
            key = (bytes(seed), dimension, modulus)
            cached = self._cache.get(key)
            if cached is not None:
                return cached.copy()
            mask = _words_to_residues_pow2(
                self._counter_words(seed, dimension), modulus
            )
            self._cache_store(key, mask.copy())
            return mask
        # General modulus: rejection-sample below the largest multiple of
        # m representable in 64 bits, so the residue is exactly uniform.
        limit = (1 << 64) - ((1 << 64) % modulus)
        out = np.empty(dimension, dtype=np.int64)
        filled = 0
        offset = 0
        while filled < dimension:
            want = dimension - filled
            words = self._counter_words(seed, 2 * want + _BLOCK_WORDS, offset)
            offset += (len(words) + _BLOCK_WORDS - 1) // _BLOCK_WORDS
            accepted = words[words < np.uint64(limit)]
            take = min(want, len(accepted))
            out[filled : filled + take] = (
                accepted[:take] % np.uint64(modulus)
            ).astype(np.int64)
            filled += take
        return out

    def expand_batch(
        self, seeds: Sequence[bytes], dimension: int, modulus: int
    ) -> np.ndarray:
        _validate_mask_request(dimension, modulus)
        if modulus & (modulus - 1) != 0:
            # Rejection path consumes a data-dependent number of blocks
            # per seed; keep it per-seed.
            return super().expand_batch(seeds, dimension, modulus)
        if not seeds or dimension == 0:
            return np.zeros((len(seeds), dimension), dtype=np.int64)
        out = np.empty((len(seeds), dimension), dtype=np.int64)
        miss_rows: list[int] = []
        miss_seeds: list[bytes] = []
        cache_get = self._cache.get
        for row, seed in enumerate(seeds):
            cached = cache_get((seed, dimension, modulus))
            if cached is not None:
                out[row] = cached
            else:
                miss_rows.append(row)
                miss_seeds.append(seed)
        if not miss_seeds:
            return out
        # Flat batch: one digest buffer and one masking pass for all
        # missing seeds amortises the numpy round-trips across the
        # whole cohort.
        blocks = (dimension + _BLOCK_WORDS - 1) // _BLOCK_WORDS
        counters = _counter_slices(0, blocks)
        sha256 = hashlib.sha256
        digest = b"".join(
            [
                sha256(seed + counter).digest()
                for seed in miss_seeds
                for counter in counters
            ]
        )
        words = np.frombuffer(digest, dtype="<u8").reshape(
            len(miss_seeds), blocks * _BLOCK_WORDS
        )[:, :dimension]
        residues = _words_to_residues_pow2(words, modulus)
        for position, row in enumerate(miss_rows):
            out[row] = residues[position]
            self._cache_store(
                (bytes(miss_seeds[position]), dimension, modulus),
                residues[position].copy(),
            )
        return out


class PhiloxPrg(MaskPrg):
    """Counter-based numpy Philox backend — the fast protocol-v2 option.

    The seed is stretched to a 256-bit Philox key via SHA-256; uniform
    uint64 words come from ``BitGenerator.random_raw`` (the specified,
    version-stable Philox-4x64 output stream), and the word-to-residue
    logic (low-bit masking / rejection sampling) matches the SHA backend
    exactly.  Output is deterministic per seed but *not* bit-compatible
    with :class:`Sha256CounterPrg`, so all round participants must agree
    on the backend — the protocol-version knob on
    :class:`repro.secagg.bonawitz.BonawitzServer` and
    :class:`~repro.secagg.bonawitz.BonawitzClient`.
    """

    name = "philox"

    @staticmethod
    def _bit_generator(seed: bytes) -> np.random.Philox:
        words = np.frombuffer(hashlib.sha256(seed).digest(), dtype="<u8")
        # Philox-4x64 takes a 2-word key; fold the digest's other two
        # words into the counter's high half (the low half stays the
        # running block counter) so all 256 seed-derived bits matter.
        counter = np.array([0, 0, words[2], words[3]], dtype=np.uint64)
        return np.random.Philox(key=words[:2], counter=counter)

    def expand(self, seed: bytes, dimension: int, modulus: int) -> np.ndarray:
        _validate_mask_request(dimension, modulus)
        bit_generator = self._bit_generator(seed)
        if modulus & (modulus - 1) == 0:
            words = bit_generator.random_raw(dimension).astype(np.uint64)
            return _words_to_residues_pow2(words, modulus)
        limit = (1 << 64) - ((1 << 64) % modulus)
        out = np.empty(dimension, dtype=np.int64)
        filled = 0
        while filled < dimension:
            want = dimension - filled
            words = bit_generator.random_raw(2 * want + _BLOCK_WORDS)
            words = words.astype(np.uint64)
            accepted = words[words < np.uint64(limit)]
            take = min(want, len(accepted))
            out[filled : filled + take] = (
                accepted[:take] % np.uint64(modulus)
            ).astype(np.int64)
            filled += take
        return out


#: Registered backends, keyed by wire name.
MASK_PRGS: dict[str, MaskPrg] = {
    prg.name: prg for prg in (Sha256CounterPrg(), PhiloxPrg())
}

#: The compatibility default: bit-identical to the seed implementation.
DEFAULT_MASK_PRG = MASK_PRGS["sha256-ctr"]


def get_mask_prg(spec: str | MaskPrg | None) -> MaskPrg:
    """Resolve a backend name (or pass an instance through).

    Args:
        spec: A registered name (``"sha256-ctr"``, ``"philox"``), a
            :class:`MaskPrg` instance, or None for the default.

    Raises:
        ConfigurationError: On an unknown backend name.
    """
    if spec is None:
        return DEFAULT_MASK_PRG
    if isinstance(spec, MaskPrg):
        return spec
    try:
        return MASK_PRGS[spec]
    except KeyError:
        raise ConfigurationError(
            f"unknown mask PRG {spec!r}; known: {sorted(MASK_PRGS)}"
        ) from None


def sum_signed_masks(
    seeds: Sequence[bytes],
    signs: Sequence[int],
    dimension: int,
    modulus: int,
    prg: MaskPrg | str | None = None,
) -> np.ndarray:
    """``Σ_k sign_k · PRG(seed_k) mod m`` in one batched pass.

    This is the whole of a client's round-2 masking (self mask plus one
    signed pairwise mask per peer) and of the server's recovery
    subtraction, collapsed into a single kernel call: one batched
    expansion, one overflow-safe modular reduction, instead of one
    ``np.mod`` round-trip per peer.

    Args:
        seeds: One PRG seed per mask.
        signs: ``+1`` or ``-1`` per mask (lower/higher-indexed party).
        dimension: Mask vector length.
        modulus: Aggregation modulus ``m``.
        prg: Mask PRG backend (default: SHA-256 counter mode).

    Returns:
        The signed sum reduced into ``[0, m)``, int64.

    Raises:
        ConfigurationError: On mismatched lengths or an invalid sign.
    """
    if len(seeds) != len(signs):
        raise ConfigurationError(
            f"{len(seeds)} seeds but {len(signs)} signs"
        )
    if any(sign not in (1, -1) for sign in signs):
        raise ConfigurationError(f"signs must be +1 or -1, got {signs!r}")
    if not seeds:
        return np.zeros(dimension, dtype=np.int64)
    masks = get_mask_prg(prg).expand_batch(seeds, dimension, modulus)
    flips = np.asarray(signs, dtype=np.int64) == -1
    masks[flips] = np.mod(-masks[flips], modulus)
    if modulus <= LIMB_SPLIT_MAX_MODULUS:
        return sum_mod(masks.astype(np.uint64), modulus).astype(np.int64)
    # Enormous moduli (beyond the limb-split kernels) fall back to the
    # per-mask reduction; nothing in the repo uses moduli this large.
    total = np.zeros(dimension, dtype=object)
    for row in masks:
        total = np.mod(total + row, modulus)
    return total.astype(np.int64)


def keystream_batch(
    keys: Sequence[bytes], length: int
) -> np.ndarray:
    """SHA-256 counter-mode keystreams, full digest width, many keys.

    Unlike mask expansion over ``Z_256`` — which reads one *byte* out of
    each 64-bit word and therefore burns a whole SHA-256 block per four
    output bytes — the envelope keystream consumes all 32 digest bytes,
    an 8× reduction in hash invocations for the same stream length.

    Args:
        keys: One symmetric key per stream.
        length: Stream length in bytes (shared by all streams).

    Returns:
        ``(len(keys), length)`` uint8 array; stream ``k`` is
        ``SHA256(key_k || 0) || SHA256(key_k || 1) || ...`` truncated.
    """
    if length < 0:
        raise ConfigurationError(f"length must be >= 0, got {length}")
    if not keys or length == 0:
        return np.zeros((len(keys), length), dtype=np.uint8)
    blocks = (length + _DIGEST_BYTES - 1) // _DIGEST_BYTES
    counters = _counter_slices(0, blocks)
    sha256 = hashlib.sha256
    digest = b"".join(
        [
            sha256(key + counter).digest()
            for key in keys
            for counter in counters
        ]
    )
    return np.frombuffer(digest, dtype=np.uint8).reshape(
        len(keys), blocks * _DIGEST_BYTES
    )[:, :length]


def keystream(key: bytes, length: int) -> np.ndarray:
    """Single-key convenience wrapper around :func:`keystream_batch`."""
    return keystream_batch([key], length)[0]


# ---------------------------------------------------------------------------
# Batched Shamir: split over GF(p <= 2^61), reconstruction over any GF(p).
# ---------------------------------------------------------------------------


def _validate_split(
    secrets: np.ndarray, threshold: int, num_shares: int, prime: int
) -> None:
    if secrets.size and (
        int(secrets.min()) < 0 or int(secrets.max()) >= prime
    ):
        raise ConfigurationError(
            f"secrets must lie in [0, {prime}), got range "
            f"[{secrets.min()}, {secrets.max()}]"
        )
    if threshold < 1:
        raise ConfigurationError(f"threshold must be >= 1, got {threshold}")
    if num_shares < threshold:
        raise ConfigurationError(
            f"cannot issue {num_shares} shares with threshold {threshold}"
        )
    if num_shares >= prime:
        raise ConfigurationError(
            f"at most {prime - 1} shares exist over GF({prime})"
        )


def batched_split(
    secrets: Sequence[int] | np.ndarray,
    threshold: int,
    num_shares: int,
    rng: np.random.Generator,
    prime: int,
) -> np.ndarray:
    """Shamir-share many secrets over the same evaluation points at once.

    One independent uniform degree-``threshold - 1`` polynomial per
    secret, all evaluated at ``x = 1..num_shares`` with a single
    vectorised Horner recurrence.

    Args:
        secrets: ``(k,)`` secrets, each in ``[0, prime)``.
        threshold: Reconstruction threshold ``t``.
        num_shares: Number of evaluation points ``n``.
        rng: Source of the polynomial coefficients.
        prime: Field modulus, at most ``2^61``.

    Returns:
        ``(k, num_shares)`` uint64 matrix; row ``i``, column ``j`` is
        secret ``i``'s share value at ``x = j + 1``.

    Raises:
        ConfigurationError: On inconsistent parameters (mirrors the
            scalar :func:`repro.secagg.shamir.split_secret_scalar`).
    """
    secrets = np.asarray(secrets, dtype=np.uint64)
    if secrets.ndim != 1:
        raise ConfigurationError(
            f"secrets must be a 1-d sequence, got shape {secrets.shape}"
        )
    _validate_split(secrets, threshold, num_shares, prime)
    coefficients = np.empty((secrets.shape[0], threshold), dtype=np.uint64)
    coefficients[:, 0] = secrets
    if threshold > 1:
        coefficients[:, 1:] = rng.integers(
            0, prime, size=(secrets.shape[0], threshold - 1), dtype=np.uint64
        )
    xs = np.arange(1, num_shares + 1, dtype=np.uint64)
    return horner_mod(coefficients, xs, prime)


def lagrange_weights_at_zero(
    xs: Sequence[int] | np.ndarray, prime: int
) -> list[int]:
    """Lagrange weights ``l_i(0)`` for distinct points ``xs``, exactly.

    ``l_i(0) = Π_{j≠i} x_j / (x_j - x_i) = (Π_j x_j) / d_i`` with
    ``d_i = x_i · Π_{j≠i} (x_j - x_i) mod p``.  Point sets are small
    (``t`` is the Shamir threshold), so plain Python integers beat any
    array program here; the ``t`` inversions collapse into one
    ``pow(·, -1, p)`` by Montgomery's batch-inversion trick.  The
    weights are computed **once** per point set and reused for every
    secret sharing those points — the key saving in batched
    reconstruction.

    Args:
        xs: ``(t,)`` distinct nonzero points in ``(0, prime)``.
        prime: Field modulus (any prime; no limb-width limit).

    Returns:
        ``t`` weights in ``[0, prime)`` such that
        ``f(0) = Σ_i w_i f(x_i) mod p``.

    Raises:
        AggregationError: On duplicate, zero, or out-of-field points.
    """
    xs = [int(x) for x in xs]
    if not xs:
        raise AggregationError("cannot reconstruct from zero shares")
    if len(set(xs)) != len(xs):
        raise AggregationError(f"duplicate share points: {sorted(xs)}")
    if min(xs) <= 0 or max(xs) >= prime:
        raise AggregationError(
            f"share points must lie in (0, {prime}), got range "
            f"[{min(xs)}, {max(xs)}]"
        )
    denominators = []
    for x_i in xs:
        d_i = x_i
        for x_j in xs:
            if x_j != x_i:
                d_i = d_i * (x_j - x_i) % prime
        denominators.append(d_i)
    # prefixes[i] = d_0 ⋯ d_{i-1}.  Walking i downwards, ``scaled``
    # holds (Π_j x_j) / (d_0 ⋯ d_i), so w_i = scaled · prefixes[i], and
    # multiplying by d_i steps to i - 1: one inversion in total.
    prefixes = []
    running = 1
    for d_i in denominators:
        prefixes.append(running)
        running = running * d_i % prime
    scaled = math.prod(xs) * pow(running, -1, prime) % prime
    weights = [0] * len(xs)
    for i in range(len(xs) - 1, -1, -1):
        weights[i] = scaled * prefixes[i] % prime
        scaled = scaled * denominators[i] % prime
    return weights


def batched_reconstruct(
    xs: Sequence[int] | np.ndarray,
    ys: Sequence[Sequence[int]] | np.ndarray,
    prime: int,
) -> list[int]:
    """Reconstruct many secrets whose shares sit at the same points.

    Args:
        xs: ``(t,)`` distinct share points, shared by all secrets.
        ys: ``(k, t)`` share values; row ``i`` holds secret ``i``'s
            values at ``xs``.
        prime: Field modulus.

    Returns:
        The ``k`` secrets ``f_i(0)`` as Python integers.

    Raises:
        AggregationError: On malformed points or out-of-field values.
    """
    rows = [[int(y) for y in row] for row in ys]
    width = len(xs)
    for row in rows:
        if len(row) != width:
            raise AggregationError(
                f"{len(row)} share values per secret but {width} points"
            )
        for y in row:
            if not 0 <= y < prime:
                raise AggregationError(
                    f"share value {y} outside [0, {prime})"
                )
    weights = lagrange_weights_at_zero(xs, prime)
    return [
        sum(map(operator.mul, weights, row)) % prime for row in rows
    ]
