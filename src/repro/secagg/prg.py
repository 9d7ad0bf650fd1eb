"""Deterministic mask expansion: seed -> uniform vector over ``Z_m``.

Both mask kinds in the Bonawitz protocol — the pairwise masks derived
from DH seeds and the self-masks derived from ``b_u`` — are produced by
expanding a short seed into a length-``d`` vector of integers uniform
over ``Z_m``.  Correct dropout recovery requires that the server, given
a reconstructed seed, regenerates *bit-identical* masks, so the
expansion must be a deterministic function of the seed alone.

The default expansion is SHA-256 in counter mode: ``block_i =
SHA256(seed || i)``, concatenated and read as little-endian 64-bit
words.  For power-of-two moduli (every modulus the paper uses) the
words are masked to ``log2(m)`` bits, which is exactly uniform.  For
general moduli, rejection sampling below the largest multiple of ``m``
keeps the output exactly uniform rather than module-biased.

The actual computation lives in the vectorised kernel layer
(:mod:`repro.secagg.kernels`): this module keeps the stable functional
API and routes it through a selectable :class:`~repro.secagg.kernels.MaskPrg`
backend (SHA-256 counter mode by default, numpy Philox for speed).  The
golden-vector tests pin the default backend against frozen digests and a
test-local copy of the original scalar expansion.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.secagg.kernels import MaskPrg, get_mask_prg


def expand_mask(
    seed: bytes,
    dimension: int,
    modulus: int,
    prg: MaskPrg | str | None = None,
) -> np.ndarray:
    """Expand ``seed`` into a deterministic uniform vector over ``Z_m``.

    Args:
        seed: Arbitrary-length byte seed (32 bytes in the protocol).
        dimension: Output length ``d``.
        modulus: The group modulus ``m >= 2``.
        prg: Mask PRG backend — a registered name (``"sha256-ctr"``,
            ``"philox"``), a :class:`~repro.secagg.kernels.MaskPrg`
            instance, or None for the bit-compatible SHA-256 default.

    Returns:
        Length-``d`` int64 array with entries in ``[0, m)``; identical
        for identical ``(seed, dimension, modulus)`` and backend.

    Raises:
        ConfigurationError: On a negative dimension, modulus < 2, or an
            unknown backend name.
    """
    return get_mask_prg(prg).expand(seed, dimension, modulus)


def pairwise_delta(
    seed: bytes,
    dimension: int,
    modulus: int,
    sign: int,
    prg: MaskPrg | str | None = None,
) -> np.ndarray:
    """The signed pairwise-mask contribution of one participant.

    Participant ``u`` adds ``+PRG(s_uv)`` for every peer ``v > u`` and
    ``-PRG(s_uv)`` for every peer ``v < u`` (mod ``m``); the two
    contributions cancel in the aggregate.

    Args:
        seed: The shared pairwise seed ``s_uv``.
        dimension: Vector length.
        modulus: Group modulus.
        sign: ``+1`` for the lower-indexed party, ``-1`` for the higher.
        prg: Mask PRG backend (see :func:`expand_mask`).

    Returns:
        The signed mask, reduced into ``[0, m)``.
    """
    if sign not in (1, -1):
        raise ConfigurationError(f"sign must be +1 or -1, got {sign}")
    mask = expand_mask(seed, dimension, modulus, prg)
    return mask if sign == 1 else np.mod(-mask, modulus)
