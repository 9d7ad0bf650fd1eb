"""Scalar Shamir reconstruction: the field-arithmetic test oracle.

The original per-pair Lagrange loops over :class:`PrimeField` scalar
operations, one field inversion per share.  Production reconstruction
(:func:`repro.secagg.kernels.lagrange_weights_at_zero`) must agree with
these weights and secrets for every prime; ``tests/test_shamir.py`` and
``tests/test_secagg_kernels.py`` drive the comparison.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.secagg.field import DEFAULT_FIELD, PrimeField
from repro.secagg.shamir import Share


def lagrange_weights_scalar(
    xs: Sequence[int], field: PrimeField = DEFAULT_FIELD
) -> list[int]:
    """``l_i(0) = Π_{j≠i} (-x_j) / (x_i - x_j)``, one loop per pair."""
    weights = []
    for i, x_i in enumerate(xs):
        numerator = 1
        denominator = 1
        for j, x_j in enumerate(xs):
            if i == j:
                continue
            numerator = field.mul(numerator, field.neg(x_j))
            denominator = field.mul(denominator, field.sub(x_i, x_j))
        weights.append(field.mul(numerator, field.inv(denominator)))
    return weights


def reconstruct_secret_scalar(
    shares: Iterable[Share], field: PrimeField = DEFAULT_FIELD
) -> int:
    """``f(0) = Σ_i l_i(0) · y_i`` through the scalar weights."""
    shares = list(shares)
    weights = lagrange_weights_scalar([share.x for share in shares], field)
    secret = 0
    for weight, share in zip(weights, shares):
        secret = field.add(secret, field.mul(share.y, weight))
    return secret
