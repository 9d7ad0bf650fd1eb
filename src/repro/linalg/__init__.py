"""Linear-algebra substrate: Walsh-Hadamard rotation and mod-m codec."""

from repro.linalg.hadamard import (
    RandomRotation,
    fast_walsh_hadamard,
    is_power_of_two,
    naive_walsh_hadamard_matrix,
    next_power_of_two,
)
from repro.linalg.modular import (
    LIMB_SPLIT_MAX_MODULUS,
    decode_centered,
    encode_mod,
    horner_mod,
    mul_mod,
    pow_mod,
    sum_mod,
    wraps_around,
)

__all__ = [
    "LIMB_SPLIT_MAX_MODULUS",
    "RandomRotation",
    "decode_centered",
    "encode_mod",
    "fast_walsh_hadamard",
    "horner_mod",
    "is_power_of_two",
    "mul_mod",
    "naive_walsh_hadamard_matrix",
    "next_power_of_two",
    "pow_mod",
    "sum_mod",
    "wraps_around",
]
