"""Finite-field arithmetic for the BN254 scalar field: plain ``int``
values modulo :data:`repro.field.fr.MODULUS`, polynomials and NTT domains.
"""

from repro.field.fr import (
    MODULUS,
    batch_inverse,
    inv,
    random_scalar,
    root_of_unity,
)
from repro.field.ntt import Domain
from repro.field import poly

__all__ = [
    "MODULUS",
    "Domain",
    "batch_inverse",
    "inv",
    "poly",
    "random_scalar",
    "root_of_unity",
]
