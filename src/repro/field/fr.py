"""The BN254 (alt_bn128) scalar field F_r.

This is the field over which all arithmetic circuits, polynomials and
witnesses are defined.  BN254 is the curve used by the paper's prototype
(Circom/Snarkjs call it *bn128*); its scalar field has 2-adicity 28, i.e.
``2**28`` divides ``r - 1``, which provides the radix-2 evaluation domains
needed by the Plonk prover.

Elements are plain Python ints reduced modulo :data:`MODULUS` throughout
the library: in CPython a wrapper object per element costs more than the
arithmetic it wraps.
"""

from __future__ import annotations

import secrets

from repro.errors import FieldError

#: Order of the BN254 G1/G2 groups and modulus of the scalar field.
MODULUS = 21888242871839275222246405745257275088548364400416034343698204186575808495617

#: Largest k such that 2**k divides MODULUS - 1.
TWO_ADICITY = 28

_R = MODULUS


def _find_two_adic_root() -> int:
    """Return a primitive 2**TWO_ADICITY-th root of unity.

    We do not need a full multiplicative generator of F_r*: any element g
    with exact order 2**28 suffices for the FFT domains.  Candidates are
    raised to (r-1)/2**28 and checked for exact order.
    """
    exponent = (_R - 1) >> TWO_ADICITY
    for candidate in (5, 7, 3, 2, 6, 10, 11, 13):
        g = pow(candidate, exponent, _R)
        if pow(g, 1 << (TWO_ADICITY - 1), _R) != 1 and pow(g, 1 << TWO_ADICITY, _R) == 1:
            return g
    raise FieldError("no 2-adic root of unity found (modulus misconfigured)")


#: A fixed primitive 2**28-th root of unity.
TWO_ADIC_ROOT = _find_two_adic_root()


def inv(a: int) -> int:
    """Return the multiplicative inverse of ``a`` modulo the field order."""
    a %= _R
    if a == 0:
        raise FieldError("inverse of zero")
    return pow(a, -1, _R)


def batch_inverse(values: list[int]) -> list[int]:
    """Invert many field elements with a single modular inversion.

    Uses Montgomery's trick: one inversion plus ``3(n-1)`` multiplications.
    Raises :class:`FieldError` if any input is zero.
    """
    n = len(values)
    if n == 0:
        return []
    prefix = [0] * n
    acc = 1
    for i, v in enumerate(values):
        v %= _R
        if v == 0:
            raise FieldError("batch inverse of zero at index %d" % i)
        prefix[i] = acc
        acc = acc * v % _R
    acc_inv = inv(acc)
    out = [0] * n
    for i in range(n - 1, -1, -1):
        out[i] = acc_inv * prefix[i] % _R
        acc_inv = acc_inv * values[i] % _R
    return out


def root_of_unity(order: int) -> int:
    """Return a primitive ``order``-th root of unity (order a power of two)."""
    if order <= 0 or order & (order - 1):
        raise FieldError("order must be a positive power of two, got %r" % order)
    log = order.bit_length() - 1
    if log > TWO_ADICITY:
        raise FieldError("order 2**%d exceeds the field 2-adicity %d" % (log, TWO_ADICITY))
    return pow(TWO_ADIC_ROOT, 1 << (TWO_ADICITY - log), _R)


def random_scalar(nonzero: bool = False) -> int:
    """Sample a random scalar field element (as a raw int).

    Randomness contract: this is the *only* sanctioned entropy source on
    the proving path (the pinned-blinder ``GOLDEN`` proofs in
    ``tests/test_plonk.py`` replace it, so any other source moves their
    bytes), and it draws from :func:`secrets.randbelow` — the OS
    CSPRNG — never from :mod:`random`.  A biased or predictable sampler here breaks zero
    knowledge outright: Plonk's blinding factors, the settlement fold's batch
    weights and Groth16's ``r, s`` all assume uniform scalars.

    With ``nonzero=True`` the sample is drawn from ``F_r^*`` by rejection
    (expected iterations: ``1 + 1/r``, i.e. the loop essentially never
    repeats).  Blinding call sites use this: a zero blinder degrades a
    hiding commitment to a binding-only one, a zero batch weight drops an
    equation from a folded check, and a zero ``k_v`` in the exchange
    protocol would publish the data key directly.
    """
    while True:
        value = secrets.randbelow(_R)
        if value != 0 or not nonzero:
            return value

