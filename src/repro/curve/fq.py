"""The BN254 base field F_q and its quadratic extension F_q2.

F_q2 = F_q[u] / (u^2 + 1) is represented as a plain ``(a0, a1)`` tuple of
ints meaning ``a0 + a1*u``.  Module-level functions (rather than classes)
keep CPython overhead out of the pairing hot path.
"""

from __future__ import annotations

from repro.errors import FieldError

#: The BN254 base-field modulus q.
Q = 21888242871839275222246405745257275088696311157297823662689037894645226208583

#: The curve coefficient: E/F_q : y^2 = x^3 + 3.
B = 3

Fq2 = tuple  # alias for readability in signatures: (a0, a1)

FQ2_ZERO: Fq2 = (0, 0)
FQ2_ONE: Fq2 = (1, 0)


def fq_inv(a: int) -> int:
    """Inverse in F_q."""
    a %= Q
    if a == 0:
        raise FieldError("inverse of zero in Fq")
    return pow(a, -1, Q)


def fq_batch_inverse(values: list[int]) -> list[int]:
    """Invert many F_q elements with a single modular inversion.

    Montgomery's trick, mirroring :func:`repro.field.fr.batch_inverse` but
    over the base field.  Used to normalise whole batches of Jacobian
    points to affine form with one inversion instead of one per point.
    """
    n = len(values)
    if n == 0:
        return []
    prefix = [0] * n
    acc = 1
    for i, v in enumerate(values):
        v %= Q
        if v == 0:
            raise FieldError("batch inverse of zero in Fq at index %d" % i)
        prefix[i] = acc
        acc = acc * v % Q
    acc_inv = fq_inv(acc)
    out = [0] * n
    for i in range(n - 1, -1, -1):
        out[i] = acc_inv * prefix[i] % Q
        acc_inv = acc_inv * values[i] % Q
    return out


def fq2_add(a: Fq2, b: Fq2) -> Fq2:
    return ((a[0] + b[0]) % Q, (a[1] + b[1]) % Q)


def fq2_sub(a: Fq2, b: Fq2) -> Fq2:
    return ((a[0] - b[0]) % Q, (a[1] - b[1]) % Q)


def fq2_neg(a: Fq2) -> Fq2:
    return (-a[0] % Q, -a[1] % Q)


def fq2_mul(a: Fq2, b: Fq2) -> Fq2:
    a0, a1 = a
    b0, b1 = b
    return ((a0 * b0 - a1 * b1) % Q, (a0 * b1 + a1 * b0) % Q)


def fq2_square(a: Fq2) -> Fq2:
    a0, a1 = a
    return ((a0 + a1) * (a0 - a1) % Q, 2 * a0 * a1 % Q)


def fq2_scalar(a: Fq2, k: int) -> Fq2:
    return (a[0] * k % Q, a[1] * k % Q)


def fq2_inv(a: Fq2) -> Fq2:
    a0, a1 = a
    norm = (a0 * a0 + a1 * a1) % Q
    if norm == 0:
        raise FieldError("inverse of zero in Fq2")
    ninv = fq_inv(norm)
    return (a0 * ninv % Q, -a1 * ninv % Q)


def fq2_batch_inverse(values: list[Fq2]) -> list[Fq2]:
    """Invert many F_q2 elements with a single F_q inversion.

    Montgomery's trick over the extension field; the one true inversion
    happens inside :func:`fq2_inv` of the running product.
    """
    n = len(values)
    if n == 0:
        return []
    prefix: list[Fq2] = [FQ2_ONE] * n
    acc = FQ2_ONE
    for i, v in enumerate(values):
        if fq2_is_zero(v):
            raise FieldError("batch inverse of zero in Fq2 at index %d" % i)
        prefix[i] = acc
        acc = fq2_mul(acc, v)
    acc_inv = fq2_inv(acc)
    out: list[Fq2] = [FQ2_ONE] * n
    for i in range(n - 1, -1, -1):
        out[i] = fq2_mul(acc_inv, prefix[i])
        acc_inv = fq2_mul(acc_inv, values[i])
    return out


def fq2_pow(a: Fq2, e: int) -> Fq2:
    result = FQ2_ONE
    base = a
    while e:
        if e & 1:
            result = fq2_mul(result, base)
        base = fq2_square(base)
        e >>= 1
    return result


def fq2_eq(a: Fq2, b: Fq2) -> bool:
    return a[0] % Q == b[0] % Q and a[1] % Q == b[1] % Q


def fq2_is_zero(a: Fq2) -> bool:
    return a[0] % Q == 0 and a[1] % Q == 0
