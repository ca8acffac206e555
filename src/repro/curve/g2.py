"""The group G2 of BN254: points on the sextic twist over F_q2.

Twist curve: y^2 = x^3 + b2 with b2 = 3 / (9 + u).  Same Jacobian formulas
as G1 but with F_q2 coordinate arithmetic.
"""

from __future__ import annotations

from repro.errors import CurveError
from repro.curve.fq import (
    Q as _Q,
    FQ2_ONE,
    FQ2_ZERO,
    fq2_add,
    fq2_batch_inverse,
    fq2_eq,
    fq2_inv,
    fq2_is_zero,
    fq2_mul,
    fq2_neg,
    fq2_scalar,
    fq2_square,
    fq2_sub,
)
from repro.field.fr import MODULUS as R

#: Twist coefficient b2 = 3 / (9 + u).
B2 = fq2_mul((3, 0), fq2_inv((9, 1)))

#: Standard affine generator of G2.
GEN_X = (
    10857046999023057135944570762232829481370756359578518086990519993285655852781,
    11559732032986387107991004021392285783925812861821192530917403151452391805634,
)
GEN_Y = (
    8495653923123431417604973247489272438418190587263600148770280649306958101930,
    4082367875863433681332203403145435568316851327593401208105741076214120093531,
)

JAC_INF = (FQ2_ONE, FQ2_ONE, FQ2_ZERO)


def jac2_double(p: tuple) -> tuple:
    x, y, z = p
    if fq2_is_zero(z) or fq2_is_zero(y):
        return JAC_INF
    a = fq2_square(x)
    b = fq2_square(y)
    c = fq2_square(b)
    t = fq2_square(fq2_add(x, b))
    d = fq2_scalar(fq2_sub(fq2_sub(t, a), c), 2)
    e = fq2_scalar(a, 3)
    f = fq2_square(e)
    x3 = fq2_sub(f, fq2_scalar(d, 2))
    y3 = fq2_sub(fq2_mul(e, fq2_sub(d, x3)), fq2_scalar(c, 8))
    z3 = fq2_scalar(fq2_mul(y, z), 2)
    return (x3, y3, z3)


def jac2_add(p: tuple, q: tuple) -> tuple:
    if fq2_is_zero(p[2]):
        return q
    if fq2_is_zero(q[2]):
        return p
    x1, y1, z1 = p
    x2, y2, z2 = q
    z1z1 = fq2_square(z1)
    if z2 == FQ2_ONE:
        # Mixed addition (q affine), mirroring the G1 fast path; the G2
        # MSM batch-normalises its inputs so bucket insertion lands here.
        u1, s1 = x1, y1
        u2 = fq2_mul(x2, z1z1)
        s2 = fq2_mul(fq2_mul(y2, z1), z1z1)
        if fq2_eq(u1, u2):
            if not fq2_eq(s1, s2):
                return JAC_INF
            return jac2_double(p)
        h = fq2_sub(u2, u1)
        i = fq2_scalar(fq2_square(h), 4)
        j = fq2_mul(h, i)
        rr = fq2_scalar(fq2_sub(s2, s1), 2)
        v = fq2_mul(u1, i)
        x3 = fq2_sub(fq2_sub(fq2_square(rr), j), fq2_scalar(v, 2))
        y3 = fq2_sub(fq2_mul(rr, fq2_sub(v, x3)), fq2_scalar(fq2_mul(s1, j), 2))
        z3 = fq2_scalar(fq2_mul(z1, h), 2)
        return (x3, y3, z3)
    z2z2 = fq2_square(z2)
    u1 = fq2_mul(x1, z2z2)
    u2 = fq2_mul(x2, z1z1)
    s1 = fq2_mul(fq2_mul(y1, z2), z2z2)
    s2 = fq2_mul(fq2_mul(y2, z1), z1z1)
    if fq2_eq(u1, u2):
        if not fq2_eq(s1, s2):
            return JAC_INF
        return jac2_double(p)
    h = fq2_sub(u2, u1)
    i = fq2_scalar(fq2_square(h), 4)
    j = fq2_mul(h, i)
    rr = fq2_scalar(fq2_sub(s2, s1), 2)
    v = fq2_mul(u1, i)
    x3 = fq2_sub(fq2_sub(fq2_square(rr), j), fq2_scalar(v, 2))
    y3 = fq2_sub(fq2_mul(rr, fq2_sub(v, x3)), fq2_scalar(fq2_mul(s1, j), 2))
    zsum = fq2_square(fq2_add(z1, z2))
    z3 = fq2_mul(fq2_sub(fq2_sub(zsum, z1z1), z2z2), h)
    return (x3, y3, z3)


def jac2_mul(p: tuple, k: int) -> tuple:
    k %= R
    if k == 0 or fq2_is_zero(p[2]):
        return JAC_INF
    result = JAC_INF
    for bit in bin(k)[2:]:
        result = jac2_double(result)
        if bit == "1":
            result = jac2_add(result, p)
    return result


def jac2_to_affine(p: tuple) -> tuple | None:
    if fq2_is_zero(p[2]):
        return None
    zinv = fq2_inv(p[2])
    zinv2 = fq2_square(zinv)
    return (fq2_mul(p[0], zinv2), fq2_mul(fq2_mul(p[1], zinv2), zinv))


def jac2_batch_normalize(points: list[tuple]) -> list[tuple]:
    """Normalise finite G2 Jacobian points to ``z = 1`` with one inversion.

    The G2 analogue of :func:`repro.curve.g1.jac_batch_normalize`: makes
    every point eligible for the mixed-addition fast path in
    :func:`jac2_add`.  Points at infinity are not accepted.
    """
    if all(p[2] == FQ2_ONE for p in points):
        return list(points)
    zinvs = fq2_batch_inverse([p[2] for p in points])
    out = []
    for (x, y, _), zi in zip(points, zinvs):
        zi2 = fq2_square(zi)
        out.append((fq2_mul(x, zi2), fq2_mul(fq2_mul(y, zi2), zi), FQ2_ONE))
    return out


class G2:
    """An affine point of G2 (immutable); coordinates are F_q2 tuples."""

    __slots__ = ("x", "y", "inf")

    def __init__(self, x: tuple = FQ2_ZERO, y: tuple = FQ2_ZERO, inf: bool = False):
        if inf:
            object.__setattr__(self, "x", FQ2_ZERO)
            object.__setattr__(self, "y", FQ2_ZERO)
            object.__setattr__(self, "inf", True)
            return
        x = (x[0] % _Q, x[1] % _Q)
        y = (y[0] % _Q, y[1] % _Q)
        lhs = fq2_square(y)
        rhs = fq2_add(fq2_mul(fq2_square(x), x), B2)
        if not fq2_eq(lhs, rhs):
            raise CurveError("point is not on the G2 twist curve")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "inf", False)

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("G2 is immutable")

    @staticmethod
    def generator() -> "G2":
        return G2(GEN_X, GEN_Y)

    @staticmethod
    def identity() -> "G2":
        return G2(inf=True)

    @staticmethod
    def from_jacobian(p: tuple) -> "G2":
        aff = jac2_to_affine(p)
        if aff is None:
            return G2.identity()
        return G2(aff[0], aff[1])

    @staticmethod
    def batch_from_jacobian(points: list[tuple]) -> list["G2"]:
        """Convert many Jacobian tuples to affine points with one inversion.

        The G2 analogue of :meth:`G1.batch_from_jacobian`, used by the
        Groth16 setup's per-variable [V_j(tau)]_2 query.
        """
        finite = [(i, p) for i, p in enumerate(points) if not fq2_is_zero(p[2])]
        normalized = jac2_batch_normalize([p for _, p in finite])
        out: list[G2] = [G2.identity()] * len(points)
        for (i, _), q in zip(finite, normalized):
            out[i] = G2(q[0], q[1])
        return out

    def to_jacobian(self) -> tuple:
        if self.inf:
            return JAC_INF
        return (self.x, self.y, FQ2_ONE)

    def __add__(self, other: "G2") -> "G2":
        if not isinstance(other, G2):
            return NotImplemented
        return G2.from_jacobian(jac2_add(self.to_jacobian(), other.to_jacobian()))

    def __sub__(self, other: "G2") -> "G2":
        if not isinstance(other, G2):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "G2":
        if self.inf:
            return self
        return G2(self.x, fq2_neg(self.y))

    def __mul__(self, k) -> "G2":
        if not isinstance(k, int):
            k = int(k)
        return G2.from_jacobian(jac2_mul(self.to_jacobian(), k))

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, G2):
            return NotImplemented
        if self.inf or other.inf:
            return self.inf == other.inf
        return fq2_eq(self.x, other.x) and fq2_eq(self.y, other.y)

    def __hash__(self):
        return hash(("G2", self.inf, self.x, self.y))

    def in_subgroup(self) -> bool:
        """Check that the point has order r.

        Required of SRS elements and of any G2 point an adversary supplies
        (a Groth16 ``proof.b``): the twist's cofactor is ~2^254, so being
        on the curve says nothing.  ``jac2_mul`` reduces its scalar mod r,
        so ``[r]P`` is taken as ``[r-1]P + P``.
        """
        if self.inf:
            return True
        jac = self.to_jacobian()
        return fq2_is_zero(jac2_add(jac2_mul(jac, R - 1), jac)[2])

    def to_bytes(self) -> bytes:
        """Serialise as 128 bytes (x0 x1 y0 y1 little-endian)."""
        if self.inf:
            return b"\x00" * 128
        parts = (self.x[0], self.x[1], self.y[0], self.y[1])
        return b"".join(v.to_bytes(32, "little") for v in parts)

    @staticmethod
    def from_bytes(data: bytes) -> "G2":
        if len(data) != 128:
            raise CurveError("G2 serialisation must be 128 bytes")
        if data == b"\x00" * 128:
            return G2.identity()
        vals = [int.from_bytes(data[i : i + 32], "little") for i in range(0, 128, 32)]
        if max(vals) >= _Q:
            # The constructor reduces mod q: x + q would alias x.
            raise CurveError("G2 coordinate out of range")
        return G2((vals[0], vals[1]), (vals[2], vals[3]))

    def __repr__(self):
        if self.inf:
            return "G2(infinity)"
        return "G2(x=%r, y=%r)" % (self.x, self.y)

