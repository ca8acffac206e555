"""The group G1 of BN254: points on y^2 = x^3 + 3 over F_q.

Hot-path arithmetic (MSM, scalar multiplication) runs on Jacobian
coordinate triples of plain ints; the :class:`G1` class wraps affine points
for protocol-level code and (de)serialisation.
"""

from __future__ import annotations

from repro.errors import CurveError
from repro.curve.fq import B, Q, fq_batch_inverse, fq_inv
from repro.field.fr import MODULUS as R

#: Jacobian point-at-infinity sentinel.
JAC_INF = (1, 1, 0)

#: Affine generator of G1.
GEN_X = 1
GEN_Y = 2


def jac_double(p: tuple) -> tuple:
    x, y, z = p
    if z == 0 or y == 0:
        return JAC_INF
    a = x * x % Q
    b = y * y % Q
    c = b * b % Q
    d = 2 * ((x + b) * (x + b) - a - c) % Q
    e = 3 * a % Q
    f = e * e % Q
    x3 = (f - 2 * d) % Q
    y3 = (e * (d - x3) - 8 * c) % Q
    z3 = 2 * y * z % Q
    return (x3, y3, z3)


def jac_add(p: tuple, q: tuple) -> tuple:
    if p[2] == 0:
        return q
    if q[2] == 0:
        return p
    x1, y1, z1 = p
    x2, y2, z2 = q
    z1z1 = z1 * z1 % Q
    if z2 == 1:
        # Mixed addition (q affine): saves five multiplications.  MSM
        # bucket insertion — the prover's hottest loop — always adds an
        # affine SRS point, so this path dominates.
        u1, s1 = x1, y1
        u2 = x2 * z1z1 % Q
        s2 = y2 * z1 * z1z1 % Q
        if u1 == u2:
            if s1 != s2:
                return JAC_INF
            return jac_double(p)
        h = (u2 - u1) % Q
        i = 4 * h * h % Q
        j = h * i % Q
        rr = 2 * (s2 - s1) % Q
        v = u1 * i % Q
        x3 = (rr * rr - j - 2 * v) % Q
        y3 = (rr * (v - x3) - 2 * s1 * j) % Q
        z3 = 2 * z1 * h % Q
        return (x3, y3, z3)
    z2z2 = z2 * z2 % Q
    u1 = x1 * z2z2 % Q
    u2 = x2 * z1z1 % Q
    s1 = y1 * z2 * z2z2 % Q
    s2 = y2 * z1 * z1z1 % Q
    if u1 == u2:
        if s1 != s2:
            return JAC_INF
        return jac_double(p)
    h = (u2 - u1) % Q
    i = 4 * h * h % Q
    j = h * i % Q
    rr = 2 * (s2 - s1) % Q
    v = u1 * i % Q
    x3 = (rr * rr - j - 2 * v) % Q
    y3 = (rr * (v - x3) - 2 * s1 * j) % Q
    z3 = ((z1 + z2) * (z1 + z2) - z1z1 - z2z2) * h % Q
    return (x3, y3, z3)


def jac_neg(p: tuple) -> tuple:
    return (p[0], -p[1] % Q, p[2])


def reduce_scalar(k: int) -> int:
    """Canonical scalar reduction modulo the group order r.

    Shared by :func:`jac_mul` and the MSM so every kernel agrees on how
    out-of-range scalars fold into the group.
    """
    return k % R


def jac_mul(p: tuple, k: int) -> tuple:
    """Scalar multiplication by double-and-add (scalar reduced mod r)."""
    k = reduce_scalar(k)
    if k == 0 or p[2] == 0:
        return JAC_INF
    result = JAC_INF
    for bit in bin(k)[2:]:
        result = jac_double(result)
        if bit == "1":
            result = jac_add(result, p)
    return result


def jac_to_affine(p: tuple) -> tuple | None:
    """Convert to an affine ``(x, y)`` pair, or None for infinity."""
    if p[2] == 0:
        return None
    zinv = fq_inv(p[2])
    zinv2 = zinv * zinv % Q
    return (p[0] * zinv2 % Q, p[1] * zinv2 * zinv % Q)


def jac_batch_normalize(points: list[tuple]) -> list[tuple]:
    """Normalise finite Jacobian points to ``z = 1`` with one inversion.

    Every returned triple has ``z == 1`` so subsequent :func:`jac_add`
    calls with these points as the second operand take the cheap mixed-
    addition path.  Points at infinity are not accepted (callers filter
    them first).
    """
    if all(p[2] == 1 for p in points):
        return list(points)
    zinvs = fq_batch_inverse([p[2] for p in points])
    out = []
    for (x, y, _), zi in zip(points, zinvs):
        zi2 = zi * zi % Q
        out.append((x * zi2 % Q, y * zi2 * zi % Q, 1))
    return out


class G1:
    """An affine point of G1 (immutable)."""

    __slots__ = ("x", "y", "inf")

    def __init__(self, x: int = 0, y: int = 0, inf: bool = False):
        if inf:
            object.__setattr__(self, "x", 0)
            object.__setattr__(self, "y", 0)
            object.__setattr__(self, "inf", True)
            return
        x %= Q
        y %= Q
        if (y * y - (x * x * x + B)) % Q != 0:
            raise CurveError("point (%d, %d) is not on G1" % (x, y))
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "inf", False)

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("G1 is immutable")

    def __reduce__(self):
        return (G1, (self.x, self.y, self.inf))

    @staticmethod
    def generator() -> "G1":
        return G1(GEN_X, GEN_Y)

    @staticmethod
    def identity() -> "G1":
        return G1(inf=True)

    @staticmethod
    def from_jacobian(p: tuple) -> "G1":
        aff = jac_to_affine(p)
        if aff is None:
            return G1.identity()
        return G1(aff[0], aff[1])

    @staticmethod
    def batch_from_jacobian(points: list[tuple]) -> list["G1"]:
        """Convert many Jacobian tuples to affine points with one inversion.

        The SRS generator and Groth16 setup convert thousands of points at
        once; per-point :func:`fq_inv` calls would each cost a full modular
        exponentiation.
        """
        finite = [(i, p) for i, p in enumerate(points) if p[2] != 0]
        normalized = jac_batch_normalize([p for _, p in finite])
        out: list[G1] = [G1.identity()] * len(points)
        for (i, _), q in zip(finite, normalized):
            out[i] = G1(q[0], q[1])
        return out

    def to_jacobian(self) -> tuple:
        if self.inf:
            return JAC_INF
        return (self.x, self.y, 1)

    def __add__(self, other: "G1") -> "G1":
        if not isinstance(other, G1):
            return NotImplemented
        return G1.from_jacobian(jac_add(self.to_jacobian(), other.to_jacobian()))

    def __sub__(self, other: "G1") -> "G1":
        if not isinstance(other, G1):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "G1":
        if self.inf:
            return self
        return G1(self.x, -self.y % Q)

    def __mul__(self, k) -> "G1":
        if not isinstance(k, int):
            k = int(k)
        # Lazy import: glv derives its constants from this module at
        # its own import time.
        from repro.curve.glv import glv_jac_mul

        return G1.from_jacobian(glv_jac_mul(self.to_jacobian(), k))

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, G1):
            return NotImplemented
        if self.inf or other.inf:
            return self.inf == other.inf
        return self.x == other.x and self.y == other.y

    def __hash__(self):
        return hash(("G1", self.inf, self.x, self.y))

    def to_bytes(self) -> bytes:
        """Serialise as 64 bytes (x || y little-endian); infinity is zeros."""
        if self.inf:
            return b"\x00" * 64
        return self.x.to_bytes(32, "little") + self.y.to_bytes(32, "little")

    @staticmethod
    def from_bytes(data: bytes) -> "G1":
        if len(data) != 64:
            raise CurveError("G1 serialisation must be 64 bytes")
        if data == b"\x00" * 64:
            return G1.identity()
        x = int.from_bytes(data[:32], "little")
        y = int.from_bytes(data[32:], "little")
        if x >= Q or y >= Q:
            # The constructor reduces mod q: x + q would alias x.
            raise CurveError("G1 coordinate out of range")
        return G1(x, y)

    def __repr__(self):
        if self.inf:
            return "G1(infinity)"
        return "G1(%d, %d)" % (self.x, self.y)
