"""Radix-2 number-theoretic transforms over the BN254 scalar field.

The Plonk prover evaluates and interpolates polynomials over multiplicative
subgroups H = <omega> of size 2^k, and over cosets g*H when the vanishing
polynomial of H must be non-zero (quotient computation).  :class:`Domain`
bundles a subgroup with its precomputed twiddle factors.
"""

from __future__ import annotations

from repro import telemetry as _tel
from repro.errors import FieldError
from repro.field.fr import MODULUS, batch_inverse, inv, root_of_unity

_R = MODULUS

#: Multiplicative shift used for coset evaluation domains.  Any element
#: outside every 2-adic subgroup works; 7 is the conventional choice.
COSET_SHIFT = 7


def _bit_reverse_permute(values: list[int]) -> None:
    """Permute ``values`` in place into bit-reversed index order."""
    n = len(values)
    j = 0
    for i in range(1, n):
        bit = n >> 1
        while j & bit:
            j ^= bit
            bit >>= 1
        j |= bit
        if i < j:
            values[i], values[j] = values[j], values[i]


def _ntt_in_place(values: list[int], twiddles: list[int]) -> None:
    """Cooley-Tukey butterflies with lazy reduction, in place.

    Inputs must be canonical (in ``[0, r)``); every butterfly keeps both
    outputs canonical with a compare-and-correct instead of a full
    bigint ``%`` — on 254-bit operands a subtraction is several times
    cheaper than a reduction, and the add/sub reductions are half of the
    butterfly's modular work.  The first level (``length == 2``) always
    multiplies by ``w == 1``, so its n/2 twiddle multiplications are
    skipped outright.  ``tests/substrate_oracle.py`` keeps the
    modulo-per-butterfly transform this is bit-identical to.
    """
    n = len(values)
    _bit_reverse_permute(values)
    if n >= 2:
        # length == 2: w is always twiddles[0] == 1.
        for k in range(0, n, 2):
            u = values[k]
            t = values[k + 1]
            v0 = u + t
            if v0 >= _R:
                v0 -= _R
            v1 = u - t
            if v1 < 0:
                v1 += _R
            values[k] = v0
            values[k + 1] = v1
    length = 4
    while length <= n:
        half = length >> 1
        step = n // length
        for start in range(0, n, length):
            idx = 0
            for k in range(start, start + half):
                u = values[k]
                if idx:
                    t = values[k + half] * twiddles[idx] % _R
                else:
                    t = values[k + half]
                v0 = u + t
                if v0 >= _R:
                    v0 -= _R
                v1 = u - t
                if v1 < 0:
                    v1 += _R
                values[k] = v0
                values[k + half] = v1
                idx += step
        length <<= 1


class Domain:
    """A radix-2 evaluation domain H of size ``n`` with FFT support.

    Attributes:
        n: domain size (power of two).
        omega: generator of H (primitive n-th root of unity).
        elements: the points ``[1, omega, omega**2, ...]``.
    """

    _cache: dict[int, "Domain"] = {}

    def __init__(self, n: int):
        if n <= 0 or n & (n - 1):
            raise FieldError("domain size must be a power of two, got %r" % n)
        self.n = n
        self.omega = root_of_unity(n) if n > 1 else 1
        self.omega_inv = inv(self.omega)
        self.n_inv = inv(n)
        half = max(n >> 1, 1)
        self._twiddles = [1] * half
        self._inv_twiddles = [1] * half
        w = wi = 1
        for i in range(1, half):
            w = w * self.omega % _R
            wi = wi * self.omega_inv % _R
            self._twiddles[i] = w
            self._inv_twiddles[i] = wi
        self._elements: list[int] | None = None

    def tables(self) -> tuple[list[int], list[int]]:
        """The forward and inverse twiddle tables (read-only views)."""
        return self._twiddles, self._inv_twiddles

    @classmethod
    def get(cls, n: int) -> "Domain":
        """Return a cached domain of size ``n`` (domains are immutable)."""
        dom = cls._cache.get(n)
        if _tel.enabled():
            _tel.counter(
                "engine.cache.hits" if dom is not None else "engine.cache.misses",
                cache="ntt_plan",
            ).inc()
        if dom is None:
            dom = cls(n)
            cls._cache[n] = dom
        return dom

    @property
    def elements(self) -> list[int]:
        """All domain points in order ``omega**0 .. omega**(n-1)``.

        Computed once and cached; callers must treat the list as
        read-only.
        """
        if self._elements is None:
            out = [1] * self.n
            acc = 1
            for i in range(1, self.n):
                acc = acc * self.omega % _R
                out[i] = acc
            self._elements = out
        return self._elements

    def fft(self, coeffs: list[int]) -> list[int]:
        """Evaluate the polynomial with ``coeffs`` over H.

        Input shorter than ``n`` is zero-padded; longer input is an
        error (it would alias).
        """
        if len(coeffs) > self.n:
            raise FieldError("polynomial degree too large for domain")
        values = [c % _R for c in coeffs] + [0] * (self.n - len(coeffs))
        _ntt_in_place(values, self._twiddles)
        return values

    def ifft(self, evals: list[int]) -> list[int]:
        """Interpolate a polynomial (coefficients) from evaluations over H."""
        if len(evals) != self.n:
            raise FieldError("expected %d evaluations, got %d" % (self.n, len(evals)))
        values = [v % _R for v in evals]
        _ntt_in_place(values, self._inv_twiddles)
        ninv = self.n_inv
        return [v * ninv % _R for v in values]

    def coset_fft(self, coeffs: list[int], shift: int = COSET_SHIFT) -> list[int]:
        """Evaluate over the coset ``shift * H``."""
        if len(coeffs) > self.n:
            raise FieldError("polynomial degree too large for domain")
        scaled = []
        acc = 1
        for c in coeffs:
            scaled.append(c * acc % _R)
            acc = acc * shift % _R
        return self.fft(scaled)

    def coset_ifft(self, evals: list[int], shift: int = COSET_SHIFT) -> list[int]:
        """Interpolate from evaluations over the coset ``shift * H``."""
        coeffs = self.ifft(evals)
        shift_inv = inv(shift)
        acc = 1
        out = []
        for c in coeffs:
            out.append(c * acc % _R)
            acc = acc * shift_inv % _R
        return out

    def vanishing_eval(self, x: int) -> int:
        """Evaluate the vanishing polynomial Z_H(X) = X^n - 1 at ``x``."""
        return (pow(x, self.n, _R) - 1) % _R

    def vanishing_on_coset(self, coset_size: int, shift: int = COSET_SHIFT) -> list[int]:
        """Evaluations of Z_H over a coset of a larger domain.

        Returns ``Z_H(shift * W**i)`` for the size-``coset_size`` domain
        generated by ``W``.  Because Z_H(X) = X^n - 1 only depends on X^n,
        the result is periodic and cheap to compute.
        """
        if coset_size % self.n:
            raise FieldError("coset domain must be a multiple of the base domain")
        big = Domain.get(coset_size)
        w_n = pow(big.omega, self.n, _R)
        shift_n = pow(shift, self.n, _R)
        period = coset_size // self.n
        base = []
        acc = shift_n
        for _ in range(period):
            base.append((acc - 1) % _R)
            acc = acc * w_n % _R
        return [base[i % period] for i in range(coset_size)]

    def lagrange_basis_eval(self, index: int, x: int) -> int:
        """Evaluate the Lagrange basis polynomial L_index(X) of H at ``x``.

        Uses L_i(x) = omega^i * (x^n - 1) / (n * (x - omega^i)).
        """
        point = pow(self.omega, index, _R)
        denom = (x - point) % _R
        if denom == 0:
            return 1 if x == point else 0
        zh = self.vanishing_eval(x)
        return point * zh % _R * self.n_inv % _R * inv(denom) % _R

    def lagrange_basis_evals(self, count: int, x: int) -> list[int]:
        """Evaluate ``L_0 .. L_{count-1}`` at ``x`` with one batched inverse."""
        if count == 0:
            return []
        zh = self.vanishing_eval(x)
        points = [1] * count
        for i in range(1, count):
            points[i] = points[i - 1] * self.omega % _R
        denoms = [(x - p) % _R for p in points]
        if any(d == 0 for d in denoms):
            return [self.lagrange_basis_eval(i, x) for i in range(count)]
        inv_denoms = batch_inverse(denoms)
        return [points[i] * zh % _R * self.n_inv % _R * inv_denoms[i] % _R for i in range(count)]
