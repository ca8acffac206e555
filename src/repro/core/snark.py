"""Shared SNARK context: one universal SRS, cached circuit keys.

The whole point of ZKDET's Plonk choice is that a *single* universal setup
serves every circuit (Section VI-B1).  :class:`SnarkContext` owns that SRS
and memoises ``setup`` results per circuit shape, mirroring how a deployed
system would reuse preprocessed keys across proofs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SRSError
from repro.backend import get_engine
from repro.kzg.srs import SRS
from repro.plonk.circuit import CircuitBuilder, Layout
from repro.plonk.keys import DEGREE_MARGIN, ProvingKey, VerifyingKey, setup


#: Entries :meth:`SnarkContext.keys_for_shape` keeps (a reference each).
_SHAPE_MEMO_SIZE = 256


@dataclass
class CircuitKeys:
    layout: Layout
    pk: ProvingKey
    vk: VerifyingKey


class SnarkContext:
    """An SRS plus a cache of per-circuit proving/verifying keys."""

    def __init__(self, srs: SRS, engine=None):
        self.srs = srs
        self.engine = engine or get_engine()
        self._cache: dict = {}
        self._by_shape: dict = {}

    @staticmethod
    def with_fresh_srs(
        max_degree: int, tau: int | None = None, engine=None
    ) -> "SnarkContext":
        """Convenience constructor running a single-party setup."""
        engine = engine or get_engine()
        return SnarkContext(SRS.generate(max_degree, tau=tau, engine=engine), engine)

    def keys_for(self, layout: Layout) -> CircuitKeys:
        """Return (cached) keys for a compiled circuit layout."""
        digest = layout.digest()
        keys = self._cache.get(digest)
        if keys is None:
            if layout.n + DEGREE_MARGIN > self.srs.max_degree:
                raise SRSError(
                    "circuit of size %d exceeds this context's SRS (degree %d); "
                    "run a larger ceremony" % (layout.n, self.srs.max_degree)
                )
            pk, vk = setup(self.srs, layout, engine=self.engine)
            keys = CircuitKeys(layout, pk, vk)
            self._cache[digest] = keys
        return keys

    def keys_for_shape(self, shape: tuple, build_fn) -> CircuitKeys:
        """Keys of the circuit ``build_fn(builder)`` describes, memoised
        under ``shape``.

        For verifiers, which know a circuit only by what determines its
        layout — proof kind, sizes, predicate or transformation — and
        would otherwise rebuild and re-digest it on every call.  ``shape``
        must be hashable and must determine the layout; the builder runs
        on a miss only (with placeholder values, so unchecked).  The memo
        is small and first-in-first-out: a caller that mints a fresh
        predicate object per call misses every time and must not grow it.
        """
        keys = self._by_shape.get(shape)
        if keys is None:
            builder = CircuitBuilder()
            build_fn(builder)
            layout, _ = builder.compile(check=False)
            keys = self.keys_for(layout)
            if len(self._by_shape) >= _SHAPE_MEMO_SIZE:
                del self._by_shape[next(iter(self._by_shape))]
            self._by_shape[shape] = keys
        return keys

    @property
    def cached_circuits(self) -> int:
        return len(self._cache)
