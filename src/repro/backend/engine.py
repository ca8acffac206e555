"""The compute-engine abstraction: one interface over every hot kernel.

An :class:`Engine` owns the arithmetic substrate the protocol layers run
on — NTT plans, multi-scalar multiplication, batched field inversion,
fixed-base scalar multiplication — together with the caches that amortise
repeated work across proofs:

- **NTT plans**: twiddle/inverse-twiddle tables per domain size (shared
  with :class:`repro.field.ntt.Domain`'s global cache, so plans built by
  one engine are visible to all);
- **SRS Jacobian views**: the one-time conversion of an SRS's affine G1
  powers to Jacobian tuples, shared by every KZG commitment under that
  SRS;
- **fixed-base windowed tables** for the G1/G2 generators (and any other
  repeated base), used by SRS generation and Groth16 setup;
- **coset-evaluation cache**: an LRU of coset-NTT outputs for polynomials
  that are fixed per proving key (Plonk selectors, permutation columns
  and the first Lagrange basis polynomial — 10 polynomials in all), so
  the second proof onward skips 10 of the prover's 15 big FFTs.  (The
  telemetry counters are the source of truth for that number:
  ``tests/test_telemetry.py`` asserts 10 ``coset_eval`` cache hits and 5
  live coset FFTs per warm proof; z(omega X) is a rotation, no FFT.)

Protocol code never touches raw kernels directly: it asks the process's
engine (:func:`repro.backend.get_engine`).  Every kernel runs in this
process but two, which an engine with ``helpers > 0`` shares with
long-lived forked *helpers* (CPython's GIL rules out threads for big-int
arithmetic, so the other cores are reached with processes):

- a fixed-table G1 MSM (``msm_srs`` / ``msm_g1_fixed`` on the
  window-table path — all nine commitments of a warm Plonk proof) of at
  least :data:`MIN_MSM_POINTS` terms.  With h helpers, row i of a window
  table belongs to process i mod (h + 1), process 0 being this one: each
  process builds and holds only its own rows, a helper's exactly the
  points it was sent.  A request carries the points of the helper's rows
  that the table gained since its last request (none once warm) and its
  residue's scalars (~33 B each); the reply is one Jacobian point.  Every
  side runs the same ``msm_fixed_window`` and the partials fold with
  ``jac_add``: the affine result is the unsplit pass's.
- the Plonk fold (``fold_pairing_check``): the first helper multiplies a
  fixed prefix (:data:`FOLD_SHARE_PERCENT`) of the ``[1]_2``-side terms
  and runs their Miller loop, :func:`fold_share`, while this process
  multiplies the rest and runs the other two pairs' loop; the loop values
  multiply before the one final exponentiation.  A dead helper's prefix
  goes to the same ``fold_share`` here, and without a helper the prefix
  is empty: one function, so one verdict.

Helpers are forked once, at the first wide MSM, and only while this is
the process's one thread; table growth never re-forks them, and a fold
forks nothing.  A helper that dies is dropped, not replaced: its shard
or share is computed here, its rows built here the first time they are
needed.  A pipe carries one request at a time.  Helpers belong to the
process that forked them: an engine inherited across a fork starts with
none of its parent's, unless it adopts those the parent hands over (the
prover pool's worker: one set per host).  Every other kernel stays
in-process: splitting NTT batches, inversions and the generic MSMs was
measured and paid for nothing (EXPERIMENTS.md, "Folded: the parallel
engine's pool").

Telemetry (``REPRO_TELEMETRY``) has two rules, each stated once: a kernel
is its body under :func:`_kernel`, which when on counts the call
from its arguments and times it into ``engine.kernel.seconds``; and every
cache lookup goes through :meth:`Engine._lookup`, which counts its hit or
miss.  A body reaches other kernels' arithmetic through the module-level
functions, so a call counts once (the fold's two ``msm_g1`` calls count as
MSMs of their own).  Helpers record nothing, their time is the caller's
kernel time: the counters are the same whatever ``helpers`` is, but for
the points of a fold's two MSMs here, which leave out a helper's prefix.
``tests/test_telemetry.py::TestKernelAccounting`` fails on a public kernel
that does not both count and time, and pins every count of a warm proof.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
import threading
from collections import OrderedDict
from typing import Any, Callable, TypeVar, cast

from repro import telemetry as _tel
from repro.errors import BackendError
from repro.curve.g1 import (
    G1,
    JAC_INF,
    jac_add,
    jac_batch_normalize,
    jac_double,
)
from repro.curve.g2 import (
    G2,
    JAC_INF as JAC2_INF,
    jac2_add,
    jac2_batch_normalize,
    jac2_double,
)
from repro.curve.msm import (
    FIXED_WINDOW_MAX,
    FIXED_WINDOW_MIN,
    build_window_tables,
    fixed_window_c,
    msm_fixed_window,
    msm_g2_jacobian,
    msm_jacobian,
)
from repro.curve.fq12 import FQ12_ONE, fq12_eq, fq12_mul
from repro.curve.pairing import (
    PreparedG2,
    final_exponentiation as _final_exponentiation,
    multi_miller_loop as _multi_miller_loop,
    pairing_check as _pairing_check_prepared,
    prepare_g2,
)
from repro.field.fr import MODULUS as _R, batch_inverse as _fr_batch_inverse
from repro.field.ntt import COSET_SHIFT, Domain

#: The shortest fixed-table MSM that forks the helpers: a shorter one
#: is not worth a fork.
MIN_MSM_POINTS = 128

#: The share of a fold's ``[1]_2``-side terms, a prefix, that the helper
#: multiplies and runs the Miller loop of (EXPERIMENTS.md, "The settlement
#: fold on the idle core": the sweep that fixed it).
FOLD_SHARE_PERCENT = 65

#: Scalars are at most 254 bits on BN254.
_SCALAR_BITS = 254

#: Window width for fixed-base tables: 43 windows of 63 entries each —
#: table construction costs ~2.7k additions, each multiplication then
#: costs at most 43 mixed additions (vs ~380 ops for double-and-add).
_FB_WINDOW = 6


_F = TypeVar("_F", bound=Callable[..., Any])


def _kernel(name: str, record: Callable[..., object]) -> Callable[[_F], _F]:
    """Make an :class:`Engine` method a kernel: with telemetry on ``record``
    counts the call from the method's arguments and the call is timed into
    ``engine.kernel.seconds{kernel=name}``; off, the method runs straight
    through."""

    def decorate(body: _F) -> _F:
        @functools.wraps(body)
        def kernel(self: Engine, *args: Any, **kwargs: Any) -> Any:
            if not _tel.enabled():
                return body(self, *args, **kwargs)
            record(*args, **kwargs)
            with _tel.kernel_timer(name):
                return body(self, *args, **kwargs)

        return cast(_F, kernel)

    return decorate


def _count(calls: str, sizes: str = "", n: int = 0, **labels: object) -> None:
    """Count one call into ``calls`` and its size ``n`` into ``sizes``, if named."""
    _tel.counter(calls, **labels).inc()
    if sizes:
        _tel.histogram(sizes, **labels).observe(n)


def _record_ntt(kind: str, n: int) -> None:
    """Count one NTT of size ``n``."""
    _count("engine.ntt.calls", "engine.ntt.size", n, kind=kind)


def _record_table_msm(n: int) -> None:
    """Count one fixed-table G1 MSM of ``n`` terms; outside the window
    tables' bounds it takes the generic MSM, counted as a bypass."""
    _count("engine.msm.calls", "engine.msm.points", n, group="g1")
    if not FIXED_WINDOW_MIN <= n <= FIXED_WINDOW_MAX:
        _tel.counter("engine.cache.bypasses", cache="msm_window").inc()


def _put_lru(table: OrderedDict, key: Any, entry: tuple, capacity: int) -> None:
    """Store ``entry`` as the most recent; evict the least recent past ``capacity``."""
    table[key] = entry
    table.move_to_end(key)
    while len(table) > capacity:
        table.popitem(last=False)


def serve(conn: Any, inherited: list, handle: Callable[[Any], Any]) -> None:
    """Forked child: send ``handle(request)`` back for each request on
    ``conn`` until the owner's end closes (EOF, or a send that fails).
    ``inherited`` are the owner-side pipe ends this child was forked
    holding; they are closed first, so a dead peer reads as EOF, here
    and there.  The one loop every forked child in ``src/`` runs: the
    MSM helpers and the prover pool's worker."""
    for other in inherited:
        other.close()
    while True:
        try:
            conn.send(handle(conn.recv()))
        except (EOFError, OSError):
            return


def _help(conn: Any, inherited: list) -> None:
    """Forked helper: serve two kinds of request.  ``("rows", table key,
    width, new points, scalars)``: append the new points' window rows to
    that table's rows and reply with the MSM of the scalars over them (its
    rows are exactly the points it was sent, whatever the fork copied).
    ``("fold", [1]_2 as (x, y, inf), points, scalars)``: reply with
    :func:`fold_share` over them, each [1]_2 prepared once and kept."""
    rows: dict[int, tuple[int, list]] = {}
    prepared: dict[tuple, PreparedG2] = {}

    def handle(request: tuple) -> tuple:
        kind, *args = request
        if kind == "fold":
            g2, points, scalars = args
            prep = prepared.get(g2)
            if prep is None:
                prep = prepared[g2] = prepare_g2(G2(*g2))
            return fold_share(prep, points, scalars)
        key, c, points, scalars = args
        held = rows.get(key)
        if held is None or held[0] != c:
            held = rows[key] = (c, [])
        held[1].extend(build_window_tables(points, c))
        return msm_fixed_window(held[1], c, scalars)

    serve(conn, inherited, handle)


def fold_share(prep: PreparedG2, points: list[tuple], scalars: list[int]) -> tuple:
    """A helper's part of a fold: the Miller-loop value of ``(-B, [1]_2)``
    (``prep``), B the MSM of ``scalars`` over the Jacobian ``points``.
    The helper runs it, or the fold's own process when it has none: the
    same function either way, so the verdict cannot depend on which."""
    return _multi_miller_loop([(-G1.from_jacobian(msm_jacobian(points, scalars)), prep)])


class _Helper:
    """A forked helper: its process (``None`` if adopted: not ours to
    reap), our end of its pipe, the residue of the rows it owns, and
    table key -> (width, rows of its residue it holds)."""

    __slots__ = ("proc", "conn", "residue", "held")

    def __init__(self, proc: Any, conn: Any, residue: int) -> None:
        self.proc, self.conn, self.residue = proc, conn, residue
        self.held: dict[int, tuple[int, int]] = {}


def apply_ntt_job(job: tuple) -> list[int]:
    """Execute one NTT job ``(kind, n, values, shift)``.

    The per-process :class:`Domain` cache makes repeated sizes cheap.
    """
    kind, n, values, shift = job
    dom = Domain.get(n)
    if kind == "fft":
        return dom.fft(values)
    if kind == "ifft":
        return dom.ifft(values)
    if kind == "coset_fft":
        return dom.coset_fft(values, shift)
    if kind == "coset_ifft":
        return dom.coset_ifft(values, shift)
    raise BackendError("unknown NTT job kind %r" % (kind,))


class _FixedBaseTable:
    """Windowed precomputation for repeated scalar multiples of one base.

    ``rows[j][d-1]`` holds ``d * 2**(j*w) * P`` with every entry batch-
    normalised to ``z = 1``, so a multiplication is at most
    ``ceil(254/w)`` mixed additions and no doublings.
    """

    __slots__ = ("window", "rows", "_add", "_inf")

    def __init__(
        self,
        jac_point: tuple,
        add: Callable[[tuple, tuple], tuple],
        double: Callable[[tuple], tuple],
        normalize: Callable[[list[tuple]], list[tuple]],
        inf: tuple,
        window: int = _FB_WINDOW,
    ) -> None:
        self.window = window
        self._add = add
        self._inf = inf
        num_windows = (_SCALAR_BITS + window - 1) // window
        row_len = (1 << window) - 1
        flat = []
        base = jac_point
        for _ in range(num_windows):
            cur = base
            flat.append(cur)
            for _ in range(row_len - 1):
                cur = add(cur, base)
                flat.append(cur)
            for _ in range(window):
                base = double(base)
        flat = normalize(flat)
        self.rows = [flat[j * row_len : (j + 1) * row_len] for j in range(num_windows)]

    def mul(self, k: int) -> tuple:
        """Return ``k * P`` as a Jacobian tuple (``k`` already reduced)."""
        acc = self._inf
        add = self._add
        mask = (1 << self.window) - 1
        j = 0
        while k:
            d = k & mask
            if d:
                acc = add(acc, self.rows[j][d - 1])
            k >>= self.window
            j += 1
        return acc


class Engine:
    """The compute engine: every kernel, its caches, and ``helpers``
    forked processes that share its fixed-table G1 MSMs and its folds
    (none: every kernel runs in this process)."""

    def __init__(self, helpers: int = 0) -> None:
        #: Forked processes that share fixed-table MSMs and folds.
        self.helpers = max(0, helpers)
        #: Live helpers, forked (or adopted) by ``_pid``.
        self._links: list[_Helper] = []
        self._pid = os.getpid()
        #: Row i belongs to process i mod ``_stride`` (0: not forked since
        #: the last ``close()``, every row is ours).
        self._stride = 0
        #: id(owner) -> (owner, its points as Jacobian tuples): SRS, tables.
        self._jacobian: dict[int, tuple] = {}
        #: id(owner) -> (owner, window width c, per-point window rows for
        #: the prefix seen so far; ``None`` where a helper holds the row).
        self._window_tables: dict[int, tuple[Any, int, list]] = {}
        self._fb_tables: dict[tuple, tuple] = {}
        self._eval_cache: OrderedDict = OrderedDict()
        self.eval_cache_capacity = 64
        self._prepared_g2_cache: OrderedDict = OrderedDict()
        self.prepared_g2_capacity = 64

    # ------------------------------------------------------------------ NTT

    def domain(self, n: int) -> Domain:
        """Return the (cached) NTT plan for a size-``n`` domain."""
        return Domain.get(n)

    @_kernel("ntt", lambda coeffs, n: _record_ntt("fft", n))
    def ntt(self, coeffs: list[int], n: int) -> list[int]:
        """Evaluate ``coeffs`` over the size-``n`` domain."""
        return Domain.get(n).fft(coeffs)

    @_kernel("intt", lambda evals: _record_ntt("ifft", len(evals)))
    def intt(self, evals: list[int]) -> list[int]:
        """Interpolate coefficients from evaluations (n = len(evals))."""
        return Domain.get(len(evals)).ifft(evals)

    @_kernel("coset_ntt", lambda coeffs, n, shift=None: _record_ntt("coset_fft", n))
    def coset_ntt(self, coeffs: list[int], n: int, shift: int = COSET_SHIFT) -> list[int]:
        """Evaluate ``coeffs`` over the coset ``shift * H`` of size ``n``."""
        return Domain.get(n).coset_fft(coeffs, shift)

    @_kernel("coset_intt", lambda evals, shift=None: _record_ntt("coset_ifft", len(evals)))
    def coset_intt(self, evals: list[int], shift: int = COSET_SHIFT) -> list[int]:
        """Interpolate from coset evaluations (n = len(evals))."""
        return Domain.get(len(evals)).coset_ifft(evals, shift)

    @_kernel("ntt_batch", lambda jobs: [_record_ntt(kind, n) for kind, n, _, _ in jobs])
    def ntt_batch(self, jobs: list[tuple]) -> list[list[int]]:
        """Run many independent NTT jobs ``(kind, n, values, shift)``.

        Job order is preserved in the result list.
        """
        return [apply_ntt_job(job) for job in jobs]

    # -------------------------------------------------------------- caching

    def _lookup(
        self, cache: str, table: dict, key: Any, owner: Any, need: int = 0,
        miss: Callable[[], object] | None = None,
    ) -> Any:
        """The entry of ``table`` at ``key`` made for ``owner``, or ``None``.

        Entries are ``(owner, ..., value)`` and pin their owner: one made
        for another object (an ``id`` reused after garbage collection) is
        no entry; a cache keyed by value makes its entries for ``None``.
        With telemetry on the outcome counts as a hit of ``cache`` if the
        value holds at least ``need`` items, else as a miss, which also
        runs ``miss``: the count of the kernel the miss costs.
        """
        entry = table.get(key)
        if entry is not None and entry[0] is not owner:
            entry = None
        if _tel.enabled():
            hit = entry is not None and (need == 0 or len(entry[-1]) >= need)
            _tel.counter("engine.cache.hits" if hit else "engine.cache.misses", cache=cache).inc()
            if not hit and miss is not None:
                miss()
        return entry

    def _eval_cache_get(
        self, key: tuple, owner: Any, miss: Callable[[], object] | None = None
    ) -> list[int] | None:
        """The evaluation cache's value at ``key`` (whose first item names
        the cache) for ``owner``, now the most recently used."""
        entry = self._lookup(key[0], self._eval_cache, key, owner, miss=miss)
        if entry is None:
            return None
        self._eval_cache.move_to_end(key)
        return entry[1]

    def _eval_cache_put(self, key: tuple, owner: Any, value: list[int]) -> None:
        _put_lru(self._eval_cache, key, (owner, value), self.eval_cache_capacity)

    def coset_ntt_cached(
        self, owner: Any, tag: str, coeffs: list[int], n: int, shift: int = COSET_SHIFT
    ) -> list[int]:
        """Coset-NTT with memoisation for per-key-fixed polynomials.

        ``owner`` anchors the cache entry's lifetime (typically the
        proving key); the entry is valid only while the exact same owner
        object is passed, which makes ``id()`` reuse after garbage
        collection harmless.  Entries are evicted LRU; a miss counts the
        coset FFT it runs.
        """
        key = ("coset_eval", id(owner), tag, n, shift)
        cached = self._eval_cache_get(key, owner, lambda: _record_ntt("coset_fft", n))
        if cached is None:
            cached = Domain.get(n).coset_fft(list(coeffs), shift)
            self._eval_cache_put(key, owner, cached)
        return cached

    def coset_points(self, n: int, shift: int = COSET_SHIFT) -> list[int]:
        """The coset ``[shift * omega**i]`` of the size-``n`` domain, cached."""
        key = ("coset_points", n, shift)
        cached = self._eval_cache_get(key, None)
        if cached is None:
            cached = [shift * w % _R for w in Domain.get(n).elements]
            self._eval_cache_put(key, None, cached)
        return cached

    def _jacobian_view(self, cache: str, owner: Any, points: Any) -> tuple:
        """``points`` as Jacobian tuples, converted once per ``owner``."""
        entry = self._lookup(cache, self._jacobian, id(owner), owner)
        if entry is None:
            entry = self._jacobian[id(owner)] = (owner, tuple(p.to_jacobian() for p in points))
        return entry[1]

    def srs_g1_jacobian(self, srs: Any) -> tuple:
        """The SRS's G1 powers as Jacobian tuples, converted exactly once
        per SRS object, shared by every KZG commitment under it."""
        return self._jacobian_view("srs_jacobian", srs, srs.g1_powers)

    def _fixed_jacobian(self, table: Any) -> tuple:
        """Jacobian view of a fixed affine point table, converted once per
        table object: Groth16 proving-key query tables hit this every proof."""
        return self._jacobian_view("msm_table", table, table)

    # ------------------------------------------------------------------ MSM

    @_kernel("msm_jac", lambda points, scalars: _count(
        "engine.msm.calls", "engine.msm.points", len(points), group="g1"))
    def msm_jac(self, points: list[tuple], scalars: list[int]) -> tuple:
        """MSM over G1 Jacobian tuples; returns a Jacobian tuple."""
        return msm_jacobian(points, scalars)

    @_kernel("msm_jac_g2", lambda points, scalars: _count(
        "engine.msm.calls", "engine.msm.points", len(points), group="g2"))
    def msm_jac_g2(self, points: list[tuple], scalars: list[int]) -> tuple:
        """MSM over G2 Jacobian tuples; returns a Jacobian tuple."""
        return msm_g2_jacobian(points, scalars)

    def msm_g1(self, points: list[G1], scalars: list[int]) -> G1:
        """MSM over affine G1 points; returns an affine point."""
        jac = self.msm_jac([p.to_jacobian() for p in points], [int(s) for s in scalars])
        return G1.from_jacobian(jac)

    def msm_g2(self, points: list[G2], scalars: list[int]) -> G2:
        """MSM over affine G2 points; returns an affine point."""
        jac = self.msm_jac_g2([p.to_jacobian() for p in points], [int(s) for s in scalars])
        return G2.from_jacobian(jac)

    @_kernel("msm_srs", lambda srs, scalars: _record_table_msm(len(scalars)))
    def msm_srs(self, srs: Any, scalars: list[int]) -> tuple:
        """MSM of the first ``len(scalars)`` SRS G1 powers; Jacobian result.

        The KZG commit hot path.  The points resolve through the cached
        Jacobian view (:meth:`srs_g1_jacobian`), so the caller never
        copies the point list; once the helpers hold their window rows,
        what the engine ships per call is just the scalars.
        """
        points = self.srs_g1_jacobian(srs)
        if len(scalars) > len(points):
            raise BackendError(
                "msm_srs: %d scalars but SRS has %d G1 powers" % (len(scalars), len(points))
            )
        return self._window_msm(srs, points, [int(s) for s in scalars])

    @_kernel("msm_g1_fixed", lambda points, scalars: _record_table_msm(len(scalars)))
    def msm_g1_fixed(self, points: Any, scalars: list[int]) -> G1:
        """MSM over a fixed affine G1 table with prefix semantics.

        ``points`` is a sequence reused across proofs (Groth16 query
        tables); only the first ``len(scalars)`` entries are combined.
        The affine->Jacobian conversion is cached per table identity, so
        warm proofs convert (and ship to helpers) no points at all.
        """
        if len(scalars) > len(points):
            raise BackendError(
                "msm_g1_fixed: %d scalars but table has %d points"
                % (len(scalars), len(points))
            )
        jac = self._fixed_jacobian(points)
        return G1.from_jacobian(self._window_msm(points, jac, [int(s) for s in scalars]))

    def _window_msm(self, owner: Any, points: tuple, scalars: list[int]) -> tuple:
        """Fixed-base single-window MSM against cached precomputed tables.

        The warm-proof fast path for :meth:`msm_srs` / :meth:`msm_g1_fixed`:
        the owner's point table is fixed across proofs, so the window
        shifts ``2^(w*c) * P_i`` are computed once (first proof) and every
        later MSM collapses to a single bucket pass.  A size outside the
        table bounds takes the generic MSM (the kernel counts it as
        ``engine.cache.bypasses{cache=msm_window}``, so it cannot go
        unnoticed).  Tables are pinned by owner identity like the Jacobian
        views and extended when a longer prefix is first requested; each
        row is built by the process that owns it, when it is first needed.
        """
        n = len(scalars)
        if not FIXED_WINDOW_MIN <= n <= FIXED_WINDOW_MAX:
            return msm_jacobian(list(points[:n]), scalars)
        entry = self._lookup("msm_window", self._window_tables, id(owner), owner, n)
        _, c, rows = entry or (owner, 0, [])
        if len(rows) < n:
            # The width fits each process's share; crossing a threshold rebuilds.
            width = fixed_window_c(-(-n // (self._stride or self.helpers + 1)))
            if width != c:
                c, rows = width, []
            rows.extend([None] * (n - len(rows)))
            self._window_tables[id(owner)] = (owner, c, rows)
        return self._fixed_window(id(owner), c, rows, points, scalars)

    @property
    def name(self) -> str:
        """``"split"`` with helpers, ``"serial"`` without (spans and
        ledger records are stamped with it)."""
        return "split" if self.helpers else "serial"

    def _fixed_window(
        self, key: int, c: int, rows: list, points: tuple, scalars: list[int]
    ) -> tuple:
        """One bucket pass over the window rows ``rows`` of ``points``,
        shared with the helpers while there are any.  The first MSM of
        ``MIN_MSM_POINTS`` terms or more forks them, if this is the
        process's one thread (otherwise it runs here)."""
        n = len(scalars)
        unforked = not (self._own_links() or self._stride)
        if unforked and self.helpers and n >= MIN_MSM_POINTS and threading.active_count() == 1:
            self._fork_helpers()
        if self._links:
            return self._split(key, c, rows, points, scalars)
        return self._local(c, rows, points, scalars, range(n))

    def _local(self, c: int, rows: list, points: tuple, scalars: list, indices: Any) -> tuple:
        """The MSM over the rows at ``indices``, built here where missing."""
        missing = [i for i in indices if rows[i] is None]
        if missing:
            for i, row in zip(missing, build_window_tables([points[i] for i in missing], c)):
                rows[i] = row
        return msm_fixed_window([rows[i] for i in indices], c, [scalars[i] for i in indices])

    def _split(self, key: int, c: int, rows: list, points: tuple, scalars: list[int]) -> tuple:
        n, stride = len(scalars), self._stride
        asked = list(self._links)
        for helper in asked:
            r = helper.residue
            width, count = helper.held.get(key, (c, 0))
            count = count if width == c else 0
            start = r + count * stride
            helper.held[key] = (c, max(count, len(range(r, n, stride))))
            self._send(helper, ("rows", key, c, points[start:n:stride], scalars[r:n:stride]))
        theirs = {helper.residue for helper in asked}
        ours = [i for i in range(n) if i % stride not in theirs]
        acc = self._local(c, rows, points, scalars, ours)
        for helper in asked:
            part = self._receive(helper)
            if part is None:
                part = self._local(c, rows, points, scalars, range(helper.residue, n, stride))
            acc = jac_add(acc, part)
        return acc

    def _send(self, helper: _Helper, request: tuple) -> None:
        """Send ``request``; a pipe that fails is closed, so that the
        :meth:`_receive` which follows finds the helper dead."""
        try:
            helper.conn.send(request)
        except OSError:
            helper.conn.close()

    def _receive(self, helper: _Helper) -> Any:
        """The helper's reply, or ``None`` if it died (then dropped): the
        caller computes its part here."""
        try:
            return helper.conn.recv()
        except (EOFError, OSError):
            self._drop(helper)
            return None

    def _drop(self, helper: _Helper) -> None:
        """A helper lost (EOF on its pipe): drop it, never replace it; its
        rows are ours from now on, built here the first time they are needed."""
        self._links.remove(helper)
        helper.conn.close()

    def _fork_helpers(self) -> None:
        """Fork the helpers; helper j owns the rows of residue j."""
        ctx = multiprocessing.get_context("fork")
        self._stride = self.helpers + 1
        for residue in range(1, self._stride):
            ours, theirs = ctx.Pipe()
            inherited = [ours] + [helper.conn for helper in self._links]
            proc = ctx.Process(target=_help, args=(theirs, inherited), daemon=True)
            proc.start()
            theirs.close()
            self._links.append(_Helper(proc, ours, residue))

    def _own_links(self) -> list[_Helper]:
        """The helpers this process forked or adopted.  In a child forked
        from this engine's process they are the parent's: close our copies
        of their pipes and start with none (the rows this process holds
        stay; the rest are sent to its own helpers or built here)."""
        if self._pid != os.getpid():
            for helper in self._links:
                helper.conn.close()
            self._links, self._stride, self._pid = [], 0, os.getpid()
        return self._links

    def live_helpers(self) -> int:
        """Helpers still running (an adopted one: while its pipe is open)."""
        return sum(1 for h in self._own_links() if h.proc is None or h.proc.is_alive())

    def hand_over(self) -> list:
        """Give the helpers to the child forked since, which adopts them:
        close our ends of their pipes and reset as :meth:`close` does, but
        reap nothing.  Returns their processes, to join after that child."""
        links, self._links, self._stride = self._own_links(), [], 0
        for helper in links:
            helper.conn.close()
        return [helper.proc for helper in links]

    def adopt(self) -> None:
        """In a child forked from this engine's process: prove on the
        helpers whose pipes it inherited and never fork (stride 1 without
        helpers: every row ours).  A helper that dies is dropped at EOF."""
        for helper in self._links:
            helper.proc = None
        self._pid, self._stride = os.getpid(), self._stride or 1

    # ----------------------------------------------------------- fixed base

    def _fb_table(self, base: "G1 | G2") -> _FixedBaseTable:
        group: tuple
        if isinstance(base, G1):
            group = ("g1", jac_add, jac_double, jac_batch_normalize, JAC_INF)
        elif isinstance(base, G2):
            group = ("g2", jac2_add, jac2_double, jac2_batch_normalize, JAC2_INF)
        else:
            raise BackendError("fixed-base multiplication expects a G1 or G2 point")
        key = (group[0], base.x, base.y)
        entry = self._lookup("fixed_base", self._fb_tables, key, None)
        if entry is None:
            table = _FixedBaseTable(base.to_jacobian(), *group[1:])
            entry = self._fb_tables[key] = (None, table)
        return entry[1]

    @_kernel("fixed_base_mul_jac", lambda base, scalar: _count(
        "engine.fixed_base.calls", group="g1" if isinstance(base, G1) else "g2"))
    def fixed_base_mul_jac(self, base: "G1 | G2", scalar: int) -> tuple:
        """``scalar * base`` as a Jacobian tuple via a cached window table.

        Callers doing many multiples of the same base should use this and
        batch-convert to affine at the end.
        """
        k = int(scalar) % _R
        if k == 0 or getattr(base, "inf", False):
            return JAC_INF if isinstance(base, G1) else JAC2_INF
        return self._fb_table(base).mul(k)

    def fixed_base_mul(self, base: "G1 | G2", scalar: int) -> "G1 | G2":
        """``scalar * base`` for a repeated base point (G1 or G2)."""
        jac = self.fixed_base_mul_jac(base, scalar)
        return G1.from_jacobian(jac) if isinstance(base, G1) else G2.from_jacobian(jac)

    # -------------------------------------------------------------- pairing

    def prepared_g2(self, q_pt: G2) -> PreparedG2:
        """The Miller-loop line coefficients of ``q_pt``, cached LRU.

        Preparing a G2 point costs the entire G2-side ate loop (~64
        projective doublings in F_q2, one batched inversion to normalise
        the lines); verification keys and SRS points
        are pairing inputs over and over, so the cache turns every
        pairing after the first into G1-side-only work.  Keyed by affine
        coordinates, so equal points share an entry across SRS/VK
        objects.
        """
        key = q_pt.x + q_pt.y if not q_pt.inf else None
        entry = self._lookup("prepared_g2", self._prepared_g2_cache, key, None)
        if entry is None:
            entry = (None, prepare_g2(q_pt))
            _put_lru(self._prepared_g2_cache, key, entry, self.prepared_g2_capacity)
        else:
            self._prepared_g2_cache.move_to_end(key)
        return entry[1]

    @_kernel("pairing", lambda p_pt, q_pt: _count("engine.pairing.calls", kind="single"))
    def pairing(self, p_pt: G1, q_pt: "G2 | PreparedG2") -> tuple:
        """The full pairing e(P, Q) as a GT (F_q12) element.

        Protocol code computing a pairing *value* (e.g. Groth16's setup
        constant e(alpha, beta)) must come through here rather than
        calling :func:`repro.curve.pairing.pairing` directly: the G2
        side resolves through the :meth:`prepared_g2` LRU and the call
        is counted, so accounting stays truthful across backends.  For
        boolean product checks prefer :meth:`pairing_check`, which
        shares one final exponentiation across all pairs.
        """
        prep = q_pt if isinstance(q_pt, PreparedG2) else self.prepared_g2(q_pt)
        return _final_exponentiation(_multi_miller_loop([(p_pt, prep)]))

    @_kernel("pairing_check", lambda pairs, target=None: _count(
        "engine.pairing.calls", "engine.pairing.pairs", len(pairs)))
    def pairing_check(self, pairs: list, target: tuple | None = None) -> bool:
        """Product-of-pairings check: prod e(P_i, Q_i) == target (or 1).

        Each pair is ``(G1, G2 | PreparedG2)``; bare G2 points are
        resolved through the :meth:`prepared_g2` cache before dispatch.
        One interleaved Miller loop over all pairs, a *single* final
        exponentiation.  ``target`` lets callers compare against a
        precomputed GT constant (e.g. Groth16's e(alpha, beta)) instead
        of folding it into the product.
        """
        prepared = [
            (p, q if isinstance(q, PreparedG2) else self.prepared_g2(q))
            for p, q in pairs
        ]
        return _pairing_check_prepared(prepared, FQ12_ONE if target is None else target)

    @_kernel("fold_pairing_check", lambda tau_side, one_side, g2_tau, g2: _count(
        "engine.fold.calls", "engine.fold.terms", len(tau_side) + len(one_side)))
    def fold_pairing_check(
        self, tau_side: list[tuple[G1, int]], one_side: list[tuple[G1, int]], g2_tau: G2, g2: G2
    ) -> bool:
        """Check ``e(sum s*P over tau_side, g2_tau) == e(sum s*P over
        one_side, g2)`` for ``(G1 point, scalar)`` terms: the Plonk fold,
        and the only place it multiplies.

        With a helper, the first :data:`FOLD_SHARE_PERCENT` percent of
        ``one_side`` is :func:`fold_share`'s: the helper computes it
        while this process computes A = sum(tau_side), B_p = the rest of
        ``one_side`` and the 2-pair Miller loop over (A, g2_tau) and
        (-B_p, g2); the two loop values multiply and take one final
        exponentiation.  ``fold_share`` runs in this process instead
        when the helper is found dead here (and dropped), and over an
        empty prefix when there is none (never forked, or handed over):
        one path whatever the helpers.  The kernel forks nothing and
        keeps one request in flight.
        """
        prep_tau, prep = self.prepared_g2(g2_tau), self.prepared_g2(g2)
        helper = next(iter(self._own_links()), None)
        # No helper, no prefix: a split loop here would pay the shared
        # squarings twice.
        cut = len(one_side) * FOLD_SHARE_PERCENT // 100 if helper is not None else 0
        points = [p.to_jacobian() for p, _ in one_side[:cut]]
        scalars = [int(s) for _, s in one_side[:cut]]
        if helper is not None:
            self._send(helper, ("fold", (g2.x, g2.y, g2.inf), points, scalars))
        try:
            lhs = self.msm_g1([p for p, _ in tau_side], [s for _, s in tau_side])
            rest = one_side[cut:]
            rhs = self.msm_g1([p for p, _ in rest], [s for _, s in rest])
            f = _multi_miller_loop([(lhs, prep_tau), (-rhs, prep)])
        finally:
            part = None if helper is None else self._receive(helper)
        if part is None:
            part = fold_share(prep, points, scalars)
        return fq12_eq(_final_exponentiation(fq12_mul(f, part)), FQ12_ONE)

    # ---------------------------------------------------------------- field

    @_kernel("batch_inverse", lambda values: _count(
        "engine.batch_inverse.calls", "engine.batch_inverse.size", len(values)))
    def batch_inverse(self, values: list[int]) -> list[int]:
        """Invert many scalar-field elements (Montgomery's trick)."""
        return _fr_batch_inverse(values)

    # ------------------------------------------------------------ lifecycle

    def close(self) -> None:
        """Reap the helpers, or let adopted ones go to exit at EOF (forked
        afresh at the next wide MSM, and sent their rows); caches survive."""
        for proc in self.hand_over():
            if proc is not None:
                proc.terminate()
                proc.join()

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def __repr__(self) -> str:
        return "<Engine backend=%r>" % self.name
