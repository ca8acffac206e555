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
  the second proof onward skips 10 of the prover's 16 big FFTs.  (The
  telemetry counters are the source of truth for that number:
  ``tests/test_telemetry.py`` asserts 10 ``coset_eval`` cache hits and 6
  live coset FFTs per warm proof.)

Protocol code never touches raw kernels directly: it asks the process's
engine (:func:`repro.backend.get_engine`).  Every kernel runs in this
process but one: a fixed-table G1 MSM (``msm_srs`` / ``msm_g1_fixed`` on
the window-table path — all nine commitments of a warm Plonk proof) of at
least :data:`MIN_MSM_POINTS` terms, on an engine with ``helpers > 0``, is
shared with long-lived forked *helpers*.  CPython's GIL rules out threads
for big-int arithmetic, so the other cores are reached with processes.
With h helpers, row i of a window table belongs to process i mod (h + 1),
process 0 being this one: each process builds and holds only its own
rows, a helper's exactly the points it was sent.  A request carries the
points of the helper's rows that the table gained since its last request
(none once warm) and its residue's scalars (~33 B each); the reply is one
Jacobian point.  Every side runs the same ``msm_fixed_window`` and the
partials fold with ``jac_add``: the affine result is the unsplit pass's.
Helpers are forked once, at the first wide MSM, and only while this is
the process's one thread; table growth never re-forks them.  A helper
that dies is dropped, not replaced: its shard is computed here, from rows
this process builds the first time it needs them.  Helpers belong to the
process that forked them: an engine inherited across a fork (a
prover-pool worker's) starts with none of its parent's.  Every other
kernel stays in-process: splitting them was measured and paid for
nothing (EXPERIMENTS.md, "Folded: the parallel engine's pool").

The public methods are thin wrappers that record telemetry (call counts,
input sizes, cache hit/miss outcomes, and wall-clock via
``telemetry.kernel_timer``) when ``REPRO_TELEMETRY`` enables it; helpers
record nothing, their time is the caller's kernel time, so the counters
are the same whatever ``helpers`` is.  The count-AND-time pairing is the
ENG-001 lint contract: a kernel wrapper that counts but never times (or
vice versa) is a finding.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
from collections import OrderedDict
from typing import Any, Callable

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

#: Scalars are at most 254 bits on BN254.
_SCALAR_BITS = 254

#: Window width for fixed-base tables: 43 windows of 63 entries each —
#: table construction costs ~2.7k additions, each multiplication then
#: costs at most 43 mixed additions (vs ~380 ops for double-and-add).
_FB_WINDOW = 6


def _record_ntt(kind: str, n: int) -> None:
    """Count one NTT kernel invocation of size ``n`` (metrics level)."""
    _tel.counter("engine.ntt.calls", kind=kind).inc()
    _tel.histogram("engine.ntt.size", kind=kind).observe(n)


def _record_cache(cache: str, hit: bool) -> None:
    """Count one lookup outcome for one of the engine caches."""
    _tel.counter("engine.cache.hits" if hit else "engine.cache.misses", cache=cache).inc()


def serve(conn: Any, inherited: list, handle: Callable[[Any], Any]) -> None:
    """Forked child: send ``handle(request)`` back for each request on
    ``conn`` until the owner's end closes (EOF, or a send that fails).
    ``inherited`` are the owner-side pipe ends this child was forked
    holding; they are closed first, so a dead peer reads as EOF, here
    and there.  The one loop every forked child in ``src/`` runs: the
    MSM helpers and the prover pool's workers."""
    for other in inherited:
        other.close()
    while True:
        try:
            conn.send(handle(conn.recv()))
        except (EOFError, OSError):
            return


def _help(conn: Any, inherited: list) -> None:
    """Forked helper: for each ``(table key, width, new points, scalars)``
    append the new points' window rows to that table's rows and reply
    with the MSM of the scalars over them.  Its rows are exactly the
    points it was sent, whatever the fork copied."""
    rows: dict[int, tuple[int, list]] = {}

    def shard(request: tuple) -> tuple:
        key, c, points, scalars = request
        held = rows.get(key)
        if held is None or held[0] != c:
            held = rows[key] = (c, [])
        held[1].extend(build_window_tables(points, c))
        return msm_fixed_window(held[1], c, scalars)

    serve(conn, inherited, shard)


class _Helper:
    """A forked helper: its process, our end of its pipe, the residue of
    the rows it owns, and table key -> (width, rows of its residue it holds)."""

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
    forked processes that share its fixed-table G1 MSMs (none: every
    kernel runs in this process)."""

    def __init__(self, helpers: int = 0) -> None:
        #: Forked processes a fixed-table MSM is shared with; a
        #: prover-pool worker sets it on the engine it inherited.
        self.helpers = max(0, helpers)
        #: Live helpers, forked by ``_pid``.
        self._links: list[_Helper] = []
        self._pid = os.getpid()
        #: Row i belongs to process i mod ``_stride`` (0: not forked since
        #: the last ``close()``, every row is ours).
        self._stride = 0
        self._srs_jac: dict[int, tuple] = {}
        self._fixed_jac: dict[int, tuple] = {}
        #: id(owner) -> (owner, window width c, per-point window rows for
        #: the prefix seen so far; ``None`` where a helper holds the row).
        self._window_tables: dict[int, tuple[Any, int, list]] = {}
        self._fb_tables: dict[tuple, _FixedBaseTable] = {}
        self._eval_cache: OrderedDict = OrderedDict()
        self.eval_cache_capacity = 64
        self._prepared_g2_cache: OrderedDict = OrderedDict()
        self.prepared_g2_capacity = 64

    # ------------------------------------------------------------------ NTT

    def domain(self, n: int) -> Domain:
        """Return the (cached) NTT plan for a size-``n`` domain."""
        return Domain.get(n)

    def ntt(self, coeffs: list[int], n: int) -> list[int]:
        """Evaluate ``coeffs`` over the size-``n`` domain."""
        if not _tel.metrics_enabled():
            return Domain.get(n).fft(coeffs)
        _record_ntt("fft", n)
        with _tel.kernel_timer("ntt"):
            return Domain.get(n).fft(coeffs)

    def intt(self, evals: list[int]) -> list[int]:
        """Interpolate coefficients from evaluations (n = len(evals))."""
        if not _tel.metrics_enabled():
            return Domain.get(len(evals)).ifft(evals)
        _record_ntt("ifft", len(evals))
        with _tel.kernel_timer("intt"):
            return Domain.get(len(evals)).ifft(evals)

    def coset_ntt(self, coeffs: list[int], n: int, shift: int = COSET_SHIFT) -> list[int]:
        """Evaluate ``coeffs`` over the coset ``shift * H`` of size ``n``."""
        if not _tel.metrics_enabled():
            return Domain.get(n).coset_fft(coeffs, shift)
        _record_ntt("coset_fft", n)
        with _tel.kernel_timer("coset_ntt"):
            return Domain.get(n).coset_fft(coeffs, shift)

    def coset_intt(self, evals: list[int], shift: int = COSET_SHIFT) -> list[int]:
        """Interpolate from coset evaluations (n = len(evals))."""
        if not _tel.metrics_enabled():
            return Domain.get(len(evals)).coset_ifft(evals, shift)
        _record_ntt("coset_ifft", len(evals))
        with _tel.kernel_timer("coset_intt"):
            return Domain.get(len(evals)).coset_ifft(evals, shift)

    def ntt_batch(self, jobs: list[tuple]) -> list[list[int]]:
        """Run many independent NTT jobs ``(kind, n, values, shift)``.

        Job order is preserved in the result list.
        """
        if not _tel.metrics_enabled():
            return [apply_ntt_job(job) for job in jobs]
        for kind, n, _, _ in jobs:
            _record_ntt(kind, n)
        with _tel.kernel_timer("ntt_batch"):
            return [apply_ntt_job(job) for job in jobs]

    # -------------------------------------------------------------- caching

    def _eval_cache_get(self, key: tuple, owner: Any) -> list[int] | None:
        hit = self._eval_cache.get(key)
        if hit is not None and hit[0] is owner:
            self._eval_cache.move_to_end(key)
            return hit[1]
        return None

    def _eval_cache_put(self, key: tuple, owner: Any, value: list[int]) -> None:
        self._eval_cache[key] = (owner, value)
        self._eval_cache.move_to_end(key)
        while len(self._eval_cache) > self.eval_cache_capacity:
            self._eval_cache.popitem(last=False)

    def coset_ntt_cached(
        self, owner: Any, tag: str, coeffs: list[int], n: int, shift: int = COSET_SHIFT
    ) -> list[int]:
        """Coset-NTT with memoisation for per-key-fixed polynomials.

        ``owner`` anchors the cache entry's lifetime (typically the
        proving key); the entry is valid only while the exact same owner
        object is passed, which makes ``id()`` reuse after garbage
        collection harmless.  Entries are evicted LRU.
        """
        key = ("coset", id(owner), tag, n, shift)
        cached = self._eval_cache_get(key, owner)
        if _tel.metrics_enabled():
            _record_cache("coset_eval", cached is not None)
        if cached is None:
            if _tel.metrics_enabled():
                _record_ntt("coset_fft", n)  # the miss runs a real kernel
            cached = Domain.get(n).coset_fft(list(coeffs), shift)
            self._eval_cache_put(key, owner, cached)
        return cached

    def coset_points(self, n: int, shift: int = COSET_SHIFT) -> list[int]:
        """The coset ``[shift * omega**i]`` of the size-``n`` domain, cached."""
        key = ("coset_points", n, shift)
        cached = self._eval_cache_get(key, None)
        if _tel.metrics_enabled():
            _record_cache("coset_points", cached is not None)
        if cached is None:
            cached = [shift * w % _R for w in Domain.get(n).elements]
            self._eval_cache_put(key, None, cached)
        return cached

    def srs_g1_jacobian(self, srs: Any) -> tuple:
        """The SRS's G1 powers as Jacobian tuples, converted exactly once.

        Cached per SRS object identity for the lifetime of the SRS (the
        entry pins the SRS, so ``id`` reuse cannot alias).
        """
        key = id(srs)
        hit = self._srs_jac.get(key)
        if hit is not None and hit[0] is srs:
            if _tel.metrics_enabled():
                _record_cache("srs_jacobian", True)
            return hit[1]
        if _tel.metrics_enabled():
            _record_cache("srs_jacobian", False)
        jac = tuple(p.to_jacobian() for p in srs.g1_powers)
        self._srs_jac[key] = (srs, jac)
        return jac

    # ------------------------------------------------------------------ MSM

    def msm_jac(self, points: list[tuple], scalars: list[int]) -> tuple:
        """MSM over G1 Jacobian tuples; returns a Jacobian tuple."""
        if not _tel.metrics_enabled():
            return self._msm_jac(points, scalars)
        _tel.counter("engine.msm.calls", group="g1").inc()
        _tel.histogram("engine.msm.points", group="g1").observe(len(points))
        with _tel.kernel_timer("msm_jac"):
            return self._msm_jac(points, scalars)

    def _msm_jac(self, points: list[tuple], scalars: list[int]) -> tuple:
        return msm_jacobian(points, scalars)

    def msm_jac_g2(self, points: list[tuple], scalars: list[int]) -> tuple:
        """MSM over G2 Jacobian tuples; returns a Jacobian tuple."""
        if not _tel.metrics_enabled():
            return msm_g2_jacobian(points, scalars)
        _tel.counter("engine.msm.calls", group="g2").inc()
        _tel.histogram("engine.msm.points", group="g2").observe(len(points))
        with _tel.kernel_timer("msm_jac_g2"):
            return msm_g2_jacobian(points, scalars)

    def msm_g1(self, points: list[G1], scalars: list[int]) -> G1:
        """MSM over affine G1 points; returns an affine point."""
        jac = self.msm_jac([p.to_jacobian() for p in points], [int(s) for s in scalars])
        return G1.from_jacobian(jac)

    def msm_g2(self, points: list[G2], scalars: list[int]) -> G2:
        """MSM over affine G2 points; returns an affine point."""
        jac = self.msm_jac_g2([p.to_jacobian() for p in points], [int(s) for s in scalars])
        return G2.from_jacobian(jac)

    def msm_srs(self, srs: Any, scalars: list[int]) -> tuple:
        """MSM of the first ``len(scalars)`` SRS G1 powers; Jacobian result.

        The KZG commit hot path.  The points resolve through the cached
        Jacobian view (:meth:`srs_g1_jacobian`), so the caller never
        copies the point list; once the helpers hold their window rows,
        what the engine ships per call is just the scalars.
        """
        if not _tel.metrics_enabled():
            return self._msm_srs(srs, [int(s) for s in scalars])
        _tel.counter("engine.msm.calls", group="g1").inc()
        _tel.histogram("engine.msm.points", group="g1").observe(len(scalars))
        with _tel.kernel_timer("msm_srs"):
            return self._msm_srs(srs, [int(s) for s in scalars])

    def _msm_srs(self, srs: Any, scalars: list[int]) -> tuple:
        points = self.srs_g1_jacobian(srs)
        if len(scalars) > len(points):
            raise BackendError(
                "msm_srs: %d scalars but SRS has %d G1 powers" % (len(scalars), len(points))
            )
        fixed = self._window_msm(srs, points, scalars)
        if fixed is not None:
            return fixed
        return self._msm_jac(list(points[: len(scalars)]), scalars)

    def _window_msm(self, owner: Any, points: tuple, scalars: list[int]) -> tuple | None:
        """Fixed-base single-window MSM against cached precomputed tables.

        The warm-proof fast path for :meth:`msm_srs` / :meth:`msm_g1_fixed`:
        the owner's point table is fixed across proofs, so the window
        shifts ``2^(w*c) * P_i`` are computed once (first proof) and every
        later MSM collapses to a single bucket pass.  Returns ``None``
        when the size is outside the table bounds — callers fall back to
        the generic MSM, and the fall-off is counted as
        ``engine.cache.bypasses{cache=msm_window}`` so it cannot go
        unnoticed.  Tables are pinned by owner identity like the Jacobian
        caches and extended when a longer prefix is first requested; each
        row is built by the process that owns it, when it is first needed.
        """
        n = len(scalars)
        if not FIXED_WINDOW_MIN <= n <= FIXED_WINDOW_MAX:
            if _tel.metrics_enabled():
                _tel.counter("engine.cache.bypasses", cache="msm_window").inc()
            return None
        hit = self._window_tables.get(id(owner))
        if hit is not None and hit[0] is owner:
            _, c, rows = hit
        else:
            c, rows = 0, []
        if _tel.metrics_enabled():
            _record_cache("msm_window", len(rows) >= n)
        if len(rows) < n:
            # The width follows the table's size: growth across a
            # ``fixed_window_c`` threshold rebuilds at the wider window.
            if fixed_window_c(n) != c:
                c, rows = fixed_window_c(n), []
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
            try:
                helper.conn.send((key, c, points[start:n:stride], scalars[r:n:stride]))
            except OSError:
                helper.conn.close()  # the recv below raises and recomputes the shard
        theirs = {helper.residue for helper in asked}
        ours = [i for i in range(n) if i % stride not in theirs]
        acc = self._local(c, rows, points, scalars, ours)
        for helper in asked:
            try:
                part = helper.conn.recv()
            except (EOFError, OSError):
                # Helper lost: drop it; its rows are ours from now on.
                self._links.remove(helper)
                helper.conn.close()
                part = self._local(c, rows, points, scalars, range(helper.residue, n, stride))
            acc = jac_add(acc, part)
        return acc

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
        """The helpers this process forked.  In a child forked from this
        engine's process they are the parent's: close our copies of
        their pipes and start with none (the rows this process holds
        stay; the rest are sent to its own helpers or built here)."""
        if self._pid != os.getpid():
            for helper in self._links:
                helper.conn.close()
            self._links, self._stride, self._pid = [], 0, os.getpid()
        return self._links

    def live_helpers(self) -> int:
        """Helpers still running, as seen by the process that forked them."""
        return sum(1 for helper in self._own_links() if helper.proc.is_alive())

    def _fixed_jacobian(self, table: Any) -> tuple:
        """Jacobian view of a fixed affine point table, cached by identity.

        Same pinning contract as :meth:`srs_g1_jacobian`: the entry
        holds the table alive, so ``id`` reuse cannot alias.  Groth16
        proving-key query tables hit this every proof.
        """
        key = id(table)
        hit = self._fixed_jac.get(key)
        if hit is not None and hit[0] is table:
            if _tel.metrics_enabled():
                _record_cache("msm_table", True)
            return hit[1]
        if _tel.metrics_enabled():
            _record_cache("msm_table", False)
        jac = tuple(p.to_jacobian() for p in table)
        self._fixed_jac[key] = (table, jac)
        return jac

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
        if not _tel.metrics_enabled():
            return G1.from_jacobian(self._msm_g1_fixed(points, [int(s) for s in scalars]))
        _tel.counter("engine.msm.calls", group="g1").inc()
        _tel.histogram("engine.msm.points", group="g1").observe(len(scalars))
        with _tel.kernel_timer("msm_g1_fixed"):
            return G1.from_jacobian(self._msm_g1_fixed(points, [int(s) for s in scalars]))

    def _msm_g1_fixed(self, points: Any, scalars: list[int]) -> tuple:
        jac = self._fixed_jacobian(points)
        fixed = self._window_msm(points, jac, scalars)
        if fixed is not None:
            return fixed
        return self._msm_jac(list(jac[: len(scalars)]), scalars)

    # ----------------------------------------------------------- fixed base

    def _fb_table(self, base: "G1 | G2") -> _FixedBaseTable:
        if isinstance(base, G1):
            key = ("g1", base.x, base.y)
            table = self._fb_tables.get(key)
            if _tel.metrics_enabled():
                _record_cache("fixed_base", table is not None)
            if table is None:
                table = _FixedBaseTable(
                    base.to_jacobian(), jac_add, jac_double, jac_batch_normalize, JAC_INF
                )
                self._fb_tables[key] = table
            return table
        if isinstance(base, G2):
            key = ("g2", base.x, base.y)
            table = self._fb_tables.get(key)
            if _tel.metrics_enabled():
                _record_cache("fixed_base", table is not None)
            if table is None:
                table = _FixedBaseTable(
                    base.to_jacobian(), jac2_add, jac2_double, jac2_batch_normalize, JAC2_INF
                )
                self._fb_tables[key] = table
            return table
        raise BackendError("fixed-base multiplication expects a G1 or G2 point")

    def fixed_base_mul_jac(self, base: "G1 | G2", scalar: int) -> tuple:
        """``scalar * base`` as a Jacobian tuple via a cached window table.

        Callers doing many multiples of the same base should use this and
        batch-convert to affine at the end.
        """
        k = int(scalar) % _R
        if not _tel.metrics_enabled():
            if k == 0 or getattr(base, "inf", False):
                return JAC_INF if isinstance(base, G1) else JAC2_INF
            return self._fb_table(base).mul(k)
        _tel.counter(
            "engine.fixed_base.calls", group="g1" if isinstance(base, G1) else "g2"
        ).inc()
        with _tel.kernel_timer("fixed_base_mul_jac"):
            if k == 0 or getattr(base, "inf", False):
                return JAC_INF if isinstance(base, G1) else JAC2_INF
            return self._fb_table(base).mul(k)

    def fixed_base_mul(self, base: "G1 | G2", scalar: int) -> "G1 | G2":
        """``scalar * base`` for a repeated base point (G1 or G2)."""
        jac = self.fixed_base_mul_jac(base, scalar)
        if isinstance(base, G1):
            return G1.from_jacobian(jac)
        return G2.from_jacobian(jac)

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
        prep = self._prepared_g2_cache.get(key)
        if _tel.metrics_enabled():
            _record_cache("prepared_g2", prep is not None)
        if prep is None:
            prep = prepare_g2(q_pt)
            self._prepared_g2_cache[key] = prep
            while len(self._prepared_g2_cache) > self.prepared_g2_capacity:
                self._prepared_g2_cache.popitem(last=False)
        else:
            self._prepared_g2_cache.move_to_end(key)
        return prep

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
        if not _tel.metrics_enabled():
            prep = q_pt if isinstance(q_pt, PreparedG2) else self.prepared_g2(q_pt)
            return self._pairing(p_pt, prep)
        _tel.counter("engine.pairing.calls", kind="single").inc()
        prep = q_pt if isinstance(q_pt, PreparedG2) else self.prepared_g2(q_pt)
        with _tel.kernel_timer("pairing"):
            return self._pairing(p_pt, prep)

    def _pairing(self, p_pt: G1, prep: PreparedG2) -> tuple:
        return _final_exponentiation(_multi_miller_loop([(p_pt, prep)]))

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
        if not _tel.metrics_enabled():
            return self._pairing_check(prepared, target)
        _tel.counter("engine.pairing.calls").inc()
        _tel.histogram("engine.pairing.pairs").observe(len(pairs))
        with _tel.kernel_timer("pairing_check"):
            return self._pairing_check(prepared, target)

    def _pairing_check(self, pairs: list, target: tuple | None) -> bool:
        if target is None:
            return _pairing_check_prepared(pairs)
        return _pairing_check_prepared(pairs, target)

    # ---------------------------------------------------------------- field

    def batch_inverse(self, values: list[int]) -> list[int]:
        """Invert many scalar-field elements (Montgomery's trick)."""
        if not _tel.metrics_enabled():
            return _fr_batch_inverse(values)
        _tel.counter("engine.batch_inverse.calls").inc()
        _tel.histogram("engine.batch_inverse.size").observe(len(values))
        with _tel.kernel_timer("batch_inverse"):
            return _fr_batch_inverse(values)

    # ------------------------------------------------------------ lifecycle

    def close(self) -> None:
        """Reap the helpers (forked afresh at the next wide MSM, and sent
        the points of their rows); caches survive."""
        links, self._links, self._stride = self._own_links(), [], 0
        for helper in links:
            helper.conn.close()
            helper.proc.terminate()
            helper.proc.join()

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def __repr__(self) -> str:
        return "<Engine backend=%r>" % self.name
