"""The parallel compute engines: kernels run on more than one core.

CPython's GIL rules out thread-level parallelism for big-int arithmetic,
so both engines here use forked processes.

:class:`SplitEngine` is the serial engine plus one thing: a fixed-table
G1 MSM (``msm_srs`` / ``msm_g1_fixed`` on the window-table path — all
nine commitments of a warm Plonk proof) keeps shard 0 in the calling
process and sends every other shard to a long-lived forked *helper*.
The helper inherited the window tables at fork, so a request is the
table's key, an offset and the scalars (~33 B each), the reply is one
Jacobian point, both sides run the same ``msm_fixed_window`` and the
partials fold with ``jac_add``.  Helpers are forked once the tables they
need exist and re-forked when a table outgrows them; a daemonic process
(a ``ProverPool`` worker) may not fork, so it uses the helpers it
inherited from its parent (:mod:`repro.service.pool`) and computes
unsplit whatever they cannot cover.  A helper that dies is dropped and
its shard recomputed in place.  Helpers record no telemetry: their time
is the caller's ``msm_srs`` kernel time.

:class:`ParallelEngine` adds a lazily created ``multiprocessing`` pool
for the kernels with no inherited table to lean on:

- **generic MSM**: the (point, scalar) pairs are split into per-worker
  chunks, each runs the full Pippenger bucket method, and the partial
  sums are folded with one Jacobian addition per chunk;
- **NTT batches**: independent transforms — e.g. the prover's 6 live
  coset FFTs of round 3 — map one job per worker task, twiddle tables
  attached once per worker from a pinned segment;
- **batch inversion**: Montgomery's trick is sequential within a chain,
  so long inputs are split into independent chains, one per worker.

Pool inputs and NTT/inverse results travel through
``multiprocessing.shared_memory`` segments of packed fixed-width cells
(:mod:`repro.backend.shm`) instead of being pickled; scratch segments
are unlinked in a ``finally`` — worker crash and abort paths included —
and a watchdog timeout (``task_timeout``) converts a wedged pool into a
:class:`~repro.errors.BackendError` rather than a hang.  G2 MSMs are rare
and small, so their chunks are pickled.  Small inputs fall back to the
serial kernels; the thresholds are constructor arguments so tests can
force the parallel paths.

:class:`~repro.backend.serial.SerialEngine` is the bit-identity oracle
the differential suite compares against.  The overrides are the internal
``_ntt_batch`` / ``_msm_jac`` / ``_fixed_window`` / ``_msm_jac_g2`` /
``_batch_inverse`` dispatch targets; the ``engine.*`` kernel metrics are
recorded by the public wrappers in the base class, in this process, so
every engine reports the same ``engine.*`` counters for the same work.
Every pool fan-out also goes through
:func:`repro.telemetry.workers.dispatch`: at ``REPRO_TELEMETRY=profile``
workers time their queue-wait / shm-attach / compute phases and the
parent merges the piggybacked stats back as ``worker.*`` metrics (a
namespace apart, so the parity above stays exact) and ``worker.task``
child spans of the ``engine.dispatch`` span.
"""

from __future__ import annotations

import multiprocessing
import os
import threading

from repro import telemetry as _tel
from repro.backend import shm as _shm
from repro.backend.engine import Engine, apply_ntt_job
from repro.field.ntt import Domain
from repro.curve.g1 import jac_add, jac_batch_normalize
from repro.curve.g2 import jac2_add
from repro.curve.msm import msm_fixed_window, msm_g2_jacobian, msm_jacobian
from repro.errors import BackendError, FieldError
from repro.field.fr import MODULUS as _R, batch_inverse as _fr_batch_inverse
from repro.telemetry import workers as _workers

_CELL = _shm.SCALAR_BYTES

# Every worker function takes ``(ctx, ...)`` — the first element is the
# dispatch trace context (``None`` below profile level) prepended by
# ``Dispatch.tag`` — and returns ``(result, stats-blob-or-None)`` so the
# parent's ``Dispatch.collect`` can merge worker-side telemetry.


def _msm_chunk_g2(args: tuple) -> tuple:
    ctx, points, scalars = args
    rec = _workers.task_begin(ctx)
    rec.set_size(len(points))
    rec.count("msm_g2")
    with rec.timer("compute"):
        out = msm_g2_jacobian(points, scalars)
    return out, rec.blob()


def _msm_shm_chunk(args: tuple) -> tuple:
    """Worker: MSM over a slice of one packed segment (points, then scalars)."""
    ctx, name, n_points, start, count = args
    rec = _workers.task_begin(ctx)
    with rec.timer("shm_attach"):
        buf = _shm.attach_segment(name).buf
        points = _shm.unpack_points(buf, start, count)
        scalars = _shm.unpack_scalars(buf, 2 * n_points + start, count)
    rec.set_size(count)
    rec.count("msm_g1")
    with rec.timer("compute"):
        out = msm_jacobian(points, scalars)
    return out, rec.blob()


def _attach_twiddle_tables(tw_name: str, n: int) -> None:
    """Seed the worker's Domain cache from a packed twiddle segment.

    Layout (32-byte scalar cells): ``[omega, omega_inv, n_inv]`` header
    followed by the ``n/2`` forward and ``n/2`` inverse twiddles.  A
    no-op when this worker already holds a size-``n`` domain — the first
    task of each size pays one unpack, every later task is a cache hit,
    and nothing runs the O(n) ``Domain.__init__`` twiddle loop.
    """
    if n in Domain._cache:
        return
    buf = _shm.attach_segment(tw_name).buf
    half = max(n >> 1, 1)
    omega, omega_inv, n_inv = _shm.unpack_scalars(buf, 0, 3)
    twiddles = _shm.unpack_scalars(buf, 3, half)
    inv_twiddles = _shm.unpack_scalars(buf, 3 + half, half)
    Domain.seed_cache(
        Domain.from_tables(n, omega, omega_inv, n_inv, twiddles, inv_twiddles)
    )


def _ntt_shm_job(args: tuple) -> tuple:
    """Worker: one NTT over packed cells; result written back to shm."""
    (
        ctx,
        in_name,
        out_name,
        tw_name,
        kind,
        n,
        in_start,
        in_count,
        out_start,
        shift,
    ) = args
    rec = _workers.task_begin(ctx)
    with rec.timer("shm_attach"):
        values = _shm.unpack_scalars(_shm.attach_segment(in_name).buf, in_start, in_count)
        _attach_twiddle_tables(tw_name, n)
    rec.set_size(n)
    rec.count(kind)
    with rec.timer("compute"):
        out = apply_ntt_job((kind, n, values, shift))
    with rec.timer("shm_attach"):
        buf = _shm.attach_segment(out_name).buf
        buf[out_start * _CELL : (out_start + len(out)) * _CELL] = _shm.pack_scalars(out)
    return None, rec.blob()


def _inverse_shm_chunk(args: tuple) -> tuple:
    """Worker: Montgomery-chain inversion of a shm slice, written back."""
    ctx, in_name, out_name, start, count = args
    rec = _workers.task_begin(ctx)
    with rec.timer("shm_attach"):
        values = _shm.unpack_scalars(_shm.attach_segment(in_name).buf, start, count)
    rec.set_size(count)
    rec.count("inverse")
    with rec.timer("compute"):
        out = _fr_batch_inverse(values)
    with rec.timer("shm_attach"):
        buf = _shm.attach_segment(out_name).buf
        buf[start * _CELL : (start + count) * _CELL] = _shm.pack_scalars(out)
    return None, rec.blob()


def _spans(n: int, pieces: int) -> list[tuple[int, int]]:
    """Balanced contiguous ``(start, count)`` spans covering ``range(n)``."""
    pieces = max(1, min(pieces, n))
    size, extra = divmod(n, pieces)
    out = []
    start = 0
    for i in range(pieces):
        count = size + (1 if i < extra else 0)
        out.append((start, count))
        start += count
    return out


def _helper_loop(engine: "SplitEngine", conn, inherited: list) -> None:
    """Forked helper: answer ``(table key, offset, scalars)`` with the
    partial MSM over that slice of the tables it inherited."""
    for other in inherited:  # so a dead peer reads as EOF, here and there
        other.close()
    while True:
        try:
            key, start, scalars = conn.recv()
        except (EOFError, OSError):
            return
        _, c, tables = engine._window_tables[key]
        conn.send(msm_fixed_window(tables[start : start + len(scalars)], c, scalars))


class SplitEngine(Engine):
    """Serial engine whose fixed-table G1 MSMs are shared with ``helpers``
    forked processes; with none it is the serial engine."""

    name = "split"

    def __init__(self, helpers: int = 0, min_msm_points: int = 128) -> None:
        super().__init__()
        self.helpers = max(0, helpers)
        self.min_msm_points = min_msm_points
        #: Live helpers as ``(process, our pipe end)``.
        self._links: list[tuple] = []
        #: Table key -> rows the helpers inherited when they were forked.
        self._forked_rows: dict[int, int] = {}

    def _fork_helpers(self) -> None:
        """(Re)fork the helpers so they inherit the tables as they are now."""
        self.close()
        ctx = multiprocessing.get_context("fork")
        self._forked_rows = {k: len(v[2]) for k, v in self._window_tables.items()}
        for _ in range(self.helpers):
            ours, theirs = ctx.Pipe()
            inherited = [ours] + [link[1] for link in self._links]
            proc = ctx.Process(
                target=_helper_loop, args=(self, theirs, inherited), daemon=True
            )
            proc.start()
            theirs.close()
            self._links.append((proc, ours))

    def claim_helpers(self, slot: int, of: int) -> None:
        """Keep every ``of``-th inherited helper from ``slot`` (one forked
        pool worker's share); a slot past the end keeps none.  The pipe
        ends let go here close as their last reference drops."""
        self._links = self._links[slot::of] if slot < of else []

    def live_helpers(self) -> int:
        """Helpers still running, as seen by the process that forked them."""
        return sum(1 for proc, _ in self._links if proc.is_alive())

    def close(self) -> None:
        links, self._links = self._links, []
        for proc, conn in links:
            conn.close()
            proc.terminate()
            proc.join()

    def _fixed_window(self, key: int, c: int, tables: list, scalars: list[int]) -> tuple:
        n = len(scalars)
        if self.helpers and n >= self.min_msm_points:
            stale = self._forked_rows.get(key, 0) < n or not self._links
            if stale and not multiprocessing.current_process().daemon:
                self._fork_helpers()
            if self._links and self._forked_rows.get(key, 0) >= n:
                return self._split(key, c, tables, scalars)
        return msm_fixed_window(tables, c, scalars)

    def _split(self, key: int, c: int, tables: list, scalars: list[int]) -> tuple:
        shards = _spans(len(scalars), len(self._links) + 1)
        asked = list(zip(self._links, shards[1:]))
        for (_, conn), (start, count) in asked:
            try:
                conn.send((key, start, scalars[start : start + count]))
            except OSError:
                conn.close()  # the recv below raises and recomputes the shard
        acc = msm_fixed_window(tables, c, scalars[: shards[0][1]])
        for link, (start, count) in asked:
            try:
                part = link[1].recv()
            except (EOFError, OSError):
                # Helper lost: drop it and do its shard here, same kernel.
                self._links.remove(link)
                link[1].close()
                part = msm_fixed_window(
                    tables[start : start + count], c, scalars[start : start + count]
                )
            acc = jac_add(acc, part)
        return acc


class ParallelEngine(SplitEngine):
    """Split engine that also chunks generic MSMs, NTT batches and
    inversions across a worker pool."""

    name = "parallel"

    def __init__(
        self,
        workers: int | None = None,
        min_msm_points: int = 128,
        min_ntt_jobs: int = 2,
        min_ntt_size: int = 256,
        min_inverse_size: int = 8192,
        task_timeout: float | None = None,
    ):
        if workers is None:
            workers = len(os.sched_getaffinity(0))
        self.workers = max(1, workers)
        super().__init__(self.workers - 1, min_msm_points)
        self.min_ntt_jobs = min_ntt_jobs
        self.min_ntt_size = min_ntt_size
        self.min_inverse_size = min_inverse_size
        self.task_timeout = task_timeout
        self._pool = None
        #: Pinned packed twiddle-table segments: domain size -> segment.
        self._twiddle_segs: dict = {}

    # ------------------------------------------------------------ pool mgmt

    def _get_pool(self):
        if self._pool is None:
            methods = multiprocessing.get_all_start_methods()
            ctx = multiprocessing.get_context("fork" if "fork" in methods else None)
            self._pool = ctx.Pool(self.workers)
        return self._pool

    def close(self) -> None:
        super().close()
        self._discard_pool(blocking=True)
        self._release_twiddle_segs()

    def _release_twiddle_segs(self) -> None:
        for n in list(self._twiddle_segs):
            _shm.release_segment(self._twiddle_segs.pop(n))

    def _discard_pool(self, blocking: bool) -> None:
        """Tear down the worker pool.

        ``blocking=False`` is the crash path: a SIGKILLed worker can die
        holding the shared task-queue lock, and ``Pool.terminate()`` then
        deadlocks joining its handler threads — so after a watchdog
        timeout the pool is terminated from a daemon thread and abandoned
        rather than joined.  Segment cleanup never depends on it.
        """
        pool, self._pool = self._pool, None
        if pool is None:
            return
        if blocking:
            pool.terminate()
            pool.join()
        else:
            threading.Thread(target=pool.terminate, daemon=True).start()

    def __del__(self):  # pragma: no cover - interpreter-shutdown best effort
        try:
            self.close()
        except Exception:
            pass

    def _run_tasks(self, func, tasks: list, kernel: str) -> list:
        """``pool.map`` with a watchdog and telemetry dispatch wrapping.

        A crashed/wedged worker surfaces as a :class:`BackendError`
        (after pool teardown) instead of a hang, so callers' ``finally``
        blocks can release segments.  The dispatch context tags every
        task payload with the trace context (profile level) and merges
        the workers' piggybacked stats blobs on the way out; below
        profile it only strips the uniform ``(result, None)`` wrapping.
        """
        with _workers.dispatch(kernel, len(tasks)) as dsp:
            tagged = dsp.tag(tasks)
            pool = self._get_pool()
            if self.task_timeout is None:
                return dsp.collect(pool.map(func, tagged))
            result = pool.map_async(func, tagged)
            try:
                return dsp.collect(result.get(self.task_timeout))
            except multiprocessing.TimeoutError:
                self._discard_pool(blocking=False)
                self._release_twiddle_segs()
                raise BackendError(
                    "parallel kernel timed out after %.1fs (worker crash?)"
                    % self.task_timeout
                ) from None

    def _twiddle_segment(self, n: int) -> object:
        """The packed shm image of a size-``n`` domain's twiddle tables.

        Built once per domain size from the parent's (already cached)
        :class:`~repro.field.ntt.Domain` and pinned for the engine's
        lifetime like the fixed point tables — workers attach instead of
        re-running the O(n) twiddle build in every forked process.
        """
        seg = self._twiddle_segs.get(n)
        if _tel.metrics_enabled():
            _tel.counter(
                "engine.cache.hits" if seg is not None else "engine.cache.misses",
                cache="ntt_twiddle_shm",
            ).inc()
        if seg is not None:
            return seg
        dom = Domain.get(n)
        twiddles, inv_twiddles = dom.tables()
        packed = _shm.pack_scalars(
            [dom.omega, dom.omega_inv, dom.n_inv] + twiddles + inv_twiddles
        )
        seg = _shm.create_segment(len(packed))
        seg.buf[: len(packed)] = packed
        self._twiddle_segs[n] = seg
        return seg

    # -------------------------------------------------------------- kernels

    def _use_pool(self, n_items: int, threshold: int) -> bool:
        return self.workers > 1 and n_items >= threshold

    def _ntt_batch(self, jobs: list[tuple]) -> list[list[int]]:
        big_jobs = sum(1 for job in jobs if job[1] >= self.min_ntt_size)
        if not self._use_pool(big_jobs, self.min_ntt_jobs):
            return [apply_ntt_job(job) for job in jobs]
        # Concatenate every job's input cells into one segment; workers
        # write transforms into a second segment at per-job offsets.
        in_cells = sum(len(job[2]) for job in jobs)
        out_cells = sum(job[1] for job in jobs)
        # Nested try/finally: if the second create_segment raises, the
        # first must still be released (a flat `finally` after both
        # acquires leaves `in_seg` stranded — RES-001).
        in_seg = _shm.create_segment(in_cells * _CELL)
        try:
            out_seg = _shm.create_segment(out_cells * _CELL)
            try:
                tasks = []
                in_start = out_start = 0
                pos = 0
                for kind, n, values, shift in jobs:
                    packed = _shm.pack_scalars(values)
                    in_seg.buf[pos : pos + len(packed)] = packed
                    pos += len(packed)
                    tasks.append(
                        (
                            in_seg.name,
                            out_seg.name,
                            self._twiddle_segment(n).name,
                            kind,
                            n,
                            in_start,
                            len(values),
                            out_start,
                            shift,
                        )
                    )
                    in_start += len(values)
                    out_start += n
                self._run_tasks(_ntt_shm_job, tasks, "ntt")
                out = []
                start = 0
                for _, n, _, _ in jobs:
                    out.append(_shm.unpack_scalars(out_seg.buf, start, n))
                    start += n
                return out
            finally:
                _shm.release_segment(out_seg)
        finally:
            _shm.release_segment(in_seg)

    def _msm_jac(self, points: list[tuple], scalars: list[int]) -> tuple:
        if not self._use_pool(len(points), self.min_msm_points):
            return msm_jacobian(points, scalars)
        if len(points) != len(scalars):
            raise BackendError(
                "msm: %d points but %d scalars" % (len(points), len(scalars))
            )
        # Normalise in the parent so points pack as 64-byte affine cells
        # (infinity packs as the zero cell and is filtered by workers).
        finite = [i for i, p in enumerate(points) if p[2] != 0]
        normalized = jac_batch_normalize([points[i] for i in finite])
        cells: list[tuple] = [_shm_INF] * len(points)
        for i, p in zip(finite, normalized):
            cells[i] = p
        packed = _shm.pack_points(cells) + _shm.pack_scalars(scalars)
        seg = _shm.create_segment(len(packed))
        try:
            seg.buf[: len(packed)] = packed
            tasks = [
                (seg.name, len(points), start, count)
                for start, count in _spans(len(points), self.workers)
            ]
            partials = self._run_tasks(_msm_shm_chunk, tasks, "msm_g1")
        finally:
            _shm.release_segment(seg)
        result = partials[0]
        for part in partials[1:]:
            result = jac_add(result, part)
        return result

    def _msm_jac_g2(self, points: list[tuple], scalars: list[int]) -> tuple:
        if not self._use_pool(len(points), self.min_msm_points):
            return msm_g2_jacobian(points, scalars)
        chunks = [
            (points[start : start + count], scalars[start : start + count])
            for start, count in _spans(len(points), self.workers)
        ]
        partials = self._run_tasks(_msm_chunk_g2, chunks, "msm_g2")
        result = partials[0]
        for part in partials[1:]:
            result = jac2_add(result, part)
        return result

    def _batch_inverse(self, values: list[int]) -> list[int]:
        if not self._use_pool(len(values), self.min_inverse_size):
            return _fr_batch_inverse(values)
        # Surface the zero-element error with its *global* index before
        # sharding, preserving the serial error contract.
        for i, v in enumerate(values):
            if v % _R == 0:
                raise FieldError("batch inverse of zero at index %d" % i)
        n = len(values)
        packed = _shm.pack_scalars(values)
        # Nested like _ntt_batch: in_seg must not leak when the second
        # create_segment raises.
        in_seg = _shm.create_segment(len(packed))
        try:
            out_seg = _shm.create_segment(n * _CELL)
            try:
                in_seg.buf[: len(packed)] = packed
                tasks = [
                    (in_seg.name, out_seg.name, start, count)
                    for start, count in _spans(n, self.workers)
                ]
                self._run_tasks(_inverse_shm_chunk, tasks, "inverse")
                return _shm.unpack_scalars(out_seg.buf, 0, n)
            finally:
                _shm.release_segment(out_seg)
        finally:
            _shm.release_segment(in_seg)


#: Placeholder cell for points at infinity in the parent-side packer.
_shm_INF = (0, 0, 0)
