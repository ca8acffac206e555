"""Outside-in tracing: spans recorded around calls into ``repro``'s packages.

Nothing under ``src/`` is edited.  :func:`install` walks :data:`TARGETS`
and rebinds each function to a recording wrapper — in the module or class
that defines it and in every loaded ``repro.*`` module that imported it by
name — so the program runs its own code with the benchmark's clock around
each layer boundary.  Spans stay in memory as
``[name, start, end, parent, phase]`` lists and are written out at exit.

A span's *self time* is its duration minus its direct children's; the
per-layer metrics are self time and calls per workload operation, over the
spans of the timed window, in reference seconds (see ``calibrate.py``).

Concurrency: the current span lives in a :mod:`contextvars` variable, so the
eight buyer coroutines of ``serve_bundled`` each carry their own stack.  A
request crosses from the buyer's task to one of the node's worker tasks
through ``FairQueue``; the ``put_nowait``/``get`` wrappers hand the
operation's root span across that boundary.  ``ProverPool`` workers are
forked *after* :func:`install`, so they inherit the wrappers; a worker
appends the spans of each job to a per-pid part file, which
:func:`merge_parts` re-attaches under the ``service.pool.prove`` span that
was waiting for it.
"""

from __future__ import annotations

import bisect
import collections
import contextlib
import contextvars
import functools
import glob
import importlib
import json
import mmap
import os
import sys
from time import perf_counter

#: Index of the innermost open span of the current task (-1: none).
_current: contextvars.ContextVar = contextvars.ContextVar("bench_e2e_span", default=-1)

NAME, START, END, PARENT, PHASE = range(5)

#: Root span the harness opens around each workload operation.
OP_SPAN = "bench.op"


class Tracer:
    """Span and count storage for one process.

    ``on`` gates recording: wrappers are installed once, before the
    prover pool forks, and the traced run measures a stretch of its window
    with recording off to price the tracing itself.  The flag is mirrored
    in one byte of anonymous shared memory so forked workers follow it.
    """

    def __init__(self, parts_dir: str | None = None) -> None:
        self.spans: list[list] = []
        self.counts: collections.Counter = collections.Counter()
        self.phase = "setup"
        self.on = False
        self.parts_dir = parts_dir
        self.owner_pid = os.getpid()
        self._shared_on = mmap.mmap(-1, 1)
        #: id(queue item) -> (root span, enqueue time), put_nowait -> get.
        self._enqueued: dict[int, tuple[int, float]] = {}
        #: root span -> its open ``service.node.request`` span.
        self._requests: dict[int, int] = {}
        #: TARGETS rows that named something this checkout does not have.
        self.missing: list[str] = []
        #: Settlement batch size the workload configured (flush-by-age test).
        self.batch_size = 0

    def set_on(self, on: bool) -> None:
        self.on = on
        self._shared_on[0] = 1 if on else 0

    # ----- recording ------------------------------------------------------

    def open(self, name: str, start: float, parent: int) -> int:
        self.spans.append([name, start, start, parent, self.phase])
        return len(self.spans) - 1

    @contextlib.contextmanager
    def op(self):
        """Root span of one workload operation (yields None when off)."""
        if not self.on:
            yield None
            return
        idx = self.open(OP_SPAN, perf_counter(), -1)
        token = _current.set(idx)
        try:
            yield idx
        finally:
            self.spans[idx][END] = perf_counter()
            _current.reset(token)

    def close_request(self, root: int | None) -> None:
        """The buyer received its outcome: end ``service.node.request``."""
        if root is None:
            return
        idx = self._requests.pop(root, None)
        if idx is not None:
            self.spans[idx][END] = perf_counter()

    # ----- worker part files ---------------------------------------------

    def flush_part(self) -> None:
        """Worker side: append this job's spans and counts, then forget them."""
        if self.parts_dir is None:
            return
        path = os.path.join(self.parts_dir, "spans-%d.jsonl" % os.getpid())
        record = {"pid": os.getpid(), "spans": self.spans, "counts": dict(self.counts)}
        with open(path, "a") as fh:
            fh.write(json.dumps(record) + "\n")
        self.spans = []
        self.counts = collections.Counter()

    def clear_parts(self) -> None:
        if self.parts_dir is None:
            return
        os.makedirs(self.parts_dir, exist_ok=True)
        for path in glob.glob(os.path.join(self.parts_dir, "spans-*.jsonl")):
            os.remove(path)

    def read_parts(self) -> list[dict]:
        if self.parts_dir is None:
            return []
        jobs = []
        for path in sorted(glob.glob(os.path.join(self.parts_dir, "spans-*.jsonl"))):
            with open(path) as fh:
                jobs.extend(json.loads(line) for line in fh if line.strip())
        return jobs


# ----- wrappers ------------------------------------------------------------


def _count(tracer: Tracer, counter, args: tuple, result) -> None:
    # A later change to the program may alter a signature; a counter that
    # no longer fits must not fail the operation it observes.
    try:
        counter(tracer.counts, args, result, tracer)
    except (IndexError, KeyError, TypeError, AttributeError):
        tracer.counts["bench.counter_errors"] += 1


def wrap_sync(tracer: Tracer, name: str, fn, counter=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.on:
            return fn(*args, **kwargs)
        rec = [name, 0.0, 0.0, _current.get(), tracer.phase]
        tracer.spans.append(rec)
        token = _current.set(len(tracer.spans) - 1)
        rec[START] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            rec[END] = perf_counter()
            _current.reset(token)
        if counter is not None:
            _count(tracer, counter, args, result)
        return result

    return wrapper


def wrap_async(tracer: Tracer, name: str, fn, counter=None):
    @functools.wraps(fn)
    async def wrapper(*args, **kwargs):
        if not tracer.on:
            return await fn(*args, **kwargs)
        rec = [name, 0.0, 0.0, _current.get(), tracer.phase]
        tracer.spans.append(rec)
        token = _current.set(len(tracer.spans) - 1)
        rec[START] = perf_counter()
        try:
            result = await fn(*args, **kwargs)
        finally:
            rec[END] = perf_counter()
            _current.reset(token)
        if counter is not None:
            _count(tracer, counter, args, result)
        return result

    return wrapper


def wrap_count(tracer: Tracer, _name: str, fn, counter=None):
    """Count calls without a span (helpers too small to time)."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        if tracer.on:
            _count(tracer, counter, args, result)
        return result

    return wrapper


def wrap_queue_put(tracer: Tracer, _name: str, fn, counter=None):
    """``FairQueue.put_nowait``: remember which operation enqueued the item."""

    @functools.wraps(fn)
    def wrapper(self, tenant, item):
        if tracer.on and _current.get() >= 0:
            tracer._enqueued[id(item)] = (_current.get(), perf_counter())
        return fn(self, tenant, item)

    return wrapper


def wrap_queue_get(tracer: Tracer, _name: str, fn, counter=None):
    """``FairQueue.get``: the calling worker task now serves that operation.

    Emits ``service.queue.wait`` (enqueue -> dequeue) and opens
    ``service.node.request`` as the task's current span; the awaiting
    coroutine shares the worker task's context, so everything the worker
    does until its next ``get`` nests under the operation's root.
    """

    @functools.wraps(fn)
    async def wrapper(self):
        if tracer.on:
            _current.set(-1)  # the previous request of this worker is done
        tenant, item = await fn(self)
        if tracer.on:
            handoff = tracer._enqueued.pop(id(item), None)
            if handoff is not None:
                root, enqueued = handoff
                now = perf_counter()
                wait = tracer.open("service.queue.wait", enqueued, root)
                tracer.spans[wait][END] = now
                request = tracer.open("service.node.request", now, root)
                tracer._requests[root] = request
                _current.set(request)
        return tenant, item

    return wrapper


def wrap_worker_job(tracer: Tracer, name: str, fn, counter=None):
    """``service.pool._prove_pik_job``: runs in a forked pool worker."""
    as_span = wrap_sync(tracer, name, fn)

    @functools.wraps(fn)
    def wrapper(args):
        if os.getpid() == tracer.owner_pid:
            return as_span(args)
        tracer.on = bool(tracer._shared_on[0])
        if not tracer.on:
            return fn(args)
        try:
            return as_span(args)
        finally:
            tracer.flush_part()

    return wrapper


# ----- counters (counts, args, result, tracer) -----------------------------


def _ntt_points_n(counts, args, _result, _tracer):
    counts["backend.ntt.points"] += args[2]


def _ntt_points_len(counts, args, _result, _tracer):
    counts["backend.ntt.points"] += len(args[1])


def _ntt_points_batch(counts, args, _result, _tracer):
    counts["backend.ntt.points"] += sum(job[1] for job in args[1])


def _msm_srs_points(counts, args, _result, _tracer):
    counts["backend.msm_srs.points"] += len(args[2])


def _pairing_pairs(counts, args, _result, _tracer):
    counts["backend.pairing_check.pairs"] += len(args[1])


def _cache_lookup(counts, _args, result, _tracer):
    counts["backend.cache.lookups"] += 1
    if result is not None:
        counts["backend.cache.hits"] += 1


def _settlement_batch(counts, args, _result, tracer):
    members = len(args[1])
    counts["service.settlement.batches"] += 1
    counts["service.settlement.members"] += members
    if members < tracer.batch_size:
        counts["service.settlement.by_age"] += 1


def _dht_migrated(counts, _args, _result, _tracer):
    counts["storage.dht.migrated"] += 1


#: (span name, module, attribute path, wrapper factory, counter).  A function
#: called more than ~10^4 times a second (``Contract._sload``, field and
#: curve arithmetic) is not wrapped; its time stays in its caller's self
#: time.  Private names appear only where no public boundary shows the
#: event (cache hits, a migrated replica, the settlement flush, the pool's
#: worker-side job).
_ENGINE = "repro.backend.engine"
TARGETS: list[tuple] = [
    ("backend.ntt", _ENGINE, "Engine.ntt", wrap_sync, _ntt_points_n),
    ("backend.ntt", _ENGINE, "Engine.intt", wrap_sync, _ntt_points_len),
    ("backend.ntt", _ENGINE, "Engine.coset_ntt", wrap_sync, _ntt_points_n),
    ("backend.ntt", _ENGINE, "Engine.coset_intt", wrap_sync, _ntt_points_len),
    ("backend.ntt", _ENGINE, "Engine.ntt_batch", wrap_sync, _ntt_points_batch),
    ("backend.ntt", _ENGINE, "Engine.coset_ntt_cached", wrap_sync, None),
    ("backend.msm_srs", _ENGINE, "Engine.msm_srs", wrap_sync, _msm_srs_points),
    ("backend.msm_g1", _ENGINE, "Engine.msm_g1", wrap_sync, None),
    ("backend.msm_g1", _ENGINE, "Engine.msm_jac", wrap_sync, None),
    ("backend.msm_g1_fixed", _ENGINE, "Engine.msm_g1_fixed", wrap_sync, None),
    ("backend.fixed_base_mul", _ENGINE, "Engine.fixed_base_mul", wrap_sync, None),
    ("backend.fixed_base_mul", _ENGINE, "Engine.fixed_base_mul_jac", wrap_sync, None),
    ("backend.batch_inverse", _ENGINE, "Engine.batch_inverse", wrap_sync, None),
    ("backend.pairing_check", _ENGINE, "Engine.pairing_check", wrap_sync, _pairing_pairs),
    (None, _ENGINE, "Engine._eval_cache_get", wrap_count, _cache_lookup),
    ("curve.pairing.miller_loop", "repro.curve.pairing", "multi_miller_loop", wrap_sync, None),
    ("curve.pairing.final_exp", "repro.curve.pairing", "final_exponentiation", wrap_sync, None),
    ("field.poly", "repro.field.poly", "mul", wrap_sync, None),
    ("field.poly", "repro.field.poly", "divide_by_linear", wrap_sync, None),
    ("field.poly", "repro.field.poly", "divide_by_vanishing", wrap_sync, None),
    ("field.poly", "repro.field.poly", "divmod_general", wrap_sync, None),
    ("field.poly", "repro.field.poly", "interpolate", wrap_sync, None),
    ("primitives.field_hash", "repro.primitives.hashing", "field_hash", wrap_sync, None),
    ("kzg.commit", "repro.kzg.commit", "commit", wrap_sync, None),
    ("kzg.open_at", "repro.kzg.commit", "open_at", wrap_sync, None),
    ("plonk.setup", "repro.plonk.keys", "setup", wrap_sync, None),
    ("plonk.prove", "repro.plonk.prover", "prove", wrap_sync, None),
    ("plonk.verify", "repro.plonk.verifier", "verify", wrap_sync, None),
    ("plonk.batch_verify", "repro.plonk.batch", "batch_verify", wrap_sync, None),
    ("core.keys_for", "repro.core.snark", "SnarkContext.keys_for", wrap_sync, None),
    ("core.prove_encryption", "repro.core.transform_protocol", "prove_encryption",
     wrap_sync, None),
    ("core.prove_transformation", "repro.core.transform_protocol", "prove_transformation",
     wrap_sync, None),
    ("core.verify_encryption", "repro.core.transform_protocol", "verify_encryption",
     wrap_sync, None),
    ("core.verify_transformation", "repro.core.transform_protocol", "verify_transformation",
     wrap_sync, None),
    ("core.key_negotiation", "repro.core.exchange", "Seller.key_negotiation_message",
     wrap_sync, None),
    ("core.key_negotiation", "repro.service.pool", "_prove_pik_job", wrap_worker_job, None),
    ("core.recover_plaintext", "repro.core.exchange", "Buyer.recover_plaintext",
     wrap_sync, None),
    ("core.audit", "repro.core.marketplace", "ZKDETMarketplace.audit", wrap_sync, None),
    ("contracts.arbiter.lock_payment", "repro.contracts.arbiter",
     "KeySecureArbiterContract.lock_payment", wrap_sync, None),
    ("contracts.arbiter.submit_key_batch", "repro.contracts.arbiter",
     "KeySecureArbiterContract.submit_key_batch", wrap_sync, _settlement_batch),
    ("contracts.arbiter.zkcp", "repro.contracts.arbiter", "ZKCPArbiterContract.lock",
     wrap_sync, None),
    ("contracts.arbiter.zkcp", "repro.contracts.arbiter", "ZKCPArbiterContract.open",
     wrap_sync, None),
    ("contracts.arbiter.zkcp", "repro.contracts.arbiter", "ZKCPArbiterContract.refund",
     wrap_sync, None),
    ("contracts.verifier.verify", "repro.contracts.verifier", "PlonkVerifierContract.verify",
     wrap_sync, None),
    ("contracts.verifier.verify_batch", "repro.contracts.verifier",
     "PlonkVerifierContract.verify_batch", wrap_sync, None),
] + [
    ("contracts.token", "repro.contracts.erc721", "DataTokenContract." + method, wrap_sync, None)
    for method in ("mint", "transfer_from", "approve", "burn", "aggregate", "partition",
                   "duplicate", "process")
] + [
    ("chain.transact", "repro.chain.blockchain", "Blockchain.transact", wrap_sync, None),
    ("chain.mine_round", "repro.chain.blockchain", "Blockchain.mine_round", wrap_sync, None),
    ("chain.query_events", "repro.chain.blockchain", "Blockchain.query_events", wrap_sync, None),
    ("chain.call_view", "repro.chain.blockchain", "Blockchain.call_view", wrap_sync, None),
    ("storage.put", "repro.storage.content_store", "ContentStore.put", wrap_sync, None),
    ("storage.get", "repro.storage.content_store", "ContentStore.get", wrap_sync, None),
    ("storage.put", "repro.storage.dht", "DHTNetwork.put", wrap_sync, None),
    ("storage.get", "repro.storage.dht", "DHTNetwork.get", wrap_sync, None),
    ("storage.dht.rebalance", "repro.storage.dht", "DHTNetwork.join", wrap_sync, None),
    ("storage.dht.rebalance", "repro.storage.dht", "DHTNetwork.leave", wrap_sync, None),
    ("storage.dht.rebalance", "repro.storage.dht", "DHTNetwork.repair", wrap_sync, None),
    (None, "repro.storage.dht", "DHTNetwork._store", wrap_count, _dht_migrated),
    (None, "repro.service.queue", "FairQueue.put_nowait", wrap_queue_put, None),
    (None, "repro.service.queue", "FairQueue.get", wrap_queue_get, None),
    ("service.pool.prove", "repro.service.pool", "ProverPool.prove_key_negotiation",
     wrap_async, None),
    ("service.settlement.settle", "repro.service.settlement", "SettlementBatcher.settle",
     wrap_async, None),
    ("service.settlement.flush", "repro.service.settlement", "SettlementBatcher._flush",
     wrap_sync, None),
    ("loadsim.init", "repro.loadsim.sim", "LoadSimulator.__init__", wrap_sync, None),
    ("loadsim.run", "repro.loadsim.sim", "LoadSimulator.run", wrap_sync, None),
    ("loadsim.invariants.check", "repro.loadsim.invariants", "InvariantChecker.check_round",
     wrap_sync, None),
    ("loadsim.invariants.check", "repro.loadsim.invariants", "InvariantChecker.check_final",
     wrap_sync, None),
]

#: Spans that exist without a TARGETS row (made by the queue wrappers).
SYNTHETIC_SPANS = ("service.queue.wait", "service.node.request")

SPAN_NAMES: list[str] = sorted(
    {row[0] for row in TARGETS if row[0] is not None} | set(SYNTHETIC_SPANS)
)


def rebind(module, attr_path: str, make_wrapper, prefix: str = "repro.") -> bool:
    """Replace ``module.attr_path`` by ``make_wrapper(original)`` everywhere.

    ``attr_path`` is ``"function"`` or ``"Class.method"``.  A module-level
    function is also rebound in every loaded ``prefix*`` module that holds
    the *same object* under any name (``from x import f``, ``import f as
    _f``).  Returns False when the path does not exist.
    """
    owner = module
    *parents, leaf = attr_path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return False
    original = vars(owner).get(leaf)
    if original is None:
        return False
    if isinstance(original, staticmethod):
        wrapper = staticmethod(make_wrapper(original.__func__))
    else:
        wrapper = make_wrapper(original)
    setattr(owner, leaf, wrapper)
    if owner is module:
        for name, other in list(sys.modules.items()):
            if other is None or other is module or not name.startswith(prefix):
                continue
            for alias, value in list(vars(other).items()):
                if value is original:
                    setattr(other, alias, wrapper)
    return True


def install(tracer: Tracer, targets: list[tuple] | None = None) -> None:
    """Install every TARGETS row whose module is already imported.

    Rows naming a module the workload never loaded are skipped silently
    (the layer is not part of this workload); rows naming a missing
    attribute of a loaded module are listed in ``tracer.missing``.
    """
    for name, module_name, attr_path, factory, counter in targets or TARGETS:
        module = sys.modules.get(module_name)
        if module is None:
            continue
        done = rebind(
            module,
            attr_path,
            lambda fn, n=name, f=factory, c=counter: f(tracer, n, fn, c),
        )
        if not done:
            tracer.missing.append("%s:%s" % (module_name, attr_path))


def import_targets() -> None:
    """Import every module TARGETS names (for the self-tests)."""
    for _name, module_name, _attr, _factory, _counter in TARGETS:
        importlib.import_module(module_name)


# ----- analysis ------------------------------------------------------------


def merge_parts(spans: list[list], jobs: list[dict], counts: collections.Counter) -> int:
    """Append worker jobs under the ``service.pool.prove`` span that waited.

    Jobs are merged in order of their start time, so one parent span takes
    the first job that started inside it; a job no parent span contains
    (tracing was switched on mid-flight) is kept as a root of its own.
    Only the counts of window-phase jobs are added to ``counts``.  Returns
    how many jobs found a parent.
    """
    waiting = [
        (s[START], s[END], i) for i, s in enumerate(spans) if s[NAME] == "service.pool.prove"
    ]
    waiting.sort()
    taken: set[int] = set()
    matched = 0
    for job in sorted((j for j in jobs if j["spans"]), key=lambda j: j["spans"][0][START]):
        root_start = job["spans"][0][START]
        parent, phase = -1, "setup"
        for start, end, idx in waiting:
            if idx not in taken and start <= root_start <= end:
                parent, phase = idx, spans[idx][PHASE]
                taken.add(idx)
                matched += 1
                break
        offset = len(spans)
        for name, start, end, local_parent, _phase in job["spans"]:
            spans.append(
                [name, start, end, parent if local_parent < 0 else local_parent + offset, phase]
            )
        if phase == "window":
            counts.update(job["counts"])
    return matched


def self_times(spans: list[list]) -> list[float]:
    """Duration minus direct children, per span (parents precede children)."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def op_ids(spans: list[list]) -> list[int]:
    """Operation id of each span: the index of its ``bench.op`` root, or -1."""
    ids = []
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            ids.append(ids[s[PARENT]])
        else:
            ids.append(i if s[NAME] == OP_SPAN else -1)
    return ids


def layer_budget(
    spans: list[list], segments: list[tuple[float, float, float]], operations: int
) -> dict[str, float]:
    """Per-span self time and calls per operation over the window, plus
    the coverage and verifier-fallback ratios.

    ``segments`` are the window's timed stretches ``(start, end, factor)``;
    a span is normalised by the factor of the stretch it started in.
    """
    starts = [seg[0] for seg in segments]
    own = self_times(spans)
    ids = op_ids(spans)
    self_ref: collections.Counter = collections.Counter()
    calls: collections.Counter = collections.Counter()
    op_total = op_self = 0.0
    for i, s in enumerate(spans):
        if s[PHASE] != "window" or ids[i] < 0:
            continue
        seg = max(0, bisect.bisect_right(starts, s[START]) - 1)
        factor = segments[seg][2]
        if s[NAME] == OP_SPAN:
            op_total += (s[END] - s[START]) / factor
            op_self += own[i] / factor
            continue
        self_ref[s[NAME]] += own[i] / factor
        calls[s[NAME]] += 1
    out: dict[str, float] = {}
    per = float(max(1, operations))
    for name in SPAN_NAMES:
        out[name + ".self_s_per_op"] = self_ref[name] / per
        out[name + ".calls_per_op"] = calls[name] / per
    out["bench.trace.coverage_ratio"] = 1.0 - op_self / op_total if op_total else 0.0

    # A batch that fell back re-verified members one by one: it has a
    # plonk.verify somewhere beneath it.
    batches = fell_back = 0
    has_single: set[int] = set()
    for i, s in enumerate(spans):
        if s[PHASE] != "window" or s[NAME] != "plonk.verify":
            continue
        up = s[PARENT]
        while up >= 0:
            if spans[up][NAME] == "contracts.verifier.verify_batch":
                has_single.add(up)
                break
            up = spans[up][PARENT]
    for i, s in enumerate(spans):
        if s[PHASE] == "window" and s[NAME] == "contracts.verifier.verify_batch":
            batches += 1
            fell_back += i in has_single
    out["contracts.verifier.fallback_ratio"] = fell_back / batches if batches else 0.0
    return out


def write_spans(path: str, spans: list[list]) -> None:
    """One JSON line per span: name, start, end, parent, operation id, phase."""
    ids = op_ids(spans)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        for s, op in zip(spans, ids):
            fh.write(json.dumps([s[NAME], s[START], s[END], s[PARENT], op, s[PHASE]]) + "\n")
