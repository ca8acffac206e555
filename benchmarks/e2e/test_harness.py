"""Self-tests of the benchmark harness (not part of tier-1).

    PYTHONPATH=src python -m pytest benchmarks/e2e

They check the harness's own arithmetic on synthetic inputs — nothing here
times the program.
"""

import ast
import asyncio
import collections
import json
import os
import subprocess
import sys
import types

import pytest

import time

import compare
import harness
import tracing
from calibrate import GROUP_SLICES, MAX_GROUP_SLICES, Reference, busy_factor, local_factor

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


class ScriptedReference(Reference):
    """A Reference whose groups come from a script instead of the kernel."""

    def __init__(self, script, nominal_s=0.04):
        super().__init__(nominal_s)
        self._script = list(script)

    def mark(self, slices=None):
        self.groups.append(self._script.pop(0))
        return len(self.groups) - 1


def _timeline(group_times, segments):
    """A Timeline over scripted groups holding ``segments`` =
    [(wall_s, [op wall_s, ...]), ...] laid end to end."""
    timeline = harness.Timeline(ScriptedReference(group_times), process_start=0.0)
    clock = 0.0
    for group, (wall, ops) in enumerate(segments):
        timeline.segments.append(
            harness.Segment(clock, clock + wall, group, [harness.Op(w, True) for w in ops])
        )
        clock += wall
    timeline.ref.groups = list(group_times)
    return timeline


# ----- percentiles and sample counts ----------------------------------------


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(1, 101)]
    assert harness.percentile(values, 0.50) == 50.0
    assert harness.percentile(values, 0.95) == 95.0
    assert harness.percentile(values, 1.0) == 100.0
    assert harness.percentile([7.0], 0.95) == 7.0
    assert harness.percentile([1.0, 2.0, 3.0], 0.95) == 3.0


def test_window_stats_counts_samples_and_failures():
    timeline = _timeline([0.04, 0.04, 0.04], [(1.0, [0.5, 0.5]), (1.0, [0.25] * 4)])
    timeline.segments[1].ops[0].ok = False
    stats = harness.window_stats(timeline, timeline.segments)
    assert (stats.attempted, stats.succeeded, stats.failed, stats.samples) == (6, 5, 1, 6)
    assert stats.throughput_raw == pytest.approx(5 / 2.0)
    assert stats.latency_p95_ref is None  # fewer than P95_MIN_SAMPLES samples


def test_p95_is_reported_from_200_samples():
    timeline = _timeline([0.04, 0.04], [(2.0, [0.01] * harness.P95_MIN_SAMPLES)])
    assert harness.window_stats(timeline, timeline.segments).latency_p95_ref == pytest.approx(0.01)


def test_episode_ops_weigh_by_count():
    timeline = _timeline([0.04, 0.04], [(2.0, [])])
    timeline.segments[0].ops = [harness.Op(1.0, True, 2000), harness.Op(1.0, True, 2000)]
    stats = harness.window_stats(timeline, timeline.segments)
    assert stats.attempted == 4000 and stats.samples == 2
    assert stats.latency_p50_raw == pytest.approx(1.0 / 2000)


# ----- reference-second normalisation ---------------------------------------


def test_local_factor_is_mean_of_bracketing_groups():
    assert local_factor([0.04, 0.06], 0, 0.04) == pytest.approx(1.25)


def test_a_slow_phase_cancels_within_two_percent():
    # Three segments of identical work; the machine runs 1.4x slow during
    # the middle one, and the groups on either side of it see the ramp.
    work, ops = 1.5, [0.1] * 15
    steady = _timeline([0.04] * 4, [(work, ops)] * 3)
    slow_ops = [w * 1.4 for w in ops]
    drifting = _timeline(
        [0.04, 0.04 * 1.4, 0.04 * 1.4, 0.04],
        [(work * 1.2, [w * 1.2 for w in ops]), (work * 1.4, slow_ops), (work * 1.2, [w * 1.2 for w in ops])],
    )
    a = harness.window_stats(steady, steady.segments)
    b = harness.window_stats(drifting, drifting.segments)
    assert b.throughput_raw < a.throughput_raw * 0.85  # the raw numbers do move
    assert b.throughput_ref == pytest.approx(a.throughput_ref, rel=0.02)
    assert b.latency_p50_ref == pytest.approx(a.latency_p50_ref, rel=0.02)


def test_setup_is_normalised_segment_by_segment():
    timeline = _timeline([0.04, 0.08, 0.08], [(1.0, []), (2.0, [])])
    # segment 0 at factor 1.5, segment 1 at factor 2.0
    assert timeline.ref_seconds(timeline.segments) == pytest.approx(1.0 / 1.5 + 2.0 / 2.0)


def test_an_operation_sampled_while_it_ran_uses_its_own_factor():
    assert busy_factor([0.04, 0.04], nominal_s=0.04) is None  # too few slices to trust
    assert busy_factor([0.05] * 4, nominal_s=0.04) == pytest.approx(1.25)
    # One 5 s operation in a 5.2 s segment; the groups at its ends saw
    # nominal speed, the slices beside it a machine running 1.25x slow.
    timeline = _timeline([0.04, 0.04], [(5.2, [5.0])])
    timeline.segments[0].ops[0].factor = 1.25
    stats = harness.window_stats(timeline, timeline.segments)
    assert stats.latency_p50_ref == pytest.approx(5.0 / 1.25)
    assert stats.window_ref_s == pytest.approx(5.0 / 1.25 + 0.2 / 1.0)
    assert timeline.span_factor(timeline.segments[0]) == pytest.approx(1.25)


def test_a_longer_segment_earns_a_larger_group():
    class Counting(ScriptedReference):
        def mark(self, slices=None):
            asked.append(slices)
            return super().mark(slices)

    asked = []
    timeline = harness.Timeline(Counting([0.04] * 4), process_start=time.perf_counter())
    timeline.cut("short")
    timeline._start -= 2 * harness.SEGMENT_S
    timeline.cut("two segments' worth")
    timeline._start -= 60.0
    timeline.cut("a long set-up step")
    assert asked == [None, GROUP_SLICES, 2 * GROUP_SLICES, MAX_GROUP_SLICES]


def test_calibrate_imports_nothing_from_repro():
    with open(os.path.join(HERE, "calibrate.py")) as fh:
        tree = ast.parse(fh.read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").split(".")[0])
    assert imported <= {"__future__", "time"}, imported


# ----- span arithmetic ------------------------------------------------------


def _span(name, start, end, parent, phase="window"):
    return [name, start, end, parent, phase]


def test_self_time_of_nested_and_sibling_spans():
    spans = [
        _span(tracing.OP_SPAN, 0.0, 10.0, -1),
        _span("a", 1.0, 9.0, 0),  # two sibling children and a grandchild
        _span("b", 2.0, 4.0, 1),
        _span("b", 5.0, 8.0, 1),
        _span("c", 5.5, 6.5, 3),
    ]
    assert tracing.self_times(spans) == pytest.approx([2.0, 3.0, 2.0, 2.0, 1.0])
    assert tracing.op_ids(spans) == [0, 0, 0, 0, 0]


def test_layer_budget_normalises_and_covers():
    spans = [
        _span("plonk.verify", 0.0, 1.0, -1, "setup"),  # set-up: not in the budget
        _span(tracing.OP_SPAN, 10.0, 12.0, -1),
        _span("core.audit", 10.0, 11.9, 1),
        _span("plonk.verify", 10.5, 11.5, 2),
        _span(tracing.OP_SPAN, 20.0, 24.0, -1),  # second segment runs 2x slow
        _span("core.audit", 20.0, 23.8, 4),
        _span("plonk.verify", 21.0, 23.0, 5),
    ]
    segments = [(10.0, 12.0, 1.0), (20.0, 24.0, 2.0)]
    budget = tracing.layer_budget(spans, segments, operations=2)
    assert budget["plonk.verify.self_s_per_op"] == pytest.approx(1.0)
    assert budget["plonk.verify.calls_per_op"] == pytest.approx(1.0)
    assert budget["core.audit.self_s_per_op"] == pytest.approx(0.9)
    assert budget["bench.trace.coverage_ratio"] == pytest.approx(0.95)


def test_fallback_ratio_counts_batches_with_a_single_verify_beneath():
    spans = [
        _span(tracing.OP_SPAN, 0.0, 9.0, -1),
        _span("contracts.verifier.verify_batch", 0.0, 1.0, 0),
        _span("plonk.batch_verify", 0.1, 0.9, 1),
        _span("contracts.verifier.verify_batch", 2.0, 5.0, 0),
        _span("plonk.batch_verify", 2.1, 3.0, 3),
        _span("plonk.verify", 3.0, 4.0, 3),
    ]
    budget = tracing.layer_budget(spans, [(0.0, 9.0, 1.0)], operations=1)
    assert budget["contracts.verifier.fallback_ratio"] == pytest.approx(0.5)


def test_worker_parts_merge_in_start_order_under_the_waiting_span():
    spans = [
        _span(tracing.OP_SPAN, 0.0, 10.0, -1),
        _span("service.pool.prove", 1.0, 4.0, 0),
        _span(tracing.OP_SPAN, 10.0, 20.0, -1),
        _span("service.pool.prove", 11.0, 14.0, 2),
    ]
    late = {"pid": 7, "counts": {"backend.ntt.points": 5},
            "spans": [_span("core.key_negotiation", 11.5, 13.5, -1),
                      _span("plonk.prove", 12.0, 13.0, 0)]}
    early = {"pid": 7, "counts": {"backend.ntt.points": 3},
             "spans": [_span("core.key_negotiation", 1.5, 3.5, -1)]}
    stray = {"pid": 8, "counts": {"backend.ntt.points": 100},
             "spans": [_span("core.key_negotiation", 30.0, 31.0, -1)]}
    counts = collections.Counter()
    matched = tracing.merge_parts(spans, [late, stray, early], counts)
    assert matched == 2
    assert [s[tracing.PARENT] for s in spans[4:]] == [1, 3, 5, -1]
    assert spans[6][tracing.NAME] == "plonk.prove"
    assert counts["backend.ntt.points"] == 8  # the stray job is not in the window
    assert tracing.op_ids(spans)[4:] == [0, 2, 2, -1]


# ----- rebinding ------------------------------------------------------------


@pytest.fixture
def fake_modules():
    defining = types.ModuleType("benchfake.defining")
    exec(
        "def f(x):\n    return x + 1\n"
        "class K:\n"
        "    def m(self, x):\n        return x * 2\n"
        "    @staticmethod\n    def s(x):\n        return x * 3\n",
        defining.__dict__,
    )
    importer = types.ModuleType("benchfake.importer")
    importer.f = defining.f  # from benchfake.defining import f
    importer._alias = defining.f  # ... import f as _alias
    outsider = types.ModuleType("elsewhere.importer")
    outsider.f = defining.f
    mods = {m.__name__: m for m in (defining, importer, outsider)}
    sys.modules.update(mods)
    yield defining, importer, outsider
    for name in mods:
        del sys.modules[name]


def test_rebind_reaches_by_name_imports(fake_modules):
    defining, importer, outsider = fake_modules
    tracer = tracing.Tracer()
    tracer.set_on(True)
    done = tracing.rebind(
        defining, "f", lambda fn: tracing.wrap_sync(tracer, "fake.f", fn), prefix="benchfake."
    )
    assert done
    assert importer.f(1) == 2 and importer._alias(1) == 2 and defining.f(1) == 2
    assert [s[tracing.NAME] for s in tracer.spans] == ["fake.f"] * 3
    outsider.f(1)  # outside the prefix: left alone
    assert len(tracer.spans) == 3


def test_rebind_methods_and_missing_paths(fake_modules):
    defining, _importer, _outsider = fake_modules
    tracer = tracing.Tracer()
    tracer.set_on(True)

    def make(fn):
        return tracing.wrap_sync(tracer, "fake.k", fn)

    assert tracing.rebind(defining, "K.m", make, prefix="benchfake.")
    assert tracing.rebind(defining, "K.s", make, prefix="benchfake.")
    assert not tracing.rebind(defining, "K.gone", make, prefix="benchfake.")
    assert not tracing.rebind(defining, "Gone.m", make, prefix="benchfake.")
    assert defining.K().m(2) == 4 and defining.K.s(2) == 6 and defining.K().s(2) == 6
    assert len(tracer.spans) == 3


def test_wrappers_keep_function_attributes_and_nest():
    tracer = tracing.Tracer()

    def inner():
        return 1

    def outer():
        return wrapped_inner() + 1

    outer._is_external = True
    wrapped_inner = tracing.wrap_sync(tracer, "in", inner)
    wrapped_outer = tracing.wrap_sync(tracer, "out", outer)
    assert wrapped_outer._is_external and wrapped_outer.__name__ == "outer"
    assert wrapped_outer() == 2 and tracer.spans == []  # recording is off
    tracer.set_on(True)
    with tracer.op() as root:
        assert wrapped_outer() == 2
    assert [(s[tracing.NAME], s[tracing.PARENT]) for s in tracer.spans] == [
        (tracing.OP_SPAN, -1), ("out", root), ("in", 1)]


def test_queue_wrappers_hand_the_operation_to_the_worker_task():
    tracer = tracing.Tracer()
    tracer.set_on(True)

    class Queue:
        def __init__(self):
            self.items = asyncio.Queue()

        def put_nowait(self, tenant, item):
            self.items.put_nowait((tenant, item))

        async def get(self):
            return await self.items.get()

    Queue.put_nowait = tracing.wrap_queue_put(tracer, None, Queue.put_nowait)
    Queue.get = tracing.wrap_queue_get(tracer, None, Queue.get)
    handled = tracing.wrap_sync(tracer, "chain.transact", lambda: None)

    async def scenario():
        queue = Queue()

        async def worker():
            while True:
                _tenant, (payload, fut) = await queue.get()
                handled()
                fut.set_result(payload)

        task = asyncio.create_task(worker())
        for payload in ("x", "y"):
            with tracer.op() as root:
                fut = asyncio.get_running_loop().create_future()
                queue.put_nowait("t", (payload, fut))
                assert await fut == payload
                tracer.close_request(root)
        task.cancel()

    asyncio.run(scenario())
    names = [(s[tracing.NAME], s[tracing.PARENT]) for s in tracer.spans]
    assert names == [
        (tracing.OP_SPAN, -1), ("service.queue.wait", 0), ("service.node.request", 0),
        ("chain.transact", 2),
        (tracing.OP_SPAN, -1), ("service.queue.wait", 4), ("service.node.request", 4),
        ("chain.transact", 6),
    ]
    assert all(s[tracing.END] >= s[tracing.START] for s in tracer.spans)


def test_every_target_exists_in_this_checkout():
    # In a subprocess: installing the wrappers is process-global.
    code = (
        "import sys; sys.path[:0] = [%r, %r]\n"
        "import tracing\n"
        "tracing.import_targets()\n"
        "tracer = tracing.Tracer()\n"
        "tracing.install(tracer)\n"
        "print(tracer.missing)\n" % (HERE, os.path.join(ROOT, "src"))
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


# ----- BENCHMARK.json and compare.py ----------------------------------------


def test_benchmark_json_names_what_run_py_prints():
    import run
    import workloads

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert len(spec["per_layer"]) <= 128
    gas = [n for n in run.per_layer_units() if n.endswith(".gas_per_op")]
    assert gas == [c + ".gas_per_op" for c in workloads.GAS_CATEGORIES]


def _run(workload, value, quick=False, metric="latency_p50_s"):
    return {"workload": workload, "trace": 0, "quick": quick,
            "metrics": {metric: {"value": value, "unit": "s"}}}


BOUNDS = {"latency_p50_s": {"bound": 0.10, "better": "lower"},
          "throughput_per_s": {"bound": 0.10, "better": "higher"}}


@pytest.mark.parametrize(
    "base, cand, better, expected",
    [
        ([1.00, 1.01, 0.99, 1.00, 1.02], [1.20, 1.21, 1.19, 1.22, 1.20], "lower", "regressed"),
        ([1.00, 1.01, 0.99, 1.00, 1.02], [1.03, 1.02, 1.04, 1.03, 1.05], "lower", "unchanged"),
        ([1.00, 1.01, 0.99, 1.00, 1.02], [0.80, 0.81, 0.79, 0.80, 0.82], "lower", "improved"),
        ([1.00, 1.01, 0.99, 1.00, 1.02], [0.80, 0.81, 0.79, 0.80, 0.82], "higher", "regressed"),
        # wide spread, overlapping runs: the runs cannot tell
        ([1.0, 1.3, 0.8, 1.1, 0.9], [1.2, 1.5, 0.9, 1.3, 1.0], "lower", "unresolved"),
        # wide spread, but every candidate run is worse than every base run
        ([1.0, 1.3, 0.8, 1.1, 0.9], [2.0, 2.6, 1.6, 2.2, 1.8], "lower", "regressed"),
        ([2.0, 2.6, 1.6, 2.2, 1.8], [1.0, 1.3, 0.8, 1.1, 0.9], "lower", "improved"),
    ],
)
def test_compare_verdicts(base, cand, better, expected):
    assert compare.verdict(base, cand, 0.10, better) == expected


def test_compare_groups_by_workload_and_refuses_quick_mixes():
    base = [_run("population", v) for v in (1.0, 1.01, 0.99)] + [_run("audit_token", 5.0)]
    cand = [_run("population", v) for v in (1.3, 1.31, 1.29)]
    rows = compare.compare(base, cand, BOUNDS)
    assert [(r[0], r[1], r[-1]) for r in rows] == [("population", "latency_p50_s", "regressed")]
    with pytest.raises(compare.Incomparable):
        compare.compare(base, [_run("population", 1.0, quick=True)], BOUNDS)
    with pytest.raises(compare.Incomparable):
        compare.compare(base[-1:], cand, BOUNDS)
