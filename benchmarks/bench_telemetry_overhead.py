"""The telemetry layer's disabled-path overhead budget (< 2%).

Every instrumentation point compiles down, when ``REPRO_TELEMETRY=off``,
to a ``telemetry.span(...)`` call that returns the shared no-op singleton,
an ``enabled()`` guard — one global load and compare — or, for an
engine kernel, its decorator's guard plus the one call frame the decorator
adds.  The budget (DESIGN.md) is that this costs under 2% of a warm Plonk
proof.

Cross-checkout wall-clock comparisons are too noisy to gate on inside one
process, so this benchmark asserts the budget deterministically: it
micro-times the three no-op primitives, counts how many instrumented events
one warm proof actually executes (read off the metrics registry itself),
and checks that (events x per-event no-op cost) stays under 2% of the
measured off proof time.  The off-vs-on wall clock is printed as an
informational row.
"""

import time

from conftest import print_table, run_once

from repro import telemetry
from repro.backend.engine import _kernel
from repro.plonk.circuit import CircuitBuilder
from repro.plonk.prover import prove
from repro.plonk.verifier import verify


def _range_circuit(builder: CircuitBuilder, value: int, bits: int = 64) -> None:
    total = builder.constant(0)
    weight = 1
    for i in range(bits):
        bit = builder.var((value >> i) & 1)
        builder.assert_bool(bit)
        total = builder.add(total, builder.scale(bit, weight))
        weight *= 2
    public = builder.public_input(value)
    builder.assert_equal(total, public)


def test_telemetry_off_overhead(benchmark, snark_ctx):
    builder = CircuitBuilder()
    _range_circuit(builder, 0xFEEDFACE)
    layout, assignment = builder.compile()
    keys = snark_ctx.keys_for(layout)
    prove(keys.pk, assignment)  # warm every cache first

    # Warm proof with telemetry off (the baseline the budget is measured
    # against).
    off_times = []
    with telemetry.use_level("off"):
        for _ in range(2):
            t0 = time.perf_counter()
            prove(keys.pk, assignment)
            off_times.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        proof = run_once(benchmark, lambda: prove(keys.pk, assignment))
        off_times.append(time.perf_counter() - t0)
    assert verify(keys.vk, assignment.public_inputs, proof)
    off_s = min(off_times)

    # Warm proof with telemetry on (informational: spans + metrics live).
    # How many instrumented events does it execute?  The registry itself
    # is the counter: every guarded site increments a counter and/or
    # observes a histogram when telemetry is on.
    with telemetry.use_level("on"):
        telemetry.reset_metrics()
        t0 = time.perf_counter()
        prove(keys.pk, assignment)
        on_s = time.perf_counter() - t0
        snap = telemetry.snapshot()
        root = telemetry.finished_roots()[-1]
        n_spans = sum(1 for _ in root.walk())
    n_events = int(sum(snap["counters"].values()))
    n_events += int(sum(h["count"] for h in snap["histograms"].values()))

    n_kernels = int(
        sum(h["count"] for k, h in snap["histograms"].items() if k.startswith("engine.kernel."))
    )

    # Micro-time the disabled primitives.  A kernel's is a decorated no-op
    # method less the bare one: the min of interleaved rounds of each.
    class Probe:
        def bare(self, x):
            return x

        kernel = _kernel("overhead_probe", lambda x: None)(bare)

    def per_call(method, reps: int = 100_000) -> float:
        t0 = time.perf_counter()
        for _ in range(reps):
            method(1)
        return (time.perf_counter() - t0) / reps

    reps = 200_000
    with telemetry.use_level("off"):
        t0 = time.perf_counter()
        for _ in range(reps):
            telemetry.span("overhead_probe", n=1)
        span_cost = (time.perf_counter() - t0) / reps
        t0 = time.perf_counter()
        for _ in range(reps):
            telemetry.enabled()
        guard_cost = (time.perf_counter() - t0) / reps
        probe = Probe()
        rounds = [(per_call(probe.kernel), per_call(probe.bare)) for _ in range(5)]
    kernel_cost = max(0.0, min(k for k, _ in rounds) - min(b for _, b in rounds))

    # Upper bound: every kernel call charged the decorator, every other
    # event the guard, every span the no-op span constructor (n_events
    # over-counts guards — several instruments share one guard at most
    # sites).
    est_overhead_s = (
        n_kernels * kernel_cost + (n_events - n_kernels) * guard_cost + n_spans * span_cost
    )
    overhead_pct = 100.0 * est_overhead_s / off_s
    on_pct = 100.0 * (on_s - off_s) / off_s

    print_table(
        "Telemetry overhead, warm proof (n=%d)" % layout.n,
        ["quantity", "value", "note"],
        [
            ["proof, telemetry off", "%.3f s" % off_s, "baseline"],
            ["proof, telemetry on", "%.3f s" % on_s, "%+.1f%% (informational)" % on_pct],
            ["instrumented events/proof", "%d" % n_events, "from the registry"],
            ["kernel calls/proof", "%d" % n_kernels, "engine.kernel.seconds samples"],
            ["spans/proof", "%d" % n_spans, "prover span tree"],
            ["no-op span() call", "%.0f ns" % (span_cost * 1e9), "shared singleton"],
            ["enabled() guard", "%.0f ns" % (guard_cost * 1e9), "load + compare"],
            ["kernel decorator", "%.0f ns" % (kernel_cost * 1e9), "guard + one call frame"],
            ["estimated off overhead", "%.4f%%" % overhead_pct, "budget < 2%"],
        ],
    )
    assert overhead_pct < 2.0, (
        "disabled-telemetry overhead estimate %.3f%% breaches the 2%% budget"
        % overhead_pct
    )
