"""Run one workload of the end-to-end benchmark.

    python3 benchmarks/e2e/run.py --workload serve_bundled --seed 1 --seconds 6 --trace 0

prints every end-to-end metric (reference seconds; raw wall-clock values
beside them as information) and, with ``--trace 1``, every per-layer metric
from spans recorded around calls into ``repro``'s packages.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed``, ``metrics``.  A failed output check, a failed operation or a
negative control that passes exits non-zero and prints no metrics.

See README.md in this directory for the glossary.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RESULTS_DIR = os.path.join(ROOT, "benchmarks", "results", "e2e")

#: name -> unit; bounds and directions live in BENCHMARK.json.
END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_p50_s": "s",
    "gas_per_op": "gas",
    "peak_rss_mb": "MiB",
}

#: The measured program's environment, pinned before ``repro`` is imported:
#: serial backend, telemetry off, no fault plan, default substrate, no
#: ledger, fixed hash seed.
PINNED_ENV = {"REPRO_BACKEND": "serial", "PYTHONHASHSEED": "0"}
CLEARED_ENV = (
    "REPRO_TELEMETRY",
    "REPRO_TELEMETRY_CONSOLE",
    "REPRO_TELEMETRY_FILE",
    "REPRO_FAULTS",
    "REPRO_CHAOS_SEED",
    "REPRO_LEDGER",
    "REPRO_SUBSTRATE",
    "REPRO_WORKERS",
)


def pin_environment() -> None:
    """Pin the environment; re-exec once if the hash seed was not fixed
    (it is read at interpreter start)."""
    reexec = os.environ.get("PYTHONHASHSEED") != PINNED_ENV["PYTHONHASHSEED"]
    os.environ.update(PINNED_ENV)
    for name in CLEARED_ENV:
        os.environ.pop(name, None)
    if reexec:
        sys.stdout.flush()
        os.execv(sys.executable, [sys.executable] + sys.argv)


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name -> unit, in reporting order."""
    import tracing
    from workloads import GAS_CATEGORIES

    units: dict[str, str] = {}
    for span in tracing.SPAN_NAMES:
        units[span + ".self_s_per_op"] = "s"
        units[span + ".calls_per_op"] = "1/op"
    units["backend.msm_srs.points_per_op"] = "count"
    units["backend.ntt.points_per_op"] = "count"
    units["backend.pairing_check.pairs_per_op"] = "count"
    units["backend.cache.hit_ratio"] = "ratio"
    units["service.settlement.batch_size_mean"] = "count"
    units["service.settlement.flush_by_age_ratio"] = "ratio"
    units["contracts.verifier.fallback_ratio"] = "ratio"
    for category in GAS_CATEGORIES:
        units[category + ".gas_per_op"] = "gas"
    units["service.requests.failed_ratio"] = "ratio"
    units["loadsim.trades.abort_ratio"] = "ratio"
    units["chain.mempool.evicted_per_op"] = "count"
    units["storage.dht.migrated_per_op"] = "count"
    units["bench.trace.coverage_ratio"] = "ratio"
    units["bench.trace.overhead_ratio"] = "ratio"
    return units


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=6.0, help="timed window length")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="1/20 of the window and one warm-up; the record is marked not comparable",
    )
    parser.add_argument(
        "--out",
        default=os.path.join(RESULTS_DIR, "runs.jsonl"),
        help="result file to append this run's record to",
    )
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(
            "benchmarks/e2e: %s is missing - run from a checkout of the repository, "
            "the benchmark measures the program under src/" % os.path.join(src, "repro"),
            file=sys.stderr,
        )
        return 2
    pin_environment()
    sys.path.insert(0, src)

    import harness
    import tracing
    from calibrate import NOMINAL_S, Reference
    from workloads import GAS_CATEGORIES, WORKLOADS, CheckFailed

    if args.workload not in WORKLOADS:
        print("unknown workload %r; choose from %s" % (args.workload, ", ".join(WORKLOADS)),
              file=sys.stderr)
        return 2
    traced = bool(args.trace)
    seconds = args.seconds / 20.0 if args.quick else args.seconds

    timeline = harness.Timeline(Reference(), PROCESS_START)
    tracer = tracing.Tracer(os.path.join(RESULTS_DIR, "parts") if traced else None)
    if traced:
        tracer.clear_parts()
        tracer.set_on(True)  # set-up spans are recorded too (phase "setup")
    workload = WORKLOADS[args.workload](args.seed, tracer, traced, args.quick)
    min_ops = max(1, workload.min_ops // 20) if args.quick else workload.min_ops

    baseline = None
    try:
        try:
            workload.setup(timeline)
            timeline.cut("setup.end")
            setup_segments = list(timeline.segments)
            tracer.set_on(False)
            tracer.phase = "window"
            tracer.counts.clear()  # counts are per window operation
            workload.begin_window()
            window, untraced = harness.run_window(
                timeline, workload.segment, seconds, min_ops,
                between=workload.between_segments,
                set_tracing=tracer.set_on if traced else None,
            )
            stats = harness.window_stats(timeline, window)
            if traced:
                # Same wrappers, recording off: what tracing itself costs.
                baseline = harness.window_stats(timeline, untraced)
            gas = workload.gas_per_op()
            layer_counts = workload.layer_counts()
            workload.control()
        finally:
            workload.close()
    except CheckFailed as exc:
        print("benchmarks/e2e: FAILED: %s" % exc, file=sys.stderr)
        return 1
    if stats.failed or (baseline is not None and baseline.failed):
        print(
            "benchmarks/e2e: FAILED: %d of %d operations failed their output check"
            % (stats.failed, stats.attempted),
            file=sys.stderr,
        )
        return 1

    ref = timeline.ref
    setup_ref = timeline.ref_seconds(setup_segments)
    raw = {
        "setup_wall_s": sum(seg.wall_s for seg in setup_segments),
        "throughput_wall_per_s": stats.throughput_raw,
        "latency_p50_wall_s": stats.latency_p50_raw,
        "window_wall_s": stats.window_wall_s,
        "calibration_s": ref.spent_s,
        "calibration_groups": len(ref.groups),
        "nominal_slice_s": NOMINAL_S,
        "setup_steps": [
            [seg.label, seg.wall_s, timeline.factor(seg)] for seg in setup_segments
        ],
        # Enough to recompute every window metric offline with another estimator.
        "groups_s": ref.groups,
        "window_segments": [
            [seg.group, seg.wall_s, [[op.wall_s, op.count, op.ok, op.factor] for op in seg.ops]]
            for seg in window
        ],
    }
    info = {
        "operations": {
            "attempted": stats.attempted, "succeeded": stats.succeeded, "failed": stats.failed
        },
        "latency_samples": stats.samples,
        "latency_p95_s": stats.latency_p95_ref,
        "machine_speed_factor": ref.machine_speed_factor(),
    }

    if not traced:
        values = {
            "setup_s": setup_ref,
            "throughput_per_s": stats.throughput_ref,
            "latency_p50_s": stats.latency_p50_ref,
            "gas_per_op": sum(gas.values()),
            "peak_rss_mb": harness.peak_rss_mib(),
        }
        units = END_TO_END
    else:
        spans = tracer.spans
        matched = tracing.merge_parts(spans, tracer.read_parts(), tracer.counts)
        segments = [(seg.start, seg.end, timeline.span_factor(seg)) for seg in window]
        values = tracing.layer_budget(spans, segments, stats.succeeded)
        counts = tracer.counts
        per = float(max(1, stats.succeeded))
        batches = counts["service.settlement.batches"]
        values.update({
            "backend.msm_srs.points_per_op": counts["backend.msm_srs.points"] / per,
            "backend.ntt.points_per_op": counts["backend.ntt.points"] / per,
            "backend.pairing_check.pairs_per_op": counts["backend.pairing_check.pairs"] / per,
            "backend.cache.hit_ratio": (
                counts["backend.cache.hits"] / counts["backend.cache.lookups"]
                if counts["backend.cache.lookups"] else 0.0
            ),
            "service.settlement.batch_size_mean": (
                counts["service.settlement.members"] / batches if batches else 0.0
            ),
            "service.settlement.flush_by_age_ratio": (
                counts["service.settlement.by_age"] / batches if batches else 0.0
            ),
            "service.requests.failed_ratio": stats.failed / stats.attempted,
            "loadsim.trades.abort_ratio": 0.0,
            "chain.mempool.evicted_per_op": 0.0,
            "storage.dht.migrated_per_op": counts["storage.dht.migrated"] / per,
            "bench.trace.overhead_ratio": stats.throughput_ref / baseline.throughput_ref,
        })
        values.update({name + ".gas_per_op": gas[name] for name in GAS_CATEGORIES})
        values.update(layer_counts)
        units = per_layer_units()
        info["trace"] = {
            "spans": len(spans),
            "worker_jobs_matched": matched,
            "missing_targets": tracer.missing,
            "counter_errors": counts["bench.counter_errors"],
            "untraced_throughput_per_s": baseline.throughput_ref,
            "traced_throughput_per_s": stats.throughput_ref,
        }
        tracing.write_spans(os.path.join(RESULTS_DIR, "spans-%s.jsonl" % workload.name), spans)

    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "quick": args.quick,
        "comparable": not args.quick,
        "env": harness.environment(ROOT),
        "metrics": metrics,
        "raw": raw,
        **info,
    }
    harness.append_record(args.out, record)

    print("workload %s  seed %d  window %.1f s  trace %d%s" % (
        workload.name, args.seed, seconds, args.trace, "  QUICK (not comparable)" * args.quick))
    print("operations: attempted %d  succeeded %d  failed %d  (%d latency samples)" % (
        stats.attempted, stats.succeeded, stats.failed, stats.samples))
    for name, unit in units.items():
        print("  %-52s %16.6f %s" % (name, values[name], unit))
    if stats.latency_p95_ref is not None:
        print("  info: latency_p95_s %.6f s (reference)" % stats.latency_p95_ref)
    print("  info: machine_speed_factor %.4f over %d groups; raw: setup %.3f s, "
          "throughput %.4f /s, latency_p50 %.6f s" % (
              info["machine_speed_factor"], len(ref.groups), raw["setup_wall_s"],
              stats.throughput_raw, stats.latency_p50_raw))
    if traced:
        print("  info: trace %s" % json.dumps(info["trace"]))
    print(json.dumps({
        "correct": True,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
