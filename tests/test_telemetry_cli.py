"""The telemetry CLI: report/diff/flame over ledgers and BENCH tables.

Two committed artifacts are the fixtures, both real output of the stack:

- ``benchmarks/baselines/sample_ledger.jsonl`` — one trace-level
  KeySecure exchange on the default engine, as
  ``examples/traced_exchange.py`` records it;
- ``tests/fixtures/bench_table_sample.json`` — a frozen BENCH table (two
  data rows with speedup cells, one policy row, a trimmed registry
  snapshot) from a bench that has since been retired; a parser sample,
  not a baseline anything is gated against.

The regression tests show ``diff --check`` working: degrading a speedup
cell beyond the tolerance must flip it to exit 1.
"""

import copy
import json
from pathlib import Path

import pytest

from repro.telemetry import ledger
from repro.telemetry.cli import (
    bench_metrics,
    collapsed_stacks,
    diff_metrics,
    ledger_metrics,
    load_file,
    main,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
SAMPLE_LEDGER = REPO_ROOT / "benchmarks" / "baselines" / "sample_ledger.jsonl"
BENCH_BASELINE = REPO_ROOT / "tests" / "fixtures" / "bench_table_sample.json"


def _bench_payload():
    return json.loads(BENCH_BASELINE.read_text())


# ----- input sniffing --------------------------------------------------------


class TestLoadFile:
    def test_ledger_jsonl_is_sniffed_by_first_line(self):
        kind, records = load_file(str(SAMPLE_LEDGER))
        assert kind == "ledger"
        assert records and records[0]["schema"] == ledger.SCHEMA

    def test_pretty_printed_bench_json_falls_through(self):
        # First line of a pretty-printed table is just "{" — the sniff
        # must not crash, it must re-parse the whole document.
        kind, payload = load_file(str(BENCH_BASELINE))
        assert kind == "bench"
        assert payload["rows"]

    def test_empty_file_is_a_usage_error(self, tmp_path):
        empty = tmp_path / "empty.json"
        empty.write_text("")
        with pytest.raises(SystemExit):
            load_file(str(empty))

    def test_unrecognised_json_is_a_usage_error(self, tmp_path):
        other = tmp_path / "other.json"
        other.write_text(json.dumps({"hello": "world"}))
        with pytest.raises(SystemExit):
            load_file(str(other))


# ----- report ---------------------------------------------------------------


class TestReport:
    def test_report_on_committed_sample_ledger(self, capsys):
        assert main(["report", str(SAMPLE_LEDGER)]) == 0
        out = capsys.readouterr().out
        assert "hot kernels" in out
        assert "engine.kernel.seconds{kernel=msm_srs}" in out
        assert "worker" not in out
        assert "cache hit rates:" in out

    def test_report_on_committed_bench_table(self, capsys):
        assert main(["report", str(BENCH_BASELINE)]) == 0
        out = capsys.readouterr().out
        assert "bench: substrate" in out
        assert "warm Plonk proof" in out
        assert "hot kernels (registry snapshot):" in out


# ----- metric extraction and diffing ----------------------------------------


class TestBenchMetrics:
    def test_speedup_cells_gate_seconds_cells_do_not(self):
        metrics = bench_metrics(_bench_payload())
        directions = {name: direction for name, _, direction in metrics}
        speedups = [n for n, d in directions.items() if d == "higher"]
        assert speedups and all("speedup" in n for n in speedups)
        seconds = [n for n, d in directions.items() if d == "info"]
        assert seconds  # raw wall-clock is reported but never gates

    def test_policy_rows_are_skipped(self):
        metrics = bench_metrics(_bench_payload())
        assert not any("floor" in name for name, _, _ in metrics)

    def test_ledger_latency_means_gate_lower(self):
        _, records = load_file(str(SAMPLE_LEDGER))
        directions = {name: d for name, _, d in ledger_metrics(records)}
        lat = "engine.kernel.seconds{kernel=msm_srs} mean"
        assert directions[lat] == "lower"
        assert directions["engine.pairing.calls"] == "info"


class TestDiffMetrics:
    def test_identical_metrics_have_no_regressions(self):
        metrics = [("a", 1.0, "lower"), ("b", 2.0, "higher")]
        rows, regressions = diff_metrics(metrics, list(metrics), tolerance=0.1)
        assert regressions == []
        assert all(row[4] == "" for row in rows)

    def test_lower_is_better_flags_increase(self):
        rows, regressions = diff_metrics(
            [("latency", 1.0, "lower")], [("latency", 1.5, "lower")], tolerance=0.1
        )
        assert regressions == ["latency"]
        assert rows[0][4] == "REGRESSION"

    def test_higher_is_better_flags_decrease(self):
        _, regressions = diff_metrics(
            [("speedup", 1.6, "higher")], [("speedup", 1.0, "higher")], tolerance=0.2
        )
        assert regressions == ["speedup"]

    def test_improvement_within_direction_is_not_a_regression(self):
        rows, regressions = diff_metrics(
            [("latency", 1.0, "lower")], [("latency", 0.5, "lower")], tolerance=0.1
        )
        assert regressions == []
        assert rows[0][4] == "improved"

    def test_info_metrics_never_gate(self):
        _, regressions = diff_metrics(
            [("wall s", 1.0, "info")], [("wall s", 10.0, "info")], tolerance=0.1
        )
        assert regressions == []

    def test_removed_and_added_metrics_are_reported(self):
        rows, regressions = diff_metrics(
            [("gone", 1.0, "lower")], [("fresh", 2.0, "lower")], tolerance=0.1
        )
        assert regressions == []
        assert ("gone", "1", "-", "removed", "") in rows
        assert ("fresh", "-", "2", "added", "") in rows


# ----- the CI perf gate, demonstrated ---------------------------------------


class TestPerfGate:
    def _degraded_copy(self, tmp_path):
        """The baseline with its speedup ratios collapsed to 1.00x."""
        payload = copy.deepcopy(_bench_payload())
        for row in payload["rows"]:
            for i, cell in enumerate(row):
                if isinstance(cell, str) and cell.endswith("x") and cell[0].isdigit():
                    row[i] = "1.00x"
        degraded = tmp_path / "BENCH_degraded.json"
        degraded.write_text(json.dumps(payload, indent=2))
        return degraded

    def test_identical_files_pass_the_gate(self, capsys):
        code = main(
            ["diff", "--check", str(BENCH_BASELINE), str(BENCH_BASELINE)]
        )
        assert code == 0
        assert "no regressions beyond tolerance" in capsys.readouterr().out

    def test_injected_regression_fails_the_gate(self, tmp_path, capsys):
        degraded = self._degraded_copy(tmp_path)
        code = main(
            [
                "diff",
                "--check",
                "--tolerance",
                "0.2",
                str(BENCH_BASELINE),
                str(degraded),
            ]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out
        assert "speedup" in out

    def test_without_check_regressions_are_advisory(self, tmp_path, capsys):
        degraded = self._degraded_copy(tmp_path)
        code = main(
            ["diff", "--tolerance", "0.2", str(BENCH_BASELINE), str(degraded)]
        )
        assert code == 0
        assert "regression(s) beyond tolerance" in capsys.readouterr().out

    def test_mixed_kinds_refuse_to_diff(self):
        with pytest.raises(SystemExit):
            main(["diff", str(BENCH_BASELINE), str(SAMPLE_LEDGER)])


# ----- flame ----------------------------------------------------------------


class TestFlame:
    def test_collapsed_stack_self_time_arithmetic(self):
        record = {
            "spans": [
                {"id": 0, "parent": None, "name": "root", "duration": 0.010},
                {"id": 1, "parent": 0, "name": "child", "duration": 0.004},
                {"id": 2, "parent": 1, "name": "leaf", "duration": 0.001},
                # Sub-microsecond self time: dropped from the export.
                {"id": 3, "parent": 0, "name": "tiny", "duration": 5e-7},
            ]
        }
        lines = sorted(collapsed_stacks([record]))
        assert lines == [
            "root 5999",           # 10ms - (4ms + ~0.5us) of children
            "root;child 3000",     # 4ms - 1ms leaf
            "root;child;leaf 1000",
        ]

    def test_flame_on_committed_sample_ledger(self, capsys):
        assert main(["flame", str(SAMPLE_LEDGER)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines
        for line in lines:
            stack, _, weight = line.rpartition(" ")
            assert stack and int(weight) >= 1
        # The prover's rounds survive the export under the exchange step.
        assert any("exchange.prove;plonk.prove;quotient" in line for line in lines)

    def test_flame_out_writes_a_file(self, tmp_path, capsys):
        target = tmp_path / "stacks.txt"
        assert main(["flame", str(SAMPLE_LEDGER), "--out", str(target)]) == 0
        assert "wrote" in capsys.readouterr().out
        content = target.read_text().splitlines()
        assert content and all(" " in line for line in content)

    def test_flame_refuses_bench_tables(self):
        with pytest.raises(SystemExit):
            main(["flame", str(BENCH_BASELINE)])
