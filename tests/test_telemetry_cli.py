"""The telemetry CLI: report and flame over run ledgers.

The fixture is ``benchmarks/baselines/sample_ledger.jsonl``: one
trace-level KeySecure exchange on the default engine, as
``examples/traced_exchange.py`` records it.  Anything that is not a
ledger of this schema version is a usage error.
"""

import json
from pathlib import Path

import pytest

from repro.telemetry import ledger
from repro.telemetry.cli import collapsed_stacks, load_file, main

REPO_ROOT = Path(__file__).resolve().parent.parent
SAMPLE_LEDGER = REPO_ROOT / "benchmarks" / "baselines" / "sample_ledger.jsonl"


def _bench_table(tmp_path):
    """A pretty-printed JSON table: valid JSON, but not a ledger."""
    table = tmp_path / "table.json"
    table.write_text(json.dumps({"headers": ["case", "s"], "rows": [["a", 1.0]]}, indent=2))
    return table


# ----- input loading ----------------------------------------------------------


class TestLoadFile:
    def test_ledger_jsonl_is_sniffed_by_first_line(self):
        records = load_file(str(SAMPLE_LEDGER))
        assert records and records[0]["schema"] == ledger.SCHEMA
        assert records[0]["schema_version"] == ledger.SCHEMA_VERSION

    def test_pretty_printed_bench_json_falls_through(self, tmp_path):
        # First line of a pretty-printed document is just "{": the reader
        # must refuse it with a usage error, not crash.
        with pytest.raises(SystemExit):
            load_file(str(_bench_table(tmp_path)))

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

    def test_flame_refuses_bench_tables(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["flame", str(_bench_table(tmp_path))])
