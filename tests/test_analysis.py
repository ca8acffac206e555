"""Tests for the zklint static-analysis suite (``repro.analysis``).

Both acceptance directions are asserted here: the source tree is clean
under ``--strict``, and the fixture tree at ``tests/fixtures/zklint``
(at least one seeded violation per rule) fails with all four rules
represented.  Each rule also has a case it must accept, and the pragma,
baseline, reporter and CLI plumbing is covered on FLD-001 findings.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import (
    ALL_RULES,
    DEFAULT_CONFIG,
    analyze_paths,
    load_baseline,
    render_json,
    render_suppressions,
    render_text,
    write_baseline,
)
from repro.analysis.__main__ import main as zklint_main

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
FIXTURES = REPO_ROOT / "tests" / "fixtures" / "zklint"
BASELINE = REPO_ROOT / "analysis_baseline.json"

ALL_RULE_IDS = {rule.rule_id for rule in ALL_RULES}


def _analyze_snippet(tmp_path, rel, source):
    """Write ``source`` at ``repro/<rel>`` under tmp_path and analyse it."""
    target = tmp_path / "repro" / rel
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(source)
    return analyze_paths([tmp_path], DEFAULT_CONFIG, baseline=set())


class TestAcceptance:
    def test_source_tree_is_clean_under_strict(self):
        exit_code = zklint_main(
            ["--strict", "--baseline", str(BASELINE), str(SRC)]
        )
        assert exit_code == 0

    def test_source_tree_clean_via_subprocess_cli(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis", "--strict", "src"],
            cwd=REPO_ROOT,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_fixture_tree_fails_strict_with_every_rule(self):
        result = analyze_paths([FIXTURES], DEFAULT_CONFIG, baseline=set())
        assert result.failed
        assert {f.rule for f in result.findings} == ALL_RULE_IDS
        exit_code = zklint_main(["--strict", "--no-baseline", str(FIXTURES)])
        assert exit_code == 1

    def test_fixture_tree_is_advisory_without_strict(self, capsys):
        exit_code = zklint_main(["--no-baseline", str(FIXTURES)])
        assert exit_code == 0
        assert "advisory" in capsys.readouterr().out


class TestPerRuleFixtures:
    @pytest.mark.parametrize(
        "rule_id, fixture, needle",
        [
            ("FS-001", "repro/plonk/fs_violation.py", "no absorption"),
            ("DET-001", "repro/plonk/det_violation.py", "random"),
            ("DET-001", "repro/plonk/faults_violation.py", "repro.faults"),
            ("FLD-001", "repro/plonk/fld_violation.py", "literal"),
            ("ENG-001", "repro/kzg/eng_violation.py", "compute engine"),
            ("ENG-001", "repro/backend/untimed_kernel.py", "never times itself"),
        ],
    )
    def test_seeded_violation_fires(self, rule_id, fixture, needle):
        result = analyze_paths([FIXTURES / fixture], DEFAULT_CONFIG, baseline=set())
        matching = [f for f in result.findings if f.rule == rule_id]
        assert matching, "expected %s on %s" % (rule_id, fixture)
        assert any(needle in f.message for f in matching)


class TestRuleBehaviour:
    def test_fs001_accepts_absorb_challenge_alternation(self, tmp_path):
        result = _analyze_snippet(
            tmp_path,
            "plonk/good_transcript.py",
            "from repro.plonk.transcript import Transcript\n"
            "\n\n"
            "def derive(c1: bytes, c2: bytes) -> int:\n"
            "    t = Transcript(b'ok')\n"
            "    t.append_bytes(b'c1', c1)\n"
            "    beta = t.challenge(b'beta')\n"
            "    t.append_bytes(b'c2', c2)\n"
            "    return beta + t.challenge(b'zeta')\n",
        )
        assert not result.findings

    def test_det001_allowlists_the_sanctioned_sampler(self, tmp_path):
        result = _analyze_snippet(
            tmp_path,
            "field/fr.py",
            "import secrets\n"
            "\n\n"
            "def random_scalar() -> int:\n"
            "    return secrets.randbelow(7)\n",
        )
        assert not result.findings

    def test_fld001_allows_floats_in_costmodel(self, tmp_path):
        result = _analyze_snippet(
            tmp_path,
            "costmodel/gas.py",
            "def price(n: int) -> float:\n"
            "    return n * 0.5\n",
        )
        assert not result.findings

    def test_eng001_accepts_constants_and_a_counted_timed_kernel(self, tmp_path):
        result = _analyze_snippet(
            tmp_path,
            "kzg/good_routing.py",
            "from repro.field.ntt import COSET_SHIFT\n",
        )
        assert not result.findings
        result = _analyze_snippet(
            tmp_path,
            "backend/good_kernel.py",
            "from repro import telemetry\n"
            "\n\n"
            "class Engine:\n"
            "    def ntt(self, values: list) -> list:\n"
            "        telemetry.counter('engine.ntt').inc()\n"
            "        with telemetry.kernel_timer('ntt'):\n"
            "            return values\n",
        )
        assert not result.findings


#: A float literal where field elements live: one FLD-001 finding on line 2.
_FLOAT_IN_PLONK = "def scale(x: int) -> int:\n    return int(x * 0.5)  # zklint: disable=%s\n"


class TestPragmas:
    def test_pragma_suppresses_single_line(self, tmp_path):
        result = _analyze_snippet(tmp_path, "plonk/pragma_case.py", _FLOAT_IN_PLONK % "FLD-001")
        assert not result.findings

    def test_pragma_is_rule_specific(self, tmp_path):
        result = _analyze_snippet(tmp_path, "plonk/pragma_case.py", _FLOAT_IN_PLONK % "FS-001")
        assert [f.rule for f in result.findings] == ["FLD-001"]


class TestBaseline:
    def test_write_and_load_round_trip(self, tmp_path):
        result = analyze_paths([FIXTURES], DEFAULT_CONFIG, baseline=set())
        assert result.findings
        baseline_path = tmp_path / "baseline.json"
        write_baseline(baseline_path, result.findings)
        accepted = load_baseline(baseline_path)
        assert accepted == {f.fingerprint() for f in result.findings}

    def test_baselined_findings_do_not_fail_strict(self, tmp_path):
        first = analyze_paths([FIXTURES], DEFAULT_CONFIG, baseline=set())
        baseline_path = tmp_path / "baseline.json"
        write_baseline(baseline_path, first.findings)
        second = analyze_paths(
            [FIXTURES], DEFAULT_CONFIG, baseline=load_baseline(baseline_path)
        )
        assert not second.findings
        assert not second.failed
        assert len(second.baselined) == len(first.findings)

    def test_missing_baseline_is_empty(self, tmp_path):
        assert load_baseline(tmp_path / "nope.json") == set()

    def test_committed_baseline_is_valid_and_empty(self):
        assert load_baseline(BASELINE) == set()


class TestReporters:
    def test_json_report_schema(self):
        result = analyze_paths([FIXTURES], DEFAULT_CONFIG, baseline=set())
        payload = json.loads(render_json(result, strict=True))
        assert payload["schema_version"] == 1
        assert payload["tool"] == "repro.analysis"
        assert payload["summary"]["failed"] is True
        assert set(payload["rules"]) == ALL_RULE_IDS
        assert len(payload["findings"]) == payload["summary"]["findings"]
        for finding in payload["findings"]:
            assert {"rule", "path", "line", "col", "message"} <= set(finding)

    def test_text_report_names_every_finding(self):
        result = analyze_paths([FIXTURES], DEFAULT_CONFIG, baseline=set())
        text = render_text(result, strict=True)
        for finding in result.findings:
            assert finding.rule in text
        assert "file(s) scanned" in text

    def test_suppressed_findings_are_tracked_and_reported(self, tmp_path):
        result = _analyze_snippet(tmp_path, "plonk/pragma_case.py", _FLOAT_IN_PLONK % "FLD-001")
        assert not result.findings
        assert [(f.rule, f.line) for f in result.suppressed] == [("FLD-001", 2)]
        report = render_suppressions(result)
        assert "FLD-001" in report
        assert "1 finding(s) silenced" in report

    def test_suppressions_report_on_clean_result(self, tmp_path):
        result = _analyze_snippet(
            tmp_path, "costmodel/ok.py", "def f() -> int:\n    return 1\n"
        )
        assert "0 finding(s) silenced" in render_suppressions(result)

    def test_cli_writes_json_output_file(self, tmp_path):
        out = tmp_path / "report.json"
        exit_code = zklint_main(
            [
                "--no-baseline",
                "--format",
                "json",
                "--output",
                str(out),
                str(FIXTURES),
            ]
        )
        assert exit_code == 0
        payload = json.loads(out.read_text())
        assert payload["summary"]["findings"] > 0


class TestCli:
    def test_list_rules(self, capsys):
        assert zklint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ALL_RULE_IDS:
            assert rule_id in out

    def test_rule_selection(self):
        result_code = zklint_main(
            ["--strict", "--no-baseline", "--rules", "FLD-001", str(FIXTURES)]
        )
        assert result_code == 1
        only = analyze_paths(
            [FIXTURES],
            DEFAULT_CONFIG,
            rules=[rule for rule in ALL_RULES if rule.rule_id == "FLD-001"],
            baseline=set(),
        )
        assert {f.rule for f in only.findings} == {"FLD-001"}

    def test_cli_report_suppressions(self, capsys):
        exit_code = zklint_main(
            ["--no-baseline", "--report-suppressions", str(SRC)]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "suppression debt" in out

    def test_unknown_rule_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            zklint_main(["--rules", "NOPE-9", str(FIXTURES)])
        assert excinfo.value.code == 2

    def test_syntax_error_reported_and_fails_strict(self, tmp_path):
        bad = tmp_path / "repro" / "plonk" / "broken.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("def broken(:\n")
        result = analyze_paths([tmp_path], DEFAULT_CONFIG, baseline=set())
        assert result.errors and result.failed


class TestDocstringCatalogue:
    def test_package_docstring_lists_every_rule(self):
        # Guards against the catalogue drifting from ALL_RULES (the
        # docstring once said "five rules ship" after the tenth landed).
        import repro.analysis

        for rule_id in ALL_RULE_IDS:
            assert rule_id in (repro.analysis.__doc__ or "")


class TestMypyStrictSubset:
    def test_strict_subset_typechecks(self):
        if shutil.which("mypy") is None and not _module_available("mypy"):
            pytest.skip("mypy not installed (CI-only dependency)")
        proc = subprocess.run(
            [sys.executable, "-m", "mypy"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr


def _module_available(name):
    import importlib.util

    return importlib.util.find_spec(name) is not None
