"""Tests for the zklint static-analysis suite (``repro.analysis``).

Both acceptance directions from the issue are asserted here: the PR-head
source tree is clean under ``--strict``, and the fixture tree at
``tests/fixtures/zklint`` (at least one seeded violation per rule) fails
with every rule represented.  The whole-program core gets direct unit
coverage too: call-graph resolution (``analysis/graph.py``), CFG
reachability/dominance (``analysis/flow.py``), and the RES-001
"deleted ``finally`` release" regression on a copy of the real
shared-memory dispatch code.
"""

import ast
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
    build_flow,
    build_project,
    load_baseline,
    render_json,
    render_sarif,
    render_suppressions,
    render_text,
    write_baseline,
)
from repro.analysis.__main__ import main as zklint_main
from repro.analysis.engine import load_module
from repro.analysis.graph import module_name_for

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


def _build_project(tmp_path, files):
    """Materialise ``{rel: source}`` under ``repro/`` and build the graph."""
    modules = []
    for rel, source in files.items():
        target = tmp_path / "repro" / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source)
        modules.append(load_module(target))
    return build_project(modules)


def _flow(source):
    """Build a FlowGraph for the first function in ``source``."""
    func = ast.parse(source).body[0]
    return build_flow(func), func


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
            ("SEC-001", "repro/plonk/sec_violation.py", "witness"),
            ("DET-001", "repro/plonk/det_violation.py", "random"),
            ("DET-001", "repro/plonk/faults_violation.py", "repro.faults"),
            ("FLD-001", "repro/plonk/fld_violation.py", "literal"),
            ("ENG-001", "repro/kzg/eng_violation.py", "compute engine"),
            ("ENG-001", "repro/backend/untimed_kernel.py", "never times itself"),
            ("ASYNC-001", "repro/service/async_violation.py", "blocks the calling thread"),
            ("RES-001", "repro/backend/res_violation.py", "not released on all paths"),
            ("FORK-001", "repro/service/fork_violation.py", "fork children inherit"),
            ("FLT-002", "repro/service/flt_violation.py", "RetryPolicy"),
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

    def test_sec001_does_not_taint_through_calls(self, tmp_path):
        result = _analyze_snippet(
            tmp_path,
            "core/good_secrecy.py",
            "def run(prove, witness: int) -> None:\n"
            "    proof = prove(witness)\n"
            "    print(proof)\n",
        )
        assert not result.findings

    def test_sec001_sanitizer_len_is_clean_but_str_is_not(self, tmp_path):
        clean = _analyze_snippet(
            tmp_path,
            "core/a.py",
            "def report(plaintext: list) -> None:\n"
            "    print(len(plaintext))\n",
        )
        assert not clean.findings
        dirty = _analyze_snippet(
            tmp_path,
            "core/b.py",
            "def report(key: int) -> None:\n"
            "    print(str(key))\n",
        )
        assert [f.rule for f in dirty.findings] == ["SEC-001"]

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

    def test_sec001_interprocedural_flags_leaky_helper(self, tmp_path):
        result = _analyze_snippet(
            tmp_path,
            "core/leaky.py",
            "def _explain(diag: object) -> None:\n"
            "    raise ValueError('context: %s' % (diag,))\n"
            "\n\n"
            "def check(witness: int) -> None:\n"
            "    _explain(witness)\n",
        )
        assert [f.rule for f in result.findings] == ["SEC-001"]
        assert any(
            "witness" in f.message and "_explain" in f.message
            for f in result.findings
        )

    def test_sec001_interprocedural_ignores_non_secret_args(self, tmp_path):
        result = _analyze_snippet(
            tmp_path,
            "core/leaky.py",
            "def _explain(diag: object) -> None:\n"
            "    raise ValueError('context: %s' % (diag,))\n"
            "\n\n"
            "def check(code: int) -> None:\n"
            "    _explain(code)\n",
        )
        assert not result.findings

    def test_async001_allows_awaited_executor_offload(self, tmp_path):
        result = _analyze_snippet(
            tmp_path,
            "service/good_async.py",
            "import asyncio\n"
            "\n\n"
            "class Node:\n"
            "    async def stop(self, pool) -> None:\n"
            "        loop = asyncio.get_running_loop()\n"
            "        await loop.run_in_executor(None, pool.close)\n"
            "\n"
            "    async def submit(self, pool, work) -> None:\n"
            "        pool.apply_async(work)\n",
        )
        assert not result.findings

    def test_res001_allows_finally_and_with_releases(self, tmp_path):
        result = _analyze_snippet(
            tmp_path,
            "backend/good_res.py",
            "import multiprocessing\n"
            "\n\n"
            "def roundtrip(work) -> int:\n"
            "    proc = multiprocessing.Process(target=work)\n"
            "    try:\n"
            "        proc.start()\n"
            "        return proc.pid\n"
            "    finally:\n"
            "        proc.join()\n"
            "\n\n"
            "def scoped(path: str) -> None:\n"
            "    lease = acquire_ledger(path)\n"
            "    with lease:\n"
            "        pass\n",
        )
        assert not result.findings

    def test_fork001_allows_hazards_created_after_the_fork(self, tmp_path):
        result = _analyze_snippet(
            tmp_path,
            "service/good_fork.py",
            "import multiprocessing\n"
            "import threading\n"
            "\n\n"
            "class ColdWorker:\n"
            "    def __init__(self) -> None:\n"
            "        self._proc = multiprocessing.get_context('fork').Process(target=print)\n"
            "        self._hb = threading.Thread(target=lambda: None, daemon=True)\n",
        )
        assert not result.findings

    def test_flt002_allows_retry_run_and_abort_handlers(self, tmp_path):
        result = _analyze_snippet(
            tmp_path,
            "service/good_faults.py",
            "class Settler:\n"
            "    def __init__(self, chain, policy) -> None:\n"
            "        self.chain = chain\n"
            "        self.policy = policy\n"
            "\n"
            "    def settle(self, xid: int) -> object:\n"
            "        return self.policy.run(lambda: self.chain.transact('submit', xid))\n"
            "\n"
            "    def settle_guarded(self, xid: int) -> object:\n"
            "        try:\n"
            "            return self.chain.transact('submit', xid)\n"
            "        except Exception:\n"
            "            return self.chain.refund(xid)\n",
        )
        assert not result.findings


class TestProjectGraph:
    def test_module_name_for_maps_rel_paths_to_dotted_names(self):
        assert module_name_for("service/node.py") == "repro.service.node"
        assert module_name_for("field/__init__.py") == "repro.field"

    def test_resolves_self_attr_method_calls_across_modules(self, tmp_path):
        project = _build_project(
            tmp_path,
            {
                "service/pool.py": (
                    "class ProverPool:\n"
                    "    def close(self) -> None:\n"
                    "        pass\n"
                ),
                "service/node.py": (
                    "from repro.service.pool import ProverPool\n"
                    "\n\n"
                    "class Node:\n"
                    "    def __init__(self) -> None:\n"
                    "        self.pool = ProverPool()\n"
                    "\n"
                    "    def stop(self) -> None:\n"
                    "        self.pool.close()\n"
                ),
            },
        )
        stop = project.function("repro.service.node.Node.stop")
        assert stop is not None
        assert "repro.service.pool.ProverPool.close" in {
            c.target for c in stop.calls
        }
        assert "repro.service.node.Node.stop" in project.callers(
            "repro.service.pool.ProverPool.close"
        )

    def test_resolves_bare_name_imports_and_callees(self, tmp_path):
        project = _build_project(
            tmp_path,
            {
                "util.py": "def helper() -> int:\n    return 1\n",
                "service/caller.py": (
                    "from repro.util import helper\n"
                    "\n\n"
                    "def run() -> int:\n"
                    "    return helper()\n"
                ),
            },
        )
        assert project.callees("repro.service.caller.run") == {"repro.util.helper"}
        assert project.importers("repro.util") == {"repro.service.caller"}


class TestFlowGraph:
    def test_dominance_of_straight_line_over_branch(self):
        graph, func = _flow(
            "def f(x):\n"
            "    a = setup()\n"
            "    if x:\n"
            "        b = branch()\n"
            "    c = teardown()\n"
        )
        node_a = graph.node_for(func.body[0])
        node_b = graph.node_for(func.body[1].body[0])
        node_c = graph.node_for(func.body[2])
        assert graph.dominates(node_a, node_c)
        assert not graph.dominates(node_b, node_c)

    def test_loop_body_falls_through_to_successor(self):
        graph, func = _flow(
            "def f(items):\n"
            "    for item in items:\n"
            "        work(item)\n"
            "    done()\n"
        )
        body = graph.node_for(func.body[0].body[0])
        after = graph.node_for(func.body[1])
        assert after in graph.reachable(body)

    def test_any_path_avoids_sees_exception_escape(self):
        # Without try/finally the may-raise call has an exception edge
        # straight to EXIT, so a path that skips the release exists.
        graph, func = _flow(
            "def f():\n"
            "    seg = acquire()\n"
            "    work(seg)\n"
            "    release(seg)\n"
        )
        acquire = graph.node_for(func.body[0])
        release = graph.node_for(func.body[2])
        assert any(
            graph.any_path_avoids(succ, {release})
            for succ in graph.normal_succs(acquire)
        )

    def test_any_path_avoids_respects_finally(self):
        graph, func = _flow(
            "def f():\n"
            "    seg = acquire()\n"
            "    try:\n"
            "        work(seg)\n"
            "    finally:\n"
            "        release(seg)\n"
        )
        acquire = graph.node_for(func.body[0])
        release = graph.node_for(func.body[1].finalbody[0])
        assert all(
            not graph.any_path_avoids(succ, {release})
            for succ in graph.normal_succs(acquire)
        )


class TestResourceReleaseOnRealCode:
    """RES-001 acceptance on production-shaped code, not just toy
    fixtures: a copy of the real split engine."""

    def test_dropping_the_helper_handoff_is_caught(self, tmp_path):
        """``_fork_helpers`` hands each ``Process`` to ``_links`` for
        ``close()`` to reap; a refactor that drops the hand-off leaves a
        local nobody terminates or joins."""
        source = (SRC / "repro" / "backend" / "split.py").read_text()
        target = tmp_path / "repro" / "backend" / "split.py"
        target.parent.mkdir(parents=True)
        target.write_text(source)
        clean = analyze_paths([tmp_path], DEFAULT_CONFIG, baseline=set())
        assert not [f for f in clean.findings if f.rule == "RES-001"]

        handoff = "self._links.append((proc, ours))"
        assert source.count(handoff) == 1
        target.write_text(source.replace(handoff, "pass"))
        broken = analyze_paths([tmp_path], DEFAULT_CONFIG, baseline=set())
        res_findings = [f for f in broken.findings if f.rule == "RES-001"]
        assert res_findings
        assert any("'proc' acquired by Process()" in f.message for f in res_findings)

    def test_a_forked_process_must_be_reaped_on_every_path(self, tmp_path):
        """The split engine's helpers: a ``Process`` held in a local must
        reach terminate/join even when the work in between raises."""
        leaky = (
            "import multiprocessing\n\n\n"
            "def run(work):\n"
            "    proc = multiprocessing.Process(target=work)\n"
            "    proc.start()\n"
            "    work()\n"
            "    proc.join()\n"
        )
        result = _analyze_snippet(tmp_path, "service/helper_case.py", leaky)
        assert [f.rule for f in result.findings] == ["RES-001"]
        reaped = leaky.replace(
            "    proc.start()\n    work()\n    proc.join()\n",
            "    try:\n        proc.start()\n        work()\n"
            "    finally:\n        proc.terminate()\n",
        )
        assert not _analyze_snippet(tmp_path, "service/helper_case.py", reaped).findings


class TestForkSitesOnRealCode:
    """FORK-001 on the two places ``src/`` forks: the split engine's
    helpers and the prover pool's workers."""

    @pytest.mark.parametrize(
        "rel, fork_line",
        [
            ("backend/split.py", 'ctx = multiprocessing.get_context("fork")'),
            ("service/pool.py", 'fork = multiprocessing.get_context("fork")'),
        ],
    )
    def test_a_thread_live_at_the_fork_is_caught(self, tmp_path, rel, fork_line):
        source = (SRC / "repro" / rel).read_text()
        assert source.count(fork_line) == 1
        target = tmp_path / "repro" / rel
        target.parent.mkdir(parents=True)
        target.write_text(source)
        clean = analyze_paths([tmp_path], DEFAULT_CONFIG, baseline=set())
        assert not [f for f in clean.findings if f.rule == "FORK-001"]

        thread = "threading.Thread(target=print).start()\n        "
        target.write_text(source.replace(fork_line, thread + fork_line))
        broken = analyze_paths([tmp_path], DEFAULT_CONFIG, baseline=set())
        assert any(
            f.rule == "FORK-001" and "threading.Thread" in f.message for f in broken.findings
        )


class TestPragmas:
    def test_pragma_suppresses_single_line(self, tmp_path):
        source = (
            "def check(witness: int) -> None:\n"
            "    raise ValueError(f'bad {witness}')  # zklint: disable=SEC-001\n"
        )
        result = _analyze_snippet(tmp_path, "plonk/pragma_case.py", source)
        assert not result.findings

    def test_pragma_is_rule_specific(self, tmp_path):
        source = (
            "def check(witness: int) -> None:\n"
            "    raise ValueError(f'bad {witness}')  # zklint: disable=FS-001\n"
        )
        result = _analyze_snippet(tmp_path, "plonk/pragma_case.py", source)
        assert [f.rule for f in result.findings] == ["SEC-001"]


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

    def test_sarif_report_schema(self):
        result = analyze_paths([FIXTURES], DEFAULT_CONFIG, baseline=set())
        payload = json.loads(render_sarif(result, strict=True))
        assert payload["version"] == "2.1.0"
        run = payload["runs"][0]
        rules = run["tool"]["driver"]["rules"]
        assert {rule["id"] for rule in rules} == ALL_RULE_IDS
        assert len(run["results"]) == len(result.findings)
        for entry in run["results"]:
            location = entry["locations"][0]["physicalLocation"]
            assert location["region"]["startLine"] >= 1
            assert entry["partialFingerprints"]["zklintFingerprint/v1"]
            assert entry["baselineState"] == "new"
        assert run["invocations"][0]["executionSuccessful"] is True

    def test_sarif_marks_baselined_unchanged(self, tmp_path):
        first = analyze_paths([FIXTURES], DEFAULT_CONFIG, baseline=set())
        baseline_path = tmp_path / "baseline.json"
        write_baseline(baseline_path, first.findings)
        second = analyze_paths(
            [FIXTURES], DEFAULT_CONFIG, baseline=load_baseline(baseline_path)
        )
        payload = json.loads(render_sarif(second, strict=True))
        states = {r["baselineState"] for r in payload["runs"][0]["results"]}
        assert states == {"unchanged"}

    def test_suppressed_findings_are_tracked_and_reported(self, tmp_path):
        result = _analyze_snippet(
            tmp_path,
            "plonk/pragma_case.py",
            "def check(witness: int) -> None:\n"
            "    raise ValueError(f'bad {witness}')  # zklint: disable=SEC-001\n",
        )
        assert not result.findings
        assert [f.rule for f in result.suppressed] == ["SEC-001"]
        report = render_suppressions(result)
        assert "SEC-001" in report
        assert "1 finding(s) silenced" in report
        sarif = json.loads(render_sarif(result, strict=True))
        suppressed = [
            r for r in sarif["runs"][0]["results"] if r.get("suppressions")
        ]
        assert len(suppressed) == 1
        assert suppressed[0]["suppressions"][0]["kind"] == "inSource"

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

    def test_cli_writes_sarif_output_file(self, tmp_path):
        out = tmp_path / "report.sarif"
        exit_code = zklint_main(
            [
                "--no-baseline",
                "--format",
                "sarif",
                "--output",
                str(out),
                str(FIXTURES),
            ]
        )
        assert exit_code == 0
        payload = json.loads(out.read_text())
        assert payload["version"] == "2.1.0"
        assert payload["runs"][0]["results"]

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
