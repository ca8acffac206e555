"""System-level suite for the population-scale load simulator.

Tier-1 runs the small, fast configurations: every traffic mix completes
cleanly, replays are bit-identical from (seed, mix, profile), faults are
absorbed without conservation drift, and the invariant checker actually
fires when the ledger is tampered with (a checker that cannot fail is
not a check).  The ``soak`` marker gates the 10^4-user configuration CI
runs out-of-band; ``-m soak`` selects it and the ``soak_params`` fixture
steers (seed, mix, profile) through the environment so a red run prints
a one-command replay line.
"""

import gc
import hashlib
import weakref

import pytest

from repro.loadsim import (
    MIXES,
    LoadSimulator,
    SimConfig,
    TrafficMix,
    run_sim,
    sim_draw,
    skewed_draw,
)
from repro.faults import PROFILES, FaultPlan, FaultRule
from repro.loadsim.__main__ import _parse_faults
from repro import telemetry
from repro.telemetry import ledger

#: Small-but-real: enough operations that every op kind, the mempool
#: backpressure path and churn all actually fire.
_SMOKE = dict(users=200, ops=400, dht_nodes=8, churn_every=100, ops_per_round=48)


class TestTrafficMix:
    def test_presets_are_normalised_and_named(self):
        for name, mix in MIXES.items():
            assert mix.name == name
            assert mix.mint + mix.trade + mix.audit > 0
        assert TrafficMix.parse("trade_heavy") is MIXES["trade_heavy"]

    def test_custom_spec_round_trips(self):
        mix = TrafficMix.parse("mint=5,trade=0,audit=1")
        assert (mix.mint, mix.trade, mix.audit) == (5, 0, 1)
        assert TrafficMix.parse(mix.spec()).spec() == mix.spec()

    def test_bad_specs_rejected(self):
        for bad in ("nope", "mint=0,trade=0,audit=0", "mint=0,trade=5,audit=0", "mint=x"):
            with pytest.raises(Exception):
                TrafficMix.parse(bad)

    def test_draw_op_is_seed_deterministic_and_mix_faithful(self):
        mix = MIXES["mint_heavy"]
        ops = [mix.draw_op(99, i) for i in range(3000)]
        assert ops == [mix.draw_op(99, i) for i in range(3000)]
        counts = {kind: ops.count(kind) for kind in ("mint", "trade", "audit")}
        # 6:3:1 weights — generous tolerance, zero flake (fixed seed).
        assert counts["mint"] > counts["trade"] > counts["audit"] > 0

    def test_draws_are_integer_and_bounded(self):
        for i in range(200):
            value = sim_draw(7, "t", i, 10)
            assert isinstance(value, int) and 0 <= value < 10
            skew = skewed_draw(7, "s", i, 1000)
            assert isinstance(skew, int) and 0 <= skew < 1000


class TestSimulation:
    @pytest.mark.parametrize("mix", sorted(MIXES))
    def test_every_mix_completes_cleanly(self, mix):
        report = run_sim(mix=mix, **_SMOKE)
        assert report.violations == []
        assert report.mined > 0 and report.blocks > 0
        assert report.digest and len(report.digest) == 64
        if MIXES[mix].audit:
            assert report.audits > 0

    def test_replay_is_bit_identical(self):
        first = run_sim(seed=31337, **_SMOKE)
        second = run_sim(seed=31337, **_SMOKE)
        assert first.digest == second.digest
        assert first.mined == second.mined
        assert first.trades_completed == second.trades_completed
        # A different seed must actually steer the run somewhere else.
        assert run_sim(seed=31338, **_SMOKE).digest != first.digest

    def test_faults_absorbed_without_conservation_drift(self):
        report = run_sim(fault_profile="soak", seed=4242, **_SMOKE)
        assert report.violations == []
        assert report.faults_injected > 0
        # The fault plane must not invent or destroy funds.
        assert report.dropped + report.reverted >= 0
        # Replays under faults are deterministic too, and pinned across
        # commits: the chain's bytes of this faulted run do not move.
        again = run_sim(fault_profile="soak", seed=4242, **_SMOKE)
        assert again.digest == report.digest == (
            "d4afad4787f35e8846747d3a1ea60489933427e31ff1675a3eed427e5ac69a15"
        )

    def test_ledger_record_carries_every_injected_fault(self, tmp_path, monkeypatch):
        """The record lists what the run's own epoch injectors drew, not
        the slice of the ambient injector's log (which drew nothing)."""
        path = str(tmp_path / "loadsim.jsonl")
        monkeypatch.setenv(ledger.ENV_VAR, path)
        LoadSimulator(SimConfig(users=200, ops=600, fault_profile="all", fault_seed=7,
                                fault_epoch_ops=200)).run()
        (record,) = ledger.read(path)
        assert record["name"] == "loadsim.run"
        assert len(record["faults"]) == record["attrs"]["faults_injected"] > 0

    def test_ledger_record_explains_its_time(self, tmp_path, monkeypatch, capsys):
        """A ledger turns telemetry on, and the run's record carries the
        tree under its ``loadsim.run`` root span, which the flame export
        prints."""
        from repro.telemetry.cli import main

        path = str(tmp_path / "loadsim.jsonl")
        monkeypatch.setenv(ledger.ENV_VAR, path)
        with telemetry.use_level("on"):
            LoadSimulator(SimConfig(users=200, ops=300, seed=5)).run()
        (record,) = ledger.read(path)
        roots = [span for span in record["spans"] if span["parent"] is None]
        assert [span["name"] for span in roots] == ["loadsim.run"]
        capsys.readouterr()
        assert main(["flame", path]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines and all(line.startswith("loadsim.run") for line in lines)

    def test_default_config_traffic_is_pinned(self):
        """Golden run: the numbers ``lanes=1, block_txs=256`` produced at
        the last commit that had lanes (3523e03), which were also the
        numbers of its default ``lanes=4, block_txs=64``."""
        sim = LoadSimulator(SimConfig(users=10_000, ops=2_000, seed=1))
        report = sim.run()
        assert report.violations == []
        assert (report.mined, report.trades_completed, report.rounds) == (2709, 652, 18)
        assert sum(r.gas_used for r in sim.chain.receipts) == 177_437_463
        balances = hashlib.sha256()
        for address in sorted(sim.chain._balances):
            balances.update(b"%s|%d;" % (address.encode(), sim.chain._balances[address]))
        assert balances.hexdigest() == (
            "27131ff9acfb281d85f9ccb880563416639967b8d43c5a11d49ddd87148ffa22"
        )

    def test_spent_client_budgets_are_pinned(self, monkeypatch):
        """Six transactions in ten revert: client budgets run out, so
        locks abort, an open turns into the buyer's refund and mints are
        shed — the run reaches every budget exit of the resubmission
        rule, and its counts and digest are pinned across commits."""
        monkeypatch.setitem(
            PROFILES, "revert60", (FaultRule("chain.transact", "revert", 600_000),)
        )
        report = run_sim(fault_profile="revert60", seed=3, **_SMOKE)
        assert report.violations == []
        assert (report.refunds, report.aborts, report.shed) == (1, 3, 9)
        assert report.digest == (
            "036ec506b0ff8a21b28ab455d26d073097fb5e5406e6b0d23d60fa177e3e5124"
        )

    def test_finished_simulator_is_freed_without_the_collector(self):
        """A benchmark segment holds finished episodes; what it lets go of
        must go at once — simulator, chain, receipts, events — or peak
        memory follows the collector's schedule, not the workload."""
        gc.collect()
        gc.disable()
        try:
            sim = LoadSimulator(SimConfig(**_SMOKE))
            assert sim.run().violations == []
            assert len(sim.chain.receipts) > 100
            gone = [weakref.ref(sim), weakref.ref(sim.chain), weakref.ref(sim.chain.receipts[-1])]
            del sim
            assert [ref() for ref in gone] == [None, None, None]
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_report_artifact_schema(self):
        report = run_sim(users=50, ops=60, dht_nodes=6, churn_every=0)
        payload = report.to_dict()
        assert payload["schema"] == "repro.loadsim.report/2"
        for column in ("tx_per_sec", "audit_p50_us", "audit_p99_us", "digest",
                       "fault_profile", "fault_seed", "violations"):
            assert column in payload
        assert payload["violations"] == []

    def test_mempool_backpressure_sheds_or_defers_not_corrupts(self):
        report = run_sim(seed=11, mempool_capacity=24, ops_per_round=200,
                         **{k: v for k, v in _SMOKE.items() if k != "ops_per_round"})
        assert report.violations == []
        # A 24-slot pool under 200-op bursts must exercise eviction.
        assert report.mempool_evicted + report.mempool_rejected + report.shed > 0


@pytest.mark.parametrize(
    "spec, expected",
    [("7", ("all", 7)), (":7", ("all", 7)), ("all:7", ("all", 7)), ("storage:9", ("storage", 9))],
)
def test_every_reader_parses_repro_faults_alike(spec, expected, monkeypatch, request):
    """The ambient plan, ``--faults env`` and the soak fixture read one
    ``REPRO_FAULTS`` value as the same (profile, seed)."""
    monkeypatch.setenv("REPRO_FAULTS", spec)
    plan = FaultPlan.from_env(spec)
    assert (plan.name, plan.seed) == expected
    assert _parse_faults("env") == expected
    soak = request.getfixturevalue("soak_params")
    assert (soak["profile"], soak["fault_seed"]) == expected


class TestInvariantChecker:
    """The checker must catch real corruption, not just bless clean runs."""

    def _finished_sim(self):
        sim = LoadSimulator(SimConfig(users=60, ops=80, dht_nodes=6,
                                      churn_every=0, ops_per_round=32))
        report = sim.run()
        assert report.violations == []
        return sim

    def test_detects_minted_funds(self):
        sim = self._finished_sim()
        victim = sim.population.account(0)
        sim.chain._balances[victim] += 12345  # counterfeit money
        sim.checker.check_round()
        assert any("conservation" in v for v in sim.checker.violations)

    def test_detects_destroyed_funds(self):
        sim = self._finished_sim()
        victim = sim.population.account(0)
        sim.chain._balances[victim] -= 1
        sim.checker.check_round()
        assert sim.checker.violations

    def test_detects_stolen_token(self):
        sim = self._finished_sim()
        if not sim._tokens:
            pytest.skip("run minted no tokens")
        token_id = sorted(sim._tokens)[0]
        thief = sim.population.account(1)
        sim.token._storage[("owner", token_id)] = thief
        sim.checker.check_final()
        assert any("owner" in v for v in sim.checker.violations)


@pytest.mark.soak
class TestSoak:
    """The 10^4-user acceptance configuration (CI's soak job).

    Deselected from tier-1 by addopts; run with ``-m soak``.  The
    environment steers the (seed, mix, profile) triple via the
    ``soak_params`` fixture, and a failure prints the replay command.
    """

    def test_population_scale_soak(self, soak_params):
        report = run_sim(
            users=10_000,
            ops=4_000,
            mix=soak_params["mix"],
            seed=soak_params["seed"],
            fault_profile=soak_params["profile"],
            fault_seed=soak_params["fault_seed"],
        )
        assert report.violations == [], report.violations[:10]
        assert report.mined > 1_000
        assert report.trades_completed > 0
        assert report.audit_p99_us >= report.audit_p50_us > 0

    def test_soak_replay_digest_stable(self, soak_params):
        small = dict(users=10_000, ops=1_000, mix=soak_params["mix"],
                     seed=soak_params["seed"], fault_profile=soak_params["profile"],
                     fault_seed=soak_params["fault_seed"])
        assert run_sim(**small).digest == run_sim(**small).digest
