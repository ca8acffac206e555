"""The run ledger: schema round-trips, per-run attribution, fault capture.

The fast tests exercise the ledger machinery directly (snapshot
differencing, cache-rate derivation, writer sequencing, schema
filtering).  The integration tests then run the real KeySecure exchange
with ``REPRO_LEDGER`` pointed at a temp file and assert the contract the
telemetry CLI depends on: exactly one record per exchange, carrying the
span tree and the per-run metric deltas.  The chaos-marked test closes
the loop with the fault plane — every injected fault must land in the
record's ``faults`` list, which is what makes a ledger line a usable
incident report.
"""

import json

import pytest

from repro import faults, telemetry
from repro.backend import Engine, use_engine
from repro.chain import Blockchain
from repro.contracts import KeySecureArbiterContract, PlonkVerifierContract
from repro.core.exchange import Buyer, KeySecureExchange, Seller, key_negotiation_keys
from repro.core.tokens import DataAsset
from repro.faults import FaultPlan
from repro.telemetry import ledger
from repro.telemetry.cli import merge_histograms


@pytest.fixture(autouse=True)
def _clean_telemetry(monkeypatch):
    """Isolate each test: reset level/metrics/spans, detach REPRO_LEDGER."""
    monkeypatch.delenv(ledger.ENV_VAR, raising=False)
    previous = telemetry.set_level("off")
    telemetry.reset_metrics()
    telemetry.clear_finished()
    yield
    telemetry.set_level(previous)
    telemetry.reset_metrics()
    telemetry.clear_finished()


@pytest.fixture
def ledger_path(tmp_path, monkeypatch):
    """A ledger file the way a process gets one: ``REPRO_LEDGER``, with
    telemetry on (a process started with it set runs at on)."""
    path = str(tmp_path / "r.jsonl")
    monkeypatch.setenv(ledger.ENV_VAR, path)
    telemetry.set_level("on")
    return path


def _market(snark_ctx):
    chain = Blockchain()
    operator = chain.create_account(funded=10**12)
    verifier = PlonkVerifierContract(key_negotiation_keys(snark_ctx).vk)
    chain.deploy(verifier, operator)
    arbiter = KeySecureArbiterContract(verifier)
    chain.deploy(arbiter, operator)
    seller_addr = chain.create_account(funded=10**9)
    buyer_addr = chain.create_account(funded=10**9)
    return chain, arbiter, seller_addr, buyer_addr


def _run_exchange(snark_ctx):
    chain, arbiter, seller_addr, buyer_addr = _market(snark_ctx)
    asset = DataAsset.create([42, 84], key=555, nonce=666)
    asset.uri = "u"
    seller = Seller(snark_ctx, asset, seller_addr)
    buyer = Buyer(snark_ctx, asset.public_view(snark_ctx.srs), buyer_addr)
    protocol = KeySecureExchange(snark_ctx, chain, arbiter)
    return protocol.run(seller, buyer, price=5000)


# ----- snapshot differencing -------------------------------------------------


class TestDiffSnapshots:
    def test_counters_subtract_and_drop_zero_deltas(self):
        before = {"counters": {"a": 3, "untouched": 7}, "histograms": {}}
        after = {"counters": {"a": 5, "untouched": 7, "new": 2}, "histograms": {}}
        delta = ledger.diff_snapshots(before, after)
        assert delta["counters"] == {"a": 2, "new": 2}

    def test_histograms_rederive_mean_and_quantiles_from_delta(self):
        telemetry.set_level("on")
        h = telemetry.histogram("lat", bounds=(1.0, 4.0))
        h.observe(0.5)  # pre-run noise: huge relative to the run itself
        h.observe(0.5)
        before = telemetry.snapshot()
        h.observe(3.0)  # the run's only observation
        delta = ledger.diff_snapshots(before, telemetry.snapshot())
        entry = delta["histograms"]["lat"]
        # A record stores what was measured; `report` derives the rest.
        assert entry == {"count": 1, "sum": pytest.approx(3.0),
                         "buckets": {"le_1": 0, "le_4": 1, "inf": 0}}
        derived = merge_histograms([{"metrics": delta}])["lat"]
        assert derived["mean"] == pytest.approx(3.0)
        # Quantiles come from the delta buckets, not process lifetime.
        assert 1.0 <= derived["p50"] <= 4.0

    def test_untouched_histogram_is_dropped(self):
        telemetry.set_level("on")
        telemetry.histogram("idle", bounds=(1.0,)).observe(0.2)
        before = telemetry.snapshot()
        delta = ledger.diff_snapshots(before, telemetry.snapshot())
        assert delta == {"counters": {}, "histograms": {}}

    def test_cache_hit_rates_parse_engine_cache_counters(self):
        rates = ledger.cache_hit_rates(
            {
                "engine.cache.hits{cache=ntt_plan}": 9,
                "engine.cache.misses{cache=ntt_plan}": 1,
                "engine.cache.misses{cache=coset_eval}": 4,
                "engine.ntt.calls{kind=fft}": 100,  # unrelated counter
            }
        )
        assert rates == {"ntt_plan": 0.9, "coset_eval": 0.0}


# ----- writer / reader -------------------------------------------------------


class TestWriter:
    def test_schema_round_trip(self, tmp_path):
        path = str(tmp_path / "runs.jsonl")
        book = ledger.Ledger(path)
        first = book.append({"name": "demo", "attrs": {"ok": True}})
        second = book.append({"name": "demo"})
        assert first["schema"] == ledger.SCHEMA
        assert first["schema_version"] == ledger.SCHEMA_VERSION
        assert [first["seq"], second["seq"]] == [0, 1]
        records = ledger.read(path)
        assert records == [first, second]
        # Every line is standalone JSON (the append-only JSONL contract).
        lines = open(path).read().splitlines()
        assert len(lines) == 2
        assert all(json.loads(line)["schema"] == ledger.SCHEMA for line in lines)

    def test_reader_skips_foreign_schemas(self, tmp_path):
        path = tmp_path / "mixed.jsonl"
        path.write_text(
            json.dumps({"schema": "other.tool", "x": 1})
            + "\n\n"
            + json.dumps(
                {"schema": ledger.SCHEMA, "schema_version": ledger.SCHEMA_VERSION, "name": "keep"}
            )
            + "\n"
        )
        records = ledger.read(str(path))
        assert [r["name"] for r in records] == ["keep"]

    @pytest.mark.parametrize("version", [1, 99])
    def test_reader_rejects_other_schema_versions(self, tmp_path, version):
        path = tmp_path / "old.jsonl"
        path.write_text(
            json.dumps({"schema": ledger.SCHEMA, "schema_version": version, "name": "x"})
            + "\n"
        )
        with pytest.raises(ValueError, match="schema_version %d" % version):
            ledger.read(str(path))

    def test_writer_registry_keeps_sequence_across_begins(self, ledger_path):
        with ledger.begin("a"):
            pass
        with ledger.begin("b"):
            pass
        assert [r["seq"] for r in ledger.read(ledger_path)] == [0, 1]

    def test_the_only_route_to_a_ledger_is_the_processs(self, tmp_path):
        """No caller names a ledger file: a record goes where
        ``REPRO_LEDGER`` points, in a process that records at on, so no
        record is written that explains nothing."""
        with pytest.raises(TypeError):
            ledger.begin("unit.run", path=str(tmp_path / "r.jsonl"))
        assert not (tmp_path / "r.jsonl").exists()

    def test_begin_without_path_is_noop(self):
        rec = ledger.begin("nothing")
        assert rec is ledger.NOOP_RECORDER
        with rec:
            rec.update(success=True)
        assert rec.record is None

    def test_env_var_enables_default_path(self, tmp_path, monkeypatch):
        target = str(tmp_path / "env.jsonl")
        monkeypatch.setenv(ledger.ENV_VAR, target)
        assert ledger.default_path() == target
        assert ledger.enabled()
        with ledger.begin("via-env") as rec:
            rec.update(ok=1)
        assert [r["name"] for r in ledger.read(target)] == ["via-env"]


class TestRunRecorder:
    def test_record_carries_deltas_spans_and_env(self, ledger_path):
        telemetry.counter("warmup").inc(10)  # pre-run noise
        with ledger.begin("unit.run") as rec:
            with telemetry.span("unit.root") as root:
                telemetry.counter("warmup").inc(2)
                with telemetry.span("unit.child"):
                    pass
            rec.update(span=root, success=True, gas_used=7)
        record = rec.record
        assert record["name"] == "unit.run"
        assert record["attrs"] == {"success": True, "gas_used": 7}
        assert record["metrics"]["counters"] == {"warmup": 2}
        assert set(record["env"]) == {
            "backend", "git_revision", "telemetry_level", "pid", "faults",
        }
        assert record["env"]["faults"] is None
        names = [s["name"] for s in record["spans"]]
        assert names == ["unit.root", "unit.child"]
        assert record["faults"] == []

    def test_git_revision_is_read_once_per_process(self, ledger_path, monkeypatch):
        """The revision cannot change inside a process, so two records
        spawn ``git`` once."""
        spawns = []
        real_run = ledger.subprocess.run

        def counted(*args, **kwargs):
            spawns.append(args[0])
            return real_run(*args, **kwargs)

        monkeypatch.setattr(ledger.subprocess, "run", counted)
        ledger._git_revision.cache_clear()
        for name in ("first", "second"):
            with ledger.begin(name):
                pass
        assert spawns == [["git", "rev-parse", "HEAD"]]
        first, second = ledger.read(ledger_path)
        assert first["env"]["git_revision"] == second["env"]["git_revision"]

    def test_env_names_the_installed_engine_not_the_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "serial")
        with use_engine(Engine(helpers=1)):
            assert ledger.environment()["backend"] == "split"
        monkeypatch.setenv("REPRO_BACKEND", "parallel")
        with use_engine(Engine()):
            assert ledger.environment()["backend"] == "serial"

    def test_non_span_serialises_as_empty_spans(self, ledger_path):
        with ledger.begin("quiet.run") as rec:
            rec.update(span=telemetry.NOOP_SPAN)
        assert rec.record["spans"] == []

    def test_env_faults_names_the_installed_plan(self, ledger_path):
        with faults.use_plan(FaultPlan.profile("chain", seed=42)):
            assert ledger.environment()["faults"] == "chain:42"
            with ledger.begin("chaos.run"):
                pass
        assert ledger.environment()["faults"] is None
        assert [r["env"]["faults"] for r in ledger.read(ledger_path)] == ["chain:42"]

    def test_a_run_that_raises_still_writes_its_record(self, ledger_path):
        with pytest.raises(KeyError):
            with ledger.begin("unit.run") as rec:
                rec.update(price=5)
                raise KeyError("lost")
        (record,) = ledger.read(ledger_path)
        assert record["attrs"] == {"price": 5, "error": "KeyError: 'lost'"}


# ----- the real exchange writes exactly one record ---------------------------


@pytest.mark.slow
class TestExchangeIntegration:
    def test_one_record_per_exchange_under_traced_flow(
        self, tmp_path, monkeypatch, snark_ctx
    ):
        path = str(tmp_path / "exchange.jsonl")
        monkeypatch.setenv(ledger.ENV_VAR, path)
        telemetry.set_level("on")
        result = _run_exchange(snark_ctx)
        assert result.success
        records = ledger.read(path)
        assert len(records) == 1
        (record,) = records
        assert record["name"] == "exchange.keysecure"
        assert record["attrs"]["success"] is True
        assert record["attrs"]["gas_used"] == result.gas_used
        # The span tree roots at exchange.run and includes both proofs.
        roots = [s for s in record["spans"] if s["parent"] is None]
        assert [s["name"] for s in roots] == ["exchange.run"]
        names = {s["name"] for s in record["spans"]}
        assert {"exchange.prove", "plonk.prove", "plonk.verify"} <= names
        # Metric deltas attribute to this run: kernels were exercised.
        counters = record["metrics"]["counters"]
        assert counters.get("engine.fold.calls", 0) >= 1
        assert any(k.startswith("engine.ntt.calls") for k in counters)
        assert "engine.kernel.seconds{kernel=fold_pairing_check}" in record["metrics"][
            "histograms"
        ]
        # Cache rates are derived from the counters, not stored.
        assert "cache_hit_rates" not in record
        assert ledger.cache_hit_rates(counters)  # at least one cache exercised
        assert record["faults"] == []

    def test_a_ledger_alone_records_the_span_tree_and_counters(
        self, tmp_path, monkeypatch, snark_ctx
    ):
        """``REPRO_LEDGER`` set and ``REPRO_TELEMETRY`` unset: the process
        records at on, so the exchange's record explains the run."""
        path = str(tmp_path / "alone.jsonl")
        monkeypatch.setenv(ledger.ENV_VAR, path)
        monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
        telemetry.configure_from_env()
        assert _run_exchange(snark_ctx).success
        (record,) = ledger.read(path)
        assert record["env"]["telemetry_level"] == "on"
        names = {s["name"] for s in record["spans"]}
        assert {"exchange.run", "exchange.prove", "plonk.prove", "plonk.verify"} <= names
        assert record["metrics"]["counters"]
        assert record["metrics"]["histograms"]

    def test_prover_crash_leaves_one_record_with_the_error(
        self, tmp_path, monkeypatch, snark_ctx
    ):
        class CrashingSeller(Seller):
            def data_validation_message(self, predicate=None):
                raise RuntimeError("prover crashed")

        path = str(tmp_path / "crash.jsonl")
        monkeypatch.setenv(ledger.ENV_VAR, path)
        chain, arbiter, seller_addr, buyer_addr = _market(snark_ctx)
        asset = DataAsset.create([42, 84], key=555, nonce=666)
        asset.uri = "u"
        seller = CrashingSeller(snark_ctx, asset, seller_addr)
        buyer = Buyer(snark_ctx, asset.public_view(snark_ctx.srs), buyer_addr)
        protocol = KeySecureExchange(snark_ctx, chain, arbiter)
        with pytest.raises(RuntimeError, match="prover crashed"):
            protocol.run(seller, buyer, price=5000)
        (record,) = ledger.read(path)
        assert record["name"] == "exchange.keysecure"
        assert record["attrs"]["error"] == "RuntimeError: prover crashed"
        assert record["attrs"]["price"] == 5000

    def test_second_exchange_appends_a_second_record(
        self, tmp_path, monkeypatch, snark_ctx
    ):
        path = str(tmp_path / "two.jsonl")
        monkeypatch.setenv(ledger.ENV_VAR, path)
        telemetry.set_level("on")
        assert _run_exchange(snark_ctx).success
        assert _run_exchange(snark_ctx).success
        records = ledger.read(path)
        assert [r["seq"] for r in records] == [0, 1]
        assert [r["name"] for r in records] == ["exchange.keysecure"] * 2


# ----- chaos: injected faults land in the record -----------------------------


@pytest.mark.chaos
@pytest.mark.slow
class TestChaosLedger:
    def test_injected_faults_are_recorded(self, tmp_path, monkeypatch, snark_ctx):
        path = str(tmp_path / "chaos.jsonl")
        monkeypatch.setenv(ledger.ENV_VAR, path)
        telemetry.set_level("on")
        chain, arbiter, seller_addr, buyer_addr = _market(snark_ctx)
        asset = DataAsset.create([42, 84], key=555, nonce=666)
        asset.uri = "u"
        seller = Seller(snark_ctx, asset, seller_addr)
        buyer = Buyer(snark_ctx, asset.public_view(snark_ctx.srs), buyer_addr)
        protocol = KeySecureExchange(snark_ctx, chain, arbiter)
        with faults.use_plan(FaultPlan.profile("chain", seed=20220707)) as injector:
            protocol.run(seller, buyer, price=5000)
        records = ledger.read(path)
        assert len(records) == 1
        (record,) = records
        # Exactly the faults the injector logged during the run, in order.
        recorded = [(f["sequence"], f["site"], f["kind"]) for f in record["faults"]]
        expected = [(f.sequence, f.site, f.kind) for f in injector.log]
        assert recorded == expected
        for fault in record["faults"]:
            assert {"sequence", "site", "kind", "rule_index"} <= set(fault)
