"""Tests for the telemetry layer: spans, metrics, span records, kernel counters.

The kernel-accounting tests double as the repo's cache ground truth: the
warm-proof test asserts the *measured* "10 of 16 coset FFTs skipped" claim
that the engine docstring and the repeated-proof benchmark cite.
"""

import pytest

from repro import telemetry
from repro.backend import Engine, use_engine
from repro.chain import Blockchain, Contract, external
from repro.curve.msm import FIXED_WINDOW_MIN
from repro.plonk.circuit import CircuitBuilder
from repro.plonk.keys import DEGREE_MARGIN
from repro.plonk.prover import prove
from repro.plonk.batch import batch_verify
from repro.plonk.verifier import verify
from repro.telemetry.metrics import (
    Histogram,
    Registry,
    format_key,
    quantile_from_bucket_dict,
    quantile_from_buckets,
)
from tests.test_backend import wide_circuit


@pytest.fixture(autouse=True)
def _clean_telemetry():
    """Isolate every test: reset level, registry and finished spans."""
    previous = telemetry.set_level(telemetry.OFF)
    telemetry.reset_metrics()
    telemetry.clear_finished()
    yield
    telemetry.set_level(previous)
    telemetry.reset_metrics()
    telemetry.clear_finished()


def _tiny_circuit():
    """An 8-bit range proof: small enough to prove in well under a second."""
    builder = CircuitBuilder()
    value = 0xA5
    total = builder.constant(0)
    weight = 1
    for i in range(8):
        bit = builder.var((value >> i) & 1)
        builder.assert_bool(bit)
        total = builder.add(total, builder.scale(bit, weight))
        weight *= 2
    public = builder.public_input(value)
    builder.assert_equal(total, public)
    return builder.compile()


# ----- levels and the no-op fast path --------------------------------------


class TestLevels:
    def test_default_span_is_shared_noop(self):
        assert telemetry.span("anything", n=1) is telemetry.NOOP_SPAN
        telemetry.set_level(telemetry.METRICS)
        assert telemetry.span("anything") is telemetry.NOOP_SPAN

    def test_noop_span_records_nothing(self):
        with telemetry.span("root", a=1) as sp:
            assert sp.set_attr("k", "v") is sp
            assert sp.set_attrs({"x": 1}, y=2) is sp
            assert telemetry.current_span() is None
        assert telemetry.finished_roots() == []

    def test_level_parsing_and_restore(self):
        with telemetry.use_level("trace"):
            assert telemetry.level() == telemetry.TRACE
            assert telemetry.trace_enabled() and telemetry.metrics_enabled()
            with telemetry.use_level(1):
                assert telemetry.level_name() == "metrics"
                assert not telemetry.trace_enabled()
            assert telemetry.level() == telemetry.TRACE
        assert telemetry.level() == telemetry.OFF
        with pytest.raises(ValueError):
            telemetry.set_level("verbose")

    def test_configure_from_env(self):
        telemetry.configure_from_env({"REPRO_TELEMETRY": "metrics"})
        assert telemetry.level() == telemetry.METRICS
        telemetry.configure_from_env({})  # empty env leaves the level alone
        assert telemetry.level() == telemetry.METRICS

    def test_profile_level_is_gone(self):
        """There are three levels; ``profile`` is not one of them."""
        with pytest.raises(ValueError, match="unknown telemetry level 'profile'"):
            telemetry.configure_from_env({"REPRO_TELEMETRY": "profile"})
        with pytest.raises(ValueError):
            telemetry.set_level(3)
        assert telemetry.level() == telemetry.OFF


# ----- spans ----------------------------------------------------------------


class TestSpans:
    def test_nesting_attrs_and_walk(self):
        telemetry.set_level(telemetry.TRACE)
        with telemetry.span("root", job="test") as root:
            assert telemetry.current_span() is root
            with telemetry.span("child_a", i=0) as a:
                a.set_attr("done", True)
            with telemetry.span("child_b") as b:
                with telemetry.span("grandchild"):
                    pass
                b.set_attrs(k=1)
        assert telemetry.current_span() is None
        assert [s.name for s in root.walk()] == [
            "root", "child_a", "child_b", "grandchild",
        ]
        assert root.attrs == {"job": "test"}
        assert root.find("child_a").attrs == {"i": 0, "done": True}
        assert root.find("grandchild").parent is root.find("child_b")
        assert root.find("missing") is None
        assert root.duration >= a.duration
        assert telemetry.finished_roots() == [root]

    def test_exception_annotates_and_unwinds(self):
        telemetry.set_level(telemetry.TRACE)
        with pytest.raises(RuntimeError):
            with telemetry.span("outer"):
                with telemetry.span("inner"):
                    raise RuntimeError("boom")
        assert telemetry.current_span() is None
        (root,) = telemetry.finished_roots()
        assert root.attrs["error"] == "RuntimeError: boom"
        assert root.find("inner").attrs["error"] == "RuntimeError: boom"

    def test_finished_ring_is_bounded(self):
        telemetry.set_level(telemetry.TRACE)
        for i in range(300):
            with telemetry.span("s%d" % i):
                pass
        roots = telemetry.finished_roots()
        assert len(roots) == 256
        assert roots[-1].name == "s299"


# ----- metrics --------------------------------------------------------------


class TestMetrics:
    def test_counter_identity_and_monotonicity(self):
        c = telemetry.counter("calls", kind="fft")
        c.inc()
        c.inc(4)
        assert telemetry.counter("calls", kind="fft") is c
        assert c.value == 5
        assert telemetry.counter("calls", kind="ifft").value == 0
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_histogram_buckets_mean_and_dict(self):
        h = Histogram("sizes", bounds=(2, 8, 32))
        for v in (1, 2, 3, 32, 33):
            h.observe(v)
        assert h.count == 5 and h.total == 71
        assert h.bucket_counts == [2, 1, 1, 1]
        assert h.mean == pytest.approx(71 / 5)
        d = h.as_dict()
        assert d["buckets"] == {"le_2": 2, "le_8": 1, "le_32": 1, "inf": 1}
        with pytest.raises(ValueError):
            Histogram("bad", bounds=(3, 1))

    def test_as_dict_reports_quantiles(self):
        h = Histogram("lat", bounds=(1.0, 2.0, 4.0))
        for v in (0.5, 1.5, 1.5, 3.0):
            h.observe(v)
        d = h.as_dict()
        assert set(d) >= {"count", "sum", "mean", "p50", "p95", "p99", "buckets"}
        assert 1.0 <= d["p50"] <= 2.0  # rank 2 falls in the (1, 2] bucket
        assert 2.0 <= d["p99"] <= 4.0

    def test_quantile_empty_histogram_is_zero(self):
        h = Histogram("empty", bounds=(1.0, 2.0))
        assert h.quantile(0.5) == 0.0
        assert h.as_dict()["p99"] == 0.0

    def test_quantile_single_bucket_interpolates_from_zero(self):
        # All mass in the first bucket: interpolation runs from lower
        # bound 0 to the bucket bound, scaled by the rank fraction.
        h = Histogram("single", bounds=(10.0,))
        for _ in range(4):
            h.observe(5.0)
        assert h.quantile(0.5) == pytest.approx(5.0)
        assert h.quantile(1.0) == pytest.approx(10.0)

    def test_quantile_overflow_clamps_to_last_finite_bound(self):
        # Observations above every bound land in +inf; the estimate is a
        # documented lower bound (the last finite bucket edge), never an
        # invented extrapolation.
        h = Histogram("over", bounds=(1.0, 8.0))
        h.observe(100.0)
        h.observe(200.0)
        assert h.quantile(0.5) == 8.0
        assert h.quantile(0.99) == 8.0

    def test_quantile_rejects_out_of_range_q(self):
        with pytest.raises(ValueError):
            quantile_from_buckets((1.0,), [1, 0], 1.5)

    def test_quantile_from_bucket_dict_round_trips_as_dict(self):
        h = Histogram("rt", bounds=(1.0, 4.0, 16.0))
        for v in (0.5, 2.0, 3.0, 20.0):
            h.observe(v)
        buckets = h.as_dict()["buckets"]
        for q in (0.5, 0.95, 0.99):
            assert quantile_from_bucket_dict(buckets, q) == pytest.approx(h.quantile(q))
        assert quantile_from_bucket_dict({}, 0.5) == 0.0

    def test_kernel_timer_observes_latency_histogram(self):
        assert telemetry.kernel_timer("ntt") is telemetry.NOOP_SPAN
        telemetry.set_level(telemetry.METRICS)
        with telemetry.kernel_timer("ntt"):
            pass
        with telemetry.kernel_timer("ntt"):
            pass
        snap = telemetry.snapshot()["histograms"]
        entry = snap["engine.kernel.seconds{kernel=ntt}"]
        assert entry["count"] == 2
        assert entry["sum"] >= 0.0

    def test_format_key_sorts_labels(self):
        reg = Registry()
        c = reg.counter("hits", zone="b", cache="a")
        assert format_key(c.name, c.labels) == "hits{cache=a,zone=b}"

    def test_snapshot_and_reset(self):
        telemetry.counter("a").inc(2)
        telemetry.histogram("b", bounds=(10,)).observe(3)
        snap = telemetry.snapshot()
        assert snap["counters"] == {"a": 2}
        assert snap["histograms"]["b"]["count"] == 1
        assert telemetry.registry().counter_values() == {"a": 2}
        telemetry.reset_metrics()
        assert telemetry.snapshot() == {"counters": {}, "histograms": {}}


# ----- rendering and flattening span trees -----------------------------------


def _sample_tree():
    telemetry.set_level(telemetry.TRACE)
    with telemetry.span("root", run=1) as root:
        with telemetry.span("left"):
            with telemetry.span("leaf", deep=True):
                pass
        with telemetry.span("right"):
            pass
    return root


class TestExporters:
    def test_format_span_tree(self):
        root = _sample_tree()
        text = telemetry.format_span_tree(root)
        lines = text.splitlines()
        assert lines[0].startswith("root") and "run=1" in lines[0]
        assert lines[1].startswith("  left")
        assert lines[2].startswith("    leaf") and "deep=True" in lines[2]

    def test_span_records_ids_are_preorder(self):
        root = _sample_tree()
        records = telemetry.span_records(root)
        assert [r["id"] for r in records] == [0, 1, 2, 3]
        assert [r["parent"] for r in records] == [None, 0, 1, 0]
        assert all(r["duration"] >= 0 for r in records)

    def test_span_records_of_an_interior_subtree(self):
        # An exchange.run nested under marketplace.sell is exported from
        # its own node down; the out-of-subtree parent becomes None.
        root = _sample_tree()
        subtree = root.find("left")
        assert subtree.parent is root
        records = telemetry.span_records(subtree)
        assert [r["name"] for r in records] == ["left", "leaf"]
        assert [r["parent"] for r in records] == [None, 0]


# ----- kernel accounting (the cache ground truth) ---------------------------


def _assert_coset_sizes(kind, count, size):
    """Every ``engine.ntt.size`` observation of ``kind`` is exactly ``size``."""
    sizes = telemetry.histogram("engine.ntt.size", kind=kind)
    assert (sizes.count, sizes.total) == (count, count * size)
    assert sizes.bucket_counts[sizes.bounds.index(size)] == count


class TestKernelAccounting:
    def test_warm_proof_skips_ten_of_sixteen_coset_ffts(self, snark_ctx):
        """The measured source of truth for the '10 of 16 FFTs cached' claim.

        Round 3 runs 16 size-4n coset FFTs: 10 per-key-fixed polynomials
        (qm q3 ql qr qo qc s1 s2 s3 l1) served from the engine's coset-eval
        cache, and 6 live ones (a b c z z*omega PI) recomputed per proof.
        All nine commitments take the precomputed-table MSM path.
        """
        layout, assignment = _tiny_circuit()
        keys = snark_ctx.keys_for(layout)
        prove(keys.pk, assignment)  # warm the caches
        telemetry.set_level(telemetry.METRICS)
        telemetry.reset_metrics()
        proof = prove(keys.pk, assignment)
        assert verify(keys.vk, assignment.public_inputs, proof)
        assert telemetry.counter("engine.ntt.calls", kind="coset_fft").value == 6
        _assert_coset_sizes("coset_fft", 6, 4 * layout.n)
        _assert_coset_sizes("coset_ifft", 1, 4 * layout.n)
        assert telemetry.counter("engine.cache.hits", cache="coset_eval").value == 10
        assert telemetry.counter("engine.cache.misses", cache="coset_eval").value == 0
        assert telemetry.counter("engine.cache.hits", cache="msm_window").value == 9
        assert telemetry.counter("engine.cache.misses", cache="msm_window").value == 0
        assert telemetry.counter("engine.cache.bypasses", cache="msm_window").value == 0
        # Warm engine: SRS view and NTT plans are cache hits too.
        assert telemetry.counter("engine.cache.misses", cache="srs_jacobian").value == 0
        assert telemetry.counter("engine.cache.hits", cache="srs_jacobian").value > 0

    def test_cold_engine_pays_all_sixteen(self, snark_ctx):
        layout, assignment = _tiny_circuit()
        keys = snark_ctx.keys_for(layout)
        telemetry.set_level(telemetry.METRICS)
        telemetry.reset_metrics()
        with use_engine(Engine()):
            prove(keys.pk, assignment)
        # All 16 coset FFT kernels run cold: 10 cache misses + 6 live polys.
        assert telemetry.counter("engine.cache.misses", cache="coset_eval").value == 10
        assert telemetry.counter("engine.ntt.calls", kind="coset_fft").value == 16
        _assert_coset_sizes("coset_fft", 16, 4 * layout.n)

    def test_margin_sized_srs_msms_take_the_table_path(self, snark_ctx):
        """Every commitment an n=2048 circuit issues (n .. n + DEGREE_MARGIN
        scalars) is served from the pinned window tables; one scalar more,
        or a prefix below the table floor, is counted as a bypass."""
        srs = snark_ctx.srs
        lengths = range(2048, 2048 + DEGREE_MARGIN + 1)
        engine = Engine()
        engine.msm_srs(srs, [1] * lengths[-1])  # warm: build the tables
        telemetry.set_level(telemetry.METRICS)
        telemetry.reset_metrics()
        for length in lengths:
            engine.msm_srs(srs, [length] * length)
        assert telemetry.counter("engine.cache.hits", cache="msm_window").value == len(lengths)
        assert telemetry.counter("engine.cache.misses", cache="msm_window").value == 0
        assert telemetry.counter("engine.cache.bypasses", cache="msm_window").value == 0
        engine.msm_srs(srs, [1] * (lengths[-1] + 1))
        assert telemetry.counter("engine.cache.bypasses", cache="msm_window").value == 1
        engine.msm_srs(srs, [1] * (FIXED_WINDOW_MIN - 1))
        assert telemetry.counter("engine.cache.bypasses", cache="msm_window").value == 2
        assert telemetry.counter("engine.cache.hits", cache="msm_window").value == len(lengths)

    def test_a_batch_is_two_msms_and_one_pairing_whatever_its_size(self, snark_ctx):
        """The fold multiplies once: k members' terms go through exactly
        two G1 MSMs (2k and 9k + 10 points under one key) and one 2-pair
        check — for verify (k = 1) as for a batch."""
        layout, assignment = _tiny_circuit()
        keys = snark_ctx.keys_for(layout)
        member = (keys.vk, assignment.public_inputs, prove(keys.pk, assignment))
        telemetry.set_level(telemetry.METRICS)
        for k in (1, 5):
            telemetry.reset_metrics()
            if k == 1:
                assert verify(*member)
            else:
                assert batch_verify([member] * k)
            assert telemetry.counter("engine.msm.calls", group="g1").value == 2
            points = telemetry.histogram("engine.msm.points", group="g1")
            assert (points.count, points.total) == (2, 2 * k + 9 * k + 10)
            assert telemetry.counter("engine.pairing.calls").value == 1
            pairs = telemetry.histogram("engine.pairing.pairs")
            assert (pairs.count, pairs.total) == (1, 2)

    def test_parallel_and_serial_report_identical_totals(self, snark_ctx):
        """Kernel metrics are recorded by the public wrappers, in the
        calling process, so helpers cannot change the reported
        ``engine.*`` totals — here on a proof wide enough that every
        commitment is shared with the engine's helper, which
        records nothing (only the process-global ntt_plan cache may
        differ between runs)."""
        layout, assignment = wide_circuit()
        keys = snark_ctx.keys_for(layout)

        def measured_counters(engine):
            with use_engine(engine):
                prove(keys.pk, assignment)  # warm this engine
                telemetry.reset_metrics()
                prove(keys.pk, assignment)
            return {
                k: v
                for k, v in telemetry.registry().counter_values().items()
                if "ntt_plan" not in k
            }

        telemetry.set_level(telemetry.TRACE)
        serial_counts = measured_counters(Engine())
        with Engine(helpers=1) as split:
            split_counts = measured_counters(split)
            assert split.live_helpers() == 1
        assert serial_counts == split_counts
        assert serial_counts["engine.ntt.calls{kind=coset_fft}"] == 6
        assert serial_counts["engine.cache.hits{cache=msm_window}"] == 9
        _assert_coset_sizes("coset_fft", 6, 4 * layout.n)
        assert telemetry.finished_roots()[-1].attrs["backend"] == "split"


# ----- prover / protocol span trees ----------------------------------------


class TestSpanTrees:
    def test_plonk_proof_covers_all_five_rounds(self, snark_ctx, cpus):
        cpus(1)  # the process's engine on one CPU: no helper, "serial"
        layout, assignment = _tiny_circuit()
        keys = snark_ctx.keys_for(layout)
        telemetry.set_level(telemetry.TRACE)
        proof = prove(keys.pk, assignment)
        root = telemetry.finished_roots()[-1]
        assert root.name == "plonk.prove"
        assert root.attrs["n"] == layout.n
        assert root.attrs["backend"] == "serial"
        rounds = [(s.name, s.attrs.get("round")) for s in root.children]
        assert rounds == [
            ("blinding", 1),
            ("permutation", 2),
            ("quotient", 3),
            ("evaluation", 4),
            ("opening", 5),
        ]
        assert all(s.duration > 0 for s in root.walk())
        assert verify(keys.vk, assignment.public_inputs, proof)
        vroot = telemetry.finished_roots()[-1]
        assert vroot.name == "plonk.verify"
        assert vroot.attrs["ok"] is True
        assert vroot.find("pairing") is not None

    def test_chain_receipt_span_attrs(self):
        class Toy(Contract):
            @external
            def ping(self) -> int:
                self.emit("Pinged", value=7)
                return 7

        chain = Blockchain()
        sender = chain.create_account(funded=10**9)
        toy = Toy()
        chain.deploy(toy, sender)
        telemetry.set_level(telemetry.TRACE)
        with telemetry.span("step") as sp:
            receipt = chain.transact(sender, toy, "ping")
            sp.set_attrs(receipt.span_attrs())
        (root,) = telemetry.finished_roots()
        assert root.attrs["tx.method"] == "ping"
        assert root.attrs["tx.status"] is True
        assert root.attrs["tx.gas"] > 21000
        assert root.attrs["tx.events"] == ["Pinged"]
        failed = chain.transact(sender, toy, "ping", gas_limit=1)
        attrs = failed.span_attrs(prefix="fail")
        assert attrs["fail.status"] is False and "fail.error" in attrs
