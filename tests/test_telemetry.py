"""Tests for the telemetry layer: spans, metrics, span records, kernel counters.

The kernel-accounting tests double as the repo's cache ground truth: the
warm-proof test asserts the *measured* "10 of 16 coset FFTs skipped" claim
that the engine docstring and the repeated-proof benchmark cite.
"""

import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import repro.groth16
import repro.kzg
import repro.plonk
from repro import telemetry
from repro.backend import Engine, use_engine
from repro.backend.engine import FOLD_SHARE_PERCENT, MIN_MSM_POINTS
from repro.chain import Blockchain, Contract, external
from repro.core.exchange import build_key_negotiation_circuit
from repro.core.tokens import DataAsset
from repro.curve.g1 import G1
from repro.curve.g2 import G2
from repro.curve.msm import FIXED_WINDOW_MAX, FIXED_WINDOW_MIN
from repro.field.fr import MODULUS as R
from repro.plonk.circuit import CircuitBuilder
from repro.plonk.keys import DEGREE_MARGIN
from repro.plonk.prover import prove
from repro.plonk.batch import batch_verify
from repro.plonk.verifier import verify
from repro.primitives.hashing import field_hash
from repro.telemetry.metrics import (
    Histogram,
    Registry,
    format_key,
    quantile_from_bucket_dict,
    quantile_from_buckets,
)
from tests.test_backend import wide_circuit

#: The package source, put on a child interpreter's ``PYTHONPATH``.
SRC = str(Path(__file__).resolve().parent.parent / "src")


#: ``test_every_engine_count_is_exact``'s workload, counted.  The proof's
#: six live coset FFTs are a, b, c, z, PI and the link's d(X): z(omega X)
#: and the three shifted wires are rotations, and L_1's coefficients are
#: written out, not interpolated (three of the six ifft rows are the wires').
EXACT_COUNTS = {
    "engine.batch_inverse.calls": 1,
    "engine.batch_inverse.size": 1,
    "engine.cache.bypasses{cache=msm_window}": 1,
    "engine.cache.hits{cache=coset_eval}": 12,
    "engine.cache.hits{cache=coset_points}": 1,
    "engine.cache.hits{cache=msm_window}": 9,
    "engine.cache.hits{cache=prepared_g2}": 2,
    "engine.cache.hits{cache=srs_jacobian}": 10,
    "engine.cache.misses{cache=prepared_g2}": 2,
    "engine.fold.calls": 2,
    "engine.fold.terms": 2,
    "engine.kernel.seconds{kernel=batch_inverse}": 1,
    "engine.kernel.seconds{kernel=coset_intt}": 1,
    "engine.kernel.seconds{kernel=fold_pairing_check}": 2,
    "engine.kernel.seconds{kernel=intt}": 3,
    "engine.kernel.seconds{kernel=msm_jac}": 4,
    "engine.kernel.seconds{kernel=msm_srs}": 10,
    "engine.kernel.seconds{kernel=ntt_batch}": 2,
    "engine.msm.calls{group=g1}": 14,
    "engine.msm.points{group=g1}": 14,
    "engine.ntt.calls{kind=coset_fft}": 6,
    "engine.ntt.calls{kind=coset_ifft}": 1,
    "engine.ntt.calls{kind=ifft}": 6,
    "engine.ntt.size{kind=coset_fft}": 6,
    "engine.ntt.size{kind=coset_ifft}": 1,
    "engine.ntt.size{kind=ifft}": 6,
}


@pytest.fixture(autouse=True)
def _clean_telemetry():
    """Isolate every test: reset level, registry and finished spans."""
    previous = telemetry.set_level("off")
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
        telemetry.set_level("on")
        assert isinstance(telemetry.span("anything"), telemetry.Span)

    def test_noop_span_records_nothing(self):
        with telemetry.span("root", a=1) as sp:
            assert sp.set_attr("k", "v") is sp
            assert sp.set_attrs({"x": 1}, y=2) is sp
            assert telemetry.current_span() is None
        assert telemetry.finished_roots() == []

    def test_level_parsing_and_restore(self):
        with telemetry.use_level("on"):
            assert telemetry.enabled()
            with telemetry.use_level(" OFF "):
                assert not telemetry.enabled()
            assert telemetry.enabled()
        assert not telemetry.enabled()
        assert telemetry.set_level("on") == "off"
        assert telemetry.set_level("off") == "on"
        with pytest.raises(ValueError):
            telemetry.set_level("verbose")

    def test_configure_from_env(self):
        telemetry.configure_from_env({"REPRO_TELEMETRY": "on"})
        assert telemetry.enabled()
        telemetry.configure_from_env({})  # empty env leaves the switch alone
        assert telemetry.enabled()
        telemetry.configure_from_env({"REPRO_TELEMETRY": "off"})
        assert not telemetry.enabled()

    def test_a_ledger_path_switches_telemetry_on(self):
        """A process that keeps a ledger records spans and metrics: no
        record of it can come out empty."""
        telemetry.configure_from_env({"REPRO_LEDGER": "runs.jsonl"})
        assert telemetry.enabled()
        telemetry.set_level("off")
        telemetry.configure_from_env({"REPRO_LEDGER": "runs.jsonl", "REPRO_TELEMETRY": "on"})
        assert telemetry.enabled()
        telemetry.set_level("off")
        with pytest.raises(ValueError, match="REPRO_TELEMETRY=off with REPRO_LEDGER"):
            telemetry.configure_from_env(
                {"REPRO_LEDGER": "runs.jsonl", "REPRO_TELEMETRY": "off"}
            )
        assert not telemetry.enabled()

    def test_profile_level_is_gone(self):
        """The switch is off or on; ``profile``, ``metrics``, ``trace`` and
        the old digits are refused."""
        for value in ("profile", "metrics", "trace", "1", "2"):
            with pytest.raises(ValueError, match="unknown telemetry level '%s'" % value):
                telemetry.configure_from_env({"REPRO_TELEMETRY": value})
            with pytest.raises(ValueError, match="unknown telemetry level"):
                telemetry.configure_from_env({"REPRO_TELEMETRY": value, "REPRO_LEDGER": "r"})
        with pytest.raises(ValueError):
            telemetry.set_level(2)
        assert not telemetry.enabled()

    def test_import_applies_the_environment(self, tmp_path):
        """The rules hold where they run, at import: a ledger path alone
        switches telemetry on; ``off`` beside one, or an old level name,
        stops the import."""
        probe = "import repro.telemetry as t; print(t.enabled())"
        ledger_path = str(tmp_path / "runs.jsonl")

        def run(**env):
            environ = dict(os.environ)
            environ.pop("REPRO_TELEMETRY", None)
            environ.pop("REPRO_LEDGER", None)
            environ.update(env, PYTHONPATH=SRC)
            return subprocess.run(
                [sys.executable, "-c", probe], env=environ, capture_output=True, text=True
            )

        on = run(REPRO_LEDGER=ledger_path)
        assert (on.returncode, on.stdout) == (0, "True\n"), on.stderr
        refused = run(REPRO_LEDGER=ledger_path, REPRO_TELEMETRY="off")
        assert refused.returncode != 0
        assert "REPRO_TELEMETRY=off with REPRO_LEDGER" in refused.stderr
        unknown = run(REPRO_TELEMETRY="trace")
        assert unknown.returncode != 0
        assert "unknown telemetry level 'trace'" in unknown.stderr


# ----- spans ----------------------------------------------------------------


class TestSpans:
    def test_nesting_attrs_and_walk(self):
        telemetry.set_level("on")
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
        telemetry.set_level("on")
        with pytest.raises(RuntimeError):
            with telemetry.span("outer"):
                with telemetry.span("inner"):
                    raise RuntimeError("boom")
        assert telemetry.current_span() is None
        (root,) = telemetry.finished_roots()
        assert root.attrs["error"] == "RuntimeError: boom"
        assert root.find("inner").attrs["error"] == "RuntimeError: boom"

    def test_finished_ring_is_bounded(self):
        telemetry.set_level("on")
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
        telemetry.set_level("on")
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
    telemetry.set_level("on")
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


#: Public ``Engine`` members that run no kernel: plans, cached views,
#: cache lookups and lifecycle.
NON_KERNELS = {
    "domain",
    "coset_ntt_cached",
    "coset_points",
    "srs_g1_jacobian",
    "prepared_g2",
    "close",
    "hand_over",
    "adopt",
    "live_helpers",
    "name",
}

#: The kernel modules protocol code must reach through the engine.
KERNEL_MODULES = {"repro.field.ntt", "repro.curve.msm", "repro.curve.pairing"}


class TestKernelAccounting:
    def test_warm_proof_skips_ten_of_fifteen_coset_ffts(self, snark_ctx):
        """The measured source of truth for the '10 of 15 FFTs cached' claim.

        Round 3 runs 15 size-4n coset FFTs: 10 per-key-fixed polynomials
        (qm q3 ql qr qo qc s1 s2 s3 l1) served from the engine's coset-eval
        cache, and 5 live ones (a b c z PI) recomputed per proof; z(omega X)
        is a rotation of z's evaluations.  All nine commitments take the
        precomputed-table MSM path.
        """
        layout, assignment = _tiny_circuit()
        keys = snark_ctx.keys_for(layout)
        prove(keys.pk, assignment)  # warm the caches
        telemetry.set_level("on")
        telemetry.reset_metrics()
        proof = prove(keys.pk, assignment)
        assert verify(keys.vk, assignment.public_inputs, proof)
        assert telemetry.counter("engine.ntt.calls", kind="coset_fft").value == 5
        _assert_coset_sizes("coset_fft", 5, 4 * layout.n)
        _assert_coset_sizes("coset_ifft", 1, 4 * layout.n)
        assert telemetry.counter("engine.cache.hits", cache="coset_eval").value == 10
        assert telemetry.counter("engine.cache.misses", cache="coset_eval").value == 0
        assert telemetry.counter("engine.cache.hits", cache="msm_window").value == 9
        assert telemetry.counter("engine.cache.misses", cache="msm_window").value == 0
        assert telemetry.counter("engine.cache.bypasses", cache="msm_window").value == 0
        # Warm engine: SRS view and NTT plans are cache hits too.
        assert telemetry.counter("engine.cache.misses", cache="srs_jacobian").value == 0
        assert telemetry.counter("engine.cache.hits", cache="srs_jacobian").value > 0

    def test_cold_engine_pays_all_fifteen(self, snark_ctx):
        layout, assignment = _tiny_circuit()
        keys = snark_ctx.keys_for(layout)
        telemetry.set_level("on")
        telemetry.reset_metrics()
        with use_engine(Engine()):
            prove(keys.pk, assignment)
        # All 15 coset FFT kernels run cold: 10 cache misses + 5 live polys.
        assert telemetry.counter("engine.cache.misses", cache="coset_eval").value == 10
        assert telemetry.counter("engine.ntt.calls", kind="coset_fft").value == 15
        _assert_coset_sizes("coset_fft", 15, 4 * layout.n)

    def test_margin_sized_srs_msms_take_the_table_path(self, snark_ctx):
        """Every commitment an n=2048 circuit issues (n .. n + DEGREE_MARGIN
        scalars) is served from the pinned window tables; one scalar more,
        or a prefix below the table floor, is counted as a bypass."""
        srs = snark_ctx.srs
        lengths = range(2048, 2048 + DEGREE_MARGIN + 1)
        engine = Engine()
        engine.msm_srs(srs, [1] * lengths[-1])  # warm: build the tables
        telemetry.set_level("on")
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
        """The fold multiplies once: k members' terms (2k on the [tau]_2
        side, 9k + 9 on the [1]_2 side under one key: no row is cubic, so
        [q3] is the identity the fold leaves out) go through one
        ``fold_pairing_check`` — two MSMs and one pairing product — for
        verify (k = 1) as for a batch, and no separate ``pairing_check``
        runs.  This process's two MSMs count here: all the terms without
        a helper; with one, all but the helper's prefix, which records
        nothing."""
        layout, assignment = _tiny_circuit()
        keys = snark_ctx.keys_for(layout)
        member = (keys.vk, assignment.public_inputs, prove(keys.pk, assignment))
        with Engine(helpers=1) as split:
            split.msm_srs(snark_ctx.srs, [1] * MIN_MSM_POINTS)  # fork the helper
            for engine, share in ((Engine(), 0), (split, FOLD_SHARE_PERCENT)):
                telemetry.set_level("on")
                for k in (1, 5):
                    telemetry.reset_metrics()
                    with use_engine(engine):
                        assert verify(*member) if k == 1 else batch_verify([member] * k)
                    assert telemetry.counter("engine.fold.calls").value == 1
                    terms = telemetry.histogram("engine.fold.terms")
                    assert (terms.count, terms.total) == (1, 2 * k + 9 * k + 9)
                    shared = (9 * k + 9) * share // 100
                    assert telemetry.counter("engine.msm.calls", group="g1").value == 2
                    points = telemetry.histogram("engine.msm.points", group="g1")
                    assert (points.count, points.total) == (2, 2 * k + 9 * k + 9 - shared)
                    assert telemetry.counter("engine.pairing.calls").value == 0
            assert split.live_helpers() == 1

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

        telemetry.set_level("on")
        serial_counts = measured_counters(Engine())
        with Engine(helpers=1) as split:
            split_counts = measured_counters(split)
            assert split.live_helpers() == 1
        assert serial_counts == split_counts
        assert serial_counts["engine.ntt.calls{kind=coset_fft}"] == 5
        assert serial_counts["engine.cache.hits{cache=msm_window}"] == 9
        _assert_coset_sizes("coset_fft", 5, 4 * layout.n)
        assert telemetry.finished_roots()[-1].attrs["backend"] == "split"

    def test_every_public_engine_kernel_counts_and_times(self, snark_ctx):
        """Each public ``Engine`` method but the named non-kernels, called
        once at metrics level, raises an ``engine.*`` call counter and adds
        a sample to ``engine.kernel.seconds``: a new kernel is covered
        without being listed, and fails here until it does both."""
        samples = {
            "coeffs": [1, 2, 3, 4],
            "evals": [1, 2, 3, 4],
            "values": [1, 2, 3, 4],
            "n": 4,
            "jobs": [("fft", 4, [1, 2, 3, 4], 0)],
            "points": [],
            "scalars": [],
            "srs": snark_ctx.srs,
            "base": G1.generator(),
            "scalar": 5,
            "p_pt": G1.generator(),
            "q_pt": G2.generator(),
            "pairs": [(G1.generator(), G2.generator())],
            "tau_side": [(G1.generator(), 2)],
            "one_side": [(G1.generator(), 2)],
            "g2_tau": G2.generator(),
            "g2": G2.generator(),
        }
        kernels = sorted(
            name for name in vars(Engine) if not name.startswith("_") and name not in NON_KERNELS
        )
        assert "ntt" in kernels and "msm_srs" in kernels
        engine = Engine()
        telemetry.set_level("on")
        unaccounted = []
        for name in kernels:
            telemetry.reset_metrics()
            method = getattr(engine, name)
            params = inspect.signature(method).parameters.values()
            method(*[samples[p.name] for p in params if p.default is p.empty])
            snapshot = telemetry.snapshot()
            counted = any(
                value
                for key, value in snapshot["counters"].items()
                if key.startswith("engine.") and not key.startswith("engine.cache.")
            )
            timed = sum(
                hist["count"]
                for key, hist in snapshot["histograms"].items()
                if key.startswith("engine.kernel.seconds")
            )
            if not (counted and timed):
                unaccounted.append((name, counted, timed))
        assert not unaccounted

    def test_every_engine_count_is_exact(self, snark_ctx):
        """Every ``engine.*`` counter and histogram count of one warm pi_k
        proof, its verify, a batch of four and one SRS MSM past the window
        tables (the generic fallback), on a helper-less engine.  A kernel
        that reaches another counted kernel, or a count that moves, fails
        here; only the process-global ntt_plan cache rows are left out."""
        asset = DataAsset.create([3, 1, 4], key=0xD1CE, nonce=0x5EED)
        k_v = 0xBEEF
        c_k = asset.key_commitment(snark_ctx.srs)
        builder = CircuitBuilder()
        build_key_negotiation_circuit(
            builder, (asset.key + k_v) % R, c_k, field_hash(k_v),
            asset.key, asset.key_blinder, k_v,
        )
        layout, assignment = builder.compile()
        keys = snark_ctx.keys_for(layout)
        engine = Engine()
        with use_engine(engine):
            prove(keys.pk, assignment)  # warm this engine's caches
            telemetry.set_level("on")
            telemetry.reset_metrics()
            member = (keys.vk, assignment.public_inputs, prove(keys.pk, assignment), c_k)
            assert verify(*member)
            assert batch_verify([member] * 4)
            engine.msm_srs(snark_ctx.srs, [7] * (FIXED_WINDOW_MAX + 1))
        snapshot = telemetry.snapshot()
        counts = dict(snapshot["counters"])
        counts.update((key, hist["count"]) for key, hist in snapshot["histograms"].items())
        counts = {
            key: value
            for key, value in counts.items()
            if key.startswith("engine.") and "ntt_plan" not in key
        }
        assert counts == EXACT_COUNTS

    def test_protocol_modules_hold_no_kernel_internals(self):
        """``kzg``, ``plonk`` and ``groth16`` reach NTT, MSM and pairing
        code only through the engine, so its caches and counters see every
        call: no module of theirs holds an object (or a module) from the
        kernel modules.  Constants such as ``COSET_SHIFT`` carry no
        ``__module__`` and pass."""
        held = []
        for package in (repro.kzg, repro.plonk, repro.groth16):
            walked = pkgutil.walk_packages(package.__path__, package.__name__ + ".")
            for name in [package.__name__] + [info.name for info in walked]:
                for attr, obj in vars(importlib.import_module(name)).items():
                    if isinstance(obj, types.ModuleType):
                        origin = obj.__name__
                    else:
                        origin = getattr(obj, "__module__", None)
                    if origin in KERNEL_MODULES:
                        held.append("%s.%s" % (name, attr))
        assert not held


# ----- prover / protocol span trees ----------------------------------------


class TestSpanTrees:
    def test_plonk_proof_covers_all_five_rounds(self, snark_ctx, cpus):
        cpus(1)  # the process's engine on one CPU: no helper, "serial"
        layout, assignment = _tiny_circuit()
        keys = snark_ctx.keys_for(layout)
        telemetry.set_level("on")
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
        assert vroot.find("fold") is not None

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
        telemetry.set_level("on")
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
