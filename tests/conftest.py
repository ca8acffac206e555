"""Shared fixtures.

The SNARK context (SRS + circuit-key cache) is expensive to build, so one
session-scoped instance is shared by every protocol-level test; circuit
keys accumulate in its cache across tests, exactly as a deployed system
would reuse them.  So are the seller-proven pi_k bundles the node's
tests serve.  ``lone_thread_at_fork`` checks every fork a test makes
(the prover pool's and the engine helpers' tests use it); ``cpus`` sets
the CPU mask the process's engine and the prover pool are sized from.

Seeded-randomness plumbing for the chaos and differential suites: the
``chaos_seed`` fixture reads ``REPRO_CHAOS_SEED`` (defaulting to a fixed
constant so plain ``pytest`` runs are reproducible), and any test that
used it and failed gets a replay line appended to its report so the
exact run can be reproduced from the terminal output alone.
"""

import os
import threading
from multiprocessing.process import BaseProcess

import pytest

import repro.backend
from repro.core.snark import SnarkContext

#: Supports circuits up to n = 16384 (plus blinding margin) — the
#: logistic-regression convergence predicate is the largest test circuit.
_SRS_DEGREE = 16400

#: Default seed for chaos/differential runs when REPRO_CHAOS_SEED is unset.
_DEFAULT_CHAOS_SEED = 20220707  # ICDCS 2022


@pytest.fixture(scope="session")
def snark_ctx():
    return SnarkContext.with_fresh_srs(_SRS_DEGREE, tau=0xC0FFEE)


@pytest.fixture(scope="session")
def pik_bundles(snark_ctx):
    """An asset plus three seller-precomputed pi_k negotiation bundles, for
    the node's tests: serving them needs no proving.  The key and every
    k_v are full-width, so a secret found in public data is never a small
    integer that happens to match."""
    from repro.core.exchange import Seller
    from repro.core.tokens import DataAsset
    from repro.field.fr import MODULUS as R
    from repro.primitives.hashing import field_hash
    from repro.service import NegotiationBundle

    asset = DataAsset.create([42, 84], key=R - 909, nonce=7)
    asset.uri = "service-test://asset"
    seller = Seller(snark_ctx, asset, "offchain-prover")
    bundles = []
    for salt in (11, 22, 33):
        k_v = R - 10_000 - salt
        h_v = field_hash(k_v)
        k_c, pi_k = seller.key_negotiation_message(k_v, h_v)
        bundles.append(NegotiationBundle(k_v, h_v, k_c, pi_k.to_bytes()))
    return asset, bundles


@pytest.fixture
def lone_thread_at_fork(monkeypatch):
    """Every process the test forks is forked with no other thread alive:
    a forked child inherits each thread's locks in whatever state they
    were.  Yields the thread names seen at each fork; the check runs at
    teardown, so a fork whose error the code under test swallows (the
    pool's re-fork of a killed worker) still fails the test."""
    start = BaseProcess.start
    seen = []

    def counted(process):
        seen.append([thread.name for thread in threading.enumerate()])
        start(process)

    monkeypatch.setattr(BaseProcess, "start", counted)
    yield seen
    assert all(len(names) == 1 for names in seen), seen


@pytest.fixture
def cpus(monkeypatch):
    """Set the CPU mask the process observes (processes time-share the
    real cores, so every side of a choice made from it runs on any
    runner) and drop the process's engine, so the next ``get_engine()``
    sizes a fresh one from the mask.  Teardown reaps that engine's
    helpers and the previous engine comes back."""
    previous = repro.backend._engine

    def set_mask(count):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))
        monkeypatch.setattr(repro.backend, "_engine", None)

    yield set_mask
    if repro.backend._engine not in (None, previous):
        repro.backend._engine.close()


@pytest.fixture
def chaos_seed(request):
    """The session's randomness seed for chaos and differential tests.

    Override with ``REPRO_CHAOS_SEED=<int>``; CI's chaos job sets a
    run-derived value and echoes it so any red run can be replayed.
    """
    raw = os.environ.get("REPRO_CHAOS_SEED", "")
    seed = int(raw) if raw.strip() else _DEFAULT_CHAOS_SEED
    request.node._repro_chaos_seed = seed
    return seed


@pytest.fixture
def soak_params(request):
    """The (seed, mix, fault profile) triple for a soak simulation.

    Reads ``REPRO_SOAK_SEED`` / ``REPRO_SOAK_MIX`` / ``REPRO_FAULTS``
    (profile part; defaults to ``all``), so the CI soak job steers the
    run through the environment.  A failing soak test gets the triple —
    as a ready-to-paste ``python -m repro.loadsim`` command — appended
    to its report for one-command replay.
    """
    raw_seed = os.environ.get("REPRO_SOAK_SEED", "")
    seed = int(raw_seed, 0) if raw_seed.strip() else _DEFAULT_CHAOS_SEED
    mix = os.environ.get("REPRO_SOAK_MIX", "").strip() or "mixed"
    raw_faults = os.environ.get("REPRO_FAULTS", "").strip()
    profile = (raw_faults.partition(":")[0] or "all") if raw_faults else "all"
    params = {"seed": seed, "mix": mix, "profile": profile}
    request.node._repro_soak_params = params
    return params


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    seed = getattr(item, "_repro_chaos_seed", None)
    if seed is not None and report.when == "call" and report.failed:
        report.sections.append(
            (
                "chaos replay",
                "REPRO_CHAOS_SEED=%d reproduces this failure (same node id)" % seed,
            )
        )
    soak = getattr(item, "_repro_soak_params", None)
    if soak is not None and report.when == "call" and report.failed:
        report.sections.append(
            (
                "soak replay",
                "failing triple: seed=%d mix=%s profile=%s\n"
                "PYTHONPATH=src python -m repro.loadsim --seed %d --mix '%s' "
                "--faults %s:%d"
                % (soak["seed"], soak["mix"], soak["profile"],
                   soak["seed"], soak["mix"], soak["profile"], soak["seed"]),
            )
        )

