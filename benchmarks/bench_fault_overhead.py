"""The fault plane's disabled-path overhead budget (< 2%).

With no plan installed every instrumented site — ``faults.check``,
``faults.unavailable``, ``faults.filter_bytes`` — is one module-global
load plus a ``None`` compare.  As with the telemetry budget, wall-clock
A/B runs of a whole exchange are too noisy to gate on, so the budget is
asserted deterministically: count how many fault-plane consultations one
protocol run actually performs (read off a zero-probability counting
plan's injector), micro-time the disabled primitive, and check that
(consultations x per-call cost) stays under 2% of the measured run.

Two protocols bound the claim from both sides: the key-secure exchange
(SNARK proving dominates, overhead vanishes into it) and FairSwap (no
proving at all — the least favourable denominator the exchange stack
offers).  An enabled-profile run is printed as an informational row.
"""

import time

from conftest import print_table, run_once

from repro import faults
from repro.chain import Blockchain
from repro.contracts import KeySecureArbiterContract, PlonkVerifierContract
from repro.contracts.fairswap import FairSwapContract
from repro.core.exchange import Buyer, KeySecureExchange, Seller, key_negotiation_keys
from repro.core.fairswap import FairSwapExchange, FairSwapListing
from repro.core.tokens import DataAsset
from repro.faults import FaultPlan, FaultRule

#: Matches every site but never fires: consultations get counted on the
#: injector without perturbing the run.
_COUNTING_PLAN = FaultPlan(
    seed=0,
    rules=(FaultRule(site="*", kind="loss", probability_ppm=0),),
    name="counting",
)

_BUDGET_PCT = 2.0


def _keysecure_run(snark_ctx):
    chain = Blockchain()
    operator = chain.create_account(funded=10**12)
    verifier = PlonkVerifierContract(key_negotiation_keys(snark_ctx).vk)
    chain.deploy(verifier, operator)
    arbiter = KeySecureArbiterContract(verifier)
    chain.deploy(arbiter, operator)
    seller_addr = chain.create_account(funded=10**9)
    buyer_addr = chain.create_account(funded=10**9)
    asset = DataAsset.create([42, 84], key=555, nonce=666)
    asset.uri = "bench"
    seller = Seller(snark_ctx, asset, seller_addr)
    buyer = Buyer(snark_ctx, asset.public_view(snark_ctx.srs), buyer_addr)

    def run():
        result = KeySecureExchange(snark_ctx, chain, arbiter).run(
            seller, buyer, price=5000
        )
        assert result.success, result.reason
        return result

    return run


def _fairswap_run():
    chain = Blockchain()
    seller = chain.create_account(funded=10**12)
    buyer = chain.create_account(funded=10**12)
    contract = FairSwapContract()
    chain.deploy(contract, seller)
    listing = FairSwapListing.create(list(range(1, 65)), key=777, nonce=3)

    def run():
        result = FairSwapExchange(chain, contract).run(
            seller, buyer, listing, price=5000
        )
        assert result.success, result.reason
        return result

    return run


def _check_cost_ns(reps: int = 200_000) -> float:
    with faults.use_plan(None):
        t0 = time.perf_counter()
        for _ in range(reps):
            faults.check("chain.transact")
        return (time.perf_counter() - t0) / reps * 1e9


def _measure(run, benchmark=None):
    """(disabled seconds, consultation count) for one protocol run."""
    with faults.use_plan(None):
        run()  # warm every cache first
        times = []
        for _ in range(2):
            t0 = time.perf_counter()
            run()
            times.append(time.perf_counter() - t0)
        if benchmark is not None:
            t0 = time.perf_counter()
            run_once(benchmark, run)
            times.append(time.perf_counter() - t0)
    with faults.use_plan(_COUNTING_PLAN) as injector:
        run()
        consultations = injector.consultations
        assert injector.injected == 0
    return min(times), consultations


def test_fault_plane_off_overhead(benchmark, snark_ctx):
    check_ns = _check_cost_ns()

    ks_s, ks_consults = _measure(_keysecure_run(snark_ctx), benchmark)
    fs_s, fs_consults = _measure(_fairswap_run())

    ks_pct = 100.0 * (ks_consults * check_ns * 1e-9) / ks_s
    fs_pct = 100.0 * (fs_consults * check_ns * 1e-9) / fs_s

    # Informational: a live profile on the cheap protocol.
    fs_run = _fairswap_run()
    with faults.use_plan(FaultPlan.profile("chain", seed=7)) as injector:
        t0 = time.perf_counter()
        fs_run()
        enabled_s = time.perf_counter() - t0
        injected = injector.injected

    print_table(
        "Fault-plane overhead, disabled (budget < %.0f%%)" % _BUDGET_PCT,
        ["quantity", "value", "note"],
        [
            ["disabled check() call", "%.0f ns" % check_ns, "global load + None compare"],
            ["keysecure run", "%.3f s" % ks_s, "%d consultations" % ks_consults],
            ["keysecure overhead", "%.5f%%" % ks_pct, "consultations x check cost"],
            ["fairswap run", "%.6f s" % fs_s, "%d consultations" % fs_consults],
            ["fairswap overhead", "%.5f%%" % fs_pct, "no proving to hide behind"],
            ["fairswap, chain profile", "%.6f s" % enabled_s,
             "%d faults injected (informational)" % injected],
        ],
    )
    assert ks_pct < _BUDGET_PCT, (
        "disabled fault-plane overhead %.4f%% breaches the %.0f%% budget "
        "(key-secure exchange)" % (ks_pct, _BUDGET_PCT)
    )
    assert fs_pct < _BUDGET_PCT, (
        "disabled fault-plane overhead %.4f%% breaches the %.0f%% budget "
        "(fairswap)" % (fs_pct, _BUDGET_PCT)
    )
