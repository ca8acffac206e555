"""Seeded fault schedules: which failures fire, where, and when.

A :class:`FaultPlan` is a pure value — a seed plus a tuple of
:class:`FaultRule` — and the decision whether consultation *n* of rule
*r* at site *s* fires is a hash of ``(seed, r, n, s)``.  Two runs of the
same protocol under the same plan therefore see byte-identical fault
schedules regardless of wall-clock, process layout or interleaving:
per-rule streams are independent, so adding a rule (or an unrelated
code path consulting a different site) never perturbs the draws of the
others.  This is what makes every chaos failure replayable from the
seed printed in the test report.

No ``random`` module anywhere: draws come from SHA-256, which keeps the
fault plane trivially deterministic.  ``faults/`` is measurement-layer
code and the proving path never consults it: under a plan that matches
every site, the pinned-blinder proofs keep their bytes and the injector
counts zero consultations (``tests/test_plonk.py::TestQuotientRound``).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from fnmatch import fnmatchcase

from repro.errors import ReproError

#: The fault kinds a rule may inject.
KINDS = ("loss", "delay", "revert", "drop", "stall", "corrupt")

#: Scale for hash-derived uniform draws (first 8 digest bytes).
_DRAW_SCALE = 1 << 64

#: Probabilities and delays are stored in parts-per-million / microseconds
#: so a plan is all-integer (exact equality, exact replay, no float drift).
PPM = 1_000_000


def draw(seed: int, rule_index: int, sequence: int, site: str) -> int:
    """Deterministic uniform draw in ``[0, PPM)`` for one consultation."""
    payload = b"zkdet-fault:%d:%d:%d:%s" % (seed, rule_index, sequence, site.encode())
    value = int.from_bytes(hashlib.sha256(payload).digest()[:8], "big")
    return value * PPM // _DRAW_SCALE


@dataclass(frozen=True)
class FaultRule:
    """One injection rule: a site pattern plus a probability schedule.

    ``site`` is an ``fnmatch`` glob over site names (``"storage.*"``,
    ``"chain.transact"``).  ``probability_ppm`` is the per-consultation
    firing probability in parts per million; ``max_faults`` bounds how
    many times the rule may fire in one run (``None`` = unbounded), which
    is how chaos plans guarantee that retried protocols terminate.
    ``delay_us`` is the virtual latency (microseconds) a ``delay`` /
    ``stall`` fault adds to the injector's clock.
    """

    site: str
    kind: str
    probability_ppm: int
    max_faults: int | None = None
    delay_us: int = 0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ReproError("unknown fault kind %r (expected one of %s)" % (self.kind, KINDS))
        if not 0 <= self.probability_ppm <= PPM:
            raise ReproError("probability_ppm must be in [0, %d]" % PPM)
        if self.max_faults is not None and self.max_faults < 0:
            raise ReproError("max_faults must be non-negative")
        if self.delay_us < 0:
            raise ReproError("delay_us must be non-negative")

    def matches(self, site: str) -> bool:
        return fnmatchcase(site, self.site)


@dataclass(frozen=True)
class FaultPlan:
    """A named, seeded schedule of fault rules."""

    seed: int
    rules: tuple[FaultRule, ...] = field(default_factory=tuple)
    name: str = "custom"

    def with_seed(self, seed: int) -> "FaultPlan":
        return FaultPlan(seed=seed, rules=self.rules, name=self.name)

    @staticmethod
    def profile(name: str, seed: int) -> "FaultPlan":
        """One of the named presets below, bound to ``seed``."""
        try:
            rules = PROFILES[name]
        except KeyError:
            raise ReproError(
                "unknown fault profile %r (available: %s)" % (name, ", ".join(sorted(PROFILES)))
            ) from None
        return FaultPlan(seed=seed, rules=rules, name=name)

    @staticmethod
    def parse_env(spec: str) -> tuple[str, int]:
        """Split a ``REPRO_FAULTS`` value into ``(profile, seed)``.

        Accepted forms: ``"<seed>"`` and ``":<seed>"`` (the ``all``
        profile) and ``"<profile>:<seed>"``, e.g. ``REPRO_FAULTS=storage:42``.
        """
        profile_name, _, seed_text = spec.strip().rpartition(":")
        try:
            seed = int(seed_text, 0)
        except ValueError:
            raise ReproError("REPRO_FAULTS seed %r is not an integer" % seed_text) from None
        return profile_name.strip() or "all", seed

    @staticmethod
    def from_env(spec: str) -> "FaultPlan":
        """The plan a ``REPRO_FAULTS`` value names (see :meth:`parse_env`)."""
        return FaultPlan.profile(*FaultPlan.parse_env(spec))


def _pct(p: int) -> int:
    return p * PPM // 100


#: Named rule presets.  Budgets (``max_faults``) are deliberately finite
#: everywhere a retried path consults the rule, so a bounded
#: :class:`repro.faults.RetryPolicy` provably outlasts the plan and every
#: chaos run terminates.
PROFILES: dict[str, tuple[FaultRule, ...]] = {
    "off": (),
    "storage": (
        FaultRule("storage.get", "loss", _pct(25), max_faults=2),
        FaultRule("storage.get", "delay", _pct(30), max_faults=4, delay_us=40_000),
        FaultRule("storage.get.data", "corrupt", _pct(20), max_faults=1),
        FaultRule("storage.put", "loss", _pct(15), max_faults=1),
        FaultRule("dht.node.get", "loss", _pct(30), max_faults=3),
        FaultRule("dht.node.put", "loss", _pct(15), max_faults=2),
        FaultRule("dht.get", "delay", _pct(30), max_faults=4, delay_us=25_000),
    ),
    "chain": (
        FaultRule("chain.transact", "drop", _pct(20), max_faults=2),
        FaultRule("chain.transact", "revert", _pct(10), max_faults=1),
        FaultRule("chain.transact", "delay", _pct(30), max_faults=4, delay_us=120_000),
        FaultRule("chain.events", "stall", _pct(25), max_faults=2, delay_us=80_000),
    ),
    "exchange": (
        FaultRule("exchange.msg.*", "loss", _pct(20), max_faults=2),
        FaultRule("exchange.msg.*", "stall", _pct(10), max_faults=1, delay_us=200_000),
        FaultRule("chain.transact", "drop", _pct(15), max_faults=2),
    ),
    "all": (
        FaultRule("storage.get", "loss", _pct(15), max_faults=1),
        FaultRule("storage.get.data", "corrupt", _pct(10), max_faults=1),
        FaultRule("dht.node.*", "loss", _pct(20), max_faults=2),
        FaultRule("chain.transact", "drop", _pct(15), max_faults=2),
        FaultRule("chain.transact", "revert", _pct(10), max_faults=1),
        FaultRule("chain.events", "stall", _pct(20), max_faults=2, delay_us=80_000),
        FaultRule("exchange.msg.*", "loss", _pct(15), max_faults=2),
        FaultRule("exchange.msg.*", "stall", _pct(10), max_faults=1, delay_us=150_000),
    ),
    # Population-scale soak: *unbounded* budgets at low per-consultation
    # rates.  The bounded-budget profiles above exhaust after a handful
    # of firings — useless over 10^5 operations — so the load simulator
    # needs rules that keep firing for the whole run.  Termination is the
    # simulator's job, not the plan's: clients bound their own retries
    # and the drain phase runs with faults uninstalled (docs/loadsim.md).
    "soak": (
        FaultRule("storage.get", "loss", _pct(2)),
        FaultRule("dht.node.*", "loss", _pct(3)),
        FaultRule("chain.transact", "drop", _pct(3)),
        FaultRule("chain.transact", "revert", _pct(1)),
        FaultRule("chain.events", "stall", _pct(2), delay_us=50_000),
        FaultRule("exchange.msg.*", "loss", _pct(2)),
    ),
}
