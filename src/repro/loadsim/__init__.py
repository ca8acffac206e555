"""Population-scale load and soak simulation for the ZKDET stack.

The paper validates its exchange protocol per-exchange; this package
asks the system question: does a marketplace serving 10^4-10^6 users —
minting, trading and auditing data tokens concurrently through a
bounded fee-ordered mempool and a churning DHT —
*conserve* everything the protocol promises, continuously, under a
deterministic fault schedule?

- :mod:`repro.loadsim.traffic` — the seeded traffic-mix DSL;
- :mod:`repro.loadsim.population` — lazy user materialisation;
- :mod:`repro.loadsim.sim` — the simulator and its report;
- :mod:`repro.loadsim.invariants` — the whole-run conservation checker.

Run one from the command line (exit code 1 on any violation)::

    PYTHONPATH=src python -m repro.loadsim --users 10000 --ops 4000 \\
        --mix mixed --seed 20220707 --faults all

See ``docs/loadsim.md`` for the DSL, mempool semantics and the
invariant catalogue.
"""

from repro.loadsim.invariants import InvariantChecker
from repro.loadsim.population import Population
from repro.loadsim.sim import LoadSimulator, SimConfig, SimReport, run_sim
from repro.loadsim.traffic import MIXES, OPS, TrafficMix, sim_draw, skewed_draw

__all__ = [
    "InvariantChecker",
    "LoadSimulator",
    "MIXES",
    "OPS",
    "Population",
    "SimConfig",
    "SimReport",
    "TrafficMix",
    "run_sim",
    "sim_draw",
    "skewed_draw",
]
