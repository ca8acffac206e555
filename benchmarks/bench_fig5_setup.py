"""Figure 5: universal setup time vs. number of constraints.

The paper reports setup times growing with circuit size, reaching about
two minutes for 2^20 constraints on an i9-11900K.  We measure real SRS
generation + circuit preprocessing at 2^8 .. 2^12 and extrapolate the
paper-scale points with the calibrated model; the *shape* (near-linear
growth in n) is the claim under test.
"""

import time

from conftest import engine_label, print_table, run_once

from repro.costmodel import TimingModel
from repro.kzg import SRS
from repro.plonk import CircuitBuilder, setup

#: The paper's reference point: ~2 minutes at 2^20 constraints.
PAPER_SETUP_2_20_SECONDS = 120

MEASURED_SIZES = [256, 512, 1024, 2048, 4096]
MODELLED_SIZES = [2**14, 2**16, 2**18, 2**20]


def _setup_circuit_of_size(n: int) -> float:
    """Full universal setup for a size-n circuit: SRS + preprocessing."""
    builder = CircuitBuilder()
    x = builder.public_input(3)
    acc = x
    while builder.num_gates < n - 4:
        acc = builder.mul(acc, x)
    layout, _ = builder.compile(min_size=n)
    start = time.perf_counter()
    srs = SRS.generate(layout.n + 8, tau=123457)
    setup(srs, layout)
    return time.perf_counter() - start


def test_fig5_setup_time(benchmark):
    measured = []

    def sweep():
        for n in MEASURED_SIZES:
            measured.append((n, _setup_circuit_of_size(n)))

    run_once(benchmark, sweep)

    model = TimingModel.fit(measured)
    rows = [
        (n, "measured", "%.2f s" % t, "") for n, t in measured
    ]
    for n in MODELLED_SIZES:
        note = (
            "(paper: ~%d s on native i9)" % PAPER_SETUP_2_20_SECONDS
            if n == 2**20
            else ""
        )
        rows.append((n, "model", "%.1f s" % model.predict(n), note))
    print_table(
        "Figure 5 - circuit setup time vs constraints (%s)" % engine_label(),
        ["constraints", "kind", "setup time", "notes"],
        rows,
    )

    # Shape assertions: monotone growth, near-linear scaling.
    times = [t for _, t in measured]
    assert all(t2 > t1 for t1, t2 in zip(times, times[1:]))
    ratio = measured[-1][1] / measured[0][1]
    size_ratio = MEASURED_SIZES[-1] / MEASURED_SIZES[0]
    assert size_ratio / 3 < ratio < size_ratio * 3  # linear-ish in n
