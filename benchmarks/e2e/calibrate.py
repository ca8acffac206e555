"""Reference seconds: a fixed kernel that measures the machine, not the program.

This box is a shared 2-core VM whose speed moves by tens of percent, both
slowly (minutes) and fast (tenths of a second), so wall-clock timings of
identical work do not repeat within a tenth.  The harness therefore runs a
*slice group* of this kernel before the first timed operation, after the
last, and after about every half second of timed work in between (between
operations, never inside one), and divides each timed segment by the mean
slice time of the two groups that bracket it, relative to
:data:`NOMINAL_S`.  The result is a time in "reference seconds": what the
segment would have taken had the machine run at its typical speed.

Groups are small and frequent because most of the noise is fast: at equal
calibration cost, two slices every 0.5 s left a run-to-run spread of ~0.05
on a 6 s window where four slices every 1.5 s left ~0.075 (raw: 0.09-0.25).
What a window's normalisation can reach is set by how many slices it holds
(about ``0.15 / sqrt(slices)`` in quartile spread), so a segment the
program makes longer than half a second — a simulator episode, a set-up
step — is followed by a proportionally larger group.

One kind of operation cannot be bracketed at all: a 5 s proof in the pool
worker.  There the parent process is idle, and times slices *while* the
worker proves (:func:`busy_factor`).

The kernel does what the measured program does — 254-bit modular
multiply-add inside small Python functions, list comprehensions, and dict
and tuple allocation — on constants fixed here (a Poseidon-shaped
permutation: it tracked the program's MSM, NTT, hashing and simulator work
a little better than a bare multiply-add loop).  It imports nothing from
``repro``, so no change to the program can make it faster
(``test_harness.py`` asserts this).
"""

from __future__ import annotations

import time

#: BN254 scalar-field modulus: the program's arithmetic is dominated by
#: multiply-add modulo this prime and its base-field sibling.
_P = 21888242871839275222246405745257275088548364400416034343698204186575808495617
_A = 0x1F3A9C0B5D7E2468ACE13579BDF02468ACE13579BDF02468ACE13579BDF02467
_B = 0x2B7E151628AED2A6ABF7158809CF4F3C762E7160F38B4DA56A784D9045190CFE

#: Mean slice time at this box's typical speed, fixed once from the
#: builder's own runs (median slice over all groups of ten runs of each
#: workload).  ``machine_speed_factor = mean slice time / NOMINAL_S`` is
#: therefore ~1 here; reference seconds are comparable only within one
#: box.  BENCHMARK.json's schema has no room for this constant, so it
#: lives here.
NOMINAL_S = 0.0185

#: Slices per group, per :data:`harness.SEGMENT_S` of timed work before it
#: (a longer segment earns a larger group, up to MAX_GROUP_SLICES), and
#: permutations per slice (one slice ~20 ms).
GROUP_SLICES = 2
MAX_GROUP_SLICES = 8
_SLICE_PERMUTATIONS = 100

#: Mean slice time while the other core proves (see :func:`busy_factor`):
#: the two virtual cores of this box share one physical core, so a slice
#: that runs beside a busy worker takes about twice as long.
NOMINAL_BUSY_S = 0.0390

#: An operation's own factor needs at least this many slices.
MIN_BUSY_SLICES = 3

_WIDTH = 3
_ROUNDS = 16


def _constants(count: int, seed: int) -> list[int]:
    out, x = [], seed
    for _ in range(count):
        x = (x * _A + _B) % _P
        out.append(x)
    return out


_ROUND_CONSTANTS = [_constants(_WIDTH, 11 + r) for r in range(_ROUNDS)]
_MIX = [_constants(_WIDTH, 101 + r) for r in range(_WIDTH)]


def _sbox(x: int) -> int:
    x2 = x * x % _P
    x4 = x2 * x2 % _P
    return x4 * x % _P


def _permute(state: list[int]) -> list[int]:
    for constants in _ROUND_CONSTANTS:
        state = [_sbox((s + c) % _P) for s, c in zip(state, constants)]
        state = [sum(m * s for m, s in zip(row, state)) % _P for row in _MIX]
    return state


def run_slice() -> float:
    """Run the fixed kernel once; returns its wall time in seconds."""
    seen: dict = {}
    state = [1, 2, 3]
    start = time.perf_counter()
    for i in range(_SLICE_PERMUTATIONS):
        state = _permute(state)
        seen[(i & 63, state[0] & 0xFF)] = (i, tuple(state))
    end = time.perf_counter()
    if not 0 < len(seen) <= _SLICE_PERMUTATIONS:  # consume the result
        raise RuntimeError("calibration kernel produced an impossible state")
    return end - start


class Reference:
    """Slice groups recorded along one run, and the factors they imply.

    ``mark()`` runs one group and returns its index ``i``; the timed
    *segment* between ``mark() == i`` and ``mark() == i + 1`` is
    normalised by :meth:`factor` ``(i)``.
    """

    def __init__(self, nominal_s: float = NOMINAL_S) -> None:
        self.nominal_s = nominal_s
        #: Mean slice time of each group, in order.
        self.groups: list[float] = []
        #: Total wall time spent calibrating (excluded from every duration).
        self.spent_s = 0.0

    def mark(self, slices: int = GROUP_SLICES) -> int:
        times = [run_slice() for _ in range(slices)]
        self.spent_s += sum(times)
        self.groups.append(sum(times) / len(times))
        return len(self.groups) - 1

    def factor(self, segment: int) -> float:
        """Local speed factor of the segment after group ``segment``."""
        return local_factor(self.groups, segment, self.nominal_s)

    def machine_speed_factor(self) -> float:
        return sum(self.groups) / len(self.groups) / self.nominal_s


def local_factor(groups: list[float], segment: int, nominal_s: float) -> float:
    """Mean of the groups on either side of ``segment``, over nominal."""
    return (groups[segment] + groups[segment + 1]) / 2.0 / nominal_s


def busy_factor(slices: list[float], nominal_s: float = NOMINAL_BUSY_S) -> float | None:
    """Speed factor of an operation from slices timed *while it ran*.

    Only for an operation that runs in another process while this one is
    idle (``prove_exchange``: the pool worker proves, the parent waits).
    Groups at either end of a 5 s proof say little about the seconds in
    between — on this box they left more spread than no normalisation —
    whereas slices every 0.2 s beside it cut the spread of identical
    5 s jobs from 0.07 to 0.02.  Too few slices: None (use the segment's).
    """
    if len(slices) < MIN_BUSY_SLICES:
        return None
    return sum(slices) / len(slices) / nominal_s
