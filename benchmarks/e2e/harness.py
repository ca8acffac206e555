"""Timed segments, reference-second metrics and the result record.

A run is a :class:`Timeline` of *segments* separated by calibration groups
(``calibrate.Reference.mark``).  Set-up is the segments before the window;
the window is the segments a workload's ``segment()`` fills with
operations.  Every duration is divided by the local speed factor of its
segment, so the metrics are in reference seconds; the raw wall-clock
values travel beside them as information.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import time
from dataclasses import dataclass, field

from calibrate import GROUP_SLICES, MAX_GROUP_SLICES, Reference

#: Timed work between two calibration groups.  A group costs ~0.04 s, so
#: this keeps calibration under a tenth of the window.
SEGMENT_S = 0.5

#: ``latency_p95_s`` is printed (as information) from this many samples up.
P95_MIN_SAMPLES = 200


@dataclass
class Op:
    """One timed operation (or, for ``population``, one episode standing
    for ``count`` simulated operations)."""

    wall_s: float
    ok: bool
    count: int = 1
    #: Speed factor measured while the operation ran (``calibrate.busy_factor``);
    #: None: its segment's.  Only sequential operations carry one.
    factor: float | None = None


@dataclass
class Segment:
    start: float
    end: float
    group: int  #: index of the calibration group that precedes it
    ops: list[Op] = field(default_factory=list)
    label: str = ""

    @property
    def wall_s(self) -> float:
        return self.end - self.start


class Timeline:
    """Segments of one run, each bracketed by two calibration groups."""

    def __init__(self, ref: Reference, process_start: float) -> None:
        self.ref = ref
        self.segments: list[Segment] = []
        # The few milliseconds between process start and the first group
        # (argument parsing) belong to set-up: start segment 0 that early.
        before_group = time.perf_counter() - process_start
        self._group = ref.mark()
        self._start = time.perf_counter() - before_group

    def cut(self, label: str = "", ops: list[Op] | None = None, untimed=None) -> Segment:
        """Close the open segment, run a calibration group, open the next.
        ``untimed()`` runs in between, outside every duration."""
        end = time.perf_counter()
        seg = Segment(self._start, end, self._group, ops or [], label)
        self.segments.append(seg)
        if untimed is not None:
            untimed()
        # A longer segment earns a larger group: the share of time spent
        # calibrating stays the same, and so does the error it leaves.
        slices = round(seg.wall_s / SEGMENT_S) * GROUP_SLICES
        self._group = self.ref.mark(max(GROUP_SLICES, min(MAX_GROUP_SLICES, slices)))
        self._start = time.perf_counter()
        return seg

    @contextlib.contextmanager
    def step(self, label: str):
        """A set-up step; cuts after it once a segment's worth of work has
        accumulated (a step is program code: it cannot be cut inside)."""
        yield
        if time.perf_counter() - self._start >= SEGMENT_S:
            self.cut(label)

    def factor(self, seg: Segment) -> float:
        return self.ref.factor(seg.group)

    def span_factor(self, seg: Segment) -> float:
        """The factor for spans recorded inside ``seg``: its operations'
        own where they carry one."""
        own = [op.factor for op in seg.ops if op.factor]
        return sum(own) / len(own) if own else self.factor(seg)

    def ref_seconds(self, segments: list[Segment]) -> float:
        total = 0.0
        for seg in segments:
            own = [op for op in seg.ops if op.factor]
            total += sum(op.wall_s / op.factor for op in own)
            total += (seg.wall_s - sum(op.wall_s for op in own)) / self.factor(seg)
        return total


def run_window(
    timeline: Timeline, run_segment, seconds: float, min_ops: int, between=None, set_tracing=None
) -> tuple[list[Segment], list[Segment]]:
    """Fill segments with operations for ``seconds`` of timed work, and
    until at least ``min_ops`` operations have finished.

    ``between()`` runs untimed after every segment.  With ``set_tracing``
    (a traced run) every counted segment is preceded
    by one with recording switched off, so the two throughputs that make
    ``bench.trace.overhead_ratio`` see the same machine drift.  Returns
    ``(counted, untraced)`` segments.
    """
    counted: list[Segment] = []
    untraced: list[Segment] = []
    timed, done = 0.0, 0
    while timed < seconds or done < min_ops:
        if set_tracing is not None:
            set_tracing(False)
            untraced.append(timeline.cut("window.untraced", run_segment(), between))
            set_tracing(True)
        seg = timeline.cut("window", run_segment(), between)
        counted.append(seg)
        timed += seg.wall_s
        done += sum(op.count for op in seg.ops if op.ok)
    if set_tracing is not None:
        set_tracing(False)
    return counted, untraced


# ----- statistics -----------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 1]) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered) - 1e-9))
    return ordered[rank - 1]


@dataclass
class WindowStats:
    attempted: int
    succeeded: int
    failed: int
    samples: int  #: latency samples (operations, or episodes for population)
    throughput_ref: float
    throughput_raw: float
    latency_p50_ref: float
    latency_p50_raw: float
    latency_p95_ref: float | None
    window_ref_s: float
    window_wall_s: float


def window_stats(timeline: Timeline, window: list[Segment]) -> WindowStats:
    attempted = sum(op.count for seg in window for op in seg.ops)
    succeeded = sum(op.count for seg in window for op in seg.ops if op.ok)
    raw = [op.wall_s / op.count for seg in window for op in seg.ops]
    ref = [
        op.wall_s / op.count / (op.factor or timeline.factor(seg))
        for seg in window
        for op in seg.ops
    ]
    wall = sum(seg.wall_s for seg in window)
    ref_s = timeline.ref_seconds(window)
    return WindowStats(
        attempted=attempted,
        succeeded=succeeded,
        failed=attempted - succeeded,
        samples=len(ref),
        throughput_ref=succeeded / ref_s,
        throughput_raw=succeeded / wall,
        latency_p50_ref=statistics.median(ref),
        latency_p50_raw=statistics.median(raw),
        latency_p95_ref=percentile(ref, 0.95) if len(ref) >= P95_MIN_SAMPLES else None,
        window_ref_s=ref_s,
        window_wall_s=wall,
    )


def peak_rss_mib() -> float:
    """Max RSS of this process plus that of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


# ----- the result record ----------------------------------------------------


def git_revision(root: str) -> str:
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown"  # the driver's checkout is not a repository
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(root: str) -> dict:
    return {
        "git_rev": git_revision(root),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "unix_time": time.time(),
    }


def append_record(path: str, record: dict) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "a") as fh:
        fh.write(json.dumps(record) + "\n")
