"""The split engine: fixed-table MSMs run on more than one core.

CPython's GIL rules out thread-level parallelism for big-int arithmetic,
so the second core is reached with forked processes.

:class:`SplitEngine` is the serial engine plus one thing: a fixed-table
G1 MSM (``msm_srs`` / ``msm_g1_fixed`` on the window-table path — all
nine commitments of a warm Plonk proof) of at least
:data:`MIN_MSM_POINTS` terms keeps shard 0 in the calling process and
sends every other shard to a long-lived forked *helper*.
The helper inherited the window tables at fork, so a request is the
table's key, an offset and the scalars (~33 B each), the reply is one
Jacobian point, both sides run the same ``msm_fixed_window`` and the
partials fold with ``jac_add``.  Helpers are forked once the tables they
need exist and re-forked when a table outgrows them.  A helper that dies
is dropped and its shard recomputed in place; the engine goes on with
the helpers it has left.  Helpers record no telemetry: their time is the
caller's ``msm_srs`` kernel time.

A helper runs :func:`serve`, the one loop every forked child in
``src/`` runs (the prover pool's workers too, :mod:`repro.service.pool`):
answer each request on one pipe until EOF says the owner is gone.

Every other kernel — NTTs, generic and G2 MSMs, inversion, pairing — is
the base class's, in this process: splitting them was measured and paid
for nothing (EXPERIMENTS.md, "Folded: the parallel engine's pool").
:class:`~repro.backend.serial.SerialEngine` is the bit-identity oracle
the differential suite compares against; the one override is the
``_fixed_window`` hook, and the ``engine.*`` kernel metrics are recorded
by the public wrappers in the base class, so both engines report the
same counters for the same work.
"""

from __future__ import annotations

import multiprocessing

from repro.backend.engine import Engine
from repro.curve.g1 import jac_add
from repro.curve.msm import msm_fixed_window

#: Fixed-table MSMs shorter than this are not worth a pipe round trip.
MIN_MSM_POINTS = 128


def _spans(n: int, pieces: int) -> list[tuple[int, int]]:
    """Balanced contiguous ``(start, count)`` spans covering ``range(n)``."""
    pieces = max(1, min(pieces, n))
    size, extra = divmod(n, pieces)
    out = []
    start = 0
    for i in range(pieces):
        count = size + (1 if i < extra else 0)
        out.append((start, count))
        start += count
    return out


def serve(conn, inherited: list, handle) -> None:
    """Forked child: send ``handle(request)`` back for each request on
    ``conn`` until the owner's end closes (EOF, or a send that fails).
    ``inherited`` are the owner-side pipe ends this child was forked
    holding; they are closed first, so a dead peer reads as EOF, here
    and there."""
    for other in inherited:
        other.close()
    while True:
        try:
            conn.send(handle(conn.recv()))
        except (EOFError, OSError):
            return


class SplitEngine(Engine):
    """Serial engine whose fixed-table G1 MSMs are shared with ``helpers``
    forked processes; with none it is the serial engine."""

    name = "split"

    def __init__(self, helpers: int = 0) -> None:
        super().__init__()
        self.helpers = max(0, helpers)
        #: Live helpers as ``(process, our pipe end)``.
        self._links: list[tuple] = []
        #: Table key -> rows the helpers inherited when they were forked.
        self._forked_rows: dict[int, int] = {}

    def _fork_helpers(self) -> None:
        """(Re)fork the helpers so they inherit the tables as they are now."""
        self.close()
        ctx = multiprocessing.get_context("fork")
        self._forked_rows = {k: len(v[2]) for k, v in self._window_tables.items()}
        for _ in range(self.helpers):
            ours, theirs = ctx.Pipe()
            inherited = [ours] + [link[1] for link in self._links]
            proc = ctx.Process(
                target=serve, args=(theirs, inherited, self._shard), daemon=True
            )
            proc.start()
            theirs.close()
            self._links.append((proc, ours))

    def _shard(self, request: tuple) -> tuple:
        """Helper side: the partial MSM over one slice of a table it
        inherited, for ``(table key, offset, scalars)``."""
        key, start, scalars = request
        _, c, tables = self._window_tables[key]
        return msm_fixed_window(tables[start : start + len(scalars)], c, scalars)

    def live_helpers(self) -> int:
        """Helpers still running, as seen by the process that forked them."""
        return sum(1 for proc, _ in self._links if proc.is_alive())

    def close(self) -> None:
        links, self._links = self._links, []
        self._forked_rows = {}
        for proc, conn in links:
            conn.close()
            proc.terminate()
            proc.join()

    def _fixed_window(self, key: int, c: int, tables: list, scalars: list[int]) -> tuple:
        if self.helpers and len(scalars) >= MIN_MSM_POINTS:
            if self._forked_rows.get(key, 0) < len(scalars):
                self._fork_helpers()
            if self._links:
                return self._split(key, c, tables, scalars)
        return msm_fixed_window(tables, c, scalars)

    def _split(self, key: int, c: int, tables: list, scalars: list[int]) -> tuple:
        shards = _spans(len(scalars), len(self._links) + 1)
        asked = list(zip(self._links, shards[1:]))
        for (_, conn), (start, count) in asked:
            try:
                conn.send((key, start, scalars[start : start + count]))
            except OSError:
                conn.close()  # the recv below raises and recomputes the shard
        acc = msm_fixed_window(tables, c, scalars[: shards[0][1]])
        for link, (start, count) in asked:
            try:
                part = link[1].recv()
            except (EOFError, OSError):
                # Helper lost: drop it and do its shard here, same kernel.
                self._links.remove(link)
                link[1].close()
                part = msm_fixed_window(
                    tables[start : start + count], c, scalars[start : start + count]
                )
            acc = jac_add(acc, part)
        return acc
