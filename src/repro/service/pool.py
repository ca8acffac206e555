"""Persistent warm prover pool for the service node.

pi_k proving runs in long-lived forked workers, off the node's event
loop.  The pool warms the pi_k keys and the window tables of every
blinded commitment on the process's engine (whose own helpers, on a mask
with spare cores, build their share of the rows) and forks the workers
from it, so each worker inherits the rows its parent holds.  Each worker
proves under its own pool's context, handed to it at fork.  When the CPU
mask (``os.sched_getaffinity``) has at least twice as many CPUs as the
pool has workers, each worker gives its inherited engine its share of
the spare cores as MSM helpers (:func:`~repro.backend.spare_cores`),
which it forks itself at its first MSM and sends the points of the rows
they own; a helper that dies costs the split, not the proof.

Workers are owned like helpers: forked processes running
:func:`~repro.backend.engine.serve` on one pipe each.  The event loop
learns every reply — a result, an exception raised in the worker, or EOF
— from ``loop.add_reader``, so no thread runs.  A dead worker fails only
its in-flight request, with :class:`~repro.errors.BackendError`, and is
re-forked from the warm parent on a fresh pipe; queued requests wait.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import time
from multiprocessing.util import Finalize
from typing import Any

from repro import telemetry
from repro.backend import get_engine, spare_cores
from repro.backend.engine import serve
from repro.core.exchange import build_key_negotiation_circuit, key_negotiation_keys
from repro.core.snark import SnarkContext
from repro.core.tokens import DataAsset
from repro.errors import BackendError, ProtocolError, ServiceError
from repro.field.fr import MODULUS as R
from repro.kzg.commit import commit_scalar
from repro.plonk.circuit import CircuitBuilder
from repro.plonk.keys import DEGREE_MARGIN
from repro.plonk.prover import prove
from repro.primitives.hashing import field_hash
from repro.telemetry.metrics import LATENCY_BUCKETS


def _prove_pik_job(args: tuple) -> tuple:
    """Worker: one pi_k proof under the worker's own pool's context, warm
    from the fork -> ``(k_c, proof_bytes)``."""
    ctx, key, key_blinder, k_v, h_v = args
    if field_hash(k_v) != h_v:
        raise ProtocolError("buyer's h_v does not match the received k_v; aborting")
    k_c = (key + k_v) % R
    key_commitment = commit_scalar(ctx.srs, key, key_blinder)
    builder = CircuitBuilder()
    build_key_negotiation_circuit(builder, k_c, key_commitment, h_v, key, key_blinder, k_v)
    layout, assignment = builder.compile()
    keys = ctx.keys_for(layout)
    pi_k = prove(keys.pk, assignment)
    return k_c, pi_k.to_bytes()


def _work(conn: Any, inherited: list, ctx: SnarkContext, helpers: int) -> None:
    """Forked worker: reply ``(ok, result or exception, live helpers)``
    to each request, proving under ``ctx`` (its pool's, never another's)."""
    engine = get_engine()
    engine.helpers = helpers

    def answer(args: tuple) -> tuple:
        try:  # looked up per call, so a wrapper bound before the fork runs
            reply: tuple = (True, _prove_pik_job((ctx, *args)))
        except Exception as exc:
            reply = (False, exc)
        return reply + (engine.live_helpers(),)

    serve(conn, inherited, answer)
    engine.close()


class _Worker:
    """A forked prover, the pool's end of its pipe, the requests sent and
    replies read on it, and its helpers (the mask's spares, less losses)."""

    proc: Any
    conn: Any = None
    sent = read = helpers = 0

    def on_readable(self, reply: asyncio.Future) -> None:
        """Reader callback: the next reply, or EOF, is on the pipe."""
        if reply.done():  # its caller was cancelled: the next one reads it
            return
        try:
            message = self.conn.recv()
        except (EOFError, OSError) as exc:
            reply.set_exception(exc)
            return
        self.read += 1
        lost, self.helpers = self.helpers - message[2], message[2]
        if telemetry.metrics_enabled():
            telemetry.counter("service.pool.helpers_lost").inc(max(0, lost))
        reply.set_result(message[:2])


def _stop(workers: list) -> None:
    """Close every pipe (each worker reaps its helpers and exits), then
    join; also run at exit, before multiprocessing joins the workers."""
    for worker in workers:
        worker.conn.close()
    for worker in workers:
        worker.proc.join(10)  # a proof in flight ends first
        worker.proc.terminate()  # a no-op once it has exited
        worker.proc.join()


class ProverPool:
    """A warm, persistent pool of pi_k prover processes."""

    def __init__(self, ctx: SnarkContext, workers: int = 1) -> None:
        if workers <= 0:
            raise ServiceError("prover pool needs at least one worker")
        # Warm the pi_k keys and the window tables of n + margin rows on
        # the process's engine; the workers inherit the rows it holds.
        keys = key_negotiation_keys(ctx)
        get_engine().msm_srs(ctx.srs, [0] * (keys.layout.n + DEGREE_MARGIN))
        self._ctx = ctx
        self._spare = spare_cores(workers)
        self._workers: list[_Worker] = []
        self._idle: asyncio.Queue = asyncio.Queue()
        # Registered before the first fork, so a fork that fails stops the
        # workers already forked instead of leaving them for exit to join.
        self._shutdown = Finalize(self, _stop, (self._workers,), exitpriority=0)
        try:
            for _ in range(workers):
                worker = _Worker()
                self._fork(worker)
                self._workers.append(worker)
                self._idle.put_nowait(worker)
        except BaseException:
            self._shutdown()
            raise

    def _fork(self, worker: _Worker) -> None:
        """(Re)fork ``worker`` on a fresh pipe; ``start`` reaps a dead one."""
        if worker.conn is not None:
            worker.conn.close()
            if telemetry.metrics_enabled():
                telemetry.counter("service.pool.restarts").inc()
        fork = multiprocessing.get_context("fork")
        ours, theirs = fork.Pipe()
        siblings = [w.conn for w in self._workers if w is not worker and w.conn]
        proc = fork.Process(
            target=_work, args=(theirs, [ours, *siblings], self._ctx, self._spare)
        )
        proc.start()
        theirs.close()
        worker.proc = proc
        worker.conn = ours
        worker.sent, worker.read, worker.helpers = 0, 0, self._spare

    @property
    def helpers(self) -> int:
        """Helpers chosen from the CPU mask, less those lost since."""
        return sum(worker.helpers for worker in self._workers)

    async def prove_key_negotiation(self, asset: DataAsset, k_v: int, h_v: int) -> tuple:
        """Prove pi_k for ``asset`` masked with ``k_v``: ``(k_c, proof_bytes)``.
        A wrong h_v raises :class:`ProtocolError`, a dead worker
        :class:`BackendError`."""
        if not self._shutdown.still_active():
            raise ServiceError("prover pool is closed")
        started, loop = time.perf_counter(), asyncio.get_running_loop()
        worker = await self._idle.get()
        try:
            if not worker.proc.is_alive():  # died idle: no request is lost
                self._fork(worker)
            worker.conn.send((asset.key, asset.key_blinder, k_v, h_v))
            worker.sent += 1
            while worker.read < worker.sent:  # past the replies of cancelled callers
                reply: asyncio.Future = loop.create_future()
                loop.add_reader(worker.conn.fileno(), worker.on_readable, reply)
                try:
                    ok, value = await reply
                finally:
                    loop.remove_reader(worker.conn.fileno())
        except (EOFError, OSError):
            dead = worker.proc
            self._fork(worker)
            raise BackendError("prover worker died (exit code %s)" % dead.exitcode) from None
        finally:
            self._idle.put_nowait(worker)
            if telemetry.metrics_enabled():
                telemetry.counter("service.pool.jobs").inc()
                telemetry.histogram(
                    "service.pool.prove.seconds", LATENCY_BUCKETS
                ).observe(time.perf_counter() - started)
        if not ok:
            raise value
        return tuple(value)

    def close(self) -> None:
        self._shutdown()

    def __enter__(self) -> "ProverPool":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
