"""Persistent warm prover for the service node.

pi_k proving runs in one long-lived forked worker, off the node's event
loop, on the host's one set of MSM helpers.  Every fork of the worker
(the first, and each re-fork) warms the pi_k window tables' n + margin
+ 1 rows (every SRS power up to t_hi's degree) on the process's engine,
which forks its helpers (one per spare core of the CPU mask) only if it
has none; forks the worker, which
inherits the rows this process holds and its ends of the helpers'
pipes; and hands the helpers over (``Engine.hand_over``): this process
closes its ends and keeps the helpers' processes only to join them after
the worker.  The worker adopts them (``Engine.adopt``) and forks none; a
helper that dies costs the split, not the proof.  The worker proves
under its own pool's context, handed to it at fork.

The worker is owned like a helper: a forked process running
:func:`~repro.backend.engine.serve` on one pipe.  The event loop
learns every reply — a result, an exception raised in the worker, or EOF
— from ``loop.add_reader``, so no thread runs.  A dead worker fails only
its in-flight request, with :class:`~repro.errors.BackendError`, and is
re-forked from the warm parent on a fresh pipe and fresh helpers; queued
requests wait.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import socket
import time
from multiprocessing.util import Finalize
from typing import Any

from repro import telemetry
from repro.backend import get_engine
from repro.backend.engine import serve
from repro.core.exchange import key_negotiation_keys, key_negotiation_proof
from repro.core.snark import SnarkContext
from repro.core.tokens import DataAsset
from repro.errors import BackendError, ServiceError
from repro.plonk.keys import DEGREE_MARGIN
from repro.telemetry.metrics import LATENCY_BUCKETS


def _prove_pik_job(args: tuple) -> tuple:
    """Worker: one pi_k proof (:func:`~repro.core.exchange.key_negotiation_proof`)
    under the worker's own pool's context, warm from the fork, for
    ``(ctx, key, key blinder, [k], k_v, h_v)`` -> ``(k_c, proof_bytes)``."""
    ctx, *message = args
    k_c, pi_k = key_negotiation_proof(ctx, *message)
    return k_c, pi_k.to_bytes()


def _work(conn: Any, inherited: list, ctx: SnarkContext) -> None:
    """Forked worker: adopt the helpers its pool hands over and reply
    ``(ok, result or exception, live helpers)`` to each request, proving
    under ``ctx`` (its pool's, never another's)."""
    engine = get_engine()
    engine.adopt()

    def answer(args: tuple) -> tuple:
        try:  # looked up per call, so a wrapper bound before the fork runs
            reply: tuple = (True, _prove_pik_job((ctx, *args)))
        except Exception as exc:
            reply = (False, exc)
        return reply + (engine.live_helpers(),)

    serve(conn, inherited, answer)
    engine.close()


class _Worker:
    """The forked prover, the pool's end of its pipe, the requests sent
    and replies read on it, the helper processes it was handed (ours to
    join after it) and how many of them still serve it."""

    proc: Any
    conn: Any = None
    handed: list
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
        if telemetry.enabled():
            telemetry.counter("service.pool.helpers_lost").inc(max(0, lost))
        reply.set_result(message[:2])


def _stop(worker: _Worker) -> None:
    """Shut the pipe down (the worker lets go of its helpers and exits;
    they exit at EOF), then join the worker and, after it, its helpers;
    also run at exit, before multiprocessing joins them.  Shut down, not
    only closed: a helper this process's engine forks after the worker
    holds a copy of our end, which would keep the worker from EOF."""
    with socket.socket(fileno=os.dup(worker.conn.fileno())) as end:
        end.shutdown(socket.SHUT_RDWR)
    worker.conn.close()
    for proc in (worker.proc, *worker.handed):
        proc.join(10)  # a proof in flight ends first
        proc.terminate()  # a no-op once it has exited
        proc.join()


class ProverPool:
    """A warm, persistent pi_k prover process."""

    def __init__(self, ctx: SnarkContext) -> None:
        self._ctx = ctx
        self._rows = key_negotiation_keys(ctx).layout.n + DEGREE_MARGIN + 1
        self._worker = _Worker()
        self._fork(self._worker)
        self._turn = asyncio.Lock()
        self._shutdown = Finalize(self, _stop, (self._worker,), exitpriority=0)

    def _fork(self, worker: _Worker) -> None:
        """(Re)fork ``worker`` on a fresh pipe and the engine's helpers
        (module docstring); a re-fork first joins the dead worker's."""
        if worker.conn is not None:
            _stop(worker)
            if telemetry.enabled():
                telemetry.counter("service.pool.restarts").inc()
        engine = get_engine()
        engine.msm_srs(self._ctx.srs, [0] * self._rows)
        fork = multiprocessing.get_context("fork")
        ours, theirs = fork.Pipe()
        proc = fork.Process(target=_work, args=(theirs, [ours], self._ctx))
        proc.start()
        theirs.close()
        worker.proc, worker.conn, worker.handed = proc, ours, engine.hand_over()
        worker.sent, worker.read, worker.helpers = 0, 0, len(worker.handed)

    @property
    def helpers(self) -> int:
        """Helpers handed to the worker, less those it has lost since."""
        return self._worker.helpers

    async def prove_key_negotiation(self, asset: DataAsset, k_v: int, h_v: int) -> tuple:
        """Prove pi_k for ``asset`` masked with ``k_v``: ``(k_c, proof_bytes)``.
        A wrong h_v raises :class:`ProtocolError`, a dead worker
        :class:`BackendError`."""
        if not self._shutdown.still_active():
            raise ServiceError("prover pool is closed")
        started, loop = time.perf_counter(), asyncio.get_running_loop()
        worker = self._worker
        message = (asset.key, asset.key_blinder, asset.key_commitment(self._ctx.srs), k_v, h_v)
        await self._turn.acquire()
        try:
            if not worker.proc.is_alive():  # died idle: no request is lost
                self._fork(worker)
            worker.conn.send(message)
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
            self._turn.release()
            if telemetry.enabled():
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
