"""Seeded FORK-001 violation: a thread started before a worker forks."""

import multiprocessing
import threading


class WarmWorker:
    def __init__(self) -> None:
        self._heartbeat = threading.Thread(target=lambda: None, daemon=True)
        self._heartbeat.start()
        # The forked child inherits the heartbeat thread's locks mid-flight.
        self._proc = multiprocessing.get_context("fork").Process(target=print)
        self._proc.start()
