"""Bounded multi-tenant request queue with round-robin fairness.

Admission control happens *synchronously at the door*: :meth:`FairQueue.put_nowait`
either accepts the request or raises :class:`~repro.errors.QueueFullError`
immediately, so a client learns it was shed before any protocol state
exists for it.  Two budgets apply — a global depth bound (protects the
node) and an optional per-tenant bound (protects tenants from each
other; one buyer flooding the queue cannot evict or starve the rest).

Dispatch is per-tenant round-robin: tenants with queued work form a
ring, and each :meth:`FairQueue.get` serves the ring's head tenant one
item, then moves it to the back.  A tenant with 100 queued requests and
a tenant with 1 therefore alternate until the small tenant drains,
rather than the large tenant monopolising a FIFO prefix.

The queue is asyncio-native and single-loop: producers are synchronous
(`put_nowait`), consumers ``await get()``.  No thread safety is provided
or needed — the node runs one event loop.
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import Any, Deque, Dict, Optional, Tuple

from repro import telemetry
from repro.errors import QueueFullError


class FairQueue:
    """Bounded per-tenant queue; round-robin between tenants on get."""

    def __init__(self, maxsize: int, per_tenant: Optional[int] = None) -> None:
        if maxsize <= 0:
            raise ValueError("maxsize must be positive")
        if per_tenant is not None and per_tenant <= 0:
            raise ValueError("per_tenant must be positive when set")
        self.maxsize = maxsize
        self.per_tenant = per_tenant
        self._items: Dict[str, Deque[Any]] = {}
        self._ring: Deque[str] = deque()
        self._size = 0
        self._getters: Deque[asyncio.Future] = deque()

    # ----- introspection --------------------------------------------------

    def qsize(self) -> int:
        return self._size

    def tenant_depth(self, tenant: str) -> int:
        items = self._items.get(tenant)
        return len(items) if items else 0

    # ----- producer side --------------------------------------------------

    def put_nowait(self, tenant: str, item: Any) -> None:
        """Admit one item or raise :class:`QueueFullError` immediately."""
        if self._size >= self.maxsize:
            self._reject(tenant, "queue")
        items = self._items.get(tenant)
        if items is None:
            items = self._items[tenant] = deque()
        if self.per_tenant is not None and len(items) >= self.per_tenant:
            self._reject(tenant, "tenant")
        if not items:
            self._ring.append(tenant)
        items.append(item)
        self._size += 1
        if telemetry.enabled():
            telemetry.counter("service.queue.admitted").inc()
        self._wake_one()

    def _reject(self, tenant: str, scope: str) -> None:
        if telemetry.enabled():
            telemetry.counter("service.queue.rejected", scope=scope).inc()
        if scope == "queue":
            raise QueueFullError(
                "queue full (%d items); request shed" % self._size
            )
        raise QueueFullError(
            "tenant %r exceeded its queue budget (%d items)"
            % (tenant, self.per_tenant)
        )

    def _wake_one(self) -> None:
        while self._getters:
            fut = self._getters.popleft()
            if not fut.done():
                fut.set_result(None)
                return

    # ----- consumer side --------------------------------------------------

    async def get(self) -> Tuple[str, Any]:
        """Wait for an item; returns ``(tenant, item)`` fairly."""
        while self._size == 0:
            fut: asyncio.Future = asyncio.get_running_loop().create_future()
            self._getters.append(fut)
            try:
                await fut
            finally:
                if not fut.done():
                    fut.cancel()
                try:
                    self._getters.remove(fut)
                except ValueError:
                    pass
        tenant = self._ring.popleft()
        items = self._items[tenant]
        item = items.popleft()
        self._size -= 1
        if items:
            self._ring.append(tenant)
        else:
            del self._items[tenant]
        if self._size and self._getters:
            # More work remains: chain the wake so concurrent getters drain
            # the queue without waiting for the next put.
            self._wake_one()
        return tenant, item
