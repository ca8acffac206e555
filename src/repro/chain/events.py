"""Contract event logs and the chain's emission-order event index."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Event:
    """An emitted log entry, indexed by contract address and event name."""

    address: str
    name: str
    fields: tuple  # of (key, value) pairs, insertion-ordered

    def get(self, key: str, default=None):
        """Look up a field by name."""
        for k, v in self.fields:
            if k == key:
                return v
        return default

    def as_dict(self) -> dict:
        return dict(self.fields)


class EventIndex:
    """Emission-ordered event log with posting lists for exact filters.

    The chain appends every event of every *successful* transaction as
    it is recorded; :meth:`select` serves ``query_events`` lookups from
    per-name and per-address posting lists (dict hit + slice) and, for
    ``field=value`` filters under a name, from a ``(name, key) -> {value:
    positions}`` table instead of rescanning all receipts.  A field table
    is made by the first query for its ``(name, key)`` and extended on
    later ones from where it stopped in the name's posting list, so
    memory goes only to what is queried and an event is read once per
    table, not once per query.  Posting lists hold positions in the
    global emission order, so filtered results keep the exact order the
    linear scan produces — ``tests/test_chain.py`` holds the two paths
    equal.
    """

    __slots__ = ("_all", "_by_name", "_by_address", "_by_field")

    def __init__(self) -> None:
        self._all: list[Event] = []
        self._by_name: dict[str, list[int]] = {}
        self._by_address: dict[str, list[int]] = {}
        #: (name, key) -> [entries of _by_name[name] read so far, {value: positions}]
        self._by_field: dict[tuple, list] = {}

    def add(self, event: Event) -> None:
        """Append one emitted event (next position in emission order)."""
        pos = len(self._all)
        self._all.append(event)
        self._by_name.setdefault(event.name, []).append(pos)
        self._by_address.setdefault(event.address, []).append(pos)

    def select(
        self, name: str | None = None, address: str | None = None, fields: dict | None = None
    ) -> list[Event]:
        """Events matching ``name``, ``address`` and every ``field=value``
        of ``fields`` (whichever are given), in emission order."""
        fields = fields or {}
        events = None
        if name is not None:
            for key, value in fields.items():
                events = self._field_hits(name, key, value)
                if events is not None:
                    fields = {k: v for k, v in fields.items() if k != key}
                    if address is not None:
                        events = [event for event in events if event.address == address]
                    break
        if events is None:
            events = self._narrow(name, address)
        if fields:
            events = [
                event
                for event in events
                if not any(event.get(k) != v for k, v in fields.items())
            ]
        return events

    def _field_hits(self, name: str, key: str, value) -> list[Event] | None:
        """Events called ``name`` whose field ``key`` is ``value`` (compared
        as a dict key), or ``None`` when only a scan can tell: ``None`` also
        matches events without the key, and an unhashable value has no
        place in the table."""
        if value is None:
            return None
        try:
            hash(value)
        except TypeError:
            return None
        entry = self._by_field.setdefault((name, key), [0, {}])
        read, by_value = entry
        postings = self._by_name.get(name, ())
        for pos in postings[read:]:
            found = self._all[pos].get(key)  # the first occurrence, as a scan reads it
            if found is None:
                continue
            try:
                by_value.setdefault(found, []).append(pos)
            except TypeError:
                continue  # unhashable (a list of ids): no hashable query equals it
        entry[0] = len(postings)
        return [self._all[pos] for pos in by_value.get(value, ())]

    def _narrow(self, name: str | None, address: str | None) -> list[Event]:
        """Events matching ``name`` and/or ``address``, in emission order.

        Both posting lists are ascending, so the AND case is a linear
        merge of two sorted lists — no set building, order preserved.
        """
        if name is None and address is None:
            return list(self._all)
        if name is not None and address is not None:
            a = self._by_name.get(name, [])
            b = self._by_address.get(address, [])
            out = []
            i = j = 0
            while i < len(a) and j < len(b):
                if a[i] == b[j]:
                    out.append(self._all[a[i]])
                    i += 1
                    j += 1
                elif a[i] < b[j]:
                    i += 1
                else:
                    j += 1
            return out
        postings = self._by_name.get(name, []) if name is not None else self._by_address.get(
            address, []
        )
        return [self._all[p] for p in postings]
