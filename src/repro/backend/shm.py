"""Shared-memory segment lifecycle for the zero-pickle parallel data plane.

Pickling every point and scalar of an MSM/NTT input into each worker
task costs more than the kernel saves.  Packed into fixed-width cells
(:func:`pack_scalars`, :func:`pack_points`) an input is one flat byte
buffer, so it can live in a ``multiprocessing.shared_memory`` segment:
the parent packs once, workers attach by name and read their slice
zero-copy, and task payloads shrink to ``(segment name, offset, count)``
triples.  This module is the only one that knows the packed format.

Ownership rules (see ``docs/data_plane.md`` for the full contract):

- The **parent** (engine) process creates every segment and is the only
  process that ever unlinks it.  Scratch segments (per-call scalars, NTT
  values, results) are unlinked in a ``finally`` as soon as the call
  completes — including on worker crash/abort paths.  Pinned segments
  (per-domain twiddle tables) live until the engine is closed;
  :func:`cleanup_owned` runs at interpreter exit as a backstop.
- **Workers** only ever attach, read/write, and close.  Attachments are
  cached per process (keyed by segment name — names are unique per boot,
  so a cached attachment can never alias a new segment).  Workers are
  forked, so their resource-tracker registrations land in the *parent's*
  tracker and dedup against the owner's entry; see
  :func:`attach_segment` for why workers must never unregister.

Point cells are 64 bytes (x || y, little-endian, ``z = 1`` implied);
the all-zero cell encodes the point at infinity — ``(0, 0)`` is not on
``y^2 = x^3 + 3``, so the sentinel cannot collide with a real point.
Scalar cells are 32 bytes, canonical little-endian — the same encoding
as :meth:`repro.field.fr.Fr.to_bytes`.

Protocol modules must not import this module; the compute engine owns
the representation (zklint ENG-001).
"""

from __future__ import annotations

import atexit
from multiprocessing import shared_memory

from repro.curve.g1 import JAC_INF
from repro.field.fr import MODULUS as _R, NUM_BYTES as SCALAR_BYTES

_POINT_BYTES = 64
_COORD_BYTES = 32

#: Segments created (and therefore owned) by this process, by name.
_owned: dict[str, shared_memory.SharedMemory] = {}

#: Segments this process has attached to (worker side), by name.
_attached: dict[str, shared_memory.SharedMemory] = {}


def create_segment(nbytes: int) -> shared_memory.SharedMemory:
    """Create an owned segment of at least ``nbytes`` (never zero) bytes."""
    seg = shared_memory.SharedMemory(create=True, size=max(1, nbytes))
    _owned[seg.name] = seg
    return seg


def attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach to a parent-owned segment (worker side), cached per process.

    CPython 3.11 registers attaches with the resource tracker exactly
    like creates; because pool workers are *forked* they share the
    parent's tracker process, whose per-name cache is a set — the
    worker's register is a dedup no-op and the parent's eventual
    unlink/unregister stays balanced.  (A worker must therefore never
    unregister: that would delete the parent's registration.)
    """
    seg = _owned.get(name) or _attached.get(name)
    if seg is not None:
        return seg
    seg = shared_memory.SharedMemory(name=name)
    _attached[name] = seg
    return seg


def release_segment(seg: shared_memory.SharedMemory) -> None:
    """Close and (if owned by this process) unlink ``seg``.  Idempotent."""
    owned = _owned.pop(seg.name, None) is not None
    _attached.pop(seg.name, None)
    try:
        seg.close()
    except Exception:  # pragma: no cover - double close on exotic teardown
        pass
    if owned:
        try:
            seg.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass


def cleanup_owned() -> None:
    """Unlink every segment this process still owns (crash backstop)."""
    for seg in list(_owned.values()):
        release_segment(seg)


def owned_names() -> list[str]:
    """Names of segments currently owned by this process (for tests)."""
    return sorted(_owned)


def segment_exists(name: str) -> bool:
    """True if a segment ``name`` still exists system-wide (for tests).

    The probe attach's tracker registration is a dedup no-op against the
    owner's entry (shared tracker under fork), so probing does not
    perturb cleanup accounting.
    """
    try:
        probe = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return False
    probe.close()
    return True


atexit.register(cleanup_owned)


# ----------------------------------------------------------------- scalars


def pack_scalars(values: list[int]) -> bytearray:
    """Pack scalars, reduced mod r, into 32-byte little-endian cells."""
    out = bytearray(SCALAR_BYTES * len(values))
    pos = 0
    for v in values:
        out[pos : pos + SCALAR_BYTES] = (v % _R).to_bytes(SCALAR_BYTES, "little")
        pos += SCALAR_BYTES
    return out


def unpack_scalars(buf, start: int = 0, count: int | None = None) -> list[int]:
    """Unpack ``count`` scalars from a packed buffer starting at cell ``start``.

    ``buf`` is anything supporting the buffer protocol (bytes, bytearray,
    memoryview over a shared-memory segment).  Reads are zero-copy until
    the final per-element ``int.from_bytes``.
    """
    view = memoryview(buf)
    if count is None:
        count = (len(view) - start * SCALAR_BYTES) // SCALAR_BYTES
    out = [0] * count
    pos = start * SCALAR_BYTES
    for i in range(count):
        out[i] = int.from_bytes(view[pos : pos + SCALAR_BYTES], "little")
        pos += SCALAR_BYTES
    return out


# ------------------------------------------------------------------ points


def pack_points(points: list[tuple]) -> bytearray:
    """Pack normalised (``z in (0, 1)``) Jacobian points into 64-byte cells.

    Infinity (``z == 0``) packs as the all-zero cell.
    """
    out = bytearray(_POINT_BYTES * len(points))
    pos = 0
    for p in points:
        if p[2] != 0:
            out[pos : pos + _COORD_BYTES] = p[0].to_bytes(_COORD_BYTES, "little")
            out[pos + _COORD_BYTES : pos + _POINT_BYTES] = p[1].to_bytes(
                _COORD_BYTES, "little"
            )
        pos += _POINT_BYTES
    return out


def unpack_points(buf, start: int = 0, count: int | None = None) -> list[tuple]:
    """Unpack 64-byte point cells into ``z = 1`` Jacobian tuples."""
    view = memoryview(buf)
    if count is None:
        count = (len(view) - start * _POINT_BYTES) // _POINT_BYTES
    out = []
    pos = start * _POINT_BYTES
    for _ in range(count):
        x = int.from_bytes(view[pos : pos + _COORD_BYTES], "little")
        y = int.from_bytes(view[pos + _COORD_BYTES : pos + _POINT_BYTES], "little")
        out.append((x, y, 1) if x or y else JAC_INF)
        pos += _POINT_BYTES
    return out

