"""Seeded ENG-001 violation: protocol code importing the packed data plane.

The packed scalar/point representation (cell layout, shared-memory
segments) is engine-internal; a prover module unpacking cells itself
pins the layout across layers and bypasses the ownership rules.
"""

from repro.backend import shm  # noqa: F401  (seeded violation)
from repro.backend.shm import pack_scalars  # noqa: F401  (seeded violation)


def leak_packed_cells(values):
    return shm.pack_points([]) + pack_scalars(values)
