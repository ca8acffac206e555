"""KZG polynomial commitments over BN254 with a universal updatable SRS.

The SRS module simulates the *Perpetual Powers of Tau* ceremony the paper
relies on: a sequence of participants each re-randomise the running string
and publish an update proof, so the final parameters are secure as long as
one participant was honest.
"""

from repro.kzg.srs import SRS, Ceremony
from repro.kzg.commit import (
    commit,
    commit_message,
    commit_scalar,
    message_slots,
    open_at,
    verify_opening,
)

__all__ = [
    "SRS",
    "Ceremony",
    "commit",
    "commit_message",
    "commit_scalar",
    "message_slots",
    "open_at",
    "verify_opening",
]
