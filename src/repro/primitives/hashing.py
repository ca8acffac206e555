"""Hash helpers used across the protocols.

- :func:`field_hash` is the H(.) of the exchange protocols (h = H(k)).
  It is Poseidon-based because the same relation must be provable inside a
  circuit (h_v = H(k_v) appears in the key-negotiation proof pi_k).
- :func:`digest_hex` is the content digest for storage URIs (SHA-256);
  it never appears inside a circuit, so a conventional hash is fine and
  mirrors IPFS's multihash addressing.
"""

from __future__ import annotations

import hashlib

from repro.primitives.poseidon import poseidon_hash


def field_hash(*values: int) -> int:
    """Circuit-friendly hash of field elements (Poseidon sponge)."""
    return poseidon_hash(values)


def digest_hex(data: bytes) -> str:
    """Content digest used as the storage-network URI."""
    return hashlib.sha256(data).hexdigest()
