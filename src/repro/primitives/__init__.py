"""Native (out-of-circuit) cryptographic primitives.

ZKDET's Challenge 2 is proof efficiency over large data; the paper answers
it with circuit-friendly primitives: the MiMC block cipher for encryption
and the Poseidon permutation for hashing/commitments (Section IV-C).  This
package provides the fast native implementations; ``repro.gadgets``
re-implements each inside Plonk circuits, and equivalence between the two
is enforced by tests.
"""

from repro.primitives.mimc import MiMC, mimc_encrypt_ctr, mimc_decrypt_ctr
from repro.primitives.poseidon import poseidon_hash
from repro.primitives.commitment import Commitment, commit, open_commitment
from repro.primitives.encoding import bytes_to_elements, elements_to_bytes
from repro.primitives.hashing import field_hash, digest_hex

__all__ = [
    "Commitment",
    "MiMC",
    "bytes_to_elements",
    "commit",
    "digest_hex",
    "elements_to_bytes",
    "field_hash",
    "mimc_decrypt_ctr",
    "mimc_encrypt_ctr",
    "open_commitment",
    "poseidon_hash",
]
