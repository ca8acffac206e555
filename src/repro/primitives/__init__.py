"""Native (out-of-circuit) cryptographic primitives.

ZKDET's Challenge 2 is proof efficiency over large data; the paper answers
it with circuit-friendly primitives: the MiMC block cipher for encryption
and the Poseidon permutation for hashing (Section IV-C); data and key
commitments are KZG points (:mod:`repro.kzg.commit`).  This
package provides the fast native implementations; ``repro.gadgets``
re-implements each inside Plonk circuits, and equivalence between the two
is enforced by tests.
"""

from repro.primitives.mimc import MiMC, mimc_encrypt_ctr, mimc_decrypt_ctr
from repro.primitives.poseidon import poseidon_hash
from repro.primitives.encoding import bytes_to_elements, elements_to_bytes
from repro.primitives.hashing import field_hash, digest_hex

__all__ = [
    "MiMC",
    "bytes_to_elements",
    "digest_hex",
    "elements_to_bytes",
    "field_hash",
    "mimc_decrypt_ctr",
    "mimc_encrypt_ctr",
    "poseidon_hash",
]
