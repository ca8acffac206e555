"""Data assets: plaintext datasets bound to ciphertexts, commitments and
storage URIs.

A :class:`DataAsset` is the owner-side view of one dataset: the plaintext
(field elements), the MiMC key and nonce, the published ciphertext, the
Poseidon commitment to the data, the key's blinder and the storage URI.
The key's commitment is a KZG point, [k] = (k - rho)[1] + rho[tau], so it
exists only under an SRS: :meth:`DataAsset.key_commitment` derives it
wherever a :class:`~repro.core.snark.SnarkContext` is at hand, and every
circuit that uses the key links to it.  Only the public half
(:class:`PublicAssetView`) ever leaves the owner.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.curve.g1 import G1
from repro.errors import ProtocolError
from repro.field.fr import MODULUS as R, rand_fr, random_scalar
from repro.kzg.commit import commit_scalar
from repro.kzg.srs import SRS
from repro.primitives.commitment import Commitment, commit
from repro.primitives.encoding import bytes_to_elements
from repro.primitives.mimc import CtrCiphertext, mimc_encrypt_ctr


def serialize_ciphertext(ciphertext: CtrCiphertext) -> bytes:
    """``nonce || blocks``, 32 little-endian bytes each: the storage layout
    a token's URI addresses."""
    out = bytearray(ciphertext.nonce.to_bytes(32, "little"))
    for block in ciphertext.blocks:
        out += block.to_bytes(32, "little")
    return bytes(out)


@dataclass(frozen=True)
class PublicAssetView:
    """Everything a non-owner can see about an asset."""

    uri: str
    ciphertext: CtrCiphertext
    data_commitment: int
    num_entries: int


@dataclass
class DataAsset:
    """The owner-side record of one dataset."""

    plaintext: list[int]
    key: int
    nonce: int
    ciphertext: CtrCiphertext
    data_commitment: Commitment
    data_blinder: int
    key_blinder: int
    uri: str | None = None

    @staticmethod
    def create(plaintext: list[int], key: int | None = None, nonce: int | None = None) -> "DataAsset":
        """Encrypt and commit a plaintext dataset of field elements."""
        if not plaintext:
            raise ProtocolError("a data asset needs at least one entry")
        plaintext = [int(p) % R for p in plaintext]
        key = rand_fr() if key is None else key % R
        nonce = rand_fr() if nonce is None else nonce % R
        ciphertext = mimc_encrypt_ctr(key, plaintext, nonce)
        c_d, o_d = commit(plaintext)
        return DataAsset(
            plaintext=plaintext,
            key=key,
            nonce=nonce,
            ciphertext=ciphertext,
            data_commitment=c_d,
            data_blinder=o_d,
            # Nonzero: rho = 0 would leave [k] = k[1], which hides nothing.
            key_blinder=random_scalar(nonzero=True),
        )

    @staticmethod
    def from_bytes(data: bytes, **kwargs) -> "DataAsset":
        """Create an asset from raw bytes (packed into field elements)."""
        return DataAsset.create(bytes_to_elements(data), **kwargs)

    def key_commitment(self, srs: SRS) -> G1:
        """[k] under ``srs``: the point pi_e, pi_p and pi_k link the key to
        (:func:`repro.kzg.commit.commit_scalar`)."""
        return commit_scalar(srs, self.key, self.key_blinder)

    def serialized_ciphertext(self) -> bytes:
        """Canonical bytes of the ciphertext, as published to storage."""
        return serialize_ciphertext(self.ciphertext)

    def publish(self, store, owner: str = "anonymous") -> str:
        """Upload the ciphertext to content-addressed storage; sets uri."""
        self.uri = store.put(self.serialized_ciphertext(), owner=owner)
        return self.uri

    def public_view(self) -> PublicAssetView:
        """The information visible to buyers and verifiers."""
        return PublicAssetView(
            uri=self.uri or "",
            ciphertext=self.ciphertext,
            data_commitment=self.data_commitment.value,
            num_entries=len(self.plaintext),
        )

    @property
    def size_bytes(self) -> int:
        """Approximate payload size (31 usable bytes per element)."""
        return len(self.plaintext) * 31
