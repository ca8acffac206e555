"""Data assets: plaintext datasets bound to ciphertexts, commitments and
storage URIs.

A :class:`DataAsset` is the owner-side view of one dataset: the plaintext
(field elements), the MiMC key and nonce, the published ciphertext, the
blinders of the data and key commitments and the storage URI.  Both
commitments are KZG points, so they exist only under an SRS: the key's is
[k] = (k - rho)[1] + rho[tau], the data's [d] commits to the entries
interpolated over H_m (:func:`repro.kzg.commit.commit_message`).  Every
circuit that uses the key or the data links to them.  [d] binds the
entries padded with zeros to m, not their count, so the token contract
records the digest of [d] together with the entry count
(:func:`commitment_digest`), as the arbiter's lock records [k]'s.  Only
the public half (:class:`PublicAssetView`) ever leaves the owner.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.contracts.arbiter import key_digest
from repro.curve.g1 import G1
from repro.errors import ProtocolError
from repro.field.fr import MODULUS as R, random_scalar
from repro.kzg.commit import commit_message, commit_scalar
from repro.kzg.srs import SRS
from repro.primitives.encoding import bytes_to_elements
from repro.primitives.mimc import CtrCiphertext, mimc_encrypt_ctr


def serialize_ciphertext(ciphertext: CtrCiphertext) -> bytes:
    """``nonce || blocks``, 32 little-endian bytes each: the storage layout
    a token's URI addresses."""
    out = bytearray(ciphertext.nonce.to_bytes(32, "little"))
    for block in ciphertext.blocks:
        out += block.to_bytes(32, "little")
    return bytes(out)


def commitment_digest(point: G1, entries: int) -> int:
    """What a token's ``commitment_of`` records for a dataset of ``entries``
    entries under [d]: the one-slot SHA-256 of [d]'s 64 bytes and the count
    as one 32-byte word.  [d] alone does not fix the count (a message and
    the same message with zeros appended up to m share the point); the
    digest does, so an audit that compares digests compares lengths."""
    return key_digest(point.to_bytes() + entries.to_bytes(32, "big"))


@dataclass(frozen=True)
class PublicAssetView:
    """Everything a non-owner can see about an asset under one SRS."""

    uri: str
    ciphertext: CtrCiphertext
    data_commitment: G1
    num_entries: int


@dataclass
class DataAsset:
    """The owner-side record of one dataset."""

    plaintext: list[int]
    key: int
    nonce: int
    ciphertext: CtrCiphertext
    data_blinder: int
    key_blinder: int
    uri: str | None = None
    #: ``(srs, [d])`` for the last SRS the data was committed under.
    _committed: tuple | None = field(default=None, init=False, repr=False, compare=False)
    #: ``(srs, [k])`` for the last SRS the key was committed under.
    _key_committed: tuple | None = field(default=None, init=False, repr=False, compare=False)

    @staticmethod
    def create(plaintext: list[int], key: int | None = None, nonce: int | None = None) -> "DataAsset":
        """Encrypt a plaintext dataset of field elements and draw the
        blinders of its data and key commitments."""
        if not plaintext:
            raise ProtocolError("a data asset needs at least one entry")
        plaintext = [int(p) % R for p in plaintext]
        key = random_scalar() if key is None else key % R
        nonce = random_scalar() if nonce is None else nonce % R
        ciphertext = mimc_encrypt_ctr(key, plaintext, nonce)
        return DataAsset(
            plaintext=plaintext,
            key=key,
            nonce=nonce,
            ciphertext=ciphertext,
            # Nonzero: rho = 0 would leave [d] and [k] without their
            # Z_{H_m} term, which hides nothing.
            data_blinder=random_scalar(nonzero=True),
            key_blinder=random_scalar(nonzero=True),
        )

    @staticmethod
    def from_bytes(data: bytes, **kwargs) -> "DataAsset":
        """Create an asset from raw bytes (packed into field elements)."""
        return DataAsset.create(bytes_to_elements(data), **kwargs)

    def key_commitment(self, srs: SRS) -> G1:
        """[k] under ``srs``: the point pi_e, pi_p and pi_k link the key to
        (:func:`repro.kzg.commit.commit_scalar`), computed once per SRS."""
        if self._key_committed is None or self._key_committed[0] is not srs:
            self._key_committed = (srs, commit_scalar(srs, self.key, self.key_blinder))
        return self._key_committed[1]

    def data_commitment(self, srs: SRS) -> G1:
        """[d] under ``srs``: the point pi_e, pi_p and pi_t link the data to
        (:func:`repro.kzg.commit.commit_message`), computed once per SRS."""
        if self._committed is None or self._committed[0] is not srs:
            self._committed = (srs, commit_message(srs, self.plaintext, self.data_blinder))
        return self._committed[1]

    def serialized_ciphertext(self) -> bytes:
        """Canonical bytes of the ciphertext, as published to storage."""
        return serialize_ciphertext(self.ciphertext)

    def publish(self, store, owner: str = "anonymous") -> str:
        """Upload the ciphertext to content-addressed storage; sets uri."""
        self.uri = store.put(self.serialized_ciphertext(), owner=owner)
        return self.uri

    def public_view(self, srs: SRS) -> PublicAssetView:
        """The information visible to buyers and verifiers under ``srs``:
        [d] is :meth:`data_commitment`'s, committed once per SRS."""
        return PublicAssetView(
            uri=self.uri or "",
            ciphertext=self.ciphertext,
            data_commitment=self.data_commitment(srs),
            num_entries=len(self.plaintext),
        )

    @property
    def size_bytes(self) -> int:
        """Approximate payload size (31 usable bytes per element)."""
        return len(self.plaintext) * 31
