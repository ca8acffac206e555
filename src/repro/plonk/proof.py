"""The Plonk proof object.

As the paper reports (Section VI-B3), every proof consists of exactly
9 G1 elements and 6 field elements, independent of the relation proved —
768 bytes in our uncompressed encoding.  A circuit with MiMC round gates
adds one field element, a(zeta omega) (800 bytes): its size depends on
the key, never on the witness.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from repro.errors import SerializationError
from repro.curve.g1 import G1
from repro.field.fr import MODULUS as R

_POINT_FIELDS = ("c_a", "c_b", "c_c", "c_z", "c_t_lo", "c_t_mid", "c_t_hi", "w_zeta", "w_zeta_omega")
_SCALAR_FIELDS = ("a_bar", "b_bar", "c_bar", "s1_bar", "s2_bar", "z_omega_bar")
#: The evaluation only a proof under a key with round gates carries.
_SHIFTED_FIELD = "a_omega_bar"


def proof_size_bytes(shifted: bool) -> int:
    """Length of a proof's encoding, with or without a(zeta omega)."""
    return 64 * len(_POINT_FIELDS) + 32 * (len(_SCALAR_FIELDS) + shifted)


@dataclass(frozen=True)
class Proof:
    """A Plonk proof: 9 G1 commitments and 6 evaluations at zeta, plus
    a(zeta omega) when its key has round gates."""

    c_a: G1
    c_b: G1
    c_c: G1
    c_z: G1
    c_t_lo: G1
    c_t_mid: G1
    c_t_hi: G1
    w_zeta: G1
    w_zeta_omega: G1
    a_bar: int
    b_bar: int
    c_bar: int
    s1_bar: int
    s2_bar: int
    z_omega_bar: int
    a_omega_bar: int | None = None

    @property
    def shifted(self) -> bool:
        """Whether the proof carries a(zeta omega)."""
        return self.a_omega_bar is not None

    @property
    def num_g1_elements(self) -> int:
        return len(_POINT_FIELDS)

    @property
    def num_field_elements(self) -> int:
        return len(_SCALAR_FIELDS) + self.shifted

    def to_bytes(self) -> bytes:
        """Serialise: 9 uncompressed G1 points then 6 scalars (7 with
        a(zeta omega), last)."""
        out = bytearray()
        for name in _POINT_FIELDS:
            out += getattr(self, name).to_bytes()
        for name in _SCALAR_FIELDS + (_SHIFTED_FIELD,) * self.shifted:
            out += (getattr(self, name) % R).to_bytes(32, "little")
        return bytes(out)

    @staticmethod
    def from_bytes(data: bytes) -> "Proof":
        """Parse either shape; whether it matches a key is the verifier's
        structural check."""
        if len(data) not in (proof_size_bytes(False), proof_size_bytes(True)):
            raise SerializationError(
                "proof must be %d or %d bytes, got %d"
                % (proof_size_bytes(False), proof_size_bytes(True), len(data))
            )
        scalars = _SCALAR_FIELDS + (_SHIFTED_FIELD,) * (len(data) == proof_size_bytes(True))
        kwargs = {}
        offset = 0
        for name in _POINT_FIELDS:
            kwargs[name] = G1.from_bytes(data[offset : offset + 64])
            offset += 64
        for name in scalars:
            value = int.from_bytes(data[offset : offset + 32], "little")
            if value >= R:
                raise SerializationError("scalar %s out of range" % name)
            kwargs[name] = value
            offset += 32
        return Proof(**kwargs)

    @property
    def size_bytes(self) -> int:
        """Length of the canonical serialisation."""
        return proof_size_bytes(self.shifted)

    def replace(self, **changes) -> "Proof":
        """Return a copy with some fields changed (used by tamper tests)."""
        current = {f.name: getattr(self, f.name) for f in fields(self)}
        current.update(changes)
        return Proof(**current)
