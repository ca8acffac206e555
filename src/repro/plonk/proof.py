"""The Plonk proof object.

As the paper reports (Section VI-B3), every proof consists of exactly
9 G1 elements and 6 field elements, independent of the relation proved —
768 bytes in our uncompressed encoding.  A circuit whose gates read the
next row adds the wires it opens at zeta omega: a(zeta omega) for MiMC
round gates (800 bytes), a, b and c for Poseidon's partial-round gate
(864 bytes).  The size depends on the key, never on the witness.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from repro.errors import SerializationError
from repro.curve.g1 import G1
from repro.field.fr import MODULUS as R

_POINT_FIELDS = ("c_a", "c_b", "c_c", "c_z", "c_t_lo", "c_t_mid", "c_t_hi", "w_zeta", "w_zeta_omega")
_SCALAR_FIELDS = ("a_bar", "b_bar", "c_bar", "s1_bar", "s2_bar", "z_omega_bar")
#: The wires' evaluations at zeta omega, by column: a proof carries those
#: its key's :attr:`~repro.plonk.keys.VerifyingKey.shifted` names, a prefix.
_SHIFTED_FIELDS = ("a_omega_bar", "b_omega_bar", "c_omega_bar")


def proof_size_bytes(shifted: tuple = ()) -> int:
    """Length of a proof's encoding that opens the wire columns
    ``shifted`` at zeta omega."""
    return 64 * len(_POINT_FIELDS) + 32 * (len(_SCALAR_FIELDS) + len(shifted))


#: Encoded length -> the columns such a proof opens at zeta omega.
_SHAPES = {proof_size_bytes(cols): cols for cols in ((), (0,), (0, 1, 2))}


@dataclass(frozen=True)
class Proof:
    """A Plonk proof: 9 G1 commitments and 6 evaluations at zeta, plus
    the wires its key opens at zeta omega."""

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
    b_omega_bar: int | None = None
    c_omega_bar: int | None = None

    @property
    def shifted(self) -> tuple:
        """The wire columns whose zeta omega evaluations the proof carries."""
        return tuple(
            col for col, name in enumerate(_SHIFTED_FIELDS) if getattr(self, name) is not None
        )

    @property
    def omega_bars(self) -> tuple:
        """Those evaluations, in column order."""
        return tuple(getattr(self, _SHIFTED_FIELDS[col]) for col in self.shifted)

    @property
    def num_g1_elements(self) -> int:
        return len(_POINT_FIELDS)

    @property
    def num_field_elements(self) -> int:
        return len(_SCALAR_FIELDS) + len(self.shifted)

    def to_bytes(self) -> bytes:
        """Serialise: 9 uncompressed G1 points, 6 scalars, then the
        zeta omega evaluations it carries in column order."""
        out = bytearray()
        for name in _POINT_FIELDS:
            out += getattr(self, name).to_bytes()
        for name in _SCALAR_FIELDS + tuple(_SHIFTED_FIELDS[col] for col in self.shifted):
            out += (getattr(self, name) % R).to_bytes(32, "little")
        return bytes(out)

    @staticmethod
    def from_bytes(data: bytes) -> "Proof":
        """Parse any shape (none, a, or a, b and c opened at zeta omega);
        whether it matches a key is the verifier's structural check."""
        if len(data) not in _SHAPES:
            raise SerializationError(
                "proof must be %s bytes, got %d" % (" or ".join(map(str, _SHAPES)), len(data))
            )
        scalars = _SCALAR_FIELDS + tuple(_SHIFTED_FIELDS[col] for col in _SHAPES[len(data)])
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
