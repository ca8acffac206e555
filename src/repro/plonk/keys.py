"""Plonk key generation (the KeyGen of the NIZK triple).

``setup(srs, layout)`` preprocesses a compiled circuit into a proving key
(polynomials + SRS) and a verification key (nine commitments, plus one per
gate that reads the next row, + domain metadata).  The SRS is universal: the same string
serves every circuit whose size fits, so — as the paper stresses —
circuits can change without re-running the ceremony.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.errors import SRSError
from repro.backend import get_engine
from repro.curve.g1 import G1
from repro.curve.g2 import G2
from repro.kzg.commit import commit
from repro.kzg.srs import SRS
from repro.plonk.circuit import K1, K2, SELECTORS, Layout, shifted_columns

#: Extra degree headroom required beyond n (blinding of wires, z and t).
DEGREE_MARGIN = 8


@dataclass(frozen=True)
class VerifyingKey:
    """Succinct verification key: 9 G1 commitments + domain metadata.

    ``link_slots`` holds one ``(column, m)`` per message the circuit links
    (:meth:`repro.plonk.circuit.CircuitBuilder.link`): its proofs verify
    against those commitments, in that order, as part of the statement.
    ``c_qround``, ``c_qnext`` and ``c_qpartial`` commit the selectors of
    the gates that read the next row, each None for a circuit without that
    gate: its proofs carry the wires :attr:`shifted` names at zeta omega.
    """

    n: int
    ell: int
    c_qm: G1
    c_q3: G1
    c_ql: G1
    c_qr: G1
    c_qo: G1
    c_qc: G1
    c_s1: G1
    c_s2: G1
    c_s3: G1
    g2: G2
    g2_tau: G2
    link_slots: tuple = ()
    c_qround: G1 | None = None
    c_qnext: G1 | None = None
    c_qpartial: G1 | None = None

    @property
    def links(self) -> int:
        """How many commitments a proof under this key links."""
        return len(self.link_slots)

    @property
    def shifted(self) -> tuple:
        """The wire columns proofs under this key open at zeta omega
        (:attr:`repro.plonk.circuit.Layout.shifted`)."""
        next_a = self.c_qround is not None or self.c_qnext is not None
        return shifted_columns(next_a, self.c_qpartial is not None)

    def digest(self) -> bytes:
        """Hash binding the transcript to this circuit and SRS."""
        h = hashlib.sha256()
        h.update(b"plonk-vk:%d:%d:%d:%d;" % (self.n, self.ell, K1, K2))
        for slot, m in self.link_slots:  # a key that links nothing hashes as before
            h.update(b"link:%d:%d;" % (slot, m))
        for c in (
            self.c_qm,
            self.c_q3,
            self.c_ql,
            self.c_qr,
            self.c_qo,
            self.c_qc,
            self.c_s1,
            self.c_s2,
            self.c_s3,
        ):
            h.update(c.to_bytes())
        h.update(self.g2_tau.to_bytes())
        # A key without one of these gates hashes as before.
        for label, point in (
            (b"round;", self.c_qround), (b"next;", self.c_qnext), (b"partial;", self.c_qpartial)
        ):
            if point is not None:
                h.update(label + point.to_bytes())
        return h.digest()


@dataclass(frozen=True)
class ProvingKey:
    """Everything the prover needs: coefficient polynomials + the SRS."""

    layout: Layout
    srs: SRS
    q_polys: dict  # name -> coefficient list
    s_polys: tuple  # (s1, s2, s3) coefficient lists
    sigma_star: tuple  # (col1, col2, col3) permutation value columns
    vk: VerifyingKey


def setup(srs: SRS, layout: Layout) -> tuple[ProvingKey, VerifyingKey]:
    """Preprocess ``layout`` under ``srs`` into proving/verifying keys.

    All nine interpolations run as one engine batch and the commitments
    share the engine's cached Jacobian view of the SRS.
    """
    engine = get_engine()
    n = layout.n
    if srs.max_degree < n + DEGREE_MARGIN:
        raise SRSError(
            "SRS supports degree %d but circuit of size %d needs %d"
            % (srs.max_degree, n, n + DEGREE_MARGIN)
        )
    sigma_star = layout.sigma_star()
    selectors = tuple(name for name in SELECTORS if getattr(layout, name))
    columns = [list(getattr(layout, name)) for name in selectors]
    columns += [list(col) for col in sigma_star]
    interpolated = engine.ntt_batch([("ifft", n, col, 0) for col in columns])
    q_polys = dict(zip(selectors, interpolated))
    s_polys = tuple(interpolated[len(selectors) :])
    vk = VerifyingKey(
        n=n,
        ell=layout.ell,
        **{"c_" + name: commit(srs, q_polys[name]) for name in selectors},
        c_s1=commit(srs, s_polys[0]),
        c_s2=commit(srs, s_polys[1]),
        c_s3=commit(srs, s_polys[2]),
        g2=srs.g2,
        g2_tau=srs.g2_tau,
        link_slots=layout.link_slots,
    )
    pk = ProvingKey(layout, srs, q_polys, s_polys, sigma_star, vk)
    return pk, vk
