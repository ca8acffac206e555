"""The Poseidon partial-round gate and the wires it reads at zeta omega.

A partial round is two rows (DESIGN.md, "pi_k at n = 256"): the qpartial
row (x, x^3, s1) checks the cube and, with y = x^5, M's rows 1 and 2 on
the next row's b and c; that row, (s2, s1', s2'), is a qnext row writing
the next round's x into the a slot of the row after it.  So pi_k's proofs
open a, b and c at zeta omega, batched into ``W_zeta_omega``.  Covered
here: pi_k's size and columns; one wrong partial round and one wrong full
round, each proved under a key that leaves it out, fail the honest
verifier; the shifted opening covers the three wires; a partial round
never sits before a reserved link row; the fold leaves identity key
points out and a forged proof still fails under a key with zero columns;
the R1CS counterpart.
"""

import dataclasses
import re

import pytest

from repro.backend import Engine, get_engine
from repro.core.exchange import build_key_negotiation_circuit
from repro.core.zkcp import build_zkcp_circuit
from repro.curve.g1 import G1
from repro.errors import UnsatisfiedConstraintError
from repro.field.fr import MODULUS as R, inv as fr_inv
from repro.gadgets.poseidon import poseidon_hash_gadget
from repro.kzg import SRS, commit_message, commit_scalar
from repro.plonk import CircuitBuilder, prove, setup, verify
from repro.plonk.circuit import linked_size, reserved_rows
from repro.plonk.keys import VerifyingKey
from repro.plonk.transcript import Transcript
from repro.plonk.verifier import fold_terms
from repro.primitives.hashing import field_hash
from repro.primitives.poseidon import poseidon_hash
from repro.r1cs import R1CSBuilder

TAU = 987654321
KEY, RHO, K_V = 1234567, 7654321, 424242
WRONG_PARTIAL = 17
WRONG_SBOX = 9  # x^5 of round 2's lane 0 (round 0 boxes one lane, two gates an S-box)


class _OneWrongPartialRound(CircuitBuilder):
    """Adds 1 to one partial round's s1'; the rounds after it are computed
    honestly from it, as a cheating prover would."""

    def __init__(self):
        super().__init__()
        self._rounds = 0

    def poseidon_partial_round(self, x, s1, s2, constant):
        out = super().poseidon_partial_round(x, s1, s2, constant)
        if self._rounds == WRONG_PARTIAL:
            x_next, out1, out2 = out
            self._values[out1] = (self._values[out1] + 1) % R
            # x' as the second row's next-a gate reads it: that row, too,
            # is left out of the stripped key.
            self._values[x_next] = (self._values[x_next] + 1) % R
        self._rounds += 1
        return out


class _OneWrongFullRound(CircuitBuilder):
    """Adds 1 to one full-round S-box output (the second of its two cubic
    gates); the mixing rows after it take the wrong value."""

    def __init__(self):
        super().__init__()
        self._cubes = 0

    def square_mul(self, x, y):
        out = super().square_mul(x, y)
        if self._cubes == WRONG_SBOX:
            self._values[out] = (self._values[out] + 1) % R
        self._cubes += 1
        return out


def _pi_k(srs, builder=None, check=True, h_v=None):
    builder = CircuitBuilder() if builder is None else builder
    point = commit_scalar(srs, KEY, RHO)
    h_v = field_hash(K_V) if h_v is None else h_v
    build_key_negotiation_circuit(builder, (KEY + K_V) % R, point, h_v, KEY, RHO, K_V)
    layout, assignment = builder.compile(check=check)
    return layout, assignment, point


def _wrong_rows(layout, assignment):
    """The rows whose constraints the witness breaks, in order."""
    rows = []
    while True:
        try:
            _cleared(layout, rows).check(assignment)
            return rows
        except UnsatisfiedConstraintError as exc:
            rows.append(int(re.search(r"gate (\d+)", str(exc)).group(1)))


def _cleared(layout, rows):
    """``layout`` with every selector of ``rows`` zeroed."""
    names = ("ql", "qr", "qo", "qm", "q3", "qc", "qround", "qnext", "qpartial")
    changes = {}
    for name in names:
        column = getattr(layout, name)
        if column:
            changes[name] = tuple(0 if i in rows else v for i, v in enumerate(column))
    return dataclasses.replace(layout, **changes)


@pytest.fixture(scope="module")
def srs():
    return SRS.generate(264, tau=TAU)


@pytest.fixture(scope="module")
def honest(srs):
    layout, assignment, point = _pi_k(srs)
    pk, vk = setup(srs, layout)
    proof = prove(pk, assignment)
    assert verify(vk, assignment.public_inputs, proof, point)
    return layout, pk, vk, assignment, proof, point


class TestLayout:
    def test_pi_k_sits_at_n_256_and_opens_three_wires(self, honest):
        layout, pk, vk, _assignment, proof, _point = honest
        assert (layout.n, layout.shifted, vk.shifted, proof.shifted) == (256,) + ((0, 1, 2),) * 3
        assert (sum(map(bool, layout.qpartial)), sum(map(bool, layout.qnext))) == (60, 60)
        # Every S-box row is q3 alone: no row multiplies two wires.
        assert not any(layout.qm) and not layout.qround
        assert vk.c_qm.inf and "qround" not in pk.q_polys
        assert proof.size_bytes == len(proof.to_bytes()) == 864

    def test_each_partial_round_is_its_two_rows(self, honest):
        layout, _pk, _vk, assignment, _proof, _point = honest
        a, b, c = assignment.a, assignment.b, assignment.c
        firsts = [row for row, q in enumerate(layout.qpartial) if q]
        for row in firsts:
            assert layout.qnext[row + 1] and not layout.qpartial[row + 1]
            assert b[row] == pow(a[row], 3, R)
        # Copies carry s1' into the next first row's c and s2' into the
        # next second row's a.
        for row, nxt in zip(firsts, firsts[1:]):
            assert (c[nxt], a[nxt + 1]) == (b[row + 1], c[row + 1])

    def test_the_gadget_hashes_as_native_poseidon(self):
        builder = CircuitBuilder()
        digest = poseidon_hash_gadget(builder, [builder.var(K_V)])
        assert builder.value(digest) == poseidon_hash([K_V]) == field_hash(K_V)


class TestSoundness:
    def _forced(self, srs, honest, cheat, monkeypatch):
        """The false statement h_v = H(k_v) with h_v what ``cheat``'s wrong
        hash computes: prove its witness under a proving key whose layout
        leaves the rows it breaks out but whose transcript is the honest
        key's; the honest verifier must reject it."""
        layout, _pk, vk, _assignment, _proof, point = honest
        hasher = cheat()
        wrong_h_v = hasher.value(poseidon_hash_gadget(hasher, [hasher.var(K_V)]))
        assert wrong_h_v != field_hash(K_V)
        wrong_layout, assignment, _ = _pi_k(srs, cheat(), check=False, h_v=wrong_h_v)
        assert wrong_layout.digest() == layout.digest()  # same circuit, other witness
        with pytest.raises(UnsatisfiedConstraintError):
            layout.check(assignment)
        rows = _wrong_rows(layout, assignment)
        stripped = _cleared(layout, rows)
        stripped.check(assignment)  # the witness satisfies the stripped circuit
        stripped_pk, stripped_vk = setup(srs, stripped)
        forced = prove(dataclasses.replace(stripped_pk, vk=vk), assignment)
        publics = assignment.public_inputs
        assert not verify(vk, publics, forced, point)
        # It is a proof of the stripped circuit: with the transcript pinned
        # to the honest key's, the stripped key accepts it.
        monkeypatch.setattr(VerifyingKey, "digest", lambda self, d=vk.digest(): d)
        assert verify(stripped_vk, publics, forced, point)
        assert not verify(vk, publics, forced, point)
        return rows

    def test_one_wrong_partial_round_fails_verify(self, srs, honest, monkeypatch):
        layout = honest[0]
        rows = self._forced(srs, honest, _OneWrongPartialRound, monkeypatch)
        first = [row for row, q in enumerate(layout.qpartial) if q][WRONG_PARTIAL]
        assert rows == [first, first + 1]

    def test_one_wrong_full_round_fails_verify(self, srs, honest, monkeypatch):
        layout = honest[0]
        rows = self._forced(srs, honest, _OneWrongFullRound, monkeypatch)
        assert len(rows) == 1 and layout.q3[rows[0]] and not layout.qpartial[rows[0]]

    def test_the_shifted_opening_covers_a_b_and_c(self, honest, monkeypatch):
        """W_zeta_omega opens z and, weighted by v, v^2, v^3, a, b and c at
        zeta omega: with the SRS trapdoor, (tau - zeta omega) [W_zw] is
        [z] - z(zeta omega) + sum v^i ([w_i] - w_i(zeta omega)).  A wire
        left out of it would be a value the prover picks after zeta."""
        _layout, _pk, vk, assignment, proof, point = honest
        drawn = {}
        challenge = Transcript.challenge

        def recording(self, label):
            drawn[label] = challenge(self, label)
            return drawn[label]

        monkeypatch.setattr(Transcript, "challenge", recording)
        assert verify(vk, assignment.public_inputs, proof, point)
        at = drawn[b"zeta"] * get_engine().domain(vk.n).omega % R
        g, v = G1.generator(), drawn[b"v"]
        opened = proof.c_z + g * (-proof.z_omega_bar % R)
        weight = v
        for wire, value in (
            (proof.c_a, proof.a_omega_bar),
            (proof.c_b, proof.b_omega_bar),
            (proof.c_c, proof.c_omega_bar),
        ):
            opened = opened + (wire + g * (-value % R)) * weight
            weight = weight * v % R
        assert proof.w_zeta_omega * ((TAU - at) % R) == opened

    def test_a_partial_round_never_sits_before_a_reserved_row(self, srs):
        """Four linked entries reserve rows n/4, n/2 and 3n/4.  A partial
        round's first row reads all three wires of the next, so where it
        would land before a reserved row a gate-free row holding its a
        goes there instead, and the proof verifies."""
        entries, rho = [11, 22, 33, 44], 5
        point = commit_message(srs, entries, rho)
        builder = CircuitBuilder()
        wires = [builder.var(v) for v in entries]
        builder.link(wires, point, rho)
        x, s1, s2 = wires[:3]
        for k in range(40):
            x, s1, s2 = builder.poseidon_partial_round(x, s1, s2, k)
        builder.assert_equal(x, builder.public_input(builder.value(x)))
        layout, assignment = builder.compile()
        reserved = reserved_rows(layout.n, 4, layout.ell)
        assert layout.n == 128 and not any(layout.qpartial[row - 1] for row in reserved)
        gate_free = [
            row for row in reserved
            if layout.qnext[row - 2] and layout.qpartial[row + 1]
        ]
        assert gate_free, "no partial round was moved past a reserved row"
        for row in gate_free:
            assert assignment.a[row - 1] == assignment.a[row + 1]
        pk, vk = setup(srs, layout)
        assert verify(vk, assignment.public_inputs, prove(pk, assignment), point)

    def test_gate_free_rows_that_overflow_n_double_it(self, srs):
        """61 partial rounds: 123 gates, a public input and three reserved
        rows fill n = 128 exactly (``linked_size``, the cost model's
        sizing), but the gate-free rows a partial round moves past a
        reserved row push the gates over, so compile doubles n."""
        entries, rho = [11, 22, 33, 44], 5
        point = commit_message(srs, entries, rho)
        builder = CircuitBuilder()
        wires = [builder.var(v) for v in entries]
        builder.link(wires, point, rho)
        x, s1, s2 = wires[:3]
        for k in range(61):
            x, s1, s2 = builder.poseidon_partial_round(x, s1, s2, k)
        builder.assert_equal(x, builder.public_input(builder.value(x)))
        assert linked_size(1, builder.num_gates, [4]) == 128
        layout, assignment = builder.compile()
        assert layout.n == 256
        pk, vk = setup(srs, layout)
        assert verify(vk, assignment.public_inputs, prove(pk, assignment), point)


class TestFoldSkipsIdentityKeyPoints:
    def test_the_fold_is_what_fold_terms_counts(self, honest, monkeypatch):
        """pi_k's key has no qM row: [qM] is the identity and the fold
        leaves it out — 23 terms, not 24; [qC] (a unit term) stays."""
        _layout, _pk, vk, assignment, proof, point = honest
        seen = []
        real = Engine.fold_pairing_check

        def spy(engine, tau_side, one_side, g2_tau, g2):
            seen.append(tau_side + one_side)
            return real(engine, tau_side, one_side, g2_tau, g2)

        monkeypatch.setattr(Engine, "fold_pairing_check", spy)
        member = (vk, assignment.public_inputs, proof, point)
        assert verify(*member)
        (terms,) = seen
        assert len(terms) == fold_terms([member]) == 23
        assert not any(p.inf for p, _ in terms) and any(p == vk.c_qc for p, _ in terms)

    def test_a_forged_proof_fails_under_a_key_with_zero_columns(self, srs):
        """The honest key has no qM row, so its [qM] is the identity the
        fold skips.  A cheater gives the false statement 7 + 7 = 15 a qM
        term its witness satisfies (qM = 1/49 on that row) and proves it
        with the honest key's transcript: the honest key rejects it."""

        def circuit(total, qm=0):
            builder = CircuitBuilder()
            x = builder.public_input(7)
            claimed = builder.public_input(total)
            out = builder.var(total)
            builder.gate(a=x, b=x, c=out, ql=1, qr=1, qo=-1, qm=qm)
            builder.assert_equal(out, claimed)
            return builder.compile(check=False)

        layout, assignment = circuit(14)
        pk, vk = setup(srs, layout)
        assert vk.c_qm.inf and vk.c_q3.inf
        assert verify(vk, assignment.public_inputs, prove(pk, assignment))
        forged_layout, false = circuit(15, qm=fr_inv(49))
        forged_layout.check(false)  # the false witness satisfies the forged circuit
        forged_pk, _ = setup(srs, forged_layout)
        forged = prove(dataclasses.replace(forged_pk, vk=vk), false)
        assert not verify(vk, false.public_inputs, forged)


class TestR1CSCounterpart:
    def test_the_r1cs_round_matches_and_zkcp_does_not_grow(self):
        """The R1CS builder's partial round is five constraints (x^2, x^3,
        and one product per output), against seven in the old layout's
        S-box and three lane updates: ZKCP's relation shrinks by 119."""
        builder = R1CSBuilder()
        digest = poseidon_hash_gadget(builder, [builder.var(K_V)])
        builder.compile()
        assert builder.value(digest) == poseidon_hash([K_V])
        counts = []
        for entries in (1, 4):
            builder = R1CSBuilder()
            build_zkcp_circuit(builder, [0] * entries, 0, 0, [0] * entries, 0)
            counts.append(builder.compile(check=False)[0].num_constraints)
        assert counts == [903 - 119, 2007 - 119]
