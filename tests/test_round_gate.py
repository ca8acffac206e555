"""The MiMC round gate and its shifted-wire opening.

A row whose selector qround is 1 proves one MiMC round: with t = a + b,
``c = t^3`` and ``a(omega X) = c^2 t - qC``, so the round's x^7 lands in
the next row's a slot (DESIGN.md, "One MiMC round per row").  Its proofs
carry one more evaluation, a(zeta omega), batched into the ``W_zeta_omega``
opening.  Covered here: a wrong round fails the layout check and, proved
under a key that leaves it out, the verifier; a round gate that would
wrap to row 0 is refused; a round's output passes through a reserved
link row; a proof whose shape is not its key's is a structural reject;
the verifier's per-key accounting; and layouts without the gates that
read the next row keep their bytes.  The Poseidon partial-round gate,
which reads all three wires of the next row, is ``test_poseidon_gate.py``.
"""

import dataclasses
import hashlib
import itertools

import pytest

from repro.backend import get_engine
from repro.core import exchange as exchange_module
from repro.core.exchange import build_key_negotiation_circuit, key_negotiation_keys
from repro.core.transform_protocol import build_encryption_circuit, prove_encryption
from repro.curve.g1 import G1
from repro.errors import CircuitError, SerializationError, UnsatisfiedConstraintError
from repro.field.fr import MODULUS as R
from repro.gadgets.mimc import mimc_ctr_encrypt
from repro.kzg import SRS, commit_message, commit_scalar
from repro.plonk import CircuitBuilder, Proof, batch_verify, prove, prover, setup, verify
from repro.plonk.circuit import SHIFTED_SELECTORS, reserved_rows
from repro.plonk.keys import VerifyingKey
from repro.plonk.transcript import Transcript
from repro.plonk.verifier import proof_terms, verification_group_operations
from repro.primitives.hashing import field_hash
from tests import poseidon_gadget_oracle
from tests.test_plonk import _round_circuit

WRONG_ROUND = 3
TAU = 987654321


class _OneWrongRound(CircuitBuilder):
    """Adds 1 to one round's output; every later round is computed
    honestly from it, as a cheating prover would."""

    def __init__(self, wrong: int):
        super().__init__()
        self._wrong, self._rounds = wrong, 0

    def mimc_round(self, x, key, constant):
        out = super().mimc_round(x, key, constant)
        if self._rounds == self._wrong:
            self._values[out] = (self._values[out] + 1) % R
        self._rounds += 1
        return out


@pytest.fixture(scope="module")
def srs():
    return SRS.generate(72, tau=TAU)


@pytest.fixture(scope="module")
def honest(srs):
    layout, assignment = _round_circuit()
    pk, vk = setup(srs, layout)
    proof = prove(pk, assignment)
    assert verify(vk, assignment.public_inputs, proof)
    return layout, pk, vk, assignment, proof


class TestSoundness:
    def test_one_wrong_round_fails_the_layout_check(self, honest):
        layout = honest[0]
        wrong_layout, assignment = _round_circuit(_OneWrongRound(WRONG_ROUND), check=False)
        assert wrong_layout.digest() == layout.digest()  # same circuit, other witness
        row = layout.ell + WRONG_ROUND  # the round rows follow the public input
        assert layout.qround[row]
        with pytest.raises(UnsatisfiedConstraintError, match="gate %d not" % row):
            layout.check(assignment)

    def test_one_wrong_round_forced_through_the_prover_fails_verify(self, srs, honest, monkeypatch):
        """Prove the wrong witness under a proving key whose layout leaves
        that round out (its qround and qC zeroed) but whose transcript is
        the honest key's: the prover emits a proof, and the verifier, which
        holds the honest [qround] and [qC], rejects it."""
        layout, _pk, vk, _assignment, _proof = honest
        _, assignment = _round_circuit(_OneWrongRound(WRONG_ROUND), check=False)
        row = layout.ell + WRONG_ROUND

        def cleared(column):
            return column[:row] + (0,) + column[row + 1 :]

        stripped = dataclasses.replace(layout, qround=cleared(layout.qround), qc=cleared(layout.qc))
        stripped.check(assignment)  # the witness satisfies the stripped circuit
        stripped_pk, stripped_vk = setup(srs, stripped)
        forced = prove(dataclasses.replace(stripped_pk, vk=vk), assignment)
        publics = assignment.public_inputs
        assert not verify(vk, publics, forced)
        # It is a proof of the stripped circuit: with the transcript pinned
        # to the honest key's, the stripped key accepts it.
        monkeypatch.setattr(VerifyingKey, "digest", lambda self, d=vk.digest(): d)
        assert verify(stripped_vk, publics, forced)
        assert not verify(vk, publics, forced)

    def test_the_shifted_opening_covers_a(self, honest, monkeypatch):
        """W_zeta_omega opens z and, weighted by v, a at zeta omega: with
        the SRS trapdoor, (tau - zeta omega) [W_zw] is [z] - z(zeta omega)
        + v ([a] - a(zeta omega)).  A proof whose second opening left a out
        would leave a(zeta omega) a free value the prover picks after zeta."""
        _layout, _pk, vk, assignment, proof = honest
        drawn = {}
        challenge = Transcript.challenge

        def recording(self, label):
            drawn[label] = challenge(self, label)
            return drawn[label]

        monkeypatch.setattr(Transcript, "challenge", recording)
        assert verify(vk, assignment.public_inputs, proof)
        point = drawn[b"zeta"] * get_engine().domain(vk.n).omega % R
        g = G1.generator()
        opened = proof.c_z + g * (-proof.z_omega_bar % R)
        opened = opened + (proof.c_a + g * (-proof.a_omega_bar % R)) * drawn[b"v"]
        assert proof.w_zeta_omega * ((TAU - point) % R) == opened

    def test_a_round_gate_on_the_last_row_is_refused(self, honest):
        layout = honest[0]
        builder = CircuitBuilder()
        builder.mimc_round(builder.var(2), builder.var(1), 0)
        with pytest.raises(CircuitError, match="last row"):
            builder.compile()
        last = layout.qround[:-1] + (1,)
        with pytest.raises(CircuitError, match="last row"):
            dataclasses.replace(layout, qround=last)

    def test_the_gate_after_a_round_gate_takes_its_output(self):
        builder = CircuitBuilder()
        key, x = builder.var(1), builder.var(2)
        out = builder.mimc_round(x, key, 0)
        with pytest.raises(CircuitError, match="a slot"):
            builder.add(key, out)
        builder.add(out, key)  # the output in the a slot is accepted

    def test_a_round_output_passes_through_a_reserved_row(self, srs):
        """Three linked entries reserve rows n/4, n/2 and 3n/4; a round
        gate before one writes its output into that row's free a slot, and
        the proof verifies."""
        key, rho, data_rho, plaintext = 99, 5, 6, [10, 20, 30]
        key_point = commit_scalar(srs, key, rho)
        data_point = commit_message(srs, plaintext, data_rho)
        builder = CircuitBuilder()
        nonce = builder.public_input(1000)
        k = builder.var(key)
        pts = [builder.var(p) for p in plaintext]
        builder.link(k, key_point, rho)
        builder.link(pts, data_point, data_rho)
        mimc_ctr_encrypt(builder, k, pts, nonce, rounds=8)
        layout, assignment = builder.compile()
        passed = [r for r in reserved_rows(layout.n, 4, layout.ell) if layout.qround[r - 1]]
        assert passed, "no round gate sits before a reserved row"
        for row in passed:
            assert layout.qround[row + 1] and assignment.a[row] == assignment.a[row + 1]
        pk, vk = setup(srs, layout)
        assert verify(vk, assignment.public_inputs, prove(pk, assignment), (key_point, data_point))


@pytest.fixture(scope="module")
def exchange(snark_ctx, pik_bundles):
    """Three pi_k members (the seller's bundles) and one pi_e member for
    their asset, all under the session SRS."""
    asset, bundles = pik_bundles
    key_point = asset.key_commitment(snark_ctx.srs)
    pik_vk = key_negotiation_keys(snark_ctx).vk
    piks = [
        (pik_vk, [b.masked_key, b.verification_hash], Proof.from_bytes(b.proof_bytes), key_point)
        for b in bundles
    ]
    pi_e = prove_encryption(snark_ctx, asset)
    builder = CircuitBuilder()
    zeros = [0] * len(asset.plaintext)
    build_encryption_circuit(builder, zeros, 0, 0, 0, zeros, 0, 0, 0)
    pi_e_vk = snark_ctx.keys_for(builder.compile(check=False)[0]).vk
    member = (pi_e_vk, pi_e.public_inputs, pi_e.proof, (pi_e.key_commitment, pi_e.data_commitment))
    return piks, member


class TestProofShape:
    def test_from_bytes_reads_every_shape(self, honest, exchange):
        proof = honest[4]
        data = proof.to_bytes()
        assert (len(data), proof.size_bytes, proof.num_field_elements) == (800, 800, 7)
        assert Proof.from_bytes(data) == proof
        pik = exchange[0][0][2]
        assert (len(pik.to_bytes()), pik.size_bytes, pik.num_field_elements) == (864, 864, 9)
        assert Proof.from_bytes(pik.to_bytes()) == pik
        plain = Proof.from_bytes(data[:768])
        assert (plain.shifted, plain.size_bytes, plain.num_field_elements) == ((), 768, 6)
        assert plain.to_bytes() == data[:768]
        for length in (767, 769, 799, 801, 832, 863, 865):
            with pytest.raises(SerializationError):
                Proof.from_bytes(data[:length] if length < 800 else data + b"\0" * (length - 800))

    def test_a_shape_that_is_not_the_keys_is_a_structural_reject(self, honest, exchange):
        _layout, _pk, vk, assignment, proof = honest
        publics = assignment.public_inputs
        short = Proof.from_bytes(proof.to_bytes()[:768])
        assert proof_terms(vk, publics, short) is None
        assert verify(vk, publics, short) is False
        pik_vk, statement, pik, point = exchange[0][0]
        a_only = Proof.from_bytes(pik.to_bytes()[:800])
        assert proof_terms(pik_vk, statement, a_only, point) is None
        assert verify(pik_vk, statement, a_only, point) is False

    def test_a_mixed_batch_folds_pi_k_and_a_round_gate_member(self, exchange):
        piks, member = exchange
        vk, publics, proof, links = member
        assert (vk.shifted, piks[0][0].shifted) == ((0,), (0, 1, 2))
        assert batch_verify(piks + [member])
        assert batch_verify([member] + piks)
        unshifted = proof.replace(a_omega_bar=None)
        assert batch_verify(piks + [(vk, publics, unshifted, links)]) is False
        pik_vk, statement, pik, point = piks[1]
        dropped = pik.replace(c_omega_bar=None)
        assert batch_verify([piks[0], (pik_vk, statement, dropped, point), member]) is False
        nudged = proof.replace(a_omega_bar=(proof.a_omega_bar + 1) % R)
        assert batch_verify(piks + [(vk, publics, nudged, links)]) is False


class TestVerifierAccounting:
    def test_pi_k_pays_for_its_three_shifted_wires(self, exchange):
        """pi_k: 23 fold terms less the two unit ones, and three openings
        at zeta omega on top of the 768-byte proof."""
        pik_vk = exchange[0][0][0]
        assert verification_group_operations(pik_vk) == {
            "pairings": 2,
            "miller_loops": 2,
            "final_exponentiations": 1,
            "g1_scalar_mults": 21,
            "field_ops_per_public_input": 3,
            "proof_size_bytes": 864,
        }

    def test_a_round_gate_key_pays_one_term(self, exchange):
        """A 1-entry pi_e: eleven terms of its own, its key's points but
        [qM] and [q3] (no row multiplies two wires, so both are the
        identity the fold leaves out), [qround], and its two links."""
        _piks, member = exchange
        vk = member[0]
        assert vk.c_qm.inf and vk.c_q3.inf and not vk.c_qround.inf
        ops = verification_group_operations(vk)
        assert (ops["g1_scalar_mults"], ops["proof_size_bytes"]) == (20, 800)
        assert ops["proof_size_bytes"] == member[2].size_bytes == len(member[2].to_bytes())


class TestUnusedGateKeepsItsBytes:
    #: A pi_k (n = 512) under SRS tau 987654321 with the blinders pinned as
    #: in test_plonk's GOLDEN: layout digest, vk digest and sha256 of the
    #: proof bytes, recorded at 8427593, the parent of the commit that
    #: added the round gate.
    PI_K = (
        "ca18824dfe6db623f0b2a72ff845c1056c6e96b5f8d52b8870a01dc0ede759ad",
        "d57c81e7363ee480a7079932ddaae1830cc8aa1b15f138a595487c0fae615ed6",
        "878605fcaf626f9dd25927a2a72cd5c0755aa33b34d71d12c3e5b9f2b9c6015d",
    )

    def test_pi_k_hashes_proves_and_verifies_as_before(self, monkeypatch):
        """pi_k laid out as before the partial-round gate (its Poseidon
        from ``tests/poseidon_gadget_oracle.py``): a layout that uses none
        of the gates that read the next row keeps its bytes."""
        monkeypatch.setattr(
            exchange_module, "poseidon_hash_gadget", poseidon_gadget_oracle.poseidon_hash_gadget
        )
        srs = SRS.generate(520, tau=987654321)
        key, rho, k_v = 1234567, 7654321, 424242
        point = commit_scalar(srs, key, rho)
        builder = CircuitBuilder()
        build_key_negotiation_circuit(builder, (key + k_v) % R, point, field_hash(k_v), key, rho, k_v)
        layout, assignment = builder.compile()
        assert (layout.n, layout.shifted) == (512, ())
        pk, vk = setup(srs, layout)
        assert vk.shifted == () and not set(SHIFTED_SELECTORS) & set(pk.q_polys)
        blinders = itertools.count(1000003, 7919)
        monkeypatch.setattr(prover, "random_scalar", lambda nonzero=False: next(blinders))
        proof = prove(pk, assignment)
        assert proof.shifted == ()
        assert verify(vk, assignment.public_inputs, proof, point)
        digests = (layout.digest().hex(), vk.digest().hex(), hashlib.sha256(proof.to_bytes()).hexdigest())
        assert digests == self.PI_K

