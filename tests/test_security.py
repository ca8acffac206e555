"""Security-property tests mapping to Section V of the paper.

Theorem 5.1 (transformation protocol): integrity — forged statements are
rejected (see also test_core_protocols) — and privacy — proofs and public
artefacts carry no plaintext or key information.
Theorem 5.2 (exchange): buyer/seller fairness (test_core_protocols) and
the key-privacy property unique to ZKDET.
Plus the underlying assumptions: binding/hiding of the KZG data
commitment (Defs 2.2-2.3) and cipher key/position sensitivity.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.field.fr import MODULUS as R, random_scalar
from repro.kzg import SRS, commit, commit_message
from repro.kzg.commit import message_poly
from repro.plonk.transcript import Transcript
from repro.primitives import MiMC, mimc_encrypt_ctr

elements = st.integers(min_value=0, max_value=R - 1)


class TestCommitmentAssumptions:
    """Definitions 2.2 (binding) and 2.3 (hiding) for the data commitment
    [d] = Commit(m; rho) (:func:`repro.kzg.commit.commit_message`)."""

    @pytest.fixture(scope="class")
    def srs(self):
        return SRS.generate(16, tau=271828)

    @given(st.lists(elements, min_size=1, max_size=4), elements)
    @settings(max_examples=20, deadline=None)
    def test_binding_under_any_blinder(self, srs, message, fake_blinder):
        o = 1 + fake_blinder % (R - 2)
        c = commit_message(srs, message, o)
        altered = list(message)
        altered[0] = (altered[0] + 1) % R
        # No (message', blinder') pair we can cheaply find opens c.
        assert commit_message(srs, altered, o) != c
        if fake_blinder != o:
            assert commit_message(srs, message, fake_blinder) != c

    def test_hiding_distribution(self, srs):
        # Across many commitments to the SAME message, points look unique
        # (a collision would indicate blinder reuse / low entropy).
        points = {commit_message(srs, [7], random_scalar(nonzero=True)) for _ in range(64)}
        assert len(points) == 64

    def test_commitment_does_not_embed_message(self, srs):
        message = [123456789]
        c = commit_message(srs, message, random_scalar(nonzero=True))
        assert message[0] not in (c.x, c.y)
        # The blinder's Z_{H_m} term moves the point off the unblinded one.
        assert c != commit(srs, message_poly(message, 0))


class TestCipherAssumptions:
    def test_keystream_unrelated_across_keys(self):
        c1 = mimc_encrypt_ctr(1, [0, 0, 0, 0], nonce=5)
        c2 = mimc_encrypt_ctr(2, [0, 0, 0, 0], nonce=5)
        assert all(a != b for a, b in zip(c1.blocks, c2.blocks))

    def test_single_bit_key_diffusion(self):
        cipher = MiMC()
        out1 = cipher.encrypt_block(0b1000, 42)
        out2 = cipher.encrypt_block(0b1001, 42)
        # Outputs differ in many bits (avalanche), not just the low bit.
        assert bin(out1 ^ out2).count("1") > 60

    def test_nonce_reuse_visible_positionally_only(self):
        # Same key+nonce: identical plaintext positions leak equality —
        # the standard CTR caveat — but different positions do not.
        ct = mimc_encrypt_ctr(9, [5, 5], nonce=1)
        assert ct.blocks[0] != ct.blocks[1]


class TestProofPrivacy:
    """Privacy side of Theorem 5.1: public artefacts leak nothing."""

    @pytest.mark.slow
    def test_pi_e_reveals_no_plaintext_bytes(self, snark_ctx):
        from repro.core.tokens import DataAsset
        from repro.core.transform_protocol import prove_encryption

        secret = 0xDEADBEEFCAFE
        asset = DataAsset.create([secret, secret], key=5, nonce=6)
        pi_e = prove_encryption(snark_ctx, asset)
        blob = pi_e.proof.to_bytes()
        assert secret.to_bytes(6, "little") not in blob
        assert asset.key.to_bytes(4, "little") * 2 not in blob
        # Publics contain ciphertext + commitments, never plaintext.
        assert secret not in pi_e.public_inputs

    @pytest.mark.slow
    def test_proofs_are_rerandomised(self, snark_ctx):
        """Zero-knowledge blinding: two proofs of the same statement are
        unlinkable at the byte level."""
        from repro.core.tokens import DataAsset
        from repro.core.transform_protocol import prove_encryption

        asset = DataAsset.create([1, 2], key=5, nonce=6)
        p1 = prove_encryption(snark_ctx, asset)
        p2 = prove_encryption(snark_ctx, asset)
        assert p1.proof.to_bytes() != p2.proof.to_bytes()


class TestTranscript:
    def test_deterministic_and_order_sensitive(self):
        t1 = Transcript(b"x")
        t1.append_scalar(b"a", 1)
        t1.append_scalar(b"b", 2)
        t2 = Transcript(b"x")
        t2.append_scalar(b"a", 1)
        t2.append_scalar(b"b", 2)
        assert t1.challenge(b"c") == t2.challenge(b"c")
        t3 = Transcript(b"x")
        t3.append_scalar(b"b", 2)
        t3.append_scalar(b"a", 1)
        assert t3.challenge(b"c") != t1.challenge(b"c")

    def test_domain_separation(self):
        assert Transcript(b"x").challenge(b"c") != Transcript(b"y").challenge(b"c")
        t = Transcript(b"x")
        c1 = t.challenge(b"c")
        c2 = t.challenge(b"c")  # state evolves between challenges
        assert c1 != c2

    def test_labels_matter(self):
        t1 = Transcript(b"x")
        t1.append_bytes(b"label1", b"data")
        t2 = Transcript(b"x")
        t2.append_bytes(b"label2", b"data")
        assert t1.challenge(b"c") != t2.challenge(b"c")

    def test_point_absorption(self):
        from repro.curve import G1

        t1 = Transcript(b"x")
        t1.append_point(b"p", G1.generator())
        t2 = Transcript(b"x")
        t2.append_point(b"p", G1.generator() * 2)
        assert t1.challenge(b"c") != t2.challenge(b"c")

    @given(st.binary(max_size=64))
    @settings(max_examples=20)
    def test_challenges_in_field(self, data):
        t = Transcript(b"x")
        t.append_bytes(b"d", data)
        assert 0 <= t.challenge(b"c") < R
