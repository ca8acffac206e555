"""Tests for MiMC, Poseidon, the KZG data commitment, and codecs."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import FieldError, ReproError
from repro.field import poly
from repro.field.fr import MODULUS as R, root_of_unity
from repro.core.tokens import commitment_digest
from repro.kzg import SRS, commit_message, commit_scalar
from repro.kzg.commit import message_poly, message_slots
from repro.primitives import (
    MiMC,
    bytes_to_elements,
    elements_to_bytes,
    field_hash,
    mimc_decrypt_ctr,
    mimc_encrypt_ctr,
    poseidon_hash,
)
from repro.primitives.poseidon import permute
from tests import poseidon_oracle

elements = st.integers(min_value=0, max_value=R - 1)
#: Lane values as callers may hand them in: the edges, reduced elements, and
#: anything an integer can be (negative, several multiples of R too large).
lanes = st.one_of(st.sampled_from([0, 1, R - 1, R, -1]), elements, st.integers(-(R**3), R**3))


class TestMiMC:
    def test_block_roundtrip(self):
        cipher = MiMC()
        key, block = 12345, 67890
        assert cipher.decrypt_block(key, cipher.encrypt_block(key, block)) == block

    @given(elements, elements)
    @settings(max_examples=5, deadline=None)
    def test_block_roundtrip_property(self, key, block):
        cipher = MiMC(rounds=8)  # fewer rounds keeps the property test fast
        assert cipher.decrypt_block(key, cipher.encrypt_block(key, block)) == block

    def test_permutation_is_keyed(self):
        cipher = MiMC()
        assert cipher.encrypt_block(1, 5) != cipher.encrypt_block(2, 5)
        assert cipher.encrypt_block(1, 5) != cipher.encrypt_block(1, 6)

    def test_ctr_roundtrip(self):
        plaintext = [3, 1, 4, 1, 5, 9, 2, 6]
        ct = mimc_encrypt_ctr(key=777, plaintext=plaintext, nonce=42)
        assert len(ct) == len(plaintext)
        assert ct.blocks != tuple(plaintext)
        assert mimc_decrypt_ctr(777, ct) == plaintext

    def test_ctr_wrong_key_garbles(self):
        plaintext = [3, 1, 4]
        ct = mimc_encrypt_ctr(key=777, plaintext=plaintext, nonce=42)
        assert mimc_decrypt_ctr(778, ct) != plaintext

    def test_ctr_keystream_is_position_dependent(self):
        ct = mimc_encrypt_ctr(key=1, plaintext=[0, 0, 0], nonce=9)
        assert len(set(ct.blocks)) == 3

    def test_first_round_constant_is_zero(self):
        assert MiMC().constants[0] == 0
        assert len(MiMC().constants) == 91


class TestPoseidon:
    def test_permutation_deterministic_and_width_checked(self):
        out1 = permute([1, 2, 3])
        out2 = permute([1, 2, 3])
        assert out1 == out2
        assert out1 != [1, 2, 3]
        with pytest.raises(FieldError):
            permute([1, 2])
        with pytest.raises(FieldError):
            permute([1, 2, 3, 4])

    def test_hash_varies_with_input(self):
        assert poseidon_hash([1, 2]) != poseidon_hash([2, 1])
        assert poseidon_hash([1]) != poseidon_hash([1, 0])  # length tagged
        assert poseidon_hash([]) != poseidon_hash([0])

    def test_hash_long_input(self):
        out = poseidon_hash(list(range(20)))
        assert 0 <= out < R
        assert out == poseidon_oracle.poseidon_hash(list(range(20)))

    def test_known_answers(self):
        """Outputs recorded from ccd2838 (the naive permutation, before the
        lane-coordinate rewrite): every commitment, hash-lock, token digest
        and Merkle root on a chain made before this change stays valid."""
        assert permute([1, 2, 3]) == [
            0x1B433CE71462FB75288483DBFC29412323E7C82E4FF01E47E763466245909AD3,
            0x15D5ED4A7244D0EB1B1D129431A2E6617E6C60B7CB663AA2797A087E7A57FA9,
            0xCBC1B1DC4B679CC3B956980C10E4547E0C5188F442857AB98D77F32446032BF,
        ]
        assert permute([R - 1] * 3) == [
            0x2315955AC7211D22A95673A03C6D3AE94DD4D40E8988F84F43E953553D0DEB5F,
            0xF1A53C028EBFDD091CF5324273C82CFED67A31086CCACDE4CBDF06B7B9526AE,
            0x15488C684E915FA56D94C39579CE7E763C552364D15D3AD04322C8D210FD30C9,
        ]
        hashes = {
            0: 0x26D5B9DECC8A1873C22B8952BE04CEBCB436B6A3580DE902FEEDC2DA1ED47878,
            1: 0x106EF327DC2D1A6F3A37FF1157EF43B2900D54327D6AD0C80F584F8AE0EB05B8,
            2: 0x2958C70A73D7E3F7A32CD22CD131E1D87F26C5C33409FDF784E4C59C5A87DF6C,
            3: 0x2BEC4CDD4FDC0224E84AE65A19C0DB6149C2A4D090CC67BECE3F26B8EDC2DFEA,
            5: 0x83BD66EFFEE82AEEF0BEC4F3248714C5775B65B1D7C409329ACF4019894D91B,
        }
        for count, expected in hashes.items():
            assert poseidon_hash(list(range(1, count + 1))) == expected, count
        assert permute([0, 0, 0])[0] == hashes[0]  # the empty sponge is one permutation
        assert field_hash(42) == 0x2FFE3946F0742C08CA2FEFF68B14FC2BE8995B29CD544336F07C56D2B85C2830
        assert field_hash(1, 2, 3) == hashes[3]
        # field_hash reduces what it is given, once.
        assert field_hash(R + 42) == field_hash(42)
        assert field_hash(-1) == 0xF6577162E216579EA32D49D85EFC2986406909F436872F6D0566F4DAE3070E8

    @given(st.lists(lanes, min_size=3, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_permute_matches_oracle(self, state):
        assert permute(state) == poseidon_oracle.Poseidon.get(3).permute(state)

    @given(st.lists(lanes, max_size=7))
    @settings(max_examples=30, deadline=None)
    def test_hash_matches_oracle(self, inputs):
        expected = poseidon_oracle.poseidon_hash(inputs)
        assert poseidon_hash(inputs) == expected
        assert field_hash(*inputs) == expected

    @given(st.lists(elements, max_size=6), st.lists(elements, max_size=6))
    @settings(max_examples=15, deadline=None)
    def test_no_trivial_collisions(self, a, b):
        if a != b:
            assert poseidon_hash(a) != poseidon_hash(b)


class TestCommitment:
    """The data commitment Commit(m; rho) = [d] of
    :func:`repro.kzg.commit.commit_message`: "opening" is recomputing it."""

    @pytest.fixture(scope="class")
    def srs(self):
        return SRS.generate(16, tau=424242)

    def test_commit_open_roundtrip(self, srs):
        c = commit_message(srs, [1, 2, 3], 5)
        assert c == commit_message(srs, [1, 2, 3], 5)
        # d(X) takes entry j at omega_4^j; the padding entry is 0.
        d = message_poly([1, 2, 3, 0], 5)
        omega = root_of_unity(4)
        assert [poly.evaluate(d, pow(omega, j, R)) for j in range(4)] == [1, 2, 3, 0]

    def test_open_rejects_wrong_message_or_blinder(self, srs):
        c = commit_message(srs, [1, 2, 3], 5)
        assert c != commit_message(srs, [1, 2, 4], 5)
        assert c != commit_message(srs, [1, 2, 3], 6)
        assert c != commit_message(srs, [1, 2, 3, 1], 5)  # the padding entry

    def test_scalar_message(self, srs):
        # A one-entry message is the key's scalar commitment.
        assert commit_message(srs, [42], 9) == commit_scalar(srs, 42, 9)

    def test_hiding_blinder_randomised(self, srs):
        from repro.field.fr import random_scalar

        c1 = commit_message(srs, [7], random_scalar(nonzero=True))
        c2 = commit_message(srs, [7], random_scalar(nonzero=True))
        assert c1 != c2  # fresh blinders

    def test_deterministic_with_fixed_blinder(self, srs):
        assert commit_message(srs, [7, 8], 99) == commit_message(srs, [7, 8], 99)

    @given(st.lists(elements, min_size=1, max_size=5), st.lists(elements, min_size=1, max_size=5))
    @settings(max_examples=15, deadline=None)
    @example(m1=[0, 0, 0], m2=[0, 0, 0, 0])
    @example(m1=[1, 2, 3], m2=[1, 2, 3, 0])
    def test_binding_property(self, srs, m1, m2):
        """[d] binds the message padded with zeros to m, not its entry
        count; the digest a token records binds both."""

        def padded(m):
            return m + [0] * (message_slots(len(m)) - len(m))

        c1, c2 = commit_message(srs, m1, 5), commit_message(srs, m2, 5)
        assert (c1 == c2) == (padded(m1) == padded(m2))
        d1, d2 = commitment_digest(c1, len(m1)), commitment_digest(c2, len(m2))
        assert (d1 == d2) == (m1 == m2)


class TestEncoding:
    @given(st.binary(max_size=200))
    @settings(max_examples=50)
    def test_roundtrip(self, data):
        assert elements_to_bytes(bytes_to_elements(data)) == data

    def test_elements_fit_field(self):
        elems = bytes_to_elements(b"\xff" * 100)
        assert all(0 <= e < R for e in elems)

    def test_decode_rejects_malformed(self):
        with pytest.raises(ReproError):
            elements_to_bytes([])
        with pytest.raises(ReproError):
            elements_to_bytes([100])  # claims 100 bytes but no chunks
        with pytest.raises(ReproError):
            elements_to_bytes([1, R])

    def test_decode_rejects_what_encode_never_emits(self):
        """ROADMAP 3(i): the decoder is injective.  An element past the
        31 payload bytes was a bare ``OverflowError``; non-zero bytes past
        the length prefix were dropped, so two lists decoded to ``b"B"``."""
        with pytest.raises(ReproError):
            elements_to_bytes([31, 1 << 250])
        assert elements_to_bytes([1, 0x42]) == b"B"
        with pytest.raises(ReproError):
            elements_to_bytes([1, 0x4142])

    @given(
        st.lists(
            st.one_of(st.integers(-1, 70), st.sampled_from([1 << 248, R - 1, R]), elements),
            max_size=4,
        )
    )
    @settings(max_examples=200)
    def test_decode_is_injective(self, elems):
        try:
            data = elements_to_bytes(elems)
        except ReproError:
            return
        assert bytes_to_elements(data) == elems


class TestFieldHash:
    def test_multi_arg(self):
        assert field_hash(1, 2) != field_hash(2, 1)
        assert field_hash(5) == field_hash(5)
