"""Tests for the powers-of-tau SRS, ceremony, and KZG commitments."""

import hashlib

import pytest

from repro.curve import G1
from repro.errors import SRSError
from repro.field.fr import MODULUS as R
from repro.kzg import SRS, Ceremony, commit, open_at, verify_opening


@pytest.fixture(scope="module")
def srs():
    return SRS.generate(16, tau=123456789)


class TestSRS:
    def test_generate_shape(self, srs):
        assert srs.max_degree == 16
        assert len(srs.g1_powers) == 17
        assert srs.g1_powers[0] == G1.generator()

    def test_powers_are_consistent(self, srs):
        tau = 123456789
        assert srs.g1_powers[3] == G1.generator() * pow(tau, 3, R)

    def test_generate_is_pinned(self):
        """[tau]_2 and the G1 powers of one string, recorded when [tau]_2
        was still a product on a G2 fixed-base table."""
        srs = SRS.generate(40, tau=0xD1CE)
        assert srs.g2_tau.to_bytes().hex() == (
            "6edc9df4cd3aa69935a611f770167da5c8c39e109ee7c92f0f63e07520d02f2a"
            "70a4b861391493a75a9392c15b1732e653d2d06c53649bb069f2a2a77627bf05"
            "7b090ccf7bad4f4eb505ecb3c32760ea9d72397be4ef4894a0b31caa379e1d2e"
            "1eba947b2fbadb0609f335ceda996a52f8935d1add4070963329936f77d56829"
        )
        powers = b"".join(p.to_bytes() for p in srs.g1_powers)
        assert hashlib.sha256(powers).hexdigest() == (
            "d724f5999af4cbd957ad2263dab954140455bf06b9ffaad19193cc913e553675"
        )

    def test_rejects_bad_parameters(self):
        with pytest.raises(SRSError):
            SRS.generate(0)
        with pytest.raises(SRSError):
            SRS.generate(4, tau=0)

    def test_truncate(self, srs):
        small = srs.truncate(4)
        assert small.max_degree == 4
        assert small.g1_powers == srs.g1_powers[:5]
        with pytest.raises(SRSError):
            srs.truncate(100)

    @pytest.mark.slow
    def test_well_formedness_pairing_check(self, srs):
        assert srs.is_well_formed()
        bad = SRS((G1.generator(), G1.generator() * 5, G1.generator() * 7), srs.g2, srs.g2_tau)
        assert not bad.is_well_formed()

    @pytest.mark.slow
    def test_every_corrupted_power_is_rejected(self, srs):
        """One fold covers the whole string: no index is left unchecked
        (the four-power spot check passed a corrupted ``g1_powers[9]``)."""
        g = G1.generator()
        for i in range(len(srs.g1_powers)):
            powers = list(srs.g1_powers)
            powers[i] = powers[i] + g
            assert not SRS(tuple(powers), srs.g2, srs.g2_tau).is_well_formed(), i
        powers = list(srs.g1_powers)
        powers[9], powers[10] = powers[10], powers[9]
        assert not SRS(tuple(powers), srs.g2, srs.g2_tau).is_well_formed()
        assert not SRS(srs.g1_powers, srs.g2 * 2, srs.g2_tau).is_well_formed()
        assert not SRS(srs.g1_powers, srs.g2, srs.g2_tau * 2).is_well_formed()


@pytest.mark.slow
class TestCeremony:
    def test_multi_party_ceremony(self):
        ceremony = Ceremony.bootstrap(4)
        ceremony.contribute(rho=111)
        ceremony.contribute(rho=222)
        assert len(ceremony.transcript) == 2
        assert ceremony.verify_transcript()
        # Final tau is the product of contributions.
        assert ceremony.srs.g1_powers[1] == G1.generator() * (111 * 222)

    def test_tampered_transcript_rejected(self):
        ceremony = Ceremony.bootstrap(4)
        ceremony.contribute(rho=111)
        forged = ceremony.transcript[0].__class__(
            rho_g1=G1.generator() * 999,
            rho_g2=ceremony.transcript[0].rho_g2,
            after_tau_g1=ceremony.transcript[0].after_tau_g1,
        )
        ceremony.transcript[0] = forged
        assert not ceremony.verify_transcript()

    def test_corrupted_high_power_rejected(self):
        """The chained tau only pins ``g1_powers[1]``; the final string's
        other powers are checked by :meth:`SRS.is_well_formed`."""
        ceremony = Ceremony.bootstrap(8)
        ceremony.contribute(rho=111)
        powers = list(ceremony.srs.g1_powers)
        powers[6] = powers[6] + G1.generator()
        ceremony.srs = SRS(tuple(powers), ceremony.srs.g2, ceremony.srs.g2_tau)
        assert not ceremony.verify_transcript()

    def test_swapped_srs_rejected(self):
        ceremony = Ceremony.bootstrap(4)
        ceremony.contribute(rho=111)
        ceremony.srs = SRS.generate(4, tau=777)
        assert not ceremony.verify_transcript()


class TestKZG:
    def test_commit_rejects_oversized(self, srs):
        with pytest.raises(SRSError):
            commit(srs, [1] * 20)

    def test_commit_is_homomorphic(self, srs):
        p = [1, 2, 3]
        q = [5, 0, 7, 9]
        cp, cq = commit(srs, p), commit(srs, q)
        from repro.field import poly

        assert commit(srs, poly.add(p, q)) == cp + cq

    @pytest.mark.slow
    def test_open_and_verify(self, srs):
        coeffs = [3, 1, 4, 1, 5, 9, 2, 6]
        c = commit(srs, coeffs)
        value, proof = open_at(srs, coeffs, 42)
        assert verify_opening(srs, c, 42, value, proof)

    @pytest.mark.slow
    def test_verify_rejects_wrong_value(self, srs):
        coeffs = [3, 1, 4, 1, 5]
        c = commit(srs, coeffs)
        value, proof = open_at(srs, coeffs, 7)
        assert not verify_opening(srs, c, 7, value + 1, proof)
        assert not verify_opening(srs, c, 8, value, proof)
        assert not verify_opening(srs, c + G1.generator(), 7, value, proof)
