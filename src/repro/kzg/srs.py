"""Universal structured reference string (powers of tau).

ZKDET uses Plonk precisely because its SRS is *universal* (one string for
every circuit up to a size bound) and *updatable* (anyone can re-randomise
it; security holds if a single contributor was honest).  The paper uses the
Perpetual Powers of Tau ceremony run by Zcash/Semaphore; offline, we
reproduce the ceremony itself: :class:`Ceremony` chains contributions, each
with a publicly checkable update proof.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SRSError
from repro.backend import get_engine
from repro.curve.g1 import G1
from repro.curve.g2 import G2
from repro.field.fr import MODULUS as R, random_scalar


@dataclass(frozen=True)
class SRS:
    """Powers of tau: [tau^i]_1 for i <= max_degree, plus [1]_2 and [tau]_2.

    Attributes:
        g1_powers: ``[G, tau*G, tau^2*G, ...]`` (length ``max_degree + 1``).
        g2: the G2 generator ``[1]_2``.
        g2_tau: ``[tau]_2`` — the only G2 power KZG verification needs.
    """

    g1_powers: tuple
    g2: G2
    g2_tau: G2

    @property
    def max_degree(self) -> int:
        """Largest polynomial degree this SRS can commit to."""
        return len(self.g1_powers) - 1

    @staticmethod
    def generate(max_degree: int, tau: int | None = None) -> "SRS":
        """Generate a fresh SRS from a (then discarded) secret ``tau``.

        A single-party trusted setup; :class:`Ceremony` builds the
        multi-party version on top of repeated calls to :meth:`update`.
        The engine's fixed-base window table for the G1 generator plus a
        single batched affine conversion replace the per-power double-and-add
        + inversion of the naive construction; [tau]_2 is one product.
        """
        if max_degree < 1:
            raise SRSError("SRS degree must be at least 1")
        engine = get_engine()
        secret = random_scalar(nonzero=True) if tau is None else tau % R
        if secret == 0:
            raise SRSError("tau must be non-zero")
        gen = G1.generator()
        scalars = []
        acc = 1
        for _ in range(max_degree + 1):
            scalars.append(acc)
            acc = acc * secret % R
        jacs = [engine.fixed_base_mul_jac(gen, s) for s in scalars]
        powers = G1.batch_from_jacobian(jacs)
        return SRS(tuple(powers), G2.generator(), G2.generator() * secret)

    def update(self, rho: int | None = None) -> tuple["SRS", "UpdateProof"]:
        """Re-randomise the SRS with a fresh secret ``rho`` (tau' = rho*tau).

        Returns the updated SRS and a proof that the update was well-formed
        (knowledge of rho relative to the previous string).
        """
        secret = random_scalar(nonzero=True) if rho is None else rho % R
        if secret == 0:
            raise SRSError("update secret must be non-zero")
        acc = 1
        powers = []
        for p in self.g1_powers:
            powers.append(p * acc)
            acc = acc * secret % R
        new = SRS(tuple(powers), self.g2, self.g2_tau * secret)
        proof = UpdateProof(
            rho_g1=G1.generator() * secret,
            rho_g2=G2.generator() * secret,
            after_tau_g1=new.g1_powers[1],
        )
        return new, proof

    def truncate(self, max_degree: int) -> "SRS":
        """Return a prefix of this SRS supporting a smaller degree bound."""
        if max_degree > self.max_degree:
            raise SRSError(
                "cannot truncate degree %d SRS to %d" % (self.max_degree, max_degree)
            )
        return SRS(self.g1_powers[: max_degree + 1], self.g2, self.g2_tau)

    def is_well_formed(self) -> bool:
        """Check every power of the string with one folded pairing check.

        The string is well formed iff it starts at the generators and
        e([tau^i]_1, [tau]_2) == e([tau^(i+1)]_1, [1]_2) for every
        i < max_degree.  Random non-zero weights rho_i fold those
        equations into one (small-exponent batching, as in
        :meth:`Ceremony.verify_transcript`): two G1 MSMs and a two-pair
        product check, whatever the size; a string with any power off
        the chain passes with probability ~max_degree / r.
        """
        engine = get_engine()
        if self.g1_powers[0] != G1.generator() or self.g2 != G2.generator():
            return False
        weights = [random_scalar(nonzero=True) for _ in range(self.max_degree)]
        low = engine.msm_g1(self.g1_powers[:-1], weights)
        high = engine.msm_g1(self.g1_powers[1:], weights)
        return engine.pairing_check([(low, self.g2_tau), (-high, self.g2)])


@dataclass(frozen=True)
class UpdateProof:
    """Publicly verifiable evidence that an SRS update used a known rho."""

    rho_g1: G1
    rho_g2: G2
    after_tau_g1: G1


@dataclass
class Ceremony:
    """A simulated Perpetual-Powers-of-Tau ceremony.

    Each contribution multiplies the trapdoor by a fresh secret.  The final
    SRS is secure if at least one contributor discarded their secret —
    exactly the trust model the paper inherits from Zcash/Semaphore.
    """

    srs: SRS
    transcript: list[UpdateProof] = field(default_factory=list)

    @staticmethod
    def bootstrap(max_degree: int) -> "Ceremony":
        """Start a ceremony from the canonical tau = 1 string (no secret)."""
        return Ceremony(SRS.generate(max_degree, tau=1))

    def contribute(self, rho: int | None = None) -> UpdateProof:
        """Apply one participant's contribution and record its proof."""
        self.srs, proof = self.srs.update(rho)
        self.transcript.append(proof)
        return proof

    def verify_transcript(self) -> bool:
        """Verify every recorded update proof against the chain of strings.

        Checks (i) each update's rho is consistent across G1/G2, batched:
        random weights w_i fold all k consistency equations into the
        single check e(sum w_i rho_g1_i, [1]_2) == e([1]_1, sum w_i
        rho_g2_i) — one G1 MSM, one G2 MSM and two pairings instead of 2k
        pairings (standard small-exponent batching); and (ii) the chain
        links: the post-update [tau]_1 matches the pre-update [tau]_1
        scaled by rho (verified in the exponent via pairings).
        """
        engine = get_engine()
        if self.transcript:
            # Zero weights would drop an equation from the batch, so
            # sample from F_r^*.
            weights = [random_scalar(nonzero=True) for _ in self.transcript]
            folded_g1 = engine.msm_g1([p.rho_g1 for p in self.transcript], weights)
            folded_g2 = engine.msm_g2([p.rho_g2 for p in self.transcript], weights)
            if not engine.pairing_check(
                [
                    (folded_g1, G2.generator()),
                    (-G1.generator(), folded_g2),
                ]
            ):
                return False
        prev_tau_g1 = G1.generator()  # bootstrap tau = 1
        for proof in self.transcript:
            # Chain link: e(tau'_1, [1]_2) == e(tau_1, rho_2).
            if not engine.pairing_check(
                [
                    (proof.after_tau_g1, G2.generator()),
                    (-prev_tau_g1, proof.rho_g2),
                ]
            ):
                return False
            prev_tau_g1 = proof.after_tau_g1
        # Finally the claimed SRS must carry the chained tau, in every power.
        return self.srs.g1_powers[1] == prev_tau_g1 and self.srs.is_well_formed()
