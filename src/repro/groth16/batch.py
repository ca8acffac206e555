"""Batched Groth16 verification: k proofs, one shared final exponentiation.

Mirrors the random-linear-combination fold of :mod:`repro.plonk.batch`.
A single Groth16 proof checks

    e(A, B) * e(-vk_x, gamma) * e(-C, delta) * e(-alpha, beta) == 1.

Raising the i-th equation to an independent random weight r_i and
multiplying gives

    prod_i e(r_i A_i, B_i)
      * e(-sum r_i vk_x_i, gamma)
      * e(-sum r_i C_i, delta)
      * e(-(sum r_i) alpha, beta)  == 1,

which holds for random r iff every member equation holds (standard
small-exponent batching).  The gamma/delta/alpha-beta legs fold into
*three* pairs regardless of k because their G2 sides are fixed by the
verifying key; only the A_i/B_i legs stay per-proof, since each proof
carries its own G2 element B_i (prepared, and subgroup-checked, per
proof).  Batch cost is therefore k + 3 pairs in one interleaved Miller
loop — 64 accumulator squarings whatever k — and one final
exponentiation, against k three-pair loops and k final exponentiations
for one-by-one verification — the amortisation that keeps ZKCP-style
settlement comparable with ZKDET's Plonk batching when many exchanges
settle at once.
"""

from __future__ import annotations

from repro.errors import VerificationError
from repro.backend import get_engine
from repro.field.fr import MODULUS as R, random_scalar
from repro.groth16.protocol import Groth16Proof, Groth16VerifyingKey, is_well_formed


def _same_key(a: Groth16VerifyingKey, b: Groth16VerifyingKey) -> bool:
    return a is b or (
        a.alpha_g1 == b.alpha_g1
        and a.beta_g2 == b.beta_g2
        and a.gamma_g2 == b.gamma_g2
        and a.delta_g2 == b.delta_g2
        and a.ic == b.ic
    )


def verify_batch(
    items: list[tuple[Groth16VerifyingKey, list[int], Groth16Proof]],
    engine=None,
) -> bool:
    """Verify many (vk, public_inputs, proof) triples in one pairing check.

    All members must share one verifying key — the fold collapses the
    gamma/delta/alpha-beta legs onto that key's fixed G2 points, so
    mixing circuits would silently verify against the wrong key (a
    :class:`VerificationError`, mirroring the same-SRS rule of
    :func:`repro.plonk.batch.batch_verify`).  Returns False when any
    member is structurally malformed (:func:`is_well_formed`: arity, a
    public input outside ``[0, r)``, ``proof.b`` off the subgroup) or the
    folded equation fails.
    """
    if not items:
        return True
    engine = engine or get_engine()
    vk = items[0][0]
    for other, _, _ in items[1:]:
        if not _same_key(vk, other):
            raise VerificationError("batch members use different verifying keys")

    weighted_a = []
    vk_x_points = []
    c_points = []
    weights = []
    for _, publics, proof in items:
        if not is_well_formed(vk, publics, proof):
            return False
        # A zero weight would drop this proof from the folded check.
        r_i = random_scalar(nonzero=True)
        weights.append(r_i)
        weighted_a.append((proof.a * r_i, proof.b))
        vk_x_points.append(vk.ic[0] + engine.msm_g1(list(vk.ic[1:]), publics))
        c_points.append(proof.c)

    combined_vk_x = engine.msm_g1(vk_x_points, weights)
    combined_c = engine.msm_g1(c_points, weights)
    weight_sum = sum(weights) % R
    pairs = weighted_a + [
        (-combined_vk_x, vk.gamma_g2),
        (-combined_c, vk.delta_g2),
        (-(vk.alpha_g1 * weight_sum), vk.beta_g2),
    ]
    return engine.pairing_check(pairs)
