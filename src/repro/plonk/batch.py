"""Batch verification: many Plonk proofs, two MSMs, one two-pairing check.

Each proof reduces (see :func:`repro.plonk.verifier.proof_terms`) to an
equation e(L_i, [tau]_2) = e(R_i, [1]_2) whose sides are sums of (point,
scalar) terms.  Folding with independent random weights rho_i gives

    e(sum rho_i L_i, [tau]_2) == e(sum rho_i R_i, [1]_2),

which holds for random rho iff every individual equation holds (standard
small-exponent batching).  The weights go into the scalars, not onto
evaluated points, so verification of k proofs costs one pairing check plus
two MSMs over all members' terms — this is what keeps the marketplace's
throughput high when many exchanges and transformations settle at once
(the paper's abstract: "maintaining high throughput despite large data
volumes").
"""

from __future__ import annotations

from repro.field.fr import random_scalar
from repro.plonk.verifier import fold_check


def batch_verify(items: list[tuple]) -> bool:
    """Verify many (vk, public_inputs, proof) triples at once; a member
    whose key links commitments carries them as a fourth element (the
    point, or a tuple of points in link order), and members sharing one
    point object share its term.

    All verification keys must come from the same SRS (same [1]_2 and
    [tau]_2) — which they do under ZKDET's universal setup.  Returns False
    if any proof is structurally malformed or the batched equation fails.
    """
    if not items:
        return True
    # The first member keeps weight 1 (a one-member batch *is* verify);
    # every other gets its own full-width weight — each is multiplied into
    # full-width challenge products anyway, so a short one saves nothing —
    # and a zero weight would drop its member from the folded check.
    weights = [1] + [random_scalar(nonzero=True) for _ in items[1:]]
    return fold_check(items, weights)
