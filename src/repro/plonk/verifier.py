"""The Plonk verifier.

Succinct: independent of circuit size, a proof reduces to a short list of
(point, scalar) terms — its nine commitments, the key's commitments, the
generator and any commitments the statement links (:func:`fold_terms`
counts them) — and a single 2-pairing product check, the costs the paper
reports in Section VI-B3 and Figure 7.  A key whose gates read the next
row adds their selectors' commitments ([qround], [qnext], [qpartial]), and
its proofs the wires ``vk.shifted`` names at zeta omega, which ride on
those wires' existing terms and the ``W_zeta_omega`` opening.  A key
commitment that is the identity (a selector no row uses) multiplies to
nothing and is left out of the fold.  :func:`fold_check` builds the weighted terms
and hands them to one engine kernel, ``Engine.fold_pairing_check``, the
one place they are multiplied and paired (on two cores when the engine
has a helper: it takes a prefix of the ``[1]_2`` side and that prefix's
Miller loop).
:func:`verify` runs the fold over one member,
:func:`repro.plonk.batch.batch_verify` over many.
"""

from __future__ import annotations

from repro import telemetry
from repro.backend import get_engine
from repro.curve.g1 import G1
from repro.errors import VerificationError
from repro.field.fr import MODULUS as R
from repro.plonk.circuit import (
    K1,
    K2,
    SELECTORS,
    gate_weights,
    link_indicator_eval,
    linearisation_scalars,
)
from repro.plonk.keys import VerifyingKey
from repro.plonk.proof import Proof, proof_size_bytes
from repro.plonk.transcript import Transcript


def verify(
    vk: VerifyingKey, public_inputs: list[int], proof: Proof, link=None
) -> bool:
    """Check ``proof`` against ``vk``, the public inputs and, when ``vk``
    links commitments, ``link``: the one point, or the points in link
    order."""
    with telemetry.span("plonk.verify", n=vk.n, public_inputs=len(public_inputs)) as sp:
        ok = fold_check([(vk, public_inputs, proof, link)], [1])
        sp.set_attr("ok", ok)
        return ok


def fold_check(items: list[tuple], weights: list[int]) -> bool:
    """Check ``sum_i weights[i] * (member i's pairing equation)``, for a
    non-empty ``items`` of ``(vk, public_inputs, proof)`` triples, each
    with its linked commitments as a fourth element when its key links
    any (the point, or a tuple of points in link order).

    Member i's equation is ``e(sum_j s_ij P_ij, [tau]_2) == e(sum_j t_ij
    Q_ij, [1]_2)`` over the terms of :func:`proof_terms`; since
    ``rho * sum_j s_j P_j == sum_j (rho s_j) P_j`` the weights are
    multiplied into the scalars in F_r and each side of the folded
    equation is *one* term list, whatever the batch size, which
    ``Engine.fold_pairing_check`` multiplies and checks.  The nine key
    commitments and the generator are the same points in every member
    that shares a key, so their scalars are summed per key — by key
    *identity*, never by point value: members are not compared, merged or
    cached by content.  Linked commitments are summed the same way, by the
    identity of each point object.  :func:`fold_terms` counts the terms;
    the check is one 2-pair product whatever the batch size.  Returns
    False on a structurally malformed member; raises if the members' keys
    come from different SRS.
    """
    engine = get_engine()
    g2, g2_tau = items[0][0].g2, items[0][0].g2_tau
    if any(item[0].g2 != g2 or item[0].g2_tau != g2_tau for item in items):
        raise VerificationError("batch members use different SRS G2 points")
    tau_side: list[tuple[G1, int]] = []
    one_side: list[tuple[G1, int]] = []
    key_sums: dict[int, tuple[VerifyingKey, list[int]]] = {}
    link_sums: dict[int, list] = {}
    for item, rho in zip(items, weights):
        vk, publics, proof = item[:3]
        link = item[3] if len(item) > 3 else None
        terms = proof_terms(vk, publics, proof, link)
        if terms is None:
            return False
        tau_terms, one_terms, key_scalars, link_terms = terms
        tau_side += [(p, rho * s % R) for p, s in tau_terms]
        one_side += [(p, rho * s % R) for p, s in one_terms]
        _, sums = key_sums.setdefault(id(vk), (vk, [0] * len(key_scalars)))
        for j, s in enumerate(key_scalars):
            sums[j] = (sums[j] + rho * s) % R
        for point, s in link_terms:
            entry = link_sums.setdefault(id(point), [point, 0])
            entry[1] = (entry[1] + rho * s) % R
    for vk, sums in key_sums.values():
        one_side += [(point, s) for point, s in zip(_key_points(vk), sums) if point is not None]
    one_side += [(point, s) for point, s in link_sums.values()]
    with telemetry.span("fold", terms=len(tau_side) + len(one_side)):
        return engine.fold_pairing_check(tau_side, one_side, g2_tau, g2)


#: Of a one-member fold's terms, those whose scalar is 1 and so cost no
#: multiplication: ``W_zeta`` on the ``[tau]_2`` side and ``[qC]``.
UNIT_TERMS = 2


def fold_terms(items: list[tuple]) -> int:
    """How many (point, scalar) terms :func:`fold_check` folds for
    ``items``, given in its shape (only each member's key and linked
    points are read).

    A member brings 11 of its own: ``W_zeta`` and ``W_zeta_omega`` on
    both sides of the equation, its other seven commitments once.  Each
    distinct key brings the points of :func:`_key_points` it folds (not
    the identity) once, and each distinct linked point one term, both
    grouped by object identity as :func:`fold_check` sums their scalars.
    :data:`UNIT_TERMS` of a one-member fold's terms carry scalar 1.
    """
    keys = {id(item[0]): item[0] for item in items}
    links = {
        id(point) for item in items for point in _link_points(item[3] if len(item) > 3 else None)
    }
    folded = sum(point is not None for vk in keys.values() for point in _key_points(vk))
    return 11 * len(items) + folded + len(links)


def _link_points(link) -> tuple:
    """A member's linked points: ``link`` is the one point, the points in
    link order, or None."""
    if isinstance(link, (tuple, list)):
        return tuple(link)
    return () if link is None else (link,)


def _selectors(vk: VerifyingKey) -> list[str]:
    """The names of :data:`~repro.plonk.circuit.SELECTORS` the key commits."""
    return [name for name in SELECTORS if getattr(vk, "c_" + name) is not None]


def _key_order(selector_terms: list, fixed_terms: list) -> list:
    """The key's fold terms in key order: the selectors' up to qC, then the
    permutation's and the generator's ``fixed_terms``, then the selectors'
    that read the next row."""
    cut = SELECTORS.index("qc") + 1
    return selector_terms[:cut] + fixed_terms + selector_terms[cut:]


def _key_points(vk: VerifyingKey) -> list[G1 | None]:
    """The points :func:`proof_terms`'s ``key_scalars`` multiply, in order,
    None where the fold leaves the point out: a commitment that is the
    identity (a selector column of zeros) adds nothing whatever its
    scalar.  [qC] always stays, being one of the :data:`UNIT_TERMS`.  Read
    from the key alone, fixed when a verifier is deployed."""
    selectors = [(name, getattr(vk, "c_" + name)) for name in _selectors(vk)]
    points = [None if point.inf and name != "qc" else point for name, point in selectors]
    return _key_order(points, [vk.c_s1, vk.c_s2, vk.c_s3, G1.generator()])


def proof_terms(
    vk: VerifyingKey, public_inputs: list[int], proof: Proof, link=None
) -> tuple | None:
    """Reduce a proof to the terms of its final pairing equation.

    Returns ``(tau_terms, one_terms, key_scalars, link_terms)`` such that
    the proof is valid iff

        e(sum s*P over tau_terms, [tau]_2)
            == e(sum s*P over one_terms + sum key_scalars[j] * K_j
                 + sum s*D over link_terms, [1]_2)

    with ``K`` the nine key commitments and the generator, then [qround],
    [qnext] and [qpartial] for a key with those gates (:func:`_key_points`,
    whose None entries the fold skips), and ``link_terms``
    one ``(commitment, scalar)`` per link (none for a key that links
    nothing).  ``link`` is the one linked point or the points in link
    order.  None means an early structural reject: among them a count of
    commitments the key does not link, the identity as a commitment,
    which only rho = 0 produces (a blinder no honest commitment uses), and
    a proof whose shape is not its key's (an evaluation at zeta omega
    carried or missing).  No group operation happens here — field work
    and the transcript's SHA-256 only — so
    :func:`fold_check` can weight and merge the terms of many proofs
    before anything is multiplied.
    """
    if len(public_inputs) != vk.ell:
        return None
    if proof.shifted != vk.shifted:
        return None
    links = _link_points(link)
    if len(links) != vk.links:
        return None
    if any(not isinstance(point, G1) or point.inf for point in links):
        return None
    # The transcript and PI(zeta) reduce mod r: x and x + r would be two
    # statements settled by one proof.
    if any(not 0 <= w < R for w in public_inputs):
        return None
    n = vk.n
    domain = get_engine().domain(n)
    omega = domain.omega

    # Recompute all Fiat-Shamir challenges from the same transcript.
    transcript = Transcript(b"plonk")
    transcript.append_bytes(b"vk", vk.digest())
    for w in public_inputs:
        transcript.append_scalar(b"pub", w)
    for point in links:
        transcript.append_point(b"link", point)
    transcript.append_point(b"a", proof.c_a)
    transcript.append_point(b"b", proof.c_b)
    transcript.append_point(b"c", proof.c_c)
    beta = transcript.challenge(b"beta")
    # Mirrors the prover's round-2 schedule: challenge() folds its output
    # back into the sponge, so gamma stays bound to beta's preimage.
    gamma = transcript.challenge(b"gamma")
    transcript.append_point(b"z", proof.c_z)
    alpha = transcript.challenge(b"alpha")
    transcript.append_point(b"t_lo", proof.c_t_lo)
    transcript.append_point(b"t_mid", proof.c_t_mid)
    transcript.append_point(b"t_hi", proof.c_t_hi)
    zeta = transcript.challenge(b"zeta")
    for label, value in (
        (b"a_bar", proof.a_bar),
        (b"b_bar", proof.b_bar),
        (b"c_bar", proof.c_bar),
        (b"s1_bar", proof.s1_bar),
        (b"s2_bar", proof.s2_bar),
        (b"z_omega_bar", proof.z_omega_bar),
    ) + tuple(
        (b"%s_omega_bar" % b"abc"[col : col + 1], w) for col, w in zip(vk.shifted, proof.omega_bars)
    ):
        transcript.append_scalar(label, value)
    v = transcript.challenge(b"v")
    transcript.append_point(b"w_zeta", proof.w_zeta)
    transcript.append_point(b"w_zeta_omega", proof.w_zeta_omega)
    u = transcript.challenge(b"u")

    # Evaluations the verifier computes itself.
    zh_zeta = domain.vanishing_eval(zeta)
    if zh_zeta == 0:
        return None  # zeta landed in H (probability ~ n/r); treat as invalid
    l1_zeta = domain.lagrange_basis_eval(0, zeta)
    lagranges = domain.lagrange_basis_evals(vk.ell, zeta)
    pi_zeta = 0
    for w, li in zip(public_inputs, lagranges):
        pi_zeta = (pi_zeta - w * li) % R

    alpha2 = alpha * alpha % R
    pa = (
        (proof.a_bar + beta * zeta + gamma)
        * (proof.b_bar + beta * K1 * zeta % R + gamma)
        % R
        * (proof.c_bar + beta * K2 * zeta % R + gamma)
        % R
    )
    pb = (
        (proof.a_bar + beta * proof.s1_bar + gamma)
        * (proof.b_bar + beta * proof.s2_bar + gamma)
        % R
    )
    r0 = (
        pi_zeta
        - l1_zeta * alpha2
        - alpha * pb % R * ((proof.c_bar + gamma) % R) % R * proof.z_omega_bar
    ) % R
    # Link i's term alpha^(3+i) I_m(zeta) (w_bar - d(zeta)): the wire's half
    # is a scalar in r0, d's half a term on the commitment (d(zeta) stays
    # hidden).
    wire_bars = (proof.a_bar, proof.b_bar, proof.c_bar)
    link_terms = []
    coeff = alpha2
    for point, (slot, m) in zip(links, vk.link_slots):
        coeff = coeff * alpha % R
        link_coeff = coeff * link_indicator_eval(n, m, zeta) % R
        r0 = (r0 + link_coeff * wire_bars[slot]) % R
        link_terms.append((point, -link_coeff % R))
    v2, v3, v4, v5 = (pow(v, e, R) for e in (2, 3, 4, 5))
    e_scalar = (
        -r0
        + v * proof.a_bar
        + v2 * proof.b_bar
        + v3 * proof.c_bar
        + v4 * proof.s1_bar
        + v5 * proof.s2_bar
        + u * proof.z_omega_bar
    ) % R
    # W_zw also opens the shifted wires at zeta omega, weighted by v, v^2,
    # v^3 in column order: each wire's point gains u v^i, E gains
    # u v^i w(zeta omega).
    wire_scalars = [v, v2, v3]
    weight = u * v % R
    for col, value in zip(vk.shifted, proof.omega_bars):
        wire_scalars[col] = (wire_scalars[col] + weight) % R
        e_scalar = (e_scalar + weight * value) % R
        weight = weight * v % R

    # The equation, with [F] = [D] + v[a] + v^2[b] + v^3[c] + v^4[S1] + v^5[S2]:
    #   e(W_z + u*W_zw, [tau]_2) == e(zeta*W_z + u*zeta*omega*W_zw + F - E, [1]_2)
    zeta_n = pow(zeta, n, R)
    tau_terms = [(proof.w_zeta, 1), (proof.w_zeta_omega, u)]
    one_terms = [
        (proof.w_zeta, zeta),
        (proof.w_zeta_omega, u * zeta % R * omega % R),
        (proof.c_z, (alpha * pa + alpha2 * l1_zeta + u) % R),
        (proof.c_t_lo, -zh_zeta % R),
        (proof.c_t_mid, -zh_zeta * zeta_n % R),
        (proof.c_t_hi, -zh_zeta * zeta_n % R * zeta_n % R),
        (proof.c_a, wire_scalars[0]),
        (proof.c_b, wire_scalars[1]),
        (proof.c_c, wire_scalars[2]),
    ]
    selectors = _selectors(vk)
    weights = gate_weights(selectors, alpha, coeff)
    gate_scalars = linearisation_scalars(selectors, wire_bars, proof.omega_bars, weights)
    s3_scalar = (-(alpha * pb % R) * beta % R) * proof.z_omega_bar % R
    key_scalars = _key_order(gate_scalars, [v4, v5, s3_scalar, -e_scalar % R])
    return tau_terms, one_terms, key_scalars, link_terms


def verification_group_operations(vk: VerifyingKey) -> dict:
    """Operation counts for the verifier of proofs under ``vk`` (used by
    the Fig. 7 benchmark).

    Returns the paper-reported shape: 2 pairings and a constant number of
    G1 scalar multiplications regardless of circuit size — the terms of a
    one-member fold (:func:`fold_terms`, each link a distinct point) less
    its :data:`UNIT_TERMS` — all inside the one kernel :func:`fold_check`
    calls, ``Engine.fold_pairing_check``, and nowhere else.  With a helper
    the kernel splits the ``[1]_2`` side in two: a prefix and its Miller
    loop on the helper, the rest here, so that pair's loop runs once per
    part under the one final exponentiation; the counts here are the
    unsplit equation's.  Public inputs enter through scalars, not points:
    field work only.
    """
    member = (vk, None, None, [object() for _ in range(vk.links)])
    return {
        "pairings": 2,
        "miller_loops": 2,
        "final_exponentiations": 1,
        "g1_scalar_mults": fold_terms([member]) - UNIT_TERMS,
        "field_ops_per_public_input": 3,
        "proof_size_bytes": proof_size_bytes(vk.shifted),
    }
