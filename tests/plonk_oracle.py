"""The evaluate-then-fold verifier reduction, kept as a differential oracle.

Until PR 18 this was ``repro.plonk.verifier.prepare_pairing_inputs``: it
*evaluates* one proof to the two G1 points of its pairing equation (a
16-point MSM and four out-of-kernel scalar multiplications).  The library
now stops one step earlier (:func:`repro.plonk.verifier.proof_terms`) and
multiplies once per batch; ``tests/test_batch_verify.py`` holds the fold
equal to ``sum rho_i L_i`` / ``sum rho_i R_i`` over the points computed
here.  The body is the deleted function's, unchanged.
"""

from __future__ import annotations

from repro.backend import get_engine
from repro.curve.g1 import G1
from repro.field.fr import MODULUS as R
from repro.plonk.circuit import K1, K2
from repro.plonk.keys import VerifyingKey
from repro.plonk.proof import Proof
from repro.plonk.transcript import Transcript


def prepare_pairing_inputs(
    vk: VerifyingKey, public_inputs: list[int], proof: Proof, engine=None
) -> tuple | None:
    """Reduce a proof to its final pairing equation.

    Returns (L, R) such that the proof is valid iff
    e(L, [tau]_2) == e(R, [1]_2); None means an early structural reject.
    """
    engine = engine or get_engine()
    if len(public_inputs) != vk.ell:
        return None
    n = vk.n
    domain = engine.domain(n)
    omega = domain.omega

    # Recompute all Fiat-Shamir challenges from the same transcript.
    transcript = Transcript(b"plonk")
    transcript.append_bytes(b"vk", vk.digest())
    for w in public_inputs:
        transcript.append_scalar(b"pub", w)
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

    # [F] = [D] + v[a] + v^2[b] + v^3[c] + v^4[S1] + v^5[S2]  (one MSM).
    zeta_n = pow(zeta, n, R)
    points = [
        vk.c_qm,
        vk.c_q3,
        vk.c_ql,
        vk.c_qr,
        vk.c_qo,
        vk.c_qc,
        proof.c_z,
        vk.c_s3,
        proof.c_t_lo,
        proof.c_t_mid,
        proof.c_t_hi,
        proof.c_a,
        proof.c_b,
        proof.c_c,
        vk.c_s1,
        vk.c_s2,
    ]
    scalars = [
        proof.a_bar * proof.b_bar % R,
        proof.a_bar * proof.a_bar % R * proof.b_bar % R,
        proof.a_bar,
        proof.b_bar,
        proof.c_bar,
        1,
        (alpha * pa + alpha2 * l1_zeta + u) % R,
        (-(alpha * pb % R) * beta % R) * proof.z_omega_bar % R,
        -zh_zeta % R,
        -zh_zeta * zeta_n % R,
        -zh_zeta * zeta_n % R * zeta_n % R,
        v,
        v * v % R,
        pow(v, 3, R),
        pow(v, 4, R),
        pow(v, 5, R),
    ]
    f_commit = engine.msm_g1(points, scalars)

    e_scalar = (
        -r0
        + v * proof.a_bar
        + pow(v, 2, R) * proof.b_bar
        + pow(v, 3, R) * proof.c_bar
        + pow(v, 4, R) * proof.s1_bar
        + pow(v, 5, R) * proof.s2_bar
        + u * proof.z_omega_bar
    ) % R

    # Final equation:
    #   e(W_z + u*W_zw, [tau]_2) == e(zeta*W_z + u*zeta*omega*W_zw + F - E, [1]_2)
    lhs_g1 = proof.w_zeta + proof.w_zeta_omega * u
    rhs_g1 = (
        proof.w_zeta * zeta
        + proof.w_zeta_omega * (u * zeta % R * omega % R)
        + f_commit
        - G1.generator() * e_scalar
    )
    return lhs_g1, rhs_g1
