"""Groth16 setup / prove / verify.

A faithful implementation of the three algorithms.  Note the contrast the
paper draws (Section VII-B): the setup here is *circuit-specific* and
trusted — change the relation and the ceremony must be redone — whereas
Plonk's SRS is universal.  ZKCP inherits this weakness from Groth16.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import telemetry
from repro.errors import ProofError
from repro.backend import get_engine
from repro.curve.g1 import G1
from repro.curve.g2 import G2
from repro.field.fr import MODULUS as R, inv, random_scalar
from repro.groth16.qap import QAP
from repro.r1cs.system import R1CSSystem, R1CSWitness


@dataclass(frozen=True)
class Groth16VerifyingKey:
    alpha_g1: G1
    beta_g2: G2
    gamma_g2: G2
    delta_g2: G2
    ic: tuple  # G1 points, one per public input + the constant ONE
    #: e(alpha, beta) precomputed at setup: the verifier compares the
    #: 3-pair product against this GT constant instead of carrying the
    #: fixed alpha/beta pair through the Miller loop as a fourth.  ``None``
    #: (e.g. a key built before this field existed) falls back to
    #: computing it lazily.
    alpha_beta_gt: tuple | None = None

    def pairing_target(self) -> tuple:
        """The GT constant e(alpha, beta) the product check compares to."""
        return self.alpha_beta_gt or get_engine().pairing(self.alpha_g1, self.beta_g2)


@dataclass(frozen=True)
class Groth16ProvingKey:
    qap: QAP
    alpha_g1: G1
    beta_g1: G1
    beta_g2: G2
    delta_g1: G1
    delta_g2: G2
    a_query: tuple  # [U_j(tau)]_1
    b_g1_query: tuple  # [V_j(tau)]_1
    b_g2_query: tuple  # [V_j(tau)]_2
    l_query: tuple  # [(beta U_j + alpha V_j + W_j)/delta]_1, private j only
    h_query: tuple  # [tau^i Z(tau)/delta]_1
    vk: Groth16VerifyingKey


@dataclass(frozen=True)
class Groth16Proof:
    """2 G1 + 1 G2 elements (320 bytes uncompressed)."""

    a: G1
    b: G2
    c: G1

    @property
    def size_bytes(self) -> int:
        return 64 * 2 + 128


def _g1_fixed_base_batch(engine, scalars: list[int]) -> list[G1]:
    """Many multiples of the G1 generator via the engine's window table."""
    gen = G1.generator()
    return G1.batch_from_jacobian([engine.fixed_base_mul_jac(gen, s) for s in scalars])


def _g2_fixed_base_batch(engine, scalars: list[int]) -> list[G2]:
    """Many multiples of the G2 generator via the engine's window table."""
    gen = G2.generator()
    return G2.batch_from_jacobian([engine.fixed_base_mul_jac(gen, s) for s in scalars])


def groth16_setup(system: R1CSSystem) -> tuple[Groth16ProvingKey, Groth16VerifyingKey]:
    """Circuit-specific trusted setup (toxic waste sampled and discarded).

    Every query is a multiple of a *fixed* generator, so the whole setup
    runs off the engine's windowed G1/G2 tables with batched affine
    conversion instead of per-point double-and-add.
    """
    engine = get_engine()
    with telemetry.span("groth16.setup", constraints=system.num_constraints):
        with telemetry.span("qap"):
            qap = QAP.from_r1cs(system)
            # gamma/delta are inverted and alpha/beta blind the proof
            # elements, so all five trapdoor scalars come from F_r^*.
            tau, alpha, beta, gamma, delta = (
                random_scalar(nonzero=True) for _ in range(5)
            )
            while pow(tau, qap.m, R) == 1:
                tau = random_scalar(nonzero=True)
            gamma_inv, delta_inv = inv(gamma), inv(delta)

            u_at, v_at, w_at = qap.evaluations_at(tau)

            ell = qap.num_public
            ic_coeffs = [
                (beta * u_at[j] + alpha * v_at[j] + w_at[j]) % R * gamma_inv % R
                for j in range(ell + 1)
            ]
            l_coeffs = [
                (beta * u_at[j] + alpha * v_at[j] + w_at[j]) % R * delta_inv % R
                for j in range(ell + 1, qap.num_variables)
            ]
            z_tau = (pow(tau, qap.m, R) - 1) % R
            h_coeffs = []
            acc = z_tau * delta_inv % R
            for _ in range(qap.m - 1):
                h_coeffs.append(acc)
                acc = acc * tau % R

        with telemetry.span("g1_queries"):
            g1_points = _g1_fixed_base_batch(
                engine,
                [alpha, beta, delta] + ic_coeffs + l_coeffs + h_coeffs + u_at + v_at,
            )
            alpha_g1, beta_g1, delta_g1 = g1_points[0], g1_points[1], g1_points[2]
            pos = 3
            ic = g1_points[pos : pos + len(ic_coeffs)]
            pos += len(ic_coeffs)
            l_query = g1_points[pos : pos + len(l_coeffs)]
            pos += len(l_coeffs)
            h_query = g1_points[pos : pos + len(h_coeffs)]
            pos += len(h_coeffs)
            a_query = g1_points[pos : pos + len(u_at)]
            pos += len(u_at)
            b_g1_query = g1_points[pos:]

        with telemetry.span("g2_queries"):
            g2_points = _g2_fixed_base_batch(engine, [beta, gamma, delta] + v_at)
            beta_g2, gamma_g2, delta_g2 = g2_points[0], g2_points[1], g2_points[2]
            b_g2_query = g2_points[3:]

    vk = Groth16VerifyingKey(
        alpha_g1=alpha_g1,
        beta_g2=beta_g2,
        gamma_g2=gamma_g2,
        delta_g2=delta_g2,
        ic=tuple(ic),
        alpha_beta_gt=engine.pairing(alpha_g1, beta_g2),
    )
    pk = Groth16ProvingKey(
        qap=qap,
        alpha_g1=alpha_g1,
        beta_g1=beta_g1,
        beta_g2=beta_g2,
        delta_g1=delta_g1,
        delta_g2=delta_g2,
        a_query=tuple(a_query),
        b_g1_query=tuple(b_g1_query),
        b_g2_query=tuple(b_g2_query),
        l_query=tuple(l_query),
        h_query=tuple(h_query),
        vk=vk,
    )
    return pk, vk


def groth16_prove(pk: Groth16ProvingKey, witness: R1CSWitness) -> Groth16Proof:
    """Produce a Groth16 proof (randomised over r, s for zero-knowledge)."""
    engine = get_engine()
    values = [v % R for v in witness.values]
    if len(values) != pk.qap.num_variables:
        raise ProofError("witness does not match the proving key's QAP")
    with telemetry.span(
        "groth16.prove", variables=pk.qap.num_variables, backend=engine.name
    ):
        with telemetry.span("quotient"):
            h = pk.qap.quotient(values)  # raises when unsatisfied
        # Zero r or s would leave A or B unblinded; sample from F_r^*.
        r, s = random_scalar(nonzero=True), random_scalar(nonzero=True)
        ell = pk.qap.num_public

        with telemetry.span("msm"):
            # The query tables are fixed per proving key: msm_g1_fixed
            # caches their Jacobian view and window tables by table
            # identity, so warm proofs convert nothing and an engine
            # with helpers ships them only scalars.  Prefix semantics replace
            # the old per-call list slices.
            a_acc = engine.msm_g1_fixed(pk.a_query, values)
            proof_a = pk.alpha_g1 + a_acc + pk.delta_g1 * r

            b_g2_acc = engine.msm_g2(list(pk.b_g2_query), values)
            proof_b = pk.beta_g2 + b_g2_acc + pk.delta_g2 * s

            b_g1_acc = engine.msm_g1_fixed(pk.b_g1_query, values)
            b_g1_full = pk.beta_g1 + b_g1_acc + pk.delta_g1 * s

            c_acc = engine.msm_g1_fixed(pk.l_query, values[ell + 1 :])
            if h:
                c_acc = c_acc + engine.msm_g1_fixed(pk.h_query, h)
            proof_c = (
                c_acc + proof_a * s + b_g1_full * r - pk.delta_g1 * (r * s % R)
            )
        return Groth16Proof(proof_a, proof_b, proof_c)


def is_well_formed(
    vk: Groth16VerifyingKey, public_inputs: list[int], proof: Groth16Proof
) -> bool:
    """The structural checks the verifier makes before any group work.

    Arity; every public input in ``[0, r)`` — vk_x reduces mod r, so ``x``
    and ``x + r`` would be two statements settled by one proof; and
    ``proof.b`` in the order-r subgroup.  ``b`` is the only G2 point an
    adversary chooses (G1 has cofactor 1, so ``a`` and ``c`` are in it by
    being on the curve, and the key's G2 points come from the setup): off
    the r-torsion the Miller loop's lines are not the ones the pairing's
    bilinearity is proved for.  The subgroup check is one 254-bit G2
    multiplication.
    """
    return (
        len(public_inputs) == len(vk.ic) - 1
        and all(0 <= w < R for w in public_inputs)
        and proof.b.in_subgroup()
    )


def groth16_verify(
    vk: Groth16VerifyingKey, public_inputs: list[int], proof: Groth16Proof
) -> bool:
    """Check e(A, B) == e(alpha, beta) e(vk_x, gamma) e(C, delta).

    e(alpha, beta) is a setup-time constant (``vk.alpha_beta_gt``), so
    the check runs only 3 pairs — A/B, vk_x/gamma, C/delta — through one
    interleaved Miller loop and one final exponentiation, compared
    against the stored GT target.  The vk_x MSM over the public inputs is
    the ell-scalar-multiplication cost the paper contrasts against
    Plonk's input-independent verifier.
    """
    engine = get_engine()
    with telemetry.span("groth16.verify", public_inputs=len(public_inputs)) as sp:
        if not is_well_formed(vk, public_inputs, proof):
            sp.set_attr("ok", False)
            return False
        vk_x = vk.ic[0] + engine.msm_g1(list(vk.ic[1:]), public_inputs)
        with telemetry.span("pairing"):
            ok = engine.pairing_check(
                [
                    (proof.a, proof.b),
                    (-vk_x, vk.gamma_g2),
                    (-proof.c, vk.delta_g2),
                ],
                target=vk.pairing_target(),
            )
        sp.set_attr("ok", ok)
        return ok


def verification_group_operations(num_public_inputs: int) -> dict:
    """Verifier op counts (used by the Fig. 7 benchmark's ZKCP side)."""
    return {
        "pairings": 3,  # e(alpha, beta) precomputed at setup
        "miller_loops": 3,
        "final_exponentiations": 1,
        "g1_scalar_mults": num_public_inputs,
        "proof_size_bytes": 2 * 64 + 128,
    }
