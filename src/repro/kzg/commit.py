"""KZG commit / open / verify over the powers-of-tau SRS.

A commitment to p(X) is [p(tau)]_1; an opening proof at z is the quotient
commitment [ (p(X) - p(z)) / (X - z) ]_1, verified with one pairing check:

    e(W, [tau - z]_2) == e([p(tau)]_1 - [p(z)]_1, [1]_2)

All group kernels run through the compute backend: the engine keeps a
one-time Jacobian view of the SRS powers, so repeated commitments under
the same SRS skip the per-call affine-to-Jacobian conversion, and its
``prepared_g2`` cache amortises the G2-side Miller-loop work for the two
fixed verification points ``[1]_2`` and ``[tau]_2`` across every opening
check.

:func:`batch_verify_openings` folds k opening claims into a *single*
two-pairing check with random weights (small-exponent batching), the same
trick :mod:`repro.plonk.batch` uses one level up.
"""

from __future__ import annotations

from repro import telemetry
from repro.errors import SRSError
from repro.backend import get_engine
from repro.curve.g1 import G1
from repro.field import poly
from repro.field.fr import MODULUS as R, random_scalar
from repro.kzg.srs import SRS


def commit(srs: SRS, coeffs: list[int]) -> G1:
    """Commit to the polynomial with coefficients ``coeffs``."""
    coeffs = poly.trim(coeffs)
    if len(coeffs) - 1 > srs.max_degree:
        raise SRSError(
            "polynomial degree %d exceeds SRS bound %d" % (len(coeffs) - 1, srs.max_degree)
        )
    if telemetry.metrics_enabled():
        telemetry.counter("kzg.commit.calls").inc()
        telemetry.histogram("kzg.commit.degree").observe(max(len(coeffs) - 1, 0))
    # msm_srs resolves the points inside the engine (cached Jacobian view
    # and window tables) — no per-call copy of the SRS prefix and no
    # point pickling on the split path.
    return G1.from_jacobian(get_engine().msm_srs(srs, coeffs))


def commit_scalar(srs: SRS, value: int, blinder: int) -> G1:
    """Commit to the scalar ``value`` as d(X) = value + blinder * (X - 1).

    d(1) = value at every domain size, so the point links the scalar into
    a Plonk circuit of any n through row 0 (:meth:`repro.plonk.circuit.
    CircuitBuilder.link`); with ``blinder`` uniform and nonzero the point
    (value - blinder)[1] + blinder[tau] hides ``value``.  Two scalar
    multiplications on the SRS's first two powers, outside the engine.
    """
    return srs.g1_powers[0] * ((value - blinder) % R) + srs.g1_powers[1] * (blinder % R)


def message_slots(entries: int) -> int:
    """A committed message's m: its entry count padded to a power of two
    with zero entries, the one padding rule :func:`commit_message`,
    :meth:`repro.plonk.circuit.CircuitBuilder.link` and the cost model
    share."""
    return 1 << (entries - 1).bit_length()


def message_poly(values: list[int], blinder: int) -> list[int]:
    """d(X) = sum_j values_j L_j(X) + blinder * (X^m - 1) over H_m, with m
    ``len(values)`` (a power of two): d takes entry j at omega_m^j, and
    at m = 1 it is :func:`commit_scalar`'s value + blinder * (X - 1)."""
    coeffs = get_engine().intt(list(values)) + [blinder % R]
    coeffs[0] = (coeffs[0] - blinder) % R
    return coeffs


def commit_message(srs: SRS, values: list[int], blinder: int) -> G1:
    """Commit to a message of field elements once, as the KZG point of
    :func:`message_poly` over the entries padded with zeros to a power of
    two.  A Plonk circuit links the message through the rows j * n / m of
    any domain n >= m (:meth:`repro.plonk.circuit.CircuitBuilder.link`);
    with ``blinder`` uniform and nonzero the point hides the message.

    The point binds the m padded entries, not the entry count: a message
    and the same message with zeros appended up to m share it.  Whoever
    compares points for a dataset of known length compares the length too
    (:func:`repro.core.tokens.commitment_digest`)."""
    if not values:
        raise SRSError("a committed message needs at least one entry")
    m = message_slots(len(values))
    padded = [v % R for v in values] + [0] * (m - len(values))
    return commit(srs, message_poly(padded, blinder))


def open_at(srs: SRS, coeffs: list[int], z: int) -> tuple[int, G1]:
    """Return ``(p(z), proof)`` for the polynomial ``coeffs`` at point ``z``."""
    z %= R
    value = poly.evaluate(coeffs, z)
    numerator = poly.sub(coeffs, [value])
    quotient = poly.divide_by_linear(numerator, z)
    return value, commit(srs, quotient)


def verify_opening(srs: SRS, commitment: G1, z: int, value: int, proof: G1) -> bool:
    """Verify that the committed polynomial evaluates to ``value`` at ``z``.

    Rearranged to a two-pairing product check:
    e(W, [tau]_2) * e(-z*W + [value]_1 - C, [1]_2) == 1.
    """
    z %= R
    value %= R
    shifted = proof * (-z % R) + G1.generator() * value - commitment
    return get_engine().pairing_check([(proof, srs.g2_tau), (shifted, srs.g2)])


def fold_opening_claims(openings: list[tuple[G1, int, int, G1]]) -> tuple[G1, G1]:
    """Random-linear-combine opening claims into one pairing equation.

    Each claim ``(commitment, z, value, proof)`` asserts
    e(W_i, [tau]_2) == e(z_i*W_i - [v_i]_1 + C_i, [1]_2).  With fresh
    random weights rho_i, the claims hold simultaneously (up to
    soundness error ~k/r) iff

        e(sum rho_i W_i, [tau]_2) == e(sum rho_i (z_i*W_i - [v_i]_1 + C_i), [1]_2).

    Returns ``(L, R)`` with L = sum rho_i W_i and R the right-hand
    combination, computed as two MSMs (the [v_i]_1 terms collapse onto a
    single generator scalar).
    """
    engine = get_engine()
    # A zero weight would silently drop that opening from the batch.
    rhos = [random_scalar(nonzero=True) for _ in openings]
    lhs = engine.msm_g1([proof for (_, _, _, proof) in openings], rhos)
    points: list[G1] = []
    scalars: list[int] = []
    gen_scalar = 0
    for rho, (commitment, z, value, proof) in zip(rhos, openings):
        points.append(proof)
        scalars.append(rho * (z % R) % R)
        points.append(commitment)
        scalars.append(rho)
        gen_scalar = (gen_scalar + rho * (value % R)) % R
    points.append(G1.generator())
    scalars.append(-gen_scalar % R)
    rhs = engine.msm_g1(points, scalars)
    return lhs, rhs


def batch_verify_openings(srs: SRS, openings: list[tuple[G1, int, int, G1]]) -> bool:
    """Verify many ``(commitment, z, value, proof)`` claims at once.

    Folds all k claims with :func:`fold_opening_claims` and settles them
    with a single two-pairing check — O(k) group work instead of k
    pairing checks.  An empty batch is vacuously valid.
    """
    if not openings:
        return True
    if telemetry.metrics_enabled():
        telemetry.counter("kzg.batch_verify.calls").inc()
        telemetry.histogram("kzg.batch_verify.openings").observe(len(openings))
    lhs, rhs = fold_opening_claims(openings)
    return get_engine().pairing_check([(lhs, srs.g2_tau), (-rhs, srs.g2)])
