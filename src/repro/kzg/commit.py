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
"""

from __future__ import annotations

from repro import telemetry
from repro.errors import SRSError
from repro.backend import get_engine
from repro.curve.g1 import G1
from repro.field import poly
from repro.field.fr import MODULUS as R
from repro.kzg.srs import SRS


def commit(srs: SRS, coeffs: list[int]) -> G1:
    """Commit to the polynomial with coefficients ``coeffs``."""
    coeffs = poly.trim(coeffs)
    if len(coeffs) - 1 > srs.max_degree:
        raise SRSError(
            "polynomial degree %d exceeds SRS bound %d" % (len(coeffs) - 1, srs.max_degree)
        )
    if telemetry.enabled():
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

