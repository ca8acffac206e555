"""The Plonk prover (rounds 1-5 of GWC19).

Produces a zero-knowledge proof that the prover knows wire assignments
satisfying the circuit for the given public inputs.  All wire, permutation
and quotient polynomials are blinded with multiples of Z_H so that the
proof leaks nothing about the witness beyond the statement.
"""

from __future__ import annotations

from repro import telemetry
from repro.errors import ProofError
from repro.backend import get_engine
from repro.field import poly
from repro.field.fr import MODULUS as R, inv, random_scalar
from repro.field.ntt import COSET_SHIFT
from repro.plonk.circuit import (
    Assignment,
    K1,
    K2,
    SELECTORS,
    gate_sum,
    gate_weights,
    link_indicator,
    link_indicator_eval,
    linearisation_scalars,
)
from repro.plonk.keys import ProvingKey
from repro.plonk.proof import Proof
from repro.plonk.transcript import Transcript

from repro.kzg.commit import commit, message_poly


def _blind(coeffs: list[int], blinders: list[int], n: int) -> list[int]:
    """Add blinder(X) * Z_H(X) to ``coeffs`` (hiding against evaluations):
    Z_H = X^n - 1, so blinder i is subtracted at degree i, added at n + i."""
    blinders = poly.trim(blinders)
    out = list(coeffs) + [0] * (n + len(blinders) - len(coeffs))
    for i, b in enumerate(blinders):
        out[i], out[n + i] = (out[i] - b) % R, (out[n + i] + b) % R
    return out


def _rotate(evals: list[int], k: int) -> list[int]:
    """p(omega X) on a coset of k n points, from p's evaluations there."""
    return evals[k:] + evals[:k]


def prove(pk: ProvingKey, assignment: Assignment, blinding: bool = True) -> Proof:
    """Generate a Plonk proof for ``assignment`` under ``pk``.

    Raises :class:`ProofError` (via the layout check) when the witness does
    not satisfy the circuit; a correct prover never signs false statements.

    All kernel work (NTTs, MSMs, batched inversion) routes through the
    process's engine.  The engine memoises the coset evaluations of the
    selector and permutation polynomials — fixed per proving key — so the
    second proof onward for a circuit skips 10 of the 15 coset FFTs of
    round 3 (size 4n; 8n at n=4; z(omega X) and the shifted wires' columns
    are rotations), plus the SRS Jacobian conversion behind every commitment.

    A linking layout (:meth:`~repro.plonk.circuit.CircuitBuilder.link`)
    absorbs the assignment's commitments after the public inputs, in link
    order, and adds alpha^(3+i) I_m(X) (w(X) - d_i(X)) to the quotient for
    link i, with w its wire column and d_i(X) the message polynomial
    (:func:`repro.kzg.commit.message_poly`) of the entries w holds at rows
    j n/m and the link's blinder.  A commitment is absorbed as given: one
    that does not commit to d_i yields a proof that fails verification.

    The gate enters once, as :func:`~repro.plonk.circuit.gate_constraints`:
    the quotient adds its constraints at each coset point, weighted by
    :func:`~repro.plonk.circuit.gate_weights` (1 on the main gate, then
    the powers of alpha after the links'), and r(X) multiplies each
    selector polynomial by the same sum at the selector's unit vector
    (:func:`~repro.plonk.circuit.linearisation_scalars`).  Each wire the
    gates read at omega X (``layout.shifted``) gets a third blinder, and
    the proof its evaluation at zeta omega, opened together with z(zeta
    omega) at weights v, v^2, v^3.

    Under ``REPRO_TELEMETRY=on`` the proof emits a ``plonk.prove``
    span with one child per round (blinding, permutation, quotient,
    evaluation, opening), and the engine's kernel counters record every
    NTT/MSM/inversion with sizes and cache outcomes.
    """
    engine = get_engine()
    layout = pk.layout
    layout.check(assignment)  # raises UnsatisfiedConstraintError early
    n = layout.n
    domain = engine.domain(n)
    omega = domain.omega
    srs = pk.srs
    # Blinders come from F_r^*: a zero blinder would leave a wire
    # polynomial's evaluations unmasked at the opened points.
    rand = (lambda: random_scalar(nonzero=True)) if blinding else (lambda: 0)

    with telemetry.span(
        "plonk.prove", n=n, public_inputs=len(assignment.public_inputs), backend=engine.name
    ):
        return _prove_rounds(pk, assignment, engine, domain, omega, srs, rand, n)


def _prove_rounds(pk, assignment, engine, domain, omega, srs, rand, n) -> Proof:
    """Rounds 1-5, each wrapped in a child span of ``root``."""
    transcript = Transcript(b"plonk")
    transcript.append_bytes(b"vk", pk.vk.digest())
    public_inputs = assignment.public_inputs
    for w in public_inputs:
        transcript.append_scalar(b"pub", w)
    # One (column, m, d(X)) per link: d interpolates the entries its column
    # holds at rows j n/m, blinded with the link's rho.
    shifted = pk.layout.shifted
    columns = (assignment.a, assignment.b, assignment.c)
    links = []
    for (slot, m), (point, rho) in zip(pk.layout.link_slots, assignment.links):
        transcript.append_point(b"link", point)
        links.append((slot, m, message_poly(columns[slot][:: n // m], rho)))

    # ----- Round 1: wire polynomials -------------------------------------
    with telemetry.span("blinding", round=1):
        wire_polys = engine.ntt_batch(
            [
                ("ifft", n, list(assignment.a), 0),
                ("ifft", n, list(assignment.b), 0),
                ("ifft", n, list(assignment.c), 0),
            ]
        )
        # A wire opened at zeta omega too gets a third blinder.
        wires = tuple(
            _blind(wire_polys[col], [rand() for _ in range(2 + (col in shifted))], n)
            for col in range(3)
        )
        a_poly, b_poly, c_poly = wires
        c_a = commit(srs, a_poly)
        c_b = commit(srs, b_poly)
        c_c = commit(srs, c_poly)
        transcript.append_point(b"a", c_a)
        transcript.append_point(b"b", c_b)
        transcript.append_point(b"c", c_c)

    # ----- Round 2: permutation accumulator z ----------------------------
    with telemetry.span("permutation", round=2):
        beta = transcript.challenge(b"beta")
        # Sound despite no absorb in between: challenge() folds its own
        # output back into the sponge, so gamma is bound to beta and to
        # every commitment beta was bound to (GWC19 draws both from the
        # same round-2 state).
        gamma = transcript.challenge(b"gamma")
        points = domain.elements
        s1, s2, s3 = pk.sigma_star
        denominators = []
        numerators = []
        for i in range(n):
            wa, wb, wc = assignment.a[i], assignment.b[i], assignment.c[i]
            x = points[i]
            numerators.append(
                (wa + beta * x + gamma)
                * (wb + beta * K1 * x % R + gamma)
                % R
                * (wc + beta * K2 * x % R + gamma)
                % R
            )
            denominators.append(
                (wa + beta * s1[i] + gamma)
                * (wb + beta * s2[i] + gamma)
                % R
                * (wc + beta * s3[i] + gamma)
                % R
            )
        inv_denoms = engine.batch_inverse(denominators)
        z_vals = [1] * n
        for i in range(n - 1):
            z_vals[i + 1] = z_vals[i] * numerators[i] % R * inv_denoms[i] % R
        z_poly = _blind(engine.intt(z_vals), [rand(), rand(), rand()], n)
        c_z = commit(srs, z_poly)
        transcript.append_point(b"z", c_z)

    # ----- Round 3: quotient polynomial t --------------------------------
    with telemetry.span("quotient", round=3):
        alpha = transcript.challenge(b"alpha")
        pi_vals = [0] * n
        for i, w in enumerate(public_inputs):
            pi_vals[i] = (-w) % R
        pi_poly = engine.intt(pi_vals)
        l1_poly = link_indicator(n, 1)

        # The smallest power-of-two coset that holds t (degree <= 3n+5): 4n
        # for n >= 8.  The numerator (degree up to 4n+5) does not fit, so it
        # is never interpolated: Z_H is divided out pointwise instead.  The
        # permutation term sets that degree; the cubic gate term q3*a*a*b
        # reaches only (n-1) + 3(n+1) = 4n+2 and rides inside it.  Each
        # wire opened at zeta omega has degree n+2: with a alone the
        # permutation term reaches 4n+6 and qround*t^3 4n+5; with all three
        # it reaches 4n+8, and the partial-round gate's b a^2 4n+5, so t
        # has degree 3n+5+len(shifted), which the same coset holds for
        # n >= 16 (t_hi: n+8, the SRS's DEGREE_MARGIN).
        t_degree = 3 * n + 5 + len(shifted)
        big_n = 1 << t_degree.bit_length()
        xs = engine.coset_points(big_n)
        # Selector / permutation / L1 polynomials are fixed per proving key:
        # their coset evaluations come from the engine's memo (computed on the
        # first proof, reused afterwards).
        selectors = [name for name in SELECTORS if name in pk.q_polys]
        fixed = [(name, pk.q_polys[name]) for name in selectors]
        fixed += [("s1", list(pk.s_polys[0])), ("s2", list(pk.s_polys[1]))]
        fixed += [("s3", list(pk.s_polys[2])), ("l1", l1_poly)]
        ev = {name: engine.coset_ntt_cached(pk, name, coeffs, big_n) for name, coeffs in fixed}
        # I_m per link width, fixed per key like L_0 (which is I_1).
        indicators = {
            m: ev["l1"] if m == 1 else engine.coset_ntt_cached(pk, "ind%d" % m, link_indicator(n, m), big_n)
            for _slot, m, _d in links
        }
        # The witness-dependent polynomials, the links' d(X) among them, are
        # transformed fresh each proof, as one engine batch; z(omega X) and
        # the shifted wires' columns are rotations of their evaluations.
        live = ("a", a_poly), ("b", b_poly), ("c", c_poly), ("z", z_poly), ("pi", pi_poly)
        live += tuple(("d%d" % i, d) for i, (_slot, _m, d) in enumerate(links))
        live_evals = engine.ntt_batch(
            [("coset_fft", big_n, coeffs, COSET_SHIFT) for _, coeffs in live]
        )
        for (name, _), evals in zip(live, live_evals):
            ev[name] = evals
        for name in ("z",) + tuple("abc"[col] for col in shifted):
            ev[name + "w"] = _rotate(ev[name], big_n // n)
        alpha2 = alpha * alpha % R
        link_terms = []
        coeff = alpha2
        for i, (slot, m, _d) in enumerate(links):
            coeff = coeff * alpha % R
            link_terms.append((coeff, ev["abc"[slot]], indicators[m], ev["d%d" % i]))
        weights = gate_weights(selectors, alpha, coeff)
        q_evs = [(name, ev[name]) for name in selectors]
        next_evs = [ev["abc"[col] + "w"] for col in shifted]
        # Z_H(x) = x^n - 1 takes only big_n/n distinct values on the coset.
        zh_period = big_n // n
        zh_inv = [inv(domain.vanishing_eval(x)) for x in xs[:zh_period]]
        t_evals = []
        for i in range(big_n):
            av, bv, cv = ev["a"][i], ev["b"][i], ev["c"][i]
            zv, zwv = ev["z"][i], ev["zw"][i]
            x = xs[i]
            q = {name: col[i] for name, col in q_evs}
            gate = gate_sum(q, (av, bv, cv), [col[i] for col in next_evs], weights) + ev["pi"][i]
            perm_a = (
                (av + beta * x + gamma)
                * (bv + beta * K1 * x % R + gamma)
                % R
                * (cv + beta * K2 * x % R + gamma)
                % R
                * zv
                % R
            )
            perm_b = (
                (av + beta * ev["s1"][i] + gamma)
                * (bv + beta * ev["s2"][i] + gamma)
                % R
                * (cv + beta * ev["s3"][i] + gamma)
                % R
                * zwv
                % R
            )
            boundary = (zv - 1) * ev["l1"][i] % R
            numerator = gate + alpha * (perm_a - perm_b) + alpha2 * boundary
            for coeff, wire, ind, dv in link_terms:
                numerator += coeff * ind[i] % R * (wire[i] - dv[i])
            t_evals.append(numerator % R * zh_inv[i % zh_period] % R)
        t_poly = poly.trim(engine.coset_intt(t_evals))
        # A numerator Z_H does not divide leaves a quotient that fills the
        # whole coset; a satisfied circuit keeps it at t_degree.
        if len(t_poly) > t_degree + 1:
            raise ProofError(
                "quotient is not divisible by Z_H: degree %d exceeds 3n+%d"
                % (len(t_poly) - 1, t_degree - 3 * n)
            )

        t_lo = t_poly[:n]
        t_mid = t_poly[n : 2 * n]
        t_hi = t_poly[2 * n :]
        b10, b11 = rand(), rand()
        t_lo = t_lo + [0] * (n - len(t_lo)) + [b10]
        t_mid = t_mid + [0] * (n - len(t_mid)) + [b11]
        t_mid[0] = (t_mid[0] - b10) % R
        t_hi = list(t_hi)
        if not t_hi:
            t_hi = [0]
        t_hi[0] = (t_hi[0] - b11) % R
        c_t_lo, c_t_mid, c_t_hi = (
            commit(srs, t_lo),
            commit(srs, t_mid),
            commit(srs, t_hi),
        )
        transcript.append_point(b"t_lo", c_t_lo)
        transcript.append_point(b"t_mid", c_t_mid)
        transcript.append_point(b"t_hi", c_t_hi)

    # ----- Round 4: evaluations at zeta -----------------------------------
    with telemetry.span("evaluation", round=4):
        zeta = transcript.challenge(b"zeta")
        a_bar = poly.evaluate(a_poly, zeta)
        b_bar = poly.evaluate(b_poly, zeta)
        c_bar = poly.evaluate(c_poly, zeta)
        s1_bar = poly.evaluate(list(pk.s_polys[0]), zeta)
        s2_bar = poly.evaluate(list(pk.s_polys[1]), zeta)
        z_omega_bar = poly.evaluate(z_poly, zeta * omega % R)
        omega_bars = tuple(poly.evaluate(wires[col], zeta * omega % R) for col in shifted)
        wire_bars = (a_bar, b_bar, c_bar)
        for label, value in (
            (b"a_bar", a_bar),
            (b"b_bar", b_bar),
            (b"c_bar", c_bar),
            (b"s1_bar", s1_bar),
            (b"s2_bar", s2_bar),
            (b"z_omega_bar", z_omega_bar),
        ) + tuple(
            (b"%s_omega_bar" % b"abc"[col : col + 1], w) for col, w in zip(shifted, omega_bars)
        ):
            transcript.append_scalar(label, value)

    # ----- Round 5: linearization + opening proofs ------------------------
    with telemetry.span("opening", round=5):
        v = transcript.challenge(b"v")
        zh_zeta = domain.vanishing_eval(zeta)
        l1_zeta = domain.lagrange_basis_eval(0, zeta)
        pi_zeta = poly.evaluate(pi_poly, zeta)

        pa = (
            (a_bar + beta * zeta + gamma)
            * (b_bar + beta * K1 * zeta % R + gamma)
            % R
            * (c_bar + beta * K2 * zeta % R + gamma)
            % R
        )
        pb = (a_bar + beta * s1_bar + gamma) * (b_bar + beta * s2_bar + gamma) % R

        r_poly: list[int] = []
        for name, scalar in zip(
            selectors, linearisation_scalars(selectors, wire_bars, omega_bars, weights)
        ):
            r_poly = poly.add(r_poly, poly.scale(pk.q_polys[name], scalar))
        z_scalar = (alpha * pa + alpha2 * l1_zeta) % R
        r_poly = poly.add(r_poly, poly.scale(z_poly, z_scalar))
        s3_scalar = (-(alpha * pb % R) * beta % R) * z_omega_bar % R
        r_poly = poly.add(r_poly, poly.scale(list(pk.s_polys[2]), s3_scalar))
        t_combined = poly.add(
            poly.add(t_lo, poly.scale(t_mid, pow(zeta, n, R))),
            poly.scale(t_hi, pow(zeta, 2 * n, R)),
        )
        r_poly = poly.sub(r_poly, poly.scale(t_combined, zh_zeta))

        r0 = (
            pi_zeta
            - l1_zeta * alpha2
            - alpha * pb % R * ((c_bar + gamma) % R) % R * z_omega_bar
        ) % R
        coeff = alpha2
        for slot, m, d_poly in links:
            # d(X) stays a polynomial (the verifier holds only [d]); its
            # partner, the wire's evaluation, is a known scalar and moves
            # into r0.
            coeff = coeff * alpha % R
            link_scalar = coeff * link_indicator_eval(n, m, zeta) % R
            r_poly = poly.sub(r_poly, poly.scale(d_poly, link_scalar))
            r0 = (r0 + link_scalar * wire_bars[slot]) % R
        if (poly.evaluate(r_poly, zeta) + r0) % R != 0:
            raise ProofError("internal linearization check failed")

        numerator = poly.add(r_poly, [r0])
        vk_pow = v
        for opened, value in (
            (a_poly, a_bar),
            (b_poly, b_bar),
            (c_poly, c_bar),
            (list(pk.s_polys[0]), s1_bar),
            (list(pk.s_polys[1]), s2_bar),
        ):
            numerator = poly.add(numerator, poly.scale(poly.sub(opened, [value]), vk_pow))
            vk_pow = vk_pow * v % R
        w_zeta_poly = poly.divide_by_linear(numerator, zeta)
        # The wires' zeta omega evaluations ride in z's opening, weighted
        # by v, v^2, v^3 in column order.
        shifted_numerator = poly.sub(z_poly, [z_omega_bar])
        vk_pow = v
        for col, value in zip(shifted, omega_bars):
            shifted_numerator = poly.add(
                shifted_numerator, poly.scale(poly.sub(wires[col], [value]), vk_pow)
            )
            vk_pow = vk_pow * v % R
        w_zeta_omega_poly = poly.divide_by_linear(shifted_numerator, zeta * omega % R)
        w_zeta = commit(srs, w_zeta_poly)
        w_zeta_omega = commit(srs, w_zeta_omega_poly)
        transcript.append_point(b"w_zeta", w_zeta)
        transcript.append_point(b"w_zeta_omega", w_zeta_omega)
        transcript.challenge(b"u")  # keeps prover/verifier transcripts aligned

    return Proof(
        c_a=c_a,
        c_b=c_b,
        c_c=c_c,
        c_z=c_z,
        c_t_lo=c_t_lo,
        c_t_mid=c_t_mid,
        c_t_hi=c_t_hi,
        w_zeta=w_zeta,
        w_zeta_omega=w_zeta_omega,
        a_bar=a_bar,
        b_bar=b_bar,
        c_bar=c_bar,
        s1_bar=s1_bar,
        s2_bar=s2_bar,
        z_omega_bar=z_omega_bar,
        **{"abc"[col] + "_omega_bar": value for col, value in zip(shifted, omega_bars)},
    )
