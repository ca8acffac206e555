"""Plonk constraint-system builder.

A circuit is a list of rows over three wires (a, b, c), each holding one
gate: the constraints of :func:`gate_constraints`, weighted by the row's
selectors (:data:`SELECTORS`), plus copy constraints ("the same variable
appears in these slots"), which Plonk encodes as a permutation over the 3n
wire slots.  Three selectors read the next row, so their circuits open
wires at zeta omega too (:attr:`Layout.shifted`): ``qround``, a MiMC round
in one row (:meth:`CircuitBuilder.mimc_round`); ``qnext``, which with
qnext = -1 writes the row's linear part into the next row's a slot; and
``qpartial``, the S-box row of a Poseidon partial round
(:meth:`CircuitBuilder.poseidon_partial_round`), which is two rows: (x,
x^3, s1) and (s2, s1', s2'), the second a ``qnext`` row writing the next
round's x.

:class:`CircuitBuilder` is used in *synthesis* style: every operation both
records the gate structure and computes the concrete witness value, so
``compile()`` yields the layout (structure only — reusable across
witnesses) and the assignment (this witness) in one pass.  Building the
same circuit code path with different inputs yields byte-identical layouts,
so verification keys are reusable, exactly as with Circom templates.
"""

from __future__ import annotations

from dataclasses import dataclass
import hashlib
from operator import mul

from repro.errors import CircuitError, UnsatisfiedConstraintError
from repro.field.fr import MODULUS as R, inv as fr_inv, root_of_unity
from repro.kzg.commit import message_slots
from repro.primitives.poseidon import MDS

#: Coset representatives separating the three wire columns inside the
#: permutation argument.  Checked at import time to lie outside every
#: 2-adic subgroup (and in distinct cosets of each other).
def _find_cosets() -> tuple[int, int]:
    full = 1 << 28
    candidates = [2, 3, 5, 7, 11, 13, 17]
    picked: list[int] = []
    for k in candidates:
        if pow(k, full, R) == 1:
            continue
        if any(pow(k * fr_inv(other) % R, full, R) == 1 for other in picked):
            continue
        picked.append(k)
        if len(picked) == 2:
            return picked[0], picked[1]
    raise CircuitError("could not find permutation coset representatives")


K1, K2 = _find_cosets()

Wire = int  # a variable handle

#: The wire columns (0 = a, 1 = b, 2 = c) links take, in link order.  Every
#: H_m contains row 0, so a circuit links at most three messages; b and c
#: are free in a public-input row, a only when row 0 holds no public input.
LINK_SLOTS = (1, 2, 0)


def reserved_rows(n: int, widest: int, ell: int) -> list[int]:
    """The rows j * n / m of a circuit's widest link past its ``ell``
    public-input rows: :meth:`CircuitBuilder.compile` leaves them gate-free.
    Every narrower link's rows are among them (m' divides m)."""
    step = n // widest
    return [j * step for j in range(widest) if j * step >= ell]


def linked_size(ell: int, gates: int, widths: list[int], min_size: int = 4) -> int:
    """The padded n of a circuit with ``ell`` public inputs, ``gates`` gates
    and links of m = ``widths``: the least power of two, at least
    ``min_size`` and the widest m, that holds the public-input rows, the
    gates and the :func:`reserved_rows`.  The builder and the cost model
    both size circuits here."""
    widest = max(widths, default=1)
    n = max(min_size, widest)
    while n < ell + gates + len(reserved_rows(n, widest, ell)):
        n <<= 1
    return n


def link_indicator(n: int, m: int) -> list[int]:
    """Coefficients of I_m(X) = (m/n)(X^n - 1)/(X^m - 1) = (m/n) sum_t X^(t m):
    1 on H_m, 0 on the rest of H_n, and L_0 when m = 1."""
    scale = m * fr_inv(n) % R
    return [scale if t % m == 0 else 0 for t in range(n - m + 1)]


def link_indicator_eval(n: int, m: int, x: int) -> int:
    """I_m(x) for an x outside H_n, in O(log n) field work."""
    return m * fr_inv(n) % R * (pow(x, n, R) - 1) % R * fr_inv((pow(x, m, R) - 1) % R) % R


(_M10, _M11, _M12), (_M20, _M21, _M22) = MDS[1], MDS[2]


def _next_row_map() -> tuple[int, int, int]:
    """rho with M0 . (y, s1, s2) = rho . (s2, s1', s2'), where s1', s2' are
    M's rows 1 and 2 applied to (y, s1, s2): the partial round's second row
    recovers the next S-box input from its own three wires.  It exists
    because the minor [[M10, M11], [M20, M21]] of an MDS matrix is
    invertible."""
    det_inv = fr_inv((_M10 * _M21 - _M11 * _M20) % R)
    m00, m01, m02 = MDS[0]
    # (w0, w1) = (m00, m01) . [[M10, M11], [M20, M21]]^-1
    w0 = (m00 * _M21 - m01 * _M20) * det_inv % R
    w1 = (m01 * _M10 - m00 * _M11) * det_inv % R
    return (m02 - w0 * _M12 - w1 * _M22) % R, w0, w1


#: The qnext row of a partial round: x' = rho . (a, b, c) + constant.
NEXT_ROW = _next_row_map()


#: The gate's selectors in key order.  Every layout has the first six; the
#: gates that read the next row (:data:`SHIFTED_SELECTORS`) have a column,
#: and their key a commitment, only where a row uses them.
SELECTORS = ("qm", "q3", "ql", "qr", "qo", "qc", "qround", "qnext", "qpartial")
SHIFTED_SELECTORS = SELECTORS[6:]


def gate_constraints(q: dict, w: tuple, w_next: tuple) -> list[int]:
    """The gate's constraints at one point, reduced mod r: each is 0 where
    the gate holds and linear in the selector values ``q`` (by name, the
    selectors of :data:`SELECTORS` the circuit has), given the wires ``w``
    = (a, b, c) and the next row's ``w_next`` (the prefix of them the
    circuit opens at zeta omega).  In order:

    - the main gate, PI(X) left to the caller,
          qM a b + q3 a^2 b + qL a + qR b + qO c + qC
              + qnext a' + qround (a' - c^2 t),   t = a + b;
    - with ``qround``, the round gate's cube, qround (c - t^3);
    - with ``qpartial``, the partial-round gate's three, y = b a^2:
          qpartial (b - a^3),  qpartial (b' - M10 y - M11 c - M12 a'),
          qpartial (c' - M20 y - M21 c - M22 a').

    :meth:`Layout.check` requires every one to be 0 on every row; the
    prover's quotient and both linearisations weigh them by
    :func:`gate_weights`.
    """
    a, b, c = w
    main = a * b % R * (q["qm"] + q["q3"] * a) + q["ql"] * a + q["qr"] * b + q["qo"] * c + q["qc"]
    rest = []
    if "qnext" in q:
        main += q["qnext"] * w_next[0]
    if "qround" in q:
        t = a + b
        main += q["qround"] * (w_next[0] - c * c % R * t)
        rest.append(q["qround"] * (c - t * t % R * t) % R)
    if "qpartial" in q:
        qp, (a1, b1, c1) = q["qpartial"], w_next
        y = b * a % R * a % R
        rest += [
            qp * (b - a * a % R * a) % R,
            qp * (b1 - _M10 * y - _M11 * c - _M12 * a1) % R,
            qp * (c1 - _M20 * y - _M21 * c - _M22 * a1) % R,
        ]
    return [main % R] + rest


def gate_weights(selectors, alpha: int, coeff: int) -> list[int]:
    """The weights of :func:`gate_constraints`'s constraints for a circuit
    with ``selectors``: 1 on the main gate, which the quotient adds as it
    stands, and the powers of alpha after ``coeff`` (the last link's,
    alpha^2 without links) on the rest, in order."""
    count = len(gate_constraints(dict.fromkeys(selectors, 0), (0, 0, 0), (0, 0, 0)))
    weights = [1]
    for _ in range(count - 1):
        coeff = coeff * alpha % R
        weights.append(coeff)
    return weights


def gate_sum(q: dict, w: tuple, w_next: tuple, weights: list[int]) -> int:
    """sum_k weights[k] c_k over :func:`gate_constraints`, not reduced."""
    return sum(map(mul, weights, gate_constraints(q, w, w_next)))


def linearisation_scalars(selectors, w: tuple, w_next: tuple, weights: list[int]) -> list[int]:
    """What the linearisation multiplies each of ``selectors`` by: the
    prover's q(X) in r(X), the verifier's [q].  With the wires at zeta
    (``w``) and zeta omega (``w_next``) fixed, the weighted gate is linear
    in the selectors, so a selector's scalar is that sum at the unit
    vector on it."""
    scalars = []
    for name in selectors:
        unit = {other: int(other == name) for other in selectors}
        scalars.append(gate_sum(unit, w, w_next, weights) % R)
    return scalars


def shifted_columns(next_a: bool, partial: bool) -> tuple:
    """The wire columns opened at zeta omega by a circuit whose gates read
    the next row's a (round and next-a gates) and all three of its wires
    (partial-round gates): always a prefix of (a, b, c)."""
    return (0, 1, 2) if partial else (0,) if next_a else ()


@dataclass
class _Gate:
    ql: int
    qr: int
    qo: int
    qm: int
    q3: int
    qc: int
    a: Wire
    b: Wire
    c: Wire
    qround: int = 0
    qnext: int = 0
    qpartial: int = 0

    @property
    def writes_next_a(self) -> bool:
        """Whether the row's gate fixes the next row's a slot."""
        return bool(self.qround or self.qnext)


@dataclass(frozen=True)
class Layout:
    """Compiled circuit structure (independent of any witness).

    Attributes:
        n: number of gates, a power of two.
        ell: number of public inputs (occupying the first ``ell`` gates).
        ql, qr, qo, qm, q3, qc: the six selector columns, each length ``n``.
        sigma: the copy-constraint permutation over the ``3n`` wire slots.
        link_slots: one ``(column, m)`` per linked message
            (:meth:`CircuitBuilder.link`): its entry j sits in that column
            of row j * n / m.  Empty for a circuit that links nothing.
        qround, qnext, qpartial: the selector columns that read the next
            row (the MiMC round, the next-a and the Poseidon partial-round
            gates), each length ``n`` or empty for a circuit without that
            gate, whose key and proofs then carry nothing for it.
    """

    n: int
    ell: int
    ql: tuple
    qr: tuple
    qo: tuple
    qm: tuple
    q3: tuple
    qc: tuple
    sigma: tuple
    link_slots: tuple = ()
    qround: tuple = ()
    qnext: tuple = ()
    qpartial: tuple = ()

    def __post_init__(self) -> None:
        # omega * omega^(n-1) = 1: a gate on the last row that reads the
        # next one would read row 0, a public input.
        if any(col and col[-1] for col in (self.qround, self.qnext, self.qpartial)):
            raise CircuitError("a shifted gate on the last row would read row 0 at omega X")

    @property
    def links(self) -> int:
        """How many messages the circuit links."""
        return len(self.link_slots)

    @property
    def shifted(self) -> tuple:
        """The wire columns (0 = a, 1 = b, 2 = c) the circuit's proofs open
        at zeta omega: a for round and next-a gates, all three for
        partial-round gates, none for a circuit without them."""
        return shifted_columns(bool(self.qround or self.qnext), bool(self.qpartial))

    def digest(self) -> bytes:
        """Stable hash of the structure (the key cache's lookup key).

        Hashing every column is linear in ``n``, so the result is kept on
        the instance: a layout is immutable.
        """
        cached = self.__dict__.get("_digest")
        if cached is None:
            h = hashlib.sha256()
            h.update(b"layout:%d:%d;" % (self.n, self.ell))
            for slot, m in self.link_slots:  # a layout that links nothing hashes as before
                h.update(b"link:%d:%d;" % (slot, m))
            if self.qround:  # likewise one without round gates
                h.update(b"round;")
            if self.qnext or self.qpartial:  # and one without Poseidon's
                h.update(b"poseidon;")
            for col in (
                self.ql, self.qr, self.qo, self.qm, self.q3, self.qc, self.sigma,
                self.qround, self.qnext, self.qpartial,
            ):
                for v in col:
                    h.update(v.to_bytes(32, "little"))
            cached = h.digest()
            object.__setattr__(self, "_digest", cached)
        return cached

    def sigma_star(self) -> tuple[list[int], list[int], list[int]]:
        """Encode the permutation as field elements (the S_sigma columns).

        Slot j in column k of row i maps through sigma to another slot,
        whose field encoding is coset_rep[column] * omega^row.
        """
        omega = root_of_unity(self.n) if self.n > 1 else 1
        reps = (1, K1, K2)
        points = [1] * self.n
        for i in range(1, self.n):
            points[i] = points[i - 1] * omega % R
        columns: tuple[list[int], ...] = ([], [], [])
        for col in range(3):
            for row in range(self.n):
                target = self.sigma[col * self.n + row]
                t_col, t_row = divmod(target, self.n)
                columns[col].append(reps[t_col] * points[t_row] % R)
        return columns

    def check(self, assignment: "Assignment") -> None:
        """Verify the assignment satisfies every gate (fast, no crypto).

        Raises :class:`UnsatisfiedConstraintError` on the first failure.
        Used pervasively by the gadget tests: it validates circuits at
        field-arithmetic speed without running the prover.
        """
        a, b, c = assignment.a, assignment.b, assignment.c
        n = self.n
        if not (len(a) == len(b) == len(c) == n):
            raise CircuitError("assignment length does not match layout")
        columns = [(name, getattr(self, name)) for name in SELECTORS if getattr(self, name)]
        for i in range(n):
            j = (i + 1) % n
            q = {name: col[i] for name, col in columns}
            main, *rest = gate_constraints(q, (a[i], b[i], c[i]), (a[j], b[j], c[j]))
            pi = -a[i] if i < self.ell else 0
            if (main + pi) % R or any(rest):
                raise UnsatisfiedConstraintError("gate %d not satisfied" % i)


@dataclass
class Assignment:
    """A concrete witness: the three wire-value columns, plus one
    ``(commitment, blinder)`` per message the layout links."""

    a: list[int]
    b: list[int]
    c: list[int]
    ell: int
    links: tuple = ()

    @property
    def public_inputs(self) -> list[int]:
        """The public-input values (first ``ell`` a-wires)."""
        return list(self.a[: self.ell])


class CircuitBuilder:
    """Builds a Plonk circuit and its witness simultaneously."""

    def __init__(self):
        self._values: list[int] = []
        self._gates: list[_Gate] = []
        self._public: list[Wire] = []
        self._constants: dict[int, Wire] = {}
        self._links: list[tuple] = []
        self._compiled = False
        # The output of the last gate if it writes the next row's a (a round
        # or next-a gate): the next gate must take it in its a slot.
        self._shifted_out: Wire | None = None

    # ----- variable allocation -------------------------------------------------

    def var(self, value: int) -> Wire:
        """Allocate a private witness variable with the given value."""
        self._values.append(int(value) % R)
        return len(self._values) - 1

    def public_input(self, value: int) -> Wire:
        """Allocate a public-input variable (exposed in the statement)."""
        w = self.var(value)
        self._public.append(w)
        return w

    def constant(self, value: int) -> Wire:
        """Allocate (or reuse) a variable constrained to a constant."""
        value = int(value) % R
        if value in self._constants:
            return self._constants[value]
        w = self.var(value)
        self.gate(a=w, ql=1, qc=-value)
        self._constants[value] = w
        return w

    def link(self, wires: Wire | list[Wire], commitment, blinder: int) -> None:
        """Bind ``wires`` to the message under ``commitment``: the KZG point
        of d(X) = sum_j m_j L_j(X) + blinder * (X^m - 1) over H_m, m the
        entry count padded to a power of two
        (:func:`repro.kzg.commit.commit_message`; one wire is the scalar
        case, :func:`~repro.kzg.commit.commit_scalar`).

        Links take the wire columns of :data:`LINK_SLOTS` in order, and
        entry j sits in its column at row j * n / m: a public-input row,
        whose b and c slots no gate reads, or a row :meth:`compile`
        reserves.  The prover adds I_m(X) * (w(X) - d(X)) to the quotient
        (:func:`link_indicator`).  Padding entries are linked to the
        constant 0.  A circuit links at most three messages.
        ``commitment`` is statement, not structure: structure-only builds
        may pass a placeholder.
        """
        if len(self._links) == len(LINK_SLOTS):
            raise CircuitError("a circuit links at most %d commitments" % len(LINK_SLOTS))
        wires = [wires] if isinstance(wires, int) else list(wires)
        if not wires:
            raise CircuitError("a link needs at least one wire")
        m = message_slots(len(wires))
        if m > len(wires):
            wires += [self.constant(0)] * (m - len(wires))
        self._links.append((wires, commitment, int(blinder) % R))

    def value(self, wire: Wire) -> int:
        """Read back the witness value of a wire."""
        return self._values[wire]

    # ----- raw gates -----------------------------------------------------------

    def gate(
        self,
        a: Wire | None = None,
        b: Wire | None = None,
        c: Wire | None = None,
        ql: int = 0,
        qr: int = 0,
        qo: int = 0,
        qm: int = 0,
        q3: int = 0,
        qc: int = 0,
        qround: int = 0,
        qnext: int = 0,
        qpartial: int = 0,
    ) -> None:
        """Append a raw gate; unused wire positions get dummy variables.

        ``q3`` weighs the cubic term ``a*a*b`` (an S-box step in one row);
        ``qround`` makes the row a round gate (:meth:`mimc_round`);
        ``qnext`` weighs the next row's a and ``qpartial`` makes the row a
        partial round's S-box row (:meth:`poseidon_partial_round`, which
        sets both).
        """
        if self._compiled:
            raise CircuitError("builder already compiled")
        if self._shifted_out is not None and a != self._shifted_out:
            raise CircuitError("the gate after a shifted gate must take its output in the a slot")
        a = self.var(0) if a is None else a
        b = self.var(0) if b is None else b
        c = self.var(0) if c is None else c
        self._gates.append(
            _Gate(
                ql % R, qr % R, qo % R, qm % R, q3 % R, qc % R, a, b, c,
                qround % R, qnext % R, qpartial % R,
            )
        )
        self._shifted_out = None

    # ----- arithmetic operations (compute value + constrain) --------------------

    def add(self, x: Wire, y: Wire) -> Wire:
        """Return a wire constrained to x + y."""
        out = self.var(self._values[x] + self._values[y])
        self.gate(a=x, b=y, c=out, ql=1, qr=1, qo=-1)
        return out

    def sub(self, x: Wire, y: Wire) -> Wire:
        """Return a wire constrained to x - y."""
        out = self.var(self._values[x] - self._values[y])
        self.gate(a=x, b=y, c=out, ql=1, qr=-1, qo=-1)
        return out

    def mul(self, x: Wire, y: Wire) -> Wire:
        """Return a wire constrained to x * y."""
        out = self.var(self._values[x] * self._values[y])
        self.gate(a=x, b=y, c=out, qm=1, qo=-1)
        return out

    def square_mul(self, x: Wire, y: Wire) -> Wire:
        """Return a wire constrained to x * x * y (one cubic gate)."""
        out = self.var(self._values[x] * self._values[x] % R * self._values[y])
        self.gate(a=x, b=y, c=out, q3=1, qo=-1)
        return out

    def mimc_round(self, x: Wire, key: Wire, constant: int) -> Wire:
        """Return a wire constrained to (x + key)^7 + constant: one MiMC
        round in one row, which holds x, key and t^3 (t = x + key) and whose
        selector ``qround`` checks ``c = t^3`` and, with ``qC = -constant``,
        ``a(omega X) = c^2 t + constant``.  The output is read in the next
        row's a slot, so the next gate must take the returned wire as its a.
        """
        t = (self._values[x] + self._values[key]) % R
        cube = self.var(t * t % R * t)
        self.gate(a=x, b=key, c=cube, qc=-constant, qround=1)
        out = self.var(pow(t, 7, R) + constant)
        self._shifted_out = out
        return out

    def poseidon_partial_round(
        self, x: Wire, s1: Wire, s2: Wire, constant: int
    ) -> tuple[Wire, Wire, Wire]:
        """One Poseidon partial round in two rows: ``x`` the S-box input
        (its round constant added), ``s1``, ``s2`` the other two lanes.
        Returns (x', s1', s2') with (x' - constant, s1', s2') = M (x^5, s1,
        s2).  Row one, (x, x^3, s1), is the ``qpartial`` row: the cube and
        M's rows 1 and 2 land on row two, (s2, s1', s2'), whose ``qnext``
        writes x' = rho . (s2, s1', s2') + constant (:data:`NEXT_ROW`) into
        the next row's a slot, so the next gate must take it there.
        """
        xv, v1, v2 = self._values[x], self._values[s1], self._values[s2]
        cube = xv * xv % R * xv % R
        y = cube * xv % R * xv % R
        lanes = [
            (row[0] * y + row[1] * v1 + row[2] * v2) % R for row in MDS
        ]
        u = self.var(cube)
        self.gate(a=x, b=u, c=s1, qpartial=1)
        out1, out2 = self.var(lanes[1]), self.var(lanes[2])
        rho_a, rho_b, rho_c = NEXT_ROW
        self.gate(a=s2, b=out1, c=out2, ql=rho_a, qr=rho_b, qo=rho_c, qc=constant, qnext=-1)
        out0 = self.var(lanes[0] + constant)
        self._shifted_out = out0
        return out0, out1, out2

    def mul_add(self, x: Wire, y: Wire, z: Wire) -> Wire:
        """Return a wire constrained to x*y + z (two gates)."""
        return self.add(self.mul(x, y), z)

    def mul_add_const(self, x: Wire, y: Wire, k: int) -> Wire:
        """Return a wire constrained to x*y + k (one gate)."""
        k %= R
        out = self.var(self._values[x] * self._values[y] + k)
        self.gate(a=x, b=y, c=out, qm=1, qo=-1, qc=k)
        return out

    def scale(self, x: Wire, k: int) -> Wire:
        """Return a wire constrained to k * x."""
        k %= R
        out = self.var(self._values[x] * k)
        self.gate(a=x, c=out, ql=k, qo=-1)
        return out

    def add_const(self, x: Wire, k: int) -> Wire:
        """Return a wire constrained to x + k."""
        k %= R
        out = self.var(self._values[x] + k)
        self.gate(a=x, c=out, ql=1, qo=-1, qc=k)
        return out

    def linear_combination(self, terms: list[tuple[int, Wire]], constant: int = 0) -> Wire:
        """Return a wire constrained to sum(k_i * w_i) + constant.

        Folds two terms per gate; costs ``max(1, len(terms) - 1)`` gates.
        """
        constant %= R
        if not terms:
            return self.constant(constant)
        if len(terms) == 1:
            k, w = terms[0]
            k %= R
            out = self.var(self._values[w] * k + constant)
            self.gate(a=w, c=out, ql=k, qo=-1, qc=constant)
            return out
        (k1, w1), (k2, w2) = terms[0], terms[1]
        acc_val = (self._values[w1] * k1 + self._values[w2] * k2 + constant) % R
        acc = self.var(acc_val)
        self.gate(a=w1, b=w2, c=acc, ql=k1, qr=k2, qo=-1, qc=constant)
        for k, w in terms[2:]:
            k %= R
            new_val = (self._values[acc] + self._values[w] * k) % R
            new = self.var(new_val)
            self.gate(a=acc, b=w, c=new, ql=1, qr=k, qo=-1)
            acc = new
        return acc

    # ----- assertions ------------------------------------------------------------

    def assert_equal(self, x: Wire, y: Wire) -> None:
        """Constrain x == y."""
        self.gate(a=x, b=y, ql=1, qr=-1)

    def assert_constant(self, x: Wire, k: int) -> None:
        """Constrain x == k."""
        self.gate(a=x, ql=1, qc=-(k % R))

    def assert_zero(self, x: Wire) -> None:
        """Constrain x == 0."""
        self.gate(a=x, ql=1)

    def assert_bool(self, x: Wire) -> None:
        """Constrain x in {0, 1} via x^2 - x = 0."""
        self.gate(a=x, b=x, qm=1, ql=-1)

    def assert_mul(self, x: Wire, y: Wire, z: Wire) -> None:
        """Constrain x * y == z."""
        self.gate(a=x, b=y, c=z, qm=1, qo=-1)

    def assert_not_zero(self, x: Wire) -> None:
        """Constrain x != 0 by exhibiting its inverse."""
        val = self._values[x]
        inv_val = fr_inv(val) if val else 0
        inv = self.var(inv_val)
        one = self.var(val * inv_val)
        self.gate(a=x, b=inv, c=one, qm=1, qo=-1)
        self.assert_constant(one, 1)

    # ----- compilation -----------------------------------------------------------

    @property
    def num_gates(self) -> int:
        """Gates emitted so far (excluding public-input, link and padding rows)."""
        return len(self._gates)

    def _rows(self, n: int, ell: int, widest: int) -> list[_Gate] | None:
        """The n rows: public inputs, then the gates around the rows the
        widest link reserves (no gate, no constraint); None when they do
        not fit in n.

        Public-input gates come first: a = w_i with qL = 1; the PI
        polynomial contributes -w_i so the row sums to zero.  A gate that
        writes the next row's a before a reserved row writes it — the a of
        the gate after it — into that row's a slot, which the row's zero
        selectors leave free.  A partial round's first row reads all three
        wires of its second, so it never sits before a reserved row: a
        gate-free row holding its a (which the gate before may write) goes
        there instead.
        """
        reserved = set(reserved_rows(n, widest, ell))
        gates: list[_Gate] = []
        pending = iter(self._gates)
        gate = next(pending, None)
        for row in range(n):
            if row < ell:
                gates.append(_Gate(1, 0, 0, 0, 0, 0, self._public[row], self.var(0), self.var(0)))
                continue
            blocked = gate is not None and gate.qpartial and row + 1 in reserved
            if row not in reserved and gate is not None and not blocked:
                gates.append(gate)
                gate = next(pending, None)
                continue
            carried = blocked or (gate is not None and gates and gates[-1].writes_next_a)
            a = gate.a if carried else self.var(0)
            gates.append(_Gate(0, 0, 0, 0, 0, 0, a, self.var(0), self.var(0)))
        return gates if gate is None else None

    def compile(self, min_size: int = 4, check: bool = True) -> tuple[Layout, Assignment]:
        """Finalize into a (layout, assignment) pair, padded to a power of 2.

        ``check=False`` skips witness validation: verifiers use it to
        rebuild a circuit's *structure* (selectors, permutation) from dummy
        values, since the layout is witness-independent.
        """
        if self._shifted_out is not None:
            raise CircuitError("a shifted gate on the last row would read row 0 at omega X")
        self._compiled = True
        ell = len(self._public)
        slots = LINK_SLOTS[: len(self._links)]
        if ell and 0 in slots:
            raise CircuitError(
                "a third link takes row 0's a slot, which holds a public input"
            )
        widths = [len(w) for w, _c, _o in self._links]
        n = linked_size(ell, len(self._gates), widths, min_size)
        # A partial round's first row may push its gates past n (_rows).
        while (gates := self._rows(n, ell, max(widths, default=1))) is None:
            n <<= 1
        for (wires, _c, _o), slot in zip(self._links, slots):
            step = n // len(wires)
            for j, wire in enumerate(wires):
                if slot == 0 and j and gates[j * step - 1].writes_next_a:
                    raise CircuitError("a shifted gate writes into a row whose a slot is linked")
                setattr(gates[j * step], "abc"[slot], wire)

        # Copy constraints: slots holding the same variable form one cycle.
        slots_of: dict[Wire, list[int]] = {}
        for row, g in enumerate(gates):
            slots_of.setdefault(g.a, []).append(row)
            slots_of.setdefault(g.b, []).append(n + row)
            slots_of.setdefault(g.c, []).append(2 * n + row)
        sigma = list(range(3 * n))
        for cycle in slots_of.values():
            for i, s in enumerate(cycle):
                sigma[s] = cycle[(i + 1) % len(cycle)]

        link_slots = tuple((slot, len(w)) for (w, _c, _o), slot in zip(self._links, slots))
        selectors = {name: tuple(getattr(g, name) for g in gates) for name in SELECTORS}
        # A gate that reads the next row has no column where no row uses it:
        # its key and proofs carry nothing for it.
        for name in SHIFTED_SELECTORS:
            selectors[name] = selectors[name] if any(selectors[name]) else ()
        layout = Layout(n, ell, sigma=tuple(sigma), link_slots=link_slots, **selectors)
        vals = self._values
        assignment = Assignment(
            a=[vals[g.a] for g in gates],
            b=[vals[g.b] for g in gates],
            c=[vals[g.c] for g in gates],
            ell=ell,
            links=tuple((c, o) for _w, c, o in self._links),
        )
        if check:
            layout.check(assignment)
        return layout, assignment
