"""Rank-1 constraint systems.

Each constraint enforces <A_i, w> * <B_i, w> = <C_i, w> over the witness
vector w, whose layout is the Groth16 convention:

    w = (1, public_1 .. public_ell, private_1 .. private_m)

This substrate exists for the ZKCP baseline: the original protocol builds
on Groth16, whose verification work grows with the number of public
inputs — the asymmetry Figure 7 of the paper measures against Plonk.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import CircuitError, UnsatisfiedConstraintError
from repro.field.fr import MODULUS as R
from repro.primitives.poseidon import MDS

#: A linear combination is a sparse {variable_index: coefficient} map.
LinearCombination = dict


@dataclass(frozen=True)
class R1CSSystem:
    """An immutable compiled constraint system."""

    num_variables: int
    num_public: int  # count of public inputs (excluding the constant ONE)
    constraints: tuple  # of (A, B, C) LinearCombination triples

    @property
    def num_constraints(self) -> int:
        return len(self.constraints)

    def eval_lc(self, lc: LinearCombination, witness: list[int]) -> int:
        acc = 0
        for var, coeff in lc.items():
            acc += coeff * witness[var]
        return acc % R

    def check(self, witness: "R1CSWitness") -> None:
        """Verify the witness satisfies every constraint."""
        values = witness.values
        if len(values) != self.num_variables:
            raise CircuitError("witness length mismatch")
        if values[0] != 1:
            raise CircuitError("witness slot 0 must hold the constant 1")
        for i, (a, b, c) in enumerate(self.constraints):
            lhs = self.eval_lc(a, values) * self.eval_lc(b, values) % R
            if lhs != self.eval_lc(c, values):
                raise UnsatisfiedConstraintError("R1CS constraint %d violated" % i)


@dataclass
class R1CSWitness:
    """A full variable assignment for an :class:`R1CSSystem`."""

    values: list[int]
    num_public: int

    @property
    def public_inputs(self) -> list[int]:
        return list(self.values[1 : 1 + self.num_public])


class R1CSBuilder:
    """Synthesis-style builder: records constraints and computes values."""

    ONE = 0

    def __init__(self):
        self._values: list[int] = [1]
        self._num_public = 0
        self._constraints: list[tuple] = []
        self._public_done = False
        self._constants: dict[int, int] = {}

    def public_input(self, value: int) -> int:
        """Allocate a public input (must precede all private variables)."""
        if self._public_done:
            raise CircuitError("public inputs must be allocated first")
        self._values.append(int(value) % R)
        self._num_public += 1
        return len(self._values) - 1

    def var(self, value: int) -> int:
        """Allocate a private witness variable."""
        self._public_done = True
        self._values.append(int(value) % R)
        return len(self._values) - 1

    def value(self, index: int) -> int:
        return self._values[index]

    def enforce(
        self, a: LinearCombination, b: LinearCombination, c: LinearCombination
    ) -> None:
        """Add the constraint <a, w> * <b, w> = <c, w>."""

        def norm(lc: LinearCombination) -> LinearCombination:
            return {k: v % R for k, v in lc.items() if v % R}

        self._constraints.append((norm(a), norm(b), norm(c)))

    # ----- helpers -------------------------------------------------------------
    #
    # The signatures below mirror repro.plonk.circuit.CircuitBuilder, so
    # the gadget library (MiMC, Poseidon, ...) runs unchanged on both
    # arithmetisations; the ZKCP baseline's Groth16 circuits reuse it.

    def constant(self, value: int) -> int:
        value = int(value) % R
        if value in self._constants:
            return self._constants[value]
        out = self.var(value)
        self.assert_constant(out, value)
        self._constants[value] = out
        return out

    def add_const(self, x: int, k: int) -> int:
        out = self.var(self._values[x] + k)
        self.enforce({x: 1, self.ONE: k % R}, {self.ONE: 1}, {out: 1})
        return out

    def scale(self, x: int, k: int) -> int:
        out = self.var(self._values[x] * k)
        self.enforce({x: k % R}, {self.ONE: 1}, {out: 1})
        return out

    def mul(self, x: int, y: int) -> int:
        out = self.var(self._values[x] * self._values[y])
        self.enforce({x: 1}, {y: 1}, {out: 1})
        return out

    def square_mul(self, x: int, y: int) -> int:
        return self.mul(self.mul(x, x), y)

    def gate(
        self, a: int, b: int, c: int, ql=0, qr=0, qo=0, qm=0, q3=0, qc=0
    ) -> None:
        """The Plonk gate qL*a + qR*b + qO*c + qM*a*b + q3*a*a*b + qC = 0,
        as (q3*a^2 + qM*a + qR) * b = -(qL*a + qO*c + qC); a cubic term
        costs one more constraint for a^2."""
        left = {a: qm, self.ONE: qr}
        if q3 % R:
            left[self.mul(a, a)] = q3
        right: LinearCombination = {self.ONE: -qc}
        for var, coeff in ((a, -ql), (c, -qo)):
            right[var] = right.get(var, 0) + coeff
        self.enforce(left, {b: 1}, right)

    def mimc_round(self, x: int, key: int, constant: int) -> int:
        """(x + key)^7 + constant, the Plonk round gate's output: four
        products of the linear form x + key."""
        t = {x: 1}
        t[key] = t.get(key, 0) + 1
        s = self._values[x] + self._values[key]
        t2 = self.var(s * s)
        self.enforce(t, t, {t2: 1})
        t3 = self.var(self._values[t2] * s)
        self.enforce({t2: 1}, t, {t3: 1})
        t6 = self.mul(t3, t3)
        out = self.var(self._values[t6] * s + constant)
        self.enforce({t6: 1}, t, {out: 1, self.ONE: -constant})
        return out

    def poseidon_partial_round(self, x: int, s1: int, s2: int, constant: int) -> tuple:
        """The Plonk partial-round rows' outputs (x', s1', s2'), with
        (x' - constant, s1', s2') = M (x^5, s1, s2): x^2 and x^3, then each
        output one product (M_j0 x^3) * x^2 against its linear rest."""
        x2 = self.mul(x, x)
        x3 = self.mul(x2, x)
        y = self._values[x3] * self._values[x2]
        outs = []
        for row, k in zip(MDS, (constant, 0, 0)):
            out = self.var(row[0] * y + row[1] * self._values[s1] + row[2] * self._values[s2] + k)
            self.enforce({x3: row[0]}, {x2: 1}, {out: 1, s1: -row[1], s2: -row[2], self.ONE: -k})
            outs.append(out)
        return tuple(outs)

    def add(self, x: int, y: int) -> int:
        out = self.var(self._values[x] + self._values[y])
        self.enforce({x: 1, y: 1}, {self.ONE: 1}, {out: 1})
        return out

    def assert_equal(self, x: int, y: int) -> None:
        self.enforce({x: 1, y: -1}, {self.ONE: 1}, {})

    def assert_constant(self, x: int, k: int) -> None:
        self.enforce({x: 1}, {self.ONE: 1}, {self.ONE: k % R})

    def linear_combination(self, terms: list[tuple[int, int]], constant: int = 0) -> int:
        """Allocate a variable equal to sum(coeff * var) + constant."""
        value = constant
        lc: LinearCombination = {self.ONE: constant % R}
        for coeff, var in terms:
            value += coeff * self._values[var]
            lc[var] = (lc.get(var, 0) + coeff) % R
        out = self.var(value)
        self.enforce(lc, {self.ONE: 1}, {out: 1})
        return out

    def compile(self, check: bool = True) -> tuple[R1CSSystem, R1CSWitness]:
        """Finalize into an immutable system plus the computed witness.

        ``check=False`` skips witness validation (used when rebuilding a
        circuit's structure from dummy values, e.g. for key generation).
        """
        system = R1CSSystem(
            num_variables=len(self._values),
            num_public=self._num_public,
            constraints=tuple(self._constraints),
        )
        witness = R1CSWitness(list(self._values), self._num_public)
        if check:
            system.check(witness)
        return system, witness
