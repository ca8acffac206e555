"""Property-based tests of the Plonk circuit builder's invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain.events import Event
from repro.field.fr import MODULUS as R
from repro.plonk.circuit import CircuitBuilder, K1, K2

elements = st.integers(min_value=0, max_value=R - 1)

# A random program: sequence of (op, value) instructions applied to a
# rolling stack of wires.
ops = st.lists(
    st.tuples(
        st.sampled_from(["var", "add", "mul", "square_mul", "sub", "scale", "const"]),
        elements,
    ),
    min_size=1,
    max_size=25,
)


def _run_program(program):
    builder = CircuitBuilder()
    stack = [builder.var(1)]
    for op, value in program:
        if op == "var":
            stack.append(builder.var(value))
        elif op == "const":
            stack.append(builder.constant(value % 1000))
        elif op == "scale":
            stack.append(builder.scale(stack[-1], value))
        elif len(stack) >= 2:
            a, b = stack[-2], stack[-1]
            fn = getattr(builder, op)  # add, mul, square_mul, sub
            stack.append(fn(a, b))
    return builder


class TestBuilderInvariants:
    @given(ops)
    @settings(max_examples=40, deadline=None)
    def test_any_program_compiles_satisfied(self, program):
        """Synthesis-style building can never produce an unsatisfied
        witness: values are computed together with constraints."""
        builder = _run_program(program)
        layout, assignment = builder.compile()
        layout.check(assignment)  # must not raise

    @given(ops)
    @settings(max_examples=40, deadline=None)
    def test_sigma_is_always_a_permutation(self, program):
        layout, _ = _run_program(program).compile()
        assert sorted(layout.sigma) == list(range(3 * layout.n))

    @given(ops)
    @settings(max_examples=40, deadline=None)
    def test_n_is_power_of_two_and_covers_gates(self, program):
        builder = _run_program(program)
        gates = builder.num_gates
        layout, assignment = builder.compile()
        assert layout.n >= max(gates, 4)
        assert layout.n & (layout.n - 1) == 0
        assert len(assignment.a) == layout.n

    @given(ops, ops)
    @settings(max_examples=20, deadline=None)
    def test_digest_distinguishes_structures(self, p1, p2):
        l1, _ = _run_program(p1).compile()
        l2, _ = _run_program(p2).compile()
        structure1 = (l1.ql, l1.qr, l1.qo, l1.qm, l1.q3, l1.qc, l1.sigma, l1.ell)
        structure2 = (l2.ql, l2.qr, l2.qo, l2.qm, l2.q3, l2.qc, l2.sigma, l2.ell)
        assert (l1.digest() == l2.digest()) == (structure1 == structure2)

    def test_permutation_cosets_are_valid(self):
        # K1, K2 must lie outside every 2-adic subgroup and in distinct
        # cosets — the import-time search guarantees it; re-verify here.
        full = 1 << 28
        assert pow(K1, full, R) != 1
        assert pow(K2, full, R) != 1
        assert pow(K1 * pow(K2, R - 2, R) % R, full, R) != 1


class TestEvents:
    def test_get_and_as_dict(self):
        e = Event("0xabc", "Transfer", (("frm", "a"), ("to", "b")))
        assert e.get("frm") == "a"
        assert e.get("missing", 42) == 42
        assert e.as_dict() == {"frm": "a", "to": "b"}
