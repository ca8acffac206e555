"""A transformer block with proof of inference (Section IV-E-2).

The block follows the paper's description: scaled dot-product attention

    z_i = softmax(q_i . k^T / sqrt(d_k)) . v,   q_i = x_i W_Q, ...

followed by the position-wise feed-forward network

    d_i = max(0, z_i W_1 + b_1) W_2 + b_2.

The source assets are the input sequence and the (flattened) weights; the
derived asset is the output sequence.  As with logistic regression, one
code path builds both the native forward pass and the predicate circuit,
so fixed-point rounding matches exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ProtocolError
from repro.gadgets.fixedpoint import FixedPointSpec, fp_mul, fp_relu
from repro.gadgets.linalg import fp_dot, fp_softmax, fp_vec_add
from repro.plonk.circuit import CircuitBuilder, Wire
from repro.core.transformations import Processing

#: Fixed-point format for the attention circuits.
TF_SPEC = FixedPointSpec(frac_bits=12, int_bits=10)


@dataclass
class TransformerBlock:
    """One encoder block: seq_len x d_model inputs, d_ff hidden units."""

    seq_len: int
    d_model: int
    d_ff: int
    w_q: list  # d_model x d_model (floats)
    w_k: list
    w_v: list
    w_1: list  # d_model x d_ff
    b_1: list  # d_ff
    w_2: list  # d_ff x d_model
    b_2: list  # d_model
    spec: FixedPointSpec = field(default_factory=lambda: TF_SPEC)

    def __post_init__(self):
        def shape(mat, rows, cols, name):
            if len(mat) != rows or any(len(r) != cols for r in mat):
                raise ProtocolError("%s must be %dx%d" % (name, rows, cols))

        shape(self.w_q, self.d_model, self.d_model, "w_q")
        shape(self.w_k, self.d_model, self.d_model, "w_k")
        shape(self.w_v, self.d_model, self.d_model, "w_v")
        shape(self.w_1, self.d_model, self.d_ff, "w_1")
        shape(self.w_2, self.d_ff, self.d_model, "w_2")
        if len(self.b_1) != self.d_ff or len(self.b_2) != self.d_model:
            raise ProtocolError("bias dimensions are wrong")

    @staticmethod
    def random(seq_len: int, d_model: int, d_ff: int, seed: int = 7) -> "TransformerBlock":
        """Small deterministic pseudo-random weights in (-0.5, 0.5)."""
        state = seed

        def nxt():
            nonlocal state
            state = (state * 6364136223846793005 + 1442695040888963407) % (1 << 64)
            return (state >> 16) % 1000 / 1000.0 - 0.5

        def mat(r, c):
            return [[nxt() for _ in range(c)] for _ in range(r)]

        def vec(n):
            return [nxt() for _ in range(n)]

        return TransformerBlock(
            seq_len, d_model, d_ff,
            mat(d_model, d_model), mat(d_model, d_model), mat(d_model, d_model),
            mat(d_model, d_ff), vec(d_ff), mat(d_ff, d_model), vec(d_model),
        )

    @property
    def num_parameters(self) -> int:
        return 3 * self.d_model**2 + self.d_model * self.d_ff * 2 + self.d_ff + self.d_model

    # ----- encoding ----------------------------------------------------------------

    def encode_input(self, sequence: list) -> list[int]:
        """Flatten a seq_len x d_model float input into a dataset."""
        if len(sequence) != self.seq_len or any(len(r) != self.d_model for r in sequence):
            raise ProtocolError("input must be seq_len x d_model")
        return [self.spec.encode(v) for row in sequence for v in row]

    def encode_weights(self) -> list[int]:
        """Flatten all weights/biases into one dataset (the model asset)."""
        flat: list[float] = []
        for mat in (self.w_q, self.w_k, self.w_v, self.w_1):
            flat.extend(v for row in mat for v in row)
        flat.extend(self.b_1)
        for row in self.w_2:
            flat.extend(row)
        flat.extend(self.b_2)
        return [self.spec.encode(v) for v in flat]

    def _unflatten_weights(self, flat: list) -> dict:
        """Inverse of :meth:`encode_weights` over wires (or values)."""
        pos = 0

        def take_mat(rows, cols):
            nonlocal pos
            out = [flat[pos + r * cols : pos + (r + 1) * cols] for r in range(rows)]
            pos += rows * cols
            return out

        def take_vec(n):
            nonlocal pos
            out = flat[pos : pos + n]
            pos += n
            return out

        w = {
            "w_q": take_mat(self.d_model, self.d_model),
            "w_k": take_mat(self.d_model, self.d_model),
            "w_v": take_mat(self.d_model, self.d_model),
            "w_1": take_mat(self.d_model, self.d_ff),
            "b_1": take_vec(self.d_ff),
            "w_2": take_mat(self.d_ff, self.d_model),
            "b_2": take_vec(self.d_model),
        }
        if pos != len(flat):
            raise ProtocolError("weight dataset has the wrong length")
        return w

    # ----- the forward pass (native AND in-circuit) -----------------------------------

    def _forward(self, b: CircuitBuilder, x_rows: list, weights: dict) -> list[Wire]:
        spec = self.spec
        inv_sqrt_dk = b.constant(spec.encode(1.0 / (self.d_model**0.5)))

        def matvec_t(vec, mat_rows, out_dim):
            """vec (d_in) times matrix (d_in x out_dim) -> out_dim."""
            cols = [[row[j] for row in mat_rows] for j in range(out_dim)]
            return [fp_dot(b, vec, col, spec) for col in cols]

        qs = [matvec_t(x, weights["w_q"], self.d_model) for x in x_rows]
        ks = [matvec_t(x, weights["w_k"], self.d_model) for x in x_rows]
        vs = [matvec_t(x, weights["w_v"], self.d_model) for x in x_rows]

        outputs = []
        for i in range(self.seq_len):
            scores = []
            for j in range(self.seq_len):
                raw = fp_dot(b, qs[i], ks[j], spec)
                scores.append(fp_mul(b, raw, inv_sqrt_dk, spec))
            attn = fp_softmax(b, scores, spec)
            z = []
            for dim in range(self.d_model):
                contribs = [fp_mul(b, attn[j], vs[j][dim], spec) for j in range(self.seq_len)]
                z.append(b.linear_combination([(1, c) for c in contribs]))
            # Feed-forward: relu(z W1 + b1) W2 + b2.
            hidden = matvec_t(z, weights["w_1"], self.d_ff)
            hidden = fp_vec_add(b, hidden, weights["b_1"])
            hidden = [fp_relu(b, h, spec) for h in hidden]
            out = matvec_t(hidden, weights["w_2"], self.d_model)
            out = fp_vec_add(b, out, weights["b_2"])
            outputs.extend(out)
        return outputs

    def _rows(self, flat: list) -> list:
        return [
            flat[i * self.d_model : (i + 1) * self.d_model] for i in range(self.seq_len)
        ]

    def infer(self, sequence: list) -> list[int]:
        """Native forward pass (encoded output), via a calculator builder."""
        b = CircuitBuilder()
        x_flat = [b.var(v) for v in self.encode_input(sequence)]
        w_flat = [b.var(v) for v in self.encode_weights()]
        out = self._forward(b, self._rows(x_flat), self._unflatten_weights(w_flat))
        return [b.value(w) for w in out]

    # ----- predicate ----------------------------------------------------------------

    def constrain(self, b: CircuitBuilder, sources: list, derived: list) -> None:
        """pi_t predicate: derived == TransformerBlock(input; weights)."""
        x_flat, w_flat = sources
        (out_flat,) = derived
        computed = self._forward(b, self._rows(x_flat), self._unflatten_weights(w_flat))
        if len(computed) != len(out_flat):
            raise ProtocolError("output dataset has the wrong length")
        for got, expected in zip(computed, out_flat):
            b.assert_equal(got, expected)


def transformer_processing(block: TransformerBlock) -> Processing:
    """Wrap a block as a Processing transformation (input, weights) -> output."""

    def apply_fn(sources):
        b = CircuitBuilder()
        x_flat = [b.var(v) for v in sources[0]]
        w_flat = [b.var(v) for v in sources[1]]
        out = block._forward(b, block._rows(x_flat), block._unflatten_weights(w_flat))
        return [[b.value(w) for w in out]]

    def out_sizes_fn(sizes):
        return [block.seq_len * block.d_model]

    return Processing(
        apply_fn=apply_fn,
        constrain_fn=block.constrain,
        out_sizes_fn=out_sizes_fn,
        tag="transformer-s%d-d%d-f%d" % (block.seq_len, block.d_model, block.d_ff),
    )
