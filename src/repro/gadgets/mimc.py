"""In-circuit MiMC-p/p and CTR encryption (the heart of pi_e).

The proof-of-encryption statements of Section IV-B —
``ct_i = pt_i + E_k(nonce + i)`` — are proved by re-computing the cipher
inside the circuit.  One MiMC block costs 92 rows: one round gate a round
(:meth:`~repro.plonk.circuit.CircuitBuilder.mimc_round`: x^7 in one row,
written into the next row's a slot) and the final key
addition — which is why the paper picks MiMC over AES ("millions of
constraints" per kilobyte, Section IV-C).

Row i's a slot holds x_i + c_i, the round's state with its constant
already added, so a round is t = a + b with b the key; round i's gate adds
c_(i+1) to its output.  c_0 is zero, so the block enters the first row as
it is.
"""

from __future__ import annotations

from repro.plonk.circuit import CircuitBuilder, Wire
from repro.primitives.mimc import EXPONENT, MiMC, ROUNDS

assert EXPONENT == 7, "the round gate computes x^7"


def mimc_block(
    builder: CircuitBuilder,
    key: Wire,
    block: Wire,
    rounds: int = ROUNDS,
) -> Wire:
    """Constrain and return E_key(block)."""
    constants = MiMC(rounds=rounds).constants
    assert constants[0] == 0, "the block enters round 0 without a constant"
    x = block
    for c_next in constants[1:] + (0,):
        x = builder.mimc_round(x, key, c_next)
    return builder.add(x, key)


def mimc_ctr_encrypt(
    builder: CircuitBuilder,
    key: Wire,
    plaintext: list[Wire],
    nonce: Wire,
    rounds: int = ROUNDS,
) -> list[Wire]:
    """Constrain and return the CTR ciphertext wires for ``plaintext``."""
    out = []
    for i, pt in enumerate(plaintext):
        counter = builder.add_const(nonce, i)
        keystream = mimc_block(builder, key, counter, rounds=rounds)
        out.append(builder.add(pt, keystream))
    return out


def assert_ctr_encryption(
    builder: CircuitBuilder,
    key: Wire,
    plaintext: list[Wire],
    nonce: Wire,
    ciphertext: list[Wire],
    rounds: int = ROUNDS,
) -> None:
    """Constrain ciphertext_i == plaintext_i + E_key(nonce + i) for all i."""
    computed = mimc_ctr_encrypt(builder, key, plaintext, nonce, rounds=rounds)
    if len(computed) != len(ciphertext):
        raise ValueError("ciphertext length mismatch")
    for got, expected in zip(computed, ciphertext):
        builder.assert_equal(got, expected)

