"""In-circuit MiMC-p/p and CTR encryption (the heart of pi_e).

The proof-of-encryption statements of Section IV-B —
``ct_i = pt_i + E_k(nonce + i)`` — are proved by re-computing the cipher
inside the circuit.  One MiMC block costs 91 rounds x 3 gates — one
linear gate for ``s = x + k + c``, then x^7 as ``s^3`` and ``(s^3)^2 * s``
on the cubic gate — which is why the paper picks MiMC over AES ("millions
of constraints" per kilobyte, Section IV-C).
"""

from __future__ import annotations

from repro.plonk.circuit import CircuitBuilder, Wire
from repro.primitives.mimc import EXPONENT, MiMC, ROUNDS


def mimc_block(
    builder: CircuitBuilder,
    key: Wire,
    block: Wire,
    rounds: int = ROUNDS,
) -> Wire:
    """Constrain and return E_key(block)."""
    cipher = MiMC(rounds=rounds)
    x = block
    for c in cipher.constants:
        s = builder.linear_combination([(1, x), (1, key)], constant=c)
        # s^7 = (s^3)^2 * s  -- 2 cubic gates.
        x = builder.square_mul(builder.square_mul(s, s), s)
    assert EXPONENT == 7, "gadget unrolled for exponent 7"
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


def constraints_per_block(rounds: int = ROUNDS) -> int:
    """Gate count of one MiMC block (used by the cost model)."""
    return rounds * 3 + 1
