"""The generic data transformation protocol (Section IV-B).

The paper's central efficiency idea: decouple proofs of encryption from
proofs of transformation so each is computed once and reused.

- pi_e  proves  "the published ciphertext encrypts the committed dataset
  under the committed key":
      ct_i = pt_i + E_k(nonce+i) AND Open(D, c_d, o_d) = 1
     AND k is the scalar under the KZG point [k]
  (the key is linked to [k] through row 0, not opened in-circuit — see
  DESIGN.md, "The key link" — and the same [k] is linked by pi_k, so the
  exchange protocol's pi_p is literally pi_e plus a predicate, realising
  the CP-NIZK reuse of IV-F);

- pi_t  proves  "the committed derived datasets are f of the committed
  source datasets":
      Open(S_i, c_si, o_si) = 1 AND Open(D_j, c_dj, o_dj) = 1
     AND (D_j) = f(S_i)

Chains of pi_t over shared commitments give continuous validation from
the data source (Figure 3); :func:`verify_proof_chain` walks such chains.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.curve.g1 import G1
from repro.errors import ProtocolError
from repro.gadgets.mimc import assert_ctr_encryption
from repro.gadgets.poseidon import assert_commitment_opens
from repro.plonk.circuit import CircuitBuilder
from repro.plonk.proof import Proof
from repro.plonk.prover import prove
from repro.plonk.verifier import verify
from repro.core.snark import SnarkContext
from repro.core.tokens import DataAsset, PublicAssetView
from repro.core.transformations import Transformation


@dataclass(frozen=True)
class EncryptionProof:
    """pi_e plus the public statement it refers to: the public inputs and
    the key commitment [k] the proof links to."""

    proof: Proof
    ciphertext_blocks: tuple
    nonce: int
    data_commitment: int
    key_commitment: G1

    @property
    def public_inputs(self) -> list[int]:
        return list(self.ciphertext_blocks) + [self.nonce, self.data_commitment]


@dataclass(frozen=True)
class TransformProof:
    """pi_t plus the commitments it links."""

    proof: Proof
    transformation_name: str
    source_sizes: tuple
    derived_sizes: tuple
    source_commitments: tuple
    derived_commitments: tuple

    @property
    def public_inputs(self) -> list[int]:
        return list(self.source_commitments) + list(self.derived_commitments)


# ----- circuit builders ------------------------------------------------------------


def build_encryption_circuit(
    builder: CircuitBuilder,
    ct_blocks: list[int],
    nonce: int,
    c_d: int,
    c_k: G1 | int,
    plaintext: list[int],
    key: int,
    o_d: int,
    o_k: int,
    predicate=None,
) -> None:
    """The pi_e relation; ``predicate(builder, plaintext_wires)`` optionally
    appends the phi(D) clauses (turning pi_e into the exchange's pi_p).

    ``c_k`` is the key's KZG point and ``o_k`` its blinder rho: the key
    wire is linked to it, not opened (a placeholder ``c_k`` suffices for a
    structure-only build)."""
    ct_wires = [builder.public_input(b) for b in ct_blocks]
    nonce_wire = builder.public_input(nonce)
    c_d_wire = builder.public_input(c_d)
    pt_wires = [builder.var(p) for p in plaintext]
    key_wire = builder.var(key)
    o_d_wire = builder.var(o_d)
    builder.link(key_wire, c_k, o_k)
    assert_ctr_encryption(builder, key_wire, pt_wires, nonce_wire, ct_wires)
    assert_commitment_opens(builder, pt_wires, c_d_wire, o_d_wire)
    if predicate is not None:
        predicate(builder, pt_wires)


def build_transformation_circuit(
    builder: CircuitBuilder,
    transformation: Transformation,
    sources: list[tuple],  # (values, commitment, blinder) per source
    derived: list[tuple],  # (values, commitment, blinder) per derived
) -> None:
    """The pi_t relation over committed datasets."""
    src_c_wires = [builder.public_input(c) for _vals, c, _o in sources]
    dst_c_wires = [builder.public_input(c) for _vals, c, _o in derived]
    src_wires = []
    for (vals, _c, o), c_wire in zip(sources, src_c_wires):
        wires = [builder.var(v) for v in vals]
        assert_commitment_opens(builder, wires, c_wire, builder.var(o))
        src_wires.append(wires)
    dst_wires = []
    for (vals, _c, o), c_wire in zip(derived, dst_c_wires):
        wires = [builder.var(v) for v in vals]
        assert_commitment_opens(builder, wires, c_wire, builder.var(o))
        dst_wires.append(wires)
    transformation.constrain(builder, src_wires, dst_wires)


# ----- prover side -------------------------------------------------------------------


def prove_encryption(ctx: SnarkContext, asset: DataAsset, predicate=None) -> EncryptionProof:
    """Generate pi_e for an asset (step 1/3 of the protocol)."""
    key_commitment = asset.key_commitment(ctx.srs)
    builder = CircuitBuilder()
    build_encryption_circuit(
        builder,
        list(asset.ciphertext.blocks),
        asset.ciphertext.nonce,
        asset.data_commitment.value,
        key_commitment,
        asset.plaintext,
        asset.key,
        asset.data_blinder,
        asset.key_blinder,
        predicate=predicate,
    )
    layout, assignment = builder.compile()
    keys = ctx.keys_for(layout)
    proof = prove(keys.pk, assignment)
    return EncryptionProof(
        proof=proof,
        ciphertext_blocks=asset.ciphertext.blocks,
        nonce=asset.ciphertext.nonce,
        data_commitment=asset.data_commitment.value,
        key_commitment=key_commitment,
    )


def prove_transformation(
    ctx: SnarkContext,
    sources: list[DataAsset],
    transformation: Transformation,
) -> tuple[list[DataAsset], TransformProof]:
    """Apply f to the source assets and prove it (step 2 of the protocol).

    Derived assets get fresh keys and nonces ("she randomly chooses
    k_d <- K"); their encryption proofs are produced separately with
    :func:`prove_encryption` — that separation is the decoupling that
    halves repeated work across chained transformations.
    """
    if not sources:
        raise ProtocolError("transformation needs at least one source")
    derived_values = transformation.apply([s.plaintext for s in sources])
    expected = transformation.output_sizes([len(s.plaintext) for s in sources])
    if [len(d) for d in derived_values] != list(expected):
        raise ProtocolError("transformation output sizes are inconsistent")
    derived_assets = [DataAsset.create(vals) for vals in derived_values]

    builder = CircuitBuilder()
    build_transformation_circuit(
        builder,
        transformation,
        [(s.plaintext, s.data_commitment.value, s.data_blinder) for s in sources],
        [(d.plaintext, d.data_commitment.value, d.data_blinder) for d in derived_assets],
    )
    layout, assignment = builder.compile()
    keys = ctx.keys_for(layout)
    proof = prove(keys.pk, assignment)
    t_proof = TransformProof(
        proof=proof,
        transformation_name=transformation.name,
        source_sizes=tuple(len(s.plaintext) for s in sources),
        derived_sizes=tuple(len(d.plaintext) for d in derived_assets),
        source_commitments=tuple(s.data_commitment.value for s in sources),
        derived_commitments=tuple(d.data_commitment.value for d in derived_assets),
    )
    return derived_assets, t_proof


# ----- verifier side ------------------------------------------------------------------


def verify_encryption(
    ctx: SnarkContext, view: PublicAssetView, enc_proof: EncryptionProof, predicate=None
) -> bool:
    """Check pi_e against an asset's public view; the key commitment it
    links to is the one its statement names."""
    if enc_proof.ciphertext_blocks != view.ciphertext.blocks:
        return False
    if enc_proof.nonce != view.ciphertext.nonce:
        return False
    if enc_proof.data_commitment != view.data_commitment:
        return False
    num_entries = len(view.ciphertext.blocks)
    zeros = [0] * num_entries
    keys = ctx.keys_for_shape(
        ("pi_e", num_entries, predicate),
        lambda builder: build_encryption_circuit(
            builder, zeros, 0, 0, 0, zeros, 0, 0, 0, predicate=predicate
        ),
    )
    return verify(keys.vk, enc_proof.public_inputs, enc_proof.proof, enc_proof.key_commitment)


def verify_transformation(
    ctx: SnarkContext, transformation: Transformation, t_proof: TransformProof
) -> bool:
    """Check pi_t given only public commitments and the declared shape."""
    if transformation.name != t_proof.transformation_name:
        return False
    try:
        expected = transformation.output_sizes(list(t_proof.source_sizes))
    except ProtocolError:
        return False
    if list(expected) != list(t_proof.derived_sizes):
        return False
    keys = ctx.keys_for_shape(
        ("pi_t", transformation, tuple(t_proof.source_sizes), tuple(t_proof.derived_sizes)),
        lambda builder: build_transformation_circuit(
            builder,
            transformation,
            [([0] * n, 0, 0) for n in t_proof.source_sizes],
            [([0] * n, 0, 0) for n in t_proof.derived_sizes],
        ),
    )
    return verify(keys.vk, t_proof.public_inputs, t_proof.proof)


def verify_proof_chain(
    ctx: SnarkContext,
    chain: list[tuple[Transformation, TransformProof]],
    root_commitment: int,
    final_commitment: int,
) -> bool:
    """Walk a pi_t chain from a source commitment to a final one.

    Each step's first source commitment must equal the previous step's
    first derived commitment (Figure 3's chained validation); every pi_t
    must verify.
    """
    if not chain:
        return root_commitment == final_commitment
    current = root_commitment
    for transformation, t_proof in chain:
        if current not in t_proof.source_commitments:
            return False
        if not verify_transformation(ctx, transformation, t_proof):
            return False
        current = t_proof.derived_commitments[0]
    return current == final_commitment
