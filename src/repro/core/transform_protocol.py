"""The generic data transformation protocol (Section IV-B).

The paper's central efficiency idea: decouple proofs of encryption from
proofs of transformation so each is computed once and reused.

- pi_e  proves  "the published ciphertext encrypts the committed dataset
  under the committed key":
      ct_i = pt_i + E_k(nonce+i) AND D is the message under [d]
     AND k is the scalar under [k]
  (both are KZG points the circuit links, not commitments it re-opens —
  see DESIGN.md, "The linked commitments" — and the same [k] is linked
  by pi_k, so the exchange protocol's pi_p is literally pi_e plus a
  predicate, realising the CP-NIZK reuse of IV-F);

- pi_t  proves  "the committed derived datasets are f of the committed
  source datasets":
      S_i is the message under [s_i] AND D_j the message under [d_j]
     AND (D_j) = f(S_i)
  for at most three datasets in all (:data:`MAX_LINKED_DATASETS`).

Chains of pi_t over shared commitments give continuous validation from
the data source (Figure 3); the marketplace audit
(:meth:`~repro.core.marketplace.ZKDETMarketplace.audit`) walks them
against what the chain records.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.curve.g1 import G1
from repro.errors import ProtocolError
from repro.gadgets.mimc import assert_ctr_encryption
from repro.plonk.circuit import LINK_SLOTS, CircuitBuilder
from repro.plonk.proof import Proof
from repro.plonk.prover import prove
from repro.plonk.verifier import verify
from repro.core.snark import SnarkContext
from repro.core.tokens import DataAsset, PublicAssetView, commitment_digest
from repro.core.transformations import Transformation

#: A circuit links at most one message per wire column, so pi_t covers at
#: most three datasets, sources and derived together.
MAX_LINKED_DATASETS = len(LINK_SLOTS)


@dataclass(frozen=True)
class EncryptionProof:
    """pi_e plus the public statement it refers to: the public inputs and
    the commitments [k] and [d] the proof links to."""

    proof: Proof
    ciphertext_blocks: tuple
    nonce: int
    data_commitment: G1
    key_commitment: G1

    @property
    def public_inputs(self) -> list[int]:
        return list(self.ciphertext_blocks) + [self.nonce]

    @property
    def data_digest(self) -> int:
        """The ``commitment_of`` value of the dataset pi_e speaks about:
        [d] with its entry count, one per ciphertext block."""
        return commitment_digest(self.data_commitment, len(self.ciphertext_blocks))


@dataclass(frozen=True)
class TransformProof:
    """pi_t plus the commitments it links, sources first; it has no
    public input."""

    proof: Proof
    transformation_name: str
    source_sizes: tuple
    derived_sizes: tuple
    source_commitments: tuple
    derived_commitments: tuple

    @property
    def links(self) -> tuple:
        return tuple(self.source_commitments) + tuple(self.derived_commitments)

    @property
    def source_digests(self) -> tuple:
        """The ``commitment_of`` values of the sources: each [s_i] with the
        entry count the proof declares for it."""
        return tuple(map(commitment_digest, self.source_commitments, self.source_sizes))

    @property
    def derived_digests(self) -> tuple:
        """The ``commitment_of`` values of the derived datasets."""
        return tuple(map(commitment_digest, self.derived_commitments, self.derived_sizes))


# ----- circuit builders ------------------------------------------------------------


def build_encryption_circuit(
    builder: CircuitBuilder,
    ct_blocks: list[int],
    nonce: int,
    c_d: G1 | int,
    c_k: G1 | int,
    plaintext: list[int],
    key: int,
    o_d: int,
    o_k: int,
    predicate=None,
) -> None:
    """The pi_e relation; ``predicate(builder, plaintext_wires)`` optionally
    appends the phi(D) clauses (turning pi_e into the exchange's pi_p).

    ``c_k`` is the key's KZG point [k] and ``o_k`` its blinder, ``c_d``
    the data's point [d] and ``o_d`` its blinder: the key wire and the
    plaintext wires are linked to them, not opened (placeholders suffice
    for a structure-only build)."""
    ct_wires = [builder.public_input(b) for b in ct_blocks]
    nonce_wire = builder.public_input(nonce)
    pt_wires = [builder.var(p) for p in plaintext]
    key_wire = builder.var(key)
    builder.link(key_wire, c_k, o_k)
    builder.link(pt_wires, c_d, o_d)
    assert_ctr_encryption(builder, key_wire, pt_wires, nonce_wire, ct_wires)
    if predicate is not None:
        predicate(builder, pt_wires)


def build_transformation_circuit(
    builder: CircuitBuilder,
    transformation: Transformation,
    sources: list[tuple],  # (values, commitment, blinder) per source
    derived: list[tuple],  # (values, commitment, blinder) per derived
) -> None:
    """The pi_t relation over committed datasets: each dataset's wires are
    linked to its KZG point, so the circuit is the relation alone."""
    wires = []
    for vals, c, o in list(sources) + list(derived):
        wires.append([builder.var(v) for v in vals])
        builder.link(wires[-1], c, o)
    transformation.constrain(builder, wires[: len(sources)], wires[len(sources) :])


# ----- prover side -------------------------------------------------------------------


def prove_encryption(ctx: SnarkContext, asset: DataAsset, predicate=None) -> EncryptionProof:
    """Generate pi_e for an asset (step 1/3 of the protocol)."""
    key_commitment = asset.key_commitment(ctx.srs)
    data_commitment = asset.data_commitment(ctx.srs)
    builder = CircuitBuilder()
    build_encryption_circuit(
        builder,
        list(asset.ciphertext.blocks),
        asset.ciphertext.nonce,
        data_commitment,
        key_commitment,
        asset.plaintext,
        asset.key,
        asset.data_blinder,
        asset.key_blinder,
        predicate=predicate,
    )
    layout, assignment = builder.compile(check=False)  # prove() checks the witness
    keys = ctx.keys_for(layout)
    proof = prove(keys.pk, assignment)
    return EncryptionProof(
        proof=proof,
        ciphertext_blocks=asset.ciphertext.blocks,
        nonce=asset.ciphertext.nonce,
        data_commitment=data_commitment,
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

    Raises :class:`ProtocolError` when sources and derived datasets number
    more than :data:`MAX_LINKED_DATASETS`: the circuit links each one.
    """
    if not sources:
        raise ProtocolError("transformation needs at least one source")
    derived_values = transformation.apply([s.plaintext for s in sources])
    expected = transformation.output_sizes([len(s.plaintext) for s in sources])
    if [len(d) for d in derived_values] != list(expected):
        raise ProtocolError("transformation output sizes are inconsistent")
    if len(sources) + len(derived_values) > MAX_LINKED_DATASETS:
        raise ProtocolError(
            "pi_t links at most %d datasets, sources and derived together; got %d"
            % (MAX_LINKED_DATASETS, len(sources) + len(derived_values))
        )
    derived_assets = [DataAsset.create(vals) for vals in derived_values]
    srs = ctx.srs

    builder = CircuitBuilder()
    build_transformation_circuit(
        builder,
        transformation,
        [(s.plaintext, s.data_commitment(srs), s.data_blinder) for s in sources],
        [(d.plaintext, d.data_commitment(srs), d.data_blinder) for d in derived_assets],
    )
    layout, assignment = builder.compile(check=False)  # prove() checks the witness
    keys = ctx.keys_for(layout)
    proof = prove(keys.pk, assignment)
    t_proof = TransformProof(
        proof=proof,
        transformation_name=transformation.name,
        source_sizes=tuple(len(s.plaintext) for s in sources),
        derived_sizes=tuple(len(d.plaintext) for d in derived_assets),
        source_commitments=tuple(s.data_commitment(srs) for s in sources),
        derived_commitments=tuple(d.data_commitment(srs) for d in derived_assets),
    )
    return derived_assets, t_proof


# ----- verifier side ------------------------------------------------------------------


def verify_encryption(
    ctx: SnarkContext, view: PublicAssetView, enc_proof: EncryptionProof, predicate=None
) -> bool:
    """Check pi_e against an asset's public view; the key commitment it
    links to is the one its statement names, the data commitment the
    view's."""
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
    # Link order is the circuit's: the key, then the data.
    links = (enc_proof.key_commitment, enc_proof.data_commitment)
    return verify(keys.vk, enc_proof.public_inputs, enc_proof.proof, links)


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
    if len(t_proof.source_sizes) + len(t_proof.derived_sizes) > MAX_LINKED_DATASETS:
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
    return verify(keys.vk, [], t_proof.proof, t_proof.links)

