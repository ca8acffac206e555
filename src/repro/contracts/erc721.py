"""The ERC-721 data-token contract with provenance tracking.

Each token is the on-chain credential of one (encrypted, publicly stored)
dataset: it records the storage URI, the digest of the KZG commitment
[d] to the plaintext, the transformation kind that produced it, the hash of the
zero-knowledge proof justifying that transformation, and — the key
extension over plain ERC-721 — ``prevIds[]``, the parent tokens, which
makes the full transformation DAG walkable on chain (Figure 2).
"""

from __future__ import annotations

from repro.chain.contract import Contract, external, view

#: Transformation kinds recorded in token metadata (Section III-B).
KIND_SOURCE = "source"
KIND_AGGREGATION = "aggregation"
KIND_PARTITION = "partition"
KIND_DUPLICATION = "duplication"
KIND_PROCESSING = "processing"

VALID_KINDS = (
    KIND_SOURCE,
    KIND_AGGREGATION,
    KIND_PARTITION,
    KIND_DUPLICATION,
    KIND_PROCESSING,
)


class DataTokenContract(Contract):
    """ERC-721 with data-asset metadata and transformation lineage."""

    # ----- internal helpers ----------------------------------------------------

    def _next_id(self) -> int:
        counter = self._sload("next_id") or 1
        self._sstore("next_id", counter + 1)
        return counter

    def _mint_record(self, to, uri, commitment, prev_ids, kind, proof_hash) -> int:
        self.require(kind in VALID_KINDS, "unknown transformation kind")
        for parent in prev_ids:
            self.require(self._sload(("owner", parent)) is not None, "unknown parent token")
        token_id = self._next_id()
        self._sstore(("owner", token_id), to)
        self._sstore(("meta", token_id), (uri, commitment, tuple(prev_ids), kind, proof_hash))
        self._sstore(("balance", to), (self._sload(("balance", to)) or 0) + 1)
        return token_id

    def _require_controller(self, token_id: int) -> str:
        owner = self._sload(("owner", token_id))
        self.require(owner is not None, "token does not exist")
        sender = self.msg_sender
        approved = self._sload(("approved", token_id))
        self.require(sender in (owner, approved), "caller is not owner nor approved")
        return owner

    # ----- ERC-721 core ----------------------------------------------------------

    @external
    def mint(self, uri: str, commitment: int, proof_hash: str = "") -> int:
        """Mint a fresh source data token to the caller."""
        token_id = self._mint_record(
            self.msg_sender, uri, commitment, (), KIND_SOURCE, proof_hash
        )
        self.emit("Minted", token_id=token_id, to=self.msg_sender, uri=uri)
        return token_id

    @external
    def transfer_from(self, frm: str, to: str, token_id: int) -> None:
        """Move ownership (the *Transferring* operation)."""
        owner = self._require_controller(token_id)
        self.require(owner == frm, "from address is not the owner")
        self._sstore(("owner", token_id), to)
        self._sstore(("approved", token_id), None)
        self._sstore(("balance", frm), (self._sload(("balance", frm)) or 1) - 1)
        self._sstore(("balance", to), (self._sload(("balance", to)) or 0) + 1)
        self.emit("Transfer", token_id=token_id, frm=frm, to=to)

    @external
    def approve(self, to: str, token_id: int) -> None:
        """Authorise ``to`` to transfer one token."""
        owner = self._sload(("owner", token_id))
        self.require(owner == self.msg_sender, "only the owner can approve")
        self._sstore(("approved", token_id), to)
        self.emit("Approval", token_id=token_id, approved=to)

    @external
    def burn(self, token_id: int) -> None:
        """Destroy a token (the *Burning* operation); lineage stays readable."""
        owner = self._require_controller(token_id)
        self._sstore(("owner", token_id), None)
        self._sstore(("balance", owner), (self._sload(("balance", owner)) or 1) - 1)
        self._sstore(("burned", token_id), True)
        self.emit("Burned", token_id=token_id)

    # ----- transformation operations (Section III-B, items 4-7) -------------------

    @external
    def aggregate(
        self, sources: tuple, uri: str, commitment: int, proof_hash: str
    ) -> int:
        """Merge several owned tokens into a new derived token."""
        self.require(len(sources) >= 2, "aggregation needs at least two sources")
        for src in sources:
            self.require(
                self._sload(("owner", src)) == self.msg_sender,
                "caller must own every source",
            )
        token_id = self._mint_record(
            self.msg_sender, uri, commitment, tuple(sources), KIND_AGGREGATION, proof_hash
        )
        self.emit("Aggregated", token_id=token_id, sources=tuple(sources))
        return token_id

    @external
    def partition(self, source: int, parts: tuple, proof_hash: str) -> tuple:
        """Split one owned token into several derived tokens.

        ``parts`` is a tuple of (uri, commitment) pairs.
        """
        self.require(len(parts) >= 2, "partition needs at least two parts")
        self.require(
            self._sload(("owner", source)) == self.msg_sender,
            "caller must own the source",
        )
        out = []
        for uri, commitment in parts:
            out.append(
                self._mint_record(
                    self.msg_sender, uri, commitment, (source,), KIND_PARTITION, proof_hash
                )
            )
        self.emit("Partitioned", source=source, token_ids=tuple(out))
        return tuple(out)

    @external
    def duplicate(self, source: int, uri: str, commitment: int, proof_hash: str) -> int:
        """Replicate an owned token's content as a new token."""
        self.require(
            self._sload(("owner", source)) == self.msg_sender,
            "caller must own the source",
        )
        token_id = self._mint_record(
            self.msg_sender, uri, commitment, (source,), KIND_DUPLICATION, proof_hash
        )
        self.emit("Duplicated", source=source, token_id=token_id)
        return token_id

    @external
    def process(self, sources: tuple, uri: str, commitment: int, proof_hash: str) -> int:
        """Mint the result of a computation over owned tokens (model
        training, analytics - the *Processing* transformation)."""
        self.require(len(sources) >= 1, "processing needs at least one source")
        for src in sources:
            self.require(
                self._sload(("owner", src)) == self.msg_sender,
                "caller must own every source",
            )
        token_id = self._mint_record(
            self.msg_sender, uri, commitment, tuple(sources), KIND_PROCESSING, proof_hash
        )
        self.emit("Processed", token_id=token_id, sources=tuple(sources))
        return token_id

    # ----- views -------------------------------------------------------------------

    @view
    def owner_of(self, token_id: int):
        return self._storage.get(("owner", token_id))

    @view
    def balance_of(self, address: str) -> int:
        return self._storage.get(("balance", address)) or 0

    @view
    def exists(self, token_id: int) -> bool:
        return self._storage.get(("owner", token_id)) is not None

    @view
    def is_burned(self, token_id: int) -> bool:
        return bool(self._storage.get(("burned", token_id)))

    @view
    def token_uri(self, token_id: int):
        meta = self._storage.get(("meta", token_id))
        return meta[0] if meta else None

    @view
    def commitment_of(self, token_id: int):
        meta = self._storage.get(("meta", token_id))
        return meta[1] if meta else None

    @view
    def prev_ids(self, token_id: int) -> tuple:
        meta = self._storage.get(("meta", token_id))
        return meta[2] if meta else ()

    @view
    def kind_of(self, token_id: int):
        meta = self._storage.get(("meta", token_id))
        return meta[3] if meta else None

    @view
    def proof_hash_of(self, token_id: int):
        meta = self._storage.get(("meta", token_id))
        return meta[4] if meta else None

    @view
    def total_minted(self) -> int:
        return (self._storage.get("next_id") or 1) - 1
