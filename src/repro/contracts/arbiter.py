"""Exchange arbiter contracts (the J of the exchange protocols).

Two arbiters are provided:

- :class:`ZKCPArbiterContract` — the classic hash-locked ZKCP arbiter of
  Section III-C.  Its *Open* phase stores the decryption key **in public
  contract storage**, which is exactly the vulnerability ZKDET fixes
  (Challenge 3): anyone can read the key and decrypt the publicly stored
  ciphertext.

- :class:`KeySecureArbiterContract` — ZKDET's key-secure arbiter
  (Section IV-F).  The chain only ever sees the masked key k_c = k + k_v
  plus a proof pi_k that the masking is consistent with the key
  commitment [k] and the buyer's hash h_v; the key itself never appears.
  The lock stores a 32-byte digest of [k] (:func:`key_digest`); the point
  rides in the settlement's calldata and is checked against it.
"""

from __future__ import annotations

import hashlib

from repro.chain.contract import Contract, external, view
from repro.contracts.verifier import PlonkVerifierContract
from repro.curve.g1 import G1
from repro.primitives.hashing import field_hash


def key_digest(key_bytes: bytes) -> int:
    """The digest of a key commitment's 64-byte encoding that
    :meth:`KeySecureArbiterContract.lock_payment` stores: one slot, as the
    hash commitment it replaces took."""
    return int.from_bytes(hashlib.sha256(key_bytes).digest(), "big")


class ZKCPArbiterContract(Contract):
    """Hash-locked payments: pay whoever reveals the preimage of h."""

    def _next_id(self) -> int:
        counter = self._sload("next_id") or 1
        self._sstore("next_id", counter + 1)
        return counter

    @external
    def lock(self, seller: str, key_hash: int) -> int:
        """Buyer escrows msg.value against H(k) == key_hash."""
        self.require(self.msg_value > 0, "payment required")
        deal_id = self._next_id()
        self._sstore(("deal", deal_id), (self.msg_sender, seller, key_hash, self.msg_value))
        self.emit("Locked", deal_id=deal_id, buyer=self.msg_sender, amount=self.msg_value)
        return deal_id

    @external
    def open(self, deal_id: int, key: int) -> None:
        """Seller reveals k; contract checks H(k) and pays.

        NOTE: ``key`` becomes permanent public chain data — the flaw the
        key-secure protocol removes.
        """
        deal = self._sload(("deal", deal_id))
        self.require(deal is not None, "no such deal")
        buyer, seller, key_hash, amount = deal
        self.require(self.msg_sender == seller, "only the seller can open")
        self.require(field_hash(key) == key_hash, "key does not match the hash lock")
        self._sstore(("revealed_key", deal_id), key)  # the privacy leak
        self._sstore(("deal", deal_id), None)
        self.transfer_out(seller, amount)
        self.emit("Opened", deal_id=deal_id, key=key)

    @external
    def refund(self, deal_id: int) -> None:
        """Buyer reclaims an unopened escrow."""
        deal = self._sload(("deal", deal_id))
        self.require(deal is not None, "no such deal")
        buyer, _seller, _h, amount = deal
        self.require(self.msg_sender == buyer, "only the buyer can refund")
        self._sstore(("deal", deal_id), None)
        self.transfer_out(buyer, amount)
        self.emit("Refunded", deal_id=deal_id)

    @view
    def revealed_key(self, deal_id: int):
        """Anyone can read the revealed key — demonstrating the leak."""
        return self._storage.get(("revealed_key", deal_id))


class KeySecureArbiterContract(Contract):
    """ZKDET's arbiter: verifies pi_k instead of learning k."""

    def __init__(self, verifier: PlonkVerifierContract):
        super().__init__()
        self._verifier = verifier

    def _next_id(self) -> int:
        counter = self._sload("next_id") or 1
        self._sstore("next_id", counter + 1)
        return counter

    def _key_point(self, key_bytes: bytes, locked: int, parsed: dict):
        """The point ``key_bytes`` encodes if its digest is ``locked``, else
        None.  ``parsed`` holds each distinct encoding's digest and point,
        so a batch of one key's exchanges hashes and decodes [k] once and
        hands the verifier one point object: one commitment term."""
        key_bytes = bytes(key_bytes)
        if key_bytes not in parsed:
            s = self.schedule
            self._ctx.burn(s.sha_base + 2 * s.sha_per_word)
            try:
                point = G1.from_bytes(key_bytes)
            except Exception:
                point = None
            parsed[key_bytes] = (key_digest(key_bytes), point)
        digest, point = parsed[key_bytes]
        return point if digest == locked else None

    @external
    def lock_payment(self, seller: str, key_hash: int, h_v: int) -> int:
        """Buyer escrows payment against the digest of the key commitment
        [k] she checked pi_p under, and her h_v."""
        self.require(self.msg_value > 0, "payment required")
        exchange_id = self._next_id()
        self._sstore(
            ("exchange", exchange_id),
            (self.msg_sender, seller, key_hash, h_v, self.msg_value),
        )
        self.emit(
            "PaymentLocked",
            exchange_id=exchange_id,
            buyer=self.msg_sender,
            h_v=h_v,
            amount=self.msg_value,
        )
        return exchange_id

    @external
    def submit_key(self, exchange_id: int, k_c: int, proof_bytes: bytes, key_bytes: bytes) -> None:
        """Seller submits the masked key k_c with pi_k and the key
        commitment [k]; payment released iff [k] matches the locked digest
        and Verify(vk, (k_c, h_v), [k], pi_k) = 1."""
        record = self._sload(("exchange", exchange_id))
        self.require(record is not None, "no such exchange")
        buyer, seller, locked, h_v, amount = record
        self.require(self.msg_sender == seller, "only the seller can submit")
        key_point = self._key_point(key_bytes, locked, {})
        self.require(key_point is not None, "key commitment does not match the lock")
        ok = self.call_contract(self._verifier, "verify", (k_c, h_v), proof_bytes, key_point)
        self.require(ok, "pi_k verification failed")
        self._sstore(("masked_key", exchange_id), k_c)
        self._sstore(("exchange", exchange_id), None)
        self.transfer_out(seller, amount)
        self.emit("KeyDelivered", exchange_id=exchange_id, k_c=k_c)

    @external
    def submit_key_batch(self, entries: tuple) -> tuple:
        """Settle many exchanges with one batched verification.

        ``entries`` is a tuple of ``(exchange_id, k_c, proof_bytes,
        key_bytes)``.  Unlike :meth:`submit_key`, the caller may be anyone
        — a relay (e.g. the marketplace node) that aggregates sellers'
        submissions: payment always goes to the *stored* seller, [k] must
        match the stored digest and pi_k binds k_c to [k] and the stored
        h_v, so a relay can neither redirect funds nor substitute a key,
        only spend gas on sellers' behalf.  Entries whose exchange no
        longer exists (already settled or refunded) are skipped, and
        members whose [k] or proof fails are left open — nothing about one
        entry can revert its batchmates.  Returns the exchange ids
        actually settled.
        """
        pending = []
        points: dict = {}
        for exchange_id, k_c, proof_bytes, key_bytes in entries:
            record = self._sload(("exchange", exchange_id))
            if record is None:
                continue
            _buyer, seller, locked, h_v, amount = record
            key_point = self._key_point(key_bytes, locked, points)
            if key_point is not None:
                pending.append((exchange_id, k_c, proof_bytes, seller, amount, key_point, h_v))
        if not pending:
            self.emit("BatchSettled", settled=0, requested=len(entries))
            return ()
        results = self.call_contract(
            self._verifier,
            "verify_batch",
            tuple(((k_c, h_v), pb, p) for _id, k_c, pb, _s, _a, p, h_v in pending),
        )
        settled = []
        for (exchange_id, k_c, _pb, seller, amount, _p, _h), ok in zip(pending, results):
            if not ok:
                continue
            # Duplicate ids inside one batch: the first occurrence settles,
            # later ones see the cleared record and are skipped.
            if self._sload(("exchange", exchange_id)) is None:
                continue
            self._sstore(("masked_key", exchange_id), k_c)
            self._sstore(("exchange", exchange_id), None)
            self.transfer_out(seller, amount)
            self.emit("KeyDelivered", exchange_id=exchange_id, k_c=k_c)
            settled.append(exchange_id)
        self.emit("BatchSettled", settled=len(settled), requested=len(entries))
        return tuple(settled)

    @external
    def refund(self, exchange_id: int) -> None:
        """Buyer reclaims escrow before the seller has delivered."""
        record = self._sload(("exchange", exchange_id))
        self.require(record is not None, "no such exchange")
        buyer, _seller, _c, _h, amount = record
        self.require(self.msg_sender == buyer, "only the buyer can refund")
        self._sstore(("exchange", exchange_id), None)
        self.transfer_out(buyer, amount)
        self.emit("Refunded", exchange_id=exchange_id)

    @view
    def masked_key(self, exchange_id: int):
        """The only key material ever visible on chain: k_c = k + k_v."""
        return self._storage.get(("masked_key", exchange_id))

    @view
    def exchange_info(self, exchange_id: int):
        """Public record of an open exchange:
        (buyer, seller, key_digest, h_v, amount)."""
        return self._storage.get(("exchange", exchange_id))
