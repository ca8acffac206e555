"""The exchange safety invariants, stated once for every driver.

The key-secure driver, the node, ZKCP and FairSwap all promise the same
end state however a run was interrupted: payment happens iff the key is
released, and a buyer who did not get the key gets every coin back.
:func:`assert_safe_end` checks that promise on a finished run; the fault
suites call it after every seeded or forced fault.
"""

#: The event each protocol emits when key material reaches the chain.
KEY_EVENTS = frozenset({"KeyDelivered", "Opened", "KeyRevealed"})


def assert_safe_end(
    chain, escrow, receipts, runs, seller, price, start, plaintext=None, secret=None
):
    """Check the end state of one or more exchanges with one seller.

    ``receipts`` are the transactions of these runs, ``runs`` pairs each
    result with its buyer, ``escrow`` is the contract that held the
    payments and ``start`` maps the seller and every buyer to their
    balance before the runs.  ``plaintext`` is what a successful buyer
    must recover; ``secret``, a key no event may carry.
    """
    key_events = [e for r in receipts if r.status for e in r.events if e.name in KEY_EVENTS]
    released = {e.get("exchange_id") for e in key_events}
    successes = 0
    for result, buyer in runs:
        # Exactly one terminal state: completed, aborted, or rejected.
        assert not (result.success and result.aborted), result
        successes += result.success
        # The buyer paid exactly the price on success and is whole otherwise.
        assert chain.balance_of(buyer) == start[buyer] - (price if result.success else 0), result
        if result.success and plaintext is not None:
            assert result.plaintext == plaintext
        exchange_id = getattr(result, "exchange_id", None)
        if exchange_id is not None:
            # No key or masked key on chain after an abort.
            assert (exchange_id in released) == result.success, result
    # The seller is paid iff a key event was emitted, once per key.
    assert len(key_events) == successes
    assert chain.balance_of(seller) == start[seller] + price * successes
    # No escrow left open: every locked payment was paid out or refunded.
    assert chain.balance_of(escrow.address) == 0
    if secret is not None:
        assert all(secret not in dict(e.fields).values() for r in receipts for e in r.events)
