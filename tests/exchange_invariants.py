"""The exchange invariants, stated once for every driver.

The key-secure driver, the node, ZKCP and FairSwap all promise the same
end state however a run was interrupted: payment happens iff the key is
released, and a buyer who did not get the key gets every coin back.
:func:`assert_safe_end` checks that promise on a finished run; the fault
suites call it after every seeded or forced fault.

The key-secure protocol promises more (Section IV-F): the chain only
ever sees ``k_c = k + k_v``.  :func:`assert_secrets_hidden` checks that
no secret reached anyone but the seller, on the chain or in what the run
emitted around it (recorded by :func:`publishing`); ZKCP and FairSwap
fail it by design.
"""

import os
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, field
from unittest import mock

from repro import telemetry
from repro.chain.blockchain import encode_calldata
from repro.telemetry import ledger

#: The event each protocol emits when key material reaches the chain.
KEY_EVENTS = frozenset({"KeyDelivered", "Opened", "KeyRevealed"})


def assert_safe_end(chain, escrow, receipts, runs, seller, price, start, plaintext=None):
    """Check the end state of one or more exchanges with one seller.

    ``receipts`` are the transactions of these runs, ``runs`` pairs each
    result with its buyer, ``escrow`` is the contract that held the
    payments and ``start`` maps the seller and every buyer to their
    balance before the runs.  ``plaintext`` is what a successful buyer
    must recover.  Whether a key stayed secret is
    :func:`assert_secrets_hidden`'s question.
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


@dataclass
class Published:
    """What a run showed anyone but the seller, beyond the chain's state."""

    #: ``(method, calldata)`` of every transaction submitted, landed or not.
    calldata: list = field(default_factory=list)
    #: Every span tree finished during the run.
    spans: list = field(default_factory=list)
    #: Every record the run wrote to the run ledger.
    ledger: list = field(default_factory=list)


@contextmanager
def publishing(chain):
    """Record what runs on ``chain`` publish inside the block: the calldata
    of each ``chain.transact``, every span tree (tracing is on) and the
    run-ledger records (a ledger is active: ``REPRO_LEDGER``'s when it is
    set, so a chaos job's ledger keeps every run, else a scratch one)."""
    published = Published()
    transact = vars(chain).get("transact")
    submit = chain.transact

    def recording(sender, contract, method, *args, **kwargs):
        published.calldata.append((method, encode_calldata(method, args)))
        return submit(sender, contract, method, *args, **kwargs)

    with tempfile.TemporaryDirectory() as tmp, telemetry.use_level("on"):
        path = ledger.default_path() or os.path.join(tmp, "ledger.jsonl")
        earlier = len(ledger.read(path)) if os.path.exists(path) else 0
        chain.transact = recording
        telemetry.add_exporter(published.spans.append)
        try:
            with mock.patch.dict(os.environ, {ledger.ENV_VAR: path}):
                yield published
        finally:
            telemetry.remove_exporter(published.spans.append)
            if transact is None:
                del chain.transact
            else:
                chain.transact = transact
            if os.path.exists(path):
                published.ledger = ledger.read(path)[earlier:]


def _shows(value, secrets):
    """Whether a secret can be read off ``value``: as a 32-byte word of
    its bytes, or in decimal or hex in its text, containers searched
    member by member."""
    if isinstance(value, (bytes, bytearray)):
        return any(secret.to_bytes(32, "big") in value for secret in secrets)
    if isinstance(value, dict):
        return _shows(list(value.items()), secrets)
    if isinstance(value, (list, tuple, set, frozenset)):
        return any(_shows(item, secrets) for item in value)
    text = str(value).lower()
    return any(str(secret) in text or format(secret, "x") in text for secret in secrets)


def asset_secrets(asset) -> tuple:
    """What only the seller knows of an asset besides its plaintext: the
    key and the blinders of its commitments [k] and [d]."""
    return (asset.key, asset.key_blinder, asset.data_blinder)


def assert_secrets_hidden(run, secrets):
    """No secret in ``secrets`` reached anyone but the seller.

    ``run`` carries ``chain``, ``runs`` (result, buyer) pairs and
    ``published``, recorded by :func:`publishing`.  A secret may not
    appear in an event field, a storage slot of any contract on the
    chain, a 32-byte word of any calldata, a span attribute, a ledger
    record or a result's reason.
    """
    places = []
    for receipt in run.chain.receipts:
        for event in receipt.events:
            places += ["event %s.%s" % (event.name, name)
                       for name, value in event.fields if _shows(value, secrets)]
    for contract in run.chain.contracts.values():
        places += ["storage %s%r" % (type(contract).__name__, key)
                   for key, value in contract._storage.items() if _shows((key, value), secrets)]
    places += ["calldata %s" % method
               for method, data in run.published.calldata if _shows(data, secrets)]
    for root in run.published.spans:
        for span in root.walk():
            places += ["span %s.%s" % (span.name, name)
                       for name, value in span.attrs.items() if _shows(value, secrets)]
    places += ["ledger %s" % record["name"]
               for record in run.published.ledger if _shows(record, secrets)]
    places += ["reason %r" % result.reason
               for result, _buyer in run.runs if _shows(result.reason, secrets)]
    assert not places, "a secret is visible in: %s" % "; ".join(places)
