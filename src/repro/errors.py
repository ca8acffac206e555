"""Exception hierarchy for the ZKDET reproduction.

Every error raised by this library derives from :class:`ReproError` so that
callers can catch library failures without masking programming errors.
"""


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class FieldError(ReproError):
    """Invalid finite-field operation (e.g. inverting zero)."""


class BackendError(ReproError):
    """A compute kernel or its dispatch failed."""


class CurveError(ReproError):
    """Point is not on the curve or group operation is invalid."""


class SRSError(ReproError):
    """Structured reference string is too small or malformed."""


class CircuitError(ReproError):
    """Constraint-system construction failed."""


class UnsatisfiedConstraintError(CircuitError):
    """A witness does not satisfy the constraint system."""


class ProofError(ReproError):
    """Proof generation failed."""


class VerificationError(ReproError):
    """Proof verification failed (raised only by checked variants)."""


class SerializationError(ReproError):
    """Proof or key (de)serialisation failed."""


class TransientError(ReproError):
    """A failure expected to clear on retry (timeouts, drops, churn).

    Every fault the deterministic fault plane (:mod:`repro.faults`) can
    inject that a :class:`repro.faults.RetryPolicy` is allowed to absorb
    derives from this class; anything else is treated as a protocol-level
    outcome and surfaces to the caller.
    """


class ChainError(ReproError):
    """Blockchain substrate error."""


class OutOfGasError(ChainError):
    """Transaction exceeded its gas limit."""


class ContractError(ChainError):
    """Smart-contract level revert."""


class TxDroppedError(ChainError, TransientError):
    """A submitted transaction was never mined (mempool drop); resubmit."""


class MempoolFullError(ChainError):
    """The fee-ordered mempool is at capacity and the offered fee does not
    beat the current floor.  Deliberately *not* a :class:`TransientError`:
    blind resubmission at the same fee can never succeed — the client must
    either raise its fee or back off, a decision no retry policy inside
    the chain can make for it (mirrors :class:`QueueFullError`)."""


class TxRevertedError(ChainError, TransientError):
    """A transaction was mined but reverted for a transient reason
    (injected revert); the failed receipt is on chain, resubmission may
    succeed."""


class EventDelayError(ChainError, TransientError):
    """The event log is lagging behind chain head; re-query later."""


class StorageError(ReproError):
    """Content-addressed storage error."""


class StorageUnavailableError(StorageError, TransientError):
    """A storage node or chunk was unreachable; another replica (or a
    retry) may serve it."""


class StorageTimeoutError(StorageError, TransientError):
    """A storage read exceeded its latency budget."""


class StorageCorruptionError(StorageError, TransientError):
    """Fetched bytes fail content-integrity verification.

    Transient because content addressing makes corruption detectable and
    therefore recoverable: a re-read or a different replica yields the
    genuine bytes (silent corruption is impossible by construction)."""


class ProtocolError(ReproError):
    """A ZKDET protocol interaction was violated."""


class MessageLossError(ProtocolError, TransientError):
    """An off-chain protocol message was lost in transit; resend."""


class MessageStallError(ProtocolError, TransientError):
    """An off-chain counterparty stalled past its response window."""


class RetryExhaustedError(ReproError):
    """A retried operation failed on every attempt the policy allowed."""


class DeadlineExceededError(ReproError):
    """An operation's (virtual) per-operation timeout elapsed."""


class ExchangeAbortedError(ProtocolError):
    """An exchange could not be driven into a safe terminal state.

    Raised only when even the abort/refund path failed persistently —
    chaos plans with bounded fault budgets never reach this."""


class ServiceError(ReproError):
    """Marketplace service-plane failure (node, queue, prover pool)."""


class QueueFullError(ServiceError):
    """Admission control rejected a request: the tenant's queue budget
    (or the node's global bound) is exhausted.  Deliberately *not* a
    :class:`TransientError` — the node sheds load at the door and the
    client, not a retry policy inside the node, decides when to re-offer
    the request."""


class SessionError(ServiceError):
    """A request referenced a session the node does not hold (never
    opened, expired, or already closed)."""
