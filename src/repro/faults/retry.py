"""Retry policy: deadlines, capped backoff, deterministic jitter.

The client retry loop (``daos/client.py``) consults this module; it is
deliberately pure — no environment access — so the same classification
is unit-testable without a simulation.

Determinism: jitter is derived from :func:`repro.sim.rng.seed_from_key`
over the *operation's* key (op sequence number + attempt), never from
wall-clock or a shared PRNG stream, so a retry schedule is a pure
function of the fault plan seed and replays byte-identically.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Optional

from repro.sim.rng import seed_from_key

__all__ = ["RetryPolicy", "backoff_delay", "is_retryable"]


@dataclass(frozen=True, slots=True)
class RetryPolicy:
    """Knobs for the client's recovery loop (times in sim seconds)."""

    #: Give up after this many attempts (first try included).
    max_attempts: int = 12
    #: First backoff delay; doubles per attempt.
    base_delay: float = 200e-6
    #: Ceiling on a single backoff delay.
    max_delay: float = 2e-3
    #: Per-attempt RPC deadline (0 disables the timeout).
    op_timeout: float = 5e-3
    #: Whole-operation budget across all attempts (0 = unbounded).
    deadline: float = 0.1
    #: Jitter fraction: a delay lands in ``[d*(1-jitter), d)``.
    jitter: float = 0.5

    def to_dict(self) -> dict:
        """Canonical dict form (campaign config / ledger records)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "RetryPolicy":
        return cls(**doc)


def backoff_delay(policy: RetryPolicy, attempt: int, key: str) -> float:
    """Backoff before retry number ``attempt`` (1-based), with jitter.

    ``key`` identifies the operation (e.g. ``"chaos:op17"``); together
    with ``attempt`` it fully determines the jitter draw.
    """
    raw = policy.base_delay * (2.0 ** (attempt - 1))
    if raw > policy.max_delay:
        raw = policy.max_delay
    u = seed_from_key(key, salt=attempt) / 2**32  # uniform [0, 1)
    return raw * (1.0 - policy.jitter + policy.jitter * u)


#: Remote-error substrings that indicate a transient, retryable failure
#: (the remote side saw an injected fault or a target that may rebuild).
_RETRYABLE_REMOTE = (
    "NvmeMediaError",
    "FaultInjectedError",
    "RdmaError",
    "ConnectionError",
    "is down",
    "are down",
)

#: Remote-error substrings that are always fatal regardless of faults.
_FATAL_REMOTE = (
    "unknown opcode",
    "degraded writes are not supported",
    "access violation",
)


def is_retryable(exc: BaseException, idempotent: bool = True) -> bool:
    """Classify an exception: worth retrying, or fatal?

    ``idempotent`` marks read-style operations that are safe to replay
    after an *ambiguous* failure (a deadline timeout, where the server
    may have applied the op).  Non-idempotent ops only retry failures
    known to have happened before delivery.
    """
    from repro.daos.rpc import RpcError, RpcTimeout
    from repro.faults.errors import FaultInjectedError
    from repro.net.rdma import RdmaError

    if isinstance(exc, RpcTimeout):
        # Ambiguous: the request may have been executed remotely.
        return idempotent
    if isinstance(exc, RpcError):
        remote = getattr(exc, "remote_error", None) or str(exc)
        if any(marker in remote for marker in _FATAL_REMOTE):
            return False
        return any(marker in remote for marker in _RETRYABLE_REMOTE)
    if isinstance(exc, FaultInjectedError):
        return True
    if isinstance(exc, RdmaError):
        return "access violation" not in str(exc).lower()
    if isinstance(exc, ConnectionError):
        return True
    return False


def remaining_budget(policy: RetryPolicy, started: float, now: float) -> Optional[float]:
    """Seconds left of the whole-operation deadline (None = unbounded)."""
    if policy.deadline <= 0:
        return None
    return policy.deadline - (now - started)
