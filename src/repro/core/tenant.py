"""Multi-tenant isolation on the DPU.

The security analysis (§2.3) motivates exactly the controls ROS2 places on
the BlueField: per-tenant protection domains and QPs, short-lived scoped
rkeys, strict memory registration, and per-tenant rate limits "while
keeping policy enforcement close to the NIC".  This module implements the
policy side:

* :class:`TokenBucket` — a work-conserving rate limiter (ops/s and
  bytes/s) with analytic refill (no polling processes).
* :class:`TenantManager` — registration, bearer-token authentication,
  admission control, and scoped-window minting.  Channel-level isolation
  (each tenant's fabric channel owns a fresh PD + QP pair) is enforced by
  construction in :class:`~repro.net.fabric.RdmaChannel`; the manager adds
  the capability hygiene on top.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field
from typing import Dict, Generator, Iterable, Optional

from repro.net.fabric import FabricChannel, RemoteRegion
from repro.sim.core import Environment, Event

__all__ = ["AuthError", "TokenBucket", "Tenant", "TenantManager"]


class AuthError(RuntimeError):
    """Unknown or revoked bearer token."""


class TokenBucket:
    """Analytic token bucket: ``rate`` tokens/s, capacity ``burst``.

    ``acquire`` waits (shaping) when the bucket is empty.  Refill is
    computed lazily from elapsed simulated time, so the limiter
    adds zero events while a tenant stays under its rate.
    """

    def __init__(self, env: Environment, rate: float, burst: Optional[float] = None) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        self.env = env
        self.rate = float(rate)
        self.burst = float(burst if burst is not None else rate)
        if self.burst <= 0:
            raise ValueError(f"burst must be positive, got {self.burst}")
        self._level = self.burst
        self._last = env.now

    def _refill(self) -> None:
        now = self.env.now
        self._level = min(self.burst, self._level + (now - self._last) * self.rate)
        self._last = now

    @property
    def level(self) -> float:
        """Tokens currently available."""
        self._refill()
        return self._level

    def acquire(self, n: float) -> Generator[Event, None, None]:
        """Take ``n`` tokens, waiting for refill."""
        if n <= 0:
            raise ValueError(f"token count must be positive, got {n}")
        if n > self.burst:
            raise ValueError(f"request of {n} exceeds burst capacity {self.burst}")
        # Relative tolerance so floating-point refill arithmetic can never
        # leave a vanishing deficit that spins the loop on ~0s timeouts.
        eps = 1e-9 * n
        while True:
            self._refill()
            if n <= self._level + eps:
                self._level = max(0.0, self._level - n)
                return
            # Wait for the deficit to refill, then RE-CHECK: a concurrent
            # acquirer may have drained the bucket while we slept (no
            # overdraft allowed).
            deficit = max(n - self._level, eps)
            yield self.env.timeout(deficit / self.rate)


_token_seq = itertools.count(1)


def _mint_token(name: str) -> str:
    raw = f"{name}:{next(_token_seq)}:ros2".encode()
    return hashlib.sha256(raw).hexdigest()[:32]


@dataclass(slots=True)
class Tenant:
    """One registered tenant and its policy state."""

    name: str
    token: str
    ops_bucket: Optional[TokenBucket] = None
    bytes_bucket: Optional[TokenBucket] = None
    rkey_ttl: Optional[float] = None
    crypto_key: Optional[bytes] = None
    revoked: bool = False
    stats: Dict[str, int] = field(default_factory=lambda: {"ops": 0, "bytes": 0})


class TenantManager:
    """Registration, authentication and admission control."""

    def __init__(self, env: Environment) -> None:
        self.env = env
        self._by_token: Dict[str, Tenant] = {}
        self._by_name: Dict[str, Tenant] = {}

    def register(
        self,
        name: str,
        ops_per_sec: Optional[float] = None,
        bytes_per_sec: Optional[float] = None,
        burst_ops: Optional[float] = None,
        burst_bytes: Optional[float] = None,
        rkey_ttl: Optional[float] = None,
        crypto_key: Optional[bytes] = None,
    ) -> Tenant:
        """Register a tenant; returns it (the bearer token is inside)."""
        if name in self._by_name:
            raise ValueError(f"tenant {name!r} already registered")
        tenant = Tenant(
            name=name,
            token=_mint_token(name),
            ops_bucket=(
                TokenBucket(self.env, ops_per_sec, burst_ops) if ops_per_sec else None
            ),
            bytes_bucket=(
                TokenBucket(self.env, bytes_per_sec, burst_bytes)
                if bytes_per_sec else None
            ),
            rkey_ttl=rkey_ttl,
            crypto_key=crypto_key,
        )
        self._by_token[tenant.token] = tenant
        self._by_name[name] = tenant
        return tenant

    def authenticate(self, token: str) -> Tenant:
        """Resolve a bearer token or raise :class:`AuthError`."""
        tenant = self._by_token.get(token)
        if tenant is None or tenant.revoked:
            raise AuthError("invalid or revoked bearer token")
        return tenant

    def revoke(self, name: str) -> None:
        """Kill a tenant's access (existing scoped rkeys age out via TTL)."""
        tenant = self._by_name.get(name)
        if tenant is None:
            raise KeyError(f"unknown tenant {name!r}")
        tenant.revoked = True

    def tenants(self) -> list:
        """Registered tenant names."""
        return sorted(self._by_name)

    def admit(self, tenant: Tenant, nbytes: int) -> Iterable[Event]:
        """Admission control (shaping) for one I/O of ``nbytes``.

        ``yield from`` it.  A tenant without buckets is admitted at once
        and gets ``()``, with no generator to drive.
        """
        if tenant.revoked:
            raise AuthError(f"tenant {tenant.name!r} is revoked")
        if tenant.ops_bucket is None and tenant.bytes_bucket is None:
            tenant.stats["ops"] += 1
            tenant.stats["bytes"] += nbytes
            return ()
        return self._shape(tenant, nbytes)

    @staticmethod
    def _shape(tenant: Tenant, nbytes: int) -> Generator[Event, None, None]:
        if tenant.ops_bucket is not None:
            yield from tenant.ops_bucket.acquire(1)
        if tenant.bytes_bucket is not None and nbytes > 0:
            yield from tenant.bytes_bucket.acquire(nbytes)
        tenant.stats["ops"] += 1
        tenant.stats["bytes"] += nbytes

    def scoped_window(
        self,
        tenant: Tenant,
        channel: FabricChannel,
        owner: str,
        length: int,
    ) -> RemoteRegion:
        """Mint a registration whose rkey dies after the tenant's TTL.

        This is the "short-lived scoped rkeys" control of §2.3: even a
        leaked descriptor goes stale within ``rkey_ttl`` seconds.
        """
        valid_until = (
            self.env.now + tenant.rkey_ttl if tenant.rkey_ttl is not None else None
        )
        return channel.register(owner, length, valid_until=valid_until)
