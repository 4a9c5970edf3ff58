"""DPU-resident inline services: encryption/decryption close to the NIC.

The abstract calls out "DPU-resident features such as multi-tenant
isolation and inline services (e.g., encryption/decryption) close to the
NIC".  This module provides both halves:

* :class:`ChaCha20` — a real RFC 8439 ChaCha20 cipher, vectorized with
  NumPy across blocks (the keystream for every 64-byte block of a payload
  is computed in one array program — the "vectorize the outer loop" idiom
  from the HPC guides).  NumPy is imported only when a payload is
  crypted, so a simulation without inline crypto never loads it.
* :class:`InlineCrypto` — the timing wrapper: on BlueField-3 the payload
  rides the SoC's crypto accelerator (a serial offload engine near line
  rate); on a host it costs per-byte CPU on the calling thread.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Optional

from repro.daos.erasure import xor_bytes
from repro.hw.platform import Node
from repro.hw.specs import GIB
from repro.sim.core import Environment, Event
from repro.sim.queues import FifoServer

if TYPE_CHECKING:
    import numpy as np

__all__ = ["ChaCha20", "InlineCrypto"]


def _rotl(x: np.ndarray, n: int) -> np.ndarray:
    return (x << n) | (x >> (32 - n))


def _quarter_round(s: np.ndarray, a: int, b: int, c: int, d: int) -> None:
    # Operates in place on state array of shape (16, nblocks), dtype uint32.
    s[a] += s[b]; s[d] = _rotl(s[d] ^ s[a], 16)  # noqa: E702 - RFC layout
    s[c] += s[d]; s[b] = _rotl(s[b] ^ s[c], 12)  # noqa: E702
    s[a] += s[b]; s[d] = _rotl(s[d] ^ s[a], 8)   # noqa: E702
    s[c] += s[d]; s[b] = _rotl(s[b] ^ s[c], 7)   # noqa: E702


class ChaCha20:
    """RFC 8439 ChaCha20, all blocks of a payload computed vectorized."""

    KEY_BYTES = 32
    NONCE_BYTES = 12
    BLOCK_BYTES = 64

    def __init__(self, key: bytes, nonce: bytes) -> None:
        if len(key) != self.KEY_BYTES:
            raise ValueError(f"key must be {self.KEY_BYTES} bytes, got {len(key)}")
        if len(nonce) != self.NONCE_BYTES:
            raise ValueError(f"nonce must be {self.NONCE_BYTES} bytes, got {len(nonce)}")
        self._key = bytes(key)
        self._nonce = bytes(nonce)

    def keystream(self, counter: int, nbytes: int) -> bytes:
        """Keystream bytes starting at block ``counter``."""
        if nbytes <= 0:
            raise ValueError(f"nbytes must be positive, got {nbytes}")
        import numpy as np

        nblocks = (nbytes + self.BLOCK_BYTES - 1) // self.BLOCK_BYTES
        # Build the (16, nblocks) initial state with a running counter.
        state = np.empty((16, nblocks), dtype=np.uint32)
        state[0:4] = np.frombuffer(b"expand 32-byte k", dtype="<u4")[:, None]
        state[4:12] = np.frombuffer(self._key, dtype="<u4")[:, None]
        state[12] = (counter + np.arange(nblocks, dtype=np.uint64)) & 0xFFFFFFFF
        state[13:16] = np.frombuffer(self._nonce, dtype="<u4")[:, None]

        working = state.copy()
        old = np.seterr(over="ignore")
        try:
            for _ in range(10):  # 20 rounds = 10 double rounds
                _quarter_round(working, 0, 4, 8, 12)
                _quarter_round(working, 1, 5, 9, 13)
                _quarter_round(working, 2, 6, 10, 14)
                _quarter_round(working, 3, 7, 11, 15)
                _quarter_round(working, 0, 5, 10, 15)
                _quarter_round(working, 1, 6, 11, 12)
                _quarter_round(working, 2, 7, 8, 13)
                _quarter_round(working, 3, 4, 9, 14)
            working += state
        finally:
            np.seterr(**old)
        # Column-major serialization: each block is 16 little-endian words.
        stream = working.T.astype("<u4").tobytes()
        return stream[:nbytes]

    def crypt(self, counter: int, data: bytes) -> bytes:
        """Encrypt or decrypt (XOR with keystream) starting at ``counter``."""
        if not data:
            return b""
        return xor_bytes(data, self.keystream(counter, len(data)))

    def crypt_at(self, byte_offset: int, data: bytes) -> bytes:
        """Encrypt/decrypt ``data`` located at ``byte_offset`` in the stream.

        ChaCha20 is seekable: the block counter is derived from the offset
        (counter 1 = stream byte 0, per RFC 8439 usage), so file extents
        can be crypted independently at any alignment.
        """
        if byte_offset < 0:
            raise ValueError(f"negative stream offset {byte_offset}")
        if not data:
            return b""
        counter = 1 + byte_offset // self.BLOCK_BYTES
        skip = byte_offset % self.BLOCK_BYTES
        return xor_bytes(data, self.keystream(counter, skip + len(data))[skip:])


#: BlueField-3 inline crypto accelerator throughput (datasheet-class AES/
#: ChaCha line-rate engines; one serial engine per direction).
DPU_CRYPTO_ACCEL_RATE = 48 * GIB

#: Software ChaCha20 throughput per x86 core.
SW_CRYPTO_BYTES_PER_SEC = 3.0 * GIB


class InlineCrypto:
    """Per-tenant inline encryption with platform-dependent cost.

    * On a BlueField-3 (``accelerated``) payloads stream through the
      crypto engine: a serial offload, no CPU.
    * On a host, encryption is software: per-byte CPU on the job thread.
    """

    def __init__(self, node: Node, key: bytes) -> None:
        self.node = node
        self.env: Environment = node.env
        self.cipher = ChaCha20(key, bytes(12))
        self.accelerated = node.spec.name == "bluefield-3"
        self._engine = FifoServer(self.env, f"{node.name}.crypto")

    def crypt(
        self,
        ctx: FifoServer,
        stream_offset: int,
        data: Optional[bytes] = None,
        nbytes: Optional[int] = None,
    ) -> Generator[Event, None, Optional[bytes]]:
        """Encrypt/decrypt a payload located at ``stream_offset``.

        ``data`` may be None (virtual performance mode) with an explicit
        ``nbytes`` — the engine/CPU time is charged either way.
        """
        if nbytes is None:
            if data is None:
                raise ValueError("crypt needs data or an explicit nbytes")
            nbytes = len(data)
        if self.accelerated:
            yield self._engine.serve(nbytes / DPU_CRYPTO_ACCEL_RATE)
        else:
            yield ctx.enter(nbytes / SW_CRYPTO_BYTES_PER_SEC)
        if data is None:
            return None
        return self.cipher.crypt_at(stream_offset, data)
