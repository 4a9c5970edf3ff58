"""Deterministic, named random-number streams, in pure Python.

Every stochastic element of the simulation (offset patterns, jitter,
arrival processes) pulls from its own named stream derived from a single
root seed, so results are reproducible regardless of the order in which
components initialize — the standard trick for parallel/HPC Monte-Carlo
codes.

A stream is the repo's own code, not a library's: it reproduces, bit for
bit, what ``numpy.random.default_rng(SeedSequence(root_seed,
spawn_key=tuple(name.encode())))`` followed by ``Generator.integers(low,
high, size, dtype=np.int64)`` returns for ranges below 2**32.  The three
pieces are NumPy's ``SeedSequence`` entropy pool, the ``PCG64`` bit
generator (XSL-RR 128/64, with the spare 32-bit half-word it carries
from one draw to the next) and Lemire's bounded 32-bit method with its
rejection threshold.  Owning the stream means the simulator imports no
NumPy, and a ledger result cannot move when a NumPy release changes its
``Generator`` streams (NEP 19 allows that).  The tests keep NumPy as the
reference, and golden first draws pin the stream without it.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Sequence, Union

__all__ = ["Pcg64Stream", "RngStreams", "seed_from_key"]

_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1

# SeedSequence hash constants (O'Neill's seed_seq_fe, as NumPy uses them).
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715

#: PCG's default 128-bit LCG multiplier.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def seed_from_key(key: str, salt: int = 0) -> int:
    """A stable 32-bit seed derived from a string key.

    The campaign executor seeds each cell from its *cell key* (config
    slug + config hash), so a cell's random streams are a pure function
    of its configuration — identical whether the cell runs serially, on
    worker 3 of 8, or in a different campaign entirely.
    """
    digest = hashlib.sha256(f"{salt}:{key}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def _words(n: int) -> List[int]:
    """A non-negative int as little-endian 32-bit words (``[0]`` for 0)."""
    if n < 0:
        raise ValueError(f"seed entropy must be non-negative, got {n}")
    out = [n & _MASK32]
    n >>= 32
    while n:
        out.append(n & _MASK32)
        n >>= 32
    return out


def _seed_state(entropy: int, spawn_key: Sequence[int], n_words: int) -> List[int]:
    """``SeedSequence(entropy, spawn_key=...).generate_state(n_words)``."""
    run = _words(entropy)
    spawn = [w for k in spawn_key for w in _words(k)]
    if spawn and len(run) < _POOL_SIZE:
        run += [0] * (_POOL_SIZE - len(run))
    data = run + spawn

    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = (value * hash_const) & _MASK32
        return value ^ (value >> 16)

    def mix(x: int, y: int) -> int:
        r = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return r ^ (r >> 16)

    pool = [hashmix(data[i] if i < len(data) else 0) for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for value in data[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(value))

    out = []
    hash_const = _INIT_B
    for i in range(n_words):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = (value * hash_const) & _MASK32
        out.append(value ^ (value >> 16))
    return out


class Pcg64Stream:
    """NumPy's ``PCG64`` bit generator with ``Generator.integers`` on top.

    Seeded from ``SeedSequence(entropy, spawn_key)`` exactly as
    ``numpy.random.default_rng`` seeds it, so both produce the same
    draws.  Only the 32-bit bounded integers the simulator needs are
    implemented.
    """

    __slots__ = ("_state", "_inc", "_half")

    def __init__(self, entropy: int, spawn_key: Sequence[int] = ()) -> None:
        w = _seed_state(int(entropy), spawn_key, 8)
        # Two little-endian uint64s each for the initial state and the
        # stream selector, high word first (pcg64_set_seed).
        seed = (w[0] | w[1] << 32) << 64 | (w[2] | w[3] << 32)
        initseq = (w[4] | w[5] << 32) << 64 | (w[6] | w[7] << 32)
        self._inc = ((initseq << 1) | 1) & _MASK128
        # pcg64_srandom: step from state 0 (giving inc), add the seed, step.
        state = (self._inc + seed) & _MASK128
        self._state = (state * _PCG_MULT + self._inc) & _MASK128
        #: The unused high half of the last 64-bit output, if any.
        self._half: Optional[int] = None

    def integers(
        self, low: int, high: int, size: Optional[int] = None
    ) -> Union[int, List[int]]:
        """Uniform ints in ``[low, high)``: one, or a list of ``size``.

        The range ``high - low`` must be between 1 and 2**32 - 1.
        """
        span = high - low
        if not 0 < span < 1 << 32:
            raise ValueError(
                f"integers needs a range of 1 to 2**32 - 1 values, "
                f"got [{low}, {high})"
            )
        n = 1 if size is None else size
        if span == 1:  # NumPy returns ``low`` without drawing
            return low if size is None else [low] * n
        # Lemire: accept u * span unless its low word falls below 2**32 % span.
        threshold = (1 << 32) % span
        state, inc, half = self._state, self._inc, self._half
        out = []
        append = out.append
        for _ in range(n):
            while True:
                if half is None:
                    state = (state * _PCG_MULT + inc) & _MASK128
                    rot = state >> 122
                    x = ((state >> 64) ^ state) & _MASK64
                    x = ((x >> rot) | (x << (64 - rot))) & _MASK64
                    m = (x & _MASK32) * span
                    half = x >> 32
                else:
                    m = half * span
                    half = None
                if m & _MASK32 >= threshold:
                    break
            append(low + (m >> 32))
        self._state, self._half = state, half
        return out[0] if size is None else out


class RngStreams:
    """A factory of independent :class:`Pcg64Stream` streams.

    Streams are keyed by name; the same ``(root_seed, name)`` pair always
    produces an identical stream.
    """

    def __init__(self, root_seed: int = 0xDA05) -> None:
        self.root_seed = int(root_seed)
        self._streams: Dict[str, Pcg64Stream] = {}

    def stream(self, name: str) -> Pcg64Stream:
        """Return the (cached) stream for ``name``."""
        gen = self._streams.get(name)
        if gen is None:
            gen = self._streams[name] = Pcg64Stream(
                self.root_seed, tuple(name.encode("utf-8")))
        return gen
