"""Deterministic, named random-number streams.

Every stochastic element of the simulation (offset patterns, jitter,
arrival processes) pulls from its own named stream derived from a single
root seed, so results are reproducible regardless of the order in which
components initialize — the standard trick for parallel/HPC Monte-Carlo
codes.
"""

from __future__ import annotations

import hashlib
from typing import Dict

import numpy as np

__all__ = ["RngStreams", "seed_from_key"]


def seed_from_key(key: str, salt: int = 0) -> int:
    """A stable 32-bit seed derived from a string key.

    The campaign executor seeds each cell from its *cell key* (config
    slug + config hash), so a cell's random streams are a pure function
    of its configuration — identical whether the cell runs serially, on
    worker 3 of 8, or in a different campaign entirely.
    """
    digest = hashlib.sha256(f"{salt}:{key}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


class RngStreams:
    """A factory of independent :class:`numpy.random.Generator` streams.

    Streams are keyed by name; the same ``(root_seed, name)`` pair always
    produces an identical stream.
    """

    def __init__(self, root_seed: int = 0xDA05) -> None:
        self.root_seed = int(root_seed)
        self._streams: Dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return the (cached) generator for ``name``."""
        gen = self._streams.get(name)
        if gen is None:
            seq = np.random.SeedSequence(self.root_seed, spawn_key=self._key(name))
            gen = self._streams[name] = np.random.default_rng(seq)
        return gen

    @staticmethod
    def _key(name: str) -> tuple:
        # Stable mapping of a stream name to a SeedSequence spawn key.
        return tuple(name.encode("utf-8"))
