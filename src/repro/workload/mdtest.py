"""mdtest-style metadata workload.

DAOS's pitch includes "scalable metadata operations" (§2.4); HPC sites
measure that with mdtest: N concurrent ranks each create, stat and
unlink a private tree of small files.  This module reproduces that
driver against a mounted :class:`~repro.daos.dfs.DfsNamespace` — every
operation is a real DFS transaction through the RPC stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, List

from repro.daos.dfs import DfsNamespace
from repro.sim.core import Environment, Event

__all__ = ["MdtestSpec", "MdtestResult", "run_mdtest"]


@dataclass(frozen=True)
class MdtestSpec:
    """One mdtest run: ``ranks`` workers x ``files_per_rank`` files each."""

    ranks: int = 4
    files_per_rank: int = 32
    payload_bytes: int = 0  # 0 = empty files (pure metadata)

    def __post_init__(self) -> None:
        if self.ranks <= 0 or self.files_per_rank <= 0:
            raise ValueError("ranks and files_per_rank must be positive")
        if self.payload_bytes < 0:
            raise ValueError("payload_bytes must be non-negative")

    @property
    def total_files(self) -> int:
        return self.ranks * self.files_per_rank


@dataclass
class MdtestResult:
    """Operations per second for each phase."""

    spec: MdtestSpec
    create_per_sec: float
    stat_per_sec: float
    unlink_per_sec: float

    def __str__(self) -> str:
        return (
            f"mdtest ranks={self.spec.ranks} files={self.spec.total_files}: "
            f"create {self.create_per_sec:,.0f}/s, stat {self.stat_per_sec:,.0f}/s, "
            f"unlink {self.unlink_per_sec:,.0f}/s"
        )


def run_mdtest(
    env: Environment,
    ns: DfsNamespace,
    make_context,
    spec: MdtestSpec,
) -> Generator[Event, None, MdtestResult]:
    """Run the three mdtest phases; use as a process (``yield from``).

    ``make_context`` is a callable returning a fresh job thread per rank
    (e.g. ``client.new_context`` or ``port.new_context``).
    """
    ctxs = [make_context() for _ in range(spec.ranks)]
    root = "/mdtest"
    yield from ns.mkdir(ctxs[0], root)
    for r in range(spec.ranks):
        yield from ns.mkdir(ctxs[r], f"{root}/rank{r}")

    def paths(r: int) -> List[str]:
        return [f"{root}/rank{r}/f{i:05d}" for i in range(spec.files_per_rank)]

    def phase(op) -> Generator[Event, None, float]:
        t0 = env.now

        def rank_work(env, r):
            ctx = ctxs[r]
            for path in paths(r):
                yield from op(ctx, path)

        procs = [env.process(rank_work(env, r)) for r in range(spec.ranks)]
        yield env.all_of(procs)
        elapsed = env.now - t0
        return spec.total_files / elapsed if elapsed > 0 else 0.0

    def do_create(ctx, path):
        f = yield from ns.create(ctx, path)
        if spec.payload_bytes:
            yield from f.write(ctx, 0, nbytes=spec.payload_bytes)

    def do_stat(ctx, path):
        yield from ns.stat(ctx, path)

    def do_unlink(ctx, path):
        yield from ns.unlink(ctx, path)

    create_rate = yield from phase(do_create)
    stat_rate = yield from phase(do_stat)
    unlink_rate = yield from phase(do_unlink)
    return MdtestResult(spec, create_rate, stat_rate, unlink_rate)
