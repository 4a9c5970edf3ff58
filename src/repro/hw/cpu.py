"""CPU core pools and serialized sections.

Two costs dominate the paper's results: per-operation CPU work that
parallelizes across cores, and work inside serialized sections (socket
locks, a single RPC progress context) that does not.  :class:`CpuPool`
models the former as a multi-server FIFO station; :class:`SerializedSection`
models the latter, and every single-threaded submission context, as a
single FIFO server.

All costs passed in are **x86-baseline** seconds; the pool scales them by
the owning host's ``cycle_factor`` (and host-wide sections by
``lock_factor``), which is how the BlueField-3's slower Arm cores enter
every result without any caller knowing which platform it runs on.
"""

from __future__ import annotations

from typing import Optional

from repro.hw.specs import HostSpec
from repro.sim.core import Environment, Timeout
from repro.sim.queues import FifoServer, PooledServer

__all__ = ["CpuPool", "SerializedSection"]


class CpuPool(PooledServer):
    """A pool of identical cores with an architecture speed factor.

    The pool is the cores' station: :meth:`execute` is
    :meth:`PooledServer.execute <repro.sim.queues.PooledServer.execute>`,
    which scales every x86-baseline cost by :attr:`factor`.
    """

    __slots__ = ("spec", "n_cores")

    def __init__(
        self,
        env: Environment,
        spec: HostSpec,
        n_cores: Optional[int] = None,
        factor: Optional[float] = None,
        name: Optional[str] = None,
    ) -> None:
        n_cores = int(n_cores if n_cores is not None else spec.cores)
        if n_cores <= 0:
            raise ValueError(f"need at least one core, got {n_cores}")
        super().__init__(env, n_cores, name=name)
        self.spec = spec
        self.n_cores = n_cores
        #: Multiplier applied to every x86-baseline cost.
        self.factor = float(factor if factor is not None else spec.cycle_factor)

    #: ``execute(x86_cost, *delays)``: run ``x86_cost`` seconds of baseline
    #: work on the earliest-free core, then sleep the caller's ``delays``:
    #: one event, one call.
    execute = PooledServer.execute


class SerializedSection:
    """A serialized code path: a lock, a progress thread, a job thread.

    Host-wide sections (socket locks, a single RPC progress context) scale
    costs by the host's ``lock_factor``: serialized code degrades more
    than parallel code on the DPU's Arm complex (contended atomics,
    smaller LLC), which is what produces the BlueField RDMA small-I/O gap
    in Fig. 5d.

    An FIO job, an SPDK reactor or a DAOS engine xstream is one thread
    too, scaled by the host's ``cycle_factor``: its CPU work is serial
    even when the node has idle cores, and that serialism, not the core
    count, is what bounds per-job IOPS in Fig. 3 (~80 K per job at
    ~11.5 us/op), while device and network phases overlap freely across
    in-flight operations.  The paper's configurations run at most as
    many job threads as the node has cores, so no core-contention stage
    is modeled for submission work.
    """

    __slots__ = ("env", "name", "factor", "_server")

    def __init__(self, env: Environment, name: str, factor: float = 1.0,
                 wait_name: Optional[str] = None) -> None:
        self.env = env
        self.name = name
        #: Multiplier applied to every x86-baseline cost.
        self.factor = float(factor)
        # ``wait_name`` lets a section share a blame bucket with the pool
        # it stands in for (e.g. the BF3 tcp_stack section and the Arm RX
        # core pool both attribute to "dpu.arm_rx").
        self._server = FifoServer(env, name=wait_name or name)

    def enter(self, x86_cost: float) -> Timeout:
        """Pass through the section, paying ``x86_cost`` (scaled) serially."""
        return self._server.serve(x86_cost * self.factor)

    @property
    def busy_time(self) -> float:
        """Cumulative serialized seconds."""
        return self._server.busy_time

    def utilization(self, elapsed: Optional[float] = None) -> float:
        """Fraction of time the section was occupied."""
        return self._server.utilization(elapsed)
