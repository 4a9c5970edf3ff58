"""CPU core pools and serialized sections.

Two costs dominate the paper's results: per-operation CPU work that
parallelizes across cores, and work inside serialized sections (socket
locks, a single RPC progress context) that does not.  :class:`CpuPool`
models the former as a multi-server FIFO station.  A serialized section
is a single FIFO server, :class:`~repro.sim.queues.FifoServer`, entered
with ``enter(x86_cost)``.

Host-wide sections (socket locks, a single RPC progress context, built
by :meth:`Node.lock <repro.hw.platform.Node.lock>`) scale costs by the
host's ``lock_factor``: serialized code degrades more than parallel code
on the DPU's Arm complex (contended atomics, smaller LLC), which is what
produces the BlueField RDMA small-I/O gap in Fig. 5d.

An FIO job, an SPDK reactor or a DAOS engine xstream is one thread too,
a section scaled by the host's ``cycle_factor``: its CPU work is serial
even when the node has idle cores, and that serialism, not the core
count, is what bounds per-job IOPS in Fig. 3 (~80 K per job at ~11.5
us/op), while device and network phases overlap freely across in-flight
operations.  The paper's configurations run at most as many job threads
as the node has cores, so no core-contention stage is modeled for
submission work.

All costs passed in are **x86-baseline** seconds; the pool and the
section scale them, which is how the BlueField-3's slower Arm cores
enter every result without any caller knowing which platform it runs on.
"""

from __future__ import annotations

from typing import Optional

from repro.hw.specs import HostSpec
from repro.sim.core import Environment
from repro.sim.queues import FifoServer, PooledServer

__all__ = ["CpuPool"]


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


#: The name the perf harness times ``enter`` under
#: (``calls_per_io.hw.SerializedSection.enter``); a section is a
#: :class:`FifoServer`.
SerializedSection = FifoServer
