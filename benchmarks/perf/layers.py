"""Instruments the benchmark installs around public simulator functions.

Nothing here edits ``src/``: every instrument replaces a class or module
attribute while it is active and puts the original back on exit.

* :class:`PhaseClock` wraps ``Environment.run``, ``runner.run_fio`` and
  ``Ros2System.__init__``.  It splits one cell's host time and kernel
  events into setup, ramp, measured window and drain, and captures the
  environment and system the cell built.
* :class:`SelfTimer` wraps the layer boundaries in :data:`BOUNDARIES`.
  It times every call and every resume of a returned generator, subtracts
  the nested boundaries, and keeps 1-in-N sampled client call trees in
  simulated time.
"""

from __future__ import annotations

import importlib
import time
from types import GeneratorType
from typing import Callable, Dict, List, Optional, Tuple

PHASES = ("setup", "ramp", "measured", "drain")

#: Layer boundaries the traced pass times: (self-time group, module,
#: class, methods).  The group is the package, except that ``sim`` splits
#: into its queueing stations and its resources.
BOUNDARIES: Tuple[Tuple[str, str, str, Tuple[str, ...]], ...] = (
    ("core", "repro.core.offload", "Ros2DataPort", ("read", "write")),
    ("core", "repro.core.data_plane", "DataPlane", ("stage",)),
    ("daos", "repro.daos.dfs", "DfsFile", ("read", "write")),
    ("daos", "repro.daos.client", "ObjectHandle", ("fetch", "update")),
    ("daos", "repro.daos.client", "DaosClient", ("call",)),
    ("daos", "repro.daos.rpc", "RpcClient", ("call",)),
    ("daos", "repro.daos.vos", "VersionedObjectStore", ("fetch", "update")),
    ("net", "repro.net.fabric", "RdmaChannel", ("send", "rma_read", "rma_write")),
    ("net", "repro.net.fabric", "TcpChannel", ("send", "rma_read", "rma_write")),
    ("net", "repro.net.rdma", "QueuePair", ("post_send",)),
    ("net", "repro.net.tcp", "TcpConnection", ("send",)),
    ("hw", "repro.hw.nvme", "NvmeArray", ("submit",)),
    ("hw", "repro.hw.nvme", "NvmeDevice", ("submit",)),
    ("hw", "repro.hw.nic", "Switch", ("transmit",)),
    ("hw", "repro.hw.nic", "DuplexLink", ("transfer",)),
    ("hw", "repro.hw.dram", "DramPool", ("alloc",)),
    ("hw", "repro.hw.cpu", "CpuPool", ("execute",)),
    ("hw", "repro.hw.cpu", "SerializedSection", ("enter",)),
    ("storage", "repro.storage.block", "BlockDevice", ("read", "write")),
    ("sim.queues", "repro.sim.queues", "BandwidthPipe", ("transfer",)),
    ("sim.queues", "repro.sim.queues", "FifoServer", ("serve",)),
    ("sim.queues", "repro.sim.queues", "PooledServer", ("execute",)),
    ("sim.resources", "repro.sim.resources", "Resource", ("request",)),
    ("sim.resources", "repro.sim.resources", "Store", ("get",)),
)

#: Self-time groups in report order; ``sim.kernel`` is the remainder of
#: the measured window (dispatch, FIO lanes and glue between boundaries).
GROUPS = ("core", "daos", "net", "hw", "storage", "sim.queues",
          "sim.resources", "sim.kernel")

#: Boundaries that start a client call tree.
ROOTS = ("Ros2DataPort.read", "Ros2DataPort.write")


class _Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self) -> None:
        self._undo: List[tuple] = []

    def replace(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def restore(self) -> None:
        while self._undo:
            owner, name, old = self._undo.pop()
            setattr(owner, name, old)


class PhaseClock:
    """Host time and kernel events per phase of one cell.

    The first ``Environment.run`` inside ``run_fio`` is the ramp and the
    second is the measured window; runs before ``run_fio`` are setup and
    runs after it are the drain.  ``on_measured(clock, start)`` is called
    just outside the measured window, so what it does is not timed.

    Host time is kept twice: :attr:`cpu` is the process's CPU time, which
    leaves out the time the machine runs something else, and :attr:`wall`
    is elapsed time, the clock the traced pass's self-times use.  The cell
    is the code inside the ``with`` block: :attr:`cell_s` spans the block
    and :attr:`setup_s` runs from its start to the first FIO issue, both
    in CPU seconds.
    """

    def __init__(self, on_measured: Optional[Callable] = None) -> None:
        self.on_measured = on_measured
        self.cpu: Dict[str, float] = dict.fromkeys(PHASES, 0.0)
        self.wall: Dict[str, float] = dict.fromkeys(PHASES, 0.0)
        self.events: Dict[str, int] = dict.fromkeys(PHASES, 0)
        self.phase = "setup"
        self.env = None
        self.system = None
        self._c_enter = self._c_first_issue = self._c_exit = 0.0
        self._patches = _Patches()

    @property
    def cell_s(self) -> float:
        return self._c_exit - self._c_enter

    @property
    def setup_s(self) -> float:
        return self._c_first_issue - self._c_enter

    def __enter__(self) -> "PhaseClock":
        from repro.bench import runner
        from repro.core.ros2 import Ros2System
        from repro.sim.core import Environment

        clock = self
        orig_run = Environment.run
        orig_run_fio = runner.run_fio
        orig_init = Ros2System.__init__
        cpu_time, wall_time = time.process_time, time.perf_counter

        def run(env, until=None):
            phase = clock.phase
            clock.env = env
            if phase == "measured" and clock.on_measured is not None:
                clock.on_measured(clock, True)
            e0 = env.events_processed
            c0 = cpu_time()
            if phase == "ramp" and not clock._c_first_issue:
                clock._c_first_issue = c0
            t0 = wall_time()
            try:
                return orig_run(env, until)
            finally:
                clock.wall[phase] += wall_time() - t0
                clock.cpu[phase] += cpu_time() - c0
                clock.events[phase] += env.events_processed - e0
                if phase == "ramp":
                    clock.phase = "measured"
                elif phase == "measured":
                    clock.phase = "drain"
                    if clock.on_measured is not None:
                        clock.on_measured(clock, False)

        def run_fio(*args, **kwargs):
            clock.phase = "ramp"
            try:
                return orig_run_fio(*args, **kwargs)
            finally:
                clock.phase = "drain"

        def init(system, *args, **kwargs):
            orig_init(system, *args, **kwargs)
            clock.system = system

        self._patches.replace(Environment, "run", run)
        self._patches.replace(runner, "run_fio", run_fio)
        self._patches.replace(Ros2System, "__init__", init)
        self._c_enter = cpu_time()
        return self

    def __exit__(self, *exc) -> None:
        self._c_exit = time.process_time()
        self._patches.restore()


class Boundary:
    """Call count and host self-time of one wrapped method."""

    __slots__ = ("group", "package", "name", "calls", "self_s")

    def __init__(self, group: str, package: str, name: str) -> None:
        self.group = group
        self.package = package
        self.name = name
        self.calls = 0
        self.self_s = 0.0


class Node:
    """One call in a sampled client call tree (simulated seconds)."""

    __slots__ = ("boundary", "t0", "t1", "self_s", "children")

    def __init__(self, boundary: Boundary, t0: float) -> None:
        self.boundary = boundary
        self.t0 = t0
        self.t1: Optional[float] = None
        self.self_s = 0.0
        self.children: List["Node"] = []


class SelfTimer:
    """Host self-time per layer boundary, and sampled client call trees.

    Each wrapped call and each resume of a generator it returned is one
    timed frame.  A frame's inclusive time is charged to its parent frame
    as child time and its self-time is inclusive minus child time, so the
    self-times always sum to the inclusive time of the outermost frames
    (:attr:`top_s`).  Trees start at the :data:`ROOTS` boundaries while
    :attr:`sampling` is on, one in every ``sample_every`` calls, and take
    in every boundary the sampled call reaches.
    """

    def __init__(self, boundaries=BOUNDARIES, sample_every: int = 1000
                 ) -> None:
        self.boundaries_spec = boundaries
        self.sample_every = sample_every
        self.boundaries: Dict[str, Boundary] = {}
        self.trees: List[Node] = []
        self.sampling = False
        self.top_s = 0.0
        self.env = None
        self._seen = 0
        self._acc: List[float] = []
        self._nodes: List[Optional[Node]] = []
        self._patches = _Patches()

    def snapshot(self) -> Dict[str, Tuple[int, float]]:
        """``{boundary: (calls, self_s)}`` so far."""
        return {name: (b.calls, b.self_s)
                for name, b in self.boundaries.items()}

    def __enter__(self) -> "SelfTimer":
        for group, module, cls_name, methods in self.boundaries_spec:
            cls = getattr(importlib.import_module(module), cls_name)
            for method in methods:
                name = f"{cls_name}.{method}"
                b = self.boundaries[name] = Boundary(
                    group, group.split(".")[0], name)
                self._patches.replace(cls, method,
                                      self._wrap(cls.__dict__[method], b))
        return self

    def __exit__(self, *exc) -> None:
        self._patches.restore()

    # -- timing ---------------------------------------------------------------
    def _child_node(self, b: Boundary) -> Optional[Node]:
        """The tree node for a new call of ``b``, or None if unsampled."""
        nodes = self._nodes
        parent = nodes[-1] if nodes else None
        if parent is not None:
            node = Node(b, self.env.now)
            parent.children.append(node)
            return node
        if self.sampling and b.name in ROOTS:
            self._seen += 1
            if self._seen % self.sample_every == 0:
                node = Node(b, self.env.now)
                self.trees.append(node)
                return node
        return None

    def _close(self, dt: float, b: Boundary, node: Optional[Node]) -> None:
        acc = self._acc
        s = dt - acc.pop()
        self._nodes.pop()
        b.self_s += s
        if node is not None:
            node.self_s += s
        if acc:
            acc[-1] += dt
        else:
            self.top_s += dt

    def _wrap(self, fn, b: Boundary):
        timer = self
        clock = time.perf_counter
        acc = self._acc
        nodes = self._nodes

        def timed_gen(gen, node):
            value = None
            exc = None
            while True:
                acc.append(0.0)
                nodes.append(node)
                t0 = clock()
                try:
                    if exc is None:
                        event = gen.send(value)
                    else:
                        event = gen.throw(exc)
                except StopIteration as stop:
                    timer._close(clock() - t0, b, node)
                    if node is not None:
                        node.t1 = timer.env.now
                    return stop.value
                except BaseException:
                    timer._close(clock() - t0, b, node)
                    if node is not None:
                        node.t1 = timer.env.now
                    raise
                timer._close(clock() - t0, b, node)
                exc = None
                try:
                    value = yield event
                except GeneratorExit:
                    gen.close()
                    raise
                except BaseException as e:  # delivered into the generator
                    exc = e
                    value = None

        def wrapper(*args, **kwargs):
            b.calls += 1
            node = timer._child_node(b) if (nodes or timer.sampling) else None
            acc.append(0.0)
            nodes.append(node)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                timer._close(clock() - t0, b, node)
            if type(out) is GeneratorType:
                gen = timed_gen(out, node)
                gen.__name__ = out.__name__
                return gen
            if node is not None:
                node.t1 = timer.env.now
            return out

        wrapper.__name__ = fn.__name__
        return wrapper


def trace_document(timer: SelfTimer, workload: str, per_io: dict) -> dict:
    """Chrome trace-event JSON of the sampled call trees.

    Events are in simulated microseconds, one thread per sampled tree;
    each carries its host self-time in ``args``.  ``otherData`` holds the
    per-boundary aggregates of the measured window (``per_io``).
    """
    events = []

    def walk(node: Node, tid: int) -> None:
        t1 = node.t1 if node.t1 is not None else node.t0
        events.append({
            "name": node.boundary.name, "cat": node.boundary.group,
            "ph": "X", "pid": 1, "tid": tid,
            "ts": node.t0 * 1e6, "dur": (t1 - node.t0) * 1e6,
            "args": {"self_host_us": node.self_s * 1e6},
        })
        for child in node.children:
            walk(child, tid)

    for tid, root in enumerate(timer.trees):
        walk(root, tid)
    events.sort(key=lambda ev: ev["ts"])  # stable: parents stay first
    return {
        "traceEvents": events,
        "displayTimeUnit": "ns",
        "otherData": {
            "workload": workload,
            "time": "simulated us; args.self_host_us is host time",
            "sample_every": timer.sample_every,
            "trees": len(timer.trees),
            "boundaries": per_io,
        },
    }
