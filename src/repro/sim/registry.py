"""The component registry: the one list of what a simulated system is.

Components join their environment's registry (``env.components``) when
they are built.  A component's registry name is the one name its
resource goes by everywhere: the station name the wait tracer books it
under (``nvme.ssd0``, ``net.dpu.tx``, ``dpu.arm_rx``), which is also its
fault target, telemetry probe prefix and span node.  Where two
components share a blame bucket on purpose, the registry records it:
the BlueField-3's ``tcp_stack`` section is found as ``dpu.tcp_stack``,
while its own name, the one it books under, is its bucket
``dpu.arm_rx``.

The telemetry snapshot and probes, the doctor's stations and the fault
injector's targets are read-only views over it: observing a run never
adds a component.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, List, NamedTuple, Optional

__all__ = ["Component", "Registry", "STATION_KINDS"]

#: Kinds whose components are queueing stations with a ``busy_time``.
STATION_KINDS = ("cpu", "section", "pipe", "nvme", "xstream")


class Component(NamedTuple):
    """One component: ``kind`` is ``node``, ``cpu``, ``section``,
    ``pipe``, ``nvme``, ``engine``, ``target``, ``xstream``, ``qp`` or
    ``tcp``; ``bucket`` is its blame bucket; ``capacity`` its servers."""

    name: str
    kind: str
    obj: Any
    node: Optional[str]
    bucket: str
    capacity: int


class Registry:
    """Components in registration order, looked up by name or kind.

    Several components may share a name: every session's channel is
    the fault target ``{node}.qp``.
    """

    __slots__ = ("_all", "_by_name", "_watchers")

    def __init__(self) -> None:
        self._all: List[Component] = []
        self._by_name: Dict[str, List[Component]] = {}
        self._watchers: List[Callable[[Component], None]] = []

    def add(self, name: str, kind: str, obj: Any, node: Optional[str] = None,
            bucket: Optional[str] = None, capacity: int = 1) -> None:
        comp = Component(name, kind, obj, node, bucket or name, capacity)
        self._all.append(comp)
        self._by_name.setdefault(name, []).append(comp)
        for watch in self._watchers:
            watch(comp)

    def subscribe(self, watch: Callable[[Component], None]) -> None:
        """Call ``watch`` on every component, present and future."""
        for comp in self._all:
            watch(comp)
        self._watchers.append(watch)

    def __iter__(self) -> Iterator[Component]:
        return iter(self._all)

    def of_kind(self, *kinds: str) -> Iterator[Component]:
        return (c for c in self._all if c.kind in kinds)

    def get(self, name: str) -> List[Component]:
        return self._by_name.get(name, [])

    def names(self, kind: str) -> List[str]:
        """One kind's distinct names, in registration order."""
        return list(dict.fromkeys(c.name for c in self._all if c.kind == kind))
