"""Every option and definition in ``src/repro`` has a caller outside the tests.

Two AST scans, matching calls and references by name (so a name two
definitions share counts a call to either as a call to both):

* a defaulted parameter of a public function or constructor that no call
  in ``src/``, ``benchmarks/`` or ``examples/`` passes, by keyword or by
  position, is an option no configuration selects: inline its default;
* a top-level definition in ``src/repro`` that nothing outside ``tests/``
  references is test-only (or dead) code: delete it, with the tests that
  test only it.

:data:`ALLOWED_PARAMETERS` and :data:`ALLOWED_DEFINITIONS` hold the known
exceptions, each with its reason; an entry the scan no longer reports
fails too, so the lists shrink with the code.
"""

import ast
import os
from collections import defaultdict
from typing import Dict, Iterator, List, Set, Tuple

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
PACKAGE = os.path.join("src", "repro")
CALLERS = ("src", "benchmarks", "examples")

_VERBS = "the verbs work-request API the rendezvous ablation and tests drive"
_KERNEL = "the kernel's event API keeps its scheduling arguments whole"

#: ``Function(param)`` -> why no caller outside the tests passes it.
ALLOWED_PARAMETERS: Dict[str, str] = {
    "QueuePair.post_send(payload)": _VERBS,
    "QueuePair.post_send(wr_id)": _VERBS,
    "QueuePair.post_send(trace)": _VERBS,
    "QueuePair.post_recv(mr)": _VERBS,
    "QueuePair.rdma_write(wr_id)": _VERBS,
    "QueuePair.rdma_read(wr_id)": _VERBS,
    "Event.succeed(priority)": _KERNEL,
    "Event.fail(priority)": _KERNEL,
    "Environment.timeout(value)": _KERNEL,
    "Environment.timeout_until(value)": _KERNEL,
    "Environment.process(priority)": _KERNEL,
    "Process.interrupt(cause)": "tests check an interrupt carries its cause",
    "main(argv)": "the CLI entry point; tests drive it with an argv list",
    "code_fingerprint(root)": "tests fingerprint a scratch tree",
    "make_run_record(include_series)":
        "tests check a record without its wait series",
    "run_fig5_cell(iodepth)": "tests run smoke cells at a campaign's depth",
    "run_fig5_cell(seed)": "tests run a smoke cell at a fixed seed",
    "make_paper_testbed(link)":
        "tests zero the propagation to check merged events",
    "InlineCrypto.__init__(accelerated)":
        "tests pick the crypto path explicitly",
    "ClientCache.__init__(ttl)": "tests expire entries with short TTLs",
    "NvmeArray.__init__(stripe_bytes)":
        "tests stripe at 1 MiB and reject a zero stripe",
    "FabricChannel.rma_read(offset)":
        "the fabric interface's window offset; tests address inside it",
    "FabricChannel.rma_write(offset)":
        "the fabric interface's window offset; tests address inside it",
    "TcpChannel.rma_read(offset)": "implements FabricChannel.rma_read",
    "TcpChannel.rma_write(offset)": "implements FabricChannel.rma_write",
    "RdmaChannel.rma_read(offset)": "implements FabricChannel.rma_read",
    "RdmaChannel.rma_write(offset)": "implements FabricChannel.rma_write",
    "diff_runs(tolerance)": "tests tighten it to show a drift is caught",
    "LogHistogram.__init__(base)": "tests check a bad base is rejected",
    "LogHistogram.__init__(min_value)": "tests check a bad floor is rejected",
    "LatencyRecorder.__init__(spill_threshold)":
        "tests spill to the histogram after a few samples",
    "Resource.__init__(capacity)":
        "kept for the perf harness's Resource.request boundary; tests "
        "exercise multi-slot grants",
    "Resource.__init__(name)": "tests name a resource in wait records",
    "Store.__init__(capacity)": "tests exercise a bounded store's puts",
    "SpanCollector.__init__(max_traces)": "tests cap the trace count",
    "SpanCollector.trace(node)": "tests place a root span on a node",
    "TimeSeries.time_weighted_mean(t0)": "tests average a sub-window",
    "TimeSeries.time_weighted_mean(t1)": "tests average a sub-window",
    "Sampler.__init__(capacity)": "tests shrink it to force window merging",
    "Sampler.littles_law(min_arrivals)":
        "tests check a station of a short run",
    "WaitTracer.__init__(max_records)":
        "tests cap the records to check the drop count",
    "IoUringEngine.submit(data)": "functional-mode tests move real bytes",
    "NvmfInitiator.submit(data)": "functional-mode tests move real bytes",
    "NvmfInitiator.__init__(data_mode)":
        "functional-mode tests move real bytes",
}

#: Top-level names in ``src/repro`` -> why only tests reference them.
ALLOWED_DEFINITIONS: Dict[str, str] = {
    "DuplexLink": "the perf harness wraps DuplexLink.transfer by name",
    "Resource": "the perf harness wraps Resource.request by name",
}


def _files(*dirs: str) -> Iterator[str]:
    for d in dirs:
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, d)):
            dirnames[:] = sorted(n for n in dirnames if n != "__pycache__")
            for name in sorted(filenames):
                if name.endswith(".py"):
                    yield os.path.join(dirpath, name)


def _parse(path: str) -> ast.Module:
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read(), path)


class _Uses(ast.NodeVisitor):
    """Calls (with what they pass) and other references, by name.

    A reference to a top-level name inside that name's own definition is
    not counted, so recursion and a class naming itself are no use.
    """

    def __init__(self) -> None:
        #: name -> [(positional count, keywords, ``*args``, ``**kwargs``)]
        self.calls: Dict[str, List[Tuple[int, Set[str], bool, bool]]] = \
            defaultdict(list)
        self.refs: Dict[str, int] = defaultdict(int)
        self._classes: List[ast.ClassDef] = []
        self._top = None
        self._callees: Set[int] = set()

    def scan(self, tree: ast.Module) -> None:
        self._callees.clear()  # node ids are unique only within one tree
        for node in tree.body:
            self._top = getattr(node, "name", None)
            self.visit(node)
        self._top = None

    def _ref(self, name: str) -> None:
        if name != self._top:
            self.refs[name] += 1

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._classes.append(node)
        self.generic_visit(node)
        self._classes.pop()

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        names: List[str] = []
        if isinstance(func, ast.Name):
            names = [func.id]
            if func.id == "cls" and self._classes:
                names = [self._classes[-1].name]
        elif isinstance(func, ast.Attribute):
            names = [func.attr]
            if (func.attr == "__init__" and isinstance(func.value, ast.Call)
                    and getattr(func.value.func, "id", None) == "super"
                    and self._classes):
                names = _base_names(self._classes[-1])
        self._callees.add(id(func))
        passed = (
            sum(1 for a in node.args if not isinstance(a, ast.Starred)),
            {k.arg for k in node.keywords if k.arg is not None},
            any(isinstance(a, ast.Starred) for a in node.args),
            any(k.arg is None for k in node.keywords),
        )
        for name in names:
            self.calls[name].append(passed)
            self._ref(name)
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        if id(node) not in self._callees:
            self._ref(node.id)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if id(node) not in self._callees:
            self._ref(node.attr)
        self.generic_visit(node)


def _base_names(cls: ast.ClassDef) -> List[str]:
    return [b.id if isinstance(b, ast.Name) else b.attr for b in cls.bases
            if isinstance(b, (ast.Name, ast.Attribute))]


def _uses(*dirs: str) -> _Uses:
    uses = _Uses()
    for path in _files(*dirs):
        uses.scan(_parse(path))
    return uses


def _package() -> List[ast.Module]:
    return [_parse(p) for p in _files(PACKAGE)]


def _functions(modules: List[ast.Module]):
    """``(qualname, callee names, def, drops self)`` per public function."""
    classes = {n.name: n for m in modules for n in m.body
               if isinstance(n, ast.ClassDef)}

    def has_init(cls: ast.ClassDef) -> bool:
        return any(isinstance(n, ast.FunctionDef) and n.name == "__init__"
                   for n in cls.body)

    def constructor_names(name: str) -> List[str]:
        names = [name]
        for sub in classes.values():
            if name in _base_names(sub) and not has_init(sub):
                names += constructor_names(sub.name)
        return names

    for module in modules:
        for node in module.body:
            if isinstance(node, ast.FunctionDef):
                yield node.name, [node.name], node, False
            elif isinstance(node, ast.ClassDef):
                for fn in node.body:
                    if not isinstance(fn, ast.FunctionDef):
                        continue
                    static = any(getattr(d, "id", None) == "staticmethod"
                                 for d in fn.decorator_list)
                    qualname = f"{node.name}.{fn.name}"
                    if fn.name == "__init__":
                        yield qualname, constructor_names(node.name), fn, True
                    else:
                        yield qualname, [fn.name], fn, not static


def unpassed_parameters() -> List[str]:
    """``Function(param)`` for every defaulted parameter no caller passes."""
    uses = _uses(*CALLERS)
    found = []
    for qualname, names, fn, drops_self in _functions(_package()):
        short = qualname.rsplit(".", 1)[-1]
        if short.startswith("_") and short != "__init__":
            continue
        args = fn.args
        positional = args.posonlyargs + args.args
        if drops_self:
            positional = positional[1:]
        first_default = len(positional) - len(args.defaults)
        defaulted = [(i, a.arg) for i, a in enumerate(positional)
                     if i >= first_default]
        defaulted += [(None, a.arg) for a, d in
                      zip(args.kwonlyargs, args.kw_defaults) if d is not None]
        calls = [c for name in names for c in uses.calls.get(name, ())]
        for index, arg in defaulted:
            if not any(arg in keywords or star or starstar
                       or (index is not None and n_pos > index)
                       for n_pos, keywords, star, starstar in calls):
                found.append(f"{qualname}({arg})")
    return found


def unused_definitions() -> List[str]:
    """Top-level names of ``src/repro`` nothing outside ``tests/`` uses."""
    uses = _uses(*CALLERS)
    found = []
    for module in _package():
        for node in module.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")
                    and not uses.refs.get(node.name)):
                found.append(node.name)
    return found


def test_every_default_is_passed_by_some_caller():
    found = unpassed_parameters()
    unexpected = sorted(set(found) - set(ALLOWED_PARAMETERS))
    assert not unexpected, (
        "defaulted parameters no caller in src/, benchmarks/ or examples/ "
        f"passes (inline the default): {unexpected}")
    stale = sorted(set(ALLOWED_PARAMETERS) - set(found))
    assert not stale, f"allowlisted parameters now passed or gone: {stale}"


def test_no_definition_is_used_only_by_tests():
    found = unused_definitions()
    unexpected = sorted(set(found) - set(ALLOWED_DEFINITIONS))
    assert not unexpected, (
        "top-level definitions nothing outside tests/ references "
        f"(delete them): {unexpected}")
    stale = sorted(set(ALLOWED_DEFINITIONS) - set(found))
    assert not stale, f"allowlisted definitions now used or gone: {stale}"
