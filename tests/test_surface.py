"""Every option, definition, method and attribute in ``src/repro`` has
a use outside the tests, and every field of a committed ledger record a
reader in ``src/repro``.

Four AST scans, matching uses by name (so a name two definitions share
counts a use of either as a use of both):

* a defaulted parameter of a public function or constructor that no call
  in ``src/``, ``benchmarks/`` or ``examples/`` passes, by keyword or by
  position, is an option no configuration selects: inline its default;
* a top-level definition in ``src/repro`` that nothing outside ``tests/``
  references is test-only (or dead) code: delete it, with the tests that
  test only it;
* so is a non-dunder method of a ``src/repro`` class (an AST visitor's
  ``visit_*`` hooks aside: ``ast.NodeVisitor`` calls them by name) whose
  name nothing outside ``tests/`` calls or loads;
* an attribute a ``src/repro`` method sets on ``self``, or a dataclass
  field, that no code in those directories reads is write-only state:
  delete it.  A read is an attribute load, a string constant naming it
  (the name a ``getattr``-family call is given, or a string in a literal
  tuple, list or set of names such as the SLO metrics; ``__slots__`` and
  ``__all__`` do not count) or, for a dataclass, an ``asdict``/``astuple``
  of itself, which dumps the dataclasses its fields name as well.

:data:`ALLOWED_PARAMETERS`, :data:`ALLOWED_DEFINITIONS`,
:data:`ALLOWED_METHODS` and :data:`ALLOWED_ATTRIBUTES` hold the known
exceptions, each with its reason; an entry the scan no longer reports
fails too, so the lists shrink with the code.
``test_scans_flag_a_planted_tree`` runs the four scans over a small tree
with one known offender each.

A fifth scan covers the records in ``benchmarks/ledger/``: each
top-level, ``traces`` and ``chaos`` key must be read somewhere in
``src/repro`` — a string constant used as a Load subscript, a ``.get``
argument, an ``in`` operand, or an element of a literal tuple, list or
set (``__slots__`` and ``__all__`` aside).  A key nothing reads is a fact
the record need not store: stop writing it and re-record.
``test_record_scan_flags_a_planted_ledger`` plants one unread key of
each kind.
"""

import ast
import json
import os
from collections import defaultdict
from typing import Dict, Iterator, List, Set, Tuple

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
PACKAGE = os.path.join("src", "repro")
CALLERS = ("src", "benchmarks", "examples")
LEDGER = os.path.join("benchmarks", "ledger")
#: The record sections whose own keys the record-reader scan covers.
RECORD_SECTIONS = ("traces", "chaos")

_VERBS = "the verbs work-request API the rendezvous ablation and tests drive"
_KERNEL = "the kernel's event API keeps its scheduling arguments whole"
_CQE = "a verbs completion-queue entry carries it; tests match CQEs on it"

#: ``Function(param)`` -> why no caller outside the tests passes it.
ALLOWED_PARAMETERS: Dict[str, str] = {
    "QueuePair.post_send(payload)": _VERBS,
    "QueuePair.post_send(wr_id)": _VERBS,
    "QueuePair.post_recv(mr)": _VERBS,
    "QueuePair.rdma_write(wr_id)": _VERBS,
    "QueuePair.rdma_read(wr_id)": _VERBS,
    "Event.succeed(priority)": _KERNEL,
    "Event.fail(priority)": _KERNEL,
    "Environment.timeout(value)": _KERNEL,
    "Environment.timeout_until(value)": _KERNEL,
    "Environment.process(priority)": _KERNEL,
}

#: Top-level names in ``src/repro`` -> why only tests reference them.
ALLOWED_DEFINITIONS: Dict[str, str] = {
    "DuplexLink": "the perf harness wraps DuplexLink.transfer by name",
    "Resource": "the perf harness wraps Resource.request by name",
}

#: ``Class.method`` -> why only tests call it.
ALLOWED_METHODS: Dict[str, str] = {
    "Event.processed": _KERNEL,
    "Process.interrupt": _KERNEL,
    "CompletionQueue.poll": _VERBS,
    "Transaction.abort":
        "the DAOS transaction API: a staged transaction ends in commit "
        "or abort",
    "Ros2Session.close_session":
        "the client end of the CloseSession method the ROS2 service "
        "registers",
}

#: ``Class.attribute`` -> why nothing outside the tests reads it.
ALLOWED_ATTRIBUTES: Dict[str, str] = {
    "Completion.wr_id": _CQE,
    "Completion.opcode": _CQE,
    "MemoryRegion.lkey":
        "a verbs MR's local key, drawn before its rkey from one counter, "
        "so the rkeys the examples print keep their numbers",
}


def _files(root: str, *dirs: str) -> Iterator[str]:
    for d in dirs:
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, d)):
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


def _uses(root: str) -> _Uses:
    uses = _Uses()
    for path in _files(root, *CALLERS):
        uses.scan(_parse(path))
    return uses


def _package(root: str) -> List[ast.Module]:
    return [_parse(p) for p in _files(root, PACKAGE)]


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


def unpassed_parameters(root: str = ROOT) -> List[str]:
    """``Function(param)`` for every defaulted parameter no caller passes."""
    uses = _uses(root)
    found = []
    for qualname, names, fn, drops_self in _functions(_package(root)):
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


def unused_definitions(root: str = ROOT) -> List[str]:
    """Top-level names of ``src/repro`` nothing outside ``tests/`` uses."""
    uses = _uses(root)
    found = []
    for module in _package(root):
        for node in module.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")
                    and not uses.refs.get(node.name)):
                found.append(node.name)
    return found


def uncalled_methods(root: str = ROOT) -> List[str]:
    """``Class.method`` for every non-dunder method nothing outside
    ``tests/`` uses, ``visit_*`` hooks aside."""
    uses = _uses(root)
    found = []
    for module in _package(root):
        for cls in ast.walk(module):
            if not isinstance(cls, ast.ClassDef):
                continue
            for fn in cls.body:
                name = getattr(fn, "name", "")
                if (isinstance(fn, ast.FunctionDef)
                        and not (name.startswith("__")
                                 and name.endswith("__"))
                        and not name.startswith("visit_")
                        and not uses.refs.get(name)):
                    found.append(f"{cls.name}.{name}")
    return found


def _is_dataclass(cls: ast.ClassDef) -> bool:
    return any(getattr(d, "id", None) == "dataclass"
               or getattr(getattr(d, "func", None), "id", None) == "dataclass"
               for d in cls.decorator_list)


def _dumped(classes: Dict[str, ast.ClassDef]) -> Set[str]:
    """Dataclasses an ``asdict``/``astuple`` of their own, or of a
    dataclass whose fields name them, dumps whole."""
    todo = [name for name, cls in classes.items() if _is_dataclass(cls)
            and any(isinstance(n, ast.Call)
                    and getattr(n.func, "id", None) in ("asdict", "astuple")
                    for n in ast.walk(cls))]
    dumped: Set[str] = set()
    while todo:
        name = todo.pop()
        if name in dumped:
            continue
        dumped.add(name)
        for node in classes[name].body:
            if isinstance(node, ast.AnnAssign):
                todo += [n.id for n in ast.walk(node.annotation)
                         if isinstance(n, ast.Name) and n.id in classes
                         and _is_dataclass(classes[n.id])]
    return dumped


def _attributes(modules: List[ast.Module]) -> Dict[str, str]:
    """``Class.attr`` -> ``attr`` for every attribute a method sets on
    ``self`` and every field of a dataclass not dumped whole."""
    classes = {n.name: n for m in modules for n in ast.walk(m)
               if isinstance(n, ast.ClassDef)}
    dumped = _dumped(classes)
    found: Dict[str, str] = {}
    for cls in classes.values():
        if _is_dataclass(cls) and cls.name not in dumped:
            for node in cls.body:
                if (isinstance(node, ast.AnnAssign)
                        and isinstance(node.target, ast.Name)):
                    found[f"{cls.name}.{node.target.id}"] = node.target.id
        for fn in cls.body:
            if not isinstance(fn, ast.FunctionDef):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.Assign):
                    targets = node.targets
                elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                    targets = [node.target]
                else:
                    continue
                for target in targets:
                    for t in ast.walk(target):
                        if (isinstance(t, ast.Attribute)
                                and isinstance(t.value, ast.Name)
                                and t.value.id == "self"
                                and not t.attr.startswith("__")):
                            found[f"{cls.name}.{t.attr}"] = t.attr
    return found


#: Builtins whose second argument names an attribute.
_ATTR_FUNCS = ("getattr", "hasattr", "setattr", "delattr")


def _declared(tree: ast.Module) -> Set[int]:
    """Node ids of the values assigned to ``__slots__`` and ``__all__``."""
    return {id(node.value) for node in ast.walk(tree)
            if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) in ("__slots__", "__all__")
                for t in node.targets)}


def _strings(nodes: List[ast.expr]) -> Set[str]:
    return {n.value for n in nodes
            if isinstance(n, ast.Constant) and isinstance(n.value, str)}


def _reads(root: str) -> Set[str]:
    """Attribute names the callers read: attribute loads, the name a
    ``getattr``-family call is given, and the strings of a literal tuple,
    list or set (tables of names, e.g. the SLO metrics) outside
    ``__slots__`` and ``__all__``."""
    names: Set[str] = set()
    for path in _files(root, *CALLERS):
        tree = _parse(path)
        declared = _declared(tree)
        for node in ast.walk(tree):
            named: List[ast.expr] = []
            if isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                              ast.Load):
                names.add(node.attr)
            elif (isinstance(node, ast.Call)
                  and getattr(node.func, "id", None) in _ATTR_FUNCS
                  and len(node.args) > 1):
                named = [node.args[1]]
            elif (isinstance(node, (ast.Tuple, ast.List, ast.Set))
                  and id(node) not in declared):
                named = node.elts
            names.update(_strings(named))
    return names


def unread_attributes(root: str = ROOT) -> List[str]:
    """``Class.attr`` for every attribute or dataclass field nothing reads."""
    reads = _reads(root)
    return sorted(qualname for qualname, attr
                  in _attributes(_package(root)).items()
                  if attr not in reads)


def _record_keys(root: str) -> Set[str]:
    """Every top-level, ``traces.`` and ``chaos.`` key of the committed
    ledger's records."""
    keys: Set[str] = set()
    ledger = os.path.join(root, LEDGER)
    for name in sorted(os.listdir(ledger)):
        if name.endswith(".json"):
            with open(os.path.join(ledger, name), encoding="utf-8") as fh:
                record = json.load(fh)
            keys.update(record)
            for section in RECORD_SECTIONS:
                keys.update(f"{section}.{key}"
                            for key in record.get(section, {}))
    return keys


def _key_reads(root: str) -> Set[str]:
    """Strings ``src/repro`` reads a record by: a Load subscript, a
    ``.get`` argument, an ``in`` operand, or an element of a literal
    tuple, list or set outside ``__slots__`` and ``__all__``."""
    names: Set[str] = set()
    for path in _files(root, PACKAGE):
        tree = _parse(path)
        declared = _declared(tree)
        for node in ast.walk(tree):
            named: List[ast.expr] = []
            if isinstance(node, ast.Subscript) and isinstance(node.ctx,
                                                              ast.Load):
                named = [node.slice]
            elif (isinstance(node, ast.Call)
                  and getattr(node.func, "attr", None) == "get"
                  and node.args):
                named = [node.args[0]]
            elif (isinstance(node, ast.Compare)
                  and isinstance(node.ops[0], (ast.In, ast.NotIn))):
                named = [node.left]
            elif (isinstance(node, (ast.Tuple, ast.List, ast.Set))
                  and id(node) not in declared):
                named = node.elts
            names.update(_strings(named))
    return names


def unread_record_keys(root: str = ROOT) -> List[str]:
    """Record keys of the committed ledger nothing in ``src/repro`` reads."""
    reads = _key_reads(root)
    return sorted(key for key in _record_keys(root)
                  if key.rpartition(".")[2] not in reads)


def _check(found: List[str], allowed: Dict[str, str], what: str) -> None:
    unexpected = sorted(set(found) - set(allowed))
    assert not unexpected, f"{what}: {unexpected}"
    stale = sorted(set(allowed) - set(found))
    assert not stale, f"allowlisted entries no longer reported: {stale}"


def test_every_default_is_passed_by_some_caller():
    _check(unpassed_parameters(), ALLOWED_PARAMETERS,
           "defaulted parameters no caller in src/, benchmarks/ or "
           "examples/ passes (inline the default)")


def test_no_definition_is_used_only_by_tests():
    _check(unused_definitions(), ALLOWED_DEFINITIONS,
           "top-level definitions nothing outside tests/ references "
           "(delete them)")


def test_no_method_is_called_only_by_tests():
    _check(uncalled_methods(), ALLOWED_METHODS,
           "methods nothing outside tests/ calls (delete them)")


def test_every_attribute_is_read_outside_the_tests():
    _check(unread_attributes(), ALLOWED_ATTRIBUTES,
           "attributes and dataclass fields nothing in src/, benchmarks/ "
           "or examples/ reads (delete them)")


def test_every_record_key_is_read():
    assert unread_record_keys() == [], (
        "committed ledger keys nothing in src/repro reads (stop writing "
        "them and re-record)")


_PLANTED = {
    "src/repro/planted.py": '''
import ast
from dataclasses import asdict, dataclass
from typing import List


def used(a, b=1, knob=2):
    return a + b + knob


def only_tested():
    return 0


class Box:
    def __init__(self):
        self.shown = 0
        self.looked_up = 0
        self.tabled = 0
        self.write_only = 0

    def bump(self):
        self.write_only += 1
        return self.shown

    def only_tested_method(self):
        return self.shown


class Finder(ast.NodeVisitor):
    def visit_Name(self, node):
        return node


@dataclass
class Spec:
    name: str
    unread_field: int = 0


@dataclass
class Part:
    size: int = 0


@dataclass
class Report:
    parts: List[Part]
    total: int = 0

    def to_dict(self):
        return asdict(self)
''',
    "benchmarks/drive.py": '''
from repro.planted import Box, Finder, Part, Report, Spec, used

METRICS = ("tabled",)
box = Box()
Finder().visit(None)
print(used(1, b=2), box.bump(), getattr(box, "looked_up"))
print(Spec("x").name, Report([Part()]).to_dict())
''',
    "tests/test_planted.py": '''
from repro.planted import Box, Spec, only_tested, used

assert used(1, knob=3) and only_tested() == 0
assert Box().only_tested_method() == 0
assert Box().write_only == 0 and Spec("z").unread_field == 0
''',
}


def test_scans_flag_a_planted_tree(tmp_path):
    """Each scan flags its planted offenders and nothing else: an attribute
    read only through a ``getattr`` string or named only in a table of
    names, and the fields of a dataclass an ``asdict`` dumps (through
    another one's field), count as read; an AST visitor's ``visit_*``
    hook counts as called."""
    for rel, text in _PLANTED.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    root = str(tmp_path)
    assert unpassed_parameters(root) == ["used(knob)"]
    assert unused_definitions(root) == ["only_tested"]
    assert uncalled_methods(root) == ["Box.only_tested_method"]
    assert unread_attributes(root) == ["Box.write_only", "Spec.unread_field"]


def test_record_scan_flags_a_planted_ledger(tmp_path):
    """A key read by subscript, ``.get``, ``in`` or a table of names
    counts; one only written (a dict literal's key) does not."""
    reader = tmp_path / "src" / "repro" / "reader.py"
    reader.parent.mkdir(parents=True)
    reader.write_text(
        'KEYS = ("label",)\n'
        'def read(r):\n'
        '    return (r["metrics"], r.get("traces", {}).get("count"),\n'
        '            "blame" in r, r["chaos"]["ok"], KEYS)\n'
        'def write():\n'
        '    return {"unread": 0, "traces": {"unread_trace": 0}}\n')
    ledger = tmp_path / LEDGER
    ledger.mkdir(parents=True)
    (ledger / "run.json").write_text(json.dumps({
        "metrics": {}, "label": "", "blame": {}, "unread": 0,
        "traces": {"count": 1, "unread_trace": 0},
        "chaos": {"ok": True, "unread_chaos": 0}}))
    assert unread_record_keys(str(tmp_path)) == [
        "chaos.unread_chaos", "traces.unread_trace", "unread"]
