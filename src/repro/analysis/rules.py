"""The ``simlint`` rule set: determinism invariants as AST checks.

Each rule encodes one way this codebase has learned determinism can rot
(see DESIGN §13 for the before/after catalogue):

* ``SIM001`` — wall-clock/entropy (``time.time``, ``random.*``,
  ``uuid``, ``os.urandom``, ``secrets``, ``datetime.now``) anywhere
  except the seeded-stream home ``sim/rng.py``.  Simulated time comes
  from ``env.now``; randomness from ``RngStreams``.
* ``SIM002`` — iterating a ``set``/``frozenset`` (always), or
  ``dict.keys/values/items`` whose loop body feeds an event-scheduling
  or serialization sink, without a ``sorted()`` wrapper.
* ``SIM003`` — calling a tracer/telemetry hook attribute without the
  zero-cost ``is not None`` guard the kernel's hot paths rely on.
* ``SIM004`` — ``@dataclass`` without ``slots=True`` in a hot-path
  package (``sim/ net/ daos/ hw/ storage/ core/``).
* ``SIM005`` — accumulating float durations with builtin ``sum()``;
  ``math.fsum`` is exactly rounded and therefore order-independent
  over a multiset, which the race sanitizer depends on.
* ``SIM006`` — reading a volatile record field (``created``,
  ``git_sha``, ``code_fingerprint``, ``run_id``) inside content-hash /
  run-ID derivation code.

``SIM007``–``SIM014`` are structure gates (:data:`_GATES`): each keeps
one design decision in the one module that owns it, as DESIGN §13's
table lists.  A scoped rule covers the modules it names under
``src/repro/``; a file outside the package tree (a fixture snippet) is
covered by every rule.

The visitors are heuristic by design: precise enough that the clean
tree carries only justified baseline entries, simple enough to audit.
"""

from __future__ import annotations

import ast
import re
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.model import RULES, Finding

__all__ = ["check_source", "HOT_PATH_DIRS", "HOOK_ATTRS"]

#: Packages whose object churn / per-event costs dominate runtime; a
#: dataclass here without ``slots=True`` pays dict-per-instance.
HOT_PATH_DIRS = ("sim", "net", "daos", "hw", "storage", "core")

#: Attribute names the codebase uses for optional observer hooks; the
#: idiom is ``hook = self._x`` / ``if hook is not None: hook.f(...)``.
HOOK_ATTRS = frozenset({"_wait_tracer", "_stats", "_faults"})

#: ``module.attr`` call targets that read the host clock or entropy.
_SIM001_CALLS = frozenset({
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.process_time",
    "os.urandom",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})

#: Modules where *any* call is a SIM001 hit (every public entry point
#: is an entropy source or derived from one).
_SIM001_MODULES = frozenset({"random", "uuid", "secrets"})

#: Call/attribute names that make a loop an event-scheduling or
#: serialization sink for SIM002.
_SIM002_SINKS = frozenset({
    "schedule", "process", "timeout", "timeout_until", "succeed",
    "heappush", "put", "write", "dump", "dumps", "print",
})

#: Identifier fragments that mark a summed expression as a float
#: duration/latency accumulation (SIM005).
_SIM005_FLOATISH = re.compile(
    r"(dur|time|wait|service|latency|busy|delay|wall|elapsed|delta)",
    re.IGNORECASE)

#: Record fields excluded from content hashes; reading them inside
#: hash/ID derivation makes IDs non-reproducible (SIM006).
_SIM006_VOLATILE = frozenset({
    "created", "git_sha", "code_fingerprint", "run_id"})

#: Function names that constitute a hash/ID-derivation context.
_SIM006_CONTEXT = re.compile(
    r"(hash|fingerprint|run_id|slug|cache_key|content)", re.IGNORECASE)

#: Hashing calls whose arguments are a SIM006 context regardless of the
#: enclosing function's name.
_SIM006_CALLS = frozenset({
    "config_hash", "content_hash", "sha256", "sha1", "md5", "blake2b"})


def _dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _package_path(relpath: str) -> Optional[str]:
    """``sim/queues.py`` for a file under ``src/repro/``, else None."""
    norm = relpath.replace("\\", "/")
    marker = "src/repro/"
    idx = norm.find(marker)
    return None if idx < 0 else norm[idx + len(marker):]


def _covers(module: Optional[str], *prefixes: str) -> bool:
    """Whether a rule scoped to ``prefixes`` covers ``module``; a file
    outside the package tree is covered, so the fixtures exercise it."""
    return module is None or module.startswith(prefixes)


def _is_hot_path(relpath: str) -> bool:
    """Whether SIM004 applies to this file: a :data:`HOT_PATH_DIRS`
    package, or a file outside the package tree."""
    return _covers(_package_path(relpath),
                   *(f"{pkg}/" for pkg in HOT_PATH_DIRS))


def _is_rng_module(relpath: str) -> bool:
    return relpath.replace("\\", "/").endswith("sim/rng.py")


class _Imports:
    """Resolved import table: local name -> canonical dotted target."""

    def __init__(self) -> None:
        self.modules: Dict[str, str] = {}
        self.names: Dict[str, str] = {}

    def scan(self, tree: ast.AST) -> None:
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.modules[alias.asname or alias.name.split(".")[0]] = \
                        alias.name
            elif isinstance(node, ast.ImportFrom) and node.module \
                    and node.level == 0:
                for alias in node.names:
                    self.names[alias.asname or alias.name] = \
                        f"{node.module}.{alias.name}"

    def resolve_call(self, func: ast.AST) -> Optional[str]:
        """Canonical dotted path of a call target, if resolvable."""
        dotted = _dotted(func)
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        if head in self.modules:
            full = self.modules[head] + (("." + rest) if rest else "")
            return full
        if head in self.names:
            return self.names[head] + (("." + rest) if rest else "")
        return dotted


class _Checker(ast.NodeVisitor):
    def __init__(self, relpath: str, source_lines: List[str]) -> None:
        self.relpath = relpath
        self.lines = source_lines
        self.findings: List[Finding] = []
        self.imports = _Imports()
        self.parents: Dict[int, ast.AST] = {}
        self._func_stack: List[ast.AST] = []

    # -- plumbing ----------------------------------------------------

    def run(self, tree: ast.AST) -> List[Finding]:
        self.imports.scan(tree)
        for node in ast.walk(tree):
            for child in ast.iter_child_nodes(node):
                self.parents[id(child)] = node
        self.visit(tree)
        return self.findings

    def _emit(self, node: ast.AST, rule: str, message: str,
              hint: str) -> None:
        line = getattr(node, "lineno", 1)
        text = self.lines[line - 1].strip() if line <= len(self.lines) else ""
        self.findings.append(Finding(
            rule=rule, path=self.relpath, line=line,
            col=getattr(node, "col_offset", 0),
            message=message, hint=hint, line_text=text))

    def _ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        cur = self.parents.get(id(node))
        while cur is not None:
            yield cur
            cur = self.parents.get(id(cur))

    # -- traversal ---------------------------------------------------

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._func_stack.append(node)
        self.generic_visit(node)
        self._func_stack.pop()

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._func_stack.append(node)
        self.generic_visit(node)
        self._func_stack.pop()

    def visit_Call(self, node: ast.Call) -> None:
        self._sim001(node)
        self._sim003(node)
        self._sim005(node)
        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        self._sim002(node.iter, node)
        self.generic_visit(node)

    def visit_comprehension(self, node: ast.comprehension) -> None:
        self._sim002(node.iter, None)
        self.generic_visit(node)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._sim004(node)
        self.generic_visit(node)

    def visit_Subscript(self, node: ast.Subscript) -> None:
        self._sim006_access(node, node.slice)
        self.generic_visit(node)

    # -- SIM001 ------------------------------------------------------

    def _sim001(self, node: ast.Call) -> None:
        if _is_rng_module(self.relpath):
            return
        target = self.imports.resolve_call(node.func)
        if target is None:
            return
        head = target.split(".", 1)[0]
        if target in _SIM001_CALLS or head in _SIM001_MODULES:
            self._emit(
                node, "SIM001",
                f"call to {target}() reads the host clock or entropy "
                "inside simulation code",
                "derive time from env.now and randomness from seeded "
                "streams (repro.sim.rng.RngStreams); wall-clock "
                "measurement code belongs in the perf harness with a "
                "baseline justification")

    # -- SIM002 ------------------------------------------------------

    def _sim002(self, iter_node: ast.expr, loop: Optional[ast.For]) -> None:
        unordered, what = self._unordered_iterable(iter_node)
        if not unordered:
            return
        if what == "dict-view":
            # dict views are insertion-ordered; only flag when the loop
            # body feeds a scheduling/serialization sink, where
            # insertion-order coupling has bitten before.
            if loop is None or not self._has_sink(loop):
                return
        self._emit(
            iter_node, "SIM002",
            f"iteration over an unordered {what} feeds event scheduling "
            "or output serialization",
            "wrap the iterable in sorted(...) with an explicit key so "
            "the visit order is part of the program, not the hash seed")

    def _unordered_iterable(
            self, node: ast.expr) -> Tuple[bool, str]:
        if isinstance(node, ast.Set) or isinstance(node, ast.SetComp):
            return True, "set"
        if isinstance(node, ast.Call):
            name = _dotted(node.func)
            if name in ("set", "frozenset"):
                return True, name or "set"
            if isinstance(node.func, ast.Attribute) \
                    and node.func.attr in ("keys", "values", "items") \
                    and not node.args:
                return True, "dict-view"
        return False, ""

    def _has_sink(self, loop: ast.For) -> bool:
        for stmt in loop.body:
            for sub in ast.walk(stmt):
                if isinstance(sub, ast.Call):
                    name = _dotted(sub.func) or ""
                    leaf = name.rsplit(".", 1)[-1]
                    if leaf in _SIM002_SINKS:
                        return True
        return False

    # -- SIM003 ------------------------------------------------------

    def _hook_expr(self, node: ast.Call) -> Optional[str]:
        """Dotted path of the optional hook a call dereferences."""
        func = node.func
        # self._hook(...)  — calling the hook itself
        if isinstance(func, ast.Attribute) and func.attr in HOOK_ATTRS:
            return _dotted(func)
        # self._hook.method(...) — calling through the hook
        if isinstance(func, ast.Attribute) \
                and isinstance(func.value, ast.Attribute) \
                and func.value.attr in HOOK_ATTRS:
            return _dotted(func.value)
        # alias.method(...) / alias(...) where ``alias = self._hook``
        aliases = self._local_hook_aliases()
        if isinstance(func, ast.Attribute) \
                and isinstance(func.value, ast.Name) \
                and func.value.id in aliases:
            return func.value.id
        if isinstance(func, ast.Name) and func.id in aliases:
            return func.id
        return None

    def _local_hook_aliases(self) -> Set[str]:
        if not self._func_stack:
            return set()
        aliases: Set[str] = set()
        for stmt in ast.walk(self._func_stack[-1]):
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                    and isinstance(stmt.targets[0], ast.Name) \
                    and isinstance(stmt.value, ast.Attribute) \
                    and stmt.value.attr in HOOK_ATTRS:
                aliases.add(stmt.targets[0].id)
        return aliases

    def _sim003(self, node: ast.Call) -> None:
        hook = self._hook_expr(node)
        if hook is None:
            return
        if self._is_guarded(node, hook):
            return
        self._emit(
            node, "SIM003",
            f"hook {hook} invoked without an 'is not None' guard",
            "load the hook once and guard it — "
            "`h = self._hook` / `if h is not None: h.f(...)` — so the "
            "disabled case costs one attribute load and no call")

    def _guard_matches(self, test: ast.expr, hook: str) -> Optional[bool]:
        """True if ``test`` guards ``hook`` non-None in the *body*,
        False if in the *orelse*, None if unrelated."""
        # `x is not None` / `x is None`
        if isinstance(test, ast.Compare) and len(test.ops) == 1 \
                and isinstance(test.comparators[0], ast.Constant) \
                and test.comparators[0].value is None \
                and _dotted(test.left) == hook:
            if isinstance(test.ops[0], ast.IsNot):
                return True
            if isinstance(test.ops[0], ast.Is):
                return False
        # truthiness: `if x:` / `if not x:`
        if _dotted(test) == hook:
            return True
        if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not) \
                and _dotted(test.operand) == hook:
            return False
        # `x is not None and ...` — first clause guards the rest
        if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And):
            for clause in test.values:
                verdict = self._guard_matches(clause, hook)
                if verdict is not None:
                    return verdict
        return None

    def _is_guarded(self, node: ast.Call, hook: str) -> bool:
        # Lexical guard: an ancestor If/IfExp whose test covers us.
        child: ast.AST = node
        for anc in self._ancestors(node):
            if isinstance(anc, (ast.If, ast.IfExp)):
                verdict = self._guard_matches(anc.test, hook)
                if verdict is not None:
                    in_body = any(child is n or child in ast.walk(n)
                                  for n in (anc.body if isinstance(
                                      anc.body, list) else [anc.body]))
                    if verdict == in_body:
                        return True
            if isinstance(anc, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # Early-exit guard: `if hook is None: return` or an
                # `assert hook is not None` earlier in the function.
                if self._early_guard(anc, hook, node):
                    return True
                break
            child = anc
        return False

    def _early_guard(self, func: ast.AST, hook: str,
                     node: ast.Call) -> bool:
        lineno = getattr(node, "lineno", 0)
        body = getattr(func, "body", [])
        for stmt in body:
            if getattr(stmt, "lineno", 10**9) >= lineno:
                break
            if isinstance(stmt, ast.If) \
                    and self._guard_matches(stmt.test, hook) is False \
                    and stmt.body \
                    and isinstance(stmt.body[-1],
                                   (ast.Return, ast.Raise, ast.Continue)):
                return True
            if isinstance(stmt, ast.Assert) \
                    and self._guard_matches(stmt.test, hook) is True:
                return True
        return False

    # -- SIM004 ------------------------------------------------------

    def _sim004(self, node: ast.ClassDef) -> None:
        if not _is_hot_path(self.relpath):
            return
        deco = self._dataclass_decorator(node)
        if deco is None:
            return
        if node.bases:
            return  # slots + dataclass inheritance is its own audit
        if any(isinstance(s, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__slots__"
                for t in s.targets) for s in node.body):
            return
        if isinstance(deco, ast.Call) and any(
                kw.arg == "slots" for kw in deco.keywords):
            return
        self._emit(
            node, "SIM004",
            f"dataclass {node.name} on a hot path has no slots=True",
            "add @dataclass(slots=True): per-instance __dict__ costs "
            "memory and attribute-lookup time on event-rate paths")

    def _dataclass_decorator(
            self, node: ast.ClassDef) -> Optional[ast.expr]:
        for deco in node.decorator_list:
            target = deco.func if isinstance(deco, ast.Call) else deco
            name = _dotted(target) or ""
            if name in ("dataclass", "dataclasses.dataclass"):
                return deco
        return None

    # -- SIM005 ------------------------------------------------------

    def _sim005(self, node: ast.Call) -> None:
        if not (isinstance(node.func, ast.Name)
                and node.func.id == "sum" and node.args):
            return
        arg = node.args[0]
        # Counting idiom `sum(1 for ...)` is exact — ignore it.
        if isinstance(arg, ast.GeneratorExp) \
                and isinstance(arg.elt, ast.Constant) \
                and isinstance(arg.elt.value, int):
            return
        if not self._mentions_floatish(arg):
            return
        self._emit(
            node, "SIM005",
            "builtin sum() accumulates float durations in iteration "
            "order; the result depends on the schedule",
            "use math.fsum(...): exactly rounded, therefore "
            "order-independent over the same multiset of values")

    def _mentions_floatish(self, node: ast.expr) -> bool:
        for sub in ast.walk(node):
            ident: Optional[str] = None
            if isinstance(sub, ast.Name):
                ident = sub.id
            elif isinstance(sub, ast.Attribute):
                ident = sub.attr
            elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                ident = sub.value
            if ident is not None and _SIM005_FLOATISH.search(ident):
                return True
        return False

    # -- SIM006 ------------------------------------------------------

    def _in_hash_context(self, node: ast.AST) -> bool:
        for anc in self._ancestors(node):
            if isinstance(anc, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and _SIM006_CONTEXT.search(anc.name):
                return True
            if isinstance(anc, ast.Call):
                name = _dotted(anc.func) or ""
                if name.rsplit(".", 1)[-1] in _SIM006_CALLS:
                    return True
        return False

    def _sim006_access(self, node: ast.AST, key: ast.expr) -> None:
        if not (isinstance(key, ast.Constant)
                and key.value in _SIM006_VOLATILE):
            return
        if not self._in_hash_context(node):
            return
        self._emit(
            node, "SIM006",
            f"volatile field {key.value!r} read inside hash/run-ID "
            "derivation",
            "volatile stamps (created, git_sha, code_fingerprint, "
            "run_id) must not feed content hashes — go through "
            "strip_volatile() or drop the field")

def _sim006_get_calls(checker: _Checker, tree: ast.AST) -> None:
    """Second pass: ``record.get("created")`` inside hash contexts."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute) \
                and node.func.attr == "get" and node.args:
            checker._sim006_access(node, node.args[0])


# -- SIM007-SIM014: structure gates -----------------------------------------

def _leaf(node: ast.AST) -> str:
    """``b`` for ``x.a.b`` or a bare name ``b``; else ``""``."""
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else ""


def _none_test(node: ast.AST) -> Tuple[str, Optional[type]]:
    """(leaf of ``x``, ``ast.Is``/``ast.IsNot``) for ``x is [not] None``."""
    if isinstance(node, ast.Compare) and len(node.ops) == 1 \
            and isinstance(node.ops[0], (ast.Is, ast.IsNot)) \
            and isinstance(node.comparators[0], ast.Constant) \
            and node.comparators[0].value is None:
        return _leaf(node.left), type(node.ops[0])
    return "", None


def _identifiers(node: ast.AST) -> List[str]:
    """The names a node binds, reads or imports, including a string
    constant that is an identifier (``__slots__`` entries, ``getattr``
    names)."""
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.alias):
        return [*node.name.split("."), node.asname or ""]
    if isinstance(node, ast.ImportFrom):
        return (node.module or "").split(".")
    if isinstance(node, ast.arg):
        return [node.arg]
    if isinstance(node, ast.Constant) and isinstance(node.value, str) \
            and node.value.isidentifier():
        return [node.value]
    return []


def _station_reservation(node: ast.AST, module: Optional[str]) -> bool:
    if module == "sim/queues.py":
        return False
    if isinstance(node, ast.Attribute):
        return node.attr == "_free_at"
    return isinstance(node, ast.Call) and _leaf(node.func) == "record" \
        and isinstance(node.func, ast.Attribute) \
        and _leaf(node.func.value) == "_stats"


def _private_server(node: ast.AST, module: Optional[str]) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "_server" \
        and module not in ("sim/queues.py", "hw/nvme.py")


def _slower_path(node: ast.AST, module: Optional[str]) -> bool:
    name, op = _none_test(node)
    if op is ast.Is:
        return ((name.endswith("trace") or name == "span")
                and _covers(module, "net/", "core/", "daos/", "storage/")) \
            or (name in ("_wait_tracer", "_stats")
                and _covers(module, "sim/queues.py"))
    if not _covers(module, "hw/nvme.py"):
        return False
    if isinstance(node, ast.BoolOp) and isinstance(node.op, ast.Or):
        return any(_none_test(v) == ("_faults", ast.IsNot)
                   for v in node.values[:-1])
    return isinstance(node, ast.Call) and (
        _leaf(node.func) == "all_of"
        or (_leaf(node.func) == "process"
            and isinstance(node.func, ast.Attribute)
            and _leaf(node.func.value) == "env"))


def _station_recorder(node: ast.AST, module: Optional[str]) -> bool:
    names = _identifiers(node)
    if "attach_stats" in names and not isinstance(node, ast.Constant):
        return True
    return _covers(module, "sim/queues.py", "hw/nvme.py", "daos/rpc.py") \
        and ("_stats" in names or _dotted(node) == "self.stats")


def _timer_identity(node: ast.AST, module: Optional[str]) -> bool:
    if not (isinstance(node, ast.Compare) and len(node.ops) == 1
            and isinstance(node.ops[0], (ast.Is, ast.IsNot))):
        return False
    sides = (node.left, node.comparators[0])
    return any(_dotted(side) == "self._timer" for side in sides) \
        and not any(isinstance(side, ast.Constant) and side.value is None
                    for side in sides)


_HAND_KEY = re.compile(
    r"^_eid$|_tie_scramble|_tfree|getrefcount|timeouts_recycled|_FREELIST")


def _hand_built_key(node: ast.AST, module: Optional[str]) -> bool:
    return any(_HAND_KEY.search(name) for name in _identifiers(node))


_PROCESS_NAMES = frozenset({
    "subprocess", "multiprocessing", "ProcessPoolExecutor"})


def _process_plumbing(node: ast.AST, module: Optional[str]) -> bool:
    return _covers(module, "analysis/") \
        and not isinstance(node, ast.Constant) \
        and not _PROCESS_NAMES.isdisjoint(_identifiers(node))


def _trace_argument(node: ast.AST, module: Optional[str]) -> bool:
    return isinstance(node, (ast.arg, ast.keyword)) and node.arg == "trace" \
        and _covers(module, "workload/", "core/", "daos/", "net/", "hw/",
                    "storage/")


_Gate = Callable[[ast.AST, Optional[str]], bool]

#: (rule, matcher, hint) for each structure gate; the message is its
#: :data:`~repro.analysis.model.RULES` charter.
_GATES: Tuple[Tuple[str, _Gate, str], ...] = (
    ("SIM007", _station_reservation,
     "reserve through FifoServer.serve / PooledServer.execute"),
    ("SIM008", _private_server,
     "only the pipe and the SSD hold a FifoServer as _server; call the "
     "station's public methods"),
    ("SIM009", _slower_path,
     "traced, faulted and plain runs take one path; reference paths live "
     "in tests/reference.py"),
    ("SIM010", _station_recorder,
     "book reservations with the wait tracer alone"),
    ("SIM011", _timer_identity,
     "withdraw the replaced timer with Environment.cancel"),
    ("SIM012", _hand_built_key,
     "key every push with next(env._eids); free fired Timeouts"),
    ("SIM013", _process_plumbing,
     "run cells on repro.bench.campaign._pool_map"),
    ("SIM014", _trace_argument,
     "open a child of env._active.span; hand a forked process its span"),
)


def _structure_gates(checker: _Checker, tree: ast.AST) -> None:
    module = _package_path(checker.relpath)
    for node in ast.walk(tree):
        for rule, matches, hint in _GATES:
            if matches(node, module):
                checker._emit(node, rule, RULES[rule], hint)


def check_source(relpath: str, source: str) -> List[Finding]:
    """Run every rule over one file's source; raises SyntaxError."""
    tree = ast.parse(source, filename=relpath)
    checker = _Checker(relpath, source.splitlines())
    findings = checker.run(tree)
    _sim006_get_calls(checker, tree)
    _structure_gates(checker, tree)
    findings.sort(key=lambda f: (f.line, f.col, f.rule))
    return findings
