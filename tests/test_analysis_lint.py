"""simlint: golden fixture output, guard idioms, suppressions, CLI."""

import json
import os
import textwrap

import pytest

from repro.analysis import Baseline, lint_paths, lint_source
from repro.analysis.baseline import DEFAULT_BASELINE_PATH
from repro.analysis.model import RULES
from repro.bench import cli

HERE = os.path.dirname(__file__)
FIXTURES = os.path.join(HERE, "data", "lint_fixtures")
REPO_ROOT = os.path.dirname(HERE)


def _lint_snippet(source, relpath="src/repro/sim/snippet.py"):
    active, suppressed = lint_source(relpath, textwrap.dedent(source))
    return active, suppressed


# ---------------------------------------------------------------------------
# Golden fixture tree: one known-bad snippet per rule ID
# ---------------------------------------------------------------------------

def _golden():
    with open(os.path.join(FIXTURES, "expected.json")) as fh:
        return [tuple(row) for row in json.load(fh)["findings"]]


def test_fixture_tree_matches_golden():
    golden = _golden()
    report = lint_paths([FIXTURES])
    got = [(f.rule, os.path.basename(f.path), f.line)
           for f in report.findings]
    assert sorted(got) == sorted(golden)
    assert not report.parse_errors


def test_every_rule_has_a_fixture():
    report = lint_paths([FIXTURES])
    assert {f.rule for f in report.findings} == set(RULES)


def test_findings_carry_hints_and_line_text():
    report = lint_paths([FIXTURES])
    for f in report.findings:
        assert f.hint
        assert f.line_text
        assert f.rule in RULES


# ---------------------------------------------------------------------------
# The clean tree stays clean (with the committed baseline)
# ---------------------------------------------------------------------------

def test_src_repro_is_clean_under_committed_baseline():
    baseline = Baseline.load(os.path.join(REPO_ROOT, DEFAULT_BASELINE_PATH))
    report = lint_paths([os.path.join(REPO_ROOT, "src", "repro")],
                        baseline=baseline)
    assert report.ok, [f.to_dict() for f in report.findings]
    # Every committed suppression still matches something real.
    assert baseline.stale_entries() == []
    # And every entry carries a human justification (load() enforces it,
    # but assert the invariant the baseline file promises).
    assert all(baseline.entries.values())


# ---------------------------------------------------------------------------
# Guard idioms SIM003 must accept
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("body", [
    # the canonical kernel idiom: alias + is-not-None
    """
    def f(self):
        wt = self._wait_tracer
        if wt is not None:
            wt.reserve("r", 1.0)
    """,
    # direct attribute guard
    """
    def f(self):
        if self._faults is not None:
            self._faults.active("qp")
    """,
    # truthiness guard
    """
    def f(self):
        if self._stats:
            self._stats.add(1)
    """,
    # early-return guard
    """
    def f(self):
        if self._faults is None:
            return None
        return self._faults.active("qp")
    """,
    # assert guard
    """
    def f(self):
        assert self._faults is not None
        return self._faults.active("qp")
    """,
    # inverted guard: hook use in the else branch
    """
    def f(self):
        if self._faults is None:
            return 0
        else:
            return self._faults.active("qp")
    """,
    # compound condition: `hook is not None and ...`
    """
    def f(self, x):
        if self._faults is not None and x > 0:
            self._faults.active("qp")
    """,
])
def test_sim003_accepts_guard_idioms(body):
    active, _ = _lint_snippet(body)
    assert not [f for f in active if f.rule == "SIM003"], body


def test_sim003_rejects_unguarded_and_wrong_branch():
    active, _ = _lint_snippet("""
    def f(self):
        self._wait_tracer.reserve("r", 1.0)
    """)
    assert [f.rule for f in active] == ["SIM003"]
    # Guard inverted the wrong way: use in the None branch.
    active, _ = _lint_snippet("""
    def f(self):
        if self._faults is None:
            self._faults.active("qp")
    """)
    assert [f.rule for f in active] == ["SIM003"]


# ---------------------------------------------------------------------------
# SIM002 precision: sorted() wrappers and sink-free dict views pass
# ---------------------------------------------------------------------------

def test_sim002_sorted_wrapper_and_sink_free_views_pass():
    active, _ = _lint_snippet("""
    def f(env, waiters, table):
        for ev in sorted(set(waiters), key=id):
            env.schedule(ev)
        acc = 0.0
        for row in table.values():
            acc += row
        return acc
    """)
    assert not [f for f in active if f.rule == "SIM002"]


def test_sim001_exempts_the_rng_module():
    src = """
    import random

    def draw():
        return random.random()
    """
    active, _ = _lint_snippet(src, relpath="src/repro/sim/rng.py")
    assert not active
    active, _ = _lint_snippet(src, relpath="src/repro/sim/core.py")
    assert [f.rule for f in active] == ["SIM001"]


def test_sim004_scope_and_escapes():
    cold = """
    from dataclasses import dataclass

    @dataclass
    class Spec:
        x: int
    """
    # workload/ is not a hot-path package
    active, _ = _lint_snippet(cold, relpath="src/repro/workload/spec.py")
    assert not active
    # sim/ is; slots=True and __slots__ both satisfy the rule
    active, _ = _lint_snippet(cold, relpath="src/repro/sim/spec.py")
    assert [f.rule for f in active] == ["SIM004"]
    ok = """
    from dataclasses import dataclass

    @dataclass(frozen=True, slots=True)
    class Spec:
        x: int
    """
    active, _ = _lint_snippet(ok, relpath="src/repro/sim/spec.py")
    assert not active


def test_sim005_ignores_exact_counting():
    active, _ = _lint_snippet("""
    def f(checks, durs):
        import math
        n_bad = sum(1 for c in checks if not c.ok)
        total = math.fsum(d.duration for d in durs)
        return n_bad, total
    """)
    assert not active


# ---------------------------------------------------------------------------
# Structure gates SIM007-SIM014: scoped to the modules they name
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("rule, source, spared, covered", [
    ("SIM007", """
    def book(srv, now, done):
        if srv._stats is not None:
            srv._stats.record(now, done)
    """, "src/repro/sim/queues.py", "src/repro/hw/cpu.py"),
    ("SIM008", """
    def stall(self, d):
        return self._server.serve(d)
    """, "src/repro/hw/nvme.py", "src/repro/faults/plan.py"),
    ("SIM009", """
    def hop(self, msg, trace=None):
        if trace is None:
            return self.merged(msg)
    """, "src/repro/hw/nvme.py", "src/repro/net/rdma.py"),
    ("SIM009", """
    def hop(self, msg):
        span = self.env._active.span
        if span is None:
            return self.merged(msg)
    """, "src/repro/hw/nvme.py", "src/repro/daos/rpc.py"),
    ("SIM009", """
    def submit(self, env, piece):
        return env.process(self.piece(piece))
    """, "src/repro/workload/fio.py", "src/repro/hw/nvme.py"),
    ("SIM010", """
    def serve(self, d):
        return self._stats
    """, "src/repro/core/telemetry.py", "src/repro/daos/rpc.py"),
    ("SIM013", """
    import subprocess
    """, "src/repro/bench/cli.py", "src/repro/analysis/sanitizer.py"),
    ("SIM014", """
    def fetch(self, ctx, trace=None):
        return self.rpc.call("obj_fetch", {}, trace=trace)
    """, "src/repro/bench/runner.py", "src/repro/workload/fio.py"),
], ids=["SIM007", "SIM008", "SIM009-trace", "SIM009-span", "SIM009-process",
        "SIM010", "SIM013", "SIM014"])
def test_scoped_gate_covers_only_its_modules(rule, source, spared, covered):
    active, _ = _lint_snippet(source, relpath=spared)
    assert rule not in [f.rule for f in active]
    active, _ = _lint_snippet(source, relpath=covered)
    assert rule in [f.rule for f in active]


def test_structure_gates_accept_the_idioms_they_protect():
    # A timer's liveness test against None, the one key iterator, the
    # sanitizer's tie scramble and an un-split NVMe join all pass.
    active, _ = _lint_snippet("""
    def rearm(self, env, at, scramble):
        if self._timer is not None:
            env.cancel(self._timer)
        env._eids = map(scramble, env._eids)
        return next(env._eids)

    def join(self, wt, span, error):
        if wt is not None and span is None and error is None:
            return wt
    """, relpath="src/repro/hw/nvme.py")
    assert not active


# ---------------------------------------------------------------------------
# Suppressions: inline comments and the baseline
# ---------------------------------------------------------------------------

def test_inline_suppression_comment():
    active, suppressed = _lint_snippet("""
    import time

    def stamp():
        return time.time()  # simlint: disable=SIM001
    """)
    assert not active
    assert [f.rule for f in suppressed] == ["SIM001"]


def test_inline_suppression_is_rule_specific():
    active, suppressed = _lint_snippet("""
    import time

    def stamp():
        return time.time()  # simlint: disable=SIM002
    """)
    assert [f.rule for f in active] == ["SIM001"]
    assert not suppressed


def test_baseline_requires_justification(tmp_path):
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps({
        "format": "repro-lint-baseline-v1",
        "entries": [{"rule": "SIM001", "path": "x.py",
                     "line_text": "t = time.time()",
                     "justification": ""}],
    }))
    with pytest.raises(ValueError, match="justification"):
        Baseline.load(str(path))


def test_baseline_roundtrip_suppresses(tmp_path):
    report = lint_paths([FIXTURES])
    path = tmp_path / "baseline.json"
    Baseline.write(str(path), report.findings, justification="fixture")
    baseline = Baseline.load(str(path))
    again = lint_paths([FIXTURES], baseline=baseline)
    assert again.ok
    assert len(again.suppressed_baseline) == len(report.findings)
    assert baseline.stale_entries() == []


# ---------------------------------------------------------------------------
# CLI contract: exit 0 on clean, 1 on findings
# ---------------------------------------------------------------------------

def test_cli_lint_exit_codes(tmp_path, capsys):
    rc = cli.main(["lint", FIXTURES, "--no-baseline",
                   "--json-out", str(tmp_path / "lint.json")])
    assert rc == 1
    doc = json.loads((tmp_path / "lint.json").read_text())
    assert doc["format"] == "repro-lint-v1"
    assert doc["counts"]["findings"] == len(_golden())
    assert not doc["ok"]

    clean = tmp_path / "clean.py"
    clean.write_text("X = 1\n")
    rc = cli.main(["lint", str(clean), "--no-baseline"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "1 files" in out


@pytest.mark.parametrize("path", ["no/such/dir", "README.md"])
def test_cli_lint_rejects_a_path_with_nothing_to_lint(path, capsys):
    # A mistyped path must not pass as a clean tree.
    rc = cli.main(["lint", os.path.join(REPO_ROOT, path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
