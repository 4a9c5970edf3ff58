"""Command-line runner for individual experiment cells.

Lets a user poke any point of the paper's configuration space without
writing code::

    python -m repro.bench.cli fig3 --rw read --bs 1m --jobs 4 --ssds 4
    python -m repro.bench.cli fig4 --provider ucx+rc --bs 4k --client-cores 4 --server-cores 4
    python -m repro.bench.cli fig5 --transport rdma --client dpu --rw randread --bs 4k --jobs 16
    python -m repro.bench.cli doctor --transport tcp --client dpu --rw randread --bs 4k \
        --slo 'p99<=2ms' --flame flame.txt --json-out doctor.json --perfetto trace.json
    python -m repro.bench.cli doctor --quick --ledger            # record a run
    python -m repro.bench.cli runs                               # list the ledger
    python -m repro.bench.cli compare-runs fig5-tcp-dpu-randread-4096 \
        fig5-rdma-dpu-randread-4096 --diff-wait-flame diff.txt
    python -m repro.bench.cli doctor --quick --transport rdma \
        --against fig5-tcp-dpu-randread-4096 --diff-out diff.json
    python -m repro.bench.cli campaign benchmarks/campaigns/fig5_ci.json \
        --jobs 4 --progress                  # parallel sweep, cache-aware
    python -m repro.bench.cli campaign spec.json --dry-run    # what would run?
    python -m repro.bench.cli providers

``campaign`` expands a declarative sweep spec (``repro-campaign-v1``:
defaults + cartesian grid axes + explicit cells) and executes the cells
on a multiprocessing pool, recording each as a ledger record.  Cells are
**cached** content-addressed — a cell whose config hash and code
fingerprint (hash of the ``src/repro`` tree) already appear in the
ledger is skipped; ``--no-cache``/``--force`` override.  Output is
merged sorted by cell key, so ``--jobs N`` is byte-identical to serial;
``--check DIR`` turns that into a CI gate against a committed ledger.
``doctor --against`` and ``compare-runs`` additionally accept
``cell:k=v,...`` references resolved through the same executor.

Sizes accept ``4k``/``1m`` suffixes.  Output is one line per run in the
paper's units (GiB/s for >=64 KiB blocks, K IOPS otherwise).
``--telemetry`` (fig5) appends the system utilization snapshot.

``doctor`` runs a cell with wait-cause attribution attached, cross-checks
the utilization and Little's laws, ranks resources by their share of
sampled request time, prints a one-line bottleneck verdict and the
per-stage latency breakdown with each stage's wait causes; ``--slo
'p99<=500us'`` gates exit status for CI, ``--flame``/``--wait-flame``
write collapsed-stack flamegraphs (speedscope / flamegraph.pl), its
``--json-out`` emits the ``repro-doctor-v1`` document (with the
``breakdown`` and utilization ``telemetry`` sections), and
``--perfetto PATH`` writes a Chrome trace-event file — sampled request
spans as duration events, per-resource wait counters and (without
``--quick``) every telemetry series as counter tracks — loadable in
Perfetto / ``chrome://tracing``.

``--ledger`` (doctor/chaos) appends the run to the **run ledger**
(``benchmarks/ledger/``, one ``repro-run-v1`` JSON per run, content-
derived stable IDs; doctor and chaos runs record under the same cell
identity a campaign would); ``runs`` lists/inspects it.
``compare-runs`` and ``doctor --against`` invoke the **differential
doctor**: the end-to-end latency delta between two runs is decomposed
into per-resource wait and service contributions (``repro-diff-v1``),
with red/blue differential flamegraphs (``--diff-flame``/
``--diff-wait-flame``) and a two-run Perfetto counter overlay
(``--overlay``).

Every artefact path is checked before anything is simulated: a path
into a directory that does not exist exits 2.  So is every cell knob
(see :func:`repro.bench.campaign.normalize_cell`).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

from repro.bench.runner import (
    _build_fig5,
    default_runtime,
    run_fig3_cell,
    run_fig4_cell,
    run_ros2_fio,
)
from repro.hw.specs import MIB
from repro.net.fabric import _ALIASES, list_providers
from repro.workload.fio import WORKLOADS, FioResult

__all__ = ["main", "parse_size"]

_DIFF_OUTPUTS = ("diff_flame", "diff_wait_flame", "overlay")


def parse_size(text: str) -> int:
    """Parse ``4096``, ``4k``, ``1m``, ``2g`` into bytes."""
    text = text.strip().lower()
    mult = 1
    if text.endswith(("k", "m", "g")):
        mult = {"k": 1024, "m": 1024**2, "g": 1024**3}[text[-1]]
        text = text[:-1]
    try:
        return int(float(text) * mult)
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse size {text!r}") from None


def _report(result: FioResult) -> str:
    if result.spec.bs >= 64 * 1024:
        return f"{result.bandwidth_gib:.2f} GiB/s ({result.total_ios} IOs)"
    return f"{result.kiops:.1f} K IOPS ({result.total_ios} IOs)"


def _fail(exc) -> int:
    """Report a bad argument; exit status 2 means nothing was simulated."""
    print(f"error: {exc}", file=sys.stderr)
    return 2


def _write_json(path: str, doc) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _add_cell_args(parser: argparse.ArgumentParser, transport: str,
                   client: str, rw: str, bs: int, jobs: Optional[int],
                   sample: Optional[int] = None, transports=None) -> None:
    """The Fig. 5 cell options shared by fig5 / doctor / chaos; ``sample``
    (the tracing rate) only for the observed subcommands."""
    parser.add_argument("--transport", default=transport, choices=transports)
    parser.add_argument("--client", default=client, choices=["host", "dpu"])
    parser.add_argument("--rw", default=rw, choices=WORKLOADS)
    parser.add_argument("--bs", type=parse_size, default=bs)
    parser.add_argument("--jobs", type=int, default=jobs,
                        help=None if jobs else "FIO numjobs (default: 8 for "
                                               ">=1 MiB blocks, 16 below)")
    parser.add_argument("--ssds", type=int, default=1, choices=[1, 2, 3, 4])
    parser.add_argument("--runtime", type=float, default=None)
    if sample is not None:
        parser.add_argument("--sample", type=int, default=sample,
                            help=f"trace 1 in N operations (default {sample})")


def _add_diff_args(parser: argparse.ArgumentParser, json_flag: str,
                   note: str = "") -> None:
    """The differential artefacts of doctor --against / compare-runs."""
    parser.add_argument(json_flag, metavar="PATH", default=None,
                        help="write the repro-diff-v1 JSON verdict" + note)
    parser.add_argument("--diff-flame", metavar="PATH", default=None,
                        help="write the red/blue differential folded stacks "
                             "of span self time" + note)
    parser.add_argument("--diff-wait-flame", metavar="PATH", default=None,
                        help="write the red/blue differential folded stacks "
                             "of wait blame" + note)
    parser.add_argument("--overlay", metavar="PATH", default=None,
                        help="write a Chrome trace overlaying both runs' "
                             "wait counter tracks" + note)


def _add_ledger_args(parser: argparse.ArgumentParser, record: bool = True,
                     stamp: bool = True) -> None:
    """Run-ledger options: ``--ledger`` (doctor / chaos), ``--ledger-dir``
    (every ledger reader), ``--git-sha`` (every ledger writer)."""
    if record:
        parser.add_argument("--ledger", action="store_true",
                            help="append this run as a repro-run-v1 record "
                                 "to the run ledger")
    parser.add_argument("--ledger-dir", metavar="DIR", default=None,
                        help="ledger directory (default benchmarks/ledger)")
    if stamp:
        parser.add_argument("--git-sha", metavar="SHA", default=None,
                            help="git SHA to stamp on ledger records "
                                 "(default: $REPRO_GIT_SHA, then git "
                                 "rev-parse)")


def _git_sha(args) -> Optional[str]:
    """The SHA stamped on ledger records — passed in, never sim-computed."""
    sha = getattr(args, "git_sha", None) or os.environ.get("REPRO_GIT_SHA")
    if sha:
        return sha
    import subprocess

    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, timeout=5)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None if out.returncode == 0 else None


def _stamps(args) -> dict:
    """The volatile ``git_sha`` and ``created`` stamps of a recording."""
    from datetime import datetime, timezone

    return {"git_sha": _git_sha(args),
            "created": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")}


def _ledger_dir(args) -> str:
    from repro.bench import ledger as lg

    return getattr(args, "ledger_dir", None) or lg.DEFAULT_LEDGER_DIR


def _out_paths_ok(args, *opts: str) -> bool:
    """Check that every given output flag points into an existing
    directory, so a mistyped path fails before a simulation runs."""
    for opt in opts:
        path = getattr(args, opt)
        if path and not os.path.isdir(os.path.dirname(os.path.abspath(path))):
            print(f"error: --{opt.replace('_', '-')} {path}: directory "
                  "does not exist", file=sys.stderr)
            return False
    return True


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.bench.cli",
        description="Run one cell of the paper's evaluation space.",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)

    p3 = sub.add_parser("fig3", help="local FIO / io_uring baseline")
    p3.add_argument("--rw", default="read", choices=WORKLOADS)
    p3.add_argument("--bs", type=parse_size, default=MIB)
    p3.add_argument("--jobs", type=int, default=1)
    p3.add_argument("--ssds", type=int, default=1, choices=[1, 2, 3, 4])
    p3.add_argument("--runtime", type=float, default=0.03)

    p4 = sub.add_parser("fig4", help="remote SPDK NVMe-oF")
    p4.add_argument("--provider", default="ucx+rc", choices=list(list_providers()))
    p4.add_argument("--rw", default="randread", choices=WORKLOADS)
    p4.add_argument("--bs", type=parse_size, default=4096)
    p4.add_argument("--client-cores", type=int, default=4)
    p4.add_argument("--server-cores", type=int, default=4)
    p4.add_argument("--runtime", type=float, default=0.02)

    p5 = sub.add_parser("fig5", help="end-to-end DFS over ROS2")
    _add_cell_args(p5, "rdma", "host", "read", MIB, 8,
                   transports=[*_ALIASES, *list_providers()])
    p5.add_argument("--telemetry", action="store_true",
                    help="print the system utilization snapshot after the run")

    pd = sub.add_parser(
        "doctor",
        help="wait-cause diagnosis: blame ranking, per-stage latency "
             "breakdown, law cross-checks, bottleneck verdict, SLO gates",
    )
    _add_cell_args(pd, "tcp", "dpu", "randread", 4096, None, sample=20)
    pd.add_argument("--quick", action="store_true",
                    help="CI subset: short window, no continuous sampler "
                         "(skips the Little's-law check)")
    pd.add_argument("--slo", action="append", default=[], metavar="RULE",
                    help="SLO gate, e.g. 'p99<=500us' or 'iops>=100000'; "
                         "repeatable; any violation exits non-zero")
    pd.add_argument("--json-out", metavar="PATH", default=None,
                    help="write the repro-doctor-v1 JSON document, with "
                         "the latency breakdown and utilization snapshot")
    pd.add_argument("--flame", metavar="PATH", default=None,
                    help="write a sim-time collapsed-stack flamegraph "
                         "(speedscope / flamegraph.pl)")
    pd.add_argument("--wait-flame", metavar="PATH", default=None,
                    help="write a wait-time flamegraph: queueing time by "
                         "blamed resource under each span stack")
    pd.add_argument("--perfetto", metavar="PATH", default=None,
                    help="write a Chrome trace with per-resource cumulative "
                         "blamed-wait counter tracks")
    _add_ledger_args(pd)
    pd.add_argument("--against", metavar="RUN", default=None,
                    help="differential mode: compare this run against a "
                         "ledger run (run ID, unique ID prefix, file "
                         "path, or a 'cell:k=v,...' spec executed "
                         "through the campaign executor, cache-first) "
                         "and attribute the delta per resource")
    _add_diff_args(pd, "--diff-out", note=" (requires --against)")

    pch = sub.add_parser(
        "chaos",
        help="fault-injected run: deterministic fault plan, retry/recovery "
             "telemetry, availability verdict (repro-chaos-v1)",
    )
    _add_cell_args(pch, "rdma", "dpu", "randread", 4096, None, sample=20)
    pch.add_argument("--fault", action="append", default=[], metavar="SPEC",
                     help="fault event KIND:TARGET:AT[:DURATION[:FACTOR]] "
                          "(times relative to the measured window); "
                          "repeatable; default: a mid-run qp_break on the "
                          "client QP")
    pch.add_argument("--seed-key", default="chaos",
                     help="seed key for the plan's deterministic backoff "
                          "jitter (default 'chaos')")
    pch.add_argument("--min-goodput", type=float, default=None,
                     help="measured-window success-ratio floor "
                          "(default 0.95)")
    pch.add_argument("--p999-max", type=float, default=None,
                     help="p99.9 latency ceiling in seconds (default 0.05)")
    pch.add_argument("--json-out", metavar="PATH", default=None,
                     help="write the repro-chaos-v1 verdict document")
    pch.add_argument("--wait-flame", metavar="PATH", default=None,
                     help="write the wait-time flamegraph (fault: leaves "
                          "show recovery backoff blame)")
    _add_ledger_args(pch)

    pr = sub.add_parser(
        "runs",
        help="list or inspect ledger runs (benchmarks/ledger/)",
    )
    pr.add_argument("ref", nargs="?", default=None,
                    help="run ID, unique ID prefix, or file path to "
                         "inspect; omit to list all runs")
    _add_ledger_args(pr, record=False, stamp=False)
    pr.add_argument("--format", choices=["table", "json"], default=None,
                    help="listing format (default table)")
    pr.add_argument("--json", action="store_true",
                    help="shorthand for --format json")

    pca = sub.add_parser(
        "campaign",
        help="expand a sweep spec into cells and run them on a worker "
             "pool with content-addressed run caching",
    )
    pca.add_argument("spec", help="repro-campaign-v1 JSON sweep spec")
    pca.add_argument("--jobs", type=int, default=1, metavar="N",
                     help="worker processes (default 1 = in-process); "
                          "output is byte-identical for any N")
    pca.add_argument("--dry-run", action="store_true",
                     help="expand and report cached/missing cells "
                          "without simulating anything")
    pca.add_argument("--progress", action="store_true",
                     help="print each cell as it completes (completion "
                          "order; the merged output stays sorted)")
    pca.add_argument("--no-cache", action="store_true",
                     help="ignore cached records (still writes results)")
    pca.add_argument("--force", action="store_true",
                     help="re-simulate every cell even when cached")
    pca.add_argument("--json-out", metavar="PATH", default=None,
                     help="write the repro-campaign-v1 execution report "
                          "(per-cell status + wall-clock)")
    pca.add_argument("--check", metavar="DIR", default=None,
                     help="after running, fail unless every record "
                          "matches the committed ledger DIR (volatile "
                          "fields ignored) — the CI determinism gate")
    _add_ledger_args(pca, record=False)

    pcr = sub.add_parser(
        "compare-runs",
        help="differential doctor on two ledger runs: attribute the "
             "latency/IOPS delta per resource (no simulation)",
    )
    pcr.add_argument("base", help="baseline run: ID, unique prefix, path, "
                                  "or 'cell:k=v,...' (executed on demand)")
    pcr.add_argument("current", help="current run: ID, unique prefix, path, "
                                     "or 'cell:k=v,...' (executed on demand)")
    _add_ledger_args(pcr, record=False, stamp=False)
    _add_diff_args(pcr, "--json-out")

    pl = sub.add_parser(
        "lint",
        help="simlint: determinism lint (SIM001-SIM006) over a file set",
    )
    pl.add_argument("paths", nargs="*", default=["src/repro"],
                    help="files or directories to lint (default src/repro)")
    pl.add_argument("--baseline", default=None,
                    help="suppression baseline JSON (default "
                         "benchmarks/baselines/simlint.json when present)")
    pl.add_argument("--no-baseline", action="store_true",
                    help="ignore any suppression baseline")
    pl.add_argument("--write-baseline", action="store_true",
                    help="absorb current findings into --baseline "
                         "(justifications left as TODO for editing)")
    pl.add_argument("--json-out", default=None,
                    help="write the repro-lint-v1 document here")

    ps = sub.add_parser(
        "sanitize",
        help="virtual-time race sanitizer: tie-shuffle x PYTHONHASHSEED "
             "matrix over the quick Fig. 5 cells",
    )
    ps.add_argument("--transport", choices=["rdma", "tcp", "both"],
                    default="both", help="which quick cell(s) to run")
    ps.add_argument("--seeds", type=int, default=5,
                    help="number of tie-shuffle seeds (default 5)")
    ps.add_argument("--hash-seeds", default="0,12345",
                    help="comma-separated PYTHONHASHSEED values "
                         "(default 0,12345)")
    ps.add_argument("--runtime", type=float, default=0.02,
                    help="simulated seconds per run (default 0.02)")
    ps.add_argument("--json-out", default=None,
                    help="write the repro-sanitize-v1 document here")

    sub.add_parser("providers", help="list fabric providers")
    return parser


def _cmd_lint(args) -> int:
    from repro.analysis import Baseline, lint_paths
    from repro.analysis.baseline import DEFAULT_BASELINE_PATH
    from repro.analysis.lint import render_report

    baseline_path = args.baseline or DEFAULT_BASELINE_PATH
    baseline = None
    if not args.no_baseline and not args.write_baseline \
            and os.path.isfile(baseline_path):
        baseline = Baseline.load(baseline_path)
    report = lint_paths(args.paths, baseline=baseline)
    if args.write_baseline:
        Baseline.write(baseline_path, report.findings)
        print(f"wrote {len(report.findings)} entries to {baseline_path} — "
              "edit the justifications before committing")
        return 0
    if args.json_out:
        _write_json(args.json_out, report.to_doc(list(args.paths)))
    print(render_report(report))
    if baseline is not None:
        stale = baseline.stale_entries()
        for ent in stale:
            print(f"stale baseline entry (matched nothing): "
                  f"{ent['rule']} {ent['path']}: {ent['line_text']!r}")
    return 0 if report.ok else 1


def _cmd_sanitize(args) -> int:
    from repro.analysis import render_sanitize, run_sanitizer

    transports = (("rdma", "tcp") if args.transport == "both"
                  else (args.transport,))
    seeds = tuple(range(1, args.seeds + 1))
    hash_seeds = tuple(int(h) for h in args.hash_seeds.split(","))
    doc = run_sanitizer(transports=transports, runtime=args.runtime,
                        seeds=seeds, hash_seeds=hash_seeds)
    if args.json_out:
        _write_json(args.json_out, doc)
    print(render_sanitize(doc))
    return 0 if doc["ok"] else 1


def _cell_config(args, experiment: str, **extra) -> dict:
    """The ledger config of a doctor / chaos cell: its flags through
    :func:`~repro.bench.campaign.normalize_cell`, which rejects a bad
    knob with ``ValueError`` before anything is simulated."""
    from repro.bench.campaign import normalize_cell

    return normalize_cell({
        "experiment": experiment, "transport": args.transport,
        "client": args.client, "rw": args.rw, "bs": args.bs,
        "numjobs": args.jobs, "runtime": args.runtime, "ssds": args.ssds,
        "sample_every": args.sample, **extra})


def _record(config: dict, run, args) -> dict:
    """Stamp a cell's ledger record for a CLI recording, and append it to
    the ledger when ``--ledger`` asks."""
    from repro.bench import ledger as lg
    from repro.bench.campaign import cell_record, code_fingerprint

    record = cell_record(config, run)
    record.update(**_stamps(args), code_fingerprint=code_fingerprint())
    if args.ledger:
        path = lg.save_run(record, _ledger_dir(args))
        print(f"ledger: recorded {record['run_id']} -> {path}")
    return record


def _write_diff_outputs(base: dict, current: dict, dd, args,
                        json_out: Optional[str]) -> None:
    """The differential artefacts shared by doctor --against / compare-runs."""
    if json_out:
        _write_json(json_out, dd.to_dict())
        print(f"wrote diff verdict {json_out}")
    if args.diff_flame or args.diff_wait_flame:
        from repro.sim.diffdoctor import diff_flames
        from repro.sim.flame import write_diff_collapsed

        flames = diff_flames(base, current)
        if args.diff_flame:
            write_diff_collapsed(args.diff_flame, flames["spans"])
            print(f"wrote differential flamegraph {args.diff_flame} "
                  f"({len(flames['spans'])} changed stacks)")
        if args.diff_wait_flame:
            write_diff_collapsed(args.diff_wait_flame, flames["waits"])
            print(f"wrote differential wait flamegraph {args.diff_wait_flame} "
                  f"({len(flames['waits'])} changed stacks)")
    if args.overlay:
        from repro.sim.diffdoctor import write_overlay_trace

        doc = write_overlay_trace(args.overlay, base, current, label=dd.label)
        other = doc.get("otherData", {})
        print(f"wrote overlay trace {args.overlay}: "
              f"{other.get('n_counter_tracks', 0)} counter tracks")


def _run_doctor(args) -> int:
    from repro.bench import campaign as cp
    from repro.sim.doctor import diagnose, parse_slo
    from repro.sim.spans import LatencyBreakdown

    # Validate SLO strings and the cell *before* burning a simulation
    # run on them.
    try:
        for slo in args.slo:
            parse_slo(slo)
        config = _cell_config(args, "fig5", quick=args.quick)
    except ValueError as exc:
        return _fail(exc)
    if not args.against:
        for opt in ("diff_out", *_DIFF_OUTPUTS):
            if getattr(args, opt):
                flag = "--" + opt.replace("_", "-")
                return _fail(f"{flag} requires --against")
    if not _out_paths_ok(args, "json_out", "flame", "wait_flame", "perfetto",
                         "diff_out", *_DIFF_OUTPUTS):
        return 2

    # Same fail-fast rule for the differential baseline: resolve the
    # ledger reference up front.  A ``cell:`` reference goes through the
    # campaign executor — cache-first, simulated and recorded only when
    # missing.
    base_record = None
    if args.against:
        try:
            base_record = cp.resolve_run_or_cell(
                args.against, _ledger_dir(args), **_stamps(args))
        except (ValueError, OSError) as exc:
            return _fail(exc)

    label = cp.cell_label(config)
    run = cp.run_cell(config)
    littles = run.sampler.littles_law() if run.sampler is not None else None
    diag = diagnose(run.result, run.collector, run.tracer,
                    stations=run.stations, littles_rows=littles,
                    slos=args.slo, label=label)
    breakdown = LatencyBreakdown(run.collector.spans,
                                 stage_waits=run.tracer.stage_waits())

    if args.flame or args.wait_flame:
        from repro.sim.flame import fold_spans, fold_waits, write_collapsed

        if args.flame:
            folded = fold_spans(run.collector.spans)
            write_collapsed(args.flame, folded)
            print(f"wrote flamegraph {args.flame} ({len(folded)} stacks)")
        if args.wait_flame:
            folded = fold_waits(run.collector.spans, run.tracer.records)
            write_collapsed(args.wait_flame, folded)
            print(f"wrote wait flamegraph {args.wait_flame} "
                  f"({len(folded)} stacks)")
    if args.perfetto:
        from repro.sim.chrometrace import write_chrome_trace

        doc = write_chrome_trace(
            args.perfetto, spans=run.collector.spans, sampler=run.sampler,
            label=label, extra_series=run.tracer.wait_series())
        other = doc.get("otherData", {})
        print(f"wrote Perfetto trace {args.perfetto}: "
              f"{other.get('n_spans', 0)} spans, "
              f"{other.get('n_counter_tracks', 0)} counter tracks")
    if args.json_out:
        from repro.core.telemetry import snapshot

        _write_json(args.json_out, dict(
            diag.to_dict(), breakdown=breakdown.to_dict(),
            telemetry=snapshot(run.system).to_dict()))
        print(f"wrote doctor verdict {args.json_out}")

    print(f"{label}: {_report(run.result)}")
    print(diag.render())
    print()
    print(breakdown.table("Latency breakdown (sampled requests)"))

    if args.ledger or base_record is not None:
        record = _record(config, run, args)
        if base_record is not None:
            from repro.sim.diffdoctor import diff_runs

            dd = diff_runs(base_record, record,
                           label=f"{label} vs {base_record['run_id']}")
            print()
            print(dd.render())
            _write_diff_outputs(base_record, record, dd, args, args.diff_out)
            return max(diag.exit_code, dd.exit_code)
    return diag.exit_code


def _run_chaos(args) -> int:
    from repro.bench import campaign as cp
    from repro.bench import chaos as ch
    from repro.faults.plan import FaultPlan, FaultTargetError, parse_fault_spec
    from repro.faults.retry import RetryPolicy

    if not _out_paths_ok(args, "json_out", "wait_flame"):
        return 2
    runtime = default_runtime(args.bs) if args.runtime is None else args.runtime
    try:
        if args.fault:
            events = tuple(parse_fault_spec(s) for s in args.fault)
            plan = FaultPlan(events=events, policy=RetryPolicy(),
                             seed_key=args.seed_key)
        else:
            plan = ch.default_qp_break_plan(args.client, runtime)
        # Not ``quick``: chaos runs the full default window (the identity
        # ``chaos --ledger`` has always recorded), never with the sampler.
        config = _cell_config(args, "chaos", runtime=runtime, quick=False,
                              faults=plan.to_config(),
                              min_goodput=args.min_goodput,
                              p999_max=args.p999_max)
    except ValueError as exc:
        return _fail(exc)
    label = cp.cell_label(config)
    try:
        run = cp.run_cell(config)
    except FaultTargetError as exc:
        return _fail(exc)
    doc = ch.make_chaos_report(
        run, config, label=label,
        min_goodput=config.get("min_goodput", ch.DEFAULT_MIN_GOODPUT),
        p999_max=config.get("p999_max", ch.DEFAULT_P999_MAX))

    print(f"{label}: {_report(run.run.result)}")
    print(ch.render_chaos(doc))
    if args.json_out:
        _write_json(args.json_out, doc)
        print(f"wrote chaos verdict {args.json_out}")
    if args.wait_flame:
        from repro.sim.flame import fold_waits, write_collapsed

        folded = fold_waits(run.run.collector.spans, run.run.tracer.records)
        write_collapsed(args.wait_flame, folded)
        print(f"wrote wait flamegraph {args.wait_flame} "
              f"({len(folded)} stacks)")
    if args.ledger:
        _record(config, run, args)
    return 0 if doc["ok"] else 1


def _run_campaign(args) -> int:
    from repro.bench import campaign as cp

    try:
        spec = cp.load_spec(args.spec)
        cells = cp.expand_spec(spec)
    except (OSError, ValueError) as exc:
        return _fail(exc)
    if args.jobs < 1:
        return _fail("--jobs must be >= 1")
    if not _out_paths_ok(args, "json_out"):
        return 2

    progress = None
    if args.progress:
        done = [0]

        def progress(outcome, total=len(cells)):
            done[0] += 1
            tail = outcome.run_id or outcome.error or ""
            print(f"[{done[0]}/{total}] {outcome.status:9s} "
                  f"{outcome.key}  {tail}", flush=True)

    result = cp.run_campaign(
        spec, jobs=args.jobs, ledger_dir=_ledger_dir(args),
        cache=not args.no_cache, force=args.force, dry_run=args.dry_run,
        progress=progress, **_stamps(args))
    print(cp.render_campaign(result))
    if args.json_out:
        _write_json(args.json_out, result.to_dict())
        print(f"wrote campaign report {args.json_out}")
    rc = result.exit_code
    for err in result.errors:
        print(f"\ncell {err.key} failed: {err.error}", file=sys.stderr)
        if err.traceback:
            print(err.traceback, file=sys.stderr)
    if args.check and not args.dry_run:
        failures = cp.check_campaign(result, args.check)
        if failures:
            print(f"\nFAIL: {len(failures)} cell(s) differ from the "
                  f"committed campaign in {args.check}", file=sys.stderr)
            for f in failures:
                print(f"  {f}", file=sys.stderr)
            rc = max(rc, 1)
        else:
            print(f"determinism gate OK: all {len(result.outcomes)} "
                  f"record(s) match {args.check}")
    return rc


def _run_runs(args) -> int:
    from repro.bench import ledger as lg
    from repro.bench.report import Table

    ldir = _ledger_dir(args)
    as_json = args.json or args.format == "json"
    if args.ref:
        try:
            record = lg.load_run(args.ref, ldir)
        except (ValueError, OSError) as exc:
            return _fail(exc)
        if as_json:
            print(json.dumps(record, indent=2, sort_keys=True))
            return 0
        print(f"run {record['run_id']} ({record.get('kind', '?')})")
        print(f"label:   {record.get('label', '')}")
        print(f"created: {record.get('created')}  "
              f"git: {record.get('git_sha')}")
        print(f"config:  {json.dumps(record.get('config', {}), sort_keys=True)}")
        summary = lg.run_summary(record)
        if summary.get("iops") is not None:
            print(f"iops:    {summary['iops']:,.0f}")
        if summary.get("p99") is not None:
            print(f"p99:     {summary['p99'] * 1e6:.1f} us")
        blame = record.get("blame", {})
        if blame:
            traces = max(1, record.get("traces", {}).get("count", 1))
            rows = sorted(blame.items(),
                          key=lambda kv: (-kv[1]["total"], kv[0]))
            t = Table("Blame (per sampled request)", ["us/req"],
                      row_header="resource")
            for name, comp in rows[:8]:
                t.add_row(name, [f"{comp['total'] / traces * 1e6:10.3f}"])
            print(t.render())
        return 0
    # list_runs sorts by run ID (name asc), so the listing is stable
    # regardless of directory iteration order.
    records = lg.list_runs(ldir)
    if as_json:
        print(json.dumps([lg.run_summary(r) for r in records],
                         indent=2, sort_keys=True))
        return 0
    if not records:
        print(f"no runs in {ldir}")
        return 0
    t = Table(f"Run ledger — {ldir}", ["kind", "iops", "p99 us", "created"],
              row_header="run_id")
    for r in records:
        s = lg.run_summary(r)
        t.add_row(s["run_id"], [
            s["kind"],
            "-" if s["iops"] is None else f"{s['iops']:,.0f}",
            "-" if s["p99"] is None else f"{s['p99'] * 1e6:.1f}",
            s["created"] or "-",
        ])
    print(t.render())
    return 0


def _run_compare_runs(args) -> int:
    from repro.bench.campaign import resolve_run_or_cell
    from repro.sim.diffdoctor import diff_runs

    if not _out_paths_ok(args, "json_out", *_DIFF_OUTPUTS):
        return 2
    ldir, stamps = _ledger_dir(args), _stamps(args)
    try:
        base = resolve_run_or_cell(args.base, ldir, **stamps)
        current = resolve_run_or_cell(args.current, ldir, **stamps)
    except (ValueError, OSError) as exc:
        return _fail(exc)
    dd = diff_runs(base, current)
    print(dd.render())
    _write_diff_outputs(base, current, dd, args, args.json_out)
    return dd.exit_code


def _run_providers(args) -> int:
    for name in list_providers():
        print(name)
    return 0


def _run_figure(args) -> int:
    """fig3 / fig4 / fig5: one plain, unobserved cell and its result line."""
    if args.experiment == "fig3":
        result = run_fig3_cell(args.rw, args.bs, args.jobs, n_ssds=args.ssds,
                               runtime=args.runtime)
        label = f"fig3 {args.rw} bs={args.bs} jobs={args.jobs} ssds={args.ssds}"
    elif args.experiment == "fig4":
        result = run_fig4_cell(args.provider, args.rw, args.bs,
                               args.client_cores, args.server_cores,
                               runtime=args.runtime)
        label = (f"fig4 {args.provider} {args.rw} bs={args.bs} "
                 f"c={args.client_cores} s={args.server_cores}")
    else:
        label = (f"fig5 {args.transport}/{args.client} {args.rw} bs={args.bs} "
                 f"jobs={args.jobs} ssds={args.ssds}")
        system, spec = _build_fig5(args.transport, args.client, args.rw,
                                   args.bs, args.jobs, n_ssds=args.ssds,
                                   runtime=args.runtime)
        result = run_ros2_fio(system, spec)

    print(f"{label}: {_report(result)}")
    if args.experiment == "fig5" and args.telemetry:
        from repro.core.telemetry import snapshot

        print("\n" + snapshot(system).render())
    return 0


_COMMANDS = {
    "providers": _run_providers, "lint": _cmd_lint,
    "sanitize": _cmd_sanitize, "campaign": _run_campaign, "runs": _run_runs,
    "compare-runs": _run_compare_runs, "doctor": _run_doctor,
    "chaos": _run_chaos,
}


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS.get(args.experiment, _run_figure)(args)


if __name__ == "__main__":
    sys.exit(main())
