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
    python -m repro.bench.cli compare-runs fig5-tcp-dpu-randread-4096 \
        cell:transport=rdma --json-out diff.json   # a cell, run on demand
    python -m repro.bench.cli campaign benchmarks/campaigns/fig5_ci.json \
        --jobs 4 --progress                  # parallel sweep, cache-aware
    python -m repro.bench.cli campaign spec.json --dry-run    # what would run?
    python -m repro.bench.cli verdict benchmarks/ledger       # record verdicts
    python -m repro.bench.cli providers

``campaign`` expands a declarative sweep spec (``repro-campaign-v1``:
defaults + cartesian grid axes + explicit cells) and executes the cells
on a multiprocessing pool, recording each as a ledger record.  Cells are
**cached** content-addressed — a cell whose config hash and code
fingerprint (hash of the ``src/repro`` tree) already appear in the
ledger is skipped; ``--force`` re-simulates anyway.  Output is
merged sorted by cell key, so ``--jobs N`` is byte-identical to serial;
``--check DIR`` turns that into a CI gate against a committed ledger.
``compare-runs`` additionally accepts ``cell:k=v,...`` references
resolved through the same executor.
``verdict DIR`` runs every record verdict of
:mod:`repro.bench.verdicts` over the records in ``DIR`` and exits 1 on
any finding.

Sizes accept ``4k``/``1m`` suffixes.  Output is one line per run in the
paper's units (GiB/s for >=64 KiB blocks, K IOPS otherwise).
``--telemetry`` (fig5) appends the system utilization snapshot.

``doctor`` runs a cell with wait-cause attribution attached, reads each
station's utilization, ranks resources by their share of
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

Every subcommand that runs a cell builds its config with
:func:`~repro.bench.campaign.normalize_cell` and runs it with
:func:`~repro.bench.campaign.run_cell`, the campaign's own runner
(``fig5`` runs its cell unobserved, ``observe: false``).
``--ledger`` (doctor/chaos) appends the run to the **run ledger**
(``benchmarks/ledger/``, one ``repro-run-v1`` JSON per run, content-
derived stable IDs; doctor and chaos runs record under the same cell
identity a campaign would); ``runs`` lists/inspects it.
``compare-runs`` invokes the **differential
doctor**: the end-to-end latency delta between two runs is decomposed
into per-resource wait and service contributions (``repro-diff-v1``),
with red/blue differential flamegraphs (``--diff-flame``/
``--diff-wait-flame``) and a two-run Perfetto counter overlay
(``--overlay``), whose tracks come from re-simulating each ledger run's
cell: a record that does not regenerate its own run ID exits 2.

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

from repro.bench.campaign import parse_size
from repro.bench.runner import default_runtime
from repro.hw.specs import MIB
from repro.net.fabric import _ALIASES, list_providers
from repro.workload.fio import WORKLOADS, FioResult

__all__ = ["main"]


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

    # fig3 / fig4 leave every default to ``normalize_cell``.
    p3 = sub.add_parser("fig3", help="local FIO / io_uring baseline")
    p3.add_argument("--rw", choices=WORKLOADS)
    p3.add_argument("--bs", type=parse_size)
    p3.add_argument("--jobs", type=int)
    p3.add_argument("--ssds", type=int, choices=[1, 2, 3, 4])
    p3.add_argument("--runtime", type=float)

    p4 = sub.add_parser("fig4", help="remote SPDK NVMe-oF")
    p4.add_argument("--provider", choices=list(list_providers()))
    p4.add_argument("--rw", choices=WORKLOADS)
    p4.add_argument("--bs", type=parse_size)
    p4.add_argument("--client-cores", type=int)
    p4.add_argument("--server-cores", type=int)
    p4.add_argument("--runtime", type=float)

    p5 = sub.add_parser("fig5", help="end-to-end DFS over ROS2")
    _add_cell_args(p5, "rdma", "host", "read", MIB, 8,
                   transports=[*_ALIASES, *list_providers()])
    p5.add_argument("--telemetry", action="store_true",
                    help="print the system utilization snapshot after the run")
    p5.set_defaults(observe=False)

    pd = sub.add_parser(
        "doctor",
        help="wait-cause diagnosis: blame ranking, per-stage latency "
             "breakdown, bottleneck verdict, SLO gates",
    )
    _add_cell_args(pd, "tcp", "dpu", "randread", 4096, None, sample=20)
    pd.add_argument("--quick", action="store_true",
                    help="CI subset: 0.02 s default window, no continuous "
                         "sampler; needed by --ledger")
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

    pch = sub.add_parser(
        "chaos",
        help="fault-injected run: deterministic fault plan, retry/recovery "
             "telemetry, availability checks in its repro-run-v1 record",
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
                     help="write the run's repro-run-v1 record (the one "
                          "--ledger saves)")
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
    pr.add_argument("--format", choices=["table", "json"], default="table",
                    help="listing format (default table)")

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
             "latency/IOPS delta per resource (only --overlay simulates)",
    )
    pcr.add_argument("base", help="baseline run: ID, unique prefix, path, "
                                  "or 'cell:k=v,...' (executed on demand)")
    pcr.add_argument("current", help="current run: ID, unique prefix, path, "
                                     "or 'cell:k=v,...' (executed on demand)")
    _add_ledger_args(pcr, record=False, stamp=False)
    pcr.add_argument("--json-out", metavar="PATH", default=None,
                     help="write the repro-diff-v1 JSON verdict")
    pcr.add_argument("--diff-flame", metavar="PATH", default=None,
                     help="write the red/blue differential folded stacks "
                          "of span self time")
    pcr.add_argument("--diff-wait-flame", metavar="PATH", default=None,
                     help="write the red/blue differential folded stacks "
                          "of wait blame")
    pcr.add_argument("--overlay", metavar="PATH", default=None,
                     help="write a Chrome trace overlaying both runs' "
                          "wait counter tracks, re-simulating each "
                          "ledger run from its config")

    pl = sub.add_parser(
        "lint",
        help="simlint: determinism and structure lint (SIM001-SIM013) "
             "over a file set",
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
        help="virtual-time race sanitizer: run each fig5/chaos cell of a "
             "campaign spec FIFO, then under tie-shuffle seeds 1-5 x "
             "PYTHONHASHSEED 0 and 12345, and diff the records",
    )
    ps.add_argument("spec", help="repro-campaign-v1 JSON spec of fig5/chaos "
                                 "cells (CI: benchmarks/campaigns/"
                                 "sanitize_ci.json)")
    ps.add_argument("--json-out", default=None,
                    help="write the repro-sanitize-v2 document here")

    pv = sub.add_parser(
        "verdict",
        help="run every record verdict (repro.bench.verdicts) over the "
             "ledger records in DIR; exit 1 on any finding",
    )
    pv.add_argument("dir", help="ledger directory of repro-run-v1 records")

    sub.add_parser("providers", help="list fabric providers")
    return parser


def _cmd_lint(args) -> int:
    from repro.analysis import Baseline, lint_paths
    from repro.analysis.baseline import DEFAULT_BASELINE_PATH
    from repro.analysis.lint import iter_python_files, render_report

    for path in args.paths:
        if not os.path.exists(path):
            return _fail(f"{path}: no such file or directory")
        if not iter_python_files([path]):
            return _fail(f"{path}: holds no .py file")
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


def _run_verdict(args) -> int:
    from repro.bench import ledger as lg
    from repro.bench.verdicts import run_verdicts

    if not os.path.isdir(args.dir):
        return _fail(f"{args.dir}: no such directory")
    try:
        records = lg.list_runs(args.dir)
    except (OSError, ValueError) as exc:
        return _fail(exc)
    if not records:
        return _fail(f"{args.dir}: holds no {lg.FORMAT} record")
    findings = run_verdicts(records)
    for name, found in findings:
        print(f"{name}: {'ok' if not found else f'{len(found)} finding(s)'}")
        for line in found:
            print(f"  {line}")
    total = sum(len(found) for _, found in findings)
    print(f"verdict: {len(records)} record(s) in {args.dir}, "
          f"{total} finding(s)")
    return 1 if total else 0


def _cmd_sanitize(args) -> int:
    from repro.analysis import sanitizer as sz
    from repro.bench.campaign import load_spec

    try:
        configs = sz.spec_cells(load_spec(args.spec))
    except (OSError, ValueError) as exc:
        return _fail(exc)
    if not _out_paths_ok(args, "json_out"):
        return 2
    doc = sz.run_sanitizer(configs, sz.DEFAULT_SEEDS, sz.DEFAULT_HASH_SEEDS)
    if args.json_out:
        _write_json(args.json_out, doc)
    print(sz.render_sanitize(doc))
    return 0 if doc["ok"] else 1


#: Cell key -> the flag that sets it, in the subcommands that have it.
_CELL_FLAGS = {"transport": "transport", "client": "client", "rw": "rw",
               "bs": "bs", "numjobs": "jobs", "runtime": "runtime",
               "ssds": "ssds", "sample_every": "sample", "observe": "observe",
               "provider": "provider", "client_cores": "client_cores",
               "server_cores": "server_cores"}


def _cell_config(args, experiment: str, **extra) -> dict:
    """The ledger config of a subcommand's cell: its flags through
    :func:`~repro.bench.campaign.normalize_cell`, which fills every flag
    left unset and rejects a bad knob with ``ValueError`` before
    anything is simulated."""
    from repro.bench.campaign import normalize_cell

    cell = {key: getattr(args, flag, None)
            for key, flag in _CELL_FLAGS.items()}
    cell.update(extra)
    return normalize_cell({"experiment": experiment, **{
        k: v for k, v in cell.items() if v is not None}})


def _stamped_record(config: dict, run, args) -> dict:
    """A cell's ledger record, stamped as a recording."""
    from repro.bench.campaign import cell_record, code_fingerprint

    record = cell_record(config, run)
    record.update(**_stamps(args), code_fingerprint=code_fingerprint())
    return record


def _save(record: dict, args) -> None:
    """Append a stamped record to the ledger."""
    from repro.bench import ledger as lg

    path = lg.save_run(record, _ledger_dir(args))
    print(f"ledger: recorded {record['run_id']} -> {path}")


def _overlay_series(records: list) -> list:
    """Each record's live wait series for ``--overlay``, re-simulated from
    its config.  ``ValueError`` names a run with no wait tracer (before
    anything is simulated) or one whose re-simulated run ID differs."""
    from repro.bench.campaign import cell_record, run_cell

    for record in records:
        experiment = record["config"].get("experiment")
        if "blame" not in record:  # recorded without a wait tracer
            raise ValueError(
                f"--overlay: run {record['run_id']} is a {experiment} cell "
                "record with no wait tracer to regenerate")
    out = []
    for record in records:
        run = run_cell(record["config"])
        run_id = cell_record(record["config"], run)["run_id"]
        if run_id != record["run_id"]:
            raise ValueError(
                f"--overlay: run {record['run_id']} re-simulates as "
                f"{run_id}; the record was made by other code and must be "
                "re-recorded")
        out.append(getattr(run, "run", run).tracer.wait_series())
    return out


def _run_doctor(args) -> int:
    from repro.bench import campaign as cp
    from repro.sim.doctor import diagnose, parse_slo
    from repro.sim.spans import LatencyBreakdown

    # Validate SLO strings and the cell *before* burning a simulation
    # run on them.
    if args.ledger and not args.quick:
        return _fail("--ledger needs --quick: the sampler's ticks are kernel "
                     "events and would count in the record's cost")
    try:
        for slo in args.slo:
            parse_slo(slo)
        runtime = 0.02 if args.quick and args.runtime is None else args.runtime
        config = _cell_config(args, "fig5", runtime=runtime)
    except ValueError as exc:
        return _fail(exc)
    if not _out_paths_ok(args, "json_out", "flame", "wait_flame", "perfetto"):
        return 2

    label = cp.cell_label(config)
    run = cp.run_cell(config, observe_sampler=not args.quick)
    diag = diagnose(run.result, run.collector, run.tracer,
                    stations=run.stations, slos=args.slo, label=label)
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

    if args.ledger:
        _save(_stamped_record(config, run, args), args)
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
        config = _cell_config(args, "chaos", runtime=runtime,
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
    record = _stamped_record(config, run, args)

    print(f"{label}: {_report(run.run.result)}")
    print(ch.render_chaos(record))
    if args.json_out:
        _write_json(args.json_out, record)
        print(f"wrote chaos record {args.json_out}")
    if args.wait_flame:
        from repro.sim.flame import fold_waits, write_collapsed

        folded = fold_waits(run.run.collector.spans, run.run.tracer.records)
        write_collapsed(args.wait_flame, folded)
        print(f"wrote wait flamegraph {args.wait_flame} "
              f"({len(folded)} stacks)")
    if args.ledger:
        _save(record, args)
    return 0 if record["chaos"]["ok"] else 1


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
        force=args.force, dry_run=args.dry_run,
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
    as_json = args.format == "json"
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
    from repro.bench.campaign import resolve_runs
    from repro.sim.diffdoctor import diff_runs

    if not _out_paths_ok(args, "json_out", "diff_flame", "diff_wait_flame",
                         "overlay"):
        return 2
    # Both references resolve before anything is written; ``--overlay``
    # re-simulates both runs here too.
    try:
        base, current = resolve_runs([args.base, args.current],
                                     _ledger_dir(args), **_stamps(args))
        overlay = (_overlay_series([base, current]) if args.overlay
                   else None)
    except (ValueError, OSError) as exc:
        return _fail(exc)
    dd = diff_runs(base, current)
    print(dd.render())
    if args.json_out:
        _write_json(args.json_out, dd.to_dict())
        print(f"wrote diff verdict {args.json_out}")
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
    if overlay is not None:
        from repro.sim.diffdoctor import write_overlay_trace

        doc = write_overlay_trace(
            args.overlay, *overlay,
            tracks=(f"A:{base['config']['transport']}",
                    f"B:{current['config']['transport']}"),
            run_ids=(base["run_id"], current["run_id"]), label=dd.label)
        other = doc.get("otherData", {})
        print(f"wrote overlay trace {args.overlay}: "
              f"{other.get('n_counter_tracks', 0)} counter tracks")
    return dd.exit_code


def _run_providers(args) -> int:
    for name in list_providers():
        print(name)
    return 0


def _run_figure(args) -> int:
    """fig3 / fig4 / fig5: one plain, unobserved cell and its result line."""
    from repro.bench import campaign as cp

    try:
        config = _cell_config(args, args.experiment)
    except ValueError as exc:
        return _fail(exc)
    run = cp.run_cell(config)
    print(f"{cp.cell_label(config)}: {_report(getattr(run, 'result', run))}")
    if getattr(args, "telemetry", False):
        from repro.core.telemetry import snapshot

        print("\n" + snapshot(run.system).render())
    return 0


_COMMANDS = {
    "providers": _run_providers, "lint": _cmd_lint,
    "sanitize": _cmd_sanitize, "campaign": _run_campaign, "runs": _run_runs,
    "compare-runs": _run_compare_runs, "doctor": _run_doctor,
    "chaos": _run_chaos, "verdict": _run_verdict,
}


def main(argv: list) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS.get(args.experiment, _run_figure)(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
