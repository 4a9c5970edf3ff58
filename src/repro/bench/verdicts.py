"""Record verdicts: every check CI draws from a ledger record, as a function.

A verdict is a function ``(records) -> findings``.  It reads the
``repro-run-v1`` records of one ledger directory and returns one line
per violation, each naming the run ID (or, for a missing cell, the run
ID prefix) it is about; an empty list means the verdict holds.
:data:`VERDICTS` lists every verdict once, and ``cli verdict DIR`` runs
them all and exits 1 on any finding.

A verdict that reads one named cell reports that cell missing when the
directory holds records of the cell's experiment but not the cell, so
removing a cell can never skip its check.  A directory with no observed
records of an experiment (e.g. a chaos-only ledger, or one of
``observe: false`` Fig. 5 cells) gives its verdicts nothing to read and
no finding.
"""

from __future__ import annotations

from typing import Callable, List, Sequence, Tuple

from repro.bench import ledger as lg
from repro.bench.calibration import PAPER_BANDS
from repro.sim.diffdoctor import diff_runs
from repro.sim.doctor import parse_slo

__all__ = ["VERDICTS", "run_verdicts"]

Verdict = Callable[[Sequence[dict]], List[str]]

#: The paper's §4.4 cell: 4 KiB random reads from the DPU over TCP.
TCP_4K = {"experiment": "fig5", "transport": "tcp", "client": "dpu",
          "rw": "randread", "bs": 4096}

#: The service levels the TCP 4 KiB cell meets, by record metric, in
#: ``doctor --slo`` syntax.
TCP_4K_SLOS = {"result.latency.p99": "p99<=2ms",
               "result.iops": "iops>=150000"}

#: Blame that names no resource; neither may rank first in a chaos run.
PSEUDO_RESOURCES = ("(sleep)", "(anon)")

#: The attribution identity's bound: deltas sum to the observed delta.
ATTRIBUTION_REL_ERR = 0.01


def _of(records: Sequence[dict], experiment: str) -> List[dict]:
    """The records of ``experiment`` a wait tracer observed (with blame)."""
    return [r for r in records
            if r["config"].get("experiment") == experiment and "blame" in r]


def _ranked(record: dict) -> List[Tuple[str, float]]:
    """Blame totals, largest first (ties by name, as the doctor ranks)."""
    return sorted(((name, comp["total"])
                   for name, comp in record["blame"].items()),
                  key=lambda kv: (-kv[1], kv[0]))


def _tcp_4k_cells(records: Sequence[dict]) -> Tuple[List[dict], List[str]]:
    """The TCP 4 KiB records, or the finding that the cell is missing."""
    fig5 = _of(records, "fig5")
    cells = [r for r in fig5
             if all(r["config"].get(k) == v for k, v in TCP_4K.items())]
    if fig5 and not cells:
        return [], [f"{lg.config_slug(TCP_4K)}: no record of this cell "
                    f"among {len(fig5)} fig5 record(s)"]
    return cells, []


def fig5_blames_nvme(records: Sequence[dict]) -> List[str]:
    """Every Fig. 5 record's sampled requests blame an ``nvme.ssd*``: a
    striped I/O books the piece its request waited for on its media span."""
    return [f"{r['run_id']}: no nvme.ssd* resource in its blame"
            for r in _of(records, "fig5")
            if not any(k.startswith("nvme.ssd") for k in r["blame"])]


def tcp_4k_blames_arm_rx(records: Sequence[dict]) -> List[str]:
    """The TCP 4 KiB cell is capped by the BF3 Arm RX path (§4.4: ~86 %
    of latency) and still meets its service levels."""
    band = PAPER_BANDS["fig5.dpu.tcp.4k.arm_rx_share"]
    cells, findings = _tcp_4k_cells(records)
    for r in cells:
        top, total = _ranked(r)[0]
        share = total / r["traces"]["total_root_time"]
        if top != "dpu.arm_rx":
            findings.append(f"{r['run_id']}: bottleneck is {top} "
                            f"({share:.1%}), not dpu.arm_rx")
        elif not band.holds(share):
            findings.append(f"{r['run_id']}: dpu.arm_rx share {share:.1%} "
                            f"outside [{band.lo:.0%}, {band.hi:.0%}] "
                            f"({band.source})")
        for metric, slo in TCP_4K_SLOS.items():
            rule, measured = parse_slo(slo), r["metrics"][metric]
            if not rule.check(measured):
                findings.append(f"{r['run_id']}: {rule.metric} {measured:.6g} "
                                f"misses {rule.raw}")
    return findings


def rdma_removes_arm_rx_wait(records: Sequence[dict]) -> List[str]:
    """Against its TCP twin, the RDMA 4 KiB cell wins by no longer waiting
    on the Arm RX path: the top contributor of the differential doctor's
    decomposition is a ``dpu.arm_rx`` wait reduction, and the per-resource
    deltas sum to the observed delta.  Sign and rank only."""
    cells, findings = _tcp_4k_cells(records)
    for tcp in cells:
        twin = dict(tcp["config"], transport="rdma")
        rdma = [r for r in _of(records, "fig5") if r["config"] == twin]
        if not rdma:
            findings.append(f"{tcp['run_id']}: no rdma twin "
                            f"({lg.config_slug(twin)}) to diff against")
            continue
        dd = diff_runs(tcp, rdma[0])
        name = f"{rdma[0]['run_id']} vs {tcp['run_id']}"
        rel_err = dd.checks["attribution"]["rel_err"]
        if rel_err > ATTRIBUTION_REL_ERR:
            findings.append(f"{name}: attributed deltas miss the observed "
                            f"delta by {rel_err:.2%}")
        top = dd.contributors[0]
        if top["resource"] != "dpu.arm_rx":
            findings.append(f"{name}: top contributor is {top['resource']}, "
                            "not dpu.arm_rx")
        if top["delta"] >= 0:
            findings.append(f"{name}: {top['resource']} delta "
                            f"{top['delta'] * 1e6:+.1f} us/req is no "
                            "reduction")
        if abs(top["delta_wait"]) < abs(top["delta_service"]):
            findings.append(f"{name}: {top['resource']} delta is service "
                            "time, not wait")
    return findings


def chaos_recovers(records: Sequence[dict]) -> List[str]:
    """Every chaos cell conserves operations and passes its checks; no
    record books more sleep than its sampled requests lasted or blames a
    pseudo-resource first; the QP-break cell retries, reconnects and
    blames the broken QP."""
    chaos = _of(records, "chaos")
    findings: List[str] = []
    qp_breaks = 0
    for r in chaos:
        rid, doc = r["run_id"], r["chaos"]
        findings += [f"{rid}: chaos check {c['name']} failed"
                     for c in doc["checks"] if not c["ok"]]
        if not doc["ok"]:
            findings.append(f"{rid}: chaos verdict not ok")
        recovery = doc["recovery"]
        lost = (recovery["submitted"] - recovery["completed"]
                - recovery["failed"])
        if lost != 0:
            findings.append(f"{rid}: {lost} operation(s) lost")
        slept = r["blame"].get("(sleep)", {}).get("total", 0.0)
        root = r["traces"]["total_root_time"]
        if not slept < root:
            findings.append(f"{rid}: {slept:.6g} s of sleep blamed in "
                            f"{root:.6g} s of sampled requests")
        top = _ranked(r)[0][0]
        if top in PSEUDO_RESOURCES:
            findings.append(f"{rid}: pseudo-resource {top} ranks first")
        if [e["kind"] for e in doc["faults"]["events"]] == ["qp_break"]:
            qp_breaks += 1
            if "fault:dpu.qp" not in r["blame"]:
                findings.append(f"{rid}: no fault:dpu.qp blame")
            for counter in ("retries", "reconnects"):
                if not recovery[counter] > 0:
                    findings.append(f"{rid}: QP break with "
                                    f"{recovery[counter]} {counter}")
    if chaos and not qp_breaks:
        findings.append(f"chaos: no qp_break cell among {len(chaos)} chaos "
                        "record(s)")
    return findings


#: Every record verdict, in the order ``cli verdict`` reports them.
VERDICTS: Tuple[Verdict, ...] = (
    fig5_blames_nvme,
    tcp_4k_blames_arm_rx,
    rdma_removes_arm_rx_wait,
    chaos_recovers,
)


def run_verdicts(records: Sequence[dict]) -> List[Tuple[str, List[str]]]:
    """(verdict name, its findings over ``records``), in :data:`VERDICTS`
    order."""
    return [(v.__name__, v(records)) for v in VERDICTS]
