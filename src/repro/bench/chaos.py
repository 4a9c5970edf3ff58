"""The chaos harness: availability verdicts for runs under fault plans.

A chaos run is a doctored Fig. 5 cell with a
:class:`~repro.faults.plan.FaultPlan` installed and the event heap
drained to empty afterwards (see
:func:`~repro.bench.runner.run_fig5_chaos`).  Its ledger record
(``kind: "chaos"``) carries one more section, ``chaos``, built here:
the plan that ran (``faults``), the injector's ``recovery`` counters
and the ``checks`` the paper's availability story rests on:

* **conservation** — every submitted operation either completed or
  failed with an error; nothing was lost in a retry loop or a flushed
  queue (``submitted == completed + failed`` after drain);
* **goodput** — the fraction of measured-window operations that
  succeeded stays above a threshold despite the injected faults;
* **p999** — p99.9 latency stays under a bound, i.e. recovery is
  capped backoff + reconnect, not an unbounded stall.

The section is content-hashed with the rest of the record, so the
campaign determinism gate covers recovery behaviour byte-for-byte.
``chaos --json-out`` writes that same record.
"""

from __future__ import annotations

from typing import List, Optional

__all__ = [
    "DEFAULT_MIN_GOODPUT",
    "DEFAULT_P999_MAX",
    "chaos_sections",
    "render_chaos",
    "default_qp_break_plan",
]

#: Measured-window success-ratio floor (goodput >= this passes).
DEFAULT_MIN_GOODPUT = 0.95

#: p99.9 latency ceiling in seconds — generous against the paper's
#: millisecond-scale tails, tight against an unbounded recovery stall.
DEFAULT_P999_MAX = 0.05


def default_qp_break_plan(client: str, runtime: float):
    """The committed default scenario: a mid-run QP break on the client.

    The break opens halfway through the measured window and refuses
    reconnection for a tenth of it, so the retry loop must ride out the
    window with capped backoff before the fresh QPs come up.
    """
    from repro.faults.plan import FaultEvent, FaultPlan

    return FaultPlan(events=(
        FaultEvent(kind="qp_break", target=f"{client}.qp",
                   at=runtime * 0.5, duration=runtime * 0.1),
    ))


def chaos_sections(
    result,
    stats,
    plan,
    min_goodput: float = DEFAULT_MIN_GOODPUT,
    p999_max: Optional[float] = DEFAULT_P999_MAX,
) -> dict:
    """A chaos record's ``chaos`` section.

    ``result`` is the :class:`~repro.workload.fio.FioResult`, ``stats``
    the injector's :class:`~repro.faults.plan.FaultStats` *after* the
    drain, ``plan`` the :class:`~repro.faults.plan.FaultPlan` that ran.
    """
    lost = stats.submitted - stats.completed - stats.failed
    window_ops = result.total_ios + result.errors
    goodput = result.total_ios / window_ops if window_ops else 0.0
    p999 = result.latency.get("p999")

    checks: List[dict] = [
        {
            "name": "conservation",
            "ok": lost == 0,
            "detail": (f"submitted={stats.submitted} "
                       f"completed={stats.completed} failed={stats.failed} "
                       f"lost={lost}"),
        },
        {
            "name": "goodput",
            "ok": goodput >= min_goodput,
            "detail": (f"{goodput:.4f} of {window_ops} measured-window ops "
                       f"succeeded (floor {min_goodput:.4f})"),
        },
    ]
    if p999_max is not None and p999 is not None:
        checks.append({
            "name": "p999",
            "ok": p999 <= p999_max,
            "detail": (f"p99.9 {p999 * 1e3:.3f} ms "
                       f"(bound {p999_max * 1e3:.3f} ms)"),
        })
    return {
        "faults": plan.to_config(),
        "recovery": stats.to_dict(),
        "checks": checks,
        "ok": all(c["ok"] for c in checks),
    }


def render_chaos(record: dict) -> str:
    """One-screen human verdict of a chaos record."""
    doc = record["chaos"]
    lines = [f"chaos verdict — {record['label'] or 'run'}: "
             + ("OK" if doc["ok"] else "FAIL")]
    for ev in doc["faults"]["events"]:
        lines.append(f"  fault  {ev['kind']:18s} {ev['target']:24s} "
                     f"at +{ev['at'] * 1e3:.2f} ms "
                     f"for {ev['duration'] * 1e3:.2f} ms")
    rec = doc["recovery"]
    lines.append(f"  recovery: {rec['retries']} retries, "
                 f"{rec['reconnects']} reconnects, "
                 f"{rec['timeouts']} timeouts, "
                 f"{rec['replies_dropped']} replies dropped, "
                 f"{rec['fault_downtime'] * 1e3:.2f} ms downtime")
    for check in doc["checks"]:
        mark = "ok  " if check["ok"] else "FAIL"
        lines.append(f"  {mark} {check['name']:14s} {check['detail']}")
    return "\n".join(lines)
