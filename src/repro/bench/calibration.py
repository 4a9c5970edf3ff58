"""The paper's reported numbers and shape checks.

Every quantitative claim the evaluation section makes is recorded here as
a band or ratio.  Where each band is checked:

* ``pytest benchmarks/ --benchmark-only`` (the Fig. 3–5 benches)
  prints paper-vs-measured for every band but the Arm RX share and
  asserts it; no CI job runs it, so drift in most bands shows only
  there;
* tier-1 (``tests/test_bench.py``) simulates one cell each for
  ``fig3.1ssd.read.1mib``, ``fig5.rdma.read.1mib.1ssd`` and
  ``fig5.dpu.tcp.read.1mib.1ssd`` and asserts their bands;
* ``fig5.dpu.tcp.4k.arm_rx_share`` is asserted by tier-1's doctor test
  (``tests/test_sim_doctor.py``) and by ``cli verdict`` on every ledger
  record of that cell (:mod:`repro.bench.verdicts`), which CI runs.

Units: bytes/second for bandwidth bands, operations/second for IOPS.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

GIB = 2**30

__all__ = ["ShapeCheck", "PAPER_BANDS", "describe_band"]


@dataclass(frozen=True)
class ShapeCheck:
    """One claim from the paper: a value band or a ratio bound."""

    name: str
    lo: float
    hi: float
    source: str  # where in the paper the claim lives
    unit: str = ""

    def holds(self, value: float) -> bool:
        return self.lo <= value <= self.hi


def describe_band(check: ShapeCheck, value: float) -> str:
    """A paper-vs-measured line for the reports."""
    status = "OK " if check.holds(value) else "OUT"
    return (
        f"[{status}] {check.name}: measured {value:.3g} "
        f"(paper band {check.lo:.3g}..{check.hi:.3g} {check.unit}; {check.source})"
    )


#: Every quantitative band the evaluation text states.  Margins widen the
#: paper's point values by the usual run-to-run spread of FIO numbers.
PAPER_BANDS: Dict[str, ShapeCheck] = {
    # ---- Fig. 3: local io_uring --------------------------------------------
    "fig3.1ssd.read.1mib": ShapeCheck(
        "1 SSD sequential/random read plateau", 5.0 * GIB, 5.8 * GIB,
        "Fig. 3a: reads plateau around ~5-5.6 GiB/s", "B/s"),
    "fig3.1ssd.write.1mib": ShapeCheck(
        "1 SSD write plateau", 2.5 * GIB, 2.9 * GIB,
        "Fig. 3a: writes plateau around ~2.7 GiB/s", "B/s"),
    "fig3.4ssd.read.1mib": ShapeCheck(
        "4 SSD read bandwidth", 19.0 * GIB, 23.0 * GIB,
        "Fig. 3c: reads reach ~20-22 GiB/s", "B/s"),
    "fig3.4ssd.write.1mib": ShapeCheck(
        "4 SSD write bandwidth", 9.8 * GIB, 11.5 * GIB,
        "Fig. 3c: writes ~10.6-10.7 GiB/s", "B/s"),
    "fig3.4k.1job": ShapeCheck(
        "4 KiB IOPS at 1 job", 60e3, 110e3,
        "Fig. 3b/d: ~80 K IOPS at 1 job", "IOPS"),
    "fig3.4k.16job": ShapeCheck(
        "4 KiB IOPS at 16 jobs", 480e3, 720e3,
        "Fig. 3b/d: ~600 K IOPS at 16 jobs", "IOPS"),

    # ---- Fig. 4: remote SPDK -----------------------------------------------
    "fig4.1mib.tcp_vs_rdma_ratio": ShapeCheck(
        "1 MiB TCP/RDMA similarity at >=4 cores", 0.75, 1.1,
        "Fig. 4a/b: similarity indicates a media ceiling", "ratio"),
    "fig4.4k.rdma_vs_tcp_ratio": ShapeCheck(
        "4 KiB RDMA/TCP IOPS advantage at 4 cores", 1.3, 6.0,
        "Fig. 4c/d: RDMA substantially higher IOPS", "ratio"),
    "fig4.4k.rdma_core_scaling": ShapeCheck(
        "RDMA IOPS scaling 1 -> 8 cores", 2.0, 10.0,
        "Fig. 4d: RDMA continues to gain with cores", "ratio"),

    # ---- Fig. 5: end-to-end DFS --------------------------------------------
    "fig5.host.tcp.read.1mib.1ssd": ShapeCheck(
        "host TCP 1 MiB reads, 1 SSD", 4.8 * GIB, 6.2 * GIB,
        "Fig. 5a top: TCP reaches ~5-6 GiB/s with one SSD", "B/s"),
    "fig5.host.tcp.read.1mib.4ssd": ShapeCheck(
        "host TCP 1 MiB reads, 4 SSDs", 9.0 * GIB, 11.0 * GIB,
        "Fig. 5a top: ~10 GiB/s with four SSDs", "B/s"),
    "fig5.host.tcp.4k": ShapeCheck(
        "host TCP 4 KiB IOPS", 0.4e6, 0.65e6,
        "Fig. 5c top: scales to ~0.4-0.6 M IOPS", "IOPS"),
    "fig5.dpu.tcp.read.1mib.1ssd": ShapeCheck(
        "DPU TCP 1 MiB reads cap (RX bottleneck)", 1.6 * GIB, 3.1 * GIB,
        "Fig. 5a bottom: reads cap at ~1.6-3.1 GiB/s", "B/s"),
    "fig5.dpu.tcp.write.1mib.4ssd": ShapeCheck(
        "DPU TCP 1 MiB writes, 4 SSDs (TX fine)", 8.5 * GIB, 11.0 * GIB,
        "Fig. 5a bottom: writes can still approach ~10 GiB/s", "B/s"),
    "fig5.dpu.tcp.4k": ShapeCheck(
        "DPU TCP 4 KiB IOPS cap", 0.15e6, 0.26e6,
        "Fig. 5c bottom: tops out near ~0.18-0.23 M IOPS", "IOPS"),
    "fig5.dpu.tcp.4k.arm_rx_share": ShapeCheck(
        "DPU TCP 4 KiB latency share blamed on the Arm RX path", 0.81, 0.91,
        "§4.4: the BF3 Arm RX path takes ~86% of 4 KiB read latency",
        "share"),
    "fig5.rdma.read.1mib.1ssd": ShapeCheck(
        "RDMA 1 MiB reads, 1 SSD (host == DPU)", 6.0 * GIB, 6.8 * GIB,
        "Fig. 5b: ~6.4 GiB/s for both host and DPU", "B/s"),
    "fig5.rdma.1mib.4ssd": ShapeCheck(
        "RDMA 1 MiB, 4 SSDs (link-limited)", 9.8 * GIB, 11.2 * GIB,
        "Fig. 5b: ~10-11 GiB/s", "B/s"),
    "fig5.dpu_rdma_vs_host_ratio.4k": ShapeCheck(
        "DPU/host RDMA 4 KiB IOPS ratio", 0.55, 0.85,
        "Fig. 5d: DPU trails the host by roughly 20-40%", "ratio"),
    "fig5.dpu_rdma_vs_dpu_tcp.4k": ShapeCheck(
        "DPU RDMA / DPU TCP 4 KiB IOPS ratio", 1.7, 4.0,
        "Fig. 5d: often 2x or more over DPU TCP", "ratio"),
    "fig5.dpu_rdma_vs_host_ratio.1mib": ShapeCheck(
        "DPU/host RDMA 1 MiB bandwidth ratio", 0.9, 1.1,
        "Takeaway (i): offload is performance-equivalent at large blocks",
        "ratio"),
}
