"""Paper Fig. 5: end-to-end DFS over ROS2 — TCP vs RDMA, host vs DPU.

The headline experiment: the DAOS DFS client either on the EPYC host or
offloaded to the BlueField-3, over TCP or RDMA, against 1 or 4 NVMe SSDs,
for the four POSIX workloads at 1 MiB (throughput) and 4 KiB (IOPS).

Stated shapes checked:

* host TCP: ~5-6 GiB/s (1 SSD) and ~10 GiB/s (4 SSDs) at 1 MiB;
  ~0.4-0.6 M IOPS at 4 KiB;
* DPU TCP: reads cap at ~1.6-3.1 GiB/s (RX-path bottleneck) while 4-SSD
  writes still approach ~10 GiB/s; 4 KiB tops out ~0.18-0.23 M IOPS;
* RDMA: DPU == host at 1 MiB (~6.4 GiB/s 1 SSD, ~10-11 GiB/s 4 SSDs);
  at 4 KiB the DPU is >= 2x its own TCP but trails the host by ~20-40 %.
"""

import pytest
from conftest import CellCache, cells_payload, write_report

from repro.bench.calibration import PAPER_BANDS, describe_band
from repro.bench.campaign import normalize_cell, run_cell
from repro.bench.report import Table
from repro.hw.specs import KIB, MIB
from repro.workload.fio import WORKLOADS

CACHE = CellCache()

CONFIGS = [("tcp", "host"), ("tcp", "dpu"), ("rdma", "host"), ("rdma", "dpu")]


def cell(provider, client, rw, bs, n_ssds, numjobs=None):
    if numjobs is None:
        numjobs = 8 if bs >= MIB else 16
    return CACHE.get_or_run(
        (provider, client, rw, bs, n_ssds, numjobs),
        lambda: run_cell(normalize_cell({
            "observe": False, "transport": provider, "client": client,
            "rw": rw, "bs": bs, "numjobs": numjobs, "ssds": n_ssds})).result,
    )


@pytest.mark.parametrize("n_ssds", [1, 4])
@pytest.mark.parametrize("rw", WORKLOADS)
@pytest.mark.parametrize("cfg", CONFIGS, ids=lambda c: f"{c[0]}-{c[1]}")
def test_fig5_1mib(benchmark, cfg, rw, n_ssds):
    provider, client = cfg
    result = benchmark.pedantic(
        lambda: cell(provider, client, rw, MIB, n_ssds), rounds=1, iterations=1
    )
    assert result.total_ios > 0


@pytest.mark.parametrize("rw", ["randread", "randwrite"])
@pytest.mark.parametrize("cfg", CONFIGS, ids=lambda c: f"{c[0]}-{c[1]}")
def test_fig5_4k(benchmark, cfg, rw):
    provider, client = cfg
    result = benchmark.pedantic(
        lambda: cell(provider, client, rw, 4 * KIB, 1), rounds=1, iterations=1
    )
    assert result.total_ios > 0


def test_fig5_report(benchmark, results_dir):
    """Render Fig. 5a-5d tables and assert every stated band."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    sections = []

    for label, provider in [("5a TCP", "tcp"), ("5b RDMA", "rdma")]:
        table = Table(
            f"Fig. {label}: DFS 1 MiB throughput [GiB/s] "
            "(R/W/RR/RW = read/write/randread/randwrite)",
            ["R", "W", "RR", "RW"],
            row_header="client x SSDs",
        )
        for client in ["host", "dpu"]:
            for n_ssds in [1, 4]:
                table.add_row(f"{client} x{n_ssds}", [
                    f"{cell(provider, client, rw, MIB, n_ssds).bandwidth_gib:.2f}"
                    for rw in WORKLOADS
                ])
        sections.append(table.render())

    for label, provider in [("5c TCP", "tcp"), ("5d RDMA", "rdma")]:
        table = Table(
            f"Fig. {label}: DFS 4 KiB IOPS [K]",
            ["RR", "RW"],
            row_header="client",
        )
        for client in ["host", "dpu"]:
            table.add_row(client, [
                f"{cell(provider, client, rw, 4 * KIB, 1).kiops:.0f}"
                for rw in ["randread", "randwrite"]
            ])
        sections.append(table.render())

    checks = [
        ("fig5.host.tcp.read.1mib.1ssd", cell("tcp", "host", "read", MIB, 1).bandwidth),
        ("fig5.host.tcp.read.1mib.4ssd", cell("tcp", "host", "read", MIB, 4).bandwidth),
        ("fig5.host.tcp.4k", cell("tcp", "host", "randread", 4 * KIB, 1).iops),
        ("fig5.dpu.tcp.read.1mib.1ssd", cell("tcp", "dpu", "read", MIB, 1).bandwidth),
        ("fig5.dpu.tcp.write.1mib.4ssd", cell("tcp", "dpu", "write", MIB, 4).bandwidth),
        ("fig5.dpu.tcp.4k", cell("tcp", "dpu", "randread", 4 * KIB, 1).iops),
        ("fig5.rdma.read.1mib.1ssd", cell("rdma", "dpu", "read", MIB, 1).bandwidth),
        ("fig5.rdma.1mib.4ssd", cell("rdma", "dpu", "read", MIB, 4).bandwidth),
        ("fig5.dpu_rdma_vs_host_ratio.4k",
         cell("rdma", "dpu", "randread", 4 * KIB, 1).iops
         / cell("rdma", "host", "randread", 4 * KIB, 1).iops),
        ("fig5.dpu_rdma_vs_dpu_tcp.4k",
         cell("rdma", "dpu", "randread", 4 * KIB, 1).iops
         / cell("tcp", "dpu", "randread", 4 * KIB, 1).iops),
        ("fig5.dpu_rdma_vs_host_ratio.1mib",
         cell("rdma", "dpu", "read", MIB, 1).bandwidth
         / cell("rdma", "host", "read", MIB, 1).bandwidth),
    ]
    lines = [describe_band(PAPER_BANDS[k], v) for k, v in checks]

    text = "\n\n".join(sections) + "\n\nPaper-vs-measured:\n" + "\n".join(lines)
    write_report(results_dir, "fig5_dfs_offload.txt", text,
                 payload={"cells": cells_payload(
                     CACHE, ["provider", "client", "rw", "bs", "n_ssds", "numjobs"])})
    print("\n" + text)
    for k, v in checks:
        assert PAPER_BANDS[k].holds(v), describe_band(PAPER_BANDS[k], v)
