#!/usr/bin/env python3
"""Reproduce the paper's headline takeaway interactively.

Runs the same FIO workload (1 MiB sequential reads and 4 KiB random
reads) over every configuration axis of Fig. 5 — TCP vs RDMA, host vs
BlueField-3 client — and prints the comparison that motivates the paper:
RDMA makes SmartNIC offload performance-equivalent; TCP does not.

Run:  python examples/transport_comparison.py
"""

from repro.bench.campaign import normalize_cell, run_cell
from repro.hw.specs import KIB, MIB


def fig5(provider, client, rw, bs, numjobs):
    """One unobserved Fig. 5 cell, as the ``fig5`` subcommand runs it."""
    config = normalize_cell({"observe": False, "transport": provider,
                             "client": client, "rw": rw, "bs": bs,
                             "numjobs": numjobs})
    return run_cell(config).result


def main() -> None:
    print("DFS end-to-end (1 SSD), 8 jobs @ 1 MiB sequential read:")
    large = {}
    for provider in ["tcp", "rdma"]:
        for client in ["host", "dpu"]:
            r = fig5(provider, client, "read", MIB, 8)
            large[(provider, client)] = r.bandwidth_gib
            print(f"  {provider:4s} / {client:4s}: {r.bandwidth_gib:6.2f} GiB/s")

    print("\nDFS end-to-end (1 SSD), 16 jobs @ 4 KiB random read:")
    small = {}
    for provider in ["tcp", "rdma"]:
        for client in ["host", "dpu"]:
            r = fig5(provider, client, "randread", 4 * KIB, 16)
            small[(provider, client)] = r.kiops
            print(f"  {provider:4s} / {client:4s}: {r.kiops:7.1f} K IOPS")

    print("\nTakeaways (paper §4.4):")
    eq = large[("rdma", "dpu")] / large[("rdma", "host")]
    print(f"  (i)  RDMA offload is performance-equivalent at 1 MiB: "
          f"DPU/host = {eq:.2f}")
    drop = large[("tcp", "dpu")] / large[("tcp", "host")]
    print(f"  (ii) the DPU TCP receive path is unsuitable for reads: "
          f"DPU/host = {drop:.2f}")
    gain = small[("rdma", "dpu")] / small[("tcp", "dpu")]
    print(f"  (iii) on the DPU, RDMA gives {gain:.1f}x the TCP small-I/O rate "
          "-> RDMA-first is the right deployment")


if __name__ == "__main__":
    main()
