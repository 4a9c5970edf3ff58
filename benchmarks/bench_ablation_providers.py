"""Ablation: the five fabric provider strings of §3.2.

DAOS configures one provider per engine (ofi+tcp;ofi_rxm, ucx+tcp,
ucx+rc, ucx+dc_x, ofi+verbs;ofi_rxm) and clients must match.  The paper
treats providers within a family as interchangeable; this bench verifies
our registry behaves the same way: both TCP bindings perform alike, all
three verbs bindings perform alike, and the family split is the whole
story.
"""

import pytest
from conftest import CellCache, write_report

from repro.bench.campaign import normalize_cell, run_cell
from repro.bench.report import Table
from repro.hw.specs import GIB, KIB, MIB
from repro.net.fabric import list_providers, resolve_provider

CACHE = CellCache()
PROVIDERS = list(list_providers())


def cell(provider: str):
    return CACHE.get_or_run(
        (provider,),
        lambda: run_cell(normalize_cell({
            "observe": False, "transport": provider, "client": "host",
            "rw": "randread", "bs": 4 * KIB, "numjobs": 8,
            "runtime": 0.02})).result,
    )


@pytest.mark.parametrize("provider", PROVIDERS)
def test_provider(benchmark, provider):
    result = benchmark.pedantic(lambda: cell(provider), rounds=1, iterations=1)
    assert result.total_ios > 0


def test_providers_report(benchmark, results_dir):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    table = Table(
        "Ablation: provider bindings (DFS 4 KiB randread, host client, 8 jobs)",
        ["family", "KIOPS"],
        row_header="provider",
    )
    by_family = {"tcp": [], "rdma": []}
    for provider in PROVIDERS:
        r = cell(provider)
        family = resolve_provider(provider).family
        by_family[family].append(r.iops)
        table.add_row(provider, [family, f"{r.kiops:.1f}"])

    def spread(vals):
        return (max(vals) - min(vals)) / max(vals)

    tcp_spread, rdma_spread = spread(by_family["tcp"]), spread(by_family["rdma"])
    gap = min(by_family["rdma"]) / max(by_family["tcp"])
    lines = [
        f"[{'OK ' if tcp_spread < 0.05 else 'OUT'}] TCP bindings equivalent "
        f"(spread {tcp_spread * 100:.1f}%)",
        f"[{'OK ' if rdma_spread < 0.05 else 'OUT'}] verbs bindings equivalent "
        f"(spread {rdma_spread * 100:.1f}%)",
        f"[{'OK ' if gap > 1.2 else 'OUT'}] the family split is the whole story "
        f"(worst verbs {gap:.2f}x best TCP)",
    ]
    text = table.render() + "\n\n" + "\n".join(lines)
    write_report(results_dir, "ablation_providers.txt", text)
    print("\n" + text)
    assert tcp_spread < 0.05 and rdma_spread < 0.05
    assert gap > 1.2
