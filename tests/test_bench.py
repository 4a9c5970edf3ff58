"""Unit tests for the bench harness: report rendering, calibration bands,
and a smoke pass over each experiment builder."""

import pytest

from repro.bench.calibration import PAPER_BANDS, ShapeCheck, describe_band
from repro.bench.report import Table, format_heatmap, format_rate, render_series
from repro.bench.campaign import normalize_cell, run_cell
from repro.bench.runner import default_iodepth, run_fig3_cell, run_fig4_cell
from repro.hw.specs import KIB, MIB


# ---------------------------------------------------------------------------
# Report rendering
# ---------------------------------------------------------------------------

def test_format_rate_units():
    assert format_rate(2**30, "GiB/s").strip() == "1.00"
    assert format_rate(650_000, "KIOPS").strip() == "650.0"
    assert format_rate(1_500_000, "MIOPS").strip() == "1.500"
    assert format_rate(42.0, "widgets").strip() == "42"


def test_table_renders_aligned():
    t = Table("Demo", ["a", "b"], row_header="x")
    t.add_row("r1", ["1", "2"])
    t.add_row("row-two", ["3", "4"])
    out = t.render()
    lines = out.splitlines()
    assert lines[0] == "Demo"
    assert all(len(l) == len(lines[2]) for l in lines[2:])
    assert "row-two" in out


def test_table_rejects_wrong_width():
    t = Table("Demo", ["a", "b"])
    with pytest.raises(ValueError):
        t.add_row("r", ["only-one"])


def test_heatmap_contains_all_cells():
    values = {(r, c): float(r * 10 + c) * 2**30 for r in (1, 2) for c in (3, 4)}
    out = format_heatmap("H", "rows", "cols", (1, 2), (3, 4), values, "GiB/s")
    assert "rows" in out and "cols" in out
    assert out.count("|") == 6  # 2 separators per line, 3 data-bearing lines
    assert "13.00" in out and "24.00" in out


def test_render_series_shape():
    out = render_series("S", "jobs", [1, 2], {"read": [1e9, 2e9]}, "GiB/s")
    assert "jobs" in out and "read" in out


# ---------------------------------------------------------------------------
# Calibration bands
# ---------------------------------------------------------------------------

def test_shape_check_holds():
    c = ShapeCheck("x", 1.0, 2.0, "test")
    assert c.holds(1.5) and c.holds(1.0) and c.holds(2.0)
    assert not c.holds(0.99) and not c.holds(2.01)


def test_check_band_and_describe():
    assert PAPER_BANDS["fig3.4k.1job"].holds(80e3)
    msg = describe_band(PAPER_BANDS["fig3.4k.1job"], 80e3)
    assert msg.startswith("[OK ]")
    msg = describe_band(PAPER_BANDS["fig3.4k.1job"], 1.0)
    assert msg.startswith("[OUT]")


def test_every_band_cites_the_paper():
    for key, band in PAPER_BANDS.items():
        assert band.source, key
        assert band.lo < band.hi, key


def test_bands_cover_all_three_figures():
    prefixes = {k.split(".")[0] for k in PAPER_BANDS}
    assert prefixes == {"fig3", "fig4", "fig5"}


# ---------------------------------------------------------------------------
# Experiment builders (one cheap cell each)
# ---------------------------------------------------------------------------

def test_default_iodepth():
    assert default_iodepth(4 * KIB) == 16
    assert default_iodepth(MIB) == 8


def test_fig3_cell_smoke():
    r = run_fig3_cell("read", MIB, 1, runtime=0.02)
    assert PAPER_BANDS["fig3.1ssd.read.1mib"].holds(r.bandwidth)


def test_fig4_cell_smoke():
    r = run_fig4_cell("ucx+rc", "read", MIB, 2, 2, runtime=0.02)
    assert r.bandwidth > 4 * 2**30


def _fig5(transport, client, rw, bs, numjobs, runtime):
    """An unobserved Fig. 5 cell's result, as the Fig. 5 bench runs it."""
    return run_cell(normalize_cell({
        "observe": False, "transport": transport, "client": client,
        "rw": rw, "bs": bs, "numjobs": numjobs, "runtime": runtime})).result


def test_fig5_cell_smoke():
    r = _fig5("rdma", "host", "read", MIB, 2, runtime=0.05)
    assert PAPER_BANDS["fig5.rdma.read.1mib.1ssd"].holds(r.bandwidth)


def test_fig5_dpu_tcp_rx_bottleneck_cell():
    r = _fig5("tcp", "dpu", "read", MIB, 8, runtime=0.1)
    assert PAPER_BANDS["fig5.dpu.tcp.read.1mib.1ssd"].holds(r.bandwidth)
