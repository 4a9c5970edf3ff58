"""A cell's peak memory does not grow with its simulated window.

Runs two plain RDMA DPU Fig. 5 cells, each at a short and a long window,
each in a fresh process of ``python -m repro.bench.cli fig5`` that
imports the simulator from this checkout's ``src/``:

* the 4 KiB random-read cell at 0.01 s and 0.04 s;
* the 1 MiB sequential-write cell on 4 SSDs at 0.25 s and 1.0 s.

A finished request frees itself, a written extent is a row of ints and a
latency sample is 8 bytes, so memory follows the requests in flight: the
longer window may peak at most 2 MiB higher.  ``os.wait4`` reads each
child's own peak RSS (``RUSAGE_CHILDREN`` would keep the largest child so
far).  Exits 1 when a cell grows past the bound::

    python3 benchmarks/peak_rss_growth.py
"""

from __future__ import annotations

import os
import subprocess
import sys
from typing import List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: How much higher the long window may peak, in MiB.
MAX_GROWTH_MIB = 2.0

#: name -> (cell flags, (short window, long window)) in seconds.
CELLS = {
    "4 KiB read": (["--rw", "randread", "--bs", "4k", "--jobs", "16",
                    "--ssds", "1"], ("0.01", "0.04")),
    "1 MiB write": (["--rw", "write", "--bs", "1m", "--jobs", "8",
                     "--ssds", "4"], ("0.25", "1.0")),
}


def peak_rss_mib(args: List[str], runtime: str) -> float:
    """Peak RSS of one fresh ``fig5`` process running the cell."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    child = subprocess.Popen(
        [sys.executable, "-m", "repro.bench.cli", "fig5", "--transport",
         "rdma", "--client", "dpu", *args, "--runtime", runtime],
        stdout=subprocess.DEVNULL, env=env)
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)
    if child.returncode != 0:
        raise SystemExit(f"{args} at {runtime} s exited {child.returncode}")
    return usage.ru_maxrss / 1024


def main() -> int:
    failed = []
    for name, (args, (short, long)) in CELLS.items():
        low, high = peak_rss_mib(args, short), peak_rss_mib(args, long)
        grew = high - low
        print(f"{name}: peak RSS {low:.1f} MiB at {short} s, "
              f"{high:.1f} MiB at {long} s ({grew:+.1f})")
        if grew > MAX_GROWTH_MIB:
            failed.append(f"{name}: peak RSS grew {grew:.1f} MiB with the "
                          f"window (bound {MAX_GROWTH_MIB:.0f} MiB)")
    for line in failed:
        print(f"FAIL {line}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
