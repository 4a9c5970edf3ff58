"""A cell's peak memory does not grow with its simulated window.

Runs two plain RDMA DPU Fig. 5 cells and one observed TCP cell, each at
a short and a long window, each in a fresh process of ``python -m
repro.bench.cli`` that imports the simulator from this checkout's
``src/``:

* the plain 4 KiB random-read cell at 0.01 s and 0.04 s;
* the plain 1 MiB sequential-write cell on 4 SSDs at 0.25 s and 1.0 s;
* the observed 4 KiB random-read cell on DPU-TCP (``doctor --quick``:
  the wait tracer and 1-in-20 request spans on) at 0.02 s and 0.16 s.

A finished request frees itself, a written extent is a row of ints and a
latency sample is 8 bytes, so a plain cell's memory follows the requests
in flight: the longer window may peak at most 2 MiB higher.  An observed
cell keeps what its sampled requests leave, a row per finished span and
per wait record, so its longer window may peak at most 5 KiB higher per
sampled request it adds (the doctor's ``wait_records.traces``): ~3.7 KiB
with rows, ~9.8 KiB when each was an object.  ``os.wait4`` reads each
child's own peak RSS (``RUSAGE_CHILDREN`` would keep the largest child
so far).  Exits 1 when a cell grows past its bound::

    python3 benchmarks/peak_rss_growth.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from typing import List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: How much higher a plain cell's long window may peak, in MiB.
MAX_GROWTH_MIB = 2.0

#: How much higher the observed cell's long window may peak per sampled
#: request it adds, in KiB.
MAX_KIB_PER_SAMPLED = 5.0

#: name -> (plain ``fig5`` cell flags, (short window, long window)) in
#: seconds.
CELLS = {
    "4 KiB read": (["--rw", "randread", "--bs", "4k", "--jobs", "16",
                    "--ssds", "1"], ("0.01", "0.04")),
    "1 MiB write": (["--rw", "write", "--bs", "1m", "--jobs", "8",
                     "--ssds", "4"], ("0.25", "1.0")),
}

#: The observed cell's ``doctor`` flags and its two windows.
OBSERVED = (["doctor", "--transport", "tcp", "--client", "dpu", "--rw",
             "randread", "--bs", "4k", "--jobs", "16", "--ssds", "1",
             "--quick"], ("0.02", "0.16"))


def peak_rss_mib(args: List[str]) -> float:
    """Peak RSS of one fresh ``python -m repro.bench.cli`` process."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    child = subprocess.Popen(
        [sys.executable, "-m", "repro.bench.cli", *args],
        stdout=subprocess.DEVNULL, env=env)
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)
    if child.returncode != 0:
        raise SystemExit(f"{args} exited {child.returncode}")
    return usage.ru_maxrss / 1024


def plain_peak(args: List[str], runtime: str) -> float:
    return peak_rss_mib(["fig5", "--transport", "rdma", "--client", "dpu",
                         *args, "--runtime", runtime])


def observed_peak(runtime: str) -> Tuple[float, int]:
    """``(peak RSS, sampled requests)`` of the observed cell."""
    args, _ = OBSERVED
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "doctor.json")
        peak = peak_rss_mib([*args, "--runtime", runtime, "--json-out", out])
        with open(out) as fh:
            return peak, json.load(fh)["wait_records"]["traces"]


def main() -> int:
    failed = []
    for name, (args, (short, long)) in CELLS.items():
        low, high = plain_peak(args, short), plain_peak(args, long)
        grew = high - low
        print(f"{name}: peak RSS {low:.1f} MiB at {short} s, "
              f"{high:.1f} MiB at {long} s ({grew:+.1f})")
        if grew > MAX_GROWTH_MIB:
            failed.append(f"{name}: peak RSS grew {grew:.1f} MiB with the "
                          f"window (bound {MAX_GROWTH_MIB:.0f} MiB)")
    short, long = OBSERVED[1]
    (low, n_low), (high, n_high) = observed_peak(short), observed_peak(long)
    per = (high - low) * 1024 / max(1, n_high - n_low)
    print(f"observed 4 KiB read: peak RSS {low:.1f} MiB at {short} s "
          f"({n_low} sampled), {high:.1f} MiB at {long} s ({n_high} "
          f"sampled): {per:.2f} KiB per sampled request")
    if per > MAX_KIB_PER_SAMPLED:
        failed.append(f"observed 4 KiB read: peak RSS grew {per:.2f} KiB "
                      f"per sampled request (bound "
                      f"{MAX_KIB_PER_SAMPLED:.0f} KiB)")
    for line in failed:
        print(f"FAIL {line}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
