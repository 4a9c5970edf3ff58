"""The simulator runs without NumPy.

A fresh interpreter with ``sys.modules["numpy"] = None`` (every
``import numpy`` then raises ImportError) imports every ``repro`` module,
as ``benchmarks/perf/cell.py`` does before it times a cell, then runs a
short plain RDMA 4 KiB randread Fig. 5 cell and its latency summary.  A
module-level or on-path NumPy import anywhere in the simulator fails it.
Only inline crypto (``repro.core.inline.ChaCha20``) may import NumPy,
and only when it crypts a payload.
"""

import json
import os
import subprocess
import sys

import repro

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

_CHILD = r"""
import sys
sys.modules["numpy"] = None

import importlib, json, pkgutil
from dataclasses import replace

import repro
for mod in pkgutil.walk_packages(repro.__path__, "repro."):
    importlib.import_module(mod.name)

from repro.bench import runner

system, spec = runner._build_fig5("rdma", "dpu", "randread", 4096, 4,
                                  runtime=0.002, seed=7)
result = runner.run_ros2_fio(system, replace(spec, record_latency=True))
system.env.run()
print(json.dumps(result.latency))
"""


def test_simulator_imports_and_runs_a_cell_without_numpy():
    env = dict(os.environ, PYTHONPATH=_SRC, PYTHONHASHSEED="0")
    out = subprocess.run([sys.executable, "-c", _CHILD], env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    latency = json.loads(out.stdout.strip().splitlines()[-1])
    assert latency["count"] > 0
    assert 0 < latency["p50"] <= latency["p99"] <= latency["max"]


def test_import_repro_loads_no_numpy():
    code = "import sys, repro; print('numpy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=_SRC)
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"
