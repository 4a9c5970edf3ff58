"""Workload generation: the FIO-like driver and LLM pipeline models.

* :mod:`repro.workload.patterns` — offset streams (sequential per-job
  regions, aligned uniform random).
* :mod:`repro.workload.fio` — the FIO-equivalent job runner: numjobs x
  iodepth lanes against any engine adapter (io_uring, NVMe-oF initiator,
  ROS2 data port), with ramp-up exclusion and
  IOPS/bandwidth/latency reporting.
* :mod:`repro.workload.llm` — the paper's motivation (§2.1-2.2): the
  per-node ingest-rate model ``B ~ G * r * s``, and the three LLM I/O
  phases (dataloader shuffle reads, parameter loads, checkpoints) as
  runnable workload specs.
"""

from repro.workload.fio import FioJobSpec, FioResult, run_fio
from repro.workload.mdtest import MdtestResult, MdtestSpec, run_mdtest
from repro.workload.llm import (
    CheckpointSpec,
    DataloaderSpec,
    LlmIngestModel,
    ParameterLoadSpec,
)
from repro.workload.patterns import RandomPattern, SequentialPattern

__all__ = [
    "CheckpointSpec",
    "DataloaderSpec",
    "FioJobSpec",
    "FioResult",
    "LlmIngestModel",
    "MdtestResult",
    "MdtestSpec",
    "ParameterLoadSpec",
    "RandomPattern",
    "run_fio",
    "run_mdtest",
    "SequentialPattern",
]
