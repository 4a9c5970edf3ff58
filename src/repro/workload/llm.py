"""LLM pipeline workload models (paper §2.1-2.2 and Fig. 1).

Two pieces:

* :class:`LlmIngestModel` — the paper's per-node ingest-rate estimate
  ``B_node ~ G * r * s`` (GPUs per node x per-GPU sample rate x bytes per
  sample), used to reproduce Table 1's "implications for LLM data
  ingestion" and Fig. 1's requirements chart.
* Phase specs — the three I/O phases Fig. 1 contrasts, each expressible
  as an :class:`~repro.workload.fio.FioJobSpec` so they can be *run*
  against the ROS2 stack, not just tabulated:

  - **dataloader**: high-concurrency random reads of samples (shuffle),
  - **parameter load**: large sequential reads at job start,
  - **checkpoint**: large sequential writes on a period.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.hw.specs import GIB, GPU_GENERATIONS, KIB, MIB, GpuSpec
from repro.workload.fio import FioJobSpec

__all__ = [
    "LlmIngestModel",
    "DataloaderSpec",
    "ParameterLoadSpec",
    "CheckpointSpec",
]


@dataclass(frozen=True)
class LlmIngestModel:
    """``B_node ~ G * r * s`` (paper §2.1).

    ``samples_per_gpu_per_sec`` (r) and ``bytes_per_sample`` (s) default
    to the conservative choices the paper gestures at ("even conservative
    choices yield multi-GiB/s per node"): tokenized multimodal batches of
    ~2 MiB consumed at ~200 samples/s/GPU.
    """

    gpus_per_node: int = 8
    samples_per_gpu_per_sec: float = 200.0
    bytes_per_sample: int = 2 * MIB

    def node_ingest_rate(self) -> float:
        """Required sustained bytes/second per node."""
        return self.gpus_per_node * self.samples_per_gpu_per_sec * self.bytes_per_sample

    def scaled_to_gpu(self, gpu: GpuSpec, baseline: GpuSpec) -> "LlmIngestModel":
        """Scale the sample rate with compute throughput across generations.

        Faster GPUs consume samples proportionally faster (the paper's
        trend argument: HBM and tensor throughput growth raises the data
        rate storage must deliver).
        """
        ratio = gpu.fp16_tflops / baseline.fp16_tflops
        return LlmIngestModel(
            self.gpus_per_node,
            self.samples_per_gpu_per_sec * ratio,
            self.bytes_per_sample,
        )

    @staticmethod
    def generation_sweep() -> List[Tuple[GpuSpec, float]]:
        """Per-node ingest requirement for every Table 1 GPU generation.

        The P100 baseline consumes r = 25 samples/s/GPU on an 8-GPU node;
        later generations scale with tensor throughput.
        """
        baseline = GPU_GENERATIONS[0]
        base = LlmIngestModel(samples_per_gpu_per_sec=25.0)
        return [
            (gpu, base.scaled_to_gpu(gpu, baseline).node_ingest_rate())
            for gpu in GPU_GENERATIONS
        ]


@dataclass(frozen=True)
class DataloaderSpec:
    """Shuffled sample fetches: high-concurrency random reads (Fig. 1)."""

    sample_bytes: int = 256 * KIB
    concurrency: int = 16  # prefetch workers
    dataset_bytes: int = 1 * GIB

    def fio_spec(self, runtime: float = 0.05) -> FioJobSpec:
        """As a runnable FIO job."""
        return FioJobSpec(
            rw="randread",
            bs=self.sample_bytes,
            numjobs=min(self.concurrency, 16),
            iodepth=max(1, self.concurrency // min(self.concurrency, 16)),
            runtime=runtime,
            size=self.dataset_bytes,
        )


@dataclass(frozen=True)
class ParameterLoadSpec:
    """Job-start parameter/optimizer-state loading: large sequential reads."""

    model_bytes: int = 80 * GIB  # a sharded H100-scale checkpoint
    readers: int = 8
    block: int = 1 * MIB

    def fio_spec(self, runtime: float = 0.05) -> FioJobSpec:
        """As a runnable FIO job."""
        return FioJobSpec(
            rw="read",
            bs=self.block,
            numjobs=self.readers,
            iodepth=8,
            runtime=runtime,
            size=min(self.model_bytes // self.readers, 2 * GIB),
        )


@dataclass(frozen=True)
class CheckpointSpec:
    """Periodic asynchronous checkpointing: large sequential writes."""

    state_bytes: int = 160 * GIB
    period_sec: float = 600.0
    writers: int = 8
    block: int = 1 * MIB

    @property
    def required_write_rate(self) -> float:
        """Bytes/s needed so a checkpoint drains within one period."""
        return self.state_bytes / self.period_sec

    def fio_spec(self, runtime: float = 0.05) -> FioJobSpec:
        """As a runnable FIO job."""
        return FioJobSpec(
            rw="write",
            bs=self.block,
            numjobs=self.writers,
            iodepth=8,
            runtime=runtime,
            size=min(self.state_bytes // self.writers, 2 * GIB),
        )

