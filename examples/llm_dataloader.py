#!/usr/bin/env python3
"""LLM dataloader over ROS2: shuffled sample reads feeding a GPU node.

The paper's motivating workload (§2.1, Fig. 1): a training node needs
B ~ G * r * s bytes/second of shuffled samples.  This example

1. computes the required ingest rate for an 8xH100 node,
2. stores a sharded dataset through the offloaded client,
3. runs a prefetching dataloader (16 workers, random 256 KiB samples)
   with reads placed directly in GPU HBM via the GPUDirect extension,
4. reports delivered vs required bandwidth.

Run:  python examples/llm_dataloader.py
"""

from repro.core import Ros2Config, Ros2System
from repro.core.gpudirect import GpuDirectPath
from repro.hw.gpu import GpuDevice
from repro.hw.specs import GIB, GPU_BY_NAME, KIB, MIB
from repro.sim import Environment, RngStreams
from repro.workload.llm import LlmIngestModel

DATASET_BYTES = 256 * MIB  # simulated shard (stands in for terabytes)
SAMPLE_BYTES = 256 * KIB
WORKERS = 16
WINDOW = 0.1  # measured seconds


def main() -> None:
    requirement = LlmIngestModel(
        gpus_per_node=8, samples_per_gpu_per_sec=200, bytes_per_sample=2 * MIB
    )
    need = requirement.node_ingest_rate()
    print(f"required ingest (8 GPUs x 200 samp/s x 2 MiB): {need / GIB:.2f} GiB/s")

    env = Environment()
    system = Ros2System(env, Ros2Config(transport="rdma", client="dpu", n_ssds=4))
    token = system.register_tenant("trainer")
    rng = RngStreams(42).stream("dataloader")
    delivered = [0]

    def pipeline(env):
        yield from system.start()
        session = yield from system.open_session(token)
        yield from session.mkdir("/dataset")
        fh = yield from session.create("/dataset/shard-000", chunk_size=MIB)
        port = session.data_port()

        # Ingest the shard (the data-prep job).
        ctx = port.new_context("ingest")
        for off in range(0, DATASET_BYTES, MIB):
            yield from port.write(ctx, fh, off, nbytes=MIB)
        print(f"shard written: {DATASET_BYTES // MIB} MiB at t={env.now:.3f}s")

        # GPUDirect: sample reads land straight in H100 HBM (§3.5).
        gpu = GpuDevice(env, GPU_BY_NAME["H100"])
        path = GpuDirectPath(system.service, session.session_id, gpu)
        measure_from = env.now + 0.02
        n_samples = DATASET_BYTES // SAMPLE_BYTES

        def worker(env, wid):
            wctx = port.new_context(f"loader{wid}")
            while True:
                sample = rng.integers(0, n_samples)
                yield from path.read(wctx, fh, sample * SAMPLE_BYTES, SAMPLE_BYTES)
                if env.now >= measure_from:
                    delivered[0] += SAMPLE_BYTES

        for wid in range(WORKERS):
            env.process(worker(env, wid))
        yield env.timeout(0.02)  # warm-up
        delivered[0] = 0
        yield env.timeout(WINDOW)
        return delivered[0] / WINDOW

    done = env.process(pipeline(env))
    rate = env.run(until=done)
    print(f"dataloader delivered: {rate / GIB:.2f} GiB/s "
          f"({WORKERS} workers, {SAMPLE_BYTES // KIB} KiB random samples, "
          "GPUDirect placement)")
    print("requirement covered" if rate > need else "requirement NOT covered",
          f"(need {need / GIB:.2f} GiB/s)")


if __name__ == "__main__":
    main()
