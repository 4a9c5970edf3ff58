"""ROS2: the RDMA-first, SmartNIC-offloaded object-storage client (the
paper's contribution, §3).

* :mod:`repro.core.control_plane` — the gRPC-style control plane: session
  setup, authentication, namespace/DFS metadata operations, capability
  exchange (§3.2 "control plane").
* :mod:`repro.core.data_plane` — the high-throughput data plane: fabric
  binding, DPU DRAM buffer staging, per-I/O accounting (§3.2 "data plane").
* :mod:`repro.core.offload` — POSIX-on-DPU: the DFS client service
  resident on the BlueField-3, which the host only launches jobs against.
* :mod:`repro.core.tenant` — multi-tenant isolation: per-tenant protection
  domains/QPs, short-lived scoped rkeys, token-bucket rate limits (§2.3,
  §5).
* :mod:`repro.core.inline` — DPU-resident inline services: ChaCha20
  encryption/decryption close to the NIC (§ Abstract, §5).
* :mod:`repro.core.gpudirect` — the optional GPUDirect RDMA placement
  extension (§3.5), implemented so it can be measured.
* :mod:`repro.core.ros2` — system assembly: one call builds the paper's
  testbed in any evaluated configuration.
"""

from repro.core.control_plane import (
    GrpcChannel,
    GrpcError,
    GrpcServer,
    StatusCode,
)
from repro.core.data_plane import DataPlane
from repro.core.gpudirect import GpuDirectPath, StagedGpuPath
from repro.core.inline import ChaCha20, InlineCrypto
from repro.core.offload import Ros2ClientService, Ros2Session
from repro.core.qos import QosScheduler
from repro.core.ros2 import Ros2Config, Ros2System
from repro.core.telemetry import SystemReport, snapshot
from repro.core.tenant import TenantManager, TokenBucket

__all__ = [
    "ChaCha20",
    "DataPlane",
    "GpuDirectPath",
    "GrpcChannel",
    "GrpcError",
    "GrpcServer",
    "InlineCrypto",
    "QosScheduler",
    "Ros2ClientService",
    "Ros2Config",
    "Ros2Session",
    "Ros2System",
    "snapshot",
    "StagedGpuPath",
    "StatusCode",
    "SystemReport",
    "TenantManager",
    "TokenBucket",
]
