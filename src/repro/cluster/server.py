"""Server SKUs for cluster simulation.

The paper's evaluation servers are two-socket machines (Intel Skylake 8157M
with 2 x 384 GB, AMD EPYC 7452 with 2 x 512 GB).  :class:`ServerConfig`
describes one SKU's shape; the cluster simulator keeps per-server and
per-NUMA-node usage in the struct-of-arrays placement engine
(:mod:`repro.cluster.engine`) rather than in per-server objects.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ServerConfig"]


@dataclass(frozen=True)
class ServerConfig:
    """Hardware shape of one server SKU."""

    name: str = "two-socket-192"
    sockets: int = 2
    cores_per_socket: int = 24
    dram_per_socket_gb: float = 192.0

    def __post_init__(self) -> None:
        if self.sockets < 1:
            raise ValueError("a server needs at least one socket")
        if self.cores_per_socket < 1:
            raise ValueError("cores_per_socket must be >= 1")
        if self.dram_per_socket_gb <= 0:
            raise ValueError("dram_per_socket_gb must be positive")

    @property
    def total_cores(self) -> int:
        return self.sockets * self.cores_per_socket

    @property
    def total_dram_gb(self) -> float:
        return self.sockets * self.dram_per_socket_gb

    @property
    def dram_per_core_gb(self) -> float:
        return self.total_dram_gb / self.total_cores
