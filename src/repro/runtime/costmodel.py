"""Analytic cost model for the simulated offload platform.

Calibrated to the paper's testbed shape (NVIDIA A100 over PCIe 4.0,
CUDA 11.8, Clang 17): transfers pay a fixed launch latency plus a
bandwidth term, kernels pay a launch overhead plus work divided by an
effective device throughput, host work runs at host throughput.

Absolute values are not the point — the *ratios* are: data transfer
must dominate unoptimized runs (paper Figs. 5/6 show 16x/2.9x/5.7x
end-to-end speedups from mapping changes alone), so per-byte transfer
cost is large relative to per-operation compute cost, as on the real
machine.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CostModel:
    """Time parameters (seconds) of the simulated platform."""

    #: Fixed cost of one cudaMemcpy call (driver + PCIe latency).
    memcpy_latency_s: float = 10e-6
    #: Effective host<->device bandwidth (PCIe 4.0 x16 ~ 25 GB/s).
    memcpy_bandwidth_Bps: float = 25e9
    #: Fixed cost of one kernel launch.
    kernel_launch_s: float = 8e-6
    #: Effective per-work-unit time on the device (massively parallel).
    device_op_s: float = 1.5e-9
    #: Effective per-work-unit time on the host (single thread).
    host_op_s: float = 12e-9

    def memcpy_time(self, nbytes: int) -> float:
        """Modelled wall time of one host<->device copy."""
        if nbytes < 0:
            raise ValueError("negative transfer size")
        return self.memcpy_latency_s + nbytes / self.memcpy_bandwidth_Bps

    def kernel_time(self, work_units: int) -> float:
        """Modelled wall time of one kernel execution."""
        return self.kernel_launch_s + work_units * self.device_op_s


#: Default platform used by the evaluation harness.
A100_PCIE4 = CostModel()
