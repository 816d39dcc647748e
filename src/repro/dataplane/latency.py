"""Hardware pipeline latency model (the Table 4 substitute).

The paper measures per-packet processing delay on ONetSwitch, an FPGA switch
clocked at 125 MHz, by counting CPU cycles: ``T = c * 0.008 us``.  We have no
FPGA, so we model the three pipeline components with cycle costs:

* the **native OpenFlow pipeline** is store-and-forward: a fixed lookup cost
  plus a per-byte streaming cost.  The default calibration interpolates the
  paper's measured native delays (128 B -> 4.32 us ... 1500 B -> 36.68 us),
  so the baseline row of Table 4 is reproduced exactly at the measured
  sizes and sensibly in between;
* the **sampling module** hashes the 5-tuple and probes the flow array —
  a size-independent ~19 cycles (0.15 us);
* the **tagging module** computes the hop Bloom filter and ORs it into the
  VLAN tag — a size-independent ~34 cycles (0.27 us).

The *shape* claims of Table 4 — both VeriDP stages constant in packet size,
overhead ratios shrinking as packets grow, tagging ≈ 2x sampling — follow
from the structure, not the calibration, which is the point of the
reproduction.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

__all__ = ["HardwarePipelineModel", "PAPER_NATIVE_POINTS", "PAPER_PACKET_SIZES"]

#: Packet sizes (bytes) reported in Table 4.
PAPER_PACKET_SIZES: Tuple[int, ...] = (128, 256, 512, 1024, 1500)

#: The paper's measured native OpenFlow pipeline delays, in microseconds.
PAPER_NATIVE_POINTS: Tuple[Tuple[int, float], ...] = (
    (128, 4.32),
    (256, 7.33),
    (512, 19.89),
    (1024, 26.21),
    (1500, 36.68),
)

#: FPGA clock period in microseconds (125 MHz).
CYCLE_US = 0.008


@dataclass
class HardwarePipelineModel:
    """Cycle-level delay model of the ONetSwitch pipelines.

    ``sampling_cycles``/``tagging_cycles`` default to the paper's measured
    constants (~0.15 us and ~0.27 us at 125 MHz).  Native delay is linearly
    interpolated between calibration points and linearly extrapolated
    outside them.
    """

    sampling_cycles: int = 19
    tagging_cycles: int = 34
    native_points: Sequence[Tuple[int, float]] = PAPER_NATIVE_POINTS

    def __post_init__(self) -> None:
        if self.sampling_cycles <= 0 or self.tagging_cycles <= 0:
            raise ValueError("cycle costs must be positive")
        points = sorted(self.native_points)
        if len(points) < 2:
            raise ValueError("need at least two native calibration points")
        if any(size <= 0 for size, _ in points):
            raise ValueError("calibration sizes must be positive")
        self._sizes = [size for size, _ in points]
        self._delays = [delay for _, delay in points]

    # -- per-component delays ----------------------------------------------

    def native_delay(self, packet_size: int) -> float:
        """Native OpenFlow pipeline delay (us) for one packet."""
        if packet_size <= 0:
            raise ValueError(f"packet size must be positive, got {packet_size}")
        sizes, delays = self._sizes, self._delays
        if packet_size <= sizes[0]:
            i = 0
        elif packet_size >= sizes[-1]:
            i = len(sizes) - 2
        else:
            i = bisect.bisect_right(sizes, packet_size) - 1
        x0, x1 = sizes[i], sizes[i + 1]
        y0, y1 = delays[i], delays[i + 1]
        return y0 + (y1 - y0) * (packet_size - x0) / (x1 - x0)

    def sampling_delay(self, packet_size: int) -> float:
        """VeriDP sampling module delay (us) — size-independent by design."""
        if packet_size <= 0:
            raise ValueError(f"packet size must be positive, got {packet_size}")
        return self.sampling_cycles * CYCLE_US

    def tagging_delay(self, packet_size: int) -> float:
        """VeriDP tagging module delay (us) — size-independent by design."""
        if packet_size <= 0:
            raise ValueError(f"packet size must be positive, got {packet_size}")
        return self.tagging_cycles * CYCLE_US

    # -- Table 4 assembly --------------------------------------------------

    def sampling_overhead(self, packet_size: int) -> float:
        """``T2 / T1`` of Table 4 (fractional, not percent)."""
        return self.sampling_delay(packet_size) / self.native_delay(packet_size)

    def tagging_overhead(self, packet_size: int) -> float:
        """``T3 / T1`` of Table 4 (fractional, not percent)."""
        return self.tagging_delay(packet_size) / self.native_delay(packet_size)

    def table4_rows(
        self, sizes: Sequence[int] = PAPER_PACKET_SIZES
    ) -> Dict[str, List[float]]:
        """The full Table 4 as column lists keyed by row name."""
        return {
            "native_us": [round(self.native_delay(s), 2) for s in sizes],
            "sampling_us": [round(self.sampling_delay(s), 2) for s in sizes],
            "sampling_overhead_pct": [
                round(100 * self.sampling_overhead(s), 2) for s in sizes
            ],
            "tagging_us": [round(self.tagging_delay(s), 2) for s in sizes],
            "tagging_overhead_pct": [
                round(100 * self.tagging_overhead(s), 2) for s in sizes
            ],
        }
