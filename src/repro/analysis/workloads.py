"""Traffic workload generators.

The sampling analysis of Section 4.5 is parameterised by flow behaviour:
the maximum inter-packet gap ``T_a`` drives the sampling interval budget.
This module generates deterministic packet-arrival schedules for the three
classic shapes — constant bit-rate, Poisson, and on/off bursts — so the
detection-latency experiments and examples can run against realistic
arrival processes instead of a fixed tick grid.

A workload is an iterable of :class:`PacketEvent` (time-sorted across all
flows); ``T_a`` per flow is computable from the schedule and feeds straight
into :func:`repro.core.sampling.sampling_interval_for`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..netmodel.packet import Header
from ..topologies.base import Scenario

__all__ = [
    "PacketEvent",
    "FlowSpec",
    "cbr_arrivals",
    "poisson_arrivals",
    "onoff_arrivals",
    "merge_flows",
    "max_inter_arrival",
    "scenario_workload",
]


@dataclass(frozen=True)
class PacketEvent:
    """One packet arrival: when, whose flow, which header."""

    time: float
    src_host: str
    dst_host: str
    header: Header

    def __lt__(self, other: "PacketEvent") -> bool:
        return self.time < other.time


@dataclass(frozen=True)
class FlowSpec:
    """A flow's identity plus its arrival-process parameters.

    ``kind`` is ``"cbr"``, ``"poisson"`` or ``"onoff"``; the ``rate`` is in
    packets per second.  On/off flows burst at ``rate`` for ``on_s`` then go
    silent for ``off_s``.
    """

    src_host: str
    dst_host: str
    kind: str = "cbr"
    rate: float = 10.0
    on_s: float = 1.0
    off_s: float = 1.0
    src_port: int = 10000
    dst_port: int = 80

    def __post_init__(self) -> None:
        if self.kind not in ("cbr", "poisson", "onoff"):
            raise ValueError(f"unknown flow kind {self.kind!r}")
        if self.rate <= 0:
            raise ValueError(f"rate must be positive, got {self.rate}")
        if self.kind == "onoff" and (self.on_s <= 0 or self.off_s < 0):
            raise ValueError("onoff needs positive on_s and non-negative off_s")


def cbr_arrivals(rate: float, duration: float, start: float = 0.0) -> List[float]:
    """Constant bit-rate arrivals: strictly periodic at ``1/rate``."""
    _check(rate, duration)
    period = 1.0 / rate
    count = int(duration / period)
    return [start + (i + 1) * period for i in range(count)]


def poisson_arrivals(
    rate: float, duration: float, rng: random.Random, start: float = 0.0
) -> List[float]:
    """Poisson arrivals: exponential gaps with mean ``1/rate``."""
    _check(rate, duration)
    times: List[float] = []
    t = start
    while True:
        t += rng.expovariate(rate)
        if t - start > duration:
            return times
        times.append(t)


def onoff_arrivals(
    rate: float,
    duration: float,
    on_s: float,
    off_s: float,
    start: float = 0.0,
) -> List[float]:
    """Deterministic on/off bursts: CBR at ``rate`` during on-periods."""
    _check(rate, duration)
    if on_s <= 0 or off_s < 0:
        raise ValueError("onoff needs positive on_s and non-negative off_s")
    times: List[float] = []
    period = 1.0 / rate
    cycle_start = start
    while cycle_start - start < duration:
        t = cycle_start
        while t + period - cycle_start <= on_s:
            t += period
            if t - start > duration:
                return times
            times.append(t)
        cycle_start += on_s + off_s
    return times


def _check(rate: float, duration: float) -> None:
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    if duration <= 0:
        raise ValueError(f"duration must be positive, got {duration}")


def merge_flows(
    schedules: Sequence[Tuple[FlowSpec, Sequence[float]]],
    headers: Dict[Tuple[str, str], Header],
) -> List[PacketEvent]:
    """Time-merge per-flow schedules into one event list."""
    events: List[PacketEvent] = []
    for spec, times in schedules:
        header = headers[(spec.src_host, spec.dst_host)]
        events.extend(
            PacketEvent(t, spec.src_host, spec.dst_host, header) for t in times
        )
    events.sort(key=lambda e: (e.time, e.src_host, e.dst_host))
    return events


def max_inter_arrival(times: Sequence[float]) -> float:
    """The flow's ``T_a`` — the largest gap between consecutive packets."""
    if len(times) < 2:
        return 0.0
    ordered = sorted(times)
    return max(b - a for a, b in zip(ordered, ordered[1:]))


def scenario_workload(
    scenario: Scenario,
    specs: Sequence[FlowSpec],
    duration: float,
    seed: int = 0,
) -> Tuple[List[PacketEvent], Dict[Tuple[str, str], float]]:
    """Build a full workload for a scenario.

    Returns the merged event list and the per-flow measured ``T_a`` map —
    exactly the inputs the Section 4.5 interval-sizing rule needs.
    """
    rng = random.Random(seed)
    schedules: List[Tuple[FlowSpec, Sequence[float]]] = []
    headers: Dict[Tuple[str, str], Header] = {}
    gaps: Dict[Tuple[str, str], float] = {}
    for spec in specs:
        if spec.kind == "cbr":
            times = cbr_arrivals(spec.rate, duration)
        elif spec.kind == "poisson":
            times = poisson_arrivals(spec.rate, duration, rng)
        else:
            times = onoff_arrivals(spec.rate, duration, spec.on_s, spec.off_s)
        key = (spec.src_host, spec.dst_host)
        headers[key] = scenario.header_between(
            spec.src_host, spec.dst_host,
            src_port=spec.src_port, dst_port=spec.dst_port,
        )
        gaps[key] = max_inter_arrival(times)
        schedules.append((spec, times))
    return merge_flows(schedules, headers), gaps
