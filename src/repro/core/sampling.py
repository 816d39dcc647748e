"""Flow-based traffic sampling (Section 4.5).

Tagging and verifying every packet would be prohibitive, so entry switches
sample per flow: flow ``f`` has a *sampling interval* ``T_s^f``; a packet is
marked iff at least ``T_s^f`` has elapsed since the flow's last sampled
packet.

Detection-latency dimensioning (Figure 9's worst case): with ``T_a^f`` the
maximum inter-packet gap of the flow, a fault is detected at most
``T_s^f + T_a^f`` after the first faulty packet; to guarantee a detection
latency bound ``tau`` choose ``T_s^f <= tau - T_a^f``.
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional, Tuple

__all__ = [
    "FlowSampler",
    "AlwaysSampler",
    "NeverSampler",
    "sampling_interval_for",
    "worst_case_detection_latency",
]


def sampling_interval_for(tau: float, max_inter_arrival: float) -> float:
    """Largest ``T_s`` guaranteeing detection latency ``tau``.

    Per Section 4.5: ``T_s <= tau - T_a``.  Raises if the bound is
    unachievable (the flow's gaps alone exceed the latency budget).
    """
    if tau <= 0:
        raise ValueError(f"latency budget tau must be positive, got {tau}")
    if max_inter_arrival < 0:
        raise ValueError(f"negative inter-arrival time {max_inter_arrival}")
    interval = tau - max_inter_arrival
    if interval <= 0:
        raise ValueError(
            f"detection latency {tau} unachievable: flow inter-arrival "
            f"gap {max_inter_arrival} alone exceeds it"
        )
    return interval


def worst_case_detection_latency(sampling_interval: float, max_inter_arrival: float) -> float:
    """The Figure 9 bound: a fault surfaces within ``T_s + T_a``."""
    if sampling_interval <= 0:
        raise ValueError(f"sampling interval must be positive, got {sampling_interval}")
    if max_inter_arrival < 0:
        raise ValueError(f"negative inter-arrival time {max_inter_arrival}")
    return sampling_interval + max_inter_arrival


class FlowSampler:
    """Per-flow interval sampling state, as kept by an entry switch.

    The paper's software pipeline keys flows by TCP 5-tuple in a hash table;
    the hardware pipeline uses a bounded array with last-hit eviction.  Pass
    ``capacity`` to emulate the bounded table: when full, the least recently
    *hit* flow is evicted (its next packet then looks like a new flow and is
    sampled immediately — a mild over-sampling, never under-sampling).
    """

    def __init__(
        self,
        default_interval: float = 1.0,
        capacity: Optional[int] = None,
    ) -> None:
        if default_interval <= 0:
            raise ValueError(f"sampling interval must be positive, got {default_interval}")
        if capacity is not None and capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.default_interval = default_interval
        self.capacity = capacity
        # flow -> (last sampling instant, last hit instant)
        self._state: Dict[Hashable, Tuple[float, float]] = {}
        self.sampled_count = 0
        self.seen_count = 0

    def should_sample(self, flow_key: Hashable, now: float) -> bool:
        """Algorithm of Section 4.5: mark iff ``now - t_f > T_s^f``.

        Updates the per-flow state; the first packet of a(n evicted or new)
        flow is always sampled.
        """
        self.seen_count += 1
        # Pop + reinsert on every touch: dict insertion order then *is* hit
        # recency, making eviction O(1) instead of an O(n) min-scan.
        state = self._state.pop(flow_key, None)
        if state is None:
            self._evict_if_full(now)
            self._state[flow_key] = (now, now)
            self.sampled_count += 1
            return True
        last_sampled, _ = state
        if now - last_sampled > self.default_interval:
            self._state[flow_key] = (now, now)
            self.sampled_count += 1
            return True
        self._state[flow_key] = (last_sampled, now)
        return False

    def _evict_if_full(self, now: float) -> None:
        if self.capacity is None or len(self._state) < self.capacity:
            return
        # Evict the least recently hit flow (the hardware array policy):
        # the front of the dict, since every hit moves its key to the back.
        # Same victim the old min-scan chose whenever hit instants are
        # strictly increasing; equal-instant ties can break differently
        # (the bounded-table emulation never specified tie order).
        del self._state[next(iter(self._state))]

    @property
    def sampling_rate(self) -> float:
        """Fraction of seen packets marked so far."""
        if self.seen_count == 0:
            return 0.0
        return self.sampled_count / self.seen_count


class AlwaysSampler:
    """Mark every packet — the setting used by the accuracy experiments."""

    default_interval = 0.0

    def should_sample(self, flow_key: Hashable, now: float) -> bool:
        """Every packet is sampled."""
        return True


class NeverSampler:
    """Mark nothing — disables VeriDP (baseline for overhead comparisons)."""

    default_interval = float("inf")

    def should_sample(self, flow_key: Hashable, now: float) -> bool:
        """No packet is ever sampled."""
        return False
