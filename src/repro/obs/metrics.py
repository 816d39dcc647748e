"""A zero-dependency metrics registry for the VeriDP monitoring plane.

VeriDP is pitched as *continuous* monitoring (Section 3 of the paper), so
the monitor's own runtime state — ingestion rates, queue pressure, verify
verdicts, localization outcomes, supervisor restarts — is first-class
output, not an ad-hoc ``stats()`` dict.  This module supplies the storage
layer; :mod:`repro.obs.exposition` renders it, and
:mod:`repro.obs.httpd` serves it.

Three primitive kinds, mirroring the Prometheus data model:

* :class:`Counter`   — monotonically increasing totals,
* :class:`Gauge`     — point-in-time values that go both ways,
* :class:`Histogram` — fixed-bucket latency/size distributions.

Each is a *family* that may carry labels; ``family.labels("a", "b")``
returns a cached child bound to one label-value tuple, so hot paths pay a
dict hit once and an integer add per update.

Two sourcing modes coexist deliberately:

* **stored** instruments own their value (used by the replica owners'
  folded families, span aggregation and tests),
* **callback** instruments evaluate a function at collection time, so a
  component whose hot path already maintains a plain-int counter (for
  example :class:`repro.core.verifier.Verifier`'s verdict counts) can be
  exposed with *zero* added cost on the fast path — the registry is the
  single exposition surface either way.  Re-registering a callback
  instrument replaces the callback ("latest owner wins"), which is what a
  daemon attaching to an already-instrumented server wants.

Snapshots (:meth:`MetricsRegistry.snapshot`) are plain-data and picklable.
Nothing ships a registry across a process boundary: a shard worker or a
cluster node keeps no metrics, and its owner folds the plain figures each
batch reply carries into families registered here
(:class:`repro.core.replica.VerdictFamilies`).
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsSnapshot",
    "DEFAULT_BUCKETS",
    "IO_BUCKETS",
]

#: Default histogram buckets (seconds): microsecond-scale verification up
#: to multi-second maintenance operations.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1e-6, 2.5e-6, 5e-6,
    1e-5, 2.5e-5, 5e-5,
    1e-4, 2.5e-4, 5e-4,
    1e-3, 2.5e-3, 5e-3,
    1e-2, 2.5e-2, 5e-2,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Buckets for storage I/O latencies (seconds): fsync on a warm page cache
#: lands in the tens of microseconds; snapshot writes and cold fsyncs can
#: reach tens of milliseconds, and a stalled disk far beyond.
IO_BUCKETS: Tuple[float, ...] = (
    1e-5, 2.5e-5, 5e-5,
    1e-4, 2.5e-4, 5e-4,
    1e-3, 2.5e-3, 5e-3,
    1e-2, 2.5e-2, 5e-2,
    0.1, 0.25, 0.5, 1.0, 5.0, 30.0,
)

LabelKey = Tuple[str, ...]


def _coerce_label_key(
    labelnames: Tuple[str, ...], args: Sequence[str], kwargs: Dict[str, str]
) -> LabelKey:
    """Resolve positional/keyword label values into the canonical tuple."""
    if kwargs:
        if args:
            raise ValueError("pass label values positionally or by name, not both")
        try:
            return tuple(str(kwargs[name]) for name in labelnames)
        except KeyError as exc:
            raise ValueError(f"missing label {exc} (need {labelnames})") from None
    if len(args) != len(labelnames):
        raise ValueError(
            f"expected {len(labelnames)} label value(s) {labelnames}, got {len(args)}"
        )
    return tuple(str(v) for v in args)


class _Child:
    """One (family, label-values) series; updates are O(1) under one lock."""

    __slots__ = ("_metric", "_key")

    def __init__(self, metric: "_Metric", key: LabelKey) -> None:
        self._metric = metric
        self._key = key


class _CounterChild(_Child):
    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up (amount={amount})")
        metric = self._metric
        with metric._lock:
            metric._values[self._key] = metric._values.get(self._key, 0) + amount

    @property
    def value(self) -> float:
        metric = self._metric
        with metric._lock:
            return metric._values.get(self._key, 0)


class _GaugeChild(_Child):
    def set(self, value: float) -> None:
        metric = self._metric
        with metric._lock:
            metric._values[self._key] = value

    def inc(self, amount: float = 1) -> None:
        metric = self._metric
        with metric._lock:
            metric._values[self._key] = metric._values.get(self._key, 0) + amount

    @property
    def value(self) -> float:
        metric = self._metric
        with metric._lock:
            return metric._values.get(self._key, 0)


class _HistogramChild(_Child):
    """Caches lock, bounds and the state list: ``observe`` is on the
    daemon's per-batch path, and every indirection it skips is a likely
    cache miss there (the obs-overhead bench gates the total)."""

    __slots__ = ("_lock", "_buckets", "_state")

    def __init__(self, metric: "_Metric", key: LabelKey) -> None:
        super().__init__(metric, key)
        self._lock = metric._lock
        self._buckets = metric.buckets
        # Constructed under metric._lock (via labels()), so the get-or-create
        # is race-free; eager creation keeps the series visible from birth.
        state = metric._values.get(key)
        if state is None:
            state = [[0] * (len(metric.buckets) + 1), 0.0]
            metric._values[key] = state
        self._state = state

    def observe(self, value: float) -> None:
        state = self._state
        with self._lock:
            # bisect_left finds the first bucket bound >= value, matching
            # Prometheus ``le`` (less-or-equal) semantics exactly at the
            # boundary; beyond the last bound lands in the +Inf slot.
            state[0][bisect_left(self._buckets, value)] += 1
            state[1] += value

    @property
    def count(self) -> int:
        with self._lock:
            return sum(self._state[0])

    @property
    def sum(self) -> float:
        with self._lock:
            return self._state[1]


class _Metric:
    """Base family: a named, typed, optionally-labelled set of series."""

    kind = "untyped"
    _child_cls = _Child

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: Tuple[str, ...],
        callback: Optional[Callable] = None,
    ) -> None:
        self.name = name
        self.help = help
        self.labelnames = labelnames
        self._callback = callback
        self._lock = threading.Lock()
        self._values: Dict[LabelKey, object] = {}
        self._children: Dict[LabelKey, _Child] = {}

    def labels(self, *args, **kwargs) -> _Child:
        if self._callback is not None:
            raise ValueError(f"{self.name} is callback-sourced; it cannot be set")
        key = _coerce_label_key(self.labelnames, args, kwargs)
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.setdefault(key, self._child_cls(self, key))
        return child

    def _default(self) -> _Child:
        if self.labelnames:
            raise ValueError(f"{self.name} has labels {self.labelnames}; use .labels()")
        return self.labels()

    def _collect(self) -> Dict[LabelKey, object]:
        """Materialise current values (invoking the callback if sourced so)."""
        if self._callback is not None:
            produced = self._callback()
            if isinstance(produced, dict):
                out = {}
                for key, value in produced.items():
                    if not isinstance(key, tuple):
                        key = (str(key),)
                    if len(key) != len(self.labelnames):
                        raise ValueError(
                            f"{self.name}: callback key {key!r} does not match "
                            f"labels {self.labelnames}"
                        )
                    out[tuple(str(k) for k in key)] = value
                return out
            if self.labelnames:
                raise ValueError(
                    f"{self.name}: labelled callback must return a dict"
                )
            return {(): produced}
        with self._lock:
            return {
                key: (list(value[0]), value[1]) if self.kind == "histogram" else value
                for key, value in self._values.items()
            }


class Counter(_Metric):
    kind = "counter"
    _child_cls = _CounterChild

    def inc(self, amount: float = 1) -> None:
        self._default().inc(amount)

    @property
    def value(self) -> float:
        return self._default().value


class Gauge(_Metric):
    kind = "gauge"
    _child_cls = _GaugeChild

    def set(self, value: float) -> None:
        self._default().set(value)

    def inc(self, amount: float = 1) -> None:
        self._default().inc(amount)

    @property
    def value(self) -> float:
        return self._default().value


class Histogram(_Metric):
    kind = "histogram"
    _child_cls = _HistogramChild

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: Tuple[str, ...],
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        callback: Optional[Callable] = None,
    ) -> None:
        bucket_tuple = tuple(sorted(float(b) for b in buckets))
        if not bucket_tuple:
            raise ValueError("histogram needs at least one bucket bound")
        if len(set(bucket_tuple)) != len(bucket_tuple):
            raise ValueError(f"duplicate bucket bounds in {bucket_tuple}")
        super().__init__(name, help, labelnames, callback)
        self.buckets = bucket_tuple

    def observe(self, value: float) -> None:
        self._default().observe(value)


class MetricsSnapshot:
    """A picklable point-in-time copy of a registry's series.

    ``metrics`` is a list of plain dicts — safe to ship over a
    ``multiprocessing`` queue, dump to JSON, or diff in tests.  Histogram
    values are ``(per_bucket_counts, sum)`` with *non-cumulative* bucket
    counts; the Prometheus renderer cumulates at exposition time.
    """

    __slots__ = ("metrics",)

    def __init__(self, metrics: List[dict]) -> None:
        self.metrics = metrics

    def get(self, name: str) -> Optional[dict]:
        for metric in self.metrics:
            if metric["name"] == name:
                return metric
        return None

    def value(self, name: str, labels: LabelKey = (), default=0):
        """One series' value; histograms return ``{"counts", "sum", "count"}``."""
        metric = self.get(name)
        if metric is None:
            return default
        value = metric["values"].get(tuple(str(v) for v in labels))
        if value is None:
            return default
        if metric["kind"] == "histogram":
            counts, total = value
            return {"counts": list(counts), "sum": total, "count": sum(counts)}
        return value

    def total(self, name: str, default=0):
        """Sum of every series in a family (counters/gauges only)."""
        metric = self.get(name)
        if metric is None or not metric["values"]:
            return default
        if metric["kind"] == "histogram":
            raise ValueError(f"{name} is a histogram; total() is ambiguous")
        return sum(metric["values"].values())


class MetricsRegistry:
    """Thread-safe home of every metric family, in registration order.

    ``counter()``/``gauge()``/``histogram()`` are get-or-create: asking for
    an existing name with a matching kind returns the existing family
    (passing a new ``callback`` rebinds it — latest owner wins), so a
    server and the daemon wrapping it can share one registry without
    coordination.  A kind or bucket mismatch is a programming error and
    raises ``ValueError``.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[str, _Metric] = {}

    # -- registration ------------------------------------------------------

    def _register(self, cls, name, help, labelnames, callback, **extra) -> _Metric:
        labelnames = tuple(labelnames)
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if existing.kind != cls.kind:
                    raise ValueError(
                        f"{name} already registered as {existing.kind}, "
                        f"not {cls.kind}"
                    )
                if existing.labelnames != labelnames:
                    raise ValueError(
                        f"{name} already registered with labels "
                        f"{existing.labelnames}, not {labelnames}"
                    )
                if "buckets" in extra and tuple(
                    sorted(float(b) for b in extra["buckets"])
                ) != getattr(existing, "buckets", ()):
                    raise ValueError(f"{name} already registered with other buckets")
                if callback is not None:
                    existing._callback = callback
                return existing
            metric = cls(name, help, labelnames, callback=callback, **extra)
            self._metrics[name] = metric
            return metric

    def counter(
        self,
        name: str,
        help: str = "",
        labelnames: Iterable[str] = (),
        callback: Optional[Callable] = None,
    ) -> Counter:
        return self._register(Counter, name, help, labelnames, callback)

    def gauge(
        self,
        name: str,
        help: str = "",
        labelnames: Iterable[str] = (),
        callback: Optional[Callable] = None,
    ) -> Gauge:
        return self._register(Gauge, name, help, labelnames, callback)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Iterable[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._register(
            Histogram, name, help, labelnames, None, buckets=buckets
        )

    def names(self) -> List[str]:
        with self._lock:
            return list(self._metrics)

    # -- snapshot ----------------------------------------------------------

    def snapshot(self) -> MetricsSnapshot:
        """Materialise every family (callbacks included) into plain data."""
        with self._lock:
            metrics = list(self._metrics.values())
        out: List[dict] = []
        for metric in metrics:
            entry = {
                "name": metric.name,
                "kind": metric.kind,
                "help": metric.help,
                "labelnames": metric.labelnames,
                "values": metric._collect(),
            }
            if metric.kind == "histogram":
                entry["buckets"] = metric.buckets
            out.append(entry)
        return MetricsSnapshot(out)
