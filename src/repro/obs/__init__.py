"""Unified observability for the VeriDP monitoring plane.

The paper sells VeriDP as *continuous* monitoring of control-data plane
consistency; a monitor whose own behaviour is opaque is only half built.
This package makes the monitoring plane observable with zero hard
dependencies (stdlib only):

* :mod:`repro.obs.metrics`    — thread-safe registry of counters,
  gauges and fixed-bucket histograms with labels, callback-sourced
  instruments, and picklable snapshots,
* :mod:`repro.obs.tracing`    — span context managers with a ring-buffer
  exporter instrumenting decode → admission → verify → localize →
  incident,
* :mod:`repro.obs.exposition` — Prometheus text format v0.0.4 + JSON,
* :mod:`repro.obs.httpd`      — the live ``/metrics`` / ``/healthz`` /
  ``/varz`` endpoint served by a stdlib ``http.server``; imported only
  when an endpoint is asked for, so a process without ``metrics_port``
  never loads ``http.server`` and what it pulls in.

:class:`Observability` bundles one registry and one tracer; the
:class:`~repro.core.server.VeriDPServer` creates one by default and the
daemons adopt it, so one scrape covers the whole pipeline.  The metric
catalogue and span taxonomy are documented in DESIGN.md §8.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..lazy import lazy_exports
from .exposition import (
    CONTENT_TYPE_PROMETHEUS,
    parse_prometheus_text,
    render_json,
    render_prometheus,
    snapshot_to_dict,
)
from .metrics import (
    DEFAULT_BUCKETS,
    IO_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    MetricsSnapshot,
)
from .tracing import Span, Tracer

if TYPE_CHECKING:
    from .httpd import MetricsEndpoint

__all__ = [
    "Observability",
    "MetricsRegistry",
    "MetricsSnapshot",
    "Counter",
    "Gauge",
    "Histogram",
    "DEFAULT_BUCKETS",
    "IO_BUCKETS",
    "Tracer",
    "Span",
    "MetricsEndpoint",
    "render_prometheus",
    "render_json",
    "snapshot_to_dict",
    "parse_prometheus_text",
    "CONTENT_TYPE_PROMETHEUS",
]

__getattr__, __dir__ = lazy_exports(globals(), {"MetricsEndpoint": "httpd"})


class Observability:
    """One registry + one tracer: the unit components share and export."""

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.registry = registry or MetricsRegistry()
        self.tracer = tracer or Tracer()
        self.tracer.register_metrics(self.registry)
        # Bound-method shorthand; skips a wrapper frame on the hot path.
        self.span = self.tracer.span

    def endpoint(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        health=None,
        varz=None,
    ) -> MetricsEndpoint:
        """Build (but do not start) an HTTP endpoint over this bundle."""
        from .httpd import MetricsEndpoint

        return MetricsEndpoint(self, host=host, port=port, health=health, varz=varz)
