"""The live monitoring endpoint: ``/metrics``, ``/healthz``, ``/varz``.

A stdlib-only (``http.server``) HTTP endpoint a Prometheus scraper, a
load balancer health check, or a curious operator can hit while a VeriDP
daemon is verifying reports:

* ``GET /metrics``  — Prometheus text format v0.0.4 of the registry,
* ``GET /healthz``  — ``200 ok`` / ``503`` + a small JSON verdict from the
  owner's health callback (a degraded daemon reports itself unhealthy),
* ``GET /varz``     — the JSON snapshot: every metric, span aggregates,
  the most recent spans, process uptime, and whatever extra dict the
  owner's ``varz`` callback contributes (e.g. ``daemon.stats()``).

The server is a ``ThreadingHTTPServer`` on a daemon thread: scrapes run
concurrently with verification and never block ingestion.  ``port=0``
binds an ephemeral port — read :attr:`MetricsEndpoint.address` (tests and
the chaos CI job rely on this).  ``start``/``stop`` are idempotent.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, Optional, Tuple

from .exposition import CONTENT_TYPE_PROMETHEUS, render_json, render_prometheus

__all__ = ["MetricsEndpoint"]


class MetricsEndpoint:
    """Serve one :class:`Observability` bundle over HTTP.

    ``health`` (optional) returns ``(ok, detail_dict)``; ``varz``
    (optional) returns a dict merged into the ``/varz`` body.  Both are
    called per-request and must be cheap and exception-safe at the caller
    level — a raising callback yields a 500, never a crashed serve thread.
    """

    def __init__(
        self,
        obs,
        host: str = "127.0.0.1",
        port: int = 0,
        health: Optional[Callable[[], Tuple[bool, dict]]] = None,
        varz: Optional[Callable[[], dict]] = None,
    ) -> None:
        self.obs = obs
        self._host = host
        self._port = port
        self._health = health
        self._varz = varz
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None
        self._started_at = time.time()
        self.address: Optional[Tuple[str, int]] = None

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "MetricsEndpoint":
        if self._httpd is not None:
            return self
        endpoint = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, *args) -> None:  # scrapes are not news
                pass

            def do_GET(self) -> None:
                try:
                    status, content_type, body = endpoint._route(self.path)
                except Exception as exc:  # pragma: no cover - defensive
                    status, content_type, body = (
                        500,
                        "text/plain; charset=utf-8",
                        f"internal error: {type(exc).__name__}: {exc}\n".encode(),
                    )
                self.send_response(status)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

        self._httpd = ThreadingHTTPServer((self._host, self._port), Handler)
        self._httpd.daemon_threads = True
        self.address = self._httpd.server_address[:2]
        self._started_at = time.time()
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.1},
            name="veridp-metrics-endpoint",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        httpd, self._httpd = self._httpd, None
        if httpd is None:
            return
        httpd.shutdown()
        httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    def __enter__(self) -> "MetricsEndpoint":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- routing -----------------------------------------------------------

    def _route(self, path: str) -> Tuple[int, str, bytes]:
        path = path.split("?", 1)[0]
        if path == "/metrics":
            text = render_prometheus(self.obs.registry.snapshot())
            return 200, CONTENT_TYPE_PROMETHEUS, text.encode("utf-8")
        if path == "/healthz":
            ok, detail = (True, {}) if self._health is None else self._health()
            body = json.dumps(
                {"status": "ok" if ok else "unhealthy", **detail},
                sort_keys=True, default=str,
            ) + "\n"
            return (200 if ok else 503), "application/json", body.encode("utf-8")
        if path == "/varz":
            extra: Dict[str, object] = {
                "uptime_s": round(time.time() - self._started_at, 3),
                "spans": self.obs.tracer.to_dict(),
            }
            if self._varz is not None:
                extra["varz"] = self._varz()
            body = render_json(self.obs.registry.snapshot(), **extra)
            return 200, "application/json", body.encode("utf-8")
        return (
            404,
            "text/plain; charset=utf-8",
            b"not found; try /metrics, /healthz or /varz\n",
        )
