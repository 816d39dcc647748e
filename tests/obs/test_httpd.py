"""Tests for the live monitoring endpoint over a real (ephemeral) socket."""

import json
import urllib.error
import urllib.request

import pytest

from repro.obs import Observability
from repro.obs.exposition import CONTENT_TYPE_PROMETHEUS, parse_prometheus_text


def fetch(url: str):
    try:
        with urllib.request.urlopen(url, timeout=5) as resp:
            return resp.status, resp.headers.get("Content-Type"), resp.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.headers.get("Content-Type"), exc.read()


def url(ep) -> str:
    host, port = ep.address
    return f"http://{host}:{port}"


@pytest.fixture
def obs():
    bundle = Observability()
    bundle.registry.counter("veridp_test_total", "A test counter.").inc(5)
    with bundle.span("verify"):
        pass
    return bundle


class TestRoutes:
    def test_metrics_route(self, obs):
        with obs.endpoint(port=0) as ep:
            status, ctype, body = fetch(url(ep) + "/metrics")
        assert status == 200
        assert ctype == CONTENT_TYPE_PROMETHEUS
        parsed = parse_prometheus_text(body.decode())
        assert parsed["veridp_test_total"][frozenset()] == 5
        assert parsed["veridp_spans_total"][frozenset({("span", "verify")})] == 1

    def test_healthz_defaults_ok(self, obs):
        with obs.endpoint(port=0) as ep:
            status, ctype, body = fetch(url(ep) + "/healthz")
        assert (status, ctype) == (200, "application/json")
        assert json.loads(body) == {"status": "ok"}

    def test_healthz_unhealthy_is_503(self, obs):
        ep = obs.endpoint(port=0, health=lambda: (False, {"mode": "degraded"}))
        with ep:
            status, _, body = fetch(url(ep) + "/healthz")
        assert status == 503
        assert json.loads(body) == {"status": "unhealthy", "mode": "degraded"}

    def test_varz_carries_spans_and_extra(self, obs):
        ep = obs.endpoint(port=0, varz=lambda: {"stats": {"processed": 9}})
        with ep:
            status, _, body = fetch(url(ep) + "/varz")
        assert status == 200
        payload = json.loads(body)
        assert payload["metrics"]["veridp_test_total"]["samples"][0]["value"] == 5
        assert payload["spans"]["aggregates"]["verify"]["count"] == 1
        assert payload["varz"] == {"stats": {"processed": 9}}
        assert payload["uptime_s"] >= 0

    def test_unknown_path_is_404(self, obs):
        with obs.endpoint(port=0) as ep:
            status, _, body = fetch(url(ep) + "/nope")
        assert status == 404
        assert b"/metrics" in body


class TestLifecycle:
    def test_ephemeral_port_bound(self, obs):
        with obs.endpoint(port=0) as ep:
            host, port = ep.address
            assert host == "127.0.0.1"
            assert port > 0

    def test_start_stop_idempotent(self, obs):
        ep = obs.endpoint(port=0)
        ep.start()
        first = ep.address
        ep.start()
        assert ep.address == first
        ep.stop()
        ep.stop()
