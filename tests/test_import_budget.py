"""What a serve process may not import (the cold-start / footprint gate).

Every module a ``serve`` process loads is paid in ``setup_s`` and stays
resident in it and in each shard worker forked from it.  The scripts run in
a subprocess so ``sys.modules`` starts clean.
"""

import os
import subprocess
import sys
import textwrap

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")

#: Modules the report path has no use for; each was loaded by every serve
#: process before this gate existed.
FORBIDDEN = (
    "networkx",
    "http.server",
    "repro.analysis",
    "repro.dataplane",
    "repro.baselines",
    "repro.configlang",
)

SERVE = """
import sys
from repro.core import VeriDPServer
from repro.core.daemon import UdpReportListener, VeriDPDaemon
from repro.topologies import build_stanford

scenario = build_stanford(subnets_per_zone=1)
server = VeriDPServer(scenario.topo, scenario.channel)
daemon = VeriDPDaemon(server, workers=1, metrics_port=METRICS_PORT)
daemon.start()
listener = UdpReportListener(daemon)
listener.start()
"""

STOP = """
listener.stop()
daemon.join()
daemon.stop()
"""


def _run(script: str) -> str:
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_serve_process_without_metrics_port_stays_light():
    script = (
        SERVE.replace("METRICS_PORT", "None")
        + STOP
        + f"print([m for m in {FORBIDDEN!r} if m in sys.modules])\n"
    )
    assert _run(script).strip() == "[]"


def test_metrics_port_still_serves_healthz():
    script = (
        SERVE.replace("METRICS_PORT", "0")
        + """
import http.client
conn = http.client.HTTPConnection(*daemon.metrics_address, timeout=10)
conn.request("GET", "/healthz")
print(conn.getresponse().status)
conn.close()
"""
        + STOP
        + "print('http.server' in sys.modules)\n"
    )
    assert _run(script).split() == ["200", "True"]
