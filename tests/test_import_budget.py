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
    # Offline tools repro.core and repro.bdd export but no serve shape runs.
    "repro.core.atomic_builder",
    "repro.core.repair",
    "repro.core.queries",
    "repro.bdd.atomic",
    # No cluster ingest needs it (it brings ssl, logging, concurrent.futures).
    "asyncio",
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


def _run(script: str, env=None) -> str:
    env = dict(os.environ if env is None else env, PYTHONPATH=SRC)
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


def test_selectors_cluster_never_loads_asyncio():
    # A cluster built with its defaults: no shape of it loads asyncio.
    script = """
import sys
from repro.cluster import VeriDPCluster
from repro.core import VeriDPServer
from repro.topologies import build_linear

scenario = build_linear(3)
server = VeriDPServer(scenario.topo, scenario.channel)
with VeriDPCluster(server, nodes=1) as cluster:
    cluster.listen_udp()
    print(cluster.stats()["engine"], "asyncio" in sys.modules)
"""
    assert _run(script).split() == ["selectors", "False"]


def test_lazy_exports_still_resolve():
    script = """
from repro.bdd import AtomicUniverse, compute_atoms
from repro.core import AtomicPathTableBuilder, PolicyChecker, RepairEngine
import repro.core
print([n for n in repro.core.__all__ if not hasattr(repro.core, n)])
from repro.core import *
print(RepairResult.__module__, QueryResult.__module__)
"""
    assert _run(script).split() == ["[]", "repro.core.repair", "repro.core.queries"]


def test_numpy_starts_no_blas_pool():
    # Nothing under repro calls BLAS; a fresh import must not pay for (or
    # keep resident) an OpenBLAS thread per core.  The operator's own
    # setting still wins.
    script = """
import os, sys
import repro.core
assert "numpy" in sys.modules
print(os.environ["OPENBLAS_NUM_THREADS"])
print([l.split()[1] for l in open("/proc/self/status") if l.startswith("Threads:")][0])
"""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    assert _run(script, env).split() == ["1", "1"]
    assert _run(script, dict(env, OPENBLAS_NUM_THREADS="2")).split()[0] == "2"


def test_cluster_node_is_a_replica_behind_a_socket():
    # A node verifies through repro.core.replica alone: it never loads the
    # server (BDD table, localization, WAL) or the daemons.
    script = """
import sys
import repro.cluster.node
print([m for m in ("repro.core.daemon", "repro.core.server") if m in sys.modules])
"""
    assert _run(script).strip() == "[]"
