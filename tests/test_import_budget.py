"""What a serve process may not import (the cold-start / footprint gate).

Every module a ``serve`` process loads is paid in ``setup_s`` and stays
resident in it and in each shard worker forked from it.  The scripts run in
a subprocess so ``sys.modules`` starts clean.
"""

import os
import subprocess
import sys
import textwrap

import pytest

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
    # OpenSSL's libcrypto comes with it; fingerprints use repro.digest.
    "hashlib",
    "_hashlib",
    # The incremental updater and flow sampling, which only an incremental
    # or durable server and the simulator run.
    "repro.core.incremental",
    "repro.core.sampling",
    # Topology builders and I/O a Stanford or Internet2 serve never calls.
    "repro.topologies.fattree",
    "repro.topologies.generators",
    "repro.topologies.io",
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


def test_direct_serve_never_loads_multiprocessing():
    # The direct shape verifies on threads; only the sharded daemon and the
    # cluster fork, so the modules a direct serve imports leave
    # multiprocessing out.
    script = """
import sys
from repro.core import VeriDPServer
from repro.core.direct import VeriDPDaemon
from repro.core.listener import UdpReportListener
from repro.topologies import build_stanford

scenario = build_stanford(subnets_per_zone=1)
server = VeriDPServer(scenario.topo, scenario.channel)
daemon = VeriDPDaemon(server, workers=1)
daemon.start()
listener = UdpReportListener(daemon)
listener.start()
""" + STOP + """
print("multiprocessing" in sys.modules)
"""
    assert _run(script).split() == ["False"]


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
    print("asyncio" in sys.modules)
"""
    assert _run(script).split() == ["False"]


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


@pytest.mark.skipif(
    not os.path.exists("/proc/self/maps"), reason="needs /proc/<pid>/maps"
)
def test_no_serve_process_maps_libcrypto():
    # Every forked shard worker and cluster node inherits the parent's
    # image page for page: the whole process tree must leave OpenSSL out,
    # after set-up and after verifying a stream.
    script = """
import multiprocessing, os
from repro.cluster import VeriDPCluster
from repro.core import VeriDPServer
from repro.core.daemon import ShardedVeriDPDaemon
from repro.core.reports import pack_report
from repro.dataplane import DataPlaneNetwork
from repro.topologies import build_linear

def tree_maps(processed):
    pids = [os.getpid()] + [c.pid for c in multiprocessing.active_children()]
    mapped = []
    for pid in pids:
        with open(f"/proc/{pid}/maps") as fh:
            mapped.append(sum("libcrypto" in line for line in fh))
    print(len(pids), mapped, processed)

scenario = build_linear(4)
net = DataPlaneNetwork(scenario.topo, scenario.channel)
payloads = []
for src, dst in scenario.host_pairs():
    result = net.inject_from_host(src, scenario.header_between(src, dst))
    payloads += [pack_report(r, net.codec) for r in result.reports]
payloads *= 10
server = VeriDPServer(scenario.topo, scenario.channel)
with ShardedVeriDPDaemon(server, workers=2) as daemon:
    for payload in payloads:
        daemon.submit(payload)
    daemon.join()
    tree_maps(daemon.stats()["processed"] == len(payloads))
with VeriDPCluster(server, nodes=2, node_mode="process") as cluster:
    for payload in payloads:
        cluster.submit(payload)
    cluster.join()
    tree_maps(cluster.stats()["processed"] == len(payloads))
"""
    lines = _run(script).splitlines()
    assert lines == ["3 [0, 0, 0] True"] * 2


def test_lazy_exports_are_listed_without_loading():
    # dir() (help(), tab completion, inspect.getmembers) sees every name of
    # __all__, and listing them imports none of the deferred modules.
    script = """
import sys
import repro.bdd, repro.core, repro.obs, repro.topologies
deferred = ("repro.core.incremental", "repro.core.sampling",
            "repro.core.repair", "repro.core.server", "repro.bdd.atomic",
            "repro.obs.httpd", "repro.topologies.generators",
            "repro.topologies.fattree", "repro.topologies.io")
before = [m for m in deferred if m in sys.modules]
for package in (repro.bdd, repro.core, repro.obs, repro.topologies):
    print(package.__name__, sorted(set(package.__all__) - set(dir(package))))
print(before, [m for m in deferred if m in sys.modules])
"""
    assert _run(script).splitlines() == [
        "repro.bdd []",
        "repro.core []",
        "repro.obs []",
        "repro.topologies []",
        "[] []",
    ]
