"""VeriDP — monitoring control-data plane consistency in SDN.

A full reproduction of "Mind the Gap: Monitoring the Control-Data Plane
Consistency in Software Defined Networks" (Zhang et al., CoNEXT 2016).

Quick tour::

    from repro.topologies import build_fattree
    from repro.core import VeriDPServer
    from repro.dataplane import DataPlaneNetwork

    scenario = build_fattree(k=4)
    server = VeriDPServer(scenario.topo, scenario.channel)
    net = DataPlaneNetwork(scenario.topo, scenario.channel,
                           report_sink=server.receive_report_bytes)

Subpackages:

* :mod:`repro.core`         — the VeriDP contribution (tags, path table,
  verification, localization, incremental update, sampling, server),
* :mod:`repro.bdd`          — ROBDD engine + header-space predicates,
* :mod:`repro.netmodel`     — packets, rules, topology, transfer predicates,
* :mod:`repro.controlplane` — controller + OpenFlow-style channel,
* :mod:`repro.dataplane`    — simulated switches, the Algorithm 1 pipeline,
  fault injection, the hardware latency model,
* :mod:`repro.topologies`   — Stanford-like, Internet2-like, fat trees, toys,
* :mod:`repro.analysis`     — the Section 6 experiment harnesses.
"""

import os

# Nothing under this package calls BLAS (no dot/matmul/linalg), yet importing
# numpy starts an OpenBLAS thread per core, paid in every serve process and
# shard worker.  One thread unless the operator has said otherwise; this has
# to run before anything imports numpy.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "1.0.0"

__all__ = ["__version__"]
