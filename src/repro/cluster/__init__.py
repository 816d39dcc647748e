"""Horizontally-scalable verification tier (DESIGN.md §14).

The paper's pipeline funnels every switch report into one verification
process; this package promotes the PR 5 pair-delta / ``replica_digest``
resync protocol across process boundaries so verification scales out:

* :mod:`repro.cluster.protocol`    — length-prefixed message connections,
* :mod:`repro.cluster.ring`        — consistent-hash placement,
* :mod:`repro.cluster.frontend`    — consistent-hash routing and
  exactly-once batch delivery behind the daemons' UDP report listener,
* :mod:`repro.cluster.node`        — a shard replica behind TCP,
* :mod:`repro.cluster.coordinator` — membership, rebalancing, resync and
  fleet-wide aggregation,
* :mod:`repro.cluster.cluster`     — the :class:`VeriDPCluster` facade.
"""

from __future__ import annotations

from .cluster import VeriDPCluster
from .coordinator import ClusterCoordinator
from .frontend import ClusterFrontend, routing_key_of
from .node import NodeHandle, VerificationNode, start_node
from .protocol import MessageStream, ProtocolError
from .ring import HashRing

__all__ = [
    "VeriDPCluster",
    "ClusterCoordinator",
    "ClusterFrontend",
    "routing_key_of",
    "VerificationNode",
    "NodeHandle",
    "start_node",
    "MessageStream",
    "ProtocolError",
    "HashRing",
]
