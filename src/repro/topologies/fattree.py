"""Fat-tree topologies — the paper's medium-sized network fixture.

A standard ``k``-ary fat tree (k even): ``k`` pods, each with ``k/2`` edge
and ``k/2`` aggregation switches; ``(k/2)^2`` core switches; ``k/2`` hosts
per edge switch (so ``k^3/4`` hosts total: 16 for k=4, 54 for k=6).

Port plan:

* edge switch: ports ``1..k/2`` host-facing, ``k/2+1..k`` to aggregation,
* aggregation switch: ports ``1..k/2`` to edges, ``k/2+1..k`` to cores,
* core switch: port ``p`` to pod ``p-1``.

Routing mirrors the paper's setup ("we let the emulated hosts ping each
other in order to populate the switches' flow tables with shortest-path
forwarding rules"): per-host-subnet shortest-path rules installed by the
controller.
"""

from __future__ import annotations

from typing import Dict

from ..netmodel.topology import Topology
from .base import Scenario, wire_scenario

__all__ = ["build_fattree", "fattree_dimensions"]


def fattree_dimensions(k: int) -> Dict[str, int]:
    """Element counts of a k-ary fat tree (sanity/reporting helper)."""
    _check_k(k)
    half = k // 2
    return {
        "pods": k,
        "core": half * half,
        "aggregation": k * half,
        "edge": k * half,
        "switches": half * half + k * k,
        "hosts": k * half * half,
    }


def _check_k(k: int) -> None:
    if k < 2 or k % 2:
        raise ValueError(f"fat-tree arity k must be even and >= 2, got {k}")


def build_fattree(k: int = 4, install_routes: bool = True) -> Scenario:
    """Construct the k-ary fat tree with shortest-path routes installed."""
    _check_k(k)
    half = k // 2
    topo = Topology(f"fattree-{k}")

    core_names = [f"c{i}" for i in range(half * half)]
    for name in core_names:
        topo.add_switch(name, num_ports=k)

    for pod in range(k):
        for j in range(half):
            topo.add_switch(f"a{pod}_{j}", num_ports=k)
            topo.add_switch(f"e{pod}_{j}", num_ports=k)

    # Edge <-> aggregation inside each pod (full bipartite).
    for pod in range(k):
        for e in range(half):
            for a in range(half):
                topo.add_link(f"e{pod}_{e}", half + 1 + a, f"a{pod}_{a}", 1 + e)

    # Aggregation <-> core: aggregation j of each pod connects to cores
    # j*half .. j*half + half - 1 on its ports half+1..k; core i uses port
    # pod+1 for pod `pod`.
    for pod in range(k):
        for a in range(half):
            for i in range(half):
                core = core_names[a * half + i]
                topo.add_link(f"a{pod}_{a}", half + 1 + i, core, pod + 1)

    # Hosts: half per edge switch on ports 1..half.
    subnets: Dict[str, str] = {}
    host_ips: Dict[str, str] = {}
    index = 0
    for pod in range(k):
        for e in range(half):
            for m in range(half):
                host = f"h{pod}_{e}_{m}"
                topo.add_host(host, f"e{pod}_{e}", m + 1)
                high, low = divmod(index, 256)
                subnets[host] = f"10.{high}.{low}.0/24"
                host_ips[host] = f"10.{high}.{low}.1"
                index += 1

    return wire_scenario(
        topo,
        subnets,
        host_ips,
        install_routes,
        notes=f"fat tree k={k} ({fattree_dimensions(k)['switches']} switches)",
    )
