"""A Stanford-backbone-like network (the Table 2 / Section 6.2 fixture).

The real Stanford backbone configuration (16 Cisco routers, 757,170
forwarding rules, 1,584 ACL rules) is not redistributable, so this module
synthesises a network with the same *structure*:

* the published router roster — two backbone routers (``bbra``, ``bbrb``)
  and fourteen zone routers (``boza`` ... ``yozb``) each dual-homed to both
  backbones, plus a direct link between the backbones,
* per-zone address space (``171.64+z.0.0/16``-style blocks) with multiple
  host subnets per zone and extra prefix rules to scale the table
  (``subnets_per_zone`` knob),
* ACL-style high-priority drop rules on some zone routers — including the
  ``sozb`` "deny 10.0.0.0/8" rule the paper deletes in its access-violation
  function test, paired with a ``cozb``-homed ``10.63.16.0/20`` subnet so
  that exact scenario is reproducible,
* the ``boza`` host block ``172.20.10.32/27`` used by the paper's black-hole
  and path-deviation tests.

The substitution rationale is in DESIGN.md: path-table shape and
verification behaviour depend on topology + rule structure, both preserved.
"""

from __future__ import annotations

from typing import Dict

from ..netmodel.rules import Match
from ..netmodel.topology import Topology
from .base import Scenario, wire_scenario

__all__ = ["build_stanford", "STANFORD_ZONES", "STANFORD_BACKBONES"]

STANFORD_BACKBONES = ("bbra", "bbrb")
STANFORD_ZONES = (
    "boza",
    "bozb",
    "coza",
    "cozb",
    "goza",
    "gozb",
    "poza",
    "pozb",
    "roza",
    "rozb",
    "soza",
    "sozb",
    "yoza",
    "yozb",
)

#: Zone routers carrying an ACL-style deny (dst 10.0.0.0/8) like the real
#: network's private-space filters; ``sozb``'s is the paper's test subject.
_ACL_ZONES = ("soza", "sozb", "poza", "pozb")


def build_stanford(
    subnets_per_zone: int = 2,
    install_routes: bool = True,
    with_acls: bool = True,
    with_ssh_detours: bool = True,
) -> Scenario:
    """Build the Stanford-like backbone.

    ``subnets_per_zone`` scales the rule count (each subnet adds one host
    and a network-wide set of destination-prefix rules).

    ``with_ssh_detours`` installs higher-priority policies steering SSH
    (dst_port 22) via the ``bbrb`` backbone regardless of the base route.
    The real Stanford configuration produces ~3 paths per port pair
    (Table 2: 77K paths over 26K entries) because VLANs/ACLs split header
    space per pair; these port-dependent policies recreate that multi-path
    structure, which Figure 6 and the verification workload depend on.
    """
    if subnets_per_zone < 1:
        raise ValueError(f"subnets_per_zone must be >= 1, got {subnets_per_zone}")
    topo = Topology("stanford")

    # Ports: backbone routers need 1 peer port + 14 zone ports.
    for name in STANFORD_BACKBONES:
        topo.add_switch(name, num_ports=len(STANFORD_ZONES) + 1)
    # Zone routers: port 1 -> bbra, port 2 -> bbrb, 3.. host-facing.
    for name in STANFORD_ZONES:
        topo.add_switch(name, num_ports=2 + subnets_per_zone)

    topo.add_link("bbra", 1, "bbrb", 1)
    for z, name in enumerate(STANFORD_ZONES):
        topo.add_link(name, 1, "bbra", 2 + z)
        topo.add_link(name, 2, "bbrb", 2 + z)

    subnets: Dict[str, str] = {}
    host_ips: Dict[str, str] = {}
    for z, zone in enumerate(STANFORD_ZONES):
        for s in range(subnets_per_zone):
            host = f"h_{zone}_{s}"
            topo.add_host(host, zone, 3 + s)
            if zone == "boza" and s == 0:
                # The paper's function tests target dst 172.20.10.33 homed
                # behind boza (the /27 the black-hole fault matches).
                subnets[host] = "172.20.10.32/27"
                host_ips[host] = "172.20.10.33"
            elif zone == "cozb" and s == 0:
                # Destination of the paper's access-violation test.
                subnets[host] = "10.63.16.0/20"
                host_ips[host] = "10.63.16.1"
            else:
                subnets[host] = f"171.{64 + z}.{s}.0/24"
                host_ips[host] = f"171.{64 + z}.{s}.1"

    scenario = wire_scenario(
        topo,
        subnets,
        host_ips,
        install_routes,
        notes=(
            f"Stanford-like backbone: {len(STANFORD_BACKBONES)} backbone + "
            f"{len(STANFORD_ZONES)} zone routers, {subnets_per_zone} subnets/zone"
        ),
    )

    if with_acls and install_routes:
        for zone in _ACL_ZONES:
            scenario.controller.install_acl(zone, Match.build(dst="10.0.0.0/8"))

    if with_ssh_detours and install_routes:
        from ..netmodel.rules import FlowRule, Forward

        for host, subnet in sorted(subnets.items()):
            home_zone = scenario.topo.host_port(host).switch
            for zone in STANFORD_ZONES:
                if zone == home_zone:
                    continue
                scenario.controller.install(
                    zone,
                    FlowRule(
                        150,  # above host routes (100), below ACLs (300)
                        Match.build(dst=subnet, dst_port=22),
                        Forward(2),  # always take the bbrb uplink
                    ),
                )
    return scenario
