"""Load whole networks from configuration directories.

A *config directory* is the on-disk form of a network the way the paper's
toolchain consumed the Stanford backbone: a ``topology.json`` (structure +
addressing, see :mod:`repro.topologies.io`) plus one ``<switch>.cfg`` per
router.  :func:`load_network` parses everything and pushes the rules
through a real controller channel, so a VeriDP server and data plane
attached to the returned scenario see the same FlowMod stream they would
in a live deployment.
"""

from __future__ import annotations

import os
from typing import Dict, List

from ..topologies.base import Scenario, wire_scenario
from ..topologies.io import topology_from_dict
from .parser import ConfigError, SwitchConfig, parse_config
from .writer import write_config

__all__ = ["load_network", "export_network", "TOPOLOGY_FILE"]

TOPOLOGY_FILE = "topology.json"


def load_network(directory: str) -> Scenario:
    """Build a fully wired scenario from a config directory.

    Every switch in ``topology.json`` must have a matching ``<id>.cfg``;
    extra config files are rejected (they indicate a stale directory).
    """
    import json

    topo_path = os.path.join(directory, TOPOLOGY_FILE)
    if not os.path.exists(topo_path):
        raise FileNotFoundError(f"no {TOPOLOGY_FILE} in {directory}")
    with open(topo_path) as handle:
        topo, subnets, host_ips = topology_from_dict(json.load(handle))

    configs: Dict[str, SwitchConfig] = {}
    for switch_id in sorted(topo.switches):
        cfg_path = os.path.join(directory, f"{switch_id}.cfg")
        if not os.path.exists(cfg_path):
            raise FileNotFoundError(f"missing config file {cfg_path}")
        with open(cfg_path) as handle:
            config = parse_config(handle.read())
        if config.hostname and config.hostname != switch_id:
            raise ConfigError(
                0, cfg_path,
                f"hostname {config.hostname!r} does not match file name",
            )
        configs[switch_id] = config

    stray = [
        name
        for name in os.listdir(directory)
        if name.endswith(".cfg") and name[: -len(".cfg")] not in topo.switches
    ]
    if stray:
        raise ValueError(f"config files for unknown switches: {sorted(stray)}")

    scenario = wire_scenario(
        topo, subnets, host_ips, install_routes=False,
        notes=f"loaded from {directory}",
    )
    # Apply each config through the controller so the FlowMods hit the
    # channel (and thus any attached data plane / VeriDP server).
    for switch_id, config in sorted(configs.items()):
        staging = type(topo.switch(switch_id))(switch_id)  # scratch SwitchInfo
        rules = config.apply_to(staging)
        for rule in rules:
            scenario.controller.install(switch_id, rule)
        info = topo.switch(switch_id)
        info.in_acl.update(staging.in_acl)
        info.out_acl.update(staging.out_acl)
    return scenario


def export_network(scenario: Scenario, directory: str) -> List[str]:
    """Write a scenario out as a config directory; returns written paths.

    The inverse of :func:`load_network` for networks whose rules fit the
    config language (plain destination routes + ACLs).
    """
    from ..topologies.io import save_scenario

    os.makedirs(directory, exist_ok=True)
    written: List[str] = []
    topo_path = os.path.join(directory, TOPOLOGY_FILE)
    save_scenario(scenario, topo_path)
    written.append(topo_path)
    for switch_id in sorted(scenario.topo.switches):
        path = os.path.join(directory, f"{switch_id}.cfg")
        with open(path, "w") as handle:
            handle.write(write_config(scenario.topo.switch(switch_id)))
        written.append(path)
    return written
