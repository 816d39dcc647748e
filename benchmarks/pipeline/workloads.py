"""Seeded inputs and the oracle for every pipeline workload.

Everything the system under test will see — report datagrams, their order,
the fault set behind the failing ones, the tenant prefixes, the rule-churn
schedule — is generated here, in the benchmark's parent process, from
``--seed``.  The host child gets a JSON config (topology, deployment
shape, tenant specs) and from then on only datagrams and rule calls.

The oracle is the generator's own knowledge: a report is expected to FAIL
exactly when its bytes differ from what the healthy data plane emits for
the same header, and the culprit is the switch at the first hop where the
faulty walk leaves the healthy one.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.reports import REPORT_SIZE, pack_report
from repro.dataplane import DataPlaneNetwork
from repro.dataplane.faults import ModifyRuleOutput
from repro.netmodel.rules import FlowRule, Forward, Match
from repro.netmodel.topology import PortRef
from repro.topologies import (
    build_internet2,
    build_stanford,
    internet2_lpm_ruleset,
)

from loadgen import BURST

#: Reports in one pass over a workload's pool (the traced run replays the
#: first pass).  A multiple of the generator's burst.
POOL_ROWS = 200_000 - 200_000 % BURST
STANFORD_SCALE = 2
INTERNET2_SCALE = 2
#: Distinct failing reports per fault workload — more than the server's
#: 4096-entry localization cache, so a persistent fault cannot be served
#: from it wholesale.
DISTINCT_FAILURES = 6144
TENANTS = 8
FAIL_SHARE = 0.05
_PRIO_BASE = 100

#: Open-loop schedule constants (ticks are milliseconds).
DETECT_PER_TICK = 40  # 40,000 reports/s
DETECT_CANARY_EVERY = 20  # 50 canaries/s
CHURN_PER_TICK = 20  # 20,000 reports/s of background
CHURN_PROBE_EVERY = 2  # one probe of the churned flow every 2 ms
CHURN_EVENT_EVERY = 50  # 20 rule events/s
CHURN_CANARY_OFFSET = 44  # canary rides late in each inter-event gap
CHURN_TARGETS = 4
COALESCE_MS = 20.0


@dataclass
class Inputs:
    """What one run sends, and what it expects back."""

    host_cfg: dict
    #: ``(rows, REPORT_SIZE)`` uint8 matrix, one datagram per row.
    pool: np.ndarray
    #: ``fail_prefix[k]`` = failing datagrams among the first k pool rows.
    fail_prefix: Optional[np.ndarray] = None
    #: failing payload -> switch the generator injected the fault on.
    culprits: Dict[bytes, str] = field(default_factory=dict)
    # -- open loop only ----------------------------------------------------
    per_tick: int = 0
    #: tick -> ``(kind, payload)`` extras sent after that tick's
    #: background; kind is "canary" (must fail) or "probe" (may fail only
    #: while the table lags a rule event).
    extras: Dict[int, List[Tuple[str, bytes]]] = field(default_factory=dict)
    #: tick -> control line for the host (rule events).
    controls: Dict[int, bytes] = field(default_factory=dict)
    #: payloads allowed to fail while the table lags a rule event.
    probes: frozenset = frozenset()

    def expected_failures(self, sent: int) -> int:
        """Closed loop: failing datagrams among the first ``sent`` sent."""
        if self.fail_prefix is None:
            return 0
        cycles, rem = divmod(sent, self.pool.shape[0])
        return cycles * int(self.fail_prefix[-1]) + int(self.fail_prefix[rem])


def _rows_to_payloads(rows: np.ndarray) -> List[bytes]:
    buf = rows.tobytes()
    return [buf[k : k + REPORT_SIZE] for k in range(0, len(buf), REPORT_SIZE)]


def _with_src_ports(rows: np.ndarray, ports: np.ndarray) -> np.ndarray:
    """No rule in the bundled topologies matches ``src_port``, so the same
    flow from another ephemeral port takes the same path and tag."""
    rows = np.ascontiguousarray(rows).copy()
    rows[:, 23] = ports >> 8
    rows[:, 24] = ports & 0xFF
    return rows


def _matrix(payloads: List[bytes]) -> np.ndarray:
    return np.frombuffer(b"".join(payloads), dtype=np.uint8).reshape(
        -1, REPORT_SIZE
    )


def _walk(net: DataPlaneNetwork, scenario, src: str, dst: str, dst_port: int):
    header = scenario.header_between(src, dst, dst_port=dst_port)
    result = net.inject_from_host(src, header)
    net.drain_reports()
    return result


def _culprit(healthy_hops, faulty_hops) -> str:
    for good, bad in zip(healthy_hops, faulty_hops):
        if good != bad:
            return bad.switch
    longer = faulty_hops if len(faulty_hops) > len(healthy_hops) else healthy_hops
    return longer[min(len(healthy_hops), len(faulty_hops))].switch


def _flows(scenario, dst_ports: Tuple[int, ...]):
    return [
        (src, dst, port)
        for src, dst in scenario.host_pairs()
        for port in dst_ports
    ]


def _survey(scenario, healthy, faulty, flows, codec):
    """Walk every flow on both planes.

    Returns ``(healthy payloads of unaffected flows, [(failing payload,
    culprit)] of affected ones)``.  Flows the faulty plane emits no report
    for are left out of both.
    """
    clean: List[bytes] = []
    failing: List[Tuple[bytes, str]] = []
    for src, dst, dport in flows:
        good = _walk(healthy, scenario, src, dst, dport)
        if not good.reports:
            continue
        good_bytes = [pack_report(r, codec) for r in good.reports]
        if faulty is None:
            clean += good_bytes
            continue
        bad = _walk(faulty, scenario, src, dst, dport)
        bad_bytes = [pack_report(r, codec) for r in bad.reports]
        if bad_bytes == good_bytes:
            clean += good_bytes
        elif bad_bytes:
            culprit = _culprit(good.hops, bad.hops)
            failing += [(payload, culprit) for payload in bad_bytes]
    return clean, failing


def _distinct_failures(
    failing: List[Tuple[bytes, str]], count: int
) -> Tuple[np.ndarray, List[str]]:
    """``count`` distinct failing rows (base flows x ephemeral ports)."""
    if not failing:
        raise RuntimeError("the seeded fault set affects no reporting flow")
    base = _matrix([payload for payload, _ in failing])
    m = base.shape[0]
    idx = np.arange(count) % m
    ports = (1024 + np.arange(count) // m).astype(np.int64)
    return _with_src_ports(base[idx], ports), [failing[i][1] for i in idx.tolist()]


def _fault_plane(scenario, seed: int) -> DataPlaneNetwork:
    """A copy of the data plane where every switch with hosts misdelivers.

    On each such switch one seeded rule that forwards to a host port is
    rewired to another host port of the same switch.  One kind of fault
    everywhere keeps the cost of localizing a failure the same from seed
    to seed (random misforwards gave forwarding loops on some seeds and
    not on others, and fault_storm's throughput moved 2x with them); the
    seed still decides which destinations are hit.  The controller's view
    stays healthy.
    """
    topo = scenario.topo
    faulty = DataPlaneNetwork(topo, scenario.channel)
    rng = random.Random(seed)
    host_ports: Dict[str, List[int]] = {}
    for host in topo.hosts():
        ref = topo.host_port(host)
        host_ports.setdefault(ref.switch, []).append(ref.port)
    for switch_id, ports in sorted(host_ports.items()):
        rules = [
            rule
            for rule in faulty.switch(switch_id).table
            if isinstance(rule.action, Forward) and rule.action.port in ports
        ]
        rule = rng.choice(rules)
        wrong = rng.choice([p for p in sorted(ports) if p != rule.action.port])
        ModifyRuleOutput(switch_id, rule.rule_id, wrong).apply(faulty)
    return faulty


def _healthy_pool(base: np.ndarray, rows: int, rng) -> np.ndarray:
    idx = rng.integers(0, base.shape[0], rows)
    ports = rng.integers(32768, 65536, rows)
    return _with_src_ports(base[idx], ports)


def _tenant_specs(scenario, rng) -> List[dict]:
    hosts = sorted(scenario.subnets)
    order = rng.permutation(len(hosts)).tolist()
    groups: List[List[str]] = [[] for _ in range(TENANTS)]
    for slot, i in enumerate(order):
        groups[slot % TENANTS].append(hosts[i])
    return [
        {
            "name": f"t{n}",
            "prefixes": [scenario.subnets[h] for h in members],
            "hosts": members,
            "queue_share": 0.25,
        }
        for n, members in enumerate(groups)
    ]


def _stanford(seed: int, faults: bool, lpm_only: bool = False):
    """Scenario, healthy plane, and (with ``faults``) the faulty plane."""
    scenario = build_stanford(
        subnets_per_zone=STANFORD_SCALE,
        with_acls=not lpm_only,
        with_ssh_detours=not lpm_only,
    )
    healthy = DataPlaneNetwork(scenario.topo, scenario.channel)
    faulty = _fault_plane(scenario, seed) if faults else None
    return scenario, healthy, faulty


def _stanford_cfg(shape: str, **extra) -> dict:
    cfg = {
        "topo": "stanford",
        "scale": STANFORD_SCALE,
        "shape": shape,
        "ingest_batch": 128,
    }
    cfg.update(extra)
    return cfg


def flood(seed: int, shape: str, **cfg) -> Inputs:
    # Durable mode only accepts pure destination-prefix rules, and two of
    # the four floods are durable; all four drop the ACLs and SSH detours
    # so that their rows differ by deployment shape alone.
    scenario, healthy, _ = _stanford(seed, faults=False, lpm_only=True)
    rng = np.random.default_rng(seed)
    clean, _ = _survey(
        scenario, healthy, None, _flows(scenario, (80,)), healthy.codec
    )
    cfg["lpm_only"] = True
    pool = _healthy_pool(_matrix(clean), POOL_ROWS, rng)
    if cfg.pop("tenants", False):
        cfg["tenants"] = _tenant_specs(scenario, rng)
    return Inputs(host_cfg=_stanford_cfg(shape, **cfg), pool=pool)


def _fault_material(seed: int):
    scenario, healthy, faulty = _stanford(seed, faults=True)
    clean, failing = _survey(
        scenario, healthy, faulty, _flows(scenario, (80, 22)), healthy.codec
    )
    fail_rows, culprits = _distinct_failures(failing, DISTINCT_FAILURES)
    return _matrix(clean), fail_rows, culprits


def fault_storm(seed: int) -> Inputs:
    clean, fail_rows, culprit_of = _fault_material(seed)
    rng = np.random.default_rng(seed)
    rows = _healthy_pool(clean, POOL_ROWS, rng)
    n_fail = int(POOL_ROWS * FAIL_SHARE)
    where = np.sort(rng.choice(POOL_ROWS, n_fail, replace=False))
    # Every distinct failure appears before any repeats.
    which = np.arange(n_fail) % fail_rows.shape[0]
    rng.shuffle(which)
    rows[where] = fail_rows[which]
    is_fail = np.zeros(POOL_ROWS + 1, dtype=np.int64)
    is_fail[where + 1] = 1
    fail_payloads = _rows_to_payloads(fail_rows)
    return Inputs(
        host_cfg=_stanford_cfg("direct"),
        pool=rows,
        fail_prefix=np.cumsum(is_fail),
        culprits=dict(zip(fail_payloads, culprit_of)),
    )


def paced_detect(seed: int, ticks: int) -> Inputs:
    clean, fail_rows, culprit_of = _fault_material(seed)
    rng = np.random.default_rng(seed)
    pool = _healthy_pool(clean, POOL_ROWS, rng)
    canaries = _rows_to_payloads(fail_rows)
    order = rng.permutation(len(canaries)).tolist()
    canary_ticks = range(DETECT_CANARY_EVERY // 2, ticks, DETECT_CANARY_EVERY)
    extras = {
        tick: [("canary", canaries[order[n % len(order)]])]
        for n, tick in enumerate(canary_ticks)
    }
    return Inputs(
        host_cfg=_stanford_cfg("direct"),
        pool=pool,
        culprits=dict(zip(canaries, culprit_of)),
        per_tick=DETECT_PER_TICK,
        extras=extras,
    )


# -- rule churn (Internet2) --------------------------------------------------


def _install_lpm(scenario) -> dict:
    """Mirror the host's seeding on the generator's own data plane;
    returns the rule set installed."""
    ruleset = internet2_lpm_ruleset(scenario)
    for switch in sorted(ruleset):
        for prefix, port in ruleset[switch]:
            plen = int(prefix.rsplit("/", 1)[1])
            scenario.controller.install(
                switch,
                FlowRule(_PRIO_BASE + plen, Match.build(dst=prefix), Forward(port)),
            )
    return ruleset


def _churn_targets(scenario, ruleset, rng) -> List[dict]:
    """``CHURN_TARGETS`` (switch, destination, alternate port) triples whose
    alternate next hop still reaches the destination without coming back."""
    topo = scenario.topo
    port_to = {
        switch: dict(rules) for switch, rules in ruleset.items()
    }
    hosts = sorted(scenario.subnets)
    candidates = []
    for dst in hosts:
        prefix = scenario.subnets[dst]
        home = topo.host_port(dst).switch
        for switch in sorted(topo.switches):
            if switch == home:
                continue
            current = port_to[switch].get(prefix)
            sources = [
                h for h in hosts if topo.host_port(h).switch == switch
            ]
            if current is None or not sources:
                continue
            for port in topo.ports_of(switch):
                peer = topo.link(PortRef(switch, port))
                if peer is None or port == current:
                    continue
                onward = port_to[peer.switch].get(prefix)
                if onward is None:
                    continue
                back = topo.link(PortRef(peer.switch, onward))
                if back is not None and back.switch == switch:
                    continue
                candidates.append((switch, dst, port, sources[0]))
    picked: List[dict] = []
    seen_dst = set()
    for i in rng.permutation(len(candidates)).tolist():
        switch, dst, port, src = candidates[i]
        if dst in seen_dst:
            continue
        seen_dst.add(dst)
        base = scenario.subnets[dst].rsplit("/", 1)[0]
        picked.append(
            {"switch": switch, "dst": dst, "src": src, "port": port,
             "prefix": f"{base}/25"}
        )
        if len(picked) == CHURN_TARGETS:
            return picked
    raise RuntimeError("not enough loop-free churn targets in this topology")


def rule_churn(seed: int, ticks: int) -> Inputs:
    scenario = build_internet2(
        prefixes_per_pop=INTERNET2_SCALE, install_routes=False
    )
    ruleset = _install_lpm(scenario)
    rng = np.random.default_rng(seed)
    targets = _churn_targets(scenario, ruleset, rng)
    target_dsts = {t["dst"] for t in targets}
    net = DataPlaneNetwork(scenario.topo, scenario.channel)
    codec = net.codec

    # Both states of every target's probe flow, precomputed.
    for target in targets:
        off = _walk(net, scenario, target["src"], target["dst"], 80)
        rule = scenario.controller.install(
            target["switch"],
            FlowRule(
                _PRIO_BASE + 25,
                Match.build(dst=target["prefix"]),
                Forward(target["port"]),
            ),
        )
        on = _walk(net, scenario, target["src"], target["dst"], 80)
        scenario.controller.remove(target["switch"], rule.rule_id)
        target["off"] = pack_report(off.reports[-1], codec)
        target["on"] = pack_report(on.reports[-1], codec)
        if target["off"] == target["on"]:
            raise RuntimeError(f"churn target {target} does not move its flow")

    # Canaries: a faulty copy of the plane, away from the churned prefixes.
    faulty = _fault_plane(scenario, seed)
    flows = [
        f for f in _flows(scenario, (80,)) if f[1] not in target_dsts
    ]
    clean, failing = _survey(scenario, net, faulty, flows, codec)
    fail_rows, culprit_of = _distinct_failures(failing, 1024)
    canaries = _rows_to_payloads(fail_rows)
    pool = _healthy_pool(_matrix(clean), POOL_ROWS, rng)

    extras: Dict[int, List[Tuple[str, bytes]]] = {}
    controls: Dict[int, bytes] = {}
    state = [False] * len(targets)
    current: Optional[bytes] = None
    n_canary = 0
    for tick in range(ticks):
        if tick % CHURN_EVENT_EVERY == 0 and tick:
            k = (tick // CHURN_EVENT_EVERY - 1) % len(targets)
            target = targets[k]
            state[k] = not state[k]
            if state[k]:
                op = {"op": "rule_add", "switch": target["switch"],
                      "prefix": target["prefix"], "port": target["port"]}
            else:
                op = {"op": "rule_del", "switch": target["switch"],
                      "prefix": target["prefix"]}
            controls[tick] = (json.dumps(op) + "\n").encode()
            current = target["on"] if state[k] else target["off"]
        if current is not None and tick % CHURN_PROBE_EVERY == 0:
            extras[tick] = [("probe", current)]
        if tick % CHURN_EVENT_EVERY == CHURN_CANARY_OFFSET:
            extras.setdefault(tick, []).append(
                ("canary", canaries[n_canary % len(canaries)])
            )
            n_canary += 1
    probes = frozenset(t[s] for t in targets for s in ("on", "off"))
    return Inputs(
        host_cfg={
            "topo": "internet2",
            "scale": INTERNET2_SCALE,
            "shape": "direct",
            "ingest_batch": 128,
            "coalesce_ms": COALESCE_MS,
        },
        pool=pool,
        culprits=dict(zip(canaries, culprit_of)),
        per_tick=CHURN_PER_TICK,
        extras=extras,
        controls=controls,
        probes=probes,
    )


def build(name: str, seed: int, ticks: int = 0) -> Inputs:
    """Inputs for workload ``name``; ``ticks`` sizes open-loop schedules."""
    if name == "flood_direct":
        return flood(seed, "direct")
    if name == "flood_durable_tenants":
        return flood(seed, "direct", durable=True, tenants=True)
    if name == "flood_sharded":
        return flood(seed, "sharded", workers=2)
    if name == "flood_cluster":
        return flood(seed, "cluster", nodes=2, durable=True)
    if name == "fault_storm":
        return fault_storm(seed)
    if name == "paced_detect":
        return paced_detect(seed, ticks)
    if name == "rule_churn":
        return rule_churn(seed, ticks)
    raise KeyError(f"unknown workload {name!r}")
