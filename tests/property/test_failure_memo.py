"""The failure path's memory is invisible in its answers.

``VeriDPServer`` interns failing payloads and shares one PathInfer run per
forwarding class.  Whatever arrives, in whatever order, every logged
incident must carry the verdict a fresh verifier gives and the candidates a
fresh ``PathInferLocalizer`` gives — hops and blamed switches, in order —
under the configuration in force when it was logged: before and after a
rule change, and after the log is drained.  And the books must not depend
on how the repeats of a failing payload were framed.
"""

from dataclasses import replace
from functools import lru_cache

from hypothesis import given, settings, strategies as st

from repro.bdd.headerspace import parse_ipv4
from repro.core.daemon import VeriDPDaemon
from repro.core.localization import PathInferLocalizer
from repro.core.reports import Frame, pack_report
from repro.core.server import VeriDPServer
from repro.core.verifier import Verifier
from repro.dataplane import DataPlaneNetwork, ModifyRuleOutput
from repro.netmodel.packet import PROTO_TCP, PROTO_UDP
from repro.netmodel.rules import DROP_PORT, Drop, FlowRule, Forward, Match, Rewrite
from repro.obs.exposition import parse_prometheus_text, render_prometheus
from repro.topologies import build_fattree, build_linear, build_stanford
from repro.topologies.base import lpm_ruleset_for

VIP_BASE = parse_ipv4("198.51.100.0")
VIP_PREFIX = "198.51.100.0/28"


class Rig:
    """One long-lived server + data plane; examples mutate and restore it,
    so what the server remembered from earlier examples is part of the test."""

    def __init__(self, scenario, server, vip_source=None) -> None:
        self.scenario = scenario
        self.server = server
        self.net = DataPlaneNetwork(scenario.topo, scenario.channel)
        self.oracle = PathInferLocalizer(server.builder, server.scheme, scenario.topo)
        self.hosts = sorted(scenario.topo.hosts())
        #: Host whose traffic to the VIP prefix crosses a rewrite, if any.
        self.vip_source = vip_source

    # -- control-plane moves (overridden by the incremental rig) ------------

    def divert(self, switch: str, host: str, port: int):
        """Tell the control plane ``host``'s traffic leaves ``switch`` on
        ``port``; returns what :meth:`undo` needs."""
        rule = FlowRule(
            400, Match.build(dst=f"{self.scenario.host_ips[host]}/32"), Forward(port)
        )
        return self.scenario.controller.install(switch, rule)

    def undo(self, switch: str, token) -> None:
        self.scenario.controller.remove(switch, token.rule_id)


class IncrementalRig(Rig):
    """LPM-only fabric whose server moves through ``apply_rule_*`` alone."""

    def divert(self, switch: str, host: str, port: int):
        prefix = f"{self.scenario.host_ips[host]}/32"
        self.server.apply_rule_update(switch, prefix, port)
        return prefix

    def undo(self, switch: str, token) -> None:
        self.server.apply_rule_delete(switch, token)


def _nat(scenario, entry_switch, entry_port, nat_switch, nat_port, target_host):
    """Route the VIP prefix to ``nat_switch``, which rewrites it to a host."""
    ctrl = scenario.controller
    if entry_switch != nat_switch:
        ctrl.install(
            entry_switch, FlowRule(300, Match.build(dst=VIP_PREFIX), Forward(entry_port))
        )
    target = parse_ipv4(scenario.host_ips[target_host])
    ctrl.install(
        nat_switch,
        FlowRule(300, Match.build(dst=VIP_PREFIX), Rewrite((("dst_ip", target),), nat_port)),
    )


@lru_cache(maxsize=None)
def rig(name: str) -> Rig:
    if name == "linear-nat":
        scenario = build_linear(3)
        _nat(scenario, "S1", 2, "S2", 2, "H3")
        return Rig(scenario, VeriDPServer(scenario.topo, scenario.channel), "H1")
    if name == "linear-coupled":
        return coupled_rig()
    if name == "fattree":
        scenario = build_fattree(4)
        return Rig(scenario, VeriDPServer(scenario.topo, scenario.channel))
    if name == "stanford-nat":
        # ACLs and SSH detours split each pair's header space; the NAT rule
        # makes the walks from one zone cross a rewrite at their first hop.
        scenario = build_stanford(subnets_per_zone=1)
        hosts = sorted(scenario.topo.hosts())
        source, target = hosts[0], hosts[-1]
        zone = scenario.topo.host_port(source).switch
        _nat(scenario, zone, 1, zone, 1, target)
        return Rig(scenario, VeriDPServer(scenario.topo, scenario.channel), source)
    if name == "lpm-incremental":
        scenario = build_linear(4, install_routes=False)
        server = VeriDPServer(scenario.topo, channel=None, incremental=True)
        ruleset = lpm_ruleset_for(scenario.topo, scenario.subnets)
        for switch in sorted(ruleset):
            for prefix, port in ruleset[switch]:
                plen = int(prefix.rsplit("/", 1)[1])
                scenario.controller.install(
                    switch, FlowRule(100 + plen, Match.build(dst=prefix), Forward(port))
                )
                server.apply_rule_update(switch, prefix, port)
        return IncrementalRig(scenario, server)
    raise KeyError(name)


def coupled_rig() -> Rig:
    """A rewrite whose downstream slice couples the rewritten field to one
    the rewrite leaves alone.

    S1 sets ``dst_port := 8080`` on everything bound for H3; S2 passes
    ``(tcp, 8080)`` and ``(udp, 9090)`` on and drops the rest.  The header
    ``(udp, 9090)`` is inside every predicate a ``(tcp, *)`` walk selects
    — tested as it arrived — yet once rewritten to ``(udp, 8080)`` S2 drops
    it.  Sharing a walk across the rewrite would get this wrong.
    """
    scenario = build_linear(3)
    ctrl = scenario.controller
    h3 = scenario.subnets["H3"]
    ctrl.install(
        "S1", FlowRule(300, Match.build(dst=h3), Rewrite((("dst_port", 8080),), 2))
    )
    for proto, dst_port in ((PROTO_TCP, 8080), (PROTO_UDP, 9090)):
        ctrl.install(
            "S2",
            FlowRule(300, Match.build(dst=h3, proto=proto, dst_port=dst_port), Forward(2)),
        )
    ctrl.install("S2", FlowRule(250, Match.build(dst=h3), Drop()))
    return Rig(scenario, VeriDPServer(scenario.topo, scenario.channel))


RIGS = ("linear-nat", "linear-coupled", "fattree", "stanford-nat", "lpm-incremental")

flows = st.tuples(
    st.integers(0, 63),  # source host
    st.integers(0, 63),  # destination host
    st.sampled_from((80, 22, 8080, 9090)),  # SSH detours, coupled rig
    st.sampled_from((PROTO_TCP, PROTO_UDP)),
    st.one_of(st.none(), st.integers(0, 15)),  # aim at VIP + n instead
)
#: (flow to break, hop of its healthy path, wrong port; all taken modulo)
breaks = st.tuples(st.integers(0, 63), st.integers(0, 63), st.integers(0, 63))


def _headers(r: Rig, flow_draws):
    out = []
    for src, dst, dst_port, proto, vip in flow_draws:
        src_host = r.hosts[src % len(r.hosts)]
        dst_host = r.hosts[dst % len(r.hosts)]
        to_vip = vip is not None and r.vip_source is not None
        if to_vip:
            src_host = r.vip_source
        if src_host == dst_host:
            continue
        header = r.scenario.header_between(
            src_host, dst_host, proto=proto, dst_port=dst_port
        )
        if to_vip:
            header = header.with_(dst_ip=VIP_BASE + vip)
        out.append((src_host, header))
    return out


def _reports_under_faults(r: Rig, flow_draws, break_draws, src_ports):
    """Reports of the drawn flows while some switch on the path of some of
    them misforwards; the data plane is healthy again on return."""
    headers = _headers(r, flow_draws)
    undo = []
    for which, hop_pick, port_pick in break_draws if headers else ():
        src_host, header = headers[which % len(headers)]
        healthy = r.net.inject_from_host(src_host, header).hops
        hop = healthy[hop_pick % len(healthy)]
        switch = r.net.switch(hop.switch)
        rule = switch.table.lookup(header, hop.in_port)
        if rule is None:  # downstream of the NAT: the header there differs
            continue
        ports = sorted((switch.ports | {DROP_PORT}) - {rule.output_port()})
        undo.append((switch, r.scenario.topo.switch(hop.switch).flow_table.get(rule.rule_id)))
        ModifyRuleOutput(hop.switch, rule.rule_id, ports[port_pick % len(ports)]).apply(r.net)
    seen = []
    for src_host, header in headers:
        seen += r.net.inject_from_host(src_host, header).reports
    for switch, original in reversed(undo):
        switch.install(original)
    # The same flows on the healthy plane: often the same ports as their
    # faulty report, always another tag.
    for src_host, header in headers:
        seen += r.net.inject_from_host(src_host, header).reports
    reports = []
    for index, report in enumerate(seen):
        # A report is whatever a switch sends: each also goes in wearing its
        # neighbour's tag, which PathInfer must answer for just the same.
        for tag in {report.tag, seen[index - 1].tag}:
            # No rule reads src_port: same walk, same tag, another payload.
            reports += [
                replace(report, tag=tag, header=report.header.with_(src_port=port))
                for port in src_ports
            ]
    return reports


def _shape(localization):
    return [(c.hops, c.blamed_switch) for c in localization.candidates]


def _check(r: Rig, payloads):
    """Feed every payload (twice: the second is a repeat) and hold each
    incident against a verifier and a localizer that remember nothing."""
    server = r.server
    failed = 0
    for payload in payloads + payloads:
        incident = server.receive_report_bytes(payload)
        report = incident.verification.report
        assert pack_report(report, server.codec) == payload
        fresh_verdict = Verifier(server.table, server.hs).verify(report)
        assert incident.verification.verdict is fresh_verdict.verdict
        assert incident.verification.expected_tag == fresh_verdict.expected_tag
        # PathInfer answers for any report, failed or not: hold the sharing
        # localizer to the fresh one on all of them.
        fresh = r.oracle.localize(report)
        assert _shape(server.localizer.localize(report)) == _shape(fresh)
        if incident.verification.passed:
            assert incident.localization is None
            continue
        failed += 1
        assert incident.localization.report is report
        assert _shape(incident.localization) == _shape(fresh)
        assert incident.blamed_switches == fresh.blamed_switches()
        assert server.incidents[-1] is incident
    return failed


@settings(max_examples=120, deadline=None)
@given(
    name=st.sampled_from(RIGS),
    flow_draws=st.lists(flows, min_size=1, max_size=6),
    break_draws=st.lists(breaks, min_size=1, max_size=3),
    src_ports=st.lists(st.integers(1024, 1030), min_size=1, max_size=3, unique=True),
    divert=st.tuples(st.integers(0, 63), st.integers(0, 63), st.integers(0, 63)),
)
def test_memoized_failure_path_equals_fresh(
    name, flow_draws, break_draws, src_ports, divert
):
    r = rig(name)
    server = r.server
    reports = _reports_under_faults(r, flow_draws, break_draws, src_ports)
    payloads = [pack_report(report, server.codec) for report in reports]
    logged = server.incidents_total
    failed = _check(r, payloads)
    assert server.incidents_total == logged + failed

    # A rule change the data plane never saw: verdicts and answers move, and
    # nothing remembered from before may leak through.
    switches = sorted(r.scenario.topo.switches)
    switch = switches[divert[0] % len(switches)]
    host = r.hosts[divert[1] % len(r.hosts)]
    ports = sorted(r.scenario.topo.ports_of(switch))
    token = r.divert(switch, host, ports[divert[2] % len(ports)])
    try:
        _check(r, payloads)
    finally:
        r.undo(switch, token)
    _check(r, payloads)

    server.drain_incidents()
    assert server.stats()["localization_classes"] == 0
    _check(r, payloads)


# -- the books do not depend on framing ---------------------------------------

#: Families that must read the same however the repeats arrived.  Timing
#: families, span counts and the per-transport counters (frames, batches,
#: queue) legitimately differ between one frame, K frames and direct calls.
FAILURE_FAMILIES = (
    "veridp_verifications_total",
    "veridp_incidents_total",
    "veridp_incident_log_size",
    "veridp_incident_records",
    "veridp_localizations_total",
    "veridp_localization_cache_hits_total",
    "veridp_localization_errors_total",
    "veridp_localization_classes",
)
FAILURE_STATS = (
    "incidents",
    "incidents_total",
    "incident_records",
    "localizations",
    "localization_errors",
    "localization_cache_hits",
    "localization_classes",
)
#: daemon.stats() keys that describe the transport, not the reports: how
#: many frames there were, and how many rows were large-frame bulk passes.
TRANSPORT_STATS = ("frames", "wire_pass")


def _linear_failures(count):
    scenario = build_linear(3)
    net = DataPlaneNetwork(scenario.topo, scenario.channel)
    header = scenario.header_between("H1", "H3")
    rule = net.switch("S2").table.lookup(header, 3)
    ModifyRuleOutput("S2", rule.rule_id, 1).apply(net)
    payloads = []
    for src_port in range(3000, 3000 + count):
        delivery = net.inject_from_host("H1", header.with_(src_port=src_port))
        payloads += [pack_report(rep, net.codec) for rep in delivery.reports]
    healthy = DataPlaneNetwork(scenario.topo, scenario.channel)
    passing = [
        pack_report(rep, healthy.codec)
        for rep in healthy.inject_from_host("H1", header).reports
    ]
    return payloads, passing


FAILING, PASSING = _linear_failures(3)


def _books(server, daemon=None):
    text = render_prometheus(server.obs.registry.snapshot())
    families = parse_prometheus_text(text)
    picked = {
        name: families.get(name) for name in FAILURE_FAMILIES
    }
    stats = server.stats()
    out = {"metrics": picked, "stats": {key: stats[key] for key in FAILURE_STATS}}
    if daemon is not None:
        out["daemon"] = {
            key: value
            for key, value in daemon.stats().items()
            if key not in TRANSPORT_STATS
        }
    return out


def _run_framed(frames):
    scenario = build_linear(3)
    server = VeriDPServer(scenario.topo, scenario.channel)
    with VeriDPDaemon(server, workers=1) as daemon:
        for rows in frames:
            daemon.submit_frame(Frame(b"".join(rows)))
        assert daemon.join(timeout=30)
        return _books(server, daemon), server


def _run_direct(rows):
    scenario = build_linear(3)
    server = VeriDPServer(scenario.topo, scenario.channel)
    # A daemon that never sees a report: it only puts the same merged
    # verdict family on the registry the framed runs read.
    daemon = VeriDPDaemon(server, workers=1)
    for payload in rows:
        server.receive_report_bytes(payload)
    return _books(server), server, daemon


@settings(max_examples=40, deadline=None)
@given(
    repeats=st.integers(1, 12),
    which=st.lists(st.integers(0, len(FAILING) - 1), min_size=1, max_size=3, unique=True),
    filler=st.integers(0, 40),
)
def test_books_do_not_depend_on_framing(repeats, which, filler):
    rows = [FAILING[i] for i in which for _ in range(repeats)] + PASSING * filler
    one_frame, server_one = _run_framed([rows])
    many_frames, server_many = _run_framed([[row] for row in rows])
    direct, server_direct, _daemon = _run_direct(rows)
    assert one_frame == many_frames
    assert one_frame["metrics"] == direct["metrics"]
    assert one_frame["stats"] == direct["stats"]
    expected = len(which) * repeats
    for server in (server_one, server_many, server_direct):
        assert len(server.incidents) == expected
        assert len({id(i) for i in server.incidents}) == len(which)
        assert [
            pack_report(i.verification.report, server.codec) for i in server.incidents
        ] == rows[:expected]


def test_a_walk_across_a_rewrite_is_not_shared():
    """The one exception in the soundness argument, on the rig built to
    break it (see :func:`coupled_rig`)."""
    r = coupled_rig()
    localizer, builder = r.server.localizer, r.server.builder

    def report_of(proto, dst_port):
        header = r.scenario.header_between("H1", "H3", proto=proto, dst_port=dst_port)
        (report,) = r.net.inject_from_host("H1", header).reports
        return report

    # S2 black-holes the tcp flow: its report now reads like the healthy
    # report of a udp flow S2 is configured to drop — same ports, same tag.
    tcp = report_of(PROTO_TCP, 8080)
    rule = r.net.switch("S2").table.lookup(tcp.header, 3)
    ModifyRuleOutput("S2", rule.rule_id, DROP_PORT).apply(r.net)
    dropped_tcp = report_of(PROTO_TCP, 8080)
    udp = report_of(PROTO_UDP, 9090)
    assert (dropped_tcp.inport, dropped_tcp.outport, dropped_tcp.tag) == (
        udp.inport,
        udp.outport,
        udp.tag,
    )
    # ... but the control plane walks them differently past the rewrite,
    selected = []
    tcp_walk = builder.expected_path(tcp.inport, tcp.header.as_dict(), selected)
    assert tcp_walk != builder.expected_path(udp.inport, udp.header.as_dict())
    # ... so the tcp walk vouches for no other header,
    assert r.server.hs.empty in selected
    # ... and neither report's run is offered to the other.
    for report in (dropped_tcp, udp, dropped_tcp):
        assert _shape(localizer.localize(report)) == _shape(r.oracle.localize(report))
    assert (localizer.runs, localizer.shared, localizer.classes) == (3, 0, 0)
