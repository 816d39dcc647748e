"""A wire record's views say what an independent reference says.

The wire intake keeps a failing report as its payload and decodes it on
read; an object report (``receive_report``) is packed and takes the same
intake.  Fed as wire rows, however they are batched, or as objects one by
one, and wherever the log is drained, each log must hold, in order, each
streamed report with the verdict and expected tag of the paper-literal
oracle (``Verifier(fast_path=False)``) and the switches a direct
``PathInferLocalizer`` run blames.
"""

from dataclasses import replace
from functools import lru_cache

from hypothesis import given, settings, strategies as st

from repro.core.localization import PathInferLocalizer
from repro.core.reports import pack_report
from repro.core.server import VeriDPServer
from repro.core.verifier import Verifier
from repro.dataplane import DataPlaneNetwork, ModifyRuleOutput
from repro.netmodel.rules import DROP_PORT
from repro.topologies import build_fattree, build_linear

RIGS = ("linear", "fattree")


@lru_cache(maxsize=None)
def rig(name: str):
    """``(wire server, object server, reference entries, report pool)``.

    ``reference[i]`` is the log entry expected for ``pool[i]``.

    The pool holds the failing ones among each flow's healthy report, its
    reports while one hop of its path misforwards (two wrong ports per hop,
    ``⊥`` included), and each of those again wearing the previous report's
    tag.
    """
    scenario = build_linear(3) if name == "linear" else build_fattree(4)
    net = DataPlaneNetwork(scenario.topo, scenario.channel)
    hosts = sorted(scenario.topo.hosts())
    seen = []
    for src in hosts[:3]:
        for dst in hosts[-3:]:
            if src == dst:
                continue
            header = scenario.header_between(src, dst)
            healthy = net.inject_from_host(src, header)
            seen += healthy.reports
            for hop in healthy.hops:
                switch = net.switch(hop.switch)
                rule = switch.table.lookup(header, hop.in_port)
                original = scenario.topo.switch(hop.switch).flow_table.get(rule.rule_id)
                wrong = sorted((switch.ports | {DROP_PORT}) - {rule.output_port()})
                for port in wrong[:2]:
                    ModifyRuleOutput(hop.switch, rule.rule_id, port).apply(net)
                    seen += net.inject_from_host(src, header).reports
                    switch.install(original)
    seen += [
        replace(report, tag=seen[index - 1].tag) for index, report in enumerate(seen)
    ]
    server = VeriDPServer(scenario.topo, scenario.channel)
    objects = VeriDPServer(scenario.topo, scenario.channel)
    oracle = Verifier(server.table, server.hs, fast_path=False)
    localizer = PathInferLocalizer(server.builder, server.scheme, scenario.topo)
    pool, expected = [], []
    for report in seen:
        result = oracle.verify(report)
        if result.passed:
            continue
        try:
            blamed = localizer.localize(report).blamed_switches()
        except Exception:
            blamed = []  # the server logs such a failure unlocalized
        pool.append(report)
        expected.append((result.verdict, report, result.expected_tag, blamed))
    return server, objects, expected, pool


def _log(incidents):
    return [
        (
            incident.verdict,
            incident.verification.report,
            incident.verification.expected_tag,
            incident.blamed_switches,
        )
        for incident in incidents
    ]


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(RIGS),
    picks=st.lists(st.integers(0, 1 << 16), min_size=1, max_size=40),
    cuts=st.lists(st.integers(1, 8), min_size=1, max_size=8),
    drain_at=st.one_of(st.none(), st.integers(0, 39)),
)
def test_wire_and_object_logs_agree(name, picks, cuts, drain_at):
    wire, objects, expected, pool = rig(name)
    wire.drain_incidents()
    objects.drain_incidents()
    stream = [pick % len(pool) for pick in picks]
    payloads = [pack_report(pool[i], wire.codec) for i in stream]
    chunks, start = [], 0
    while start < len(stream):
        stop = start + cuts[len(chunks) % len(cuts)]
        chunks.append(range(start, min(stop, len(stream))))
        start = stop
    wire_log, object_log = [], []
    for index, chunk in enumerate(chunks):
        wire.receive_report_rows([payloads[i] for i in chunk])
        for i in chunk:
            objects.receive_report(pool[stream[i]])
        if drain_at is not None and index == drain_at % len(chunks):
            wire_log += wire.drain_incidents()
            object_log += objects.drain_incidents()
    wire_log += wire.incidents
    object_log += objects.incidents
    reference = [expected[i] for i in stream]
    assert _log(wire_log) == reference
    assert _log(object_log) == reference
    assert all(incident.payload is not None for incident in wire_log + object_log)
