"""The direct daemon's worker verifies a whole queue slice in one kernel call.

``VeriDPDaemon._worker`` takes up to ``_VERIFY_MAX_ROWS`` queued reports and
hands every frame among them to one ``verify_frame`` call.  Depth must be
invisible in the results: the same frames verified one per call give the
same incidents in the same order, the same dead letters and the same
``stats()``.
"""

import time

import pytest

from repro.core import direct as daemon_mod
from repro.core import vector
from repro.core.direct import VeriDPDaemon
from repro.core.reports import Frame, pack_report
from repro.core.server import VeriDPServer
from repro.core.verifier import Verdict
from repro.dataplane import DataPlaneNetwork, ModifyRuleOutput
from repro.netmodel.rules import FlowRule, Forward, Match
from repro.topologies import build_linear
from repro.topologies.base import lpm_ruleset_for

pytest.importorskip("numpy")


def build_rig():
    """An LPM fabric on an incremental server: a rule change moves
    ``table.version`` in place, which is what the kernel cache keys on."""
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
    return scenario, server, DataPlaneNetwork(scenario.topo, scenario.channel)


def build_frames(scenario, net):
    """Five frames mixing passing rows, failing rows (fresh and repeated,
    within a frame and across frames) and rows the codec cannot decode."""

    def reports(src, dst, count, first_port=1000):
        out = []
        for i in range(count):
            header = scenario.header_between(src, dst, src_port=first_port + i)
            result = net.inject_from_host(src, header)
            out += [pack_report(r, net.codec) for r in result.reports]
        return out

    # H1->H4 last: the frames after the rule change carry it.
    good = reports("H4", "H2", 60) + reports("H2", "H3", 40) + reports("H1", "H4", 60)
    header = scenario.header_between("H1", "H3")
    rule = net.switch("S2").table.lookup(header, 1)
    ModifyRuleOutput("S2", rule.rule_id, 1).apply(net)  # H1->H3 now bounces back
    failing = reports("H1", "H3", 12, first_port=2000)
    undecodable = bytearray(good[0])
    undecodable[2], undecodable[3] = 0xFF, 0x00  # no such switch
    undecodable = bytes(undecodable)

    rows = []
    for k in range(5):
        frame = good[k * 32 : (k + 1) * 32]
        frame[3:3] = failing[2 * k : 2 * k + 3]  # one of them again next frame
        frame[20:20] = [failing[0], undecodable]
        frame.append(failing[2 * k])  # a repeat inside the frame
        # Past the vector crossover, so a lone frame is a kernel call too.
        assert len(frame) >= daemon_mod._VECTOR_MIN_BATCH
        rows.append(b"".join(frame))
    return rows, set(good)


def run_slices(server, scenario, frames, max_rows, monkeypatch):
    """Feed the frames to a one-worker daemon as two queue slices with a
    rule change between them; returns what an operator could observe."""
    monkeypatch.setattr(daemon_mod, "_VERIFY_MAX_ROWS", max_rows)
    daemon = VeriDPDaemon(server, workers=1)
    calls = []
    real = vector.WireBatchVerifier.verify_frame

    def counted(self, payload):
        calls.append(len(payload) // daemon_mod.REPORT_SIZE)
        return real(self, payload)

    monkeypatch.setattr(vector.WireBatchVerifier, "verify_frame", counted)

    def slice_of(items):
        for item in items:
            daemon.submit_frame(Frame(item))
        daemon._queue.close()
        daemon._worker()  # returns once the closed queue is empty
        daemon._queue.reopen()

    # Each worker call drains what is queued in slices as deep as depth
    # allows: one slice per call at full depth, one frame per slice at 1.
    slice_of(frames[:3])
    # H4's traffic now leaves S3 towards S2: reports that passed are failures.
    server.apply_rule_update("S3", f"{scenario.host_ips['H4']}/32", 1)
    slice_of(frames[3:])
    assert daemon.join(timeout=1)
    codec = server.codec
    return {
        "calls": calls,
        "incidents": [
            (
                i.verification.verdict,
                pack_report(i.verification.report, codec),
                i.blamed_switches,
            )
            for i in server.incidents
        ],
        "dead_letters": [
            (l.payload, l.stage, l.error_type, l.error)
            for l in daemon.dead_letters._pending
        ],
        "stats": daemon.stats(),
        "server": {
            k: server.stats()[k]
            for k in ("incidents_total", "incident_records", "localizations")
        },
        "call_rows": (daemon._call_rows_hist.count, daemon._call_rows_hist.sum),
    }


def test_one_kernel_call_per_slice_matches_one_per_frame(monkeypatch):
    outcomes = {}
    for name, max_rows in (("deep", 4096), ("single", 1)):
        scenario, server, net = build_rig()
        frames, good = build_frames(scenario, net)
        with monkeypatch.context() as patch:
            outcomes[name] = run_slices(server, scenario, frames, max_rows, patch)
    deep, single = outcomes["deep"], outcomes["single"]
    sizes = [len(f) // daemon_mod.REPORT_SIZE for f in frames]
    # Depth followed the backlog: one call per slice against one per frame.
    assert single["calls"] == sizes
    assert deep["calls"] == [sum(sizes[:3]), sum(sizes[3:])]
    assert deep["call_rows"] == (2, sum(sizes))
    assert single["call_rows"] == (5, sum(sizes))
    # ... and nothing else did.
    assert deep["incidents"] == single["incidents"]
    assert deep["dead_letters"] == single["dead_letters"]
    assert deep["stats"] == single["stats"]
    assert deep["server"] == single["server"]
    # The mix was not vacuous.
    stats = deep["stats"]
    assert stats["malformed"] == 5 and stats["failed"] > 20
    assert stats["wire_pass"] >= 64
    assert stats["submitted"] == (
        stats["processed"] + stats["malformed"] + stats["verify_errors"]
    )
    # The rule change between the slices reached the second call's kernel:
    # rows the data plane forwarded correctly are incidents after it.
    assert any(payload in good for _, payload, _ in deep["incidents"])


def test_wire_pass_counts_the_kernel_bulk_passes_only():
    """``stats()["wire_pass"]`` counts rows the wire kernel passed in bulk.
    A frame below the kernel's crossover goes through the replica's scalar
    matcher: its rows count as verified and in the merged verdict family,
    not as wire passes."""
    scenario, server, net = build_rig()
    _frames, good = build_frames(scenario, net)
    good = sorted(good)
    small = daemon_mod._VECTOR_MIN_BATCH - 1
    with VeriDPDaemon(server, workers=1) as daemon:
        daemon.submit_frame(Frame(b"".join(good[:small])))
        assert daemon.join(timeout=10)
        stats = daemon.stats()
        assert stats["wire_pass"] == 0
        assert stats["verified"] == daemon.counters[Verdict.PASS] == small
        daemon.submit_frame(Frame(b"".join(good[:64])))
        assert daemon.join(timeout=10)
        assert daemon.stats()["wire_pass"] == 64
        assert daemon._merged_verdicts()[(Verdict.PASS.value,)] == small + 64


def test_stop_ends_every_worker():
    """stop() closes the queue and every worker ends on it at once: a
    worker that missed its stop would cost stop() a 5 s join timeout and
    leak a thread."""
    scenario = build_linear(3)
    server = VeriDPServer(scenario.topo, scenario.channel)
    daemon = VeriDPDaemon(server, workers=3)
    daemon.start()
    threads = list(daemon._threads)
    started = time.perf_counter()
    daemon.stop()
    assert time.perf_counter() - started < 2.0
    assert not any(t.is_alive() for t in threads)
    assert daemon.join(timeout=1)
