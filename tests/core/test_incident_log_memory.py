"""A persistent fault must cost memory per distinct failure, not per report.

The incident log interns: R repeats of K distinct failing payloads leave
``R * K`` log entries that are K objects, and each repeat adds one list slot
(8 bytes) and nothing else.  The records themselves are slotted, and still
pickle — sharded and cluster specs and the WAL replay ship ``Hop`` and
``PortRef``.
"""

import gc
import pickle
import sys
import tracemalloc

import pytest

from repro.core.daemon import VeriDPDaemon
from repro.core.localization import CandidatePath, LocalizationResult
from repro.core.reports import Frame, TagReport, pack_report
from repro.core.server import Incident, VeriDPServer
from repro.core.verifier import Verdict, VerificationResult, Verifier
from repro.dataplane import DataPlaneNetwork, ModifyRuleOutput
from repro.netmodel.hops import Hop
from repro.netmodel.packet import Header
from repro.netmodel.topology import PortRef
from repro.obs import Observability, Tracer
from repro.topologies import build_linear

DISTINCT = 256
FRAME_ROWS = 128


def failing_payloads(scenario, codec, count):
    """``count`` distinct failing payloads of one misforwarded flow."""
    net = DataPlaneNetwork(scenario.topo, scenario.channel)
    header = scenario.header_between("H1", "H3")
    rule = net.switch("S2").table.lookup(header, 3)
    ModifyRuleOutput("S2", rule.rule_id, 1).apply(net)
    payloads = []
    for src_port in range(2000, 2000 + count):
        delivery = net.inject_from_host("H1", header.with_(src_port=src_port))
        payloads += [pack_report(report, codec) for report in delivery.reports]
    assert len(set(payloads)) == count
    return payloads


def feed(daemon, payloads, rounds):
    for _ in range(rounds):
        for start in range(0, len(payloads), FRAME_ROWS):
            daemon.submit_frame(Frame(b"".join(payloads[start : start + FRAME_ROWS])))
    assert daemon.join(timeout=60)


class TestIncidentLogInterns:
    def test_repeats_share_records_and_add_a_list_slot_each(self):
        scenario = build_linear(3)
        # The tracer's span ring is bounded but still filling at this size;
        # it is not what this test weighs.
        server = VeriDPServer(
            scenario.topo,
            scenario.channel,
            obs=Observability(tracer=Tracer(enabled=False)),
        )
        payloads = failing_payloads(scenario, server.codec, DISTINCT)
        with VeriDPDaemon(server, workers=1) as daemon:
            tracemalloc.start()
            try:
                feed(daemon, payloads, rounds=1)
                assert len(server.incidents) == DISTINCT
                assert len({id(i) for i in server.incidents}) == DISTINCT
                gc.collect()
                before, _peak = tracemalloc.get_traced_memory()
                feed(daemon, payloads, rounds=19)
                gc.collect()
                after, _peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            stats = daemon.stats()
        assert len(server.incidents) == 20 * DISTINCT
        assert len({id(i) for i in server.incidents}) == DISTINCT
        assert (after - before) / (19 * DISTINCT) < 16
        # Every repeat was still counted as a verified, failed, localized
        # report.
        assert server.incidents_total == 20 * DISTINCT
        assert stats["processed"] == stats["failed"] == 20 * DISTINCT
        assert server.localizations == 20 * DISTINCT
        assert server.stats()["incident_records"] == DISTINCT
        # One forwarding class: PathInfer ran once for all of it.
        assert server.localizer.runs == 1
        assert server.localization_cache_hits == 20 * DISTINCT - 1

    def test_a_record_costs_its_payload_and_a_few_references(self):
        """A record made by the wire intake keeps its payload, verdict,
        matched entry, shared candidates and codec; everything else is
        decoded on read.  256 distinct failing payloads of one forwarding
        class, after 256 others warmed the replica and the localizer, add
        at most 250 traced bytes per record beyond the payload ``bytes``
        (record, map entry, list slot).  Before records were compact, each
        held its decoded ``VerificationResult``, ``TagReport``, ``Header``,
        field ints and ``LocalizationResult``, and the flow cache kept
        every failing flow: 595 bytes per record on the same run.
        """
        scenario = build_linear(3)
        server = VeriDPServer(
            scenario.topo,
            scenario.channel,
            obs=Observability(tracer=Tracer(enabled=False)),
        )
        payloads = failing_payloads(scenario, server.codec, 2 * DISTINCT)
        warm, fresh = payloads[:DISTINCT], payloads[DISTINCT:]
        with VeriDPDaemon(server, workers=1) as daemon:
            tracemalloc.start()
            try:
                feed(daemon, warm, rounds=1)
                gc.collect()
                before, _peak = tracemalloc.get_traced_memory()
                feed(daemon, fresh, rounds=1)
                gc.collect()
                after, _peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert server.stats()["incident_records"] == 2 * DISTINCT
        assert server.localizer.runs == 1
        own = sum(sys.getsizeof(payload) for payload in fresh)
        assert (after - before - own) / DISTINCT <= 250
        # The views still read the report each payload carries.
        assert [
            pack_report(i.verification.report, server.codec) for i in server.incidents
        ] == payloads

    def test_each_payload_keeps_its_own_report(self):
        scenario = build_linear(3)
        server = VeriDPServer(scenario.topo, scenario.channel)
        payloads = failing_payloads(scenario, server.codec, 4)
        for payload in payloads + payloads:
            server.receive_report_bytes(payload)
        assert [
            pack_report(i.verification.report, server.codec)
            for i in server.incidents
        ] == payloads + payloads
        for incident in server.incidents:
            assert incident.localization.report is incident.verification.report
            assert incident.blamed_switches == ["S2"]

    def test_drain_and_rule_change_end_the_sharing(self):
        scenario = build_linear(3)
        server = VeriDPServer(scenario.topo, scenario.channel)
        (payload,) = failing_payloads(scenario, server.codec, 1)
        first = server.receive_report_bytes(payload)
        assert server.receive_report_bytes(payload) is first
        assert server.drain_incidents() == [first, first]
        second = server.receive_report_bytes(payload)
        assert second is not first
        server.force_rebuild()
        third = server.receive_report_bytes(payload)
        assert third is not second
        # The log outlives the map: both records are still in it.
        assert server.incidents == [second, third]

    def test_a_verdict_overtaken_by_a_rule_change_is_not_remembered(self, monkeypatch):
        """The daemon verifies outside its lock.  A rule that lands in that
        gap must not get the old table's verdict filed under the new
        configuration, where nothing would ever re-verify it."""
        scenario = build_linear(3)
        server = VeriDPServer(scenario.topo, scenario.channel)
        (payload,) = failing_payloads(scenario, server.codec, 1)
        verified = []
        rule_lands = [True]
        verify = Verifier.verify

        def spy(self, report):
            result = verify(self, report)
            verified.append(1)
            if rule_lands[0]:
                server.state_version += 1
            return result

        monkeypatch.setattr(Verifier, "verify", spy)
        with VeriDPDaemon(server, workers=1) as daemon:
            for _ in range(2):
                daemon.submit_frame(Frame(payload))
                assert daemon.join(timeout=60)
            # Both arrivals were overtaken: both verified, both logged,
            # neither remembered.
            assert verified == [1, 1]
            first, second = server.incidents
            assert first is not second
            rule_lands[0] = False
            for _ in range(2):
                daemon.submit_frame(Frame(payload))
                assert daemon.join(timeout=60)
            stats = daemon.stats()
        # Undisturbed, the third is verified and remembered; the fourth
        # is its repeat.
        assert verified == [1, 1, 1]
        assert server.incidents[2] is server.incidents[3]
        assert server.incidents[2] is not second
        assert stats["processed"] == stats["failed"] == 4
        assert server.stats()["incident_records"] == 3


HOP = Hop(1, "S1", 2)
PORT = PortRef("S1", 1)
HEADER = Header(src_ip=1, dst_ip=2, src_port=3, dst_port=4)
REPORT = TagReport(PORT, PortRef("S2", 2), HEADER, 0xBEEF)
VERIFICATION = VerificationResult(Verdict.FAIL_NO_PATH, REPORT)
CANDIDATE = CandidatePath((HOP,), "S1")
LOCALIZATION = LocalizationResult(REPORT, [CANDIDATE])
RECORDS = [
    REPORT,
    HEADER,
    PORT,
    HOP,
    VERIFICATION,
    CANDIDATE,
    LOCALIZATION,
    Incident(VERIFICATION, LOCALIZATION),
]


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
class TestRecordsAreSlotted:
    def test_rejects_a_stray_attribute(self, record):
        assert not hasattr(record, "__dict__")
        # A frozen slotted dataclass refuses with TypeError on CPython 3.11
        # (its generated __setattr__ still names the pre-slots class).
        with pytest.raises((AttributeError, TypeError)):
            record.stray = 1

    def test_pickles(self, record):
        clone = pickle.loads(pickle.dumps(record))
        assert type(clone) is type(record)
        assert clone == record


def test_codec_decodes_one_port_ref_per_wire_id():
    scenario = build_linear(3)
    codec = VeriDPServer(scenario.topo, scenario.channel).codec
    wire = codec.encode(PortRef("S2", 1))
    assert codec.decode(wire) is codec.decode(wire)
    assert codec.decode(wire) == PortRef("S2", 1)
