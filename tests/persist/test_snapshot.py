"""Snapshot store mechanics + full state round-trip on real topologies."""

import glob
import os

import pytest

from repro.bdd.headerspace import HeaderSpace
from repro.core.incremental import IncrementalPathTable, LpmProvider
from repro.core.replica import build_shard_specs, replica_digest
from repro.core.reports import PortCodec, TagReport
from repro.core.verifier import Verifier
from repro.netmodel.packet import Header
from repro.persist.recovery import capture_state, restore_state
from repro.persist.snapshot import (
    SnapshotError,
    SnapshotStore,
    bdd_fingerprint,
    read_snapshot,
    table_fingerprint,
    write_snapshot,
)
from repro.topologies import (
    build_internet2,
    build_linear,
    build_stanford,
    internet2_lpm_ruleset,
)
from repro.topologies.base import lpm_ruleset_for


def fingerprint_signature(table, hs):
    """Manager-independent table signature: structural BDDs, not node ids."""
    return {
        (inport, outport, entry.hops): bdd_fingerprint(hs.bdd, entry.headers)
        for (inport, outport), entries in table._entries.items()
        for entry in entries
    }


def lpm_rig(scenario, ruleset):
    hs = HeaderSpace()
    provider = LpmProvider(scenario.topo, hs)
    for switch, rules in sorted(ruleset.items()):
        for prefix, port in rules:
            provider.add_rule(switch, prefix, port)
    updater = IncrementalPathTable(scenario.topo, hs, provider=provider)
    return hs, updater


class TestFileFormat:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "s.snap")
        payload = {"wal_seq": 7, "data": [1, 2, 3]}
        write_snapshot(path, payload)
        assert read_snapshot(path) == payload
        assert not glob.glob(str(tmp_path / "*.tmp"))

    @pytest.mark.parametrize("damage", ["truncate", "flip", "magic", "foreign"])
    def test_damaged_files_raise(self, tmp_path, damage):
        path = str(tmp_path / "s.snap")
        write_snapshot(path, {"wal_seq": 1, "x": "y" * 100})
        blob = bytearray(open(path, "rb").read())
        if damage == "truncate":
            blob = blob[: len(blob) // 2]
        elif damage == "flip":
            blob[30] ^= 0xFF
        elif damage == "magic":
            blob[:8] = b"NOTASNAP"
        elif damage == "foreign":
            blob = b"completely unrelated bytes"
        with open(path, "wb") as fh:
            fh.write(bytes(blob))
        with pytest.raises(SnapshotError):
            read_snapshot(path)

    def test_non_state_payload_rejected(self, tmp_path):
        path = str(tmp_path / "s.snap")
        write_snapshot(path, {"wal_seq": 1})
        # a dict without wal_seq is not a state snapshot
        import pickle
        import struct
        import zlib

        from repro.persist.snapshot import SNAP_MAGIC, SNAPSHOT_FORMAT

        body = pickle.dumps({"no": "wal_seq"}, protocol=4)
        blob = SNAP_MAGIC + struct.pack(
            ">HIQ", SNAPSHOT_FORMAT, zlib.crc32(body), len(body)
        ) + body
        with open(path, "wb") as fh:
            fh.write(blob)
        with pytest.raises(SnapshotError):
            read_snapshot(path)


class TestStore:
    def test_load_latest_skips_corrupt(self, tmp_path):
        store = SnapshotStore(str(tmp_path), retain=5)
        store.save({"wal_seq": 10, "tag": "old"})
        newest = store.save({"wal_seq": 20, "tag": "new"})
        with open(newest, "r+b") as fh:
            fh.seek(12)
            fh.write(b"\xff\xff")
        assert store.load_latest()["tag"] == "old"
        assert store.stats()["snapshot_load_failures"] == 1

    def test_retention_prunes_oldest(self, tmp_path):
        store = SnapshotStore(str(tmp_path), retain=2)
        for seq in (10, 20, 30, 40):
            store.save({"wal_seq": seq})
        kept = store.paths()
        assert len(kept) == 2
        assert store.load_latest()["wal_seq"] == 40

    def test_stray_tmp_files_pruned(self, tmp_path):
        store = SnapshotStore(str(tmp_path), retain=2)
        stray = str(tmp_path / "snap-0000000000000005.snap.tmp")
        with open(stray, "wb") as fh:
            fh.write(b"half-written checkpoint")
        store.save({"wal_seq": 10})
        assert not os.path.exists(stray)

    def test_load_first_covering_picks_oldest_sufficient(self, tmp_path):
        store = SnapshotStore(str(tmp_path), retain=10)
        for seq in (10, 20, 30):
            store.save({"wal_seq": seq})
        assert store.load_first_covering(5)["wal_seq"] == 10
        assert store.load_first_covering(10)["wal_seq"] == 10
        assert store.load_first_covering(11)["wal_seq"] == 20
        assert store.load_first_covering(31) is None


class TestStateRoundTrip:
    """capture_state -> bytes -> restore_state reproduces the exact table."""

    def _round_trip(self, scenario, ruleset, tmp_path):
        hs, updater = lpm_rig(scenario, ruleset)
        payload = capture_state(
            scenario.topo, hs, updater, state_version=17, wal_seq=42
        )
        path = str(tmp_path / "state.snap")
        write_snapshot(path, payload)
        hs2, updater2 = restore_state(read_snapshot(path), scenario.topo)
        assert fingerprint_signature(updater.table, hs) == fingerprint_signature(
            updater2.table, hs2
        )
        assert updater2.table.version == updater.table.version
        # The restored table's *compiled* fast path agrees with the
        # original: verify a sampled report set on both.
        return hs, updater, hs2, updater2

    def test_linear(self, tmp_path):
        scenario = build_linear(4, install_routes=False)
        ruleset = lpm_ruleset_for(scenario.topo, scenario.subnets)
        self._round_trip(scenario, ruleset, tmp_path)

    def test_stanford(self, tmp_path):
        scenario = build_stanford(
            subnets_per_zone=1,
            install_routes=False,
            with_acls=False,
            with_ssh_detours=False,
        )
        ruleset = lpm_ruleset_for(scenario.topo, scenario.subnets)
        self._round_trip(scenario, ruleset, tmp_path)

    def test_internet2(self, tmp_path):
        scenario = build_internet2(prefixes_per_pop=1, install_routes=False)
        ruleset = internet2_lpm_ruleset(scenario)
        self._round_trip(scenario, ruleset, tmp_path)

    def test_flatbdd_matchers_survive_round_trip(self, tmp_path):
        scenario = build_linear(4, install_routes=False)
        ruleset = lpm_ruleset_for(scenario.topo, scenario.subnets)
        hs, updater, hs2, updater2 = self._round_trip(scenario, ruleset, tmp_path)
        for (pair, entries), (pair2, entries2) in zip(
            sorted(updater.table._entries.items()),
            sorted(updater2.table._entries.items()),
        ):
            assert pair == pair2
            for entry, entry2 in zip(entries, entries2):
                # Evaluate both matchers, each on its own manager's nodes,
                # on probe headers drawn from every subnet: identical
                # accept/reject behaviour.
                for src, dst in scenario.host_pairs():
                    header = scenario.header_between(src, dst)
                    value = hs.header_value(header.as_dict())
                    assert hs.bdd.evaluate_value(
                        entry.exit_header_set(), value
                    ) == hs2.bdd.evaluate_value(entry2.exit_header_set(), value)

    def test_incremental_updates_work_after_restore(self, tmp_path):
        """The restored updater is live: Section 4.4 updates keep working."""
        scenario = build_linear(4, install_routes=False)
        ruleset = lpm_ruleset_for(scenario.topo, scenario.subnets)
        hs, updater, hs2, updater2 = self._round_trip(scenario, ruleset, tmp_path)
        for u in (updater, updater2):
            u.add_rule("S1", "10.9.9.0/24", 2)
            u.delete_rule("S1", "10.9.9.0/24")
            u.add_rule("S2", "10.8.8.0/24", 2)
        assert fingerprint_signature(updater.table, hs) == fingerprint_signature(
            updater2.table, hs2
        )

    def test_restore_rejects_wrong_topology(self, tmp_path):
        scenario = build_linear(3, install_routes=False)
        ruleset = lpm_ruleset_for(scenario.topo, scenario.subnets)
        hs, updater = lpm_rig(scenario, ruleset)
        payload = capture_state(scenario.topo, hs, updater, 1, 1)
        other = build_linear(4, install_routes=False)
        from repro.persist.recovery import RecoveryError

        with pytest.raises(RecoveryError):
            restore_state(payload, other.topo)


#: A snapshot of ``build_linear(4)`` under its LPM rule set (``wal_seq`` 42,
#: ``state_version`` 3), written by the code that pickled a compiled FlatBDD
#: matcher beside every path entry (``PathEntry.compiled``).
OLDER_SNAPSHOT = os.path.join(
    os.path.dirname(__file__), "fixtures", "snap-linear4-flatbdd.snap"
)


class TestOlderSnapshot:
    def test_snapshot_with_flatbdd_matchers_restores(self, tmp_path):
        """An older snapshot still loads: the store does not skip it as
        unreadable (which would fall back to a full WAL replay), its entries
        drop the pickled matcher copies, and the restored table equals a
        fresh rebuild down to the replica it compiles."""
        target = tmp_path / "snap-0000000000000042.snap"
        target.write_bytes(open(OLDER_SNAPSHOT, "rb").read())
        store = SnapshotStore(str(tmp_path))
        payload = store.load_latest()
        assert payload is not None
        assert store.load_failures == 0
        assert (payload["wal_seq"], payload["state_version"]) == (42, 3)

        scenario = build_linear(4, install_routes=False)
        hs2, updater2 = restore_state(payload, scenario.topo)
        entries = [entry for _, _, entry in updater2.table.all_entries()]
        assert entries
        assert all("compiled" not in vars(entry) for entry in entries)

        ruleset = lpm_ruleset_for(scenario.topo, scenario.subnets)
        hs, updater = lpm_rig(scenario, ruleset)
        assert table_fingerprint(updater2.table, hs2.bdd) == table_fingerprint(
            updater.table, hs.bdd
        )
        codec = PortCodec(sorted(scenario.topo.switches))
        assert replica_digest(
            build_shard_specs(updater2.table, hs2, codec, 1)[0]
        ) == replica_digest(build_shard_specs(updater.table, hs, codec, 1)[0])
        for inport, outport, entry in updater2.table.all_entries():
            header = hs2.sample_header(entry.exit_header_set())
            report = TagReport(inport, outport, Header(**header), entry.tag)
            assert Verifier(updater2.table, hs2).verify(report).passed
