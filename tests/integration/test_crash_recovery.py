"""Crash-recovery: SIGKILL mid-ingestion, restart, replay the ledger.

The acceptance criterion as an executable test.  A subprocess driver
(:mod:`tests.persist._crash_driver`) ingests a deterministic report
stream with a live data-plane fault into a durable server
(``fsync="always"``), appending every incident to an fsynced JSONL
ledger.  This test SIGKILLs the driver mid-stream and asserts

* the restarted server's path table equals an independent rebuild from
  the WAL's control records (snapshot + suffix == full replay),
* deterministic replay of the WAL reproduces the pre-kill incident
  ledger exactly (direct mode) — bounded by the last ledger position,
* the same holds across repeated kill/restart cycles, and
* the sharded-daemon path (WorkerKill *plus* SIGKILL of the whole
  process) loses no ledgered incident.

The driver stream is fully deterministic (no RNG), so there is no seed
to pin; ``CHAOS_SEED`` is irrelevant here by construction.
"""

import json
import os
import pathlib
import signal
import subprocess
import sys
import time

from repro.bdd.headerspace import HeaderSpace
from repro.core.incremental import IncrementalPathTable, LpmProvider
from repro.core.server import VeriDPServer
from repro.persist import PersistentState
from repro.persist.recovery import stage_control_event
from repro.persist.replay import replay
from repro.persist.snapshot import bdd_fingerprint
from repro.persist.wal import RT_CONTROL, ControlEvent
from repro.topologies import build_linear

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
DRIVER = REPO_ROOT / "tests" / "persist" / "_crash_driver.py"
WAIT_DEADLINE = 60.0


def fingerprint_signature(table, hs):
    return {
        (inport, outport, entry.hops): bdd_fingerprint(hs.bdd, entry.headers)
        for (inport, outport), entries in table._entries.items()
        for entry in entries
    }


def start_driver(state_dir, ledger, mode, log_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    log = open(log_path, "ab")
    return subprocess.Popen(
        [sys.executable, str(DRIVER), state_dir, ledger, "--mode", mode],
        cwd=str(REPO_ROOT),
        env=env,
        stdout=log,
        stderr=subprocess.STDOUT,
        start_new_session=True,  # own process group: killpg reaps shard workers
    )


def kill_hard(proc):
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:  # pragma: no cover - driver already gone
        pass
    proc.wait(timeout=10)


def read_ledger(path):
    """Parse ledger lines, dropping a torn (kill-interrupted) tail line."""
    boots, incidents = [], []
    if not os.path.exists(path):
        return boots, incidents
    with open(path) as fh:
        for line in fh:
            try:
                obj = json.loads(line)
            except ValueError:
                continue  # torn tail
            if "boot" in obj:
                boots.append(obj)
            else:
                incidents.append(obj)
    return boots, incidents


def wait_for_incidents(proc, ledger, count, log_path):
    deadline = time.monotonic() + WAIT_DEADLINE
    while time.monotonic() < deadline:
        _, incidents = read_ledger(ledger)
        if len(incidents) >= count:
            return incidents
        if proc.poll() is not None:
            sys.stdout.write(open(log_path).read())
            raise AssertionError(
                f"driver exited early with rc={proc.returncode}"
            )
        time.sleep(0.05)
    kill_hard(proc)
    sys.stdout.write(open(log_path).read())
    raise AssertionError(
        f"driver produced <{count} incidents within {WAIT_DEADLINE}s"
    )


def rebuild_from_wal_controls(state_dir, scenario):
    """Independent ground truth: fresh table from the WAL's control log."""
    hs = HeaderSpace()
    provider = LpmProvider(scenario.topo, hs)
    updater = IncrementalPathTable(scenario.topo, hs, provider=provider)
    with PersistentState(state_dir, read_only=True) as state:
        for record in state.wal.records():
            if record.rtype == RT_CONTROL:
                stage_control_event(updater, ControlEvent.decode(record.payload))
    updater.flush_updates()
    return hs, updater


def normalize(key):
    return json.loads(json.dumps(key))


def replayed_incidents(state_dir, scenario, stop_seq=None):
    with PersistentState(state_dir, read_only=True) as state:
        result = replay(
            state, scenario.topo, stop_seq=stop_seq, localize=False
        )
    return [(i.seq, normalize(i.key)) for i in result.incidents]


def assert_recovered_table_matches_rebuild(state_dir, scenario):
    server = VeriDPServer(
        scenario.topo, state_dir=state_dir, fsync="never"
    )
    try:
        assert server.boot_source in ("snapshot", "wal")
        recovered = fingerprint_signature(server.table, server.hs)
    finally:
        server.close()
    hs, updater = rebuild_from_wal_controls(state_dir, scenario)
    assert recovered == fingerprint_signature(updater.table, hs)


class TestDirectCrashRecovery:
    def test_sigkill_then_restart_and_exact_replay(self, tmp_path):
        scenario = build_linear(4)
        state_dir = str(tmp_path / "state")
        ledger = str(tmp_path / "ledger.jsonl")
        log_path = str(tmp_path / "driver.log")

        proc = start_driver(state_dir, ledger, "direct", log_path)
        try:
            wait_for_incidents(proc, ledger, 6, log_path)
        finally:
            kill_hard(proc)

        _, incidents = read_ledger(ledger)
        assert len(incidents) >= 6

        # Recovered table == independent rebuild from the control log.
        assert_recovered_table_matches_rebuild(state_dir, scenario)

        # Replay up to the last ledgered position reproduces the ledger
        # *exactly*: same incidents, same order, same WAL offsets.  (In
        # direct mode each ledger line's wal_seq is its report's seq.)
        stop_seq = incidents[-1]["wal_seq"]
        got = replayed_incidents(scenario=scenario, state_dir=state_dir,
                                 stop_seq=stop_seq)
        want = [(e["wal_seq"], normalize(e["key"])) for e in incidents]
        assert got == want

    def test_kill_restart_loop_stays_consistent(self, tmp_path):
        """Three kill/restart cycles over one state dir: the table always
        equals the rebuild, and no ledgered incident is ever lost."""
        scenario = build_linear(4)
        state_dir = str(tmp_path / "state")
        ledger = str(tmp_path / "ledger.jsonl")
        log_path = str(tmp_path / "driver.log")

        total = 0
        for cycle in range(3):
            proc = start_driver(state_dir, ledger, "direct", log_path)
            try:
                wait_for_incidents(proc, ledger, total + 3, log_path)
            finally:
                kill_hard(proc)
            boots, incidents = read_ledger(ledger)
            total = len(incidents)
            assert len(boots) == cycle + 1
            assert_recovered_table_matches_rebuild(state_dir, scenario)

        # Later boots recovered from disk, not from scratch.
        assert boots[0]["boot"] == "bootstrap"
        assert all(b["boot"] in ("snapshot", "wal") for b in boots[1:])

        # Every ledgered incident appears in the replay at its exact
        # WAL offset.  (The replay may additionally contain incidents
        # verified in the instant between the WAL append and the
        # ledger write of a kill — those are extra, never missing.)
        got = dict(replayed_incidents(scenario=scenario, state_dir=state_dir))
        for entry in incidents:
            assert got.get(entry["wal_seq"]) == normalize(entry["key"])


class TestDaemonCrashRecovery:
    def test_workerkill_plus_sigkill_loses_no_ledgered_incident(self, tmp_path):
        """Sharded daemon: one shard worker is SIGKILLed mid-run by the
        driver itself, then this test SIGKILLs the whole process group."""
        scenario = build_linear(4)
        state_dir = str(tmp_path / "state")
        ledger = str(tmp_path / "ledger.jsonl")
        log_path = str(tmp_path / "driver.log")

        proc = start_driver(state_dir, ledger, "daemon", log_path)
        try:
            wait_for_incidents(proc, ledger, 4, log_path)
        finally:
            kill_hard(proc)

        _, incidents = read_ledger(ledger)
        assert_recovered_table_matches_rebuild(state_dir, scenario)

        # Shard merge order is nondeterministic, so compare multisets:
        # every ledgered incident key must be reproduced by the replay
        # at least as many times as it was ledgered.
        got = [key for _, key in replayed_incidents(
            scenario=scenario, state_dir=state_dir)]
        for entry in incidents:
            want = normalize(entry["key"])
            assert got.count(want) >= [
                normalize(e["key"]) for e in incidents
            ].count(want)
