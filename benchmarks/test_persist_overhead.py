"""Durability overhead gates — the WAL must not tax Figure 13.

Two gates, both machine-readable in ``benchmarks/results/BENCH_persist.json``:

* **Ingestion overhead** — the per-report path (decode + batch verify
  with ``match_pair`` on the compiled pair indexes) is run twice over
  identical batches, once bare and once with each batch appended to a
  write-ahead log at ``fsync="interval"`` first, exactly as
  ``ShardedVeriDPDaemon._dispatch_inner`` does in durable mode (one
  batched WAL append per shard batch, before any worker sees it).  The
  paired median-of-differences overhead must stay under 10%.

* **Cold start** — restoring the Stanford path table from a snapshot
  (read + restore_state) must beat recomputing it from the rule set,
  which is the whole point of checkpointing.

Measurement is paired for the same reason as ``test_obs_overhead``: each
sample times adjacent bare/WAL groups, the median difference cancels
box drift, and the gate re-measures with more repeats before failing.
"""

import os
import shutil
import tempfile
from time import perf_counter

from repro.analysis import reports_from_table
from repro.bdd.headerspace import HeaderSpace
from repro.core.incremental import IncrementalPathTable, LpmProvider
from repro.core.reports import PortCodec, pack_report, unpack_report
from repro.core.verifier import Verifier
from repro.persist.recovery import capture_state, restore_state
from repro.persist.snapshot import read_snapshot, write_snapshot
from repro.persist.wal import WriteAheadLog
from repro.topologies import build_stanford
from repro.topologies.base import lpm_ruleset_for

from conftest import STANFORD_SUBNETS, print_table, write_json

BATCH_SIZE = 64  # VeriDPDaemon's default: one WAL append per report
BASE_REPEATS = int(os.environ.get("REPRO_PERSIST_REPEATS", "30"))
GATE_PCT = 10.0
ATTEMPTS = 3


def _fastpath_rig(row):
    reports = reports_from_table(row.builder, row.table)
    row.table.compile_matchers(row.builder.hs)
    verifier = Verifier(row.table, row.builder.hs)
    codec = PortCodec(sorted(row.builder.topo.switches))
    payloads = [pack_report(report, codec) for report in reports]
    batches = [
        payloads[i : i + BATCH_SIZE]
        for i in range(0, len(payloads), BATCH_SIZE)
    ]
    return verifier, codec, batches, len(reports)


def _measure_wal_overhead(row, repeats):
    verifier, codec, batches, reports = _fastpath_rig(row)
    wal_dir = tempfile.mkdtemp(prefix="bench-wal-")
    wal = WriteAheadLog(wal_dir, fsync="interval")
    try:

        def bare():
            for batch in batches:
                decoded = [unpack_report(payload, codec) for payload in batch]
                verifier.verify_batch(decoded)

        def walled():
            # Mirrors the durable dispatch path: one batch record appended
            # to the WAL, then decode + verify, per batch.
            for batch in batches:
                wal.append_report_batch(batch)
                decoded = [unpack_report(payload, codec) for payload in batch]
                verifier.verify_batch(decoded)

        bare()  # warm: lazy matcher state, allocator
        walled()
        group = 3
        diffs = []
        bare_s = float("inf")
        for _ in range(repeats):
            start = perf_counter()
            for _ in range(group):
                bare()
            bare_sample = (perf_counter() - start) / group
            start = perf_counter()
            for _ in range(group):
                walled()
            walled_sample = (perf_counter() - start) / group
            bare_s = min(bare_s, bare_sample)
            diffs.append(walled_sample - bare_sample)
        stats = wal.stats()
    finally:
        wal.close()
        shutil.rmtree(wal_dir, ignore_errors=True)
    diffs.sort()
    median_diff = diffs[len(diffs) // 2]
    overhead_pct = median_diff / bare_s * 100.0
    return {
        "reports": reports,
        "batches": len(batches),
        "repeats": repeats,
        "fsync": "interval",
        "wal_fsyncs": stats["wal_fsyncs"],
        "wal_records": stats["wal_records_report"],
        "bare_us_per_report": round(bare_s / reports * 1e6, 4),
        "walled_us_per_report": round(
            (bare_s + median_diff) / reports * 1e6, 4
        ),
        "overhead_pct": round(overhead_pct, 3),
    }


def _measure_cold_start(repeats=5):
    scenario = build_stanford(
        subnets_per_zone=STANFORD_SUBNETS,
        install_routes=False,
        with_acls=False,
        with_ssh_detours=False,
    )
    ruleset = lpm_ruleset_for(scenario.topo, scenario.subnets)
    flat = [
        (switch, prefix, port)
        for switch, rules in sorted(ruleset.items())
        for prefix, port in rules
    ]

    def recompute():
        hs = HeaderSpace()
        provider = LpmProvider(scenario.topo, hs)
        for switch, prefix, port in flat:
            provider.add_rule(switch, prefix, port)
        return hs, IncrementalPathTable(scenario.topo, hs, provider=provider)

    hs, updater = recompute()  # warm + the state to checkpoint
    snap_dir = tempfile.mkdtemp(prefix="bench-snap-")
    path = os.path.join(snap_dir, "state.snap")
    try:
        write_snapshot(
            path, capture_state(scenario.topo, hs, updater, 1, 1)
        )
        snapshot_bytes = os.path.getsize(path)
        recompute_s = float("inf")
        restore_s = float("inf")
        for _ in range(repeats):
            start = perf_counter()
            recompute()
            recompute_s = min(recompute_s, perf_counter() - start)
            start = perf_counter()
            restore_state(read_snapshot(path), scenario.topo)
            restore_s = min(restore_s, perf_counter() - start)
    finally:
        shutil.rmtree(snap_dir, ignore_errors=True)
    return {
        "rules": len(flat),
        "snapshot_bytes": snapshot_bytes,
        "recompute_ms": round(recompute_s * 1e3, 3),
        "cold_start_ms": round(restore_s * 1e3, 3),
        "speedup": round(recompute_s / restore_s, 2),
    }


def test_persist_overhead_gates(benchmark, stanford_row, internet2_row):
    payload = {"gate_pct": GATE_PCT, "batch_size": BATCH_SIZE, "setups": {}}

    def run_all():
        for row in (stanford_row, internet2_row):
            result = None
            for attempt in range(1, ATTEMPTS + 1):
                result = _measure_wal_overhead(row, BASE_REPEATS * attempt)
                result["attempts"] = attempt
                if result["overhead_pct"] < GATE_PCT:
                    break
            payload["setups"][row.setup] = result
        payload["cold_start"] = _measure_cold_start()

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    rows = [
        (
            setup,
            result["reports"],
            result["bare_us_per_report"],
            result["walled_us_per_report"],
            f"{result['overhead_pct']:+.2f}%",
            f"< {GATE_PCT:.0f}%",
        )
        for setup, result in payload["setups"].items()
    ]
    cold = payload["cold_start"]
    rows.append(
        (
            "Stanford cold start",
            cold["rules"],
            cold["recompute_ms"],
            cold["cold_start_ms"],
            f"x{cold['speedup']}",
            "restore < recompute",
        )
    )
    print_table(
        "Durability overhead: WAL append (fsync=interval) on the Figure 13 "
        "fast path + snapshot cold start",
        ["setup", "n", "bare", "with WAL", "delta", "gate"],
        rows,
        slug="persist_overhead",
    )
    write_json("BENCH_persist", payload)

    for setup, result in payload["setups"].items():
        assert result["overhead_pct"] < GATE_PCT, (
            f"{setup}: WAL overhead {result['overhead_pct']}% breaches the "
            f"{GATE_PCT}% gate after {result['attempts']} attempts"
        )
    assert cold["cold_start_ms"] < cold["recompute_ms"], (
        f"cold start {cold['cold_start_ms']}ms is not faster than "
        f"recompute {cold['recompute_ms']}ms"
    )
