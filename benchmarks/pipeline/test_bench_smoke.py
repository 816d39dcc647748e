"""Smoke checks for the pipeline benchmark (run explicitly; not tier-1).

    PYTHONPATH=src python3 -m pytest -q benchmarks/pipeline/test_bench_smoke.py

Checks the ``BENCHMARK.json`` schema and limits, the metric-name alphabet,
that every name the issue fixed is present exactly as spelled, that the
ledger refuses counts that do not add up, and that one healthy and one
faulty workload run end to end in ``--quick`` mode with a closed ledger.
"""

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, "..", ".."))
sys.path.insert(0, HERE)

import bench  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

WORKLOADS = [
    "flood_direct", "flood_durable_tenants", "flood_sharded", "flood_cluster",
    "fault_storm", "paced_detect", "rule_churn",
]
END_TO_END = [
    "setup_s", "reports_per_s", "cpu_s_per_mreport", "peak_rss_mb",
    "failed_fraction", "blame_correct_fraction", "detect_latency_p50_ms",
    "detect_within_10ms_fraction", "update_latency_p50_ms",
    "false_alarms_per_update",
]
PER_LAYER = [
    "core.ingest.drain_socket.ns_per_report", "core.ingest.drain_depth.mean",
    "core.ingest.screen_frame.ns_per_report",
    "slice.registry.classify_dst_batch.ns_per_report",
    "core.resilience.put_frame.ns_per_report",
    "core.resilience.get_many.ns_per_report",
    "core.resilience.tenant_put_frame.ns_per_report",
    "persist.wal.append_report_frame.ns_per_report",
    "persist.wal.bytes_per_report", "persist.wal.fsyncs_per_mreport",
    "persist.wal.append_control.us_per_event", "persist.recovery.boot.s",
    "core.ingest.shard_split.ns_per_report",
    "core.daemon.sharded_submit_frame.ns_per_report",
    "cluster.frontend.submit_frame.ns_per_report",
    "cluster.pipeline.ns_per_report",
    "core.vector.verify_frame.ns_per_report", "core.vector.flagged_fraction",
    "core.reports.unpack_report.ns_per_report",
    "core.verifier.verify_pass.ns_per_report",
    "core.verifier.verify_fail.us_per_report",
    "core.localization.localize.us_per_failure",
    "core.server.receive_report_bytes_fail.us_per_failure",
    "core.server.localization_cache_hit_ratio",
    "core.server.log_incidents.ns_per_incident",
    "core.daemon.direct_pipeline.ns_per_report",
    "core.daemon.unattributed.ns_per_report", "trace.stage_sum_over_wall",
    "core.incremental.stage_rule.us_per_event",
    "core.incremental.flush_updates.ms_per_flush",
    "core.incremental.dirty_pairs_per_flush",
    "core.daemon.build_pair_spec.us_per_pair",
    "core.vector.invalidate_reload.ms_per_flush",
    "core.daemon.resync_replicas.ms_per_flush",
    "core.daemon.resync_delta_bytes_per_flush",
    "cluster.coordinator.resync.ms_per_flush",
    "slice.isolation.recheck.ms_per_flush",
    "topologies.build.s", "core.pathtable.build.s",
    "core.pathtable.compile_matchers.s", "core.vector.build_table_kernel.s",
    "core.daemon.build_shard_specs.s", "persist.snapshot.write.s",
    "core.pathtable.entries", "bdd.engine.nodes", "obs.exposition.render_ms",
    "loadgen.max_send_rate", "loadgen.lag_p95_ms", "trace.overhead_fraction",
]


@pytest.fixture(scope="module")
def spec():
    return bench.manifest()


def test_manifest_schema(spec):
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert spec["paths"] == ["benchmarks/pipeline"]
    assert 1 <= len(spec["command"]) <= 32
    assert all(len(part) <= 200 and not part.startswith("/") for part in spec["command"])
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])
    with open(os.path.join(ROOT, "BENCHMARK.json"), "rb") as fh:
        assert len(fh.read()) <= 64 * 1024


def test_name_alphabet_and_uniqueness(spec):
    metrics = spec["end_to_end"] + spec["per_layer"]
    names = [w["name"] for w in spec["workloads"]] + [m["name"] for m in metrics]
    for name in names:
        assert NAME.fullmatch(name), name
    assert len(set(names)) == len(names)
    for metric in metrics:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")


def test_issue_names_present_as_spelled(spec):
    assert [w["name"] for w in spec["workloads"]] == WORKLOADS
    carried = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    assert not [n for n in END_TO_END + PER_LAYER if n not in carried]
    # The metrics the driver cannot gate are gated by --compare instead.
    driver = {m["name"] for m in spec["end_to_end"]}
    assert set(END_TO_END) - driver == set(bench.OWN_GATES)


def _fake_run(failed=0, received=1000, passed=1000):
    import numpy as np

    import workloads

    inputs = workloads.Inputs(host_cfg={}, pool=np.zeros((32, 27), dtype=np.uint8))
    final = {
        "received": received, "passed": passed, "failed": failed,
        "malformed": 0, "transport_rejected": 0, "submit_errors": 0,
        "dropped": 0, "incident_ledger": {},
    }
    return inputs, {"sent": 1000}, final


def test_ledger_accepts_a_closed_run():
    inputs, obs, final = _fake_run()
    result = bench.reconcile("flood_direct", inputs, obs, final)
    assert result["failed"] == 0 and result["attempted"] == 1000


def test_ledger_refuses_unaccounted_reports():
    inputs, obs, final = _fake_run(passed=990)
    with pytest.raises(bench.LedgerError):
        bench.reconcile("flood_direct", inputs, obs, final)


def test_ledger_refuses_a_verdict_the_oracle_does_not_expect():
    inputs, obs, final = _fake_run(failed=3, passed=997)
    with pytest.raises(bench.LedgerError):
        bench.reconcile("flood_direct", inputs, obs, final)


def test_ledger_counts_a_lost_datagram_as_failed_not_as_mismatch():
    inputs, obs, final = _fake_run(received=999, passed=999)
    result = bench.reconcile("flood_direct", inputs, obs, final)
    assert result["lost"] == 1 and result["failed"] == 1


@pytest.mark.parametrize("workload", ["flood_direct", "fault_storm"])
def test_quick_run_end_to_end(workload, spec):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "bench.py"),
         "--workload", workload, "--seed", "3", "--quick", "--trace", "0"],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["attempted"] >= 1 and line["failed"] == 0
    assert set(line["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    for metric in spec["end_to_end"]:
        got = line["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"] and got["value"] > 0


def test_exits_nonzero_without_the_program(tmp_path):
    """In a checkout that holds only BENCHMARK.json and the benchmark's own
    files there is nothing to measure: no result line, non-zero exit."""
    import shutil

    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "pipeline",
        ignore=shutil.ignore_patterns("results", "__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "benchmarks/pipeline/bench.py",
         "--workload", "flood_direct", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
