"""Daemon throughput — the paper's multi-threading expectation, tested.

Section 6.4: "Since the verification is still single-threaded without
optimization, we expect a higher throughput with multi-threading in the
future."  We measure a 1/2/4-worker daemon on the same report stream in two
execution modes:

* **thread** — :class:`VeriDPDaemon`, shared-memory worker threads.  In
  CPython the verification fast path is CPU-bound and GIL-serialised, so
  threads add queueing overhead without parallel speedup — the paper's
  expectation holds for their C implementation, not for this mode.
* **process** — :class:`ShardedVeriDPDaemon`, one OS process per shard with
  its own compiled path-table replica, sidestepping the GIL.  Scaling here
  is bounded by available CPU cores: the monotonic 1->4 worker gate only
  arms when the machine actually exposes 4+ cores, otherwise the honest
  (flat or IPC-dominated) curve is recorded without pretending otherwise.

Machine-readable output lands in ``benchmarks/results/BENCH_daemon.json``.
"""

import os

import pytest

from repro.core.daemon import ShardedVeriDPDaemon, VeriDPDaemon
from repro.core.reports import pack_report
from repro.core.server import VeriDPServer
from repro.dataplane import DataPlaneNetwork
from repro.topologies import build_fattree

from conftest import print_table, write_json

#: (mode, workers) -> reports/s, filled by the parametrized benches.
_rates = {}


def _available_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


@pytest.fixture(scope="module")
def report_stream():
    scenario = build_fattree(4)
    server = VeriDPServer(scenario.topo, scenario.channel, localize_failures=False)
    net = DataPlaneNetwork(scenario.topo, scenario.channel)
    payloads = []
    for src, dst in scenario.host_pairs():
        result = net.inject_from_host(src, scenario.header_between(src, dst))
        payloads += [pack_report(r, net.codec) for r in result.reports]
    payloads = payloads * 8  # ~2k reports
    server.refresh_if_dirty()
    server.table.compile_matchers(server.hs)
    return server, payloads


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_daemon_thread_throughput(benchmark, report_stream, workers):
    server, payloads = report_stream

    def run():
        daemon = VeriDPDaemon(server, workers=workers, queue_size=len(payloads) + 1)
        daemon.start()
        for payload in payloads:
            daemon.submit(payload)
        daemon.join()
        daemon.stop()
        return daemon.stats()

    stats = benchmark.pedantic(run, rounds=2, iterations=1, warmup_rounds=1)
    assert stats["processed"] == len(payloads)
    assert stats["failed"] == 0
    reports_per_s = len(payloads) / benchmark.stats["mean"]
    _rates[("thread", workers)] = (len(payloads), reports_per_s)
    benchmark.extra_info.update(mode="thread", reports_per_s=int(reports_per_s))


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_daemon_process_throughput(benchmark, report_stream, workers):
    server, payloads = report_stream

    def run():
        daemon = ShardedVeriDPDaemon(server, workers=workers)
        daemon.start()
        for payload in payloads:
            daemon.submit(payload)
        daemon.join()
        daemon.stop()
        return daemon.stats()

    stats = benchmark.pedantic(run, rounds=2, iterations=1, warmup_rounds=1)
    assert stats["processed"] == len(payloads)
    assert stats["failed"] == 0
    reports_per_s = len(payloads) / benchmark.stats["mean"]
    _rates[("process", workers)] = (len(payloads), reports_per_s)
    benchmark.extra_info.update(mode="process", reports_per_s=int(reports_per_s))


def test_daemon_throughput_report(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    if not _rates:
        pytest.skip("no throughput samples collected")
    cores = _available_cores()
    rows = [
        (mode, workers, reports, f"{rate:,.0f}")
        for (mode, workers), (reports, rate) in sorted(_rates.items())
    ]
    print_table(
        f"Daemon throughput vs workers ({cores} CPU core(s) available; "
        "thread mode is GIL-bound by design, process mode scales with cores)",
        ["mode", "workers", "reports", "reports/s"],
        rows,
        slug="daemon_throughput",
    )
    write_json(
        "BENCH_daemon",
        {
            "cpu_cores": cores,
            "modes": {
                mode: {
                    str(workers): round(rate)
                    for (m, workers), (_, rate) in sorted(_rates.items())
                    if m == mode
                }
                for mode in {m for m, _ in _rates}
            },
        },
    )
    process_curve = [
        rate for (m, _), (_, rate) in sorted(_rates.items()) if m == "process"
    ]
    if cores >= 4 and len(process_curve) == 3:
        # Only meaningful when the hardware can actually run 4 workers in
        # parallel; on smaller boxes the curve is recorded but not gated.
        assert process_curve == sorted(process_curve), (
            f"process mode should scale monotonically 1->4 workers on a "
            f"{cores}-core machine, got {process_curve}"
        )


@pytest.mark.parametrize("policy", ["block", "drop-new", "drop-oldest"])
def test_daemon_overflow_policy_throughput(benchmark, report_stream, policy):
    """Backpressure bookkeeping must not tax the happy path.

    The queue is sized to the stream, so no policy actually drops here —
    this row isolates the per-submit cost of the policy machinery itself.
    """
    server, payloads = report_stream

    def run():
        daemon = VeriDPDaemon(
            server, workers=2, queue_size=len(payloads) + 1, overflow=policy
        )
        daemon.start()
        for payload in payloads:
            daemon.submit(payload)
        daemon.join()
        daemon.stop()
        return daemon.stats()

    stats = benchmark.pedantic(run, rounds=2, iterations=1, warmup_rounds=1)
    assert stats["processed"] == len(payloads)
    assert stats["dropped"] == 0
    reports_per_s = len(payloads) / benchmark.stats["mean"]
    _rates[(f"thread/{policy}", 2)] = (len(payloads), reports_per_s)
    benchmark.extra_info.update(mode=f"thread/{policy}", reports_per_s=int(reports_per_s))


def test_daemon_supervised_restart_cost(benchmark, report_stream):
    """Throughput of a supervised run that loses (and restarts) one worker.

    The delta against the plain 2-worker process row is the price of one
    SIGKILL: backoff, respawn, replica rebuild, and batch salvage.
    """
    from repro.core.resilience import RestartBackoff

    server, payloads = report_stream

    def run():
        daemon = ShardedVeriDPDaemon(
            server,
            workers=2,
            restart_budget=3,
            poll_interval=0.02,
            backoff=RestartBackoff(base=0.01, cap=0.05),
        )
        daemon.start()
        for i, payload in enumerate(payloads):
            daemon.submit(payload)
            if i == len(payloads) // 2:
                daemon.kill_worker(0)
        daemon.join()
        daemon.stop()
        return daemon.stats()

    stats = benchmark.pedantic(run, rounds=2, iterations=1, warmup_rounds=1)
    assert stats["restarts"] >= 1
    assert not stats["degraded"]
    assert (
        stats["processed"]
        + stats["malformed"]
        + stats["verify_errors"]
        + stats["dropped_new"]
        + stats["lost_in_restart"]
        == len(payloads)
    )
    reports_per_s = len(payloads) / benchmark.stats["mean"]
    _rates[("process/1-kill", 2)] = (len(payloads), reports_per_s)
    benchmark.extra_info.update(mode="process/1-kill", reports_per_s=int(reports_per_s))
