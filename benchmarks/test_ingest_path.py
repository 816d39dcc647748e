"""Ingest path: frame-native batched socket drain at two drain depths.

The same healthy report stream (fat-tree k=4, compiled matchers) is blasted
over loopback UDP through :class:`UdpReportListener` at ``ingest_batch``
128 and 256 (one blocking receive, then a non-blocking drain into a
preallocated frame buffer, one ``submit_frame`` per wakeup).  Elapsed time
covers first send through ``daemon.join()``, so the rate is the whole
pipeline: socket, screen, queue, and the vectorized wire-verification
kernel.

The sender is paced against ``listener.received`` with a window smaller
than the kernel receive buffer, so loopback never drops and every run must
reconcile its ledger *exactly* — the parity phase then checks the two
depths agree on processed/verified/failed/malformed, i.e. the drain depth
changed the unit of transport, not one verdict.

Gates: the exact ledger of every row and the mode parity across the 128
and 256 rows; the rates are reported, not gated.  A sampler-churn row
times the O(1) LRU eviction in :class:`FlowSampler` against the old
min-scan policy it replaced.  Machine-readable output lands in
``benchmarks/results/BENCH_ingest.json``.

Knobs: ``REPRO_INGEST_REPORTS`` (stream length),
``REPRO_INGEST_SAMPLER_TOUCHES`` (churn length),
``REPRO_BENCH_PARITY_ONLY=1`` (short run, sampler gate off).
"""

import os
import socket
import time

import pytest

from conftest import env_int, print_table, write_json

from repro.core.daemon import UdpReportListener, VeriDPDaemon
from repro.core.reports import pack_report
from repro.core.sampling import FlowSampler
from repro.core.server import VeriDPServer
from repro.dataplane import DataPlaneNetwork
from repro.topologies import build_fattree


PARITY_ONLY = os.environ.get("REPRO_BENCH_PARITY_ONLY") == "1"
TOTAL_REPORTS = env_int("REPRO_INGEST_REPORTS", 3_000 if PARITY_ONLY else 12_000)
SAMPLER_TOUCHES = env_int(
    "REPRO_INGEST_SAMPLER_TOUCHES", 20_000 if PARITY_ONLY else 100_000
)
BATCHES = (128, 256)

#: The sender may never run further ahead than the kernel receive buffer
#: can absorb even where ``SO_RCVBUF`` stays at its default (~208 KiB,
#: ~270 small-datagram skbs on Linux): window + check stride (64) stays
#: under that capacity, and no loopback datagram is ever shed.
PACE_WINDOW = 192
PACE_STRIDE = 64
SEND_DEADLINE = 120.0

_results = []
_sampler_row = {}


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


@pytest.fixture(scope="module")
def report_stream():
    scenario = build_fattree(4)
    server = VeriDPServer(scenario.topo, scenario.channel, localize_failures=False)
    net = DataPlaneNetwork(scenario.topo, scenario.channel)
    base = []
    for src, dst in scenario.host_pairs():
        result = net.inject_from_host(src, scenario.header_between(src, dst))
        base += [pack_report(r, net.codec) for r in result.reports]
    payloads = []
    while len(payloads) < TOTAL_REPORTS:
        payloads += base
    server.refresh_if_dirty()
    server.table.compile_matchers(server.hs)
    return server, payloads[:TOTAL_REPORTS]


def run_mode(server, payloads, ingest_batch):
    daemon = VeriDPDaemon(server, workers=2, queue_size=len(payloads) + 1)
    daemon.start()
    listener = UdpReportListener(daemon, ingest_batch=ingest_batch)
    listener.start()
    sender = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    try:
        started = time.perf_counter()
        deadline = time.monotonic() + SEND_DEADLINE
        for sent, payload in enumerate(payloads, start=1):
            sender.sendto(payload, listener.address)
            if sent % PACE_STRIDE == 0:
                while (
                    listener.received < sent - PACE_WINDOW
                    and time.monotonic() < deadline
                ):
                    time.sleep(0.0005)
        while (
            listener.received < len(payloads)
            and time.monotonic() < deadline
        ):
            time.sleep(0.002)
        assert daemon.join(timeout=SEND_DEADLINE), daemon.stats()
        elapsed = time.perf_counter() - started
    finally:
        sender.close()
        listener.stop()
        daemon.stop()

    stats = daemon.stats()
    lstats = listener.stats()
    # Paced loopback means the ledger must reconcile to the report: every
    # datagram received, none shed anywhere along the path.
    assert lstats["received"] == len(payloads), lstats
    assert lstats["wrong_size"] == 0 and lstats["oversize"] == 0, lstats
    assert lstats["malformed"] == 0 and lstats["dropped"] == 0, lstats
    assert stats["submitted"] == len(payloads), stats
    assert (
        stats["processed"]
        + stats["malformed"]
        + stats["verify_errors"]
        + stats["dropped"]
        == len(payloads)
    ), stats
    assert stats["dropped"] == 0, stats
    return {
        "ingest_batch": ingest_batch,
        "reports_per_s": len(payloads) / elapsed,
        "elapsed_s": elapsed,
        "frames": stats["frames"],
        "wire_pass": stats["wire_pass"],
        "processed": stats["processed"],
        "verified": stats["verified"],
        "failed": stats["failed"],
        "malformed": stats["malformed"],
    }


@pytest.mark.parametrize("ingest_batch", BATCHES)
def test_ingest_path_throughput(report_stream, ingest_batch):
    server, payloads = report_stream
    _results.append(run_mode(server, payloads, ingest_batch))


def test_ingest_mode_parity():
    """The drain depth may change the transport unit, never a verdict."""
    if len(_results) < len(BATCHES):
        pytest.skip("throughput samples missing")
    first = _results[0]
    for result in _results[1:]:
        for key in ("processed", "verified", "failed", "malformed"):
            assert result[key] == first[key], (key, first, result)
    # The frame path actually engaged: frames were assembled and the wire
    # kernel bulk-passed rows.
    for result in _results:
        assert result["frames"] > 0, result
        assert result["wire_pass"] > 0, result


class _MinScanSampler:
    """The pre-optimization eviction: O(n) scan for the oldest last hit."""

    def __init__(self, default_interval=1.0, capacity=None):
        self.default_interval = default_interval
        self.capacity = capacity
        self._state = {}

    def should_sample(self, flow_key, now):
        state = self._state.get(flow_key)
        if state is None:
            if self.capacity is not None and len(self._state) >= self.capacity:
                victim = min(self._state, key=lambda k: self._state[k][1])
                del self._state[victim]
            self._state[flow_key] = (now, now)
            return True
        last_sampled, _ = state
        if now - last_sampled > self.default_interval:
            self._state[flow_key] = (now, now)
            return True
        self._state[flow_key] = (last_sampled, now)
        return False


def _churn(sampler, touches, capacity):
    # 8x more distinct flows than table slots: almost every touch is a
    # miss, so every touch exercises the eviction policy.
    span = capacity * 8
    started = time.perf_counter()
    for i in range(touches):
        sampler.should_sample((i * 7919) % span, float(i))
    return touches / (time.perf_counter() - started)


def test_sampler_churn():
    """Satellite row: O(1) LRU eviction vs the min-scan it replaced.

    The reference gets 10x fewer touches (each of its misses scans the
    whole table); rates are per-touch so the comparison stays fair.
    """
    capacity = 512
    fast_rate = _churn(
        FlowSampler(default_interval=1.0, capacity=capacity),
        SAMPLER_TOUCHES,
        capacity,
    )
    ref_rate = _churn(
        _MinScanSampler(default_interval=1.0, capacity=capacity),
        max(1_000, SAMPLER_TOUCHES // 10),
        capacity,
    )
    _sampler_row.update(
        capacity=capacity,
        touches=SAMPLER_TOUCHES,
        lru_touches_per_s=fast_rate,
        minscan_touches_per_s=ref_rate,
        speedup=fast_rate / ref_rate,
    )
    if not PARITY_ONLY:
        assert fast_rate > ref_rate, _sampler_row


def test_ingest_report():
    if not _results:
        pytest.skip("no throughput samples collected")
    cpus = usable_cpus()
    base = _results[0]["reports_per_s"]
    rows = [
        (
            r["ingest_batch"],
            f"{r['reports_per_s']:,.0f}",
            f"{r['elapsed_s']:.2f}",
            r["frames"],
            f"{r['reports_per_s'] / base:.2f}x",
        )
        for r in _results
    ]
    if _sampler_row:
        rows.append((
            "lru-churn",
            f"{_sampler_row['lru_touches_per_s']:,.0f}",
            f"vs min-scan {_sampler_row['minscan_touches_per_s']:,.0f}",
            "-",
            f"{_sampler_row['speedup']:.2f}x",
        ))
    print_table(
        f"Ingest path: drained datagrams per wakeup ({TOTAL_REPORTS} reports "
        f"over loopback UDP, {cpus} cpus; gates: exact ledger per row, "
        f"parity across {'/'.join(str(b) for b in BATCHES)})",
        ["ingest_batch", "reports/s", "elapsed s", "frames",
         f"vs {BATCHES[0]}"],
        rows,
        slug="BENCH_ingest",
    )
    write_json("BENCH_ingest", {
        "reports": TOTAL_REPORTS,
        "cpus": cpus,
        "parity_only": PARITY_ONLY,
        "results": _results,
        "sampler_churn": _sampler_row or None,
        "gates": ["exact ledger per row", "mode parity across rows"],
    })
