"""The traced run: per-layer numbers from an in-process, single-threaded replay.

Every layer of the report path and of the control path is called here
through its public function, in pipeline order, under a span recorded by
this file (spans inside the program are a later change).  A span is
``(name, start, end, parent, frame)``; spans stay in memory and are written
to ``results/trace_<workload>.json`` when the replay ends.  A layer's self
time is its span minus the part its children cover; counts (rows, flagged
rows, bytes, fsyncs) are taken at the same boundaries.

What is replayed, per workload:

* the set-up calls every shape pays (topology, path table, matchers, table
  kernel, shard specs, snapshot),
* the report path of the workload's own deployment shape over the first
  rows of the workload's own generated stream — staged (one span per layer
  call) and, for the direct shape, once more through a real in-process
  ``VeriDPDaemon`` whose wall time the staged sum is reconciled against,
* for ``rule_churn``, the event schedule through the control path: stage,
  flush, pair-spec rebuild, kernel invalidation, and the three replica
  resync consumers (sharded daemon, cluster coordinator, isolation).

Layers a workload does not exercise report 0 — that is the statement "this
layer does no work here", which the workload table relies on.
"""

from __future__ import annotations

import json
import os
import socket
import time
from typing import Dict, List, Tuple

import numpy as np

import loadgen
import sut_host
import workloads

from repro.core.daemon import (
    ShardedVeriDPDaemon,
    VeriDPDaemon,
    build_one_shard_spec,
    build_pair_spec,
    build_shard_specs,
    wire_packing,
)
from repro.core.ingest import (
    FrameBuffer,
    drain_socket,
    dst_ips,
    screen_frame,
    shard_split,
)
from repro.core.reports import REPORT_SIZE, Frame, unpack_report
from repro.core.resilience import OverflowPolicy, PolicyQueue, TenantQuotaQueue
from repro.core.server import Incident
from repro.core.vector import WireBatchVerifier, build_table_kernel
from repro.core.verifier import Verifier
from repro.obs.exposition import render_prometheus

FLOOD_ROWS = 200_000
#: Fault and churn replays are dominated by ~0.6 ms failures; fewer rows
#: keep the traced run inside the same time budget as an untraced one.
FAULT_ROWS = 40_000
CONTROL_EVENTS = 48
RECOVERY_REPORTS = 200_000
RECOVERY_CONTROLS = 400
SCALAR_SAMPLE = 4_000
#: Failing reports streamed through the re-ingest path, in stream order.
REINGEST_FAILURES = 6_000
DEFAULT_DEPTH = 128


# -- spans ----------------------------------------------------------------------


class Tracer:
    """In-memory span recorder; ``enabled=False`` makes spans free."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: List[list] = []  # [name, start, end, parent, frame]
        self._stack: List[int] = []

    def span(self, name: str, frame: int = -1) -> "_Span":
        return _Span(self, name, frame)

    def self_times(self) -> Dict[str, Tuple[float, int]]:
        """``name -> (self seconds, span count)``."""
        child = [0.0] * len(self.spans)
        for _name, start, end, parent, _frame in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Dict[str, Tuple[float, int]] = {}
        for i, (name, start, end, _parent, _frame) in enumerate(self.spans):
            total, n = out.get(name, (0.0, 0))
            out[name] = (total + (end - start) - child[i], n + 1)
        return out


class _Span:
    __slots__ = ("tracer", "name", "frame", "index")

    def __init__(self, tracer: Tracer, name: str, frame: int) -> None:
        self.tracer = tracer
        self.name = name
        self.frame = frame

    def __enter__(self) -> "_Span":
        tracer = self.tracer
        if tracer.enabled:
            stack = tracer._stack
            self.index = len(tracer.spans)
            tracer.spans.append(
                [self.name, time.perf_counter(), 0.0,
                 stack[-1] if stack else -1, self.frame]
            )
            stack.append(self.index)
        return self

    def __exit__(self, *exc) -> None:
        tracer = self.tracer
        if tracer.enabled:
            tracer.spans[self.index][2] = time.perf_counter()
            tracer._stack.pop()


def group_shares(tracer: Tracer) -> Dict[str, float]:
    """Share of in-process (traced) time by module prefix.

    ``core.verifier`` + ``core.localization`` + ``core.server`` against
    everything else is the workload-separation check of the issue.
    """
    selfs = tracer.self_times()
    total = sum(seconds for seconds, _ in selfs.values())
    groups: Dict[str, float] = {}
    for name, (seconds, _n) in selfs.items():
        prefix = ".".join(name.split(".")[:2]) if "." in name else name
        groups[prefix] = groups.get(prefix, 0.0) + seconds
    return {k: v / total for k, v in sorted(groups.items())} if total else {}


# -- replay input ------------------------------------------------------------------


def replay_rows(name: str, inputs) -> np.ndarray:
    """The first rows of the stream the loopback run sends, in send order
    (for a paced workload: of its schedule, after the closed-loop pass)."""
    limit = FLOOD_ROWS if name.startswith("flood_") else FAULT_ROWS
    if not inputs.per_tick:
        return inputs.pool[:limit]
    chunks: List[np.ndarray] = []
    i = 0
    total = 0
    tick = 0
    n = inputs.pool.shape[0]
    while total < limit:
        if i + inputs.per_tick > n:
            i = 0
        chunks.append(inputs.pool[i : i + inputs.per_tick])
        i += inputs.per_tick
        total += inputs.per_tick
        for _kind, payload in inputs.extras.get(tick, ()):
            chunks.append(np.frombuffer(payload, dtype=np.uint8).reshape(1, -1))
            total += 1
        tick += 1
    return np.ascontiguousarray(np.concatenate(chunks)[:limit])


def failing_stream(inputs) -> List[bytes]:
    """The failing reports of the whole stream, repeats included, in order."""
    if inputs.fail_prefix is not None:
        where = np.flatnonzero(np.diff(inputs.fail_prefix))[:REINGEST_FAILURES]
        return [bytes(row) for row in inputs.pool[where]]
    return [
        payload
        for tick in sorted(inputs.extras)
        for kind, payload in inputs.extras[tick]
        if kind == "canary"
    ][:REINGEST_FAILURES]


def frames_of(rows: np.ndarray, depth: int) -> List[bytes]:
    return [
        rows[a : a + depth].tobytes() for a in range(0, rows.shape[0], depth)
    ]


# -- set-up calls ---------------------------------------------------------------------


def setup_layers(cfg: dict, tracer: Tracer) -> dict:
    """Time the calls a host's set-up is made of, one span each."""
    from repro.bdd.headerspace import HeaderSpace
    from repro.core.pathtable import PathTableBuilder, SnapshotProvider
    from repro.core.reports import PortCodec

    with tracer.span("topologies.build"):
        scenario = sut_host.build_scenario(cfg, install_routes=True)
    hs = HeaderSpace()
    builder = PathTableBuilder(
        scenario.topo, hs, provider=SnapshotProvider(scenario.topo, hs)
    )
    with tracer.span("core.pathtable.build"):
        table = builder.build()
    with tracer.span("core.pathtable.compile_matchers"):
        table.compile_matchers(hs)
    with tracer.span("core.vector.build_table_kernel"):
        build_table_kernel(table, hs, {})
    codec = PortCodec(sorted(scenario.topo.switches))
    with tracer.span("core.daemon.build_shard_specs"):
        build_shard_specs(table, hs, codec, 2)
    selfs = tracer.self_times()
    return {
        "topologies.build.s": selfs["topologies.build"][0],
        "core.pathtable.build.s": selfs["core.pathtable.build"][0],
        "core.pathtable.compile_matchers.s": selfs["core.pathtable.compile_matchers"][0],
        "core.vector.build_table_kernel.s": selfs["core.vector.build_table_kernel"][0],
        "core.daemon.build_shard_specs.s": selfs["core.daemon.build_shard_specs"][0],
        "core.pathtable.entries": float(table.num_paths()),
        "bdd.engine.nodes": float(hs.bdd.num_nodes()),
    }


# -- the staged report path -------------------------------------------------------------


class ReplaySocket:
    """A real loopback socket pair the drain layer is timed on."""

    def __init__(self, rows: np.ndarray) -> None:
        self.sink = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self.sink.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 1 << 21)
        self.sink.bind(("127.0.0.1", 0))
        self.sink.setblocking(False)
        self.sender = loadgen.Sender(self.sink.getsockname(), rows)

    def close(self) -> None:
        self.sender.close()
        self.sink.close()


class StagedDirect:
    """The direct shape's report path, one span per layer call.

    drain -> screen -> WAL -> classify -> queue put -> queue get -> kernel
    -> (per flagged row) decode -> verify -> localize -> incident, under one
    root span per frame.  Everything a stage needs is built once here, off
    the clock.
    """

    def __init__(self, server, rows: np.ndarray, depth: int) -> None:
        self.server = server
        self.rows = rows
        self.depth = depth
        self.registry = server.slices
        self.wal = server.persist.wal if server.persist is not None else None
        if self.registry is not None:
            self.queue: PolicyQueue = TenantQuotaQueue(
                10_000, OverflowPolicy.DROP_NEW, shares=self.registry.queue_shares()
            )
            self.put_name = "core.resilience.tenant_put_frame"
        else:
            self.queue = PolicyQueue(10_000, OverflowPolicy.DROP_NEW)
            self.put_name = "core.resilience.put_frame"
        pairs = build_one_shard_spec(server.table, server.hs, server.codec, 1, 0)
        self.wirev = WireBatchVerifier(pairs, wire_packing(server.hs.layout))
        self.wirev.verify_frame(rows[:depth].tobytes())  # compiles every pair
        self.verifier = Verifier(server.table, server.hs, fast_path=True)
        self.link = ReplaySocket(rows)
        self.fb = FrameBuffer(depth)
        self.flagged = 0
        self.failures = 0

    def close(self) -> None:
        self.link.close()

    def run(self, start: int, stop: int, tracer: Tracer) -> float:
        """Replay ``rows[start:stop]``; returns the wall seconds it took."""
        server, depth, queue, wal = self.server, self.depth, self.queue, self.wal
        registry, wirev, verifier = self.registry, self.wirev, self.verifier
        localizer, codec = server.localizer, server.codec
        sink, fb, burst = self.link.sink, self.fb, self.link.sender.burst
        put_name = self.put_name
        span = tracer.span
        started = time.perf_counter()
        for a in range(start, stop, depth):
            index = a // depth
            count = min(depth, stop - a)
            burst(a, count)  # preload the socket: not part of any span
            with span("frame", index):
                with span("core.ingest.drain_socket", index):
                    drained, _odd = drain_socket(sink, fb, depth)
                with span("core.ingest.screen_frame", index):
                    clean, _rejected = screen_frame(fb.take())
                frame = Frame(clean)
                payload = frame.payload()
                if wal is not None:
                    with span("persist.wal.append_report_frame", index):
                        wal.append_report_frame(payload, REPORT_SIZE)
                if registry is not None:
                    with span("slice.registry.classify_dst_batch", index):
                        tenants = registry.classify_dst_batch(dst_ips(payload))
                    with span(put_name, index):
                        queue.put_frame(frame, tenants=tenants)
                else:
                    with span(put_name, index):
                        queue.put_frame(frame)
                with span("core.resilience.get_many", index):
                    items = queue.get_many(64)
                for item in items:
                    with span("core.vector.verify_frame", index):
                        codes = wirev.verify_frame(item.payload())
                    flagged = codes.nonzero()[0].tolist()
                    self.flagged += len(flagged)
                    for row in flagged:
                        raw = item.row(row)
                        with span("core.reports.unpack_report", index):
                            report = unpack_report(raw, codec)
                        with span("core.verifier.verify", index):
                            result = verifier.verify(report)
                        if result.passed:
                            continue
                        self.failures += 1
                        with span("core.localization.localize", index):
                            found = localizer.localize(report)
                        with span("core.server.log_incidents", index):
                            server.log_incidents(
                                [Incident(verification=result, localization=found)]
                            )
                    queue.task_done(item.count)
            if drained != count:
                raise RuntimeError(
                    f"replay socket returned {drained} of {count} datagrams"
                )
        return time.perf_counter() - started


POST_SCREEN = (
    "persist.wal.append_report_frame",
    "slice.registry.classify_dst_batch",
    "core.resilience.put_frame",
    "core.resilience.tenant_put_frame",
    "core.resilience.get_many",
    "core.vector.verify_frame",
    "core.reports.unpack_report",
    "core.verifier.verify",
    "core.localization.localize",
    "core.server.log_incidents",
)
#: The replay alternates traced / daemon / untraced passes over this many
#: consecutive segments, so a slow phase of the box lands on all three.
SEGMENTS = 4


def direct_metrics(server, rows: np.ndarray, depth: int, tracer: Tracer) -> dict:
    n = rows.shape[0]
    staged = StagedDirect(server, rows, depth)
    # The reference: the same frames through a real VeriDPDaemon
    # (submit_frame x frames, then join).  The queue holds the whole
    # replay, so nothing is shed however far submit runs ahead.
    daemon = VeriDPDaemon(server, workers=1, queue_size=n + 1)
    daemon.start()
    off = Tracer(enabled=False)
    wal_bytes = 0
    traced_s = untraced_s = pipeline_s = 0.0
    step = -(-n // SEGMENTS // depth) * depth
    try:
        staged.run(0, min(n, 8 * depth), off)  # warm every stage, unmeasured
        daemon.submit_frame(Frame(rows[:depth].tobytes()))
        daemon.join()
        staged.flagged = staged.failures = 0
        for start in range(0, n, step):
            stop = min(n, start + step)
            if staged.wal:
                wal_bytes0 = staged.wal.stats()["wal_bytes_appended"]
            traced_s += staged.run(start, stop, tracer)
            if staged.wal:
                wal_bytes += staged.wal.stats()["wal_bytes_appended"] - wal_bytes0
            frames = frames_of(rows[start:stop], depth)
            began = time.perf_counter()
            for blob in frames:
                daemon.submit_frame(Frame(blob))
            daemon.join()
            pipeline_s += time.perf_counter() - began
            flagged, failures = staged.flagged, staged.failures
            untraced_s += staged.run(start, stop, off)
            staged.flagged, staged.failures = flagged, failures
            server.drain_incidents()
    finally:
        daemon.stop()
        staged.close()
    selfs = tracer.self_times()

    def per_report(name: str) -> float:
        return selfs.get(name, (0.0, 0))[0] / n * 1e9

    def per_span(name: str, scale: float) -> float:
        seconds, count = selfs.get(name, (0.0, 0))
        return seconds / count * scale if count else 0.0

    stage_sum = sum(selfs.get(name, (0.0, 0))[0] for name in POST_SCREEN)
    return {
        "core.ingest.drain_socket.ns_per_report": per_report("core.ingest.drain_socket"),
        "core.ingest.screen_frame.ns_per_report": per_report("core.ingest.screen_frame"),
        "slice.registry.classify_dst_batch.ns_per_report": per_report("slice.registry.classify_dst_batch"),
        "core.resilience.put_frame.ns_per_report": per_report("core.resilience.put_frame"),
        "core.resilience.tenant_put_frame.ns_per_report": per_report("core.resilience.tenant_put_frame"),
        "core.resilience.get_many.ns_per_report": per_report("core.resilience.get_many"),
        "persist.wal.append_report_frame.ns_per_report": per_report("persist.wal.append_report_frame"),
        "persist.wal.bytes_per_report": wal_bytes / n,
        "core.vector.verify_frame.ns_per_report": per_report("core.vector.verify_frame"),
        "core.vector.flagged_fraction": staged.flagged / n,
        "core.localization.localize.us_per_failure": per_span("core.localization.localize", 1e6),
        "core.verifier.verify_fail.us_per_report": (
            per_span("core.verifier.verify", 1e6) if staged.failures else 0.0
        ),
        "core.server.log_incidents.ns_per_incident": per_span("core.server.log_incidents", 1e9),
        "core.daemon.direct_pipeline.ns_per_report": pipeline_s / n * 1e9,
        "core.daemon.unattributed.ns_per_report": (pipeline_s - stage_sum) / n * 1e9,
        "trace.stage_sum_over_wall": stage_sum / pipeline_s,
        "trace.overhead_fraction": (traced_s - untraced_s) / untraced_s,
    }


def scalar_layers(server, rows: np.ndarray, failing: List[bytes]) -> dict:
    """The per-report scalar calls (decode, verify) on passing rows, and the
    re-ingest path sharded and cluster failures take, with its cache."""
    codec = server.codec
    verifier = Verifier(server.table, server.hs, fast_path=True)
    for raw in rows[SCALAR_SAMPLE : SCALAR_SAMPLE + 256]:  # warm, unmeasured
        verifier.verify(unpack_report(bytes(raw), codec))
    sample = [bytes(r) for r in rows[:SCALAR_SAMPLE]]
    started = time.perf_counter()
    reports = [unpack_report(p, codec) for p in sample]
    unpack_s = time.perf_counter() - started
    started = time.perf_counter()
    passed = sum(1 for r in reports if verifier.verify(r).passed)
    verify_s = time.perf_counter() - started
    out = {
        "core.reports.unpack_report.ns_per_report": unpack_s / len(sample) * 1e9,
        "core.verifier.verify_pass.ns_per_report": (
            verify_s / len(sample) * 1e9 if passed else 0.0
        ),
        "core.server.receive_report_bytes_fail.us_per_failure": 0.0,
        "core.server.localization_cache_hit_ratio": 0.0,
    }
    if failing:
        hits0, looks0 = server.localization_cache_hits, server.localizations
        started = time.perf_counter()
        for payload in failing:
            server.receive_report_bytes(payload, record=False)
        elapsed = time.perf_counter() - started
        looks = server.localizations - looks0
        out["core.server.receive_report_bytes_fail.us_per_failure"] = (
            elapsed / len(failing) * 1e6
        )
        out["core.server.localization_cache_hit_ratio"] = (
            (server.localization_cache_hits - hits0) / looks if looks else 0.0
        )
        server.drain_incidents()
    return out


# -- sharded and cluster report paths -----------------------------------------------------


def sharded_metrics(server, rows: np.ndarray, depth: int, tracer: Tracer) -> dict:
    n = rows.shape[0]
    frames = frames_of(rows, depth)
    pairs = build_one_shard_spec(server.table, server.hs, server.codec, 1, 0)
    wirev = WireBatchVerifier(pairs, wire_packing(server.hs.layout))
    wirev.verify_frame(frames[0])
    daemon = ShardedVeriDPDaemon(server, workers=2)
    daemon.start()
    try:
        daemon.submit_frame(Frame(frames[0]))
        daemon.join()
        link = ReplaySocket(rows)
        fb = FrameBuffer(depth)
        span = tracer.span
        try:
            for index, a in enumerate(range(0, n, depth)):
                count = min(depth, n - a)
                link.sender.burst(a, count)
                with span("frame", index):
                    with span("core.ingest.drain_socket", index):
                        drain_socket(link.sink, fb, depth)
                    with span("core.ingest.screen_frame", index):
                        clean, _ = screen_frame(fb.take())
                    with span("core.ingest.shard_split", index):
                        shard_split(clean, 2)
                    with span("core.daemon.sharded_submit_frame", index):
                        daemon.submit_frame(Frame(clean))
                    # What each worker then does with its share.
                    with span("core.vector.verify_frame", index):
                        wirev.verify_frame(clean)
        finally:
            link.close()
        daemon.join()
    finally:
        daemon.stop()
    selfs = tracer.self_times()
    return {
        f"{name}.ns_per_report": selfs[name][0] / n * 1e9
        for name in (
            "core.ingest.drain_socket",
            "core.ingest.screen_frame",
            "core.ingest.shard_split",
            "core.daemon.sharded_submit_frame",
            "core.vector.verify_frame",
        )
    }


def cluster_metrics(server, rows: np.ndarray, depth: int, tracer: Tracer) -> dict:
    from repro.cluster import VeriDPCluster

    n = rows.shape[0]
    frames = frames_of(rows, depth)
    wal = server.persist.wal
    before = wal.stats()
    cluster = VeriDPCluster(server, nodes=2, node_mode="thread")
    cluster.start()
    try:
        cluster.submit_frame(Frame(frames[0]))
        cluster.join()
        span = tracer.span
        started = time.perf_counter()
        for index, blob in enumerate(frames):
            with span("frame", index):
                with span("cluster.frontend.submit_frame", index):
                    cluster.frontend.submit_frame(Frame(blob))
        with span("cluster.coordinator.join"):
            cluster.join()
        pipeline_s = time.perf_counter() - started
    finally:
        cluster.stop()
    after = wal.stats()
    selfs = tracer.self_times()
    return {
        "cluster.frontend.submit_frame.ns_per_report": selfs["cluster.frontend.submit_frame"][0] / n * 1e9,
        "cluster.pipeline.ns_per_report": pipeline_s / n * 1e9,
        "persist.wal.bytes_per_report": (after["wal_bytes_appended"] - before["wal_bytes_appended"]) / (n + depth),
    }


# -- durability -------------------------------------------------------------------------------


def durability_metrics(server, scenario, rows: np.ndarray, tracer: Tracer, run_dir: str) -> dict:
    """WAL control appends, a snapshot write, and a cold boot from a fixed
    WAL (``RECOVERY_REPORTS`` reports + ``RECOVERY_CONTROLS`` control events)."""
    from repro.persist.recovery import PersistentState
    from repro.persist.wal import ControlEvent

    state_dir = os.path.join(run_dir, "recovery-state")
    state = PersistentState(state_dir, fsync="interval")
    state.boot(scenario.topo)
    host = next(h for h in sorted(scenario.subnets) if scenario.subnets[h].endswith("/24"))
    attach = scenario.topo.host_port(host)
    base = scenario.subnets[host].rsplit("/", 1)[0]
    events = []
    for k in range(RECOVERY_CONTROLS // 2):
        # A /25../31 ladder under one host's /24, each added then removed.
        prefix = f"{base}/{25 + k % 7}"
        events.append(ControlEvent("add", attach.switch, prefix, attach.port))
        events.append(ControlEvent("delete", attach.switch, prefix))
    with tracer.span("persist.wal.append_control"):
        for event in events:
            state.wal.append_control(event)
    blob = rows[:1024].tobytes()
    for _ in range(RECOVERY_REPORTS // 1024):
        state.wal.append_report_frame(blob, REPORT_SIZE)
    state.close()
    cold = PersistentState(state_dir, fsync="interval")
    with tracer.span("persist.recovery.boot"):
        booted = cold.boot(scenario.topo)
    with tracer.span("persist.snapshot.write"):
        cold.snapshot(scenario.topo, booted.hs, booted.updater, booted.state_version)
    cold.close()
    selfs = tracer.self_times()
    return {
        "persist.wal.append_control.us_per_event": selfs["persist.wal.append_control"][0] / len(events) * 1e6,
        "persist.recovery.boot.s": selfs["persist.recovery.boot"][0],
        "persist.snapshot.write.s": selfs["persist.snapshot.write"][0],
    }


# -- control path (rule churn) -------------------------------------------------------------------


def control_metrics(server, scenario, inputs, tracer: Tracer) -> dict:
    """Replay the churn schedule: stage -> flush -> pair specs -> kernel
    invalidation -> the three resync consumers, one span per call."""
    from repro.cluster import VeriDPCluster
    from repro.slice import SliceRegistry
    from repro.slice.isolation import IsolationVerifier

    table, hs, codec = server.table, server.hs, server.codec
    updater = server.updater
    pairs = build_one_shard_spec(table, hs, codec, 1, 0)
    wirev = WireBatchVerifier(pairs, wire_packing(hs.layout))
    probe = inputs.pool[:128].tobytes()
    wirev.verify_frame(probe)
    token = table.dirty_token()

    groups: List[List[str]] = [[] for _ in range(4)]
    for i, host in enumerate(sorted(scenario.subnets)):
        groups[i % 4].append(host)
    subnets = scenario.subnets
    registry = SliceRegistry.from_specs(
        SliceRegistry.parse_specs(
            {
                "tenants": [
                    {"name": f"t{n}", "prefixes": [subnets[h] for h in members], "hosts": members}
                    for n, members in enumerate(groups)
                ]
            }
        ),
        hs,
        server.topo,
    )
    isolation = IsolationVerifier(
        registry, table, hs, provider=server._provider, updater=updater
    )
    isolation.check_full()

    sharded = ShardedVeriDPDaemon(server, workers=2)
    sharded.start()
    cluster = VeriDPCluster(server, nodes=2, node_mode="thread")
    cluster.start()
    span = tracer.span
    flushes = 0
    dirty_total = 0
    spec_pairs = 0
    bytes0 = sharded.resync_delta_bytes
    ops = [json.loads(inputs.controls[t]) for t in sorted(inputs.controls)][:CONTROL_EVENTS]
    try:
        for index, op in enumerate(ops):
            with span("event", index):
                with span("core.incremental.stage_rule", index):
                    if op["op"] == "rule_add":
                        updater.stage_add_rule(op["switch"], op["prefix"], op["port"])
                    else:
                        updater.stage_delete_rule(op["switch"], op["prefix"])
                with span("core.incremental.flush_updates", index):
                    updater.flush_updates()
                flushes += 1
                token, dirty = table.dirty_since(token)
                dirty = list(dirty or ())
                dirty_total += len(dirty)
                patch = {}
                for inport, outport in dirty:
                    with span("core.daemon.build_pair_spec", index):
                        spec = build_pair_spec(table, hs, inport, outport)
                    spec_pairs += 1
                    key = (codec.encode(inport), codec.encode(outport))
                    if spec is None:
                        pairs.pop(key, None)
                    else:
                        pairs[key] = spec
                    patch[key] = spec
                # ``pairs`` is the verifier's own replica dict, patched in
                # place above: the delta path a shard worker takes.
                with span("core.vector.invalidate_reload", index):
                    wirev.invalidate(list(patch))
                    wirev.verify_frame(probe)
                with span("core.daemon.resync_replicas", index):
                    sharded.resync_replicas()
                    sharded.replica_digests()
                with span("cluster.coordinator.resync", index):
                    cluster.resync()
                with span("slice.isolation.recheck", index):
                    isolation.recheck()
    finally:
        cluster.stop()
        sharded.stop()
    selfs = tracer.self_times()

    def per(name: str, denom: int, scale: float) -> float:
        return selfs.get(name, (0.0, 0))[0] / denom * scale if denom else 0.0

    return {
        "core.incremental.stage_rule.us_per_event": per("core.incremental.stage_rule", len(ops), 1e6),
        "core.incremental.flush_updates.ms_per_flush": per("core.incremental.flush_updates", flushes, 1e3),
        "core.incremental.dirty_pairs_per_flush": dirty_total / flushes if flushes else 0.0,
        "core.daemon.build_pair_spec.us_per_pair": per("core.daemon.build_pair_spec", spec_pairs, 1e6),
        "core.vector.invalidate_reload.ms_per_flush": per("core.vector.invalidate_reload", flushes, 1e3),
        "core.daemon.resync_replicas.ms_per_flush": per("core.daemon.resync_replicas", flushes, 1e3),
        "core.daemon.resync_delta_bytes_per_flush": (
            (sharded.resync_delta_bytes - bytes0) / flushes if flushes else 0.0
        ),
        "cluster.coordinator.resync.ms_per_flush": per("cluster.coordinator.resync", flushes, 1e3),
        "slice.isolation.recheck.ms_per_flush": per("slice.isolation.recheck", flushes, 1e3),
    }


# -- entry ----------------------------------------------------------------------------------------


def kernel_reference_ns(server, depth: int) -> float:
    """``measure_vector_verification_time`` on this table at the replay's
    frame size — the Figure 13 harness as an independent kernel reference."""
    from repro.analysis.timing import measure_vector_verification_time

    result = measure_vector_verification_time(
        server.builder, server.table, "reference", batch_rows=depth, repeats=200
    )
    return result.median_us * 1e3


def traced_run(name: str, seed: int, run_dir: str, results_dir: str, depth_hint: float = 0.0) -> dict:
    """All per-layer metrics of ``name``; writes ``trace_<name>.json``."""
    inputs = workloads.build(name, seed, ticks=20_000)
    cfg = dict(inputs.host_cfg)
    if cfg.pop("durable", False):
        cfg["state_dir"] = os.path.join(run_dir, "trace-state")
    rows = replay_rows(name, inputs)
    depth = DEFAULT_DEPTH
    if depth_hint:
        depth = min(DEFAULT_DEPTH, max(workloads.BURST, round(depth_hint)))

    setup_tracer = Tracer()
    metrics = setup_layers(cfg, setup_tracer)
    other_spans = setup_tracer.spans
    scenario, server = sut_host.build_server(cfg)
    tracer = Tracer()
    shape = cfg["shape"]
    checks: Dict[str, float] = {}
    try:
        if shape == "direct":
            metrics.update(direct_metrics(server, rows, depth, tracer))
            checks["kernel_reference_ns_per_report"] = kernel_reference_ns(server, depth)
            checks["kernel_over_reference"] = (
                metrics["core.vector.verify_frame.ns_per_report"]
                / checks["kernel_reference_ns_per_report"]
            )
            if inputs.culprits:
                metrics.update(scalar_layers(server, rows, failing_stream(inputs)))
        elif shape == "sharded":
            metrics.update(sharded_metrics(server, rows, depth, tracer))
        else:
            metrics.update(cluster_metrics(server, rows, depth, tracer))
        if server.persist is not None:
            extra = Tracer()
            metrics.update(durability_metrics(server, scenario, rows, extra, run_dir))
            other_spans += extra.spans
        if inputs.controls:
            control = Tracer()
            metrics.update(control_metrics(server, scenario, inputs, control))
            other_spans += control.spans
        started = time.perf_counter()
        render_prometheus(server.obs.registry.snapshot())
        metrics["obs.exposition.render_ms"] = (time.perf_counter() - started) * 1e3
        if server.persist is not None:
            stats = server.persist.wal.stats()
            logged = stats["wal_records_report"]
            metrics["persist.wal.fsyncs_per_mreport"] = (
                stats["wal_fsyncs"] / logged * 1e6 if logged else 0.0
            )
    finally:
        server.close()

    shares = group_shares(tracer)
    for prefix, share in shares.items():
        checks[f"share.{prefix}"] = share
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir, f"trace_{name}.json"), "w", encoding="utf-8") as fh:
        json.dump(
            {
                "workload": name,
                "seed": seed,
                "rows": int(rows.shape[0]),
                "frame_rows": depth,
                "span_fields": ["name", "start_s", "end_s", "parent", "frame"],
                "spans": tracer.spans,
                "other_spans": other_spans,
                "checks": checks,
            },
            fh,
        )
    metrics["trace_checks"] = checks
    return metrics
