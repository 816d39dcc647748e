"""The system under test, as one child process of the pipeline benchmark.

Wires the public classes the way ``repro.cli.cmd_serve`` does (server,
daemon or cluster, UDP listener) from a JSON config on ``argv[1]``, prints
one ``ready`` line, then serves until told to finish.  The parent talks to
it over two channels only: loopback UDP datagrams into the report socket,
and JSON lines on stdin (``rule_add`` / ``rule_del`` / ``finish``).

The single piece of benchmark code running inside this process while
reports flow is :func:`_refresher`: a thread that copies a handful of the
system's own counters into a shared-memory block every 0.5 ms so the
generator can run a closed loop without asking the system anything.
"""

from __future__ import annotations

import json
import mmap
import multiprocessing
import os
import select
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "..", "..", "src"))

from repro.core import VeriDPServer  # noqa: E402
from repro.core.daemon import (  # noqa: E402
    ShardedVeriDPDaemon,
    UdpReportListener,
    VeriDPDaemon,
)
from repro.core.reports import pack_report  # noqa: E402
from repro.topologies import (  # noqa: E402
    build_internet2,
    build_stanford,
    internet2_lpm_ruleset,
)

from loadgen import SHM_SIZE  # noqa: E402

REFRESH_S = 0.0005
#: ``serve --cluster`` runs check_nodes/resync/flush once a second.
CLUSTER_TICK_S = 1.0
#: How often the control loop lets an expired coalescing window flush.
WINDOW_TICK_S = 0.001


def build_scenario(cfg: dict, install_routes: bool = False):
    """The workload's topology; Internet2 comes bare unless asked otherwise."""
    if cfg["topo"] == "stanford":
        # Durable mode accepts pure destination-prefix rules only, so the
        # flood workloads (two of them durable) all run without the ACLs
        # and SSH detours and stay comparable row against row.
        full = not cfg.get("lpm_only", False)
        return build_stanford(
            subnets_per_zone=cfg["scale"], with_acls=full, with_ssh_detours=full
        )
    return build_internet2(
        prefixes_per_pop=cfg["scale"], install_routes=install_routes
    )


def build_server(cfg: dict):
    """Topology + ``VeriDPServer`` for one workload config."""
    scenario = build_scenario(cfg)
    if cfg["topo"] == "stanford":
        server = VeriDPServer(
            scenario.topo,
            scenario.channel,
            state_dir=cfg.get("state_dir"),
            fsync="interval",
        )
    else:
        # The incremental server owns the control plane: it is seeded from
        # the LPM rule set and then only moves through apply_rule_*.
        server = VeriDPServer(
            scenario.topo,
            channel=None,
            incremental=True,
            coalesce_ms=cfg["coalesce_ms"],
        )
        ruleset = internet2_lpm_ruleset(scenario)
        for switch in sorted(ruleset):
            for prefix, port in ruleset[switch]:
                server.apply_rule_update(switch, prefix, port)
        server.flush_pending_updates()
    if cfg.get("tenants"):
        from repro.slice import SliceRegistry

        registry = SliceRegistry.from_specs(
            SliceRegistry.parse_specs({"tenants": cfg["tenants"]}),
            server.hs,
            scenario.topo,
        )
        server.set_slices(registry)
    return scenario, server


class Direct:
    """``serve --mode thread``: VeriDPDaemon behind a UdpReportListener."""

    def __init__(self, server, cfg) -> None:
        self.server = server
        self.daemon = self.make_daemon(server, cfg)
        self.daemon.start()
        self.listener = UdpReportListener(
            self.daemon, ingest_batch=cfg["ingest_batch"]
        )
        self.listener.start()
        self.address = self.listener.address

    @staticmethod
    def make_daemon(server, cfg):
        return VeriDPDaemon(server, workers=1)

    def counters(self):
        d = self.daemon
        done = d.processed + d.malformed + d.verify_errors
        return self.listener.received, done, self.server.incidents_total, done

    def tick(self) -> None:
        pass

    def verdicts(self, stats: dict) -> dict:
        return {
            "passed": stats["verified"] - stats["failed"],
            "failed": stats["failed"],
        }

    def finish(self) -> dict:
        self.listener.stop()
        self.daemon.join()
        stats = self.daemon.stats()
        self.daemon.stop()
        final = {
            "received": self.listener.received,
            "transport_rejected": self.listener.wrong_size + self.listener.oversize,
            "submit_errors": self.listener.malformed,
            "dropped": self.listener.dropped,
            "processed": stats["processed"],
            "malformed": stats["malformed"] + stats["verify_errors"],
        }
        final.update(self.verdicts(stats))
        return final


class Sharded(Direct):
    """``serve --mode sharded``: verdicts fold in only at ``join()``."""

    @staticmethod
    def make_daemon(server, cfg):
        return ShardedVeriDPDaemon(server, workers=cfg["workers"])

    def counters(self):
        d = self.daemon
        return (
            self.listener.received,
            d.submitted,
            self.server.incidents_total,
            d.processed,
        )

    def verdicts(self, stats: dict) -> dict:
        counters = self.daemon.counters
        passed = sum(n for v, n in counters.items() if v.value == "pass")
        return {"passed": passed, "failed": stats["processed"] - passed}


class Cluster:
    """``serve --cluster N``: frontend + process nodes + coordinator."""

    def __init__(self, server, cfg) -> None:
        from repro.cluster import VeriDPCluster

        self.server = server
        self.cluster = VeriDPCluster(
            server,
            nodes=cfg["nodes"],
            node_mode="process",
            ingest_batch=cfg["ingest_batch"],
        )
        self.cluster.start()
        self.address = self.cluster.listen_udp("127.0.0.1", 0)
        self._next_tick = time.monotonic() + CLUSTER_TICK_S

    def counters(self):
        c = self.cluster
        return (
            c.ingest.datagrams,
            c.frontend.submitted,
            len(c.coordinator.incidents),
            c.coordinator.processed,
        )

    def tick(self) -> None:
        if time.monotonic() >= self._next_tick:
            self._next_tick += CLUSTER_TICK_S
            self.cluster.check_nodes()
            self.cluster.resync()
            self.cluster.flush()

    def finish(self) -> dict:
        # Let the ingest loop drain what is already in the socket buffer.
        settled, last = 0, -1
        while settled < 5:
            seen = self.cluster.ingest.datagrams
            settled = settled + 1 if seen == last else 0
            last = seen
            time.sleep(0.02)
        self.cluster.join(timeout=60.0)
        stats = self.cluster.stats()
        self.cluster.stop()
        front = stats["frontend"]
        passed = stats["counters"].get("pass", 0)
        return {
            "received": self.cluster.ingest.datagrams,
            "transport_rejected": front["precheck_rejected"],
            "submit_errors": 0,
            "dropped": front["dropped_no_node"],
            "processed": stats["processed"],
            "malformed": stats["malformed"] + stats["crashed"],
            "passed": passed,
            "failed": stats["processed"] - passed,
        }


SHAPES = {"direct": Direct, "sharded": Sharded, "cluster": Cluster}


def _refresher(shape, slots, stop: threading.Event) -> None:
    """Copy the system's own counters into the shared block, in the slot
    order ``loadgen`` indexes (received, progress, incidents, processed).

    One aligned 8-byte store per slot: the reader polls without a lock, and
    a multi-slot ``pack_into`` can be observed half-written.
    """
    while not stop.is_set():
        slots[0], slots[1], slots[2], slots[3] = shape.counters()
        time.sleep(REFRESH_S)


def _incident_ledger(server, shape) -> dict:
    """``payload hex -> [count, blamed switches]`` for every failed report."""
    ledger: dict = {}
    if isinstance(shape, Cluster):
        # Cluster incidents keep the payload and verdict only; blame lives
        # in the authoritative server's log when it re-ingested the report.
        for payload, _verdict in shape.cluster.coordinator.incidents:
            row = ledger.setdefault(payload.hex(), [0, []])
            row[0] += 1
        return ledger
    for incident in server.incidents:
        key = pack_report(incident.verification.report, server.codec).hex()
        row = ledger.setdefault(key, [0, incident.blamed_switches])
        row[0] += 1
    return ledger


def _drain_depth_mean(server) -> float:
    """Mean datagrams per socket wakeup, from the listener's own histogram."""
    from repro.obs.exposition import snapshot_to_dict

    family = snapshot_to_dict(server.obs.registry.snapshot()).get(
        "veridp_ingest_drain_depth"
    )
    if not family or not family["samples"] or not family["samples"][0]["count"]:
        return 0.0
    sample = family["samples"][0]
    return sample["sum"] / sample["count"]


def main() -> int:
    cfg = json.loads(sys.argv[1])
    _scenario, server = build_server(cfg)
    shape = SHAPES[cfg["shape"]](server, cfg)
    with open(cfg["shm_path"], "r+b") as fh:
        shm = mmap.mmap(fh.fileno(), SHM_SIZE)
    slots = memoryview(shm).cast("Q")
    stop = threading.Event()
    refresher = threading.Thread(
        target=_refresher, args=(shape, slots, stop), daemon=True
    )
    refresher.start()
    print(
        json.dumps(
            {
                "ready": True,
                "address": list(shape.address),
                "pid": os.getpid(),
                "children": [p.pid for p in multiprocessing.active_children()],
            }
        ),
        flush=True,
    )
    ticking = cfg.get("coalesce_ms", 0) > 0
    buffered = b""
    fd = sys.stdin.fileno()
    os.set_blocking(fd, False)
    finishing = False
    while not finishing:
        ready, _, _ = select.select([fd], [], [], WINDOW_TICK_S if ticking else 0.05)
        if ticking:
            # VeriDPDaemon.submit_frame never expires the coalescing window
            # (only receive_report and the sharded submit do), so whoever
            # feeds rules has to; this loop is that integration code.
            server.maybe_flush_updates()
        shape.tick()
        if not ready:
            continue
        chunk = os.read(fd, 65536)
        if not chunk:
            break  # parent went away
        buffered += chunk
        while b"\n" in buffered:
            line, buffered = buffered.split(b"\n", 1)
            op = json.loads(line)
            if op["op"] == "rule_add":
                server.apply_rule_update(op["switch"], op["prefix"], op["port"])
            elif op["op"] == "rule_del":
                server.apply_rule_delete(op["switch"], op["prefix"])
            elif op["op"] == "finish":
                finishing = True
    final = shape.finish()
    stop.set()
    refresher.join(timeout=2)
    final["incident_ledger"] = _incident_ledger(server, shape)
    final["drain_depth_mean"] = _drain_depth_mean(server)
    server.close()
    print(json.dumps({"final": final}), flush=True)
    slots.release()
    shm.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
