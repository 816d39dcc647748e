"""Drop keys: both daemons emit the canonical spellings.

``dropped_new`` / ``dropped_oldest`` / ``block_timeouts`` are the
canonical queue-drop stats and ``dropped`` is their total, on both
daemons.  And on both, a row the overflow policy refuses is still in the
WAL: a dropped report is still evidence.
"""

from repro.core.daemon import ShardedVeriDPDaemon, VeriDPDaemon
from repro.core.reports import REPORT_SIZE, pack_report
from repro.core.server import VeriDPServer
from repro.dataplane import DataPlaneNetwork
from repro.topologies import build_linear


def make_server():
    scenario = build_linear(4)
    return VeriDPServer(scenario.topo, scenario.channel)


class TestDaemonSpellings:
    def test_thread_daemon_emits_both_spellings(self):
        with VeriDPDaemon(make_server()) as daemon:
            stats = daemon.stats()
        assert "dropped_new" in stats
        assert "dropped_oldest" in stats
        assert (
            stats["dropped"]
            == stats["dropped_new"]
            + stats["dropped_oldest"]
            + stats["block_timeouts"]
        )

    def test_sharded_daemon_emits_both_spellings(self):
        with ShardedVeriDPDaemon(make_server(), workers=2) as daemon:
            stats = daemon.stats()
        assert "dropped_new" in stats
        assert "dropped_oldest" in stats

    def test_spellings_agree_under_real_drops(self):
        """Overflow a tiny queue: the total tracks the canonical count."""
        scenario = build_linear(4)
        server = VeriDPServer(scenario.topo, scenario.channel)
        daemon = VeriDPDaemon(server, queue_size=2, overflow="drop-new")
        # Not started: the queue only fills, so drops are deterministic.
        for _ in range(16):
            daemon.submit(b"\x00" * 27)
        stats = daemon.stats()
        assert stats["dropped_new"] > 0
        assert stats["dropped"] >= stats["dropped_new"]


class CountingPersist:
    """The calls a daemon makes on a durable server for well-formed
    reports: count the rows logged."""

    def __init__(self):
        self.rows = 0

    def log_report(self, payload):
        self.rows += 1

    def log_report_frame(self, frame):
        self.rows += len(frame) // REPORT_SIZE


def durable_linear4(rows):
    """A linear-4 server with a counting WAL, and ``rows`` healthy reports."""
    scenario = build_linear(4)
    server = VeriDPServer(scenario.topo, scenario.channel)
    server.persist = CountingPersist()
    net = DataPlaneNetwork(scenario.topo, scenario.channel)
    base = []
    for src, dst in scenario.host_pairs():
        result = net.inject_from_host(src, scenario.header_between(src, dst))
        base += [pack_report(r, net.codec) for r in result.reports]
    return server, [base[i % len(base)] for i in range(rows)]


class TestRefusedRowsAreLogged:
    """``drop-new`` refuses rows after they reached the WAL, so ``repro
    replay`` verifies them too: WAL rows == ``submitted`` on both shapes."""

    def test_direct_daemon_logs_refused_rows(self):
        server, payloads = durable_linear4(200)
        daemon = VeriDPDaemon(server, queue_size=2, overflow="drop-new")
        # Not started: the queue only fills, so drops are deterministic.
        for payload in payloads:
            daemon.submit(payload)
        stats = daemon.stats()
        assert stats["dropped_new"] == 198
        assert server.persist.rows == stats["submitted"] == 200
        daemon.start()
        daemon.join()
        daemon.stop()

    def test_sharded_daemon_logs_refused_rows(self):
        server, payloads = durable_linear4(200)
        with ShardedVeriDPDaemon(
            server, workers=1, batch_size=1, max_pending_batches=1,
            overflow="drop-new", supervise=False,
        ) as daemon:
            for payload in payloads:
                daemon.submit(payload)
            daemon.join()
            stats = daemon.stats()
        assert stats["dropped"] > 0
        assert stats["processed"] + stats["dropped"] == 200
        assert server.persist.rows == stats["submitted"] == 200
