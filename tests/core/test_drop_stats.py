"""Drop keys: both daemons emit the canonical spellings.

``dropped_new`` / ``dropped_oldest`` / ``block_timeouts`` are the
canonical queue-drop stats and ``dropped`` is their total, on both
daemons.
"""

from repro.core.daemon import ShardedVeriDPDaemon, VeriDPDaemon
from repro.core.server import VeriDPServer
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
