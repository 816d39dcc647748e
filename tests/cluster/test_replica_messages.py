"""Coordinator replica messages: bootstrap shares and packed node tables.

``start(n)`` places every id on the ring before the first join, so each
node is loaded with exactly its final share and no bootstrap join hands
pairs on (no ``patch``, no rebalance).  Every ``reload`` and ``patch``
message's specs are packed over one node table; a node keeps a message's
table alive only while a pair from that message survives, so resync
rounds that re-dirty the same pairs do not pile tables up.
"""

import pickle

from repro.cluster import VeriDPCluster
from repro.cluster.protocol import MessageStream
from repro.core.server import VeriDPServer
from repro.topologies import build_linear


def test_start_loads_each_node_with_its_final_share_only(rig, monkeypatch):
    _, server, _ = rig
    sent = []
    real_send_bytes = MessageStream.send_bytes

    def spy(stream, blob):
        sent.append(pickle.loads(blob)[0])
        return real_send_bytes(stream, blob)

    monkeypatch.setattr(MessageStream, "send_bytes", spy)
    with VeriDPCluster(server, nodes=2, node_mode="thread") as cluster:
        coordinator = cluster.coordinator
        assert "patch" not in sent
        assert sent.count("reload") == 2
        assert coordinator.rebalance_patches == 0
        assert coordinator.rebalances == coordinator.moved_pairs == 0
        # A digest round trip rides each node's link behind its reload.
        assert cluster.converged()
        shares = [
            len(cluster.frontend.link(node_id).member._node.replica.pairs)
            for node_id in cluster.nodes()
        ]
        assert shares == [
            len(coordinator._replica_of(node_id)) for node_id in cluster.nodes()
        ]
        assert all(shares) and sum(shares) == len(server.table.pairs())


def _table_nodes(replica):
    """Nodes held by the distinct node tables ``replica``'s pairs reference."""
    tables = {id(spec[1].level): len(spec[1].level) for spec in replica.pairs.values()}
    return sum(tables.values())


def test_resync_rounds_do_not_pin_old_tables(tmp_path):
    scenario = build_linear(4)
    server = VeriDPServer(
        scenario.topo, state_dir=str(tmp_path / "state"), fsync="never"
    )
    try:
        with VeriDPCluster(server, nodes=2, node_mode="thread") as cluster:
            coordinator = cluster.coordinator
            patched = 0
            for _round in range(50):
                server.apply_rule_update("S1", "10.50.0.0/16", 2)
                patched += cluster.resync()
                server.apply_rule_delete("S1", "10.50.0.0/16")
                patched += cluster.resync()
            assert patched > 0 and coordinator.full_resyncs == 0
            # A digest round trip rides each node's link behind its patches.
            assert cluster.converged()
            bdd = server.hs.bdd
            for node_id in cluster.nodes():
                replica = cluster.frontend.link(node_id).member._node.replica
                slice_ = coordinator._replica_of(node_id)
                fresh = bdd.pool(
                    [root for key in sorted(slice_) for root in slice_[key][1].roots]
                ).localized()
                assert _table_nodes(replica) <= 2 * len(fresh.level)
    finally:
        server.close()
