"""Property: one ShardReplica, whatever the transport and however the
frames are cut.

The direct daemon's threads, the sharded daemon's workers and the
cluster's nodes all verify through
:class:`repro.core.replica.ShardReplica`.  These tests pin the replica to a
per-payload model built from the scalar matcher ``_verify_wire`` — on
random frames mixing every row class (pass, tag mismatch, no path, unknown
pair, bad version, irregular pair), on both sides of the
kernel's ``MIN_BATCH`` crossover, in both unknown-pair modes — and require
the same delta whether a frame is verified whole or split at any row.  The
metric families the owners of the two remote transports fold the deltas
into are pinned by name and label; the in-thread transport exports none.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.timing import wire_payloads_from_table
from repro.bdd.headerspace import HeaderSpace
from repro.cluster import VeriDPCluster
from repro.core import vector as vec
from repro.core.daemon import ShardedVeriDPDaemon, VeriDPDaemon
from repro.core.pathtable import PathTableBuilder
from repro.core.replica import (
    ShardReplica,
    _verify_wire,
    build_shard_specs,
    wire_packing,
)
from repro.core.reports import REPORT_SIZE, pack_report
from repro.core.server import VeriDPServer
from repro.core.verifier import Verdict
from repro.dataplane import DataPlaneNetwork
from repro.topologies import build_figure5, build_linear

PASS = Verdict.PASS.value
UNKNOWN = Verdict.FAIL_UNKNOWN_PAIR.value


def _fixture():
    """Figure 5's table (some pairs hold two entries, so a lowered
    ``ENTRY_CAP`` makes them irregular) and a pool of every row class."""
    scenario = build_figure5()
    hs = HeaderSpace()
    builder = PathTableBuilder(scenario.topo, hs)
    table = builder.build()
    table.compile_matchers(hs)
    payloads, codec = wire_payloads_from_table(builder, table, tamper=True)
    pairs = build_shard_specs(table, hs, codec, 1)[0]
    # One pair is not placed on the replica: its healthy rows are unknown.
    unplaced = next(iter(pairs))
    del pairs[unplaced]
    rows = list(dict.fromkeys(payloads))
    rows += [bytes([99]) + p[1:] for p in rows[:4]]  # bad version
    return pairs, wire_packing(hs.layout), rows, unplaced


PAIRS, PACKING, ROWS, UNPLACED = _fixture()


def _replica(set_aside_unknown):
    return ShardReplica(
        "r",
        PACKING,
        dict(PAIRS),
        set_aside_unknown=set_aside_unknown,
    )


def _model(rows, set_aside_unknown):
    """``(processed, malformed, counters, failures, crashed, unknown,
    malformed_sample)`` from the scalar matcher, payload by payload."""
    processed = malformed = 0
    counters = {v.value: 0 for v in Verdict}
    failures, unknown, sample = [], [], []
    for payload in rows:
        verdict = _verify_wire(PAIRS, PACKING, payload)
        if verdict is None:
            malformed += 1
            if len(sample) < 64:
                sample.append(payload)
        elif verdict == UNKNOWN and set_aside_unknown:
            unknown.append(payload)
        else:
            processed += 1
            counters[verdict] += 1
            if verdict != PASS:
                failures.append((payload, verdict))
    return processed, malformed, counters, failures, [], unknown, sample


def _pending(delta):
    """A delta without its batch figures (timing and kernel use differ by
    cut)."""
    return delta._replace(seconds=0.0, vector_rows=0, fallbacks={})


def test_pool_covers_every_row_class():
    verdicts = {_verify_wire(PAIRS, PACKING, p) for p in ROWS}
    assert verdicts == {None} | {v.value for v in Verdict}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(vec, "ENTRY_CAP", 1)
        codes = _replica(False)._kernel.verify_frame(b"".join(ROWS)).tolist()
    assert vec.VSCALAR in codes and vec.VPASS in codes


@given(
    data=st.data(),
    rows=st.lists(st.sampled_from(ROWS), max_size=80),
    set_aside_unknown=st.booleans(),
    irregular=st.booleans(),
)
@settings(max_examples=120, deadline=None)
def test_drain_matches_scalar_model_however_the_frame_is_cut(
    data, rows, set_aside_unknown, irregular
):
    frame = b"".join(rows)
    cut = data.draw(st.integers(min_value=0, max_value=len(rows)))
    with pytest.MonkeyPatch.context() as mp:
        if irregular:
            mp.setattr(vec, "ENTRY_CAP", 1)
        whole = _replica(set_aside_unknown)
        whole.verify(frame)
        drained = whole.drain(3)
        split = _replica(set_aside_unknown)
        split.verify(frame[: cut * REPORT_SIZE])
        split.verify(frame[cut * REPORT_SIZE :])
        split_drained = split.drain(3)
    assert tuple(drained[1:8]) == _model(rows, set_aside_unknown)
    assert (drained.source, drained.seq) == ("r", 3)
    assert _pending(split_drained) == _pending(drained)
    # drain() reset the window: the next one reports nothing.
    assert whole.drain().processed == 0 and whole.drain().failures == []


@pytest.mark.parametrize("rows", [8, 64])
def test_bad_version_row_of_unplaced_pair_is_malformed_at_any_size(rows):
    """Below and above the kernel crossover, a bad-version row is malformed
    before its pair is looked up — never sent back as unknown."""
    healthy = [p for p in ROWS if _verify_wire(PAIRS, PACKING, p) == PASS]
    unplaced = next(
        p
        for p in ROWS
        if (int.from_bytes(p[2:4], "big"), int.from_bytes(p[4:6], "big"))
        == UNPLACED
        and p[0] != 99
    )
    bad = bytes([99]) + unplaced[1:]
    frame = b"".join((healthy * rows)[: rows - 2] + [bad, unplaced])
    replica = _replica(True)
    replica.verify(frame)
    delta = replica.drain()
    assert (delta.malformed, delta.unknown) == (1, [unplaced])
    assert delta.malformed_sample == [bad]


SHARD_FAMILIES = {
    "veridp_shard_batch_seconds": ("shard",),
    "veridp_shard_batches_total": ("shard",),
    "veridp_shard_processed_total": ("shard",),
    "veridp_shard_malformed_total": ("shard",),
    "veridp_shard_verifications_total": ("shard", "verdict"),
    "veridp_shard_vector_reports_total": ("shard",),
    "veridp_shard_vector_fallback_total": ("shard", "kind"),
}
NODE_FAMILIES = {
    name.replace("shard", "node"): tuple(
        "node" if label == "shard" else label for label in labels
    )
    for name, labels in SHARD_FAMILIES.items()
}
NODE_FAMILIES["veridp_cluster_tenant_reports_total"] = ("node", "tenant")


def _families(registry, prefixes):
    return {
        entry["name"]: tuple(entry["labelnames"])
        for entry in registry.snapshot().metrics
        if entry["name"].startswith(prefixes)
    }


def _linear_run(count=200):
    """A fresh linear(3) server and ``count`` healthy wire reports."""
    scenario = build_linear(3)
    server = VeriDPServer(scenario.topo, scenario.channel)
    net = DataPlaneNetwork(scenario.topo, scenario.channel)
    payloads = []
    for src, dst in scenario.host_pairs():
        result = net.inject_from_host(src, scenario.header_between(src, dst))
        payloads += [pack_report(r, net.codec) for r in result.reports]
    return server, (payloads * (count // len(payloads) + 1))[:count]


def test_sharded_and_cluster_scrapes_show_the_same_families():
    replica_prefixes = ("veridp_direct_", "veridp_shard_", "veridp_node_")
    server, payloads = _linear_run()
    with VeriDPDaemon(server, workers=2) as daemon:
        for payload in payloads:
            daemon.submit(payload)
        daemon.join()
        assert daemon.stats()["processed"] == len(payloads)
        assert _families(daemon.obs.registry, replica_prefixes) == {}

    server, payloads = _linear_run()
    with ShardedVeriDPDaemon(server, workers=2) as daemon:
        for payload in payloads:
            daemon.submit(payload)
        daemon.join()
        assert daemon.stats()["processed"] == len(payloads)
        shard = _families(daemon.obs.registry, ("veridp_shard_", "veridp_node_"))
    assert shard == SHARD_FAMILIES

    server, payloads = _linear_run()
    with VeriDPCluster(server, nodes=2) as cluster:
        for payload in payloads:
            cluster.submit(payload)
        cluster.join()
        assert cluster.stats()["processed"] == len(payloads)
        node = _families(
            cluster.coordinator.registry,
            ("veridp_shard_", "veridp_node_", "veridp_cluster_"),
        )
    assert node == NODE_FAMILIES
