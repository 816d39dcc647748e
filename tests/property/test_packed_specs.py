"""Property: a packed replica message verifies like per-pair specs.

Every replica sender packs its message with
:func:`~repro.core.replica.pack_specs`: the pools of all the message's
pair specs are localized into one node table, and each pair's pool is its
roots into that table.  For any subset of pairs (Figure 5, and Stanford ×1
with its ACLs and SSH detours), the packed bundle, once pickled, must give
every pair the same ``replica_digest`` and the same ``match_pair`` result
on every table payload (tampered ones included) as the in-process spec,
the same vector-kernel codes as the per-pair pickled form, and exactly one
node table: the one the manager's pool of all the roots localizes to.  On
Stanford ×2 the packed message must pickle to at most a third of the
per-pair form.
"""

import pickle
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.timing import wire_payloads_from_table
from repro.core.pathtable import match_pair
from repro.core.replica import (
    _verify_wire,
    build_shard_specs,
    pack_specs,
    replica_digest,
    wire_packing,
)
from repro.core.reports import _REPORT_STRUCT, REPORT_SIZE, REPORT_VERSION
from repro.core.server import VeriDPServer
from repro.core.vector import WireBatchVerifier
from repro.topologies import build_figure5, build_stanford


class _Rig:
    """One server's pair specs and its table's payloads (every class)."""

    def __init__(self, scenario) -> None:
        server = VeriDPServer(scenario.topo, scenario.channel)
        self.bdd = server.hs.bdd
        self.packing = wire_packing(server.hs.layout)
        self.rows, codec = wire_payloads_from_table(
            server.builder, server.table, tamper=True
        )
        self.specs = build_shard_specs(server.table, server.hs, codec, 1)[0]
        self.keys = sorted(self.specs)


RIGS = {
    "figure5": _Rig(build_figure5()),
    "stanford": _Rig(build_stanford(subnets_per_zone=1)),
}


def _decoded(rig, payload):
    """``(pair key, tag, packed header)`` of a well-formed payload, else None."""
    try:
        fields = _REPORT_STRUCT.unpack(payload)
    except struct.error:
        return None
    if fields[0] != REPORT_VERSION:
        return None
    value = 0
    for pos, width in rig.packing:
        value = (value << width) | fields[5 + pos]
    return (fields[2], fields[3]), fields[4], value


def _shipped(specs):
    return pickle.loads(pickle.dumps(specs, pickle.HIGHEST_PROTOCOL))


@st.composite
def _subsets(draw):
    name = draw(st.sampled_from(sorted(RIGS)))
    rig = RIGS[name]
    keys = draw(st.sets(st.sampled_from(rig.keys), min_size=1))
    return rig, {key: rig.specs[key] for key in keys}


@given(_subsets())
@settings(max_examples=40, deadline=None)
def test_packed_bundle_verifies_like_each_pair(drawn):
    rig, specs = drawn
    bundle = _shipped(pack_specs(specs))
    per_pair = _shipped(specs)
    assert bundle.keys() == specs.keys()
    for key, spec in specs.items():
        assert replica_digest({key: bundle[key]}) == replica_digest({key: spec})
    for payload in rig.rows:
        assert _verify_wire(bundle, rig.packing, payload) == _verify_wire(
            specs, rig.packing, payload
        )
        decoded = _decoded(rig, payload)
        if decoded is not None and decoded[0] in specs:
            key, tag, value = decoded
            assert match_pair(bundle[key], tag, value) == match_pair(
                specs[key], tag, value
            )
    frame = b"".join(row for row in rig.rows if len(row) == REPORT_SIZE)
    assert (
        WireBatchVerifier(bundle, rig.packing).verify_frame(frame).tolist()
        == WireBatchVerifier(per_pair, rig.packing).verify_frame(frame).tolist()
    )


@given(_subsets())
@settings(max_examples=40, deadline=None)
def test_packed_bundle_holds_exactly_one_node_table(drawn):
    rig, specs = drawn
    bundle = _shipped(pack_specs(specs))
    pools = [spec[1] for spec in bundle.values()]
    assert len({id(pool.level) for pool in pools}) == 1
    assert len({id(pool.low) for pool in pools}) == 1
    assert len({id(pool.high) for pool in pools}) == 1
    union = rig.bdd.pool(
        [root for key in sorted(specs) for root in specs[key][1].roots]
    ).localized()
    assert len(pools[0].level) == len(union.level)
    assert all(pool.local for pool in pools)


def test_packing_keeps_drops_and_key_order():
    rig = RIGS["figure5"]
    message = {key: rig.specs[key] for key in reversed(rig.keys)}
    message[rig.keys[0]] = None
    packed = pack_specs(message)
    assert list(packed) == list(message)
    assert packed[rig.keys[0]] is None
    assert pack_specs({}) == {}


def test_a_manager_pool_still_pickles_localized():
    """A lone pool over the manager's lists never ships those lists."""
    rig = RIGS["stanford"]
    pool = rig.specs[rig.keys[0]][1]
    assert not pool.local
    shipped = _shipped(pool)
    local = pool.localized()
    assert shipped.local
    assert (shipped.roots, shipped.level, shipped.low, shipped.high) == (
        local.roots,
        local.level,
        local.low,
        local.high,
    )
    assert len(shipped.level) < len(pool.level)


@pytest.mark.parametrize("full", [False, True], ids=["lpm", "full"])
def test_packed_message_is_a_third_of_the_per_pair_form(full):
    """Stanford ×2, the whole table as one message."""
    scenario = build_stanford(
        subnets_per_zone=2, with_acls=full, with_ssh_detours=full
    )
    server = VeriDPServer(scenario.topo, scenario.channel)
    specs = build_shard_specs(server.table, server.hs, server.codec, 1)[0]
    packed = pickle.dumps(pack_specs(specs), pickle.HIGHEST_PROTOCOL)
    per_pair = pickle.dumps(specs, pickle.HIGHEST_PROTOCOL)
    assert 3 * len(packed) <= len(per_pair)
    assert replica_digest(pickle.loads(packed)) == replica_digest(specs)
