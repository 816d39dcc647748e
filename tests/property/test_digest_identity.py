"""Property: the package's SHA-1 gives the bytes ``hashlib.sha1`` gives.

Replica digests, cluster ring positions and path-table fingerprints hash
with :data:`repro.digest.sha1` (CPython's built-in SHA-1, so no serve
process maps OpenSSL).  Each must be byte-identical to what ``hashlib``
computes: a ring position that moved would re-place keys across a mixed
fleet, and a digest that moved would make replicas disagree with older
fingerprints.  Checked on arbitrary data split into any number of
``update`` calls, on 1,000 ring keys, and on Figure 5 and Stanford ×1.
"""

import bisect
import hashlib
import sys

import pytest
from hypothesis import given, settings, strategies as st

import repro.core.replica as replica_module
import repro.persist.snapshot as snapshot_module
from repro import digest
from repro.cluster.frontend import routing_key_of
from repro.cluster.ring import HashRing
from repro.core.replica import build_shard_specs, replica_digest
from repro.core.server import VeriDPServer
from repro.persist.snapshot import table_fingerprint
from repro.topologies import build_figure5, build_stanford

chunks = st.lists(st.binary(max_size=300), max_size=8)


@settings(max_examples=200, deadline=None)
@given(chunks)
def test_helper_equals_hashlib_over_updates(parts):
    ours, ref = digest.sha1(), hashlib.sha1()
    for part in parts:
        ours.update(part)
        ref.update(part)
    assert ours.digest() == ref.digest()
    assert ours.hexdigest() == ref.hexdigest()
    assert ours.copy().digest() == ref.digest()


@settings(max_examples=100, deadline=None)
@given(st.binary(max_size=1000))
def test_helper_equals_hashlib_in_one_call(data):
    assert digest.sha1(data).digest() == hashlib.sha1(data).digest()


def test_helper_is_the_builtin_and_falls_back_to_hashlib(monkeypatch):
    import _sha1

    assert digest.sha1 is _sha1.sha1
    # An interpreter built without _sha1: the constructor is hashlib's.
    monkeypatch.setitem(sys.modules, "_sha1", None)
    assert digest._constructor() is hashlib.sha1


def _hashlib_point(value: str) -> int:
    return int.from_bytes(hashlib.sha1(value.encode()).digest()[:8], "big")


def test_ring_places_1000_keys_as_a_hashlib_ring():
    members = [f"node-{i}" for i in range(3)]
    ring = HashRing(vnodes=64)
    for member in members:
        ring.add(member)
    # The reference ring: hashlib positions, the same successor rule.
    points = sorted(
        (_hashlib_point(f"{m}#{v}"), m) for m in members for v in range(64)
    )
    positions = [p for p, _ in points]
    keys = [routing_key_of(k * 7919, None) for k in range(990)]
    keys += [routing_key_of(0, f"t{k}") for k in range(10)]
    for key in keys:
        index = bisect.bisect_right(positions, _hashlib_point(key)) % len(points)
        assert ring.owner(key) == points[index][1], key
    assert ring._keys == positions


SCENARIOS = {
    "figure5": build_figure5,
    "stanford": lambda: build_stanford(subnets_per_zone=1),
}


@pytest.fixture(scope="module", params=sorted(SCENARIOS))
def server(request):
    scenario = SCENARIOS[request.param]()
    return VeriDPServer(scenario.topo, scenario.channel)


def test_replica_digest_equals_hashlib(server, monkeypatch):
    shards = build_shard_specs(server.table, server.hs, server.codec, 2)
    ours = [replica_digest(specs) for specs in shards]
    monkeypatch.setattr(replica_module, "sha1", hashlib.sha1)
    assert ours == [replica_digest(specs) for specs in shards]
    assert ours[0] != ours[1]


def test_table_fingerprint_equals_hashlib(server, monkeypatch):
    ours = table_fingerprint(server.table, server.hs.bdd)
    monkeypatch.setattr(snapshot_module, "sha1", hashlib.sha1)
    assert ours == table_fingerprint(server.table, server.hs.bdd)
