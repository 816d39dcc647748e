"""Property: a pair spec verifies the same in process and after a pickle.

Inside the process a pair spec's :class:`~repro.bdd.engine.NodePool` is
root ids into the BDD manager's node lists (what the direct daemon's
replica and a forked shard worker hold).  Pickled — a worker patch, a
cluster reload or patch — it is one deduplicated pool of just the pair's
nodes.  Both must give every report the same verdict and the same matched
entry, through the scalar matcher ``_verify_wire`` and through the vector
kernel (cube tier and forced descent tier alike), and the same
``replica_digest``; so must a replica whose pairs are part inherited and
part patched in over a pickle.
"""

import pickle

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.analysis.timing import wire_payloads_from_table
from repro.core import vector as vec
from repro.core.replica import (
    ShardReplica,
    _verify_wire,
    build_shard_specs,
    replica_digest,
    wire_packing,
)
from repro.core.reports import REPORT_SIZE
from repro.core.server import VeriDPServer
from repro.core.verifier import Verdict
from repro.topologies import build_stanford

#: Stanford with its ACLs and SSH detours: multi-entry pairs, and entries
#: too cube-rich for the cube tier.
_SCENARIO = build_stanford(subnets_per_zone=1)
_SERVER = VeriDPServer(_SCENARIO.topo, _SCENARIO.channel)
HS = _SERVER.hs
BITS = HS.layout.total_bits
PACKING = wire_packing(HS.layout)
ROWS, _CODEC = wire_payloads_from_table(_SERVER.builder, _SERVER.table, tamper=True)
SPECS = build_shard_specs(_SERVER.table, HS, _CODEC, 1)[0]
KEYS = sorted(SPECS)
PICKLED = pickle.loads(pickle.dumps(SPECS))

_VALUE_OF = (
    Verdict.PASS.value,
    Verdict.FAIL_TAG_MISMATCH.value,
    Verdict.FAIL_NO_PATH.value,
    Verdict.FAIL_UNKNOWN_PAIR.value,
)


def _list_order(specs, keys):
    """The specs with ``keys`` marked not disjoint: those pairs are scanned
    in list order, on both sides of the comparison."""
    return {
        key: spec if key not in keys else spec[:3] + (False,)
        for key, spec in specs.items()
    }


def _key(payload):
    return (int.from_bytes(payload[2:4], "big"), int.from_bytes(payload[4:6], "big"))


def _kernel_verdicts(specs, rows, cube_cap):
    """``(codes, matched)`` of an assembly of the rows' pairs of ``specs``."""
    keys = sorted({_key(payload) for payload in rows} & specs.keys())
    kernels = [
        vec.compile_pair_kernel(*specs[key], BITS, cube_cap=cube_cap) for key in keys
    ]
    assert all(kernel is not None for kernel in kernels)
    assembly = vec.KernelAssembly(kernels, BITS)
    slot_of = {key: slot for slot, key in enumerate(keys)}
    slot = np.array(
        [slot_of.get(_key(payload), vec.SLOT_UNKNOWN) for payload in rows],
        dtype=np.int64,
    )
    raw = np.frombuffer(b"".join(rows), dtype=np.uint8).reshape(-1, REPORT_SIZE)
    tags = raw[:, 6:14].copy().view(">u8").ravel().astype(np.uint64)
    hdr = raw[:, 14:]
    lane0, lane1 = vec.lanes_from_bytes(hdr)
    codes, matched = assembly.verify(slot, tags, lane0, lane1, hdr)
    return codes.tolist(), matched.tolist()


def _rows():
    """Table payloads (every verdict class) and random headers on them."""
    random_header = st.builds(
        lambda payload, header: payload[:14] + header,
        st.sampled_from(ROWS),
        st.binary(min_size=13, max_size=13),
    )
    return st.lists(
        st.one_of(st.sampled_from(ROWS), random_header), min_size=1, max_size=48
    )


def test_wire_packing_is_the_payload_order():
    """The kernel comparisons below hand payload bytes 14..26 straight to
    the assembly, which is right only for the 5-tuple in wire order."""
    assert [pos for pos, _ in PACKING] == [0, 1, 2, 3, 4]


@given(
    rows=_rows(),
    list_order=st.sets(st.sampled_from(KEYS), max_size=len(KEYS)),
)
@settings(max_examples=60, deadline=None)
def test_pickled_spec_gives_the_same_verdict_and_entry(rows, list_order):
    inproc = _list_order(SPECS, list_order)
    pickled = _list_order(PICKLED, list_order)
    for payload in rows:
        assert _verify_wire(inproc, PACKING, payload) == _verify_wire(
            pickled, PACKING, payload
        )
        key = _key(payload)
        if key in SPECS:
            value = int.from_bytes(payload[14:], "big")
            pool, local = SPECS[key][1], PICKLED[key][1]
            assert [pool.evaluate(i, value) for i in range(len(pool))] == [
                local.evaluate(i, value) for i in range(len(local))
            ]
    scalar = [_verify_wire(inproc, PACKING, payload) for payload in rows]
    for cube_cap in (vec.CUBE_CAP, 0):
        codes, matched = _kernel_verdicts(inproc, rows, cube_cap)
        assert (codes, matched) == _kernel_verdicts(pickled, rows, cube_cap)
        assert [_VALUE_OF[code] for code in codes] == scalar
    frame = b"".join(rows)
    assert (
        vec.WireBatchVerifier(inproc, PACKING).verify_frame(frame).tolist()
        == vec.WireBatchVerifier(pickled, PACKING).verify_frame(frame).tolist()
    )


@given(
    patched=st.sets(st.sampled_from(KEYS), max_size=len(KEYS)),
    rows=st.lists(st.sampled_from(ROWS), min_size=1, max_size=80),
)
@settings(max_examples=40, deadline=None)
def test_replica_patched_over_a_pickle_matches_one_inherited(patched, rows):
    """Some pairs inherited in process, the rest patched in pickled: the
    replica digests and verifies like one that inherited every pair."""
    inherited = ShardReplica(0, PACKING, dict(SPECS))
    mixed = ShardReplica(0, PACKING, dict(SPECS))
    mixed.patch(pickle.loads(pickle.dumps({key: SPECS[key] for key in patched})))
    assert mixed.digest() == inherited.digest() == replica_digest(PICKLED)
    frame = b"".join(rows)
    inherited.verify(frame)
    mixed.verify(frame)
    assert inherited.drain()._replace(seconds=0.0) == mixed.drain()._replace(
        seconds=0.0
    )
