"""Tests for the vectorized batch verification kernel (``core.vector``).

Three layers are pinned to their scalar references:

* cube/descent entry evaluation against ``FlatBDD.evaluate_value`` on
  randomized predicates and headers (hypothesis),
* the wire-level :class:`WireBatchVerifier` against the shard worker's
  scalar ``_verify_wire`` (tampered, truncated and bad-version payloads
  included), plus frame/list API equivalence,
* the vectorized Bloom helpers against ``BloomTagScheme.may_contain``.

``_verify_wire`` is in turn pinned to the paper-literal verifier in
``tests/core/test_one_match_path.py``; per-pair kernel recompiles on a
delta resync are pinned in ``tests/core/test_verdict_core.py``.
"""

import pytest
from hypothesis import given, settings, strategies as st

np = pytest.importorskip("numpy")

from repro.analysis.timing import check_vector_wire_parity, wire_payloads_from_table
from repro.bdd.headerspace import HeaderSpace
from repro.core import vector as vec
from repro.core.replica import build_shard_specs, wire_packing
from repro.core.pathtable import PathTableBuilder
from repro.netmodel.packet import Header
from repro.topologies import build_figure5

headers = st.builds(
    Header,
    src_ip=st.integers(min_value=0, max_value=(1 << 32) - 1),
    dst_ip=st.integers(min_value=0, max_value=(1 << 32) - 1),
    proto=st.integers(min_value=0, max_value=255),
    src_port=st.integers(min_value=0, max_value=65535),
    dst_port=st.integers(min_value=0, max_value=65535),
)


def predicate_from(hs, spec):
    """Build a BDD predicate from a hypothesis-drawn spec tree."""
    kind = spec[0]
    if kind == "prefix":
        _, field, base, length = spec
        return hs.prefix(field, base, length)
    if kind == "exact":
        _, field, value = spec
        return hs.exact(field, value)
    if kind == "range":
        _, field, lo, hi = spec
        return hs.range_(field, min(lo, hi), max(lo, hi))
    if kind == "not":
        return hs.bdd.not_(predicate_from(hs, spec[1]))
    op = hs.bdd.and_ if kind == "and" else hs.bdd.or_
    return op(predicate_from(hs, spec[1]), predicate_from(hs, spec[2]))


predicates = st.recursive(
    st.one_of(
        st.tuples(
            st.just("prefix"),
            st.sampled_from(["src_ip", "dst_ip"]),
            st.integers(min_value=0, max_value=(1 << 32) - 1),
            st.integers(min_value=0, max_value=32),
        ),
        st.tuples(
            st.just("exact"),
            st.just("proto"),
            st.integers(min_value=0, max_value=255),
        ),
        st.tuples(
            st.just("range"),
            st.sampled_from(["src_port", "dst_port"]),
            st.integers(min_value=0, max_value=65535),
            st.integers(min_value=0, max_value=65535),
        ),
    ),
    lambda children: st.one_of(
        st.tuples(st.just("not"), children),
        st.tuples(st.just("and"), children, children),
        st.tuples(st.just("or"), children, children),
    ),
    max_leaves=6,
)


def assemble_single(hs, header_set, cube_cap):
    """One-entry assembly for ``header_set`` (``cube_cap=0`` forces descent)."""
    kern = vec.compile_pair_kernel(
        [0],
        hs.bdd.pool([header_set]),
        {0: (0,)},
        True,
        hs.layout.total_bits,
        cube_cap=cube_cap,
    )
    assert kern is not None
    return vec.KernelAssembly([kern], hs.layout.total_bits)


def marshal(hs, header_dicts):
    width = hs.layout.total_bits // 8
    parts = [hs.header_value(d).to_bytes(width, "big") for d in header_dicts]
    n = len(parts)
    hdr = np.frombuffer(b"".join(parts), dtype=np.uint8).reshape(n, -1)
    lane0, lane1 = vec.lanes_from_bytes(hdr)
    return hdr, lane0, lane1


class TestEntryEvaluation:
    @given(spec=predicates, batch=st.lists(headers, min_size=1, max_size=16))
    @settings(max_examples=100, deadline=None)
    def test_cube_and_descent_tiers_match_scalar_evaluate(self, spec, batch):
        """Both evaluation tiers agree with ``FlatBDD.evaluate_value`` on
        random predicates and random header batches."""
        hs = HeaderSpace()
        header_set = predicate_from(hs, spec)
        flat = hs.bdd.compile_flat(header_set)
        dicts = [h.as_dict() for h in batch]
        expected = [flat.evaluate_value(hs.header_value(d)) for d in dicts]
        hdr, lane0, lane1 = marshal(hs, dicts)
        rows = np.arange(len(batch), dtype=np.int64)
        gidx = np.zeros(len(batch), dtype=np.int64)
        for cube_cap in (vec.CUBE_CAP, 0):  # cube tier, then forced descent
            assembly = assemble_single(hs, header_set, cube_cap)
            got = assembly._eval_entries(rows, gidx, lane0, lane1, hdr)
            assert got.tolist() == expected

    def test_descent_forced_when_cap_zero(self):
        hs = HeaderSpace()
        header_set = hs.prefix("dst_ip", 0x0A000000, 8)
        assembly = assemble_single(hs, header_set, 0)
        assert (assembly.ent_bucket == -1).all()  # no cube buckets
        assembly = assemble_single(hs, header_set, vec.CUBE_CAP)
        assert (assembly.ent_bucket >= 0).all()


class TestProbeTable:
    @given(
        keys=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=(1 << 28) - 1),
                st.integers(min_value=0, max_value=(1 << 64) - 1),
            ),
            unique=True,
            max_size=200,
        ),
        absent=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=(1 << 28) - 1),
                st.integers(min_value=0, max_value=(1 << 64) - 1),
            ),
            max_size=50,
        ),
        collide=st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_lookup_matches_a_dict(self, keys, absent, collide):
        """The vectorized linear-probing build places every key where a
        lookup finds it, however many keys contend for one slot; a key
        not in the table comes back -1."""
        if collide:  # one ``b`` for every key: slots depend on ``a`` alone
            keys = list(dict.fromkeys((a, 0) for a, _ in keys))
        table = dict(zip(keys, range(len(keys))))
        probe = vec._ProbeTable(
            np.array([a for a, _ in keys], dtype=np.int64),
            np.array([b for _, b in keys], dtype=np.uint64),
            np.array(list(table.values()), dtype=np.int64),
        )
        asked = keys + [key for key in absent if key not in table]
        got = probe.lookup(
            np.array([a for a, _ in asked], dtype=np.int64),
            np.array([b for _, b in asked], dtype=np.uint64),
        )
        assert got.tolist() == [table.get(key, -1) for key in asked]


@pytest.fixture(scope="module")
def figure5():
    scenario = build_figure5()
    hs = HeaderSpace()
    builder = PathTableBuilder(scenario.topo, hs)
    table = builder.build()
    table.compile_matchers(hs)
    return scenario, hs, builder, table


class TestWireParity:
    def test_wire_kernel_matches_scalar_wire_path(self, figure5):
        """Default payload set: healthy + tampered + truncated + bad
        version, vector codes vs ``_verify_wire`` one by one."""
        _, hs, builder, table = figure5
        assert check_vector_wire_parity(builder, table) == []

    def test_frame_and_list_apis_agree(self, figure5):
        _, hs, builder, table = figure5
        payloads, codec = wire_payloads_from_table(builder, table, tamper=True)
        pairs = build_shard_specs(table, hs, codec, 1)[0]
        wirev = vec.WireBatchVerifier(pairs, wire_packing(hs.layout))
        list_codes = wirev.verify(list(payloads)).tolist()
        frame_codes = wirev.verify_frame(b"".join(payloads)).tolist()
        assert list_codes == frame_codes
        assert vec.VPASS in frame_codes and vec.VMISMATCH in frame_codes

    def test_frame_rejects_trailing_bytes(self, figure5):
        _, hs, builder, table = figure5
        payloads, codec = wire_payloads_from_table(builder, table, tamper=False)
        pairs = build_shard_specs(table, hs, codec, 1)[0]
        wirev = vec.WireBatchVerifier(pairs, wire_packing(hs.layout))
        with pytest.raises(ValueError):
            wirev.verify_frame(payloads[0] + b"\x00")
        assert wirev.verify_frame(b"").shape[0] == 0


class TestBloomHelpers:
    @given(
        tags=st.lists(
            st.integers(min_value=0, max_value=(1 << 16) - 1),
            min_size=1,
            max_size=32,
        ),
        filters=st.lists(
            st.integers(min_value=0, max_value=(1 << 16) - 1),
            min_size=0,
            max_size=8,
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_vectorized_membership_matches_scalar(self, tags, filters):
        for tag in tags:
            miss = vec.bloom_first_miss(tag, filters)
            scalar = -1
            for i, hf in enumerate(filters):
                if (hf & tag) != hf:
                    scalar = i
                    break
            assert miss == scalar

    def test_localization_walk_vector_equals_scalar(self, monkeypatch):
        """``first_bloom_miss`` gives the same index with and without the
        vectorized sweep on real scheme-generated hop filters."""
        from repro.core import localization as loc
        from repro.core.bloom import BloomTagScheme
        from repro.netmodel.hops import Hop

        scheme = BloomTagScheme()
        hops = [Hop(1, f"S{i}", 2) for i in range(12)]
        tag = scheme.tag_of_path(hops[:7])  # hops 7.. untagged
        vector_miss = loc.first_bloom_miss(scheme, tag, hops)
        monkeypatch.setattr(loc, "_HAVE_NUMPY", False)
        scalar_miss = loc.first_bloom_miss(scheme, tag, hops)
        assert vector_miss == scalar_miss
        full = scheme.tag_of_path(hops)
        assert loc.first_bloom_miss(scheme, full, hops) == -1
