"""Property-based tests for VeriDP invariants (hypothesis)."""

from hypothesis import given, settings, strategies as st

from repro.bdd.headerspace import HeaderSpace
from repro.core.bloom import BloomTagScheme, XorTagScheme, murmur3_32
from repro.core.incremental import IncrementalPathTable
from repro.core.pathtable import PathTableBuilder
from repro.core.reports import PortCodec, TagReport, pack_report, unpack_report
from repro.netmodel.hops import Hop
from repro.netmodel.packet import Header
from repro.netmodel.predicates import SwitchPredicates
from repro.netmodel.rules import Drop, DROP_PORT, FlowRule, Forward, Match
from repro.netmodel.topology import PortRef, Topology
from repro.topologies import build_linear

# -- strategies -----------------------------------------------------------

hops = st.builds(
    Hop,
    in_port=st.integers(min_value=1, max_value=60),
    switch=st.text(
        alphabet=st.characters(min_codepoint=97, max_codepoint=122),
        min_size=1,
        max_size=8,
    ),
    out_port=st.integers(min_value=-1, max_value=60),
)

headers = st.builds(
    Header,
    src_ip=st.integers(min_value=0, max_value=(1 << 32) - 1),
    dst_ip=st.integers(min_value=0, max_value=(1 << 32) - 1),
    proto=st.integers(min_value=0, max_value=255),
    src_port=st.integers(min_value=0, max_value=65535),
    dst_port=st.integers(min_value=0, max_value=65535),
)


def prefix_strategy():
    return st.tuples(
        st.integers(min_value=0, max_value=(1 << 32) - 1),
        st.integers(min_value=0, max_value=32),
    ).map(lambda vp: (vp[0] & (((1 << vp[1]) - 1) << (32 - vp[1]) if vp[1] else 0), vp[1]))


matches = st.builds(
    Match,
    src_prefix=st.none() | prefix_strategy(),
    dst_prefix=st.none() | prefix_strategy(),
    proto=st.none() | st.integers(min_value=0, max_value=255),
    src_port_range=st.none()
    | st.tuples(
        st.integers(min_value=0, max_value=65535),
        st.integers(min_value=0, max_value=65535),
    ).map(lambda r: (min(r), max(r))),
    dst_port_range=st.none()
    | st.tuples(
        st.integers(min_value=0, max_value=65535),
        st.integers(min_value=0, max_value=65535),
    ).map(lambda r: (min(r), max(r))),
)


class TestBloomProperties:
    @given(st.lists(hops, min_size=0, max_size=12), st.sampled_from([8, 16, 32, 64]))
    @settings(max_examples=150, deadline=None)
    def test_no_false_negative_membership(self, path, bits):
        scheme = BloomTagScheme(bits=bits)
        tag = scheme.tag_of_path(path)
        for hop in path:
            assert scheme.may_contain(tag, hop)

    @given(st.lists(hops, min_size=1, max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_tag_order_and_repeat_invariant(self, path):
        scheme = BloomTagScheme()
        assert scheme.tag_of_path(path) == scheme.tag_of_path(
            list(reversed(path)) + path
        )

    @given(st.lists(hops, min_size=0, max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_tag_within_width(self, path):
        scheme = BloomTagScheme(bits=16)
        assert 0 <= scheme.tag_of_path(path) <= scheme.tag_mask

    @given(st.lists(hops, min_size=0, max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_fold_equals_batch(self, path):
        scheme = BloomTagScheme()
        folded = scheme.empty_tag
        for hop in path:
            folded = scheme.add(folded, hop)
        assert folded == scheme.tag_of_path(path)

    @given(st.lists(hops, min_size=0, max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_xor_scheme_self_inverse(self, path):
        scheme = XorTagScheme()
        tag = scheme.tag_of_path(path)
        assert scheme.tag_of_path(path + list(reversed(path))) == 0
        assert 0 <= tag <= scheme.tag_mask

    @given(st.binary(max_size=64), st.integers(min_value=0, max_value=(1 << 32) - 1))
    @settings(max_examples=200, deadline=None)
    def test_murmur3_is_32_bit_and_deterministic(self, data, seed):
        a = murmur3_32(data, seed)
        assert 0 <= a < (1 << 32)
        assert a == murmur3_32(data, seed)


class TestMatchBddAgreement:
    @given(matches, headers)
    @settings(max_examples=200, deadline=None)
    def test_to_bdd_agrees_with_matches(self, match, header):
        hs = HeaderSpace()
        pred = match.to_bdd(hs)
        assert hs.contains(pred, header.as_dict()) == match.matches(header)


class TestTransferMapPartition:
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=100),  # priority
                matches,
                st.one_of(
                    st.integers(min_value=1, max_value=4).map(Forward),
                    st.just(Drop()),
                ),
            ),
            min_size=0,
            max_size=6,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_partition(self, rule_specs):
        hs = HeaderSpace()
        topo = Topology()
        info = topo.add_switch("S", num_ports=4)
        for priority, match, action in rule_specs:
            info.flow_table.add(FlowRule(priority, match, action))
        tmap = SwitchPredicates(info, hs).transfer_map(1)
        union = hs.bdd.or_many(tmap.values())
        assert union == hs.all_match
        values = list(tmap.values())
        for i, a in enumerate(values):
            for b in values[i + 1 :]:
                assert hs.bdd.and_(a, b) == hs.empty


class TestWireFormatRoundTrip:
    @given(
        headers,
        st.integers(min_value=0, max_value=(1 << 64) - 1),
        st.booleans(),
        st.integers(min_value=0, max_value=62),
        st.sampled_from([1, 5, 62, DROP_PORT]),
    )
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, header, tag, ttl_expired, in_port, out_port):
        codec = PortCodec(["S1", "S2"])
        report = TagReport(
            inport=PortRef("S1", in_port if in_port > 0 else 1),
            outport=PortRef("S2", out_port),
            header=header,
            tag=tag,
            ttl_expired=ttl_expired,
        )
        assert unpack_report(pack_report(report, codec), codec) == report


class TestIncrementalEquivalence:
    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_random_lpm_sequences_match_rebuild(self, data):
        scenario = build_linear(3, install_routes=False)
        hs = HeaderSpace()
        inc = IncrementalPathTable(scenario.topo, hs)
        live_prefixes = {}  # (switch, prefix) -> True
        n_ops = data.draw(st.integers(min_value=1, max_value=10))
        for _ in range(n_ops):
            switch = data.draw(st.sampled_from(["S1", "S2", "S3"]))
            plen = data.draw(st.sampled_from([8, 16, 24]))
            base = data.draw(st.integers(min_value=0, max_value=3))
            prefix = f"10.{base}.0.0/{plen}" if plen >= 16 else f"{10 + base}.0.0.0/8"
            key = (switch, prefix)
            if key in live_prefixes:
                inc.delete_rule(switch, prefix)
                del live_prefixes[key]
            else:
                port = data.draw(st.integers(min_value=1, max_value=3))
                inc.add_rule(switch, prefix, port)
                live_prefixes[key] = True
        incremental = {
            (i, o, e.hops): e.headers for i, o, e in inc.table.all_entries()
        }
        rebuilt_table = PathTableBuilder(
            scenario.topo, hs, provider=inc.provider
        ).build()
        rebuilt = {
            (i, o, e.hops): e.headers for i, o, e in rebuilt_table.all_entries()
        }
        assert incremental == rebuilt
