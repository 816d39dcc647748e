"""Representative-header derivation: correctness and minimality."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.bdd.headerspace import HeaderSpace
from repro.core.vector import witness_cube
from repro.netmodel.packet import Header
from repro.probe.headers import (
    DerivationStats,
    plan_pair,
    plan_table,
    representative_header,
    representative_value,
)
from repro.topologies import build_fattree, build_linear


def prefixes():
    return st.tuples(
        st.integers(min_value=0, max_value=(1 << 32) - 1),
        st.integers(min_value=0, max_value=32),
    ).map(
        lambda vp: (
            vp[0] & (((1 << vp[1]) - 1) << (32 - vp[1]) if vp[1] else 0),
            vp[1],
        )
    )


@st.composite
def header_sets(draw):
    """A non-trivial header set: union of a few dst/src prefix slices."""
    hs = HeaderSpace()
    terms = draw(
        st.lists(
            st.tuples(st.sampled_from(["dst_ip", "src_ip"]), prefixes()),
            min_size=1,
            max_size=4,
        )
    )
    acc = hs.empty
    for field_name, (value, plen) in terms:
        acc = hs.bdd.or_(acc, hs.prefix(field_name, value, plen))
    return hs, acc


@settings(max_examples=60, deadline=None)
@given(header_sets())
def test_representative_value_satisfies_set(hs_and_set):
    hs, header_set = hs_and_set
    value = representative_value(hs, header_set)
    assert value is not None
    header = hs.header_from_value(value)
    assert hs.contains(header_set, header)
    # The packed value round-trips through field unpacking.
    assert hs.header_value(header) == value


@settings(max_examples=60, deadline=None)
@given(header_sets())
def test_descent_tier_also_satisfies(hs_and_set):
    """cap=0 forces the greedy-descent fallback; same contract."""
    hs, header_set = hs_and_set
    stats = DerivationStats()
    value = representative_value(hs, header_set, cap=0, stats=stats)
    assert value is not None
    assert stats.descent_tier == 1 and stats.cube_tier == 0
    assert hs.contains(header_set, hs.header_from_value(value))


@settings(max_examples=60, deadline=None)
@given(header_sets())
def test_witness_cube_want_is_satisfying(hs_and_set):
    hs, header_set = hs_and_set
    cube = witness_cube(hs.bdd.pool([header_set]), 0)
    assert cube is not None
    mask, want = cube
    assert want & ~mask == 0  # don't-cares zero-filled
    assert hs.contains(header_set, hs.header_from_value(want))


def test_empty_set_has_no_witness():
    hs = HeaderSpace()
    stats = DerivationStats()
    assert representative_value(hs, hs.empty, stats=stats) is None
    assert representative_header(hs, hs.empty) is None
    assert stats.empty == 1
    assert witness_cube(hs.bdd.pool([hs.empty]), 0) is None


def test_derivation_is_deterministic():
    hs = HeaderSpace()
    s = hs.bdd.or_(
        hs.prefix("dst_ip", 10 << 24, 8), hs.prefix("src_ip", 172 << 24, 12)
    )
    assert representative_value(hs, s) == representative_value(hs, s)


@pytest.mark.parametrize("scenario_factory", [build_linear, build_fattree])
def test_plan_pair_minimal_and_entry_matched(scenario_factory):
    """One probe per entry; per-pair entries are disjoint, so that set is
    minimal — any smaller set must leave some entry unexercised."""
    scenario = scenario_factory(4)
    from repro.core.pathtable import PathTableBuilder

    hs = HeaderSpace()
    builder = PathTableBuilder(scenario.topo, hs)
    table = builder.build()
    checked_pairs = 0
    for inport, outport in table.pairs():
        entries = table.lookup(inport, outport)
        probes = plan_pair(table, hs, inport, outport)
        # Minimality: exactly one probe per (non-empty) entry.
        assert len(probes) == len(entries)
        checked_pairs += 1
        seen_entries = set()
        for probe in probes:
            header = {
                "src_ip": probe.header.src_ip,
                "dst_ip": probe.header.dst_ip,
                "proto": probe.header.proto,
                "src_port": probe.header.src_port,
                "dst_port": probe.header.dst_port,
            }
            # Each witness satisfies its own entry...
            assert hs.contains(probe.entry.headers, header)
            # ...and no other entry of the pair (disjointness / brute
            # force: the witness pins exactly one entry, so dropping any
            # probe leaves its entry unexercisable by the others).
            for other in entries:
                if other is not probe.entry:
                    assert not hs.contains(other.headers, header)
            seen_entries.add(id(probe.entry))
        assert len(seen_entries) == len(entries)
    assert checked_pairs > 0


def test_plan_table_covers_every_pair():
    scenario = build_linear(3)
    from repro.core.pathtable import PathTableBuilder

    hs = HeaderSpace()
    table = PathTableBuilder(scenario.topo, hs).build()
    stats = DerivationStats()
    plans = plan_table(table, hs, stats=stats)
    assert set(plans) == set(table.pairs())
    total_entries = sum(len(table.lookup(i, o)) for i, o in table.pairs())
    assert sum(len(v) for v in plans.values()) == total_entries
    assert stats.derived == total_entries and stats.empty == 0


def test_planned_headers_are_header_instances():
    scenario = build_linear(3)
    from repro.core.pathtable import PathTableBuilder

    hs = HeaderSpace()
    table = PathTableBuilder(scenario.topo, hs).build()
    pair = table.pairs()[0]
    for probe in plan_pair(table, hs, pair[0], pair[1]):
        assert isinstance(probe.header, Header)
