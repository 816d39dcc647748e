"""The per-ingress-class slice cache in ``SwitchPredicates`` is invisible.

``transfer_actions`` used to re-expand the whole flow table for every
in-port; it now expands once per ingress class.  One long-lived instance
must answer exactly as a fresh one does, for every port, in any call order,
and the build must not create a single extra BDD node.
"""

from hypothesis import given, settings, strategies as st

from repro.bdd.headerspace import HeaderSpace
from repro.core import VeriDPServer
from repro.netmodel.predicates import SwitchPredicates
from repro.netmodel.rules import (
    Acl,
    AclEntry,
    Drop,
    FlowRule,
    Forward,
    GotoTable,
    Match,
    Rewrite,
)
from repro.netmodel.topology import SwitchInfo
from repro.topologies import build_stanford

PORTS = (1, 2, 3, 4)
DST_PREFIXES = ("10.0.0.0/8", "10.1.0.0/16", "10.1.2.0/24", "10.2.0.0/16")
SETS = (("dst_port", 8080), ("dst_port", 22), ("proto", 17))



def _sets(min_size):
    return st.lists(st.sampled_from(SETS), min_size=min_size, max_size=2).map(tuple)



@st.composite
def matches(draw, allow_in_port):
    return Match.build(
        dst=draw(st.one_of(st.none(), st.sampled_from(DST_PREFIXES))),
        dst_port=draw(st.one_of(st.none(), st.sampled_from((22, 80, 8080)))),
        proto=draw(st.one_of(st.none(), st.sampled_from((6, 17)))),
        in_port=(
            draw(st.one_of(st.none(), st.sampled_from(PORTS)))
            if allow_in_port
            else None
        ),
    )


@st.composite
def rules(draw, allow_in_port):
    table_id = draw(st.integers(0, 2))
    # Port 9 does not exist on the switch: output there resolves to a drop.
    out = draw(st.sampled_from(PORTS + (9,)))
    choices = [st.just(Forward(out)), st.just(Drop())]
    choices.append(_sets(1).map(lambda sets: Rewrite(sets, out)))
    if table_id < 2:
        later = st.integers(table_id + 1, 2)
        choices.append(st.builds(GotoTable, later, _sets(0)))
    return FlowRule(
        draw(st.integers(1, 40)),
        draw(matches(allow_in_port)),
        draw(st.one_of(*choices)),
        table_id=table_id,
    )


@st.composite
def switches(draw):
    allow_in_port = draw(st.booleans())
    info = SwitchInfo("S")
    info.ports.update(PORTS)
    for rule in draw(st.lists(rules(allow_in_port), max_size=10)):
        info.flow_table.add(rule)
    if draw(st.booleans()):
        info.out_acl[2] = Acl([AclEntry(Match.build(dst_port=22), permit=False)])
    if draw(st.booleans()):
        info.in_acl[1] = Acl([AclEntry(Match.build(dst="10.1.2.0/24"), permit=False)])
    return info


@settings(max_examples=120, deadline=None)
@given(
    info=switches(),
    calls=st.lists(
        st.tuples(st.sampled_from(("actions", "fwd")), st.sampled_from(PORTS)),
        min_size=len(PORTS),
        max_size=12,
    ),
)
def test_long_lived_instance_equals_fresh_instance(info, calls):
    hs = HeaderSpace()
    long_lived = SwitchPredicates(info, hs)
    # Every port is asked at least once, the rest in drawn order.
    for kind, port in [("actions", p) for p in PORTS] + calls:
        fresh = SwitchPredicates(info, hs)
        if kind == "actions":
            assert long_lived.transfer_actions(port) == fresh.transfer_actions(port)
        else:
            assert long_lived.forwarding_predicates(port) == (
                fresh.forwarding_predicates(port)
            )


def test_stanford_build_creates_no_extra_bdd_nodes():
    """The exact work of the Stanford x2 server build, pinned.

    The uncached build (30afa45) made 15019 nodes for 1264 entries; the
    per-connective apply, which never builds ``NOT g`` for a difference,
    makes 13901, with 27905 operation-memo misses.
    """
    scenario = build_stanford(subnets_per_zone=2)
    server = VeriDPServer(scenario.topo, scenario.channel)
    assert server.table.num_paths() == 1264
    assert server.hs.bdd.num_nodes() == 13901
    assert server.hs.bdd.cache_counters()["misses"] == 27905
