"""One match path: the replica's scalar matcher is Algorithm 3.

The wire kernel is pinned to the replica's scalar ``_verify_wire``
(``check_vector_wire_parity``, ``tests/core/test_vector.py``), and
``_verify_wire`` runs the same ``match_pair`` the fast ``Verifier`` runs.
Here ``_verify_wire`` is pinned to the paper-literal list-order scan,
``Verifier(fast_path=False)``, on every payload of the tampered wire set:
that closes the chain kernel == shared matcher == Algorithm 3.  Figure 5
has disjoint pairs only; a source NAT on a ring gives a pair whose two
entries carry different tags and have overlapping exit-header sets, so
list order decides between PASS and a tag mismatch.
"""

import pytest

from repro.analysis.timing import wire_payloads_from_table
from repro.bdd.headerspace import HeaderSpace
from repro.core.pathtable import PathTableBuilder
from repro.core.replica import _verify_wire, build_shard_specs, wire_packing
from repro.core.reports import unpack_report
from repro.core.verifier import Verifier
from repro.netmodel.rules import FlowRule, Forward, Match, Rewrite
from repro.topologies import build_figure5
from repro.topologies.generators import build_ring


def _nat_ring():
    """Ring of four: H1's traffic to H3 goes S1-S4-S3, but sources in
    10.9.0.0/16 go S1-S2-S3 and S2 rewrites their source address to
    0.0.0.0.  Both paths of the pair (S1:1, S3:1) then admit a packet from
    0.0.0.0 to H3, and the rewriting path comes first in the table."""
    scenario = build_ring(4)
    match = Match.build(src="10.9.0.0/16", dst=scenario.subnets["H3"])
    ctrl = scenario.controller
    ctrl.install("S1", FlowRule(300, match, Forward(2)))
    ctrl.install("S2", FlowRule(300, match, Rewrite((("src_ip", 0),), 2)))
    return scenario


@pytest.mark.parametrize(
    "build, overlapping",
    [(build_figure5, False), (_nat_ring, True)],
    ids=["figure5", "nat_ring"],
)
def test_wire_matcher_agrees_with_algorithm_3(build, overlapping):
    scenario = build()
    hs = HeaderSpace()
    builder = PathTableBuilder(scenario.topo, hs)
    table = builder.build()
    specs = [table.fast_index(*key, hs).spec for key in table.pairs()]
    # A pair that is not disjoint and whose entries differ in tag.
    ordered = [tags for tags, _, _, disjoint in specs if not disjoint]
    assert any(len(set(tags)) > 1 for tags in ordered) == overlapping
    payloads, codec = wire_payloads_from_table(builder, table, tamper=True)
    pairs = build_shard_specs(table, hs, codec, 1)[0]
    packing = wire_packing(hs.layout)
    oracle = Verifier(table, hs, fast_path=False)
    verdicts = set()
    for payload in payloads:
        expected = oracle.verify(unpack_report(payload, codec)).verdict.value
        assert _verify_wire(pairs, packing, payload) == expected, payload.hex()
        verdicts.add(expected)
    assert {"pass", "fail-tag-mismatch", "fail-no-path"} <= verdicts
