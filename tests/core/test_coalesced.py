"""Coalesced incremental updates and the dirty-pair journal.

Three independent ways of reaching a path-table state — per-event
incremental updates, coalesced staged flushes, and a from-scratch rebuild
— must land on semantically identical tables.
``table_fingerprint`` is the oracle: manager-independent, order-blind.
"""

import pytest

from repro.bdd.headerspace import HeaderSpace
from repro.core.incremental import IncrementalPathTable, UpdateFlushStats
from repro.core.pathtable import PathTable, PathTableBuilder
from repro.persist.snapshot import table_fingerprint
from repro.topologies import build_internet2, build_linear, internet2_lpm_ruleset


def base_operations(scenario):
    ruleset = internet2_lpm_ruleset(scenario)
    return [
        ("add", switch, prefix, port)
        for switch, rules in sorted(ruleset.items())
        for prefix, port in rules
    ]


CHURN = [
    # Nested prefixes restructure the SEAT tree; the delete undoes the
    # parent while its child stays, the cross-PoP adds dirty other regions.
    ("add", "SEAT", "10.99.0.0/16", 1),
    ("add", "SEAT", "10.99.1.0/24", 2),
    ("del", "SEAT", "10.99.0.0/16", None),
    ("add", "CHIC", "10.98.0.0/16", 1),
    ("add", "NEWY", "10.97.0.0/16", 1),
    ("del", "SEAT", "10.99.1.0/24", None),
]


def apply_per_event(inc, operations):
    for op, switch, prefix, port in operations:
        if op == "add":
            inc.add_rule(switch, prefix, port)
        else:
            inc.delete_rule(switch, prefix)


def apply_staged(inc, operations):
    for op, switch, prefix, port in operations:
        if op == "add":
            inc.stage_add_rule(switch, prefix, port)
        else:
            inc.stage_delete_rule(switch, prefix)
    return inc.flush_updates()


class TestCoalescedParity:
    @pytest.fixture(scope="class")
    def scenario(self):
        return build_internet2(prefixes_per_pop=1)

    def test_coalesced_equals_per_event_and_rebuild(self, scenario):
        ops = base_operations(scenario)

        hs_event = HeaderSpace()
        per_event = IncrementalPathTable(scenario.topo, hs_event)
        apply_per_event(per_event, ops + CHURN)

        hs_coal = HeaderSpace()
        coalesced = IncrementalPathTable(scenario.topo, hs_coal)
        apply_per_event(coalesced, ops)  # same starting table
        stats = apply_staged(coalesced, CHURN)

        want = table_fingerprint(per_event.table, hs_event.bdd)
        assert table_fingerprint(coalesced.table, hs_coal.bdd) == want

        rebuilt = PathTableBuilder(
            scenario.topo, hs_coal, provider=coalesced.provider
        ).build()
        assert table_fingerprint(rebuilt, hs_coal.bdd) == want

        assert isinstance(stats, UpdateFlushStats)
        assert stats.events == len(CHURN)
        assert stats.dirty_switches >= 3  # SEAT, CHIC, NEWY at least
        assert stats.elapsed_s > 0
        assert coalesced.last_flush is stats
        assert coalesced.pending_updates == 0

    def test_direct_update_autoflushes_staged_events(self, scenario):
        hs = HeaderSpace()
        inc = IncrementalPathTable(scenario.topo, hs)
        apply_per_event(inc, base_operations(scenario))
        inc.stage_add_rule("SEAT", "10.99.0.0/16", 1)
        assert inc.pending_updates == 1
        # A direct (per-event) call must not interleave with staged state:
        # it flushes first, so ordering matches the WAL.
        inc.add_rule("CHIC", "10.98.0.0/16", 1)
        assert inc.pending_updates == 0

        hs2 = HeaderSpace()
        ref = IncrementalPathTable(scenario.topo, hs2)
        apply_per_event(
            ref,
            base_operations(scenario)
            + [("add", "SEAT", "10.99.0.0/16", 1), ("add", "CHIC", "10.98.0.0/16", 1)],
        )
        assert table_fingerprint(inc.table, hs.bdd) == table_fingerprint(
            ref.table, hs2.bdd
        )

    def test_batched_flush_records_each_arrival_once(self, scenario):
        # A batch dirties switches along one path; the extend at the
        # downstream switch must not re-send what the upstream one did.
        hs = HeaderSpace()
        inc = IncrementalPathTable(scenario.topo, hs)
        apply_staged(inc, base_operations(scenario))
        rebuilt = PathTableBuilder(
            scenario.topo, hs, provider=inc.provider, record_reach=True
        )
        rebuilt.build()

        def arrivals(reach_index):
            return sorted(
                (str(r.inport), r.hops) for rs in reach_index.values() for r in rs
            )

        assert arrivals(inc.builder.reach_index) == arrivals(rebuilt.reach_index)

    def test_flush_with_nothing_staged_is_noop(self, scenario):
        inc = IncrementalPathTable(build_linear(3, install_routes=False).topo, HeaderSpace())
        stats = inc.flush_updates()
        assert stats.events == 0


class TestDirtyJournal:
    def test_tokens_and_deltas(self):
        table = PathTable()
        token = table.dirty_token()
        table.note_dirty("a", "b")
        table.note_dirty("a", "b")  # deduped in the delta
        table.note_dirty("c", "d")
        token2, dirty = table.dirty_since(token)
        assert dirty == [("a", "b"), ("c", "d")]
        _, nothing = table.dirty_since(token2)
        assert nothing == []

    def test_overflow_invalidates_tokens(self):
        table = PathTable()
        token = table.dirty_token()
        for i in range(5000):
            table.note_dirty(i, i)
        _, dirty = table.dirty_since(token)
        assert dirty is None  # journal overflowed: consumers must resync fully

    def test_foreign_table_token_never_validates(self):
        table = PathTable()
        token = table.dirty_token()
        other = PathTable()
        _, dirty = other.dirty_since(token)
        assert dirty is None

    def test_untracked_touch_marks_all_dirty(self):
        table = PathTable()
        token = table.dirty_token()
        table.touch()
        _, dirty = table.dirty_since(token)
        assert dirty is None

    def test_tracked_touch_preserves_journal(self):
        table = PathTable()
        token = table.dirty_token()
        table.note_dirty("a", "b")
        table.touch(tracked=True)
        _, dirty = table.dirty_since(token)
        assert dirty == [("a", "b")]
