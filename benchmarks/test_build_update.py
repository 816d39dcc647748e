"""Control-plane fast path gates: update + resync.

Two speedups, each with a BDD-fingerprint parity oracle against the
slow/reference path, land in ``benchmarks/results/BENCH_build.json``:

* **coalesced churn** — staging ``REPRO_BUILD_CHURN`` (default 1000) rule
  events and flushing once vs applying them one-by-one; >=5x, always.
* **delta resync** — recompiling only the dirty pairs of a sharded-daemon
  replica vs a full ``build_shard_specs`` recompile; >=5x, always.

The full build is the serial traversal of Algorithm 2 alone; its times
are the Table 2 bench's (``test_table2_pathtable.py``).

``REPRO_BENCH_PARITY_ONLY=1`` (the CI smoke mode) keeps every parity
assertion and drops the speed gates, so a queued shared runner cannot fail
the build on noise.
"""

import os
import pickle
import time

from repro.bdd.headerspace import HeaderSpace
from repro.core.replica import build_pair_spec, build_shard_specs, replica_digest, _shard_of
from repro.core.incremental import IncrementalPathTable
from repro.core.pathtable import PathTableBuilder
from repro.core.reports import PortCodec
from repro.persist.snapshot import table_fingerprint
from repro.topologies import build_internet2, internet2_lpm_ruleset

from conftest import env_int, print_table, write_json

PARITY_ONLY = os.environ.get("REPRO_BENCH_PARITY_ONLY") == "1"
CHURN_EVENTS = env_int("REPRO_BUILD_CHURN", 200 if PARITY_ONLY else 1000)
RESYNC_WORKERS = 4

_payload = {"parity_only": PARITY_ONLY}


def base_operations(ruleset):
    return [
        (switch, prefix, port)
        for switch, rules in sorted(ruleset.items())
        for prefix, port in rules
    ]


def churn_events(ruleset, count, target=None):
    """``count`` order-safe rule events: fresh adds, then del/re-add pairs.

    With ``target`` every event lands on that one switch — the paper's
    Figure 14 protocol (rules installed one-by-one into the last router);
    without it events cycle across every switch.
    """
    switches = sorted(ruleset)
    adds = count // 2
    events = [
        (
            "add",
            target or switches[i % len(switches)],
            f"172.{16 + i // 250}.{i % 250}.0/24",
            1,
        )
        for i in range(adds)
    ]
    redo = events[: count - adds - (count - adds) // 2]
    events += [("del", switch, prefix, None) for _op, switch, prefix, _p in redo]
    events += [("add", switch, prefix, port) for _op, switch, prefix, port in redo]
    return events[:count]


def populated_updater(scenario, ruleset):
    hs = HeaderSpace()
    inc = IncrementalPathTable(scenario.topo, hs)
    for switch, prefix, port in base_operations(ruleset):
        inc.add_rule(switch, prefix, port)
    return hs, inc


def test_coalesced_churn_speedup_and_parity():
    scenario = build_internet2(prefixes_per_pop=2, install_routes=False)
    ruleset = internet2_lpm_ruleset(scenario)
    events = churn_events(ruleset, CHURN_EVENTS)

    hs_event, per_event = populated_updater(scenario, ruleset)
    started = time.perf_counter()
    for op, switch, prefix, port in events:
        if op == "add":
            per_event.add_rule(switch, prefix, port)
        else:
            per_event.delete_rule(switch, prefix)
    per_event_s = time.perf_counter() - started

    hs_coal, coalesced = populated_updater(scenario, ruleset)
    started = time.perf_counter()
    for op, switch, prefix, port in events:
        if op == "add":
            coalesced.stage_add_rule(switch, prefix, port)
        else:
            coalesced.stage_delete_rule(switch, prefix)
    flush = coalesced.flush_updates()
    coalesced_s = time.perf_counter() - started

    want = table_fingerprint(per_event.table, hs_event.bdd)
    assert table_fingerprint(coalesced.table, hs_coal.bdd) == want
    rebuilt = PathTableBuilder(
        scenario.topo, hs_coal, provider=coalesced.provider
    ).build()
    assert table_fingerprint(rebuilt, hs_coal.bdd) == want

    speedup = per_event_s / coalesced_s
    _payload["coalesced_churn"] = {
        "events": len(events),
        "per_event_s": round(per_event_s, 4),
        "coalesced_s": round(coalesced_s, 4),
        "per_event_ms_per_rule": round(1e3 * per_event_s / len(events), 4),
        "coalesced_ms_per_rule": round(1e3 * coalesced_s / len(events), 4),
        "dirty_switches": flush.dirty_switches,
        "dirty_ports": flush.dirty_ports,
        "speedup": round(speedup, 2),
    }
    print_table(
        f"Coalesced rule churn, Internet2, {len(events)} events",
        ["metric", "value"],
        [
            ("per-event total (s)", f"{per_event_s:.3f}"),
            ("coalesced total (s)", f"{coalesced_s:.3f}"),
            ("dirty switches / ports", f"{flush.dirty_switches} / {flush.dirty_ports}"),
            ("speedup", f"{speedup:.1f}x"),
            ("gate", "parity only" if PARITY_ONLY else ">=5x"),
        ],
        slug="build_coalesced",
    )
    if not PARITY_ONLY:
        assert speedup >= 5.0


def test_delta_resync_speedup_and_parity():
    """Dirty-pair patches vs whole-replica recompile, equally warm.

    Churn follows the paper's Figure 14 protocol — a burst of updates on
    one router — so the dirty region is a small fraction of the table's
    pairs, which is exactly the case the delta path exists for.
    """
    scenario = build_internet2(prefixes_per_pop=3, install_routes=False)
    ruleset = internet2_lpm_ruleset(scenario)
    churn = churn_events(ruleset, 24, target=sorted(ruleset)[-1])

    def churned(inc):
        for op, switch, prefix, port in churn:
            if op == "add":
                inc.add_rule(switch, prefix, port)
            else:
                inc.delete_rule(switch, prefix)

    # Two identical warm states: A measures the delta path, B the full
    # recompile, so neither benefits from the other's matcher cache.
    hs_a, inc_a = populated_updater(scenario, ruleset)
    hs_b, inc_b = populated_updater(scenario, ruleset)
    codec_a = PortCodec(sorted(scenario.topo.switches))
    codec_b = PortCodec(sorted(scenario.topo.switches))
    pre_specs = build_shard_specs(inc_a.table, hs_a, codec_a, RESYNC_WORKERS)
    build_shard_specs(inc_b.table, hs_b, codec_b, RESYNC_WORKERS)
    token = inc_a.table.dirty_token()
    churned(inc_a)
    churned(inc_b)

    # Delta path, as resync_replicas() runs it: journal -> per-pair specs
    # -> pickled patch messages.
    started = time.perf_counter()
    _token, dirty = inc_a.table.dirty_since(token)
    assert dirty is not None, "journal overflowed; enlarge the cap or shrink churn"
    patches = [{} for _ in range(RESYNC_WORKERS)]
    for inport, outport in dirty:
        in_wire = codec_a.encode(inport)
        out_wire = codec_a.encode(outport)
        shard = _shard_of((in_wire << 16) | out_wire, RESYNC_WORKERS)
        patches[shard][(in_wire, out_wire)] = build_pair_spec(
            inc_a.table, hs_a, inport, outport
        )
    delta_bytes = sum(len(pickle.dumps(p)) for p in patches if p)
    delta_s = time.perf_counter() - started

    # Full path, as the pre-delta resync ran it: any version bump threw the
    # whole pair-index cache away (reproduced here by an untracked touch),
    # then every pair's replica spec was rebuilt and shipped.
    inc_b.table.touch()
    started = time.perf_counter()
    full_specs = build_shard_specs(inc_b.table, hs_b, codec_b, RESYNC_WORKERS)
    full_bytes = sum(len(pickle.dumps(s)) for s in full_specs)
    full_s = time.perf_counter() - started

    # Parity: applying the patches to the pre-churn replicas must land on
    # the same digests as the full recompile (what the workers do live).
    for shard in range(RESYNC_WORKERS):
        replica = dict(pre_specs[shard])
        for key, spec in patches[shard].items():
            if spec is None:
                replica.pop(key, None)
            else:
                replica[key] = spec
        assert replica_digest(replica) == replica_digest(full_specs[shard])

    speedup = full_s / delta_s
    _payload["delta_resync"] = {
        "churn_events": len(churn),
        "pairs_total": len(inc_b.table.pairs()),
        "pairs_patched": len(dirty),
        "full_s": round(full_s, 4),
        "delta_s": round(delta_s, 4),
        "full_bytes": full_bytes,
        "delta_bytes": delta_bytes,
        "speedup": round(speedup, 2),
    }
    print_table(
        "Sharded-replica resync: dirty-pair delta vs full recompile",
        ["metric", "value"],
        [
            ("pairs (total / patched)", f"{len(inc_b.table.pairs())} / {len(dirty)}"),
            ("full recompile (s)", f"{full_s:.4f}"),
            ("delta patch (s)", f"{delta_s:.4f}"),
            ("bytes (full / delta)", f"{full_bytes} / {delta_bytes}"),
            ("speedup", f"{speedup:.1f}x"),
            ("gate", "parity only" if PARITY_ONLY else ">=5x"),
        ],
        slug="build_resync",
    )
    if not PARITY_ONLY:
        assert speedup >= 5.0


def test_zzz_write_results():
    """Runs last (name-ordered within the file): persist BENCH_build.json."""
    assert "coalesced_churn" in _payload and "delta_resync" in _payload
    path = write_json("BENCH_build", _payload)
    assert os.path.exists(path)
