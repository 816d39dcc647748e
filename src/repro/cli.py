"""Command-line interface: run any paper experiment from the shell.

Usage::

    python -m repro table2
    python -m repro fig12 --trials 500 --topo ft4
    python -m repro table3 --trials 5
    python -m repro fig13 --repeats 10
    python -m repro fig14
    python -m repro table4
    python -m repro fig6
    python -m repro functest
    python -m repro demo
    python -m repro tradeoff --intervals 0.5 1 2
    python -m repro paths --topo ft4
    python -m repro probe --topo ft4 --passive 0.1 --max-probes 500
    python -m repro probe --topo ft4 --fuzz 12 --seed 0
    python -m repro report
    python -m repro serve --topo ft4 --metrics-port 9090
    python -m repro serve --topo ft4 --state-dir state/ --reports 100
    python -m repro replay state/ --stop-seq 500

Each subcommand builds its scenario, runs the matching harness from
:mod:`repro.analysis`, and prints the table/series the paper reports
(``report`` collates the tables persisted by a benchmark run).
"""

from __future__ import annotations

import argparse
import random
import sys
from typing import Callable, Dict, List, Sequence

__all__ = ["main", "render_table"]


def render_table(title: str, headers: Sequence[str], rows: List[Sequence]) -> str:
    """Aligned text table with a banner (the CLI's output format)."""
    if rows:
        widths = [
            max(len(str(headers[i])), *(len(str(r[i])) for r in rows))
            for i in range(len(headers))
        ]
    else:
        widths = [len(str(h)) for h in headers]
    lines = [
        "=" * 72,
        title,
        "=" * 72,
        "  ".join(str(h).ljust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    lines += ["  ".join(str(c).ljust(w) for c, w in zip(r, widths)) for r in rows]
    return "\n".join(lines)


def _scenario_factories():
    from .topologies import build_fattree, build_internet2, build_stanford

    return {
        "stanford": lambda args: build_stanford(subnets_per_zone=args.scale),
        "internet2": lambda args: build_internet2(prefixes_per_pop=args.scale),
        "ft4": lambda args: build_fattree(4),
        "ft6": lambda args: build_fattree(6),
    }


def _scenario_for_topo_name(name: str, args: argparse.Namespace):
    """Rebuild the scenario a state directory's ``meta.json`` names.

    Replay needs the same topology *structure* (switches, ports, links) the
    recorded server ran on; the flow tables themselves are replayed from
    the WAL.  Scaled topologies (stanford/internet2) additionally need the
    same ``--scale`` the recording run used.
    """
    import re

    from .topologies import build_fattree, build_internet2, build_stanford
    from .topologies.generators import build_grid, build_linear, build_ring

    if name == "stanford":
        return build_stanford(subnets_per_zone=args.scale)
    if name == "internet2":
        return build_internet2(prefixes_per_pop=args.scale)
    if m := re.fullmatch(r"fattree-(\d+)", name):
        return build_fattree(int(m.group(1)))
    if m := re.fullmatch(r"linear-(\d+)", name):
        return build_linear(int(m.group(1)))
    if m := re.fullmatch(r"ring-(\d+)", name):
        return build_ring(int(m.group(1)))
    if m := re.fullmatch(r"grid-(\d+)x(\d+)", name):
        return build_grid(int(m.group(1)), int(m.group(2)))
    raise SystemExit(
        f"cannot rebuild topology {name!r} from its name; "
        f"replay supports stanford, internet2, fattree-K, linear-N, "
        f"ring-N and grid-WxH state directories"
    )


# -- subcommands --------------------------------------------------------


def cmd_table2(args: argparse.Namespace) -> int:
    from .analysis import build_and_measure

    rows = []
    for name, factory in _scenario_factories().items():
        row = build_and_measure(factory(args), name)
        s = row.stats
        rows.append(
            (name, s.num_pairs, s.num_paths,
             f"{s.avg_path_length:.2f}", f"{s.build_time_s:.3f}")
        )
    print(render_table(
        "Table 2: path table statistics",
        ["setup", "entries", "paths", "avg len", "time (s)"],
        rows,
    ))
    return 0


def cmd_fig6(args: argparse.Namespace) -> int:
    from .analysis import build_and_measure, distribution_cdf, path_count_distribution

    rows = []
    for name in ("stanford", "internet2"):
        row = build_and_measure(_scenario_factories()[name](args), name)
        dist = path_count_distribution(row.table)
        for k, frac in distribution_cdf(dist):
            rows.append((name, k, dist[k], f"{100 * frac:.1f}%"))
    print(render_table(
        "Figure 6: paths per (inport, outport) pair",
        ["setup", "#paths/pair", "#pairs", "CDF"],
        rows,
    ))
    return 0


def cmd_fig12(args: argparse.Namespace) -> int:
    from .analysis import build_and_measure, sweep_fnr_over_bits

    row = build_and_measure(_scenario_factories()[args.topo](args), args.topo)
    results = sweep_fnr_over_bits(
        row.builder, row.table,
        bit_widths=tuple(args.bits), trials=args.trials, seed=args.seed,
    )
    print(render_table(
        f"Figure 12 ({args.topo}): false negative rate vs Bloom size",
        ["bits", "n", "n1", "n2", "abs FNR", "rel FNR"],
        [
            (r.bits, r.trials, r.arrived, r.missed,
             f"{100 * r.absolute_fnr:.2f}%", f"{100 * r.relative_fnr:.2f}%")
            for r in results
        ],
    ))
    return 0


def cmd_table3(args: argparse.Namespace) -> int:
    from .analysis import run_localization_campaign
    from .topologies import build_fattree

    rows = []
    for k in (4, 6):
        result = run_localization_campaign(
            build_fattree(k), trials=args.trials, seed=args.seed,
            label=f"FT(k={k})",
        )
        rows.append(
            (result.label, result.failed_verifications, result.recovered_paths,
             f"{100 * result.localization_probability:.1f}%",
             f"{100 * result.blame_accuracy:.1f}%")
        )
    print(render_table(
        "Table 3: fault localization",
        ["setup", "# failed", "# recovered", "loc. prob", "blame acc"],
        rows,
    ))
    return 0


def cmd_fig13(args: argparse.Namespace) -> int:
    from .analysis import build_and_measure, measure_verification_time

    rows = []
    for name in ("stanford", "internet2"):
        row = build_and_measure(_scenario_factories()[name](args), name)
        timing = measure_verification_time(
            row.builder, row.table, name, repeats=args.repeats
        )
        rows.append(
            (name, timing.reports, f"{timing.mean_us:.2f}",
             f"{timing.median_us:.2f}", f"{timing.throughput_per_s:,.0f}")
        )
    print(render_table(
        "Figure 13: verification time per tag report",
        ["setup", "reports", "mean us", "median us", "verifs/s"],
        rows,
    ))
    return 0


def cmd_fig14(args: argparse.Namespace) -> int:
    import statistics

    from .analysis import measure_update_times
    from .topologies import build_internet2, internet2_lpm_ruleset

    scenario = build_internet2(prefixes_per_pop=args.scale, install_routes=False)
    ruleset = internet2_lpm_ruleset(scenario)
    timing, _ = measure_update_times(scenario, ruleset, "NEWY")
    print(render_table(
        "Figure 14: incremental path-table update time (Internet2, NEWY)",
        ["metric", "value"],
        [
            ("rules", len(timing.times_ms)),
            ("mean (ms)", f"{timing.mean_ms:.3f}"),
            ("median (ms)", f"{statistics.median(timing.times_ms):.3f}"),
            ("max (ms)", f"{timing.max_ms:.3f}"),
            ("% under 10 ms", f"{100 * timing.fraction_under(10):.1f}%"),
        ],
    ))
    return 0


def cmd_table4(args: argparse.Namespace) -> int:
    from .dataplane import HardwarePipelineModel, PAPER_PACKET_SIZES

    model = HardwarePipelineModel()
    rows_by_metric = model.table4_rows(PAPER_PACKET_SIZES)
    print(render_table(
        "Table 4: data-plane processing delay (cycle model @125 MHz)",
        ["metric", *PAPER_PACKET_SIZES],
        [(metric, *values) for metric, values in rows_by_metric.items()],
    ))
    return 0


def cmd_tradeoff(args: argparse.Namespace) -> int:
    from .analysis import sweep_sampling_intervals
    from .topologies import build_fattree

    results = sweep_sampling_intervals(
        lambda: build_fattree(4),
        intervals=args.intervals,
        trials=args.trials,
        seed=args.seed,
    )
    print(render_table(
        "Section 4.5 trade-off: detection latency vs sampling overhead",
        ["T_s (s)", "mean lat (s)", "max lat (s)", "bound (s)", "sampled", "missed"],
        [
            (
                f"{r.sampling_interval:.2f}",
                f"{r.mean_latency:.2f}",
                f"{r.max_latency:.2f}",
                f"{r.theoretical_bound:.2f}",
                f"{100 * r.sampling_rate:.1f}%",
                r.undetected,
            )
            for r in results
        ],
    ))
    return 0


def cmd_paths(args: argparse.Namespace) -> int:
    from .bdd.headerspace import HeaderSpace
    from .core.pathtable import PathTableBuilder

    scenario = _scenario_factories()[args.topo](args)
    hs = HeaderSpace()
    table = PathTableBuilder(scenario.topo, hs).build()
    print(table.dump(hs, limit=args.limit))
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """Collate every persisted bench table into one document."""
    import glob
    import os

    results_dir = os.path.join("benchmarks", "results")
    files = sorted(glob.glob(os.path.join(results_dir, "*.txt")))
    if not files:
        print(
            f"no results in {results_dir}/ — run "
            "`pytest benchmarks/ --benchmark-only` first"
        )
        return 1
    print(f"# Reproduction results ({len(files)} tables)\n")
    for path in files:
        with open(path) as handle:
            print(handle.read())
    return 0


def cmd_functest(args: argparse.Namespace) -> int:
    # The Section 6.2 walk-through lives in the examples; run it in-process.
    sys.path.insert(0, "examples")
    import importlib

    module = importlib.import_module("function_tests")
    module.main()
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run a live VeriDP daemon: UDP report ingestion + monitoring endpoint.

    With ``--reports N`` the command also self-drives N sampled reports
    from the topology's own data plane through the UDP socket — a built-in
    smoke mode that exercises the full ingestion path and then prints the
    consolidated statistics.  ``--duration S`` keeps serving S more
    seconds; with neither flag it serves until interrupted.
    """
    import time as _time

    from .core import VeriDPServer
    from .core.direct import VeriDPDaemon
    from .core.listener import UdpReportListener

    scenario = _scenario_factories()[args.topo](args)
    server = VeriDPServer(
        scenario.topo,
        scenario.channel,
        state_dir=args.state_dir,
        fsync=args.fsync,
        coalesce_ms=args.coalesce_ms,
    )
    if args.state_dir is not None:
        print(
            f"durable state in {args.state_dir} "
            f"(booted from {server.boot_source}, "
            f"state version {server.state_version}, fsync={args.fsync})"
        )
    if args.slices is not None:
        from .slice import SliceRegistry

        try:
            registry = SliceRegistry.load(args.slices, server.hs, scenario.topo)
        except (KeyError, ValueError, OSError) as exc:
            raise SystemExit(f"bad slice config {args.slices}: {exc}")
        incidents = server.set_slices(registry)
        print(
            f"slices: {len(registry.tenants)} tenants "
            f"({', '.join(sorted(registry.tenants))}); initial isolation "
            f"check: {len(incidents)} incidents"
        )
        for incident in incidents:
            print(f"  {incident}")
    if args.cluster > 0:
        return _serve_cluster(args, scenario, server)
    if args.mode == "sharded":
        from .core.sharded import ShardedVeriDPDaemon

        daemon = ShardedVeriDPDaemon(
            server,
            workers=args.workers,
            metrics_port=args.metrics_port,
            metrics_host=args.metrics_host,
        )
    else:
        daemon = VeriDPDaemon(
            server,
            workers=args.workers,
            metrics_port=args.metrics_port,
            metrics_host=args.metrics_host,
        )
    daemon.start()
    listener = UdpReportListener(
        daemon,
        host=args.host,
        port=args.port,
        ingest_batch=args.ingest_batch,
    )
    listener.start()
    print(f"listening for tag reports on udp://{listener.address[0]}:{listener.address[1]}")
    if daemon.metrics_address is not None:
        host, port = daemon.metrics_address
        print(f"monitoring endpoint on http://{host}:{port}  (/metrics /healthz /varz)")
    try:
        if args.reports > 0:
            sent = _self_drive(scenario, listener, args.reports)
            daemon.join()
            print(f"self-drive: sent {sent} reports from {args.reports} packets")
        if args.duration is not None:
            _time.sleep(args.duration)
        elif args.reports == 0:
            while True:  # serve until interrupted
                _time.sleep(1.0)
    except KeyboardInterrupt:
        pass
    finally:
        listener.stop()
        daemon.join()
        stats = daemon.stats()
        daemon.stop()
        server.close()
    rows = [(key, stats[key]) for key in sorted(stats)]
    rows += [(f"udp_{k}", v) for k, v in sorted(listener.stats().items())]
    print(render_table(f"serve ({args.mode}) statistics", ["metric", "value"], rows))
    return 0


def _self_drive(scenario, listener, packets: int) -> int:
    """Send ``packets`` sampled packets' reports from the topology's own
    data plane to ``listener``'s socket, then wait up to 10 s until the
    listener received them all.  Returns the reports sent."""
    import socket as _socket
    import time as _time

    from .core.reports import pack_report
    from .dataplane import DataPlaneNetwork

    net = DataPlaneNetwork(scenario.topo, scenario.channel)
    pairs = scenario.host_pairs()
    sent = 0
    client = _socket.socket(_socket.AF_INET, _socket.SOCK_DGRAM)
    try:
        for i in range(packets):
            src, dst = pairs[i % len(pairs)]
            result = net.inject_from_host(src, scenario.header_between(src, dst))
            for report in result.reports:
                client.sendto(pack_report(report, net.codec), listener.address)
                sent += 1
    finally:
        client.close()
    deadline = _time.monotonic() + 10.0
    while listener.received < sent and _time.monotonic() < deadline:
        _time.sleep(0.02)
    return sent


def _serve_cluster(args: argparse.Namespace, scenario, server) -> int:
    """The ``serve --cluster N`` path: frontend + N nodes + coordinator."""
    import time as _time

    from .cluster import VeriDPCluster

    cluster = VeriDPCluster(
        server,
        nodes=args.cluster,
        node_mode=args.cluster_mode,
        batch_size=args.batch_size,
        ingest_batch=args.ingest_batch,
    )
    endpoint = None
    try:
        cluster.start()
        address = cluster.listen_udp(args.host, args.port)
        print(
            f"cluster: {args.cluster} {args.cluster_mode} nodes, "
            f"reports on udp://{address[0]}:{address[1]}"
        )
        if args.metrics_port is not None:
            endpoint = cluster.metrics_endpoint(
                host=args.metrics_host, port=args.metrics_port
            )
            endpoint.start()
            host, port = endpoint.address
            print(f"aggregated metrics on http://{host}:{port}/metrics")
        if args.reports > 0:
            sent = _self_drive(scenario, cluster.ingest, args.reports)
            cluster.join()
            print(f"self-drive: sent {sent} reports from {args.reports} packets")
        if args.duration is not None or args.reports == 0:
            # Serve until interrupted, or for --duration seconds: fail over
            # dead nodes, resync the replicas and dispatch the partial
            # batches once a second either way.
            deadline = None
            if args.duration is not None:
                deadline = _time.monotonic() + args.duration
            while True:
                cluster.check_nodes()
                cluster.resync()
                cluster.flush()
                left = 1.0 if deadline is None else deadline - _time.monotonic()
                if left <= 0:
                    break
                _time.sleep(min(1.0, left))
    except KeyboardInterrupt:
        pass
    finally:
        try:
            cluster.join()
        except TimeoutError:
            pass
        stats = cluster.stats()
        if endpoint is not None:
            endpoint.stop()
        cluster.stop()
        server.close()
    rows = []
    for key in sorted(stats):
        value = stats[key]
        if isinstance(value, dict):
            rows += [(f"{key}.{k}", v) for k, v in sorted(value.items())]
        else:
            rows.append((key, value))
    if cluster.ingest is not None:
        rows += [(f"udp_{k}", v) for k, v in sorted(cluster.ingest.stats().items())]
    print(render_table("serve (cluster) statistics", ["metric", "value"], rows))
    return 0


def cmd_cluster(args: argparse.Namespace) -> int:
    """Self-driving cluster demo: stream reports through N nodes with one
    mid-stream node kill + failover and one join + rebalance, then print
    the reconciled ledger — the ISSUE 9 acceptance scenario as a command.
    """
    from .cluster import VeriDPCluster
    from .core import VeriDPServer
    from .core.reports import pack_report
    from .dataplane import DataPlaneNetwork
    from .topologies.generators import build_linear

    factories = _scenario_factories()
    factories["linear"] = lambda args: build_linear(4)
    scenario = factories[args.topo](args)
    server = VeriDPServer(scenario.topo, scenario.channel)
    net = DataPlaneNetwork(scenario.topo, scenario.channel)
    pairs = scenario.host_pairs()
    payloads = []
    for src, dst in pairs:
        result = net.inject_from_host(src, scenario.header_between(src, dst))
        payloads += [pack_report(r, net.codec) for r in result.reports]
    while len(payloads) < args.reports:
        payloads += payloads
    payloads = payloads[: args.reports]

    with VeriDPCluster(
        server,
        nodes=args.nodes,
        node_mode=args.node_mode,
        batch_size=args.batch_size,
    ) as cluster:
        third = max(1, len(payloads) // 3)
        for i, payload in enumerate(payloads):
            cluster.submit(payload)
            if args.churn and i == third:
                victim = cluster.nodes()[0]
                cluster.kill_node(victim)
                print(f"killed {victim} mid-stream")
            if args.churn and i == 2 * third:
                dead = cluster.check_nodes()
                if dead:
                    print(f"failover: {', '.join(dead)} "
                          f"({cluster.coordinator.redelivered} redelivered)")
                joined = cluster.add_node()
                print(f"joined {joined} mid-stream (rebalanced "
                      f"{cluster.coordinator.moved_pairs} pairs total)")
        cluster.check_nodes()
        cluster.join()
        stats = cluster.stats()
        converged = cluster.converged()

    rows = [
        ("nodes", stats["nodes"]),
        ("submitted", stats["frontend"]["submitted"]),
        ("processed", stats["processed"]),
        ("malformed", stats["malformed"]),
        ("failovers", stats["failovers"]),
        ("redelivered", stats["redelivered"]),
        ("rebalances", stats["rebalances"]),
        ("moved_pairs", stats["moved_pairs"]),
        ("unknown_reingested", stats["unknown_reingested"]),
        ("replicas_converged", converged),
    ]
    rows += [(f"verdict[{k}]", v) for k, v in sorted(stats["counters"].items())]
    rows += [(f"tenant[{k}]", int(v)) for k, v in sorted(stats["tenants"].items())]
    print(render_table(
        f"cluster ({args.topo}, {args.nodes} {args.node_mode} nodes)",
        ["metric", "value"],
        rows,
    ))
    ok = (
        stats["processed"] + stats["malformed"]
        == stats["frontend"]["submitted"] - stats["frontend"]["precheck_rejected"]
        and converged
    )
    print("ledger reconciled" if ok else "LEDGER MISMATCH")
    return 0 if ok else 1


def cmd_replay(args: argparse.Namespace) -> int:
    """Deterministically re-verify a recorded report stream offline.

    Opens the state directory read-only, rebuilds the path table from the
    WAL (or the oldest covering snapshot when the log was pruned), and
    re-feeds every logged report through a fresh verification pipeline.
    ``--start-seq``/``--stop-seq`` window the verified reports, so the
    first bad report can be found by bisection on WAL sequence numbers.
    """
    from .persist import PersistentState
    from .persist.replay import replay as run_replay

    state = PersistentState(args.state_dir, read_only=True)
    try:
        meta = state.read_meta()
        if meta is None:
            print(f"{args.state_dir}: no meta.json — not a VeriDP state directory")
            return 1
        scenario = _scenario_for_topo_name(meta["topo"], args)
        result = run_replay(
            state,
            scenario.topo,
            start_seq=args.start_seq,
            stop_seq=args.stop_seq,
            localize=not args.no_localize,
        )
    finally:
        state.close()
    print(result.summary())
    rows = [
        (
            inc.seq,
            inc.verification.verdict.value,
            str(inc.verification.report.inport),
            str(inc.verification.report.outport),
            ", ".join(inc.localization.blamed_switches())
            if inc.localization is not None
            else "-",
        )
        for inc in result.incidents[: args.limit]
    ]
    print(render_table(
        f"replayed incidents ({meta['topo']}, "
        f"showing {len(rows)}/{len(result.incidents)})",
        ["wal seq", "verdict", "inport", "outport", "blamed"],
        rows,
    ))
    if result.first_failure_seq is not None:
        print(f"first failure at WAL seq {result.first_failure_seq}")
    return 0


def cmd_probe(args: argparse.Namespace) -> int:
    from .probe import ActiveProber, ProbeBudget

    budget = ProbeBudget(
        max_probes=args.max_probes,
        max_seconds=args.max_seconds,
        rate_per_s=args.rate,
    )

    if args.fuzz:
        from .probe import run_state_fuzz
        from .topologies import (
            build_fattree,
            build_internet2,
            build_linear,
            build_stanford,
        )

        factories = {
            "stanford": lambda: build_stanford(
                subnets_per_zone=args.scale, install_routes=False,
                with_acls=False, with_ssh_detours=False,
            ),
            "internet2": lambda: build_internet2(
                prefixes_per_pop=args.scale, install_routes=False
            ),
            "ft4": lambda: build_fattree(4, install_routes=False),
            "ft6": lambda: build_fattree(6, install_routes=False),
        }
        report = run_state_fuzz(
            factories[args.topo],
            rounds=args.fuzz,
            seed=args.seed,
            probe_budget=budget,
        )
        print(render_table(
            f"state fuzz ({args.topo}, seed {args.seed}, "
            f"{len(report.rounds)} rounds)",
            ["mutation", "rounds", "probes", "incidents", "detected", "blamed"],
            report.rows(),
        ))
        print(
            f"detection rate: {report.detection_rate:.0%} over "
            f"{len(report.desync_rounds)} desync rounds, "
            f"blame rate: {report.blame_rate:.0%}, final coverage: "
            f"{report.final_coverage:.0%}"
        )
        try:
            report.reconcile()
        except AssertionError as exc:
            print(exc)
            return 1
        print("ledger reconciled: all exercised desyncs detected, "
              "no false positives")
        return 0

    from .core import VeriDPServer
    from .dataplane import DataPlaneNetwork

    scenario = _scenario_factories()[args.topo](args)
    server = VeriDPServer(scenario.topo, scenario.channel)
    net = DataPlaneNetwork(
        scenario.topo, scenario.channel, report_sink=server.receive_report_bytes
    )
    rng = random.Random(args.seed)
    pairs = scenario.host_pairs()
    sampled = rng.sample(pairs, max(1, int(len(pairs) * args.passive)))
    for src, dst in sampled:
        net.inject_from_host(src, scenario.header_between(src, dst))
    before = server.coverage.report()
    prober = ActiveProber(server, net, budget=budget)
    run = prober.run(max_rounds=args.rounds)
    after = server.coverage.report()
    tiers = prober.derivation
    print(render_table(
        f"active coverage ({args.topo}, {len(sampled)} passive flows)",
        ["stage", "paths", "pairs", "hops", "dark"],
        [
            ("passive", f"{before.verified_paths}/{before.total_paths}",
             f"{before.verified_pairs}/{before.total_pairs}",
             f"{before.verified_hops}/{before.total_hops}",
             len(before.dark_paths)),
            ("probed", f"{after.verified_paths}/{after.total_paths}",
             f"{after.verified_pairs}/{after.total_pairs}",
             f"{after.verified_hops}/{after.total_hops}",
             len(after.dark_paths)),
        ],
    ))
    print(str(run))
    print(
        f"witness tiers: {tiers.cube_tier} cube, {tiers.descent_tier} "
        f"descent, {tiers.empty} empty; {run.slice_probes} slice probes"
    )
    return 0 if run.converged else 1


def cmd_slice(args: argparse.Namespace) -> int:
    """Multi-tenant slices: check a slice config, or fuzz the slice layer.

    With ``--slices FILE`` the command loads the tenant map, attaches it to
    a live server over the chosen topology, and prints the per-tenant view
    sizes plus the result of the full cross-tenant isolation sweep — a
    config linter for slice deployments.  Without it, a seeded tenant-churn
    fuzz campaign (leaked rules, slice-map churn, noisy neighbors) runs and
    the ledger is reconciled, mirroring ``probe --fuzz``.
    """
    if args.slices is not None:
        from .core import VeriDPServer
        from .slice import SliceRegistry
        from .topologies import build_linear

        factories = _scenario_factories()
        factories["linear"] = lambda args: build_linear(4)
        scenario = factories[args.topo](args)
        server = VeriDPServer(scenario.topo, scenario.channel)
        try:
            registry = SliceRegistry.load(args.slices, server.hs, scenario.topo)
        except (KeyError, ValueError, OSError) as exc:
            raise SystemExit(f"bad slice config {args.slices}: {exc}")
        incidents = server.set_slices(registry)
        stats = server.stats()
        rows = [
            (
                name,
                len(registry.tenants[name].spec.prefixes),
                len(registry.tenants[name].edge_ports),
                stats["tenants"][name]["view_pairs"],
                stats["tenants"][name]["view_paths"],
            )
            for name in sorted(registry.tenants)
        ]
        print(render_table(
            f"slice map ({args.topo}, {len(registry.tenants)} tenants)",
            ["tenant", "prefixes", "edge ports", "view pairs", "view paths"],
            rows,
        ))
        iso = stats["isolation"]
        print(
            f"isolation sweep: {iso['last_table_pairs']} table pairs, "
            f"{iso['last_tenant_pairs']} tenant-pair proofs, "
            f"{len(incidents)} incidents"
        )
        for incident in incidents:
            print(f"  {incident}")
        return 1 if incidents else 0

    from .probe.fuzz_tenants import run_tenant_fuzz
    from .topologies import (
        build_fattree,
        build_internet2,
        build_linear,
        build_stanford,
    )

    factories = {
        "stanford": lambda: build_stanford(
            subnets_per_zone=args.scale, install_routes=False,
            with_acls=False, with_ssh_detours=False,
        ),
        "internet2": lambda: build_internet2(
            prefixes_per_pop=args.scale, install_routes=False
        ),
        "ft4": lambda: build_fattree(4, install_routes=False),
        "ft6": lambda: build_fattree(6, install_routes=False),
        "linear": lambda: build_linear(4, install_routes=False),
    }
    report = run_tenant_fuzz(
        factories[args.topo],
        rounds=args.fuzz,
        seed=args.seed,
        tenant_count=args.tenants,
    )
    print(render_table(
        f"tenant fuzz ({args.topo}, {args.tenants} tenants, seed "
        f"{args.seed}, {len(report.rounds)} rounds)",
        ["round kind", "rounds", "incidents", "detected", "blamed",
         "pair proofs"],
        report.rows(),
    ))
    print(
        f"leak detection: {report.detection_rate:.0%} over "
        f"{len(report.leak_rounds)} injected leaks, blame rate: "
        f"{report.blame_rate:.0%}"
    )
    try:
        report.reconcile()
    except AssertionError as exc:
        print(exc)
        return 1
    print("ledger reconciled: all leaks detected and blamed, isolation "
          "checks stayed incremental, no false incidents")
    return 0


def cmd_demo(args: argparse.Namespace) -> int:
    import random as _random

    from .core import VeriDPServer
    from .dataplane import DataPlaneNetwork, random_misforward_fault
    from .topologies import build_fattree

    scenario = build_fattree(4)
    server = VeriDPServer(scenario.topo, scenario.channel)
    net = DataPlaneNetwork(
        scenario.topo, scenario.channel, report_sink=server.receive_report_bytes
    )
    rng = _random.Random(args.seed)
    fault = None
    while True:
        fault = random_misforward_fault(net, rng)
        for src, dst in scenario.host_pairs():
            net.inject_from_host(src, scenario.header_between(src, dst))
        if server.incidents:
            break
    print(f"fault: {fault.describe()}")
    incident = server.drain_incidents()[0]
    print(f"detected: {incident.verification.verdict.value}")
    print(f"blamed: {', '.join(incident.blamed_switches)}")
    return 0


# -- parser -------------------------------------------------------------


def _positive_int(text: str) -> int:
    """An argparse type for counts that must be at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="experiment RNG seed")
    common.add_argument(
        "--scale", type=int, default=2,
        help="topology scale knob (subnets/zone or prefixes/PoP)",
    )
    parser = argparse.ArgumentParser(
        prog="repro",
        description="VeriDP (CoNEXT 2016) reproduction — experiment runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help):
        return sub.add_parser(name, help=help, parents=[common])

    add("table2", "path table statistics")
    add("fig6", "paths-per-pair distribution")

    fig12 = add("fig12", "false negative rate vs Bloom size")
    fig12.add_argument("--topo", choices=["stanford", "internet2", "ft4", "ft6"],
                       default="stanford")
    fig12.add_argument("--trials", type=int, default=1000)
    fig12.add_argument("--bits", type=int, nargs="+",
                       default=[8, 16, 24, 32, 48, 64])

    table3 = add("table3", "localization probability")
    table3.add_argument("--trials", type=int, default=10)

    fig13 = add("fig13", "verification latency")
    fig13.add_argument("--repeats", type=_positive_int, default=50)

    add("fig14", "incremental update time")
    add("table4", "data-plane overhead model")
    add("functest", "the Section 6.2 function tests")
    add("demo", "detect+localize one random fault")

    tradeoff = add("tradeoff", "detection latency vs sampling overhead")
    tradeoff.add_argument("--intervals", type=float, nargs="+",
                          default=[0.5, 1.0, 2.0])
    tradeoff.add_argument("--trials", type=int, default=5)

    serve = add("serve", "run a live daemon with UDP ingestion + /metrics")
    serve.add_argument("--topo", choices=["stanford", "internet2", "ft4", "ft6"],
                       default="ft4")
    serve.add_argument("--mode", choices=["thread", "sharded"], default="thread")
    serve.add_argument("--workers", type=int, default=2)
    serve.add_argument("--host", default="127.0.0.1",
                       help="UDP bind address for tag reports")
    serve.add_argument("--port", type=int, default=0,
                       help="UDP port (0 picks a free one)")
    serve.add_argument("--metrics-port", type=int, default=None,
                       help="serve /metrics, /healthz, /varz on this port "
                            "(0 picks a free one; omit to disable)")
    serve.add_argument("--metrics-host", default="127.0.0.1")
    serve.add_argument("--reports", type=int, default=0,
                       help="self-drive N sampled packets through the UDP "
                            "socket, then print statistics")
    serve.add_argument("--duration", type=float, default=None,
                       help="keep serving this many seconds (default: "
                            "forever unless --reports is given)")
    serve.add_argument("--state-dir", default=None,
                       help="durable mode: WAL + snapshots in this directory; "
                            "restarts recover the path table and the report "
                            "stream becomes replayable (LPM rule sets only)")
    serve.add_argument("--coalesce-ms", type=float, default=0.0,
                       help="coalescing window for rule updates in durable "
                            "mode: stage events and recompute the path "
                            "table once per window (0 = per-event)")
    serve.add_argument("--fsync", choices=["always", "interval", "never"],
                       default="interval",
                       help="WAL durability policy (durable mode)")
    serve.add_argument("--slices", default=None, metavar="FILE",
                       help="multi-tenant mode: slices.json tenant map; "
                            "enables per-tenant metrics, quota queues and "
                            "the cross-tenant isolation verifier")
    serve.add_argument("--cluster", type=int, default=0, metavar="N",
                       help="shard verification across N cluster nodes "
                            "behind one UDP report listener "
                            "(0 = single-process daemon)")
    serve.add_argument("--cluster-mode", choices=["thread", "process"],
                       default="thread",
                       help="run cluster nodes as threads or processes")
    serve.add_argument("--batch-size", type=int, default=256,
                       help="cluster frontend dispatch batch size")
    serve.add_argument("--ingest-batch", type=int, default=128,
                       help="datagrams drained per socket wakeup into one "
                            "zero-copy frame")

    cluster = add("cluster", "self-driving sharded-cluster demo with "
                             "failover and rebalance")
    cluster.add_argument("--topo",
                         choices=["stanford", "internet2", "ft4", "ft6",
                                  "linear"],
                         default="linear")
    cluster.add_argument("--nodes", type=int, default=3,
                         help="initial verification node count")
    cluster.add_argument("--node-mode", choices=["thread", "process"],
                         default="thread")
    cluster.add_argument("--reports", type=int, default=2000,
                         help="reports streamed through the cluster")
    cluster.add_argument("--batch-size", type=int, default=256)
    cluster.add_argument("--no-churn", dest="churn", action="store_false",
                         help="skip the mid-stream node kill + join")

    replay = add("replay", "re-verify a recorded report stream offline")
    replay.add_argument("state_dir",
                        help="state directory written by a --state-dir run")
    replay.add_argument("--start-seq", type=int, default=1,
                        help="first WAL seq whose reports are verified")
    replay.add_argument("--stop-seq", type=int, default=None,
                        help="stop after this WAL seq (bisection upper bound)")
    replay.add_argument("--limit", type=int, default=30,
                        help="max incidents to print")
    replay.add_argument("--no-localize", action="store_true",
                        help="skip Algorithm 4 on replayed failures")

    probe = add("probe", "close dark coverage with representative probes")
    probe.add_argument("--topo", choices=["stanford", "internet2", "ft4", "ft6"],
                       default="ft4")
    probe.add_argument("--passive", type=float, default=0.1,
                       help="fraction of host pairs carrying passive "
                            "traffic before probing starts")
    probe.add_argument("--rounds", type=int, default=8,
                       help="max closed-loop probing rounds")
    probe.add_argument("--max-probes", type=int, default=None,
                       help="probe packet budget")
    probe.add_argument("--max-seconds", type=float, default=None,
                       help="wall-clock probing budget")
    probe.add_argument("--rate", type=float, default=None,
                       help="probe send rate cap (packets/s)")
    probe.add_argument("--fuzz", type=int, default=0, metavar="ROUNDS",
                       help="instead of probing a static network, run a "
                            "seeded control-plane state-fuzz campaign of "
                            "this many rounds and reconcile the ledger")

    slice_ = add("slice", "multi-tenant slices: config check / isolation fuzz")
    slice_.add_argument("--topo",
                        choices=["stanford", "internet2", "ft4", "ft6",
                                 "linear"],
                        default="linear")
    slice_.add_argument("--tenants", type=int, default=2,
                        help="tenant count for the fuzz campaign (hosts "
                             "are partitioned round-robin)")
    slice_.add_argument("--fuzz", type=int, default=12, metavar="ROUNDS",
                        help="tenant-fuzz campaign length")
    slice_.add_argument("--slices", default=None, metavar="FILE",
                        help="check this slices.json against the topology "
                             "instead of fuzzing (exit 1 on isolation "
                             "incidents)")

    add("report", "collate persisted benchmark tables")
    paths = add("paths", "dump a topology's path table")
    paths.add_argument("--topo", choices=["stanford", "internet2", "ft4", "ft6"],
                       default="ft4")
    paths.add_argument("--limit", type=int, default=30)
    return parser


_COMMANDS: Dict[str, Callable[[argparse.Namespace], int]] = {
    "table2": cmd_table2,
    "fig6": cmd_fig6,
    "fig12": cmd_fig12,
    "table3": cmd_table3,
    "fig13": cmd_fig13,
    "fig14": cmd_fig14,
    "table4": cmd_table4,
    "functest": cmd_functest,
    "tradeoff": cmd_tradeoff,
    "report": cmd_report,
    "paths": cmd_paths,
    "demo": cmd_demo,
    "probe": cmd_probe,
    "slice": cmd_slice,
    "serve": cmd_serve,
    "cluster": cmd_cluster,
    "replay": cmd_replay,
}


def main(argv: Sequence[str] = None) -> int:
    """Entry point (``python -m repro ...``)."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
