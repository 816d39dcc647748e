#!/usr/bin/env python
"""A production-shaped deployment, end to end.

This capstone example runs VeriDP the way the paper deploys it, using every
subsystem of the reproduction together:

1. the network is **exported to router config files** and loaded back (the
   Cisco-config front end of §4.1),
2. the server runs as a **multi-worker daemon** behind a real **UDP
   socket** (tag reports are plain UDP datagrams, §5),
3. traffic is a mixed **CBR/Poisson/on-off workload** with per-flow
   sampling sized from the §4.5 latency rule,
4. an out-of-band rule edit hits mid-run; the **incident aggregator** rolls
   the failures up to a suspect and the **repair engine** fixes it,
5. the **coverage tracker** reports how much of the path table the sampled
   traffic actually validated.

Run:  python examples/production_deployment.py
"""

import socket
import tempfile
import time

from repro.analysis import IncidentAggregator
from repro.analysis.coverage import CoverageTracker
from repro.analysis.workloads import FlowSpec, scenario_workload
from repro.configlang import export_network, load_network
from repro.core import RepairEngine, UdpReportListener, VeriDPDaemon, VeriDPServer
from repro.core.sampling import FlowSampler, sampling_interval_for
from repro.dataplane import DataPlaneNetwork, ModifyRuleOutput
from repro.netmodel.rules import DROP_PORT
from repro.topologies import build_internet2


def main() -> None:
    # 1. Provision from config files.
    with tempfile.TemporaryDirectory() as confdir:
        export_network(build_internet2(prefixes_per_pop=1), confdir)
        scenario = load_network(confdir)
    print(f"loaded {scenario.topo} from config directory")

    # 2. Server + daemon + UDP listener.
    server = VeriDPServer(scenario.topo, scenario.channel)
    daemon = VeriDPDaemon(server, workers=2)
    daemon.start()
    listener = UdpReportListener(daemon)
    listener.start()
    sender = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    print(f"VeriDP daemon listening on UDP {listener.address}")
    sent = 0

    def ship(payload: bytes) -> None:
        nonlocal sent
        sender.sendto(payload, listener.address)
        sent += 1

    # The data plane ships report bytes to the UDP socket — the real wire.
    net = DataPlaneNetwork(
        scenario.topo,
        scenario.channel,
        report_sink=ship,
        sampler_factory=lambda sid: FlowSampler(default_interval=interval),
    )

    # 3. Workload: mixed arrival processes; T_s from the §4.5 rule.
    hosts = scenario.topo.hosts()
    specs = [
        FlowSpec(hosts[0], hosts[5], kind="cbr", rate=20),
        FlowSpec(hosts[1], hosts[6], kind="poisson", rate=15),
        FlowSpec(hosts[2], hosts[7], kind="onoff", rate=25, on_s=1.0, off_s=0.5),
        FlowSpec(hosts[3], hosts[8], kind="cbr", rate=10, dst_port=443),
    ]
    events, gaps = scenario_workload(scenario, specs, duration=6.0, seed=4)
    tau = 3.0
    worst_gap = max(gaps.values())
    interval = sampling_interval_for(tau, worst_gap)
    print(f"{len(events)} packets over 6s; worst T_a={worst_gap:.2f}s, "
          f"budget tau={tau}s -> T_s={interval:.2f}s")

    # 4. Replay with a mid-run fault.
    fault_at = 3.0
    fault = None
    for event in events:
        if fault is None and event.time >= fault_at:
            probe = net.inject_from_host(hosts[0], scenario.header_between(hosts[0], hosts[5]))
            victim = probe.hops[1]
            rule = net.switch(victim.switch).table.lookup(
                scenario.header_between(hosts[0], hosts[5]), victim.in_port
            )
            fault = ModifyRuleOutput(victim.switch, rule.rule_id, DROP_PORT)
            fault.apply(net)
            print(f"[t={event.time:.2f}s] fault injected: {fault.describe()}")
        net.inject_from_host(event.src_host, event.header, now=event.time)

    # join() waits for the queue only: first let the listener hand over
    # every datagram still in flight on the socket.
    deadline = time.monotonic() + 10
    while daemon.submitted < sent and time.monotonic() < deadline:
        time.sleep(0.01)
    daemon.join()

    # 5. Roll up incidents, repair, report coverage.
    aggregator = IncidentAggregator()
    aggregator.ingest_all(server.incidents, now=time.time())
    print("\n--- incident roll-up ---")
    print(aggregator.render())

    if server.incidents:
        # Repair runs as a synchronous transaction: quiesce the daemon and
        # route probe reports straight into the server instead of over UDP.
        daemon.stop()
        net.report_sink = server.receive_report_bytes
        engine = RepairEngine(
            scenario.controller,
            server,
            # Probes carry the marker pre-set: they must not depend on the
            # per-flow sampler agreeing to sample them.
            probe=lambda entry, header: net.inject(entry, header, force_sample=True),
        )
        incident = server.drain_incidents()[0]
        result = engine.repair(incident)
        print(f"\nrepair: {result}")
        net.report_sink = ship
        daemon.start()

    tracker = CoverageTracker(server.table)
    # Re-verify a clean all-pairs sweep for the coverage picture.
    for src, dst in scenario.host_pairs():
        delivery = net.inject_from_host(src, scenario.header_between(src, dst))
        for report in delivery.reports:
            tracker.observe(server.verifier.verify(report))
    print(f"\n--- coverage after sweep ---\n{tracker.report()}")

    stats = daemon.stats()
    print(f"\ndaemon: {stats['processed']} reports processed over UDP, "
          f"{stats['malformed']} malformed, {stats['dropped']} dropped")
    listener.stop()
    daemon.stop()
    sender.close()


if __name__ == "__main__":
    main()
