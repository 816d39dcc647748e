"""Network-wide data-plane simulation.

:class:`DataPlaneNetwork` wires one :class:`~repro.dataplane.switch.DataPlaneSwitch`
per topology switch to the control channel (installing FlowMods into the
*physical* tables) and to the VeriDP pipeline, then walks injected packets
switch-by-switch exactly as the wire would carry them: OpenFlow lookup →
VeriDP tagging → link traversal, until the packet exits the monitored
domain, is dropped, or its verification TTL expires.

Tag reports are serialised to their UDP payload bytes and handed to the
report sink — the same byte stream a modified OVS would send the VeriDP
server.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..controlplane.messages import Barrier, Channel, FlowMod, FlowModOp, TableFlush
from ..core.bloom import BloomTagScheme
from ..core.reports import PortCodec, TagReport, pack_report
from ..netmodel.hops import Hop
from ..netmodel.packet import Header, Packet
from ..netmodel.rules import DROP_PORT, FlowTable
from ..netmodel.topology import PortRef, Topology
from .pipeline import VeriDPPipeline
from .switch import DataPlaneSwitch

__all__ = ["DataPlaneNetwork", "DeliveryResult", "DeliveryStatus"]


class DeliveryStatus:
    """Terminal states of a packet walk."""

    DELIVERED = "delivered"  # exited at an edge port
    DROPPED = "dropped"  # hit ⊥ (explicit drop / table miss / bad port)
    LOST = "lost"  # swallowed by a dead switch (no report possible)
    LOOPED = "looped"  # walk cut by the hop limit (forwarding loop)


@dataclass
class DeliveryResult:
    """Outcome of injecting one packet."""

    status: str
    hops: List[Hop] = field(default_factory=list)
    exit_port: Optional[PortRef] = None
    delivered_to: Optional[str] = None
    reports: List[TagReport] = field(default_factory=list)

    def path_string(self) -> str:
        """Readable hop sequence for logs."""
        return " -> ".join(str(hop) for hop in self.hops) or "(no hops)"


class DataPlaneNetwork:
    """The simulated data plane: physical switches + VeriDP pipelines."""

    def __init__(
        self,
        topo: Topology,
        channel: Channel,
        codec: Optional[PortCodec] = None,
        scheme: Optional[BloomTagScheme] = None,
        report_sink: Optional[Callable[[bytes], None]] = None,
        sampler_factory: Optional[Callable[[str], object]] = None,
    ) -> None:
        self.topo = topo
        self.codec = codec or PortCodec(sorted(topo.switches))
        self.scheme = scheme or BloomTagScheme()
        self.switches: Dict[str, DataPlaneSwitch] = {
            sid: DataPlaneSwitch(sid, set(info.ports))
            for sid, info in topo.switches.items()
        }
        self.pipeline = VeriDPPipeline(
            topo, self.codec, self.scheme, sampler_factory=sampler_factory
        )
        #: Where wire-format report bytes go.  Public and swappable: a
        #: repair transaction may need a synchronous sink while the normal
        #: path ships datagrams to a collector (see examples/production_deployment.py).
        self.report_sink = report_sink
        self.emitted_reports: List[TagReport] = []
        # Catch up on FlowMods sent before this data plane existed (scenario
        # builders install routes at construction time), then live-subscribe.
        for message in channel.history:
            self._on_message(message)
        channel.subscribe(self._on_message)

    # -- control channel ---------------------------------------------------

    def _on_message(self, message: object) -> None:
        if isinstance(message, FlowMod):
            switch = self.switches[message.switch_id]
            if switch.dead:
                return  # a dead switch processes nothing
            if message.op in (FlowModOp.ADD, FlowModOp.MODIFY):
                switch.install(message.rule)
            elif message.op is FlowModOp.DELETE:
                switch.uninstall(message.rule.rule_id)
        elif isinstance(message, TableFlush):
            switch = self.switches[message.switch_id]
            if not switch.dead:
                switch.table = FlowTable()
        elif isinstance(message, Barrier):
            pass  # ordering marker only; see messages.Barrier docstring

    # -- packet injection -----------------------------------------------------

    def inject_from_host(
        self,
        host_id: str,
        header: Header,
        size: int = 512,
        now: float = 0.0,
        force_sample: bool = False,
    ) -> DeliveryResult:
        """Send a packet from a host into its attachment port."""
        attach = self.topo.host_port(host_id)
        return self.inject(
            attach, header, size=size, now=now, force_sample=force_sample
        )

    def inject(
        self,
        entry: PortRef,
        header: Header,
        size: int = 512,
        now: float = 0.0,
        force_sample: bool = False,
    ) -> DeliveryResult:
        """Walk a packet through the network starting at an edge port.

        ``entry`` is the switch port the packet arrives on (the host side of
        an edge port).  The walk ends at an edge egress, a drop, a dead
        switch, or the safety hop cap (which flags a forwarding loop).
        ``force_sample`` injects the packet with the VeriDP marker pre-set
        (a verification probe), bypassing the entry sampler.
        """
        if not self.topo.is_edge_port(entry):
            raise ValueError(f"{entry} is not an edge port; packets enter at edges")
        packet = Packet(header=header, size=size)
        result = DeliveryResult(status=DeliveryStatus.DROPPED)
        current = entry
        hop_budget = self.pipeline.max_path_length

        while True:
            switch = self.switches[current.switch]
            if switch.dead:
                # Hardware failure: the packet vanishes and, crucially, no
                # tag report is ever emitted (the paper's blind spot).
                result.status = DeliveryStatus.LOST
                return result

            # The OpenFlow pipeline resolves the output AND applies actions
            # (rewrites); the VeriDP pipeline runs after it (Section 5:
            # "after all actions have been executed on a packet").
            out_port, packet.header = switch.process(packet.header, current.port)
            switch.account(current.port, out_port, packet.size)
            hop = Hop(current.port, current.switch, out_port)
            result.hops.append(hop)
            packet.hops_taken.append(hop)

            pipe = self.pipeline.process(
                current.switch, current.port, out_port, packet, now=now,
                force_sample=force_sample,
            )
            if pipe.report is not None:
                self._emit(pipe.report)
                result.reports.append(pipe.report)

            if out_port == DROP_PORT:
                result.status = DeliveryStatus.DROPPED
                result.exit_port = PortRef(current.switch, DROP_PORT)
                return result

            egress = PortRef(current.switch, out_port)
            if self.topo.is_edge_port(egress):
                result.status = DeliveryStatus.DELIVERED
                result.exit_port = egress
                result.delivered_to = self.topo.host_at(egress)
                return result

            peer = self.topo.link(egress)
            if peer is None:  # defensive: is_edge_port should have caught it
                result.status = DeliveryStatus.DELIVERED
                result.exit_port = egress
                return result

            hop_budget -= 1
            if hop_budget <= 0:
                result.status = DeliveryStatus.LOOPED
                result.exit_port = egress
                return result
            current = peer

    def _emit(self, report: TagReport) -> None:
        self.emitted_reports.append(report)
        if self.report_sink is not None:
            self.report_sink(pack_report(report, self.codec))

    # -- convenience -----------------------------------------------------------

    def switch(self, switch_id: str) -> DataPlaneSwitch:
        """The physical switch object (KeyError with context)."""
        try:
            return self.switches[switch_id]
        except KeyError:
            raise KeyError(
                f"unknown switch {switch_id!r}; have {sorted(self.switches)}"
            ) from None

    def drain_reports(self) -> List[TagReport]:
        """Return and clear the accumulated report objects."""
        reports = self.emitted_reports
        self.emitted_reports = []
        return reports

