"""OpenFlow-style control messages and the interceptable channel.

VeriDP deploys "a server alongside the SDN controller [that] intercepts the
bidirectional OpenFlow messages exchanged between the controller and
switches, in order to construct the path table" (Section 3.2).  We model the
southbound interface as a :class:`Channel` carrying :class:`FlowMod` and
:class:`Barrier` messages; any number of listeners (the data-plane switches,
the VeriDP server, test probes) subscribe and observe every message in
order.

This is deliberately a synchronous, in-process model: the consistency faults
the paper studies (rules silently not installed, modified out-of-band,
priorities ignored) are injected at the *switch* (see
:mod:`repro.dataplane.faults`), not by message loss, mirroring the paper's
fault taxonomy in Section 2.2.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Callable, List

from ..netmodel.rules import FlowRule

__all__ = ["FlowModOp", "FlowMod", "TableFlush", "Barrier", "Message", "Channel"]

_xids = itertools.count(1)


class FlowModOp(enum.Enum):
    """The three rule operations of Section 4.4."""

    ADD = "add"
    DELETE = "delete"
    MODIFY = "modify"


@dataclass(frozen=True)
class FlowMod:
    """Install, remove or replace one rule on one switch.

    ``MODIFY`` carries the *new* rule; its ``rule_id`` identifies the old
    rule being replaced (the paper treats modification as delete + add,
    Section 4.4, and so do all consumers of this message).
    """

    op: FlowModOp
    switch_id: str
    rule: FlowRule
    xid: int = field(default_factory=lambda: next(_xids))


@dataclass(frozen=True)
class TableFlush:
    """Delete every rule on one switch (an all-wildcard FlowMod DELETE).

    Used by the repair engine's escalation path: flush-and-resync removes
    rules the controller never installed (foreign insertions, Section 2.2's
    external modifications) that targeted re-pushes cannot displace.
    """

    switch_id: str
    xid: int = field(default_factory=lambda: next(_xids))


@dataclass(frozen=True)
class Barrier:
    """A barrier request marker.

    The paper (Section 2.2) notes real switches may answer Barrier before
    rules actually land in the flow table — the channel model therefore does
    *not* imply installation; it is just an ordering marker that listeners
    may use.
    """

    xid: int = field(default_factory=lambda: next(_xids))


Message = object  # FlowMod | Barrier — kept loose for listener signatures


class Channel:
    """An in-order broadcast pipe from the controller to its listeners.

    Listeners are callables receiving each message; they are invoked in
    subscription order, so subscribing the data plane before the VeriDP
    server yields the paper's deployment (the server observes the same
    stream the switches do).
    """

    def __init__(self) -> None:
        self._listeners: List[Callable[[Message], None]] = []
        self._log: List[Message] = []

    def subscribe(self, listener: Callable[[Message], None]) -> None:
        """Register a listener for all subsequent messages."""
        self._listeners.append(listener)

    def send(self, message: Message) -> None:
        """Broadcast one message to every listener, in order."""
        self._log.append(message)
        for listener in self._listeners:
            listener(message)

    @property
    def history(self) -> List[Message]:
        """Every message ever sent (useful for replay and debugging)."""
        return list(self._log)
