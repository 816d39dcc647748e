"""Fault injection: the Section 2.2 taxonomy as first-class operations.

Each fault is a small dataclass with an ``apply(network)`` method mutating
the data plane only — the controller's logical view stays intact, which is
precisely the control-data plane gap VeriDP exists to detect.

| Fault class            | Paper cause                                    |
|------------------------|------------------------------------------------|
| DropRuleInstall        | lack of data-plane acknowledgement; sw bugs    |
| ModifyRuleOutput       | external modification (dpctl / compromised OS) |
| DeleteRule             | external modification; bad rule replacement    |
| InjectRule             | external rule insertion (ill-inserted R2, §3.1)|
| IgnorePriorities       | premature switch implementation (ProCurve)     |
| KillSwitch             | hardware failure (acknowledged blind spot)     |
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Sequence

from ..netmodel.rules import DROP_PORT, FlowRule, Forward
from .network import DataPlaneNetwork

__all__ = [
    "Fault",
    "DropRuleInstall",
    "ModifyRuleOutput",
    "DeleteRule",
    "InjectRule",
    "IgnorePriorities",
    "KillSwitch",
    "random_misforward_fault",
]


class Fault:
    """Base class so campaigns can treat faults uniformly."""

    def apply(self, network: DataPlaneNetwork) -> None:
        """Mutate the data plane."""
        raise NotImplementedError

    def describe(self) -> str:
        """Human-readable description for experiment logs."""
        return repr(self)


@dataclass
class DropRuleInstall(Fault):
    """The switch silently ignores the (future) install of one rule.

    Must be applied *before* the controller sends the FlowMod.
    """

    switch_id: str
    rule_id: int

    def apply(self, network: DataPlaneNetwork) -> None:
        network.switch(self.switch_id).blacklist_install(self.rule_id)

    def describe(self) -> str:
        return f"{self.switch_id}: silently ignore install of rule {self.rule_id}"


@dataclass
class ModifyRuleOutput(Fault):
    """An installed rule's output port is rewritten out-of-band."""

    switch_id: str
    rule_id: int
    new_port: int

    def apply(self, network: DataPlaneNetwork) -> None:
        network.switch(self.switch_id).external_modify_output(
            self.rule_id, self.new_port
        )

    def describe(self) -> str:
        target = "⊥" if self.new_port == DROP_PORT else str(self.new_port)
        return f"{self.switch_id}: rule {self.rule_id} output rewritten to {target}"


@dataclass
class DeleteRule(Fault):
    """An installed rule disappears out-of-band."""

    switch_id: str
    rule_id: int

    def apply(self, network: DataPlaneNetwork) -> None:
        network.switch(self.switch_id).external_delete(self.rule_id)

    def describe(self) -> str:
        return f"{self.switch_id}: rule {self.rule_id} deleted out-of-band"


@dataclass
class InjectRule(Fault):
    """A rule the controller never sent appears in the physical table."""

    switch_id: str
    rule: FlowRule

    def apply(self, network: DataPlaneNetwork) -> None:
        network.switch(self.switch_id).external_insert(self.rule)

    def describe(self) -> str:
        return f"{self.switch_id}: foreign rule injected ({self.rule.describe()})"


@dataclass
class IgnorePriorities(Fault):
    """The switch resolves overlapping rules by *lowest* priority."""

    switch_id: str

    def apply(self, network: DataPlaneNetwork) -> None:
        network.switch(self.switch_id).ignore_priority = True

    def describe(self) -> str:
        return f"{self.switch_id}: rule priorities ignored"


@dataclass
class KillSwitch(Fault):
    """Hardware failure: the switch swallows packets and sends no reports."""

    switch_id: str

    def apply(self, network: DataPlaneNetwork) -> None:
        network.switch(self.switch_id).dead = True

    def describe(self) -> str:
        return f"{self.switch_id}: hardware failure (silent)"


def random_misforward_fault(
    network: DataPlaneNetwork,
    rng: random.Random,
    switch_ids: Optional[Sequence[str]] = None,
) -> Optional[ModifyRuleOutput]:
    """Pick a random installed forwarding rule and rewire it to a wrong port.

    This is the fault generator of the Section 6.3 experiments: "select a
    random rule from a random switch, and change its output port to a
    different one".  Returns ``None`` if no eligible rule exists.
    """
    candidates = []
    pool = switch_ids if switch_ids is not None else sorted(network.switches)
    for sid in pool:
        switch = network.switch(sid)
        for rule in switch.table:
            if isinstance(rule.action, Forward):
                wrong_ports = sorted(switch.ports - {rule.action.port})
                if wrong_ports:
                    candidates.append((sid, rule.rule_id, wrong_ports))
    if not candidates:
        return None
    sid, rule_id, wrong_ports = rng.choice(candidates)
    fault = ModifyRuleOutput(sid, rule_id, rng.choice(wrong_ports))
    fault.apply(network)
    return fault
