"""Unit tests for the control channel and message types."""

import pytest

from repro.controlplane.messages import Barrier, Channel, FlowMod, FlowModOp
from repro.netmodel.rules import FlowRule, Forward, Match


def flowmod(op=FlowModOp.ADD, switch="S1"):
    return FlowMod(op, switch, FlowRule(10, Match(), Forward(1)))


class TestChannel:
    def test_listeners_receive_in_order(self):
        channel = Channel()
        seen = []
        channel.subscribe(lambda m: seen.append(("a", m)))
        channel.subscribe(lambda m: seen.append(("b", m)))
        msg = flowmod()
        channel.send(msg)
        assert seen == [("a", msg), ("b", msg)]

    def test_history_keeps_everything(self):
        channel = Channel()
        m1, m2 = flowmod(), Barrier()
        channel.send(m1)
        channel.send(m2)
        assert channel.history == [m1, m2]

    def test_late_subscriber_misses_nothing_new(self):
        channel = Channel()
        channel.send(flowmod())
        seen = []
        channel.subscribe(seen.append)
        m = flowmod(FlowModOp.DELETE)
        channel.send(m)
        assert seen == [m]

    def test_history_is_a_copy(self):
        channel = Channel()
        channel.send(flowmod())
        history = channel.history
        history.clear()
        assert len(channel.history) == 1


class TestMessages:
    def test_xids_unique_and_increasing(self):
        a, b = flowmod(), flowmod()
        assert a.xid != b.xid
        assert Barrier().xid > b.xid

    def test_flowmod_is_frozen(self):
        mod = flowmod()
        with pytest.raises(AttributeError):
            mod.switch_id = "S9"

    def test_ops_enumerated(self):
        assert {op.value for op in FlowModOp} == {"add", "delete", "modify"}
