"""TenantQuotaQueue: per-tenant occupancy caps under every policy."""

import pytest

from repro.core.reports import REPORT_SIZE, Frame
from repro.core.resilience import OverflowPolicy, TenantQuotaQueue


def make_queue(policy=OverflowPolicy.DROP_NEW, maxsize=8, **kwargs):
    return TenantQuotaQueue(maxsize, policy, **kwargs)


def put(queue, name, tenant):
    """Submit one report tagged ``name`` for ``tenant`` as a one-row frame;
    True when it was admitted."""
    frame = Frame(name.encode().ljust(REPORT_SIZE, b"\0"))
    return queue.put_frame(frame, tenants=[tenant]) == 1


def take(queue):
    """Pop the oldest queued report, as its tag."""
    return queue.get_nowait().payload().rstrip(b"\0").decode()


def test_caps_derived_from_shares():
    queue = make_queue(shares={"a": 0.25, "b": 0.5})
    assert queue.cap_of("a") == 2
    assert queue.cap_of("b") == 4
    assert queue.cap_of("c") == 8  # default share 1.0
    assert queue.cap_of(None) == 8


def test_share_validation():
    with pytest.raises(ValueError):
        TenantQuotaQueue(8, shares={"a": 0.0})
    with pytest.raises(ValueError):
        TenantQuotaQueue(8, shares={"a": 2.0})
    with pytest.raises(ValueError):
        TenantQuotaQueue(8, default_share=0.0)


def test_over_quota_refused_under_drop_new():
    queue = make_queue(shares={"noisy": 0.25})
    assert put(queue, "n0", "noisy") and put(queue, "n1", "noisy")
    assert not put(queue, "n2", "noisy")  # cap 2 reached
    assert not put(queue, "n3", "noisy")
    assert queue.tenant_dropped["noisy"] == 2
    assert queue.stats()["dropped_new"] == 2


def test_quiet_tenant_unharmed_by_flood():
    queue = make_queue(
        policy=OverflowPolicy.DROP_OLDEST, shares={"noisy": 0.5, "quiet": 0.5}
    )
    for i in range(16):
        put(queue, f"n{i}", "noisy")
    for i in range(4):
        assert put(queue, f"q{i}", "quiet")
    stats = queue.stats()
    assert stats["tenants"]["quiet"]["dropped"] == 0
    assert stats["tenants"]["noisy"]["dropped"] > 0
    drained = [take(queue) for _ in range(queue.qsize())]
    assert [p for p in drained if p.startswith("q")] == [
        "q0", "q1", "q2", "q3"
    ]


def test_block_policy_never_stalls_on_over_quota():
    """An over-quota tenant is refused immediately, not blocked."""
    queue = make_queue(policy=OverflowPolicy.BLOCK, shares={"noisy": 0.25})
    assert put(queue, "n0", "noisy") and put(queue, "n1", "noisy")
    # Cap reached: refused without waiting (no timeout needed).
    assert not put(queue, "n2", "noisy")


def test_get_releases_occupancy():
    queue = make_queue(shares={"a": 0.25})
    assert put(queue, "x1", "a") and put(queue, "x2", "a")
    assert not put(queue, "x3", "a")
    assert take(queue) == "x1"
    queue.task_done()
    assert put(queue, "x3", "a")  # slot released by the get


def test_stats_shape():
    queue = make_queue(shares={"a": 0.5})
    put(queue, "p", "a")
    put(queue, "u", None)
    stats = queue.stats()
    assert stats["queued"] == 2
    assert stats["tenants"]["a"] == {
        "queued": 1, "cap": 4, "puts": 1, "dropped": 0
    }
    assert stats["tenants"][""]["queued"] == 1  # unattributed bucket
