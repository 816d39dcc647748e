"""Unit tests for the resilience primitives (queue, DLQ, backoff, supervisor)."""

import threading
import time

import pytest

from repro.core.reports import REPORT_SIZE, Frame
from repro.core.resilience import (
    DeadLetterQueue,
    OverflowPolicy,
    PolicyQueue,
    QueueStopped,
    RestartBackoff,
    TenantQuotaQueue,
    WorkerProbe,
    WorkerSupervisor,
)


def mkframe(n, fill=0x41, tenants=None):
    """An ``n``-row frame of synthetic wire rows (row i's last byte is i)."""
    data = b"".join(
        bytes([1, fill]) + bytes(REPORT_SIZE - 3) + bytes([i]) for i in range(n)
    )
    return Frame(data, tenants=tenants)


class TestOverflowPolicy:
    def test_coerce_strings(self):
        assert OverflowPolicy.coerce("block") is OverflowPolicy.BLOCK
        assert OverflowPolicy.coerce("drop-oldest") is OverflowPolicy.DROP_OLDEST
        assert OverflowPolicy.coerce("drop-new") is OverflowPolicy.DROP_NEW
        assert OverflowPolicy.coerce(OverflowPolicy.BLOCK) is OverflowPolicy.BLOCK

    def test_coerce_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown overflow policy"):
            OverflowPolicy.coerce("yolo")


def one(name):
    """A one-row frame tagged ``name`` (a single report is a one-row frame)."""
    return mkframe(1, fill=ord(name))


def pop(q):
    """Pop the oldest frame, blocking until there is one."""
    return q.get_many(1)[0]


def get(q):
    """Pop the oldest frame, as its tag."""
    return chr(pop(q).row(0)[1])


class TestPolicyQueue:
    def test_fifo_order(self):
        q = PolicyQueue(4)
        for name in "abc":
            assert q.put_frame(one(name)) == 1
        assert [get(q), get(q), get(q)] == ["a", "b", "c"]

    def test_drop_new_rejects_and_counts(self):
        q = PolicyQueue(2, OverflowPolicy.DROP_NEW)
        assert q.put_frame(one("a")) == q.put_frame(one("b")) == 1
        assert q.put_frame(one("c")) == 0
        assert q.stats()["dropped_new"] == 1
        assert get(q) == "a"  # oldest-wins: original items preserved

    def test_drop_oldest_evicts_and_counts(self):
        q = PolicyQueue(2, OverflowPolicy.DROP_OLDEST)
        assert q.put_frame(one("a")) == q.put_frame(one("b")) == 1
        assert q.put_frame(one("c")) == 1  # admits by evicting "a"
        assert q.stats()["dropped_oldest"] == 1
        assert get(q) == "b"
        assert get(q) == "c"

    def test_drop_oldest_settles_join_obligation(self):
        q = PolicyQueue(1, OverflowPolicy.DROP_OLDEST)
        q.put_frame(one("a"))
        q.put_frame(one("b"))  # evicts "a", which will never be task_done'd
        get(q)
        q.task_done()
        assert q.join(timeout=1.0)

    def test_block_waits_for_room(self):
        q = PolicyQueue(1, OverflowPolicy.BLOCK)
        q.put_frame(one("a"))
        done = []

        def producer():
            q.put_frame(one("b"))
            done.append(True)

        thread = threading.Thread(target=producer, daemon=True)
        thread.start()
        time.sleep(0.05)
        assert not done  # blocked on the full queue
        assert get(q) == "a"
        thread.join(timeout=2)
        assert done

    def test_block_timeout_counts(self):
        q = PolicyQueue(1, OverflowPolicy.BLOCK)
        q.put_frame(one("a"))
        assert q.put_frame(one("b"), timeout=0.01) == 0
        assert q.stats()["block_timeouts"] == 1

    def test_close_ends_consumers_once_drained(self):
        q = PolicyQueue(2)
        q.put_frame(one("a"))
        q.close()
        assert get(q) == "a"  # what is queued still drains
        with pytest.raises(QueueStopped):
            q.get_many(1)
        q.reopen()
        q.put_frame(one("b"))
        assert get(q) == "b"

    def test_join_tracks_unfinished(self):
        q = PolicyQueue(8)
        q.put_frame(one("a"))
        assert not q.join(timeout=0.01)
        get(q)
        q.task_done()
        assert q.join(timeout=1.0)

    def test_get_nowait_raises_when_empty(self):
        q = PolicyQueue(2)
        with pytest.raises(IndexError):
            q.get_nowait()

    def test_requires_positive_maxsize(self):
        with pytest.raises(ValueError):
            PolicyQueue(0)


class TestPolicyQueueFrames:
    """The report-weighted queue: frames weigh their rows, and every
    overflow policy accounts drops per report at frame boundaries."""

    def test_frame_weighs_its_rows(self):
        q = PolicyQueue(10)
        assert q.put_frame(mkframe(4)) == 4
        assert q.qsize() == 4
        assert q.stats()["puts"] == 4
        frame = pop(q)
        assert isinstance(frame, Frame) and frame.count == 4
        q.task_done(reports=4)
        assert q.join(timeout=1.0)

    def test_drop_new_admits_the_fitting_prefix(self):
        q = PolicyQueue(6, OverflowPolicy.DROP_NEW)
        assert q.put_frame(mkframe(4)) == 4
        assert q.put_frame(mkframe(4)) == 2  # split at the bound
        stats = q.stats()
        assert stats["dropped_new"] == 2
        assert stats["queued"] == 6
        assert stats["puts"] == 8
        first, second = pop(q), pop(q)
        assert first.count == 4
        assert second.count == 2
        # The admitted prefix is the frame's *head* rows.
        assert second.row(0)[-1] == 0 and second.row(1)[-1] == 1

    def test_drop_new_refuses_whole_frame_when_no_room(self):
        q = PolicyQueue(3, OverflowPolicy.DROP_NEW)
        assert q.put_frame(mkframe(3)) == 3
        assert q.put_frame(mkframe(5)) == 0
        assert q.stats()["dropped_new"] == 5

    def test_drop_oldest_evicts_queued_reports_one_at_a_time(self):
        q = PolicyQueue(5, OverflowPolicy.DROP_OLDEST)
        assert q.put_frame(mkframe(3, fill=0xAA)) == 3
        assert q.put_frame(mkframe(4, fill=0xBB)) == 4
        stats = q.stats()
        assert stats["dropped_oldest"] == 2
        assert stats["queued"] == 5
        # The old frame survives with a narrowed window (rows 2..3).
        old = pop(q)
        assert old.count == 1
        assert old.row(0)[-1] == 2
        assert pop(q).count == 4
        # Evictions settled their join obligation at eviction time.
        q.task_done(reports=1)
        q.task_done(reports=4)
        assert q.join(timeout=1.0)

    def test_drop_oldest_frame_wider_than_queue_sheds_own_head(self):
        q = PolicyQueue(4, OverflowPolicy.DROP_OLDEST)
        q.put_frame(one("x"))
        assert q.put_frame(mkframe(6)) == 4  # newest-wins: keeps rows 2..5
        stats = q.stats()
        assert stats["dropped_oldest"] == 3  # "x" plus the frame's rows 0-1
        frame = pop(q)
        assert frame.count == 4
        assert frame.row(0)[-1] == 2

    def test_block_admits_prefix_then_times_out_mid_frame(self):
        q = PolicyQueue(4, OverflowPolicy.BLOCK)
        assert q.put_frame(mkframe(3)) == 3
        admitted = q.put_frame(mkframe(3), timeout=0.01)
        assert admitted == 1  # the fitting prefix went in before the wait
        stats = q.stats()
        assert stats["block_timeouts"] == 2
        assert stats["queued"] == 4

    def test_block_admits_rest_when_consumer_makes_room(self):
        q = PolicyQueue(4, OverflowPolicy.BLOCK)
        q.put_frame(mkframe(4))
        got = []

        def producer():
            got.append(q.put_frame(mkframe(4), timeout=5.0))

        thread = threading.Thread(target=producer, daemon=True)
        thread.start()
        time.sleep(0.05)
        drained = pop(q)
        q.task_done(reports=drained.count)
        thread.join(timeout=5)
        assert got == [4]

    def test_get_many_batches_without_splitting_frames(self):
        q = PolicyQueue(32)
        q.put_frame(one("a"))
        q.put_frame(mkframe(4))
        q.put_frame(one("b"))
        items = q.get_many(3)
        # The one-row frame fits; the 4-row frame would exceed the budget
        # and is never split on the consumer side, so the batch stops
        # before it.
        assert [frame.count for frame in items] == [1]
        items = q.get_many(16)
        assert [frame.count for frame in items] == [4, 1]

    def test_get_many_returns_oversized_first_item_whole(self):
        q = PolicyQueue(32)
        q.put_frame(mkframe(8))
        items = q.get_many(2)
        assert len(items) == 1 and items[0].count == 8

    def test_get_many_blocks_for_first_item_only(self):
        q = PolicyQueue(8)
        with pytest.raises(TimeoutError):
            q.get_many(4, timeout=0.01)

    def test_get_many_rejects_nonpositive_budget(self):
        q = PolicyQueue(8)
        with pytest.raises(ValueError):
            q.get_many(0)


class TestTenantQuotaFrames:
    """Frame admission under per-tenant quotas: bulk charges stay exact
    per report and per tenant."""

    def make_queue(self, maxsize=8, policy=OverflowPolicy.DROP_NEW, **kwargs):
        kwargs.setdefault("shares", {"red": 0.5, "blue": 0.5})
        return TenantQuotaQueue(maxsize, policy, **kwargs)

    def test_bulk_path_charges_each_tenant_once(self):
        q = self.make_queue()
        frame = mkframe(4)
        admitted = q.put_frame(frame, tenants=["red", "red", "blue", None])
        assert admitted == 4
        tenants = q.stats()["tenants"]
        assert tenants["red"]["queued"] == 2
        assert tenants["blue"]["queued"] == 1
        assert tenants[""]["queued"] == 1
        assert tenants["red"]["puts"] == 2

    def test_get_releases_per_row_occupancy(self):
        q = self.make_queue()
        q.put_frame(mkframe(3), tenants=["red", "red", "blue"])
        frame = pop(q)
        assert isinstance(frame, Frame) and frame.count == 3
        assert frame.tenants[frame.start] == "red"
        tenants = q.stats()["tenants"]
        assert tenants["red"]["queued"] == 0
        assert tenants["blue"]["queued"] == 0

    def test_over_quota_tenant_refused_row_wise(self):
        # red's cap is 4 of 8; a frame carrying 5 red rows and 2 blue rows
        # must shed exactly the over-quota red row.
        q = self.make_queue()
        frame = mkframe(7)
        admitted = q.put_frame(
            frame, tenants=["red"] * 5 + ["blue"] * 2
        )
        assert admitted == 6
        tenants = q.stats()["tenants"]
        assert tenants["red"]["queued"] == 4
        assert tenants["red"]["dropped"] == 1
        assert tenants["blue"]["queued"] == 2
        assert tenants["blue"]["dropped"] == 0
        assert q.stats()["dropped_new"] == 1

    def test_quota_refusal_is_per_tenant_even_under_block(self):
        # BLOCK never lets an over-quota tenant stall the others.
        q = self.make_queue(policy=OverflowPolicy.BLOCK)
        q.put_frame(mkframe(4), tenants=["red"] * 4)  # red at cap
        admitted = q.put_frame(
            mkframe(3), timeout=0.05, tenants=["red", "blue", "blue"]
        )
        assert admitted == 2
        tenants = q.stats()["tenants"]
        assert tenants["red"]["dropped"] == 1
        assert tenants["blue"]["queued"] == 2

    def test_global_refusal_releases_bulk_reservation(self):
        # The bulk path reserves occupancy up front; rows the *global*
        # policy then refuses must release it (and charge the tenant).
        q = self.make_queue(maxsize=4, shares={"red": 1.0})
        assert q.put_frame(mkframe(3), tenants=["red"] * 3) == 3
        assert q.put_frame(mkframe(3), tenants=["red"] * 3) == 1
        tenants = q.stats()["tenants"]
        assert tenants["red"]["queued"] == 4
        assert tenants["red"]["dropped"] == 2
        assert q.stats()["dropped_new"] == 2

    def test_eviction_releases_the_right_tenants_occupancy(self):
        q = self.make_queue(
            maxsize=4, policy=OverflowPolicy.DROP_OLDEST,
            shares={"red": 1.0, "blue": 1.0},
        )
        q.put_frame(mkframe(2), tenants=["red", "red"])
        q.put_frame(mkframe(4), tenants=["blue"] * 4)
        tenants = q.stats()["tenants"]
        assert tenants["red"]["queued"] == 0
        assert tenants["red"]["dropped"] == 2
        assert tenants["blue"]["queued"] == 4
        assert q.stats()["dropped_oldest"] == 2

    def test_one_row_and_wider_frames_are_one_currency(self):
        q = self.make_queue(maxsize=16)
        q.put_frame(one("s"))
        q.put_frame(mkframe(3), tenants=["red", "red", "blue"])
        stats = q.stats()
        assert stats["puts"] == 4
        assert stats["queued"] == 4

    def test_tenant_stamp_length_must_match_window(self):
        q = self.make_queue()
        with pytest.raises(ValueError, match="tenant stamps"):
            q.put_frame(mkframe(3), tenants=["red"])


class TestDeadLetterQueue:
    def test_add_records_structured_error(self):
        dlq = DeadLetterQueue(capacity=4)
        letter = dlq.add(b"xx", "decode", ValueError("bad version"))
        assert letter.stage == "decode"
        assert letter.error_type == "ValueError"
        assert "bad version" in letter.error
        assert dlq.pending == 1
        assert "decode" in letter.describe()

    def test_retry_recovers_on_success(self):
        dlq = DeadLetterQueue(capacity=4)
        dlq.add(b"xx", "decode", ValueError("transient"))
        recovered, quarantined = dlq.retry(lambda payload: None)
        assert (recovered, quarantined) == (1, 0)
        assert dlq.pending == 0
        assert dlq.stats()["dead_letter_recovered"] == 1

    def test_retry_then_quarantine(self):
        dlq = DeadLetterQueue(capacity=4, max_attempts=2)

        def always_fails(payload):
            raise ValueError("still broken")

        dlq.add(b"xx", "decode", ValueError("broken"))
        recovered, quarantined = dlq.retry(always_fails)
        assert (recovered, quarantined) == (0, 1)
        assert dlq.pending == 0
        assert dlq.quarantined == 1
        letters = dlq.drain_quarantined()
        assert len(letters) == 1
        assert letters[0].quarantined
        assert letters[0].attempts == 2
        assert dlq.quarantined == 0

    def test_capacity_overflow_quarantines_oldest(self):
        dlq = DeadLetterQueue(capacity=2)
        for i in range(3):
            dlq.add(bytes([i]), "decode", ValueError(str(i)))
        assert dlq.pending == 2
        assert dlq.quarantined == 1
        assert dlq.total == 3


class TestRestartBackoff:
    def test_exponential_and_capped(self):
        backoff = RestartBackoff(base=0.1, factor=2.0, cap=0.5, healthy_after=1e9)
        delays = [backoff.next_delay(now=1.0) for _ in range(5)]
        assert delays == [0.1, 0.2, 0.4, 0.5, 0.5]

    def test_reset_after_healthy_period(self):
        backoff = RestartBackoff(base=0.1, factor=2.0, cap=1.0, healthy_after=10.0)
        assert backoff.next_delay(now=0.0) == 0.1
        assert backoff.next_delay(now=1.0) == pytest.approx(0.2)
        # A long quiet stretch forgives the crash streak.
        assert backoff.next_delay(now=100.0) == 0.1

    def test_rejects_bad_schedule(self):
        with pytest.raises(ValueError):
            RestartBackoff(base=0.0)


class FakeFleet:
    """A pretend worker pool the supervisor can probe and restart."""

    def __init__(self, workers=2):
        self.alive = [True] * workers
        self.heartbeat_age = [0.0] * workers
        self.restarted = []

    def probe(self):
        return [
            WorkerProbe(i, self.alive[i], self.heartbeat_age[i])
            for i in range(len(self.alive))
        ]

    def restart(self, worker_id):
        self.alive[worker_id] = True
        self.heartbeat_age[worker_id] = 0.0
        self.restarted.append(worker_id)


class TestWorkerSupervisor:
    def make(self, fleet, **kwargs):
        kwargs.setdefault("backoff", RestartBackoff(base=0.001, cap=0.002))
        return WorkerSupervisor(fleet.probe, fleet.restart, **kwargs)

    def test_restarts_dead_worker(self):
        fleet = FakeFleet(2)
        supervisor = self.make(fleet, restart_budget=5)
        fleet.alive[1] = False
        assert supervisor.check_once() == 1
        assert fleet.restarted == [1]
        assert supervisor.restarts == 1

    def test_restarts_wedged_worker(self):
        fleet = FakeFleet(2)
        supervisor = self.make(fleet, restart_budget=5, heartbeat_timeout=1.0)
        fleet.heartbeat_age[0] = 5.0  # alive but unresponsive
        assert supervisor.check_once() == 1
        assert fleet.restarted == [0]
        assert supervisor.wedged_restarts == 1

    def test_healthy_fleet_untouched(self):
        fleet = FakeFleet(3)
        supervisor = self.make(fleet)
        assert supervisor.check_once() == 0
        assert fleet.restarted == []

    def test_budget_exhaustion_fires_callback_once(self):
        fleet = FakeFleet(1)
        degraded = []
        supervisor = self.make(
            fleet,
            restart_budget=2,
            on_budget_exhausted=lambda: degraded.append(True),
        )
        for _ in range(2):
            fleet.alive[0] = False
            supervisor.check_once()
        fleet.alive[0] = False
        supervisor.check_once()  # third death exceeds the budget
        assert supervisor.exhausted
        assert degraded == [True]
        assert supervisor.restarts == 2
        # Once exhausted, no further restarts ever happen.
        supervisor.check_once()
        assert len(fleet.restarted) == 2

    def test_polling_thread_detects_death(self):
        fleet = FakeFleet(1)
        supervisor = self.make(fleet, restart_budget=5, poll_interval=0.01)
        supervisor.start()
        try:
            fleet.alive[0] = False
            deadline = time.time() + 5
            while not fleet.restarted and time.time() < deadline:
                time.sleep(0.01)
            assert fleet.restarted == [0]
        finally:
            supervisor.stop()
        assert not supervisor.running

    def test_stats_shape(self):
        fleet = FakeFleet(1)
        supervisor = self.make(fleet, restart_budget=7)
        stats = supervisor.stats()
        assert stats["restart_budget"] == 7
        assert stats["restarts"] == 0
        assert stats["budget_exhausted"] == 0
