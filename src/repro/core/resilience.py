"""Resilience primitives for the monitoring plane itself.

VeriDP's detection-latency guarantee (Section 4.5) silently assumes tag
reports survive the trip from switch to verifier and that the verifier
stays up.  SDNsec-style accountability argues the monitoring plane must
tolerate its own faults; this module supplies the building blocks the
daemons in :mod:`repro.core.daemon` compose:

* :class:`PolicyQueue` — a bounded report queue with an explicit overflow
  policy (``block`` / ``drop-oldest`` / ``drop-new``) and per-policy drop
  counters, replacing silent loss with accounted loss,
* :class:`DeadLetterQueue` — bounded retry-then-quarantine storage for
  payloads that fail decoding or crash verification, with structured
  :class:`DeadLetter` error records,
* :class:`RestartBackoff` — bounded exponential backoff schedule for
  worker restarts,
* :class:`WorkerSupervisor` — a polling thread that detects dead or
  wedged workers (exitcode + heartbeat age) and asks the owner to restart
  them, under a restart budget with an exhaustion callback.

Everything here is transport- and daemon-agnostic: the primitives hold no
references to sockets, processes, or path tables, so they are unit-testable
with fakes and reusable by future ingestion paths.
"""

from __future__ import annotations

import enum
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

from .reports import Frame, REPORT_SIZE

__all__ = [
    "OverflowPolicy",
    "PolicyQueue",
    "TenantQuotaQueue",
    "QueueStopped",
    "DeadLetter",
    "DeadLetterQueue",
    "RestartBackoff",
    "WorkerProbe",
    "WorkerSupervisor",
]


class OverflowPolicy(str, enum.Enum):
    """What a bounded ingestion queue does when it is full.

    * ``BLOCK`` — the producer waits (optionally up to a timeout) for a
      consumer to make room; loss-free but transfers pressure upstream,
    * ``DROP_OLDEST`` — evict the oldest queued payload to admit the new
      one; keeps the stream fresh under overload (newest-wins),
    * ``DROP_NEW`` — reject the new payload; keeps the oldest work
      (oldest-wins), mirroring plain UDP tail drop.
    """

    BLOCK = "block"
    DROP_OLDEST = "drop-oldest"
    DROP_NEW = "drop-new"

    @classmethod
    def coerce(cls, value: "OverflowPolicy | str") -> "OverflowPolicy":
        """Accept either the enum or its string value."""
        if isinstance(value, cls):
            return value
        try:
            return cls(value)
        except ValueError:
            names = ", ".join(p.value for p in cls)
            raise ValueError(
                f"unknown overflow policy {value!r} (expected one of: {names})"
            ) from None


class QueueStopped(Exception):
    """Raised by :meth:`PolicyQueue.get_many` once the queue is closed and
    empty."""


class PolicyQueue:
    """A bounded FIFO of frames with explicit overflow policy and drop
    accounting.

    Unlike :class:`queue.Queue`, a full queue never loses work silently:
    every admission decision increments a counter (``dropped_new``,
    ``dropped_oldest``, ``block_timeouts``) surfaced via :meth:`stats`.
    ``task_done``/``join`` semantics match the stdlib queue so daemon
    workers can drain it the same way; :meth:`close` ends the consumers.

    The queue is *report-weighted*: every item is a
    :class:`~repro.core.reports.Frame` (a single report is a one-row
    frame), and ``maxsize``, ``qsize`` and every drop counter are measured
    in reports, not items.  Overflow policies act at report granularity —
    a frame that does not fully fit is split (``DROP_NEW``/``BLOCK`` admit
    the fitting prefix, ``DROP_OLDEST`` evicts queued reports one at a
    time) so drop accounting stays exact per report.
    """

    def __init__(
        self,
        maxsize: int,
        policy: "OverflowPolicy | str" = OverflowPolicy.DROP_NEW,
    ) -> None:
        if maxsize <= 0:
            raise ValueError(f"maxsize must be positive, got {maxsize}")
        self.maxsize = maxsize
        self.policy = OverflowPolicy.coerce(policy)
        self._items: Deque[Frame] = deque()
        self._size = 0  # queued *reports*
        self._mutex = threading.Lock()
        self._not_empty = threading.Condition(self._mutex)
        self._not_full = threading.Condition(self._mutex)
        self._all_done = threading.Condition(self._mutex)
        self._unfinished = 0
        self._closed = False
        self.puts = 0  # submitted reports: the queue's ledger
        self.dropped_new = 0
        self.dropped_oldest = 0
        self.block_timeouts = 0

    def __len__(self) -> int:
        with self._mutex:
            return self._size

    def qsize(self) -> int:
        """Approximate number of queued reports."""
        return len(self)

    # -- producer side ----------------------------------------------------

    def put_frame(
        self,
        frame: Frame,
        timeout: Optional[float] = None,
        tenants: Optional[Sequence[Optional[str]]] = None,
    ) -> int:
        """Admit a frame's reports in bulk; returns how many were admitted.

        ``tenants`` is accepted for interface parity with
        :class:`TenantQuotaQueue` and ignored here.
        """
        with self._mutex:
            self.puts += frame.count
            return self._policy_put(frame, frame.count, timeout)

    def _policy_put(self, frame: Frame, weight: int, timeout: Optional[float]) -> int:
        """Admit up to ``weight`` reports of ``frame`` under the overflow
        policy (mutex held); every refused/evicted report is counted."""
        if weight == 0:
            return 0
        room = self.maxsize - self._size
        if weight <= room:
            self._admit(frame, weight)
            return weight
        if self.policy is OverflowPolicy.DROP_NEW:
            admitted = 0
            if room > 0:
                self._admit(frame.split(room), room)
                admitted = room
            self.dropped_new += weight - admitted
            self._on_refused_rows(frame, frame.start, frame.stop)
            return admitted
        if self.policy is OverflowPolicy.DROP_OLDEST:
            # Evict queued reports one at a time (each one counted) until
            # the new frame fits; a frame wider than the whole queue also
            # sheds its own oldest rows (newest-wins at report granularity).
            target = self.maxsize - min(weight, self.maxsize)
            while self._size > target and self._items:
                self._evict_oldest()
            if weight > self.maxsize:
                excess = weight - self.maxsize
                self.dropped_oldest += excess
                self._on_refused_rows(frame, frame.start, frame.start + excess)
                frame.start += excess
                weight = self.maxsize
            self._admit(frame, weight)
            return weight
        # BLOCK: admit what fits now, wait for room for the rest (bounded
        # by timeout when given); a timeout counts every unadmitted report.
        admitted = 0
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            room = self.maxsize - self._size
            if frame.count <= room:
                self._admit(frame, frame.count)
                return admitted + frame.count
            if room > 0:
                self._admit(frame.split(room), room)
                admitted += room
            remaining_t = (
                None if deadline is None else deadline - time.monotonic()
            )
            if remaining_t is not None and remaining_t <= 0:
                self.block_timeouts += frame.count
                self._on_refused_rows(frame, frame.start, frame.stop)
                return admitted
            self._not_full.wait(remaining_t)

    def _admit(self, frame: Frame, weight: int) -> None:
        self._items.append(frame)
        self._size += weight
        self._unfinished += weight
        self._not_empty.notify()

    def _evict_oldest(self) -> None:
        """Evict one queued report (the oldest frame's first row) to make
        room — DROP_OLDEST machinery; counts and settles it."""
        frame = self._items[0]
        self._on_evicted(frame, frame.start)
        if frame.count > 1:
            frame.start += 1
        else:
            self._items.popleft()
        self._size -= 1
        self.dropped_oldest += 1
        # The evicted report will never be processed; settle its join()
        # obligation here.
        self._mark_done(1)

    # Attribution hooks (no-ops here; TenantQuotaQueue releases per-tenant
    # occupancy and counts per-tenant drops through them).

    def _on_evicted(self, frame: Frame, row: int) -> None:
        pass

    def _on_refused_rows(self, frame: Frame, lo: int, hi: int) -> None:
        pass

    def _on_popped(self, frame: Frame) -> None:
        pass

    # -- consumer side ----------------------------------------------------

    def get_nowait(self) -> Frame:
        """Pop without blocking; raises ``IndexError`` when empty."""
        with self._mutex:
            if not self._items:
                raise IndexError("queue is empty")
            frame = self._pop_locked()
            self._not_full.notify_all()
            return frame

    def get_many(
        self, max_reports: int, timeout: Optional[float] = None
    ) -> List[Frame]:
        """Pop up to ``max_reports`` queued reports as a list of frames.

        Blocks only for the first frame; the rest are drained without
        waiting.  The first frame is returned even if it alone exceeds
        ``max_reports`` — a frame is never split on the consumer side.
        Raises :class:`QueueStopped` once the queue is closed and empty.
        """
        if max_reports <= 0:
            raise ValueError(f"max_reports must be positive, got {max_reports}")
        with self._mutex:
            deadline = None if timeout is None else time.monotonic() + timeout
            while not self._items:
                if self._closed:
                    raise QueueStopped
                remaining = (
                    None if deadline is None else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    raise TimeoutError("queue.get_many timed out")
                self._not_empty.wait(remaining)
            out: List[Frame] = []
            total = 0
            while self._items:
                weight = self._items[0].count
                if out and total + weight > max_reports:
                    break
                out.append(self._pop_locked())
                total += weight
                if total >= max_reports:
                    break
            if total > 1:
                self._not_full.notify_all()
            else:
                self._not_full.notify()
            return out

    def _pop_locked(self) -> Frame:
        frame = self._items.popleft()
        self._size -= frame.count
        self._on_popped(frame)
        return frame

    def task_done(self, reports: int = 1) -> None:
        """Signal that ``reports`` previously-gotten reports are processed.

        Frame consumers settle a whole frame with ``task_done(frame.count)``.
        """
        with self._mutex:
            self._mark_done(reports)

    def _mark_done(self, reports: int = 1) -> None:
        if self._unfinished < reports:
            raise ValueError("task_done() called too many times")
        self._unfinished -= reports
        if self._unfinished == 0:
            self._all_done.notify_all()

    def join(self, timeout: Optional[float] = None) -> bool:
        """Block until every admitted report was processed; True on success."""
        with self._mutex:
            deadline = None if timeout is None else time.monotonic() + timeout
            while self._unfinished:
                remaining = (
                    None if deadline is None else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    return False
                self._all_done.wait(remaining)
            return True

    def close(self) -> None:
        """Wake blocked consumers; once empty, gets raise QueueStopped."""
        with self._mutex:
            self._closed = True
            self._not_empty.notify_all()

    def reopen(self) -> None:
        """Undo :meth:`close` (a restarted consumer pool)."""
        with self._mutex:
            self._closed = False

    def stats(self) -> Dict[str, int]:
        """Admission counters for :meth:`VeriDPDaemon.stats` consumption.

        Canonical drop keys (shared with the daemons' ``stats()`` and the
        ``veridp_queue_dropped_total`` metric family — see DESIGN.md §8):
        ``dropped_new`` (refused at the door), ``dropped_oldest``
        (evicted to admit newer), ``block_timeouts`` (blocking put timed
        out), and ``dropped`` — the total across all three.
        """
        with self._mutex:
            return {
                "queued": self._size,
                "puts": self.puts,
                "dropped_new": self.dropped_new,
                "dropped_oldest": self.dropped_oldest,
                "block_timeouts": self.block_timeouts,
                "dropped": (
                    self.dropped_new + self.dropped_oldest + self.block_timeouts
                ),
            }


class TenantQuotaQueue(PolicyQueue):
    """A :class:`PolicyQueue` with per-tenant occupancy quotas.

    One noisy tenant flooding the ingest queue must degrade only itself:
    each admitted row is attributed to a tenant (the ``tenants`` stamps
    of :meth:`put_frame`, ``None`` for unattributed traffic) and every
    tenant's share of the queue is capped at ``ceil(share * maxsize)``.  A
    tenant at its cap is refused admission *regardless of the global
    policy* — even ``BLOCK`` never lets an over-quota tenant stall the
    others — and the refusal is counted against that tenant
    (:attr:`tenant_dropped`) as well as in the global ``dropped_new``
    ledger.

    Consumers are oblivious: a pop releases the rows' occupancy slots, and
    the stdlib-style ``task_done`` / ``join`` / ``close`` semantics are
    inherited unchanged.
    """

    def __init__(
        self,
        maxsize: int,
        policy: "OverflowPolicy | str" = OverflowPolicy.DROP_NEW,
        shares: Optional[Dict[str, float]] = None,
        default_share: float = 1.0,
    ) -> None:
        super().__init__(maxsize, policy)
        if not 0 < default_share <= 1:
            raise ValueError(
                f"default_share must be in (0, 1], got {default_share}"
            )
        for tenant, share in (shares or {}).items():
            if not 0 < share <= 1:
                raise ValueError(
                    f"tenant {tenant!r}: share must be in (0, 1], got {share}"
                )
        self._caps: Dict[str, int] = {
            tenant: max(1, int(share * maxsize))
            for tenant, share in (shares or {}).items()
        }
        self._default_cap = max(1, int(default_share * maxsize))
        self._occupancy: Dict[Optional[str], int] = {}
        self.tenant_puts: Dict[Optional[str], int] = {}
        self.tenant_dropped: Dict[Optional[str], int] = {}

    def cap_of(self, tenant: Optional[str]) -> int:
        """The occupancy cap (in queue slots) for one tenant."""
        if tenant is None:
            return self._default_cap
        return self._caps.get(tenant, self._default_cap)

    def put_frame(
        self,
        frame: Frame,
        timeout: Optional[float] = None,
        tenants: Optional[Sequence[Optional[str]]] = None,
    ) -> int:
        """Admit a frame with quota charges applied in bulk, counted per row.

        ``tenants`` gives the per-row attribution for the frame's current
        window (``frame.count`` entries); omitted rows are unattributed.
        When every tenant in the frame fits under its cap the whole frame
        is admitted (or split) as one item — one occupancy bump per tenant
        instead of one per report.  Only when some tenant is at its cap
        does admission fall back to row-at-a-time so refusals are charged
        to exactly the over-quota rows.
        """
        frame.tenants = self._stamp_rows(frame, tenants)
        weight = frame.count
        with self._mutex:
            self.puts += weight
            if weight == 0:
                return 0
            window = frame.tenants[frame.start : frame.stop]
            counts: Dict[Optional[str], int] = {}
            for tenant in window:
                counts[tenant] = counts.get(tenant, 0) + 1
            for tenant, n in counts.items():
                self.tenant_puts[tenant] = self.tenant_puts.get(tenant, 0) + n
            over_quota = any(
                self._occupancy.get(tenant, 0) + n > self.cap_of(tenant)
                for tenant, n in counts.items()
            )
            if not over_quota:
                # Bulk path: reserve every row's occupancy up front; the
                # refusal/eviction hooks release whatever the policy sheds.
                for tenant, n in counts.items():
                    self._occupancy[tenant] = self._occupancy.get(tenant, 0) + n
                return self._policy_put(frame, weight, timeout)
            # Contended path: some tenant is at its cap, so rows are
            # admitted individually, each as a one-row window of the frame
            # — refusals land on exactly the over-quota rows and every
            # counter stays per report.
            admitted = 0
            deadline = None if timeout is None else time.monotonic() + timeout
            for i, tenant in enumerate(window):
                if self._occupancy.get(tenant, 0) >= self.cap_of(tenant):
                    self.dropped_new += 1
                    self.tenant_dropped[tenant] = self.tenant_dropped.get(tenant, 0) + 1
                    continue
                remaining = (
                    None if deadline is None else max(0.0, deadline - time.monotonic())
                )
                row = frame.start + i
                self._occupancy[tenant] = self._occupancy.get(tenant, 0) + 1
                admitted += self._policy_put(
                    Frame(frame.data, row, row + 1, frame.tenants), 1, remaining
                )
            return admitted

    @staticmethod
    def _stamp_rows(
        frame: Frame, tenants: Optional[Sequence[Optional[str]]]
    ) -> Tuple[Optional[str], ...]:
        """Build the absolute per-row tenant tuple for ``frame.data``."""
        nrows = len(frame.data) // REPORT_SIZE
        if tenants is None:
            if frame.tenants is not None:
                return frame.tenants
            return (None,) * nrows
        window = tuple(tenants)
        if len(window) != frame.count:
            raise ValueError(
                f"{len(window)} tenant stamps for a {frame.count}-row frame"
            )
        return (
            (None,) * frame.start + window + (None,) * (nrows - frame.stop)
        )

    # -- attribution hooks (called by the base policy machinery) -----------

    def _release(self, frame: Frame, lo: int, hi: int, dropped: bool) -> None:
        for i in range(lo, hi):
            tenant = frame.tenants[i]
            self._occupancy[tenant] = self._occupancy.get(tenant, 0) - 1
            if dropped:
                self.tenant_dropped[tenant] = self.tenant_dropped.get(tenant, 0) + 1

    def _on_evicted(self, frame: Frame, row: int) -> None:
        self._release(frame, row, row + 1, dropped=True)

    def _on_refused_rows(self, frame: Frame, lo: int, hi: int) -> None:
        # Rows refused at admission had their occupancy reserved by the
        # bulk path; release it and charge the drop to each row's tenant.
        self._release(frame, lo, hi, dropped=True)

    def _on_popped(self, frame: Frame) -> None:
        self._release(frame, frame.start, frame.stop, dropped=False)

    def stats(self) -> Dict[str, object]:
        """Global admission counters plus the per-tenant breakdown."""
        out: Dict[str, object] = super().stats()
        with self._mutex:
            tenants = sorted(
                set(self.tenant_puts)
                | set(self.tenant_dropped)
                | set(self._occupancy),
                key=lambda t: (t is None, t),
            )
            out["tenants"] = {
                (tenant if tenant is not None else ""): {
                    "queued": self._occupancy.get(tenant, 0),
                    "cap": self.cap_of(tenant),
                    "puts": self.tenant_puts.get(tenant, 0),
                    "dropped": self.tenant_dropped.get(tenant, 0),
                }
                for tenant in tenants
            }
        return out


# ---------------------------------------------------------------------------
# dead-lettering
# ---------------------------------------------------------------------------


@dataclass
class DeadLetter:
    """Structured record of one payload the pipeline could not process."""

    payload: bytes
    stage: str  # "decode" | "verify" | ...
    error_type: str
    error: str
    attempts: int = 1
    quarantined: bool = False

    def describe(self) -> str:
        state = "quarantined" if self.quarantined else "pending"
        return (
            f"[{state}] {self.stage} failed after {self.attempts} attempt(s): "
            f"{self.error_type}: {self.error} ({len(self.payload)}B payload)"
        )


class DeadLetterQueue:
    """Bounded retry-then-quarantine storage for failed payloads.

    A payload that fails decoding or crashes verification lands here as a
    :class:`DeadLetter` instead of killing a worker or vanishing into a
    bare counter.  :meth:`retry` re-runs a handler over the pending set;
    records that keep failing past ``max_attempts`` move to the quarantine
    ring, whose eviction is counted (``evicted``) so accounting stays
    closed even when the operator never drains it.
    """

    def __init__(self, capacity: int = 1024, max_attempts: int = 3) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        if max_attempts <= 0:
            raise ValueError(f"max_attempts must be positive, got {max_attempts}")
        self.capacity = capacity
        self.max_attempts = max_attempts
        self._pending: Deque[DeadLetter] = deque()
        self._quarantined: Deque[DeadLetter] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self.total = 0
        self.recovered = 0
        self.evicted = 0

    def add(self, payload: bytes, stage: str, error: BaseException) -> DeadLetter:
        """Record one failed payload (evicting the oldest pending if full)."""
        letter = DeadLetter(
            payload=payload,
            stage=stage,
            error_type=type(error).__name__,
            error=str(error),
        )
        with self._lock:
            self.total += 1
            if len(self._pending) >= self.capacity:
                self._quarantine(self._pending.popleft())
            self._pending.append(letter)
        return letter

    def _quarantine(self, letter: DeadLetter) -> None:
        letter.quarantined = True
        if len(self._quarantined) == self._quarantined.maxlen:
            self.evicted += 1
        self._quarantined.append(letter)

    def retry(
        self, handler: Callable[[bytes], None]
    ) -> Tuple[int, int]:
        """Re-run ``handler`` over pending letters.

        ``handler`` raising keeps (or, past ``max_attempts``, quarantines)
        the letter; returning normally recovers it.  Returns
        ``(recovered, quarantined_now)``.
        """
        with self._lock:
            batch = list(self._pending)
            self._pending.clear()
        recovered = 0
        quarantined = 0
        survivors: List[DeadLetter] = []
        for letter in batch:
            try:
                handler(letter.payload)
            except BaseException as exc:
                letter.attempts += 1
                letter.error_type = type(exc).__name__
                letter.error = str(exc)
                if letter.attempts >= self.max_attempts:
                    quarantined += 1
                    with self._lock:
                        self._quarantine(letter)
                else:
                    survivors.append(letter)
            else:
                recovered += 1
        with self._lock:
            self.recovered += recovered
            # Preserve FIFO order ahead of anything added mid-retry.
            self._pending.extendleft(reversed(survivors))
        return recovered, quarantined

    def drain_quarantined(self) -> List[DeadLetter]:
        """Return and clear the quarantine ring (operator interface)."""
        with self._lock:
            letters = list(self._quarantined)
            self._quarantined.clear()
            return letters

    @property
    def pending(self) -> int:
        with self._lock:
            return len(self._pending)

    @property
    def quarantined(self) -> int:
        with self._lock:
            return len(self._quarantined)

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "dead_lettered": self.total,
                "dead_letter_pending": len(self._pending),
                "dead_letter_quarantined": len(self._quarantined),
                "dead_letter_recovered": self.recovered,
                "dead_letter_evicted": self.evicted,
            }


# ---------------------------------------------------------------------------
# restart scheduling and supervision
# ---------------------------------------------------------------------------


class RestartBackoff:
    """Bounded exponential backoff: ``base * factor**n`` capped at ``cap``.

    One instance per supervised worker; :meth:`next_delay` forgets the
    crash streak once a worker survived ``healthy_after`` seconds since its
    last restart, so an old streak does not penalise a now-stable worker
    forever.
    """

    def __init__(
        self,
        base: float = 0.05,
        factor: float = 2.0,
        cap: float = 2.0,
        healthy_after: float = 30.0,
    ) -> None:
        if base <= 0 or factor < 1.0 or cap < base:
            raise ValueError(
                f"invalid backoff schedule (base={base}, factor={factor}, cap={cap})"
            )
        self.base = base
        self.factor = factor
        self.cap = cap
        self.healthy_after = healthy_after
        self.failures = 0
        self._last_restart = 0.0

    def next_delay(self, now: Optional[float] = None) -> float:
        """Delay to wait before the next restart attempt (and record it)."""
        now = time.monotonic() if now is None else now
        if (
            self.failures
            and self._last_restart
            and now - self._last_restart >= self.healthy_after
        ):
            self.failures = 0
        delay = min(self.cap, self.base * (self.factor ** self.failures))
        self.failures += 1
        self._last_restart = now
        return delay


@dataclass
class WorkerProbe:
    """One worker's health snapshot, as seen by the supervisor."""

    worker_id: int
    alive: bool
    heartbeat_age: float = 0.0


class WorkerSupervisor:
    """Detect dead or wedged workers and restart them, under a budget.

    The supervisor owns *policy* (poll cadence, backoff, budget) and leaves
    *mechanism* to callbacks so it can supervise OS processes, threads, or
    fakes in tests:

    * ``probe()`` -> sequence of :class:`WorkerProbe` (alive + heartbeat age),
    * ``restart(worker_id)`` — tear down and relaunch one worker,
    * ``on_budget_exhausted()`` — called once when crash restarts exceed
      ``restart_budget``; the owner degrades (the sharded daemon serves
      every shard on a thread of its own process) and the supervisor
      stops.

    A worker is considered wedged when its heartbeat age exceeds
    ``heartbeat_timeout`` even though the process is alive; wedged workers
    are restarted exactly like dead ones.
    """

    def __init__(
        self,
        probe: Callable[[], Sequence[WorkerProbe]],
        restart: Callable[[int], None],
        restart_budget: int = 3,
        poll_interval: float = 0.05,
        heartbeat_timeout: float = 10.0,
        backoff: Optional[RestartBackoff] = None,
        on_budget_exhausted: Optional[Callable[[], None]] = None,
    ) -> None:
        if restart_budget < 0:
            raise ValueError(f"restart_budget must be >= 0, got {restart_budget}")
        self._probe = probe
        self._restart = restart
        self.restart_budget = restart_budget
        self.poll_interval = poll_interval
        self.heartbeat_timeout = heartbeat_timeout
        self._backoffs: Dict[int, RestartBackoff] = {}
        self._backoff_proto = backoff or RestartBackoff()
        self._on_budget_exhausted = on_budget_exhausted
        self._thread: Optional[threading.Thread] = None
        self._wake = threading.Event()
        self._running = False
        self._lock = threading.Lock()
        self.restarts = 0
        self.wedged_restarts = 0
        self.exhausted = False

    # -- lifecycle --------------------------------------------------------

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self._wake.clear()
        self._thread = threading.Thread(
            target=self._loop, name="veridp-supervisor", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        self._running = False
        self._wake.set()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    @property
    def running(self) -> bool:
        return self._running

    # -- supervision loop -------------------------------------------------

    def _loop(self) -> None:
        while self._running:
            try:
                self.check_once()
            except Exception:  # pragma: no cover - supervision must survive
                pass
            self._wake.wait(self.poll_interval)
            self._wake.clear()

    def check_once(self) -> int:
        """One supervision pass; returns how many workers were restarted.

        Exposed so tests (and the sharded daemon's ``join`` loop) can drive
        supervision synchronously without racing the poll thread.
        """
        restarted = 0
        with self._lock:
            if self.exhausted:
                return 0
            for probe in self._probe():
                wedged = (
                    probe.alive
                    and probe.heartbeat_age > self.heartbeat_timeout > 0
                )
                if probe.alive and not wedged:
                    continue
                if self.restarts >= self.restart_budget:
                    self.exhausted = True
                    self._running = False
                    if self._on_budget_exhausted is not None:
                        self._on_budget_exhausted()
                    return restarted
                backoff = self._backoffs.setdefault(
                    probe.worker_id,
                    RestartBackoff(
                        base=self._backoff_proto.base,
                        factor=self._backoff_proto.factor,
                        cap=self._backoff_proto.cap,
                        healthy_after=self._backoff_proto.healthy_after,
                    ),
                )
                delay = backoff.next_delay()
                if delay > 0:
                    time.sleep(delay)
                self._restart(probe.worker_id)
                self.restarts += 1
                if wedged:
                    self.wedged_restarts += 1
                restarted += 1
        return restarted

    def stats(self) -> Dict[str, int]:
        return {
            "restarts": self.restarts,
            "wedged_restarts": self.wedged_restarts,
            "restart_budget": self.restart_budget,
            "budget_exhausted": int(self.exhausted),
        }
