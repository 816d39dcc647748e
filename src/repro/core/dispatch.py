"""The parent-side dispatcher both multi-process shapes share.

The sharded daemon (:class:`~repro.core.sharded.ShardedVeriDPDaemon`)
and the cluster (:class:`~repro.cluster.frontend.ClusterFrontend` with its
:class:`~repro.cluster.coordinator.ClusterCoordinator`) feed remote shard
replicas the same way.  One :class:`Dispatcher` owns the members' links
and does, for both:

* **send** — a shape's routing function (the shard hash, or the ring and
  placement map) splits screened rows across the links' delivery books
  (:class:`~repro.core.delivery.DeliveryBook`), and every batch a book
  cuts goes out under the link's window;
* **reply** — one intake thread waits on every link at once and hands
  each batch reply (a :class:`~repro.core.replica.Delta`) to the shape's
  reply handler, keeps digest replies for :meth:`Dispatcher.digests`, and
  counts any reply as the member's heartbeat;
* **settle** — :class:`Books`, the one set of verdict books, retires a
  batch under its book's lock and counts it by the server's verdict of
  record (:meth:`Books.settle`);
* **replica upkeep** — pair deltas and reloads (:meth:`Dispatcher.ship`)
  and digests travel on the same link as the batches, so a patch applies
  before every batch sent after it;
* **member failure** — :meth:`Dispatcher.probes` reports liveness and
  heartbeat age, :meth:`Dispatcher._swap` detaches a member and surrenders
  its book, and :meth:`Dispatcher.redeliver` routes the surrendered rows
  again, to a respawned worker or to a failover owner.

A :class:`Link` carries one member over one duplex channel: a
``multiprocessing`` pipe to a forked shard worker (``repro.core.sharded``)
or a TCP :class:`~repro.cluster.protocol.MessageStream` to a cluster node
(``repro.cluster.frontend``).  Either way the member runs
:func:`~repro.core.replica.serve_replica`, which answers these messages::

    parent -> member              member -> parent
    ("batch", seq, frame)         the batch's Delta
    ("patch", specs, tenants)     --  (a packed pair delta; None drops a pair)
    ("reload", specs, tenants)    --  (a packed whole replica)
    ("digest", token)             ("digest", token, sha1)
    ("ping", token)               ("pong",)

This module loads neither ``multiprocessing`` nor the server: the direct
daemon keeps :class:`Books` too (its in-thread replica synced by
:meth:`Books.catch_up`, each worker call settled by :meth:`Books.settle`),
and a cluster node's process imports the cluster package.
"""

from __future__ import annotations

import pickle
import select
import socket
import sys
import threading
import time
from typing import Callable, Dict, Hashable, List, Optional, Tuple

from .delivery import Batch, DeliveryBook, InFlight
from .replica import Delta, VerdictFamilies, resync_specs
from .reports import REPORT_SIZE, ReportDecodeError, payload_precheck
from .resilience import DeadLetterQueue, OverflowPolicy, WorkerProbe
from .verifier import Verdict

__all__ = ["Books", "Dispatcher", "Link"]

_PASS = Verdict.PASS.value
_NO_SWITCH = "a wire port id names no switch"

#: ``(link, chunk, rows)``: one member's share of a routed frame.
Target = Tuple["Link", bytes, int]


class Books:
    """The one set of verdict books, and the replica versions, of every
    deployment shape.

    A mixin: the direct daemon, the sharded daemon and the cluster
    coordinator keep these attributes as their own.  :meth:`take` is the
    dispatcher's reply handler and :meth:`settle` counts a delta by the
    server's verdict of record.  :meth:`catch_up` is the one catch-up: it
    brings the server's table and then the members' replicas current,
    ``shards`` hash shards of the table at a time, through the shape's
    ``_ship_sync(sync)`` (which applies or sends a
    :class:`~repro.core.replica.Resync` and returns the bytes shipped).
    ``families``, when given, fold every batch reply :meth:`take` retires.
    ``incidents``, when a list, also collects ``(payload, verdict
    value)`` per row the server failed (the cluster's).
    """

    def __init__(
        self,
        server,
        families: Optional[VerdictFamilies] = None,
        shards: int = 1,
        incidents: Optional[list] = None,
    ) -> None:
        self.server = server
        self.families = families
        self.dead_letters = DeadLetterQueue()
        self.incidents = incidents
        #: The server's lock: it serialises the intake, the table's
        #: writers and the resyncs reading the table.
        self.server_lock = server.lock
        self._books_lock = threading.Lock()
        self.processed = 0
        self.malformed = 0
        self.verify_errors = 0
        self.unknown_reingested = 0
        self.counters: Dict[Verdict, int] = {v: 0 for v in Verdict}
        self._shards = shards
        #: Serialises replica resyncs, held across their sends (never
        #: across a settle, which takes ``server_lock``).
        self._resync_lock = threading.Lock()
        self._replica_version = -1
        self._dirty_token: Optional[Tuple[int, int]] = None
        self.resyncs = 0
        self.resync_pairs = 0
        self.full_resyncs = 0
        self.resync_delta_bytes = 0

    def _register_books(self, reg) -> None:
        """Expose the books and the replica resyncs on a daemon's
        registry (read at scrape time)."""
        letters = self.dead_letters
        for kind, name, owner, attr, text in (
            ("counter", "veridp_processed_total", self, "processed",
             "Payloads fully verified."),
            ("counter", "veridp_malformed_total", self, "malformed",
             "Payloads the decoder rejected (dead-lettered, not fatal)."),
            ("counter", "veridp_verify_errors_total", self, "verify_errors",
             "Payloads that crashed verification (dead-lettered)."),
            ("counter", "veridp_dead_letters_total", letters, "total",
             "Payloads dead-lettered since start."),
            ("gauge", "veridp_dead_letter_pending", letters, "pending",
             "Dead letters awaiting retry."),
            ("gauge", "veridp_dead_letter_quarantined", letters, "quarantined",
             "Dead letters past the retry budget."),
            ("counter", "veridp_replica_resyncs_total", self, "resyncs",
             "In-place replica resyncs (delta patches, no recompile)."),
            ("counter", "veridp_replica_resync_pairs_total", self, "resync_pairs",
             "Path-table pairs recompiled and shipped as resync deltas."),
            ("counter", "veridp_replica_delta_bytes_total", self,
             "resync_delta_bytes",
             "Pickled bytes of the replica messages shipped on resync."),
            ("counter", "veridp_replica_full_resyncs_total", self, "full_resyncs",
             "Resyncs that had to fall back to a full replica reload."),
        ):
            getattr(reg, kind)(
                name, text, callback=lambda o=owner, a=attr: getattr(o, a)
            )

    def catch_up(self) -> None:
        """Bring the server's table, then every replica, current before
        new rows reach a replica: a lock-free check, and :meth:`resync`
        only when a window is armed, a FlowMod is pending or the table
        moved since the last resync."""
        server = self.server
        if server.behind or server.table.version != self._replica_version:
            self.resync()

    def resync(self) -> Optional[int]:
        """Bring the server's table and every member's replica up to date.

        The server catches up first (:meth:`VeriDPServer.catch_up`: the
        coalescing window, the rebuild after a FlowMod).  Then the pair
        deltas of :func:`~repro.core.replica.resync_specs` since the last
        resync ship as ``patch`` messages, or, when the journal overflowed
        or the table was swapped, whole replicas as ``reload`` messages,
        each on its member's link ahead of any later batch.  Returns the
        number of pairs patched, ``0`` if the replicas were already
        current, or ``None`` when a full reload was required.
        """
        with self._resync_lock:
            with self.server_lock:
                server = self.server
                server.catch_up()
                if server.table.version == self._replica_version:
                    return 0
                sync = resync_specs(
                    server.table,
                    server.hs,
                    server.codec,
                    self._shards,
                    self._dirty_token,
                )
            shipped = self._ship_sync(sync)
            # Current only now: a producer that saw the old version waits
            # on the lock above until every patch is ahead of its rows.
            self._replica_version, self._dirty_token = sync.version, sync.token
        patched = None if sync.full else sum(len(spec) for spec in sync.specs)
        with self._books_lock:
            self.resyncs += 1
            self.resync_delta_bytes += shipped
            if patched is None:
                self.full_resyncs += 1
            else:
                self.resync_pairs += patched
        return patched

    def take(self, link: "Link", delta: Delta) -> None:
        """Retire a batch on its reply, folding and settling it under the
        book's lock: a failover cannot surrender it meanwhile, so it
        counts once."""

        def retire() -> None:
            # Fold outside the books' lock: that takes registry locks, and
            # a scrape's callbacks take the books' lock.
            self.families.fold(delta)
            self.settle(delta)

        link.retire(delta.seq, retire)

    def settle(self, delta: Delta) -> None:
        """Count a replica's delta by the server's verdict of record.

        The replica's failures and the unknown-pair rows a cluster node set
        aside go through :meth:`VeriDPServer.receive_report_rows` in one
        call, once the server caught up, and are counted by its outcome,
        not the replica's: ``malformed`` when the codec rejects one (a
        dead letter at ``decode``), ``verify_errors`` when verification
        raised (at ``verify``), else ``processed`` under the server's
        verdict (a stale replica's FAIL the current table passes counts
        PASS).  The replica's PASS rows, malformed rows (its sample
        dead-lettered at ``decode``) and crashes are taken as they are.
        """
        rows = [payload for payload, _verdict in delta.failures] + delta.unknown
        if not (rows or delta.crashed or delta.malformed):
            # Nothing flagged: no intake call.
            with self._books_lock:
                self.processed += delta.processed
                self.counters[Verdict.PASS] += delta.processed
            return
        outcomes = ()
        if rows:
            with self.server_lock:
                self.server.catch_up()
                outcomes = self.server.receive_report_rows(rows)
        # Every non-PASS verdict the replica counted is one of its failures.
        processed = delta.processed - len(delta.failures)
        malformed = delta.malformed
        crashed = len(delta.crashed)
        counters = {Verdict.PASS: delta.counters[_PASS]}
        letters = [(p, "verify", RuntimeError(error)) for p, error in delta.crashed]
        letters += [
            (p, "decode", ReportDecodeError(payload_precheck(p) or _NO_SWITCH))
            for p in delta.malformed_sample
        ]
        failed = []
        for payload, outcome in zip(rows, outcomes):
            if isinstance(outcome, ReportDecodeError):
                malformed += 1
                letters.append((payload, "decode", outcome))
            elif isinstance(outcome, Exception):
                crashed += 1
                letters.append((payload, "verify", outcome))
            else:
                processed += 1
                verdict = outcome.verdict
                counters[verdict] = counters.get(verdict, 0) + 1
                if verdict is not Verdict.PASS:
                    failed.append((payload, verdict.value))
        with self._books_lock:
            self.processed += processed
            self.malformed += malformed
            self.verify_errors += crashed
            self.unknown_reingested += len(delta.unknown)
            for verdict, count in counters.items():
                self.counters[verdict] += count
            if self.incidents is not None:
                self.incidents.extend(failed)
        for letter in letters:
            self.dead_letters.add(*letter)

    def dead_letter_transport(self, payload: bytes, reason: str) -> None:
        """Record a payload rejected before admission (wrong size or
        version, or a submit that raised).  The transport keeps the
        evidence instead of discarding it: dead-letter queue, malformed
        counter, and the WAL's malformed stream on a durable server."""
        self.dead_letters.add(payload, "transport", ReportDecodeError(reason))
        with self._books_lock:
            self.malformed += 1
        persist = self.server.persist
        if persist is not None:
            persist.log_malformed(payload)


class Link(DeliveryBook):
    """One member's link: its delivery book over a duplex channel.

    ``conn`` is the parent's end of the channel, a ``multiprocessing``
    pipe end or a :class:`~repro.cluster.protocol.MessageStream`:
    ``fileno()``, ``send_bytes(blob)``, ``recv()`` (raising
    ``EOFError``/``OSError`` once the member is gone), ``poll()`` (whether
    a reply can be read without waiting on the channel's poll) and
    ``close()``.  ``member`` runs the member loop: a forked worker
    process, a degraded shard's thread or a
    :class:`~repro.cluster.node.NodeHandle`, anything with
    ``is_alive()``, ``kill()`` and ``join(timeout)``; None when the link
    does not own its member.  ``pinged`` is when the first ping since the
    member's last reply went out (None once it answered anything), all
    its heartbeat needs.
    """

    def __init__(self, key: Hashable, conn, member, *book) -> None:
        super().__init__(*book)
        self.key = key
        self.conn = conn
        self.member = member
        self.pinged: Optional[float] = None
        #: Serialises writers: a message is several writes on the channel.
        self.send_lock = threading.Lock()

    def fileno(self) -> int:
        return self.conn.fileno()

    def recv(self):
        return self.conn.recv()

    def _write(self, message) -> Optional[int]:
        """Pickle and send one message; its bytes, or None when the
        channel is gone."""
        blob = pickle.dumps(message, pickle.HIGHEST_PROTOCOL)
        try:
            self.conn.send_bytes(blob)
        except OSError:
            return None
        return len(blob)

    def alive(self) -> bool:
        return self.member is None or self.member.is_alive()

    def end(self) -> None:
        """Take the member down for good: its replica holds nothing the
        parent lacks."""
        if self.member is not None:
            self.member.kill()
            self.member.join(timeout=2)

    def close(self) -> None:
        self.conn.close()

    def send(self, message) -> Optional[int]:
        """Ship one message; its pickled bytes, or None when the channel
        is gone (the member's book waits for its surrender)."""
        with self.send_lock:
            return self._write(message)

    def post(self, message) -> None:
        """Ship a small message only if that cannot block (a ping): a
        wedged member with a full channel must not stall its prober."""
        if not self.send_lock.acquire(blocking=False):
            return
        try:
            if select.select([], [self], [], 0)[1]:
                self._write(message)
        except OSError:
            pass
        finally:
            self.send_lock.release()


class Dispatcher:
    """Links, routing, one reply intake and member upkeep (module docstring).

    ``on_reply(link, delta)`` is called on the intake thread for every
    batch reply; a handler that retires the batch (:meth:`Books.take`)
    acks it, and until one does the batch stays in the link's redelivery
    set.  ``window`` bounds the un-acked batches per link under
    ``overflow`` (``block`` or ``drop-new``); None leaves it unbounded.
    A shape supplies :meth:`_route`, which runs with :attr:`_lock` held.
    """

    def __init__(
        self,
        on_reply: Callable[[Link, Delta], None],
        batch_size: int,
        log: Optional[Callable[[bytes], None]] = None,
        window: Optional[int] = None,
        overflow: OverflowPolicy = OverflowPolicy.BLOCK,
    ) -> None:
        self.on_reply = on_reply
        self.batch_size = batch_size
        #: Appends a cut batch's new rows to the WAL (durable servers).
        self.log = log
        self.window = window
        self.overflow = overflow
        #: Rows accepted with no verdict yet; its condition also wakes the
        #: digest waiters.
        self.flight = InFlight()
        self._links: Dict[Hashable, Link] = {}
        #: Guards the links, the routing state and the counters below.
        self._lock = threading.Lock()
        self.submitted = 0
        self.dispatched_batches = 0
        self.dispatched_reports = 0
        self.redelivered_reports = 0
        self.dispatch_errors = 0
        self.dropped_new = 0
        self._digests: Dict[Hashable, Tuple[int, str]] = {}
        self._digest_seq = 0
        #: Detached links whose channels the intake closes.
        self._graveyard: List[Link] = []
        self._intake: Optional[threading.Thread] = None
        self._wake_w: Optional[socket.socket] = None

    def _route(self, clean: bytes) -> Optional[List[Target]]:
        """Split screened rows across the links (``_lock`` held); None
        when the shape takes no rows any more."""
        raise NotImplementedError

    def _revive(self) -> None:
        """Called while a blocked send waits: make sure a consumer lives."""

    # -- send ------------------------------------------------------------------

    def _dispatch(self, clean: bytes, count: int) -> Optional[int]:
        """Route ``count`` screened rows into the books and send every batch
        they cut; returns the rows admitted (refused batches count wholly
        against the call that cut them), or None when nothing was taken."""
        batches: List[Tuple[Link, Batch]] = []
        with self._lock:
            targets = self._route(clean)
            if targets is None:
                return None
            self.submitted += count
            admitted = 0
            for link, chunk, rows in targets:
                admitted += rows
                batch = link.offer(chunk, rows)
                if batch is not None:
                    batches.append((link, batch))
        for link, batch in batches:
            if not self._send(link, *batch):
                admitted = max(0, admitted - batch[2])
        return admitted

    def _send(self, link: Link, seq: int, frame: bytes, rows: int) -> bool:
        """Hand one cut batch to its member under the window; False when
        the overflow policy refused it.

        Runs without any lock: a ``block`` wait must not stall other
        producers, and the intake needs the book's lock to retire
        batches while this send waits for the member to read.  A batch
        surrendered meanwhile is its taker's to send.
        """
        window = self.window
        if window is not None:
            if self.overflow is not OverflowPolicy.BLOCK:
                if not link.has_room(seq, window):
                    link.retire(seq)  # tail drop: no reply will come
                    with self._lock:
                        self.dropped_new += rows
                    return False
            while not self.flight.wait_for(lambda: link.has_room(seq, window), 0.2):
                self._revive()
        if link.dead:
            return True
        if link.send(("batch", seq, frame)) is None:
            link.dead = True  # the batch stays un-acked for the redelivery
            with self._lock:
                self.dispatch_errors += 1
        else:
            with self._lock:
                self.dispatched_batches += 1
                self.dispatched_reports += rows
        return True

    def flush_buffers(self) -> None:
        """Dispatch every link's partial buffer (end of stream, timer)."""
        with self._lock:
            links = list(self._links.values())
        for link in links:
            batch = link.cut()
            if batch is not None:
                self._send(link, *batch)

    def redeliver(self, frames: List[bytes]) -> int:
        """Route surrendered rows again; returns the rows re-routed.

        The books that take them adopt them as they are: in the WAL and
        counted in flight already.  Rows no member owns any more leave
        the in-flight count.
        """
        clean = b"".join(frames)
        batches = []
        with self._lock:
            targets = self._route(clean) or []
            count = sum(rows for _link, _chunk, rows in targets)
            self.redelivered_reports += count
            for link, chunk, _rows in targets:
                batch = link.adopt([chunk])
                if batch is not None:
                    batches.append((link, batch))
        self.flight.add(count - len(clean) // REPORT_SIZE)
        for link, batch in batches:
            self._send(link, *batch)
        return count

    def ship(self, messages: Dict[Hashable, tuple]) -> int:
        """Send one replica message (``patch``/``reload``) per member key;
        returns the pickled bytes shipped.  A link's FIFO puts the message
        ahead of every batch sent after it."""
        shipped = 0
        for key, message in messages.items():
            link = self._links.get(key)
            if link is not None:
                shipped += link.send(message) or 0
        return shipped

    def wait_retired(self, timeout: float, keys=None) -> bool:
        """Wait until no accepted row is left in flight, or, with ``keys``,
        until those members answered every batch sent to them so far;
        False on timeout."""
        if keys is None:
            return self.flight.wait_for(lambda: self.flight.rows == 0, timeout)
        with self._lock:
            links = [self._links[key] for key in keys if key in self._links]
        marks = [(link, link.seq) for link in links]
        return self.flight.wait_for(
            lambda: all(link.answered(mark) for link, mark in marks), timeout
        )

    def join_rows(self, timeout: float) -> None:
        """Dispatch the buffers and wait until every accepted row has its
        verdict, running :meth:`_revive` while it waits; raises
        ``TimeoutError`` naming the members still owing rows."""
        deadline = time.monotonic() + timeout
        while True:
            self.flush_buffers()
            if self.wait_retired(0.05):
                return
            self._revive()
            if time.monotonic() > deadline:
                owing = [
                    link.key
                    for link in list(self._links.values())
                    if link.unacked or link.rows
                ]
                raise TimeoutError(
                    f"members {owing} did not answer in time "
                    f"({self.flight.rows} rows in flight)"
                )

    # -- membership and member failure -----------------------------------------

    def _swap(self, key: Hashable, link: Optional[Link] = None) -> List[bytes]:
        """Put ``link`` in ``key``'s place (None: drop the key) and
        surrender the old link's book: its frames, all in the WAL, still
        counted in flight, for :meth:`redeliver`.  A reply still on its way
        finds its batch gone and is dropped, so each row counts once."""
        with self._lock:
            old = self._links.pop(key, None)
            if link is not None:
                self._links[key] = link
                self._start_intake()
            frames = []
            if old is not None:
                frames = old.surrender()
                self._graveyard.append(old)
        self._wake()
        return frames

    def probes(self) -> List[WorkerProbe]:
        """Each member's liveness and heartbeat age: how long its oldest
        unanswered ping has waited.  Pings a live member with none
        outstanding, so an idle member stays answered."""
        now = time.monotonic()
        with self._lock:
            links = list(self._links.values())
        out = []
        for link in links:
            alive = link.alive() and not link.dead
            if alive and link.pinged is None:
                link.pinged = now
                link.post(("ping", 0))
            age = 0.0 if link.pinged is None else now - link.pinged
            out.append(WorkerProbe(link.key, alive, age))
        return out

    def digests(self, timeout: float = 10.0) -> Dict[Hashable, str]:
        """Every member's replica fingerprint, by key (ops/test hook).

        The request rides each link behind the patches sent before it, so
        a digest reflects them.  Raises ``RuntimeError`` naming the members
        that did not answer in time.
        """
        with self._lock:
            self._digest_seq += 1
            token = self._digest_seq
            links = list(self._links.values())
        for link in links:
            link.send(("digest", token))

        def pending() -> list:
            return [
                link.key
                for link in links
                if self._digests.get(link.key, (0,))[0] != token
            ]

        if not self.flight.wait_for(lambda: not pending(), timeout):
            raise RuntimeError(f"members {pending()} did not answer digest")
        return {link.key: self._digests[link.key][1] for link in links}

    # -- reply intake ----------------------------------------------------------

    def _start_intake(self) -> None:
        """Run the intake thread if it is not running (``_lock`` held)."""
        if self._intake is None:
            wake_r, self._wake_w = socket.socketpair()
            self._intake = threading.Thread(
                target=self._take_replies,
                args=(wake_r, self._wake_w),
                name="veridp-reply-intake",
                daemon=True,
            )
            self._intake.start()

    def _wake(self) -> None:
        wake = self._wake_w
        if wake is not None:
            try:
                wake.send(b"\0")
            except OSError:  # closed by an ending intake, or full
                pass

    def _take_replies(self, wake_r: socket.socket, wake_w: socket.socket) -> None:
        """The intake thread: one poll over every live link, each reply
        handled as it arrives.  It ends when no link is left, or on
        :meth:`close`."""
        me = threading.current_thread()
        try:
            while True:
                with self._lock:
                    graveyard, self._graveyard = self._graveyard, []
                    if self._intake is me and not self._links and not graveyard:
                        self._intake = self._wake_w = None
                    live = {
                        link.fileno(): link
                        for link in self._links.values()
                        if not link.dead
                    }
                    ended = self._intake is not me
                for link in graveyard:
                    link.close()
                if ended:
                    return
                poller = select.poll()
                poller.register(wake_r, select.POLLIN)
                for fd in live:
                    poller.register(fd, select.POLLIN)
                for fd, _event in poller.poll(1000):
                    if fd == wake_r.fileno():
                        wake_r.recv(4096)
                        continue
                    link = live[fd]
                    try:
                        self._on_reply(link, link.recv())
                        while link.conn.poll():
                            self._on_reply(link, link.recv())
                    except (EOFError, OSError):
                        # The member is gone: its book waits for the
                        # shape's failure path to surrender it.
                        link.dead = True
                    except Exception:
                        # The reply handler failed: only this link stops,
                        # its book, un-acked batch included, left to the
                        # failure path as a dead member's is.  Reported
                        # as an uncaught exception would be.
                        link.dead = True
                        sys.excepthook(*sys.exc_info())
        finally:
            wake_r.close()
            wake_w.close()

    def _on_reply(self, link: Link, reply) -> None:
        link.pinged = None  # any reply is a heartbeat
        if isinstance(reply, Delta):
            self.on_reply(link, reply)
        elif reply[0] == "digest":
            self._digests[link.key] = reply[1:]
            self.flight.notify()

    def close(self) -> None:
        """Stop the intake and close every channel (after the shape ended
        its members).  The links stay, dead, with whatever their books
        hold, for a later :meth:`_swap` to surrender."""
        with self._lock:
            intake, self._intake = self._intake, None
            links = [*self._links.values(), *self._graveyard]
            self._graveyard = []
            for link in self._links.values():
                link.dead = True
        if intake is not None:
            self._wake()
            intake.join(timeout=5)
        self._wake_w = None
        for link in links:
            link.close()
