"""The delivery book: exactly-once batch delivery over one link.

Both multi-process shapes ship report rows to remote replicas in batches:
the sharded daemon to its shard worker processes over a duplex
``multiprocessing`` pipe, the cluster frontend to its verification nodes
over TCP.  Each link keeps one :class:`DeliveryBook`, which

* buffers accepted rows and cuts them into a batch, appending the batch's
  rows to the WAL once, at the cut (WAL-before-verify);
* gives every batch the link's next seq;
* holds the batch un-acked until a reply carrying that seq (the replica's
  ``drain(seq)``) retires it; a reply whose seq is gone is dropped;
* keeps the dispatcher's in-flight count (:class:`InFlight`, one per
  dispatcher, shared by its books);
* surrenders its un-acked and buffered rows when the link dies, so that
  a successor adopts them without logging or counting them again.

A retirement and a surrender exclude each other under the book's lock, so
each batch is answered by exactly one reply, from whichever replica
verified it: every accepted row gets one verdict (DESIGN.md §14.3).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, List, Optional, Tuple

from .reports import REPORT_SIZE

__all__ = ["Batch", "DeliveryBook", "InFlight"]

#: ``(seq, frame, rows)`` of one cut batch.
Batch = Tuple[int, bytes, int]


class InFlight:
    """Rows a dispatcher accepted that have no verdict yet.

    Rows count in at :meth:`DeliveryBook.offer` and out when their batch
    retires; surrendered rows stay counted until the taker adopts them or
    gives them up.  ``changed`` is notified whenever rows retire (and by
    owners with other news for their waiters).
    """

    def __init__(self) -> None:
        self.rows = 0
        self.changed = threading.Condition()

    def add(self, rows: int) -> None:
        with self.changed:
            self.rows += rows
            if rows < 0:
                self.changed.notify_all()

    def notify(self) -> None:
        with self.changed:
            self.changed.notify_all()

    def wait_for(self, predicate: Callable[[], bool], timeout: float) -> bool:
        with self.changed:
            return self.changed.wait_for(predicate, timeout)


class DeliveryBook:
    """The delivery book of one link: see the module docstring.

    ``log(frame)``, when given, appends newly accepted rows to the WAL; it
    is called with the book's lock held, once per row.
    """

    def __init__(
        self,
        flight: InFlight,
        batch_size: int,
        log: Optional[Callable[[bytes], None]] = None,
    ) -> None:
        self.lock = threading.Lock()
        self.flight = flight
        self.batch_size = batch_size
        self.log = log
        self.seq = 0  # last batch seq cut
        #: seq -> frame; insertion order == seq order.
        self.unacked: "OrderedDict[int, bytes]" = OrderedDict()
        self.rows = 0  # rows buffered, not cut yet
        self._fresh: List[bytes] = []  # buffered chunks not in the WAL yet
        self._logged: List[bytes] = []  # buffered chunks adopted from a book
        #: The link is gone: nothing more is cut, rows wait for surrender.
        self.dead = False

    def offer(self, chunk: bytes, rows: int) -> Optional[Batch]:
        """Buffer newly accepted rows; returns the batch to send once the
        buffer reached ``batch_size``.  A dead book still buffers: its
        surrender hands the rows on."""
        with self.lock:
            self._fresh.append(chunk)
            self.rows += rows
            self.flight.add(rows)
            return self._cut_locked() if self.rows >= self.batch_size else None

    def adopt(self, frames: List[bytes]) -> Optional[Batch]:
        """Take over rows another book surrendered (already logged and
        counted in flight) and cut everything buffered into one batch."""
        with self.lock:
            self._logged.extend(frames)
            self.rows += sum(map(len, frames)) // REPORT_SIZE
            return self._cut_locked() if self.rows else None

    def cut(self) -> Optional[Batch]:
        """The partly filled buffer as a batch (end of stream, flush)."""
        with self.lock:
            return self._cut_locked() if self.rows else None

    def _cut_locked(self) -> Optional[Batch]:
        if self.dead:
            return None
        self._log_fresh_locked()
        frame = b"".join(self._logged)
        rows = self.rows
        self._logged = []
        self.rows = 0
        self.seq += 1
        self.unacked[self.seq] = frame
        return self.seq, frame, rows

    def _log_fresh_locked(self) -> None:
        """Append the fresh buffer to the WAL and move it to the logged one."""
        if self._fresh:
            fresh = b"".join(self._fresh)
            self._fresh = []
            if self.log is not None:
                self.log(fresh)
            self._logged.append(fresh)

    def retire(self, seq: int, settle: Optional[Callable[[], None]] = None) -> bool:
        """Retire batch ``seq`` if it is still un-acked, running ``settle``
        (the merge of its reply) under the lock first; False when the
        batch was already retired or surrendered."""
        with self.lock:
            frame = self.unacked.get(seq)
            if frame is None:
                return False
            if settle is not None:
                settle()
            del self.unacked[seq]
            self.flight.add(-(len(frame) // REPORT_SIZE))
        return True

    def has_room(self, seq: int, window: int) -> bool:
        """Whether fewer than ``window`` batches before ``seq`` are
        un-acked (true once ``seq`` itself is gone)."""
        return next(iter(self.unacked), seq) > seq - window

    def answered(self, mark: int) -> bool:
        """Whether every batch up to seq ``mark`` has retired."""
        return next(iter(self.unacked), mark + 1) > mark

    def surrender(self) -> List[bytes]:
        """Close the book and hand over its rows: the un-acked frames, then
        the buffer, all in the WAL by now.  They stay counted in flight."""
        with self.lock:
            self.dead = True
            self._log_fresh_locked()
            frames = [*self.unacked.values(), *self._logged]
            self.unacked.clear()
            self._logged = []
            self.rows = 0
        return frames
