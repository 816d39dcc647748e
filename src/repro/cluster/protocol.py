"""The cluster wire protocol: length-prefixed pickled messages over TCP.

A cluster node and the frontend talk over one connection, and
:class:`MessageStream` is either end of it, shaped like a
``multiprocessing`` pipe end: ``send(obj)`` and ``recv()``.  So a shard
worker's pipe and a node's socket carry the same tuple messages to the
same member loop, :func:`~repro.core.replica.serve_replica`, and the
parent reads the replies through the same
:class:`~repro.core.dispatch.Link`.  Every message is one frame::

    +----------+------------------+
    | len: u32 | body (pickled)   |
    +----------+------------------+

Bodies are pickled Python objects — the cluster is a cooperating set of
processes started from the same codebase, exactly like the sharded
daemon's forked workers, so pickle's trust model is unchanged; what
changes is that the two ends may live on different hosts.

Delivery semantics are built on two facts the member loop guarantees:

* messages on one connection are handled in arrival order,
* a batch's results become visible upstream only through its reply, the
  :class:`~repro.core.replica.Delta` that carries the batch's ``seq``
  with its counts.

The frontend keeps every dispatched batch un-acked until its reply is
merged; a node that dies mid-stream loses the counts of every batch it
never replied to, so redelivering the un-acked batches to the surviving
nodes counts every verdict exactly once (no lost and no duplicated
verdicts — see DESIGN.md §14).
"""

from __future__ import annotations

import pickle
import socket
import struct
import threading
from typing import Any, Optional, Tuple

__all__ = ["MAX_BODY", "MessageStream", "ProtocolError"]

_HEADER = struct.Struct(">I")

#: Hard ceiling on one message body; a length prefix past this is treated
#: as stream corruption rather than an allocation request.
MAX_BODY = 256 * 1024 * 1024

#: Size of a stream's receive buffer: one ``recv_into`` takes up to this
#: many bytes, so back-to-back small messages cost one syscall between them.
#: A larger message grows the buffer for as long as it takes to read it.
_RECV_CHUNK = 64 * 1024


class ProtocolError(ConnectionError):
    """The peer sent bytes that cannot be a protocol frame."""


class MessageStream:
    """One end of a message connection over one TCP socket.

    ``send``/``send_bytes`` may be called from any thread (serialised by a
    lock); ``recv`` expects a single reader per stream (the node's member
    loop, or the dispatcher's reply intake).  Every call blocks.
    """

    def __init__(self, sock: socket.socket) -> None:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock
        self._send_lock = threading.Lock()
        #: Received bytes live in ``_recv_buffer[_recv_start:_recv_end]``.
        self._recv_buffer = bytearray(_RECV_CHUNK)
        self._recv_start = 0
        self._recv_end = 0

    @classmethod
    def connect(
        cls, address: Tuple[str, int], timeout: Optional[float] = 10.0
    ) -> "MessageStream":
        sock = socket.create_connection(address, timeout=timeout)
        sock.settimeout(None)
        return cls(sock)

    def fileno(self) -> int:
        return self._sock.fileno()

    # -- sending -----------------------------------------------------------

    def send(self, obj: Any) -> None:
        """Pickle and send one message."""
        self.send_bytes(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))

    def send_bytes(self, blob: bytes) -> None:
        """Send one message already pickled."""
        with self._send_lock:
            self._sock.sendall(_HEADER.pack(len(blob)) + blob)

    # -- receiving ---------------------------------------------------------

    def _fill(self, count: int) -> None:
        """Make ``count`` unread bytes available or raise ``ConnectionError``
        on EOF.

        Bytes are read straight into the buffer behind the unread ones and
        consumed by advancing ``_recv_start``, so a message's bytes are
        copied once, when it is decoded.  Only the unread tail of a message
        that straddles the buffer's end moves, to the front.
        """
        while self._recv_end - self._recv_start < count:
            buf = self._recv_buffer
            unread = self._recv_end - self._recv_start
            if len(buf) - self._recv_start < count:
                tail = buf[self._recv_start : self._recv_end]
                if count > len(buf):
                    buf = self._recv_buffer = bytearray(count)
                buf[:unread] = tail
                self._recv_start, self._recv_end = 0, unread
            with memoryview(buf) as view:
                got = self._sock.recv_into(view[self._recv_end :])
            if not got:
                raise ConnectionError("peer closed the stream")
            self._recv_end += got

    def poll(self) -> bool:
        """Whether a whole message is read already, so :meth:`recv` returns
        without touching the socket (a poll of the socket would not report
        it)."""
        unread = self._recv_end - self._recv_start
        if unread < _HEADER.size:
            return False
        (length,) = _HEADER.unpack_from(self._recv_buffer, self._recv_start)
        return unread >= _HEADER.size + length

    def recv(self) -> Any:
        """Read one message; ``ConnectionError`` once the peer is gone."""
        self._fill(_HEADER.size)
        (length,) = _HEADER.unpack_from(self._recv_buffer, self._recv_start)
        if length > MAX_BODY:
            raise ProtocolError(
                f"frame announces {length} body bytes (corrupt stream?)"
            )
        self._fill(_HEADER.size + length)
        start = self._recv_start + _HEADER.size
        with memoryview(self._recv_buffer) as view:
            message = pickle.loads(view[start : start + length])
        self._recv_start = start + length
        if self._recv_start == self._recv_end:
            self._recv_start = self._recv_end = 0
            if len(self._recv_buffer) > _RECV_CHUNK:
                # A large message is read: hand its buffer back.
                self._recv_buffer = bytearray(_RECV_CHUNK)
        return message

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - defensive
            pass
