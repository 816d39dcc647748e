"""The cluster wire protocol: length-prefixed messages over TCP.

Every conversation between the ingestion frontend, the verification nodes
and the coordinator uses one frame shape::

    +---------+----------+------------------+
    | len: u32| type: u8 | body (pickled)   |
    +---------+----------+------------------+

``len`` counts the body bytes only (the type byte is fixed overhead), so a
reader can allocate exactly once per message.  Bodies are pickled Python
objects — the cluster is a cooperating set of processes started from the
same codebase, exactly like the ``multiprocessing`` queues it replaces, so
pickle's trust model is unchanged; what changes is that the two ends may
now live on different hosts.

Report *batches* ride inside a message as one concatenated frame of
``REPORT_SIZE``-stride payloads — the same packing the sharded daemon's
worker queues use, so the vector kernel can skip the per-payload length
screen on the far side.  A wrong-sized payload never gets this far: the
frontend turns it away at the door.

Delivery semantics are built on two facts the node guarantees:

* messages on one connection are processed in arrival order,
* a batch's results become visible upstream only through its
  ``BATCH_REPLY``, which carries the batch's ``seq`` with its counts.

The frontend keeps every dispatched batch un-acked until its reply is
merged; a node that dies mid-stream loses the counts of every batch it
never replied to, so redelivering the un-acked batches to the surviving
nodes counts every verdict exactly once (no lost and no duplicated
verdicts — see DESIGN.md §14).  The batch reply is the only message that
carries counts or metrics: a node keeps none of its own.
"""

from __future__ import annotations

import pickle
import socket
import struct
import threading
from typing import Any, Optional, Tuple

__all__ = [
    "MessageStream",
    "ProtocolError",
    "MSG_HELLO",
    "MSG_HELLO_REPLY",
    "MSG_BATCH",
    "MSG_BATCH_REPLY",
    "MSG_PATCH",
    "MSG_RELOAD",
    "MSG_DIGEST",
    "MSG_DIGEST_REPLY",
    "MSG_PING",
    "MSG_PONG",
    "MSG_STOP",
    "message_name",
]

# -- message types ----------------------------------------------------------

MSG_HELLO = 1  # (sender_kind,) -> expects MSG_HELLO_REPLY
MSG_HELLO_REPLY = 2  # (node_id, pair_count)
MSG_BATCH = 3  # (seq, frame) -> expects MSG_BATCH_REPLY
# Types 4 and 5 (a flush barrier and its reply) are retired: never reuse.
MSG_PATCH = 6  # {pair_key: (spec, tenant) | None} — apply delta, no reply
MSG_RELOAD = 7  # {pair_key: (spec, tenant)} — replace replica, no reply
MSG_DIGEST = 8  # (token,) -> expects MSG_DIGEST_REPLY
MSG_DIGEST_REPLY = 9  # (node_id, token, sha1hex)
MSG_PING = 10  # (seq,) -> expects MSG_PONG
MSG_PONG = 11  # (node_id, seq)
MSG_STOP = 12  # () — node exits its serve loop
MSG_BATCH_REPLY = 13  # Delta: one batch's counts, figures, failures and seq

_NAMES = {
    MSG_HELLO: "hello",
    MSG_HELLO_REPLY: "hello_reply",
    MSG_BATCH: "batch",
    MSG_PATCH: "patch",
    MSG_RELOAD: "reload",
    MSG_DIGEST: "digest",
    MSG_DIGEST_REPLY: "digest_reply",
    MSG_PING: "ping",
    MSG_PONG: "pong",
    MSG_STOP: "stop",
    MSG_BATCH_REPLY: "batch_reply",
}

_HEADER = struct.Struct(">IB")

#: Hard ceiling on one message body; a length prefix past this is treated
#: as stream corruption rather than an allocation request.
MAX_BODY = 256 * 1024 * 1024

#: Size of a stream's receive buffer: one ``recv_into`` takes up to this
#: many bytes, so back-to-back small messages cost one syscall between them.
#: A larger message grows the buffer for as long as it takes to read it.
_RECV_CHUNK = 64 * 1024


def message_name(mtype: int) -> str:
    return _NAMES.get(mtype, f"type-{mtype}")


class ProtocolError(ConnectionError):
    """The peer sent bytes that cannot be a protocol frame."""


class MessageStream:
    """A blocking, thread-safe message pipe over one TCP socket.

    ``send`` may be called from any thread (serialised by a lock);
    ``recv`` is expected to have a single reader per stream (the node's
    per-connection thread, or the dispatcher's reply intake).
    """

    def __init__(self, sock: socket.socket) -> None:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock
        self._send_lock = threading.Lock()
        #: Received bytes live in ``_recv_buffer[_recv_start:_recv_end]``.
        self._recv_buffer = bytearray(_RECV_CHUNK)
        self._recv_start = 0
        self._recv_end = 0
        self.sent_messages = 0
        self.sent_bytes = 0
        self.received_messages = 0

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

    def send(self, mtype: int, body: Any = ()) -> int:
        """Frame and send one message; returns the body size in bytes."""
        blob = pickle.dumps(body, protocol=pickle.HIGHEST_PROTOCOL)
        header = _HEADER.pack(len(blob), mtype)
        with self._send_lock:
            self._sock.sendall(header + blob)
            self.sent_messages += 1
            self.sent_bytes += len(blob) + _HEADER.size
        return len(blob)

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
                raise ConnectionError("peer closed the stream mid-message")
            self._recv_end += got

    def buffered(self) -> bool:
        """Whether a whole message is read already (a poll of the socket
        would not report it)."""
        unread = self._recv_end - self._recv_start
        if unread < _HEADER.size:
            return False
        length, _mtype = _HEADER.unpack_from(self._recv_buffer, self._recv_start)
        return unread >= _HEADER.size + length

    def recv(self, timeout: Optional[float] = None) -> Tuple[int, Any]:
        """Read one ``(type, body)`` message.

        ``timeout`` bounds the wait for the *start* of a message (used by
        request/reply turns); ``socket.timeout`` propagates to the caller.
        Between calls the socket blocks (a send never times out), so a
        ``None`` wait costs no timeout switch.
        """
        if timeout is not None:
            self._sock.settimeout(timeout)
        try:
            self._fill(_HEADER.size)
            length, mtype = _HEADER.unpack_from(self._recv_buffer, self._recv_start)
            if length > MAX_BODY:
                raise ProtocolError(
                    f"frame announces {length} body bytes (corrupt stream?)"
                )
            self._fill(_HEADER.size + length)
            start = self._recv_start + _HEADER.size
            body = ()
            if length:
                with memoryview(self._recv_buffer) as view:
                    body = pickle.loads(view[start : start + length])
            self._recv_start = start + length
            if self._recv_start == self._recv_end:
                self._recv_start = self._recv_end = 0
                if len(self._recv_buffer) > _RECV_CHUNK:
                    # A large message is read: hand its buffer back.
                    self._recv_buffer = bytearray(_RECV_CHUNK)
        finally:
            if timeout is not None:
                try:
                    self._sock.settimeout(None)
                except OSError:  # closed under us mid-recv; the raise stands
                    pass
        self.received_messages += 1
        return mtype, body

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
