"""Frame-native ingestion helpers: socket drain loops and batch screens.

The per-datagram ingest path (one ``recvfrom``, one ``payload_precheck``,
one queue ``put`` per 27-byte report) bounds end-to-end reports/s by Python
overhead, not verification.  This module supplies the shared pieces of the
batched fast path:

* :class:`FrameBuffer` — a preallocated contiguous receive buffer that
  accumulates exact-size datagrams into one frame with zero per-report
  allocations (each receive slot is one byte larger than a report so a
  kernel-truncated oversize datagram is *detected*, not silently eaten),
* :func:`drain_socket` — the non-blocking opportunistic drain
  :class:`~repro.core.listener.UdpReportListener` (the one receive loop,
  in front of either daemon and of a cluster) runs after its one blocking
  wakeup: one ``recvmmsg`` per wakeup where libc has it, one
  ``recv_into`` per datagram elsewhere,
* :func:`screen_frame` — the vectorized equivalent of running
  :func:`~repro.core.reports.payload_precheck` over every row of a frame,
* column extractors (:func:`pair_keys`, :func:`dst_ips`) and
  :func:`shard_split` — batch field access used for shard routing and
  tenant LPM attribution.

Everything degrades to a scalar loop when numpy is unavailable; results are
bit-identical either way (the hypothesis parity suite pins this).
"""

from __future__ import annotations

import ctypes
import errno
import socket
import sys
from typing import List, Optional, Tuple

from .reports import REPORT_SIZE, REPORT_VERSION, payload_precheck

try:  # pragma: no cover - exercised via both branches in CI matrices
    import numpy as np

    HAVE_NUMPY = True
except Exception:  # pragma: no cover
    np = None  # type: ignore[assignment]
    HAVE_NUMPY = False

__all__ = [
    "DEFAULT_INGEST_BATCH",
    "FrameBuffer",
    "drain_socket",
    "screen_frame",
    "pair_keys",
    "dst_ips",
    "shard_split",
    "HAVE_NUMPY",
]

#: Default maximum datagrams drained per socket wakeup.  Large enough to
#: amortise the per-wakeup costs (version screen, queue handoff) well past
#: the point of diminishing returns, small enough that one drain never
#: holds the socket for a latency-visible stretch.
DEFAULT_INGEST_BATCH = 128

#: Knuth multiplicative hash constant — must match the scalar
#: ``ShardedVeriDPDaemon._shard_of`` exactly (parity-tested).
_HASH_MULT = 2654435761


#: A receive slot: one report plus the byte that catches an oversize datagram.
_SLOT_SIZE = REPORT_SIZE + 1


# struct iovec / msghdr / mmsghdr as Linux lays them out (socket(7), recvmmsg(2)).


class _IoVec(ctypes.Structure):
    _fields_ = [("iov_base", ctypes.c_void_p), ("iov_len", ctypes.c_size_t)]


class _MsgHdr(ctypes.Structure):
    _fields_ = [
        ("msg_name", ctypes.c_void_p),
        ("msg_namelen", ctypes.c_uint),
        ("msg_iov", ctypes.POINTER(_IoVec)),
        ("msg_iovlen", ctypes.c_size_t),
        ("msg_control", ctypes.c_void_p),
        ("msg_controllen", ctypes.c_size_t),
        ("msg_flags", ctypes.c_int),
    ]


class _MMsgHdr(ctypes.Structure):
    _fields_ = [("msg_hdr", _MsgHdr), ("msg_len", ctypes.c_uint)]


def _load_recvmmsg():
    """libc's ``recvmmsg``, or ``None`` where there is none to call.

    ``CDLL(None)`` is the process's own symbol table — no file lookup
    (``ctypes.util.find_library`` runs ldconfig or a compiler to find one).
    The structures above are Linux's, and the lengths come back as a numpy
    column: on another platform or without numpy the per-datagram loop
    keeps the job.
    """
    if not HAVE_NUMPY or not sys.platform.startswith("linux"):
        return None
    try:
        libc = ctypes.CDLL(None, use_errno=True)
    except (OSError, TypeError):  # pragma: no cover - no dlopen(NULL) here
        return None
    if not hasattr(libc, "recvmmsg"):
        return None
    fn = libc.recvmmsg
    fn.argtypes = [
        ctypes.c_int,  # sockfd
        ctypes.c_void_p,  # struct mmsghdr *msgvec
        ctypes.c_uint,  # vlen
        ctypes.c_int,  # flags
        ctypes.c_void_p,  # struct timespec *timeout
    ]
    fn.restype = ctypes.c_int
    return fn


_recvmmsg = _load_recvmmsg()
_MMSG_SIZE = ctypes.sizeof(_MMsgHdr)

#: errno values that mean "nothing (more) to receive right now".
_DRAINED = (errno.EAGAIN, errno.EINTR)


class FrameBuffer:
    """Preallocated receive buffer assembling exact-size datagrams into a frame.

    Each receive slot is its own ``REPORT_SIZE + 1`` bytes: a well-formed
    report fills exactly ``REPORT_SIZE`` of them, while any longer datagram
    is truncated by the kernel to ``REPORT_SIZE + 1`` — so ``nbytes`` alone
    distinguishes valid / undersized / oversized without a second syscall.
    Slots do not overlap, so one ``recvmmsg`` can fill many at once; the
    spare byte of each is dropped when :meth:`take` gathers the frame.
    Committed rows are always the first ``rows`` slots: a batch that held
    an odd datagram is compacted, an all-report batch is committed in place.
    """

    __slots__ = (
        "capacity",
        "rows",
        "_buf",
        "_mv",
        "_slots",
        "_iov",
        "_msgs",
        "_msgs_addr",
        "_lens",
    )

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.rows = 0
        self._buf = bytearray(capacity * _SLOT_SIZE)
        self._mv = memoryview(self._buf)
        self._slots = None
        self._msgs = None
        if HAVE_NUMPY:
            # The view pins the bytearray (it cannot be resized while
            # exported), so the slot addresses below stay valid.
            self._slots = np.frombuffer(self._buf, dtype=np.uint8).reshape(
                capacity, _SLOT_SIZE
            )
        if _recvmmsg is not None:
            # One mmsghdr + one iovec per slot, built once: a drain passes
            # the kernel a window of this array and reads msg_len back.
            base = self._slots.ctypes.data
            self._iov = (_IoVec * capacity)()
            self._msgs = (_MMsgHdr * capacity)()
            for i in range(capacity):
                iov = self._iov[i]
                iov.iov_base = base + i * _SLOT_SIZE
                iov.iov_len = _SLOT_SIZE
                hdr = self._msgs[i].msg_hdr
                hdr.msg_iov = ctypes.pointer(iov)
                hdr.msg_iovlen = 1
            self._msgs_addr = ctypes.addressof(self._msgs)
            word = ctypes.sizeof(ctypes.c_uint)
            self._lens = np.frombuffer(self._msgs, dtype=np.uint32)[
                _MMsgHdr.msg_len.offset // word :: _MMSG_SIZE // word
            ]

    @property
    def full(self) -> bool:
        return self.rows >= self.capacity

    def slot(self) -> memoryview:
        """The next receive slot (``REPORT_SIZE + 1`` bytes)."""
        off = self.rows * _SLOT_SIZE
        return self._mv[off : off + _SLOT_SIZE]

    def commit(self) -> None:
        """Accept the current slot's first ``REPORT_SIZE`` bytes as a row."""
        self.rows += 1

    def slot_bytes(self, nbytes: int) -> bytes:
        """Copy out the current (uncommitted) slot's first ``nbytes`` bytes."""
        off = self.rows * _SLOT_SIZE
        return bytes(self._mv[off : off + nbytes])

    def take(self) -> bytes:
        """Return the accumulated frame bytes and reset for the next drain."""
        rows = self.rows
        self.rows = 0
        if self._slots is not None:
            return self._slots[:rows, :REPORT_SIZE].tobytes()
        mv = self._mv
        return b"".join(
            mv[off : off + REPORT_SIZE]
            for off in range(0, rows * _SLOT_SIZE, _SLOT_SIZE)
        )

    def _recv_batch(self, fd: int, want: int, odd: List[Tuple[bytes, int]]) -> int:
        """One ``recvmmsg`` into the next ``want`` free slots.

        Returns the datagrams received (reports are committed, anything
        else is appended to ``odd``), or ``-errno`` when the call failed.
        """
        rows = self.rows
        got = _recvmmsg(
            fd, self._msgs_addr + rows * _MMSG_SIZE, want, socket.MSG_DONTWAIT, None
        )
        if got < 0:
            return -ctypes.get_errno()
        ok = self._lens[rows : rows + got] == REPORT_SIZE
        good = int(np.count_nonzero(ok))
        if good != got:
            slots, lens = self._slots, self._lens
            for i in (~ok).nonzero()[0].tolist():
                nbytes = int(lens[rows + i])
                odd.append((slots[rows + i, :nbytes].tobytes(), nbytes))
            # Close the gaps the odd datagrams left (the fancy-indexed
            # right side is a copy, so the overlap is safe).
            slots[rows : rows + good] = slots[rows + ok.nonzero()[0]]
        self.rows = rows + good
        return got


def drain_socket(
    sock: socket.socket,
    fb: FrameBuffer,
    limit: Optional[int] = None,
) -> Tuple[int, List[Tuple[bytes, int]]]:
    """Non-blocking drain of pending datagrams into ``fb``.

    The socket must be in non-blocking mode.  Returns ``(datagrams,
    oddballs)`` where ``oddballs`` lists every datagram whose size was not
    exactly ``REPORT_SIZE`` as ``(payload_bytes, nbytes)`` — ``nbytes ==
    REPORT_SIZE + 1`` flags an oversize datagram the kernel truncated.
    Stops at the buffer capacity, the optional ``limit``, or an empty
    socket queue, whichever comes first.

    Where libc has ``recvmmsg`` a whole wakeup's datagrams cost one
    syscall (a second only when odd datagrams left slots free); elsewhere,
    and if the kernel refuses the call, the per-datagram loop does the
    same job with the same result.
    """
    count = 0
    odd: List[Tuple[bytes, int]] = []
    batched = fb._msgs is not None
    fd = sock.fileno() if batched else -1
    while not fb.full and (limit is None or count < limit):
        if batched:
            want = fb.capacity - fb.rows
            if limit is not None:
                want = min(want, limit - count)
            got = fb._recv_batch(fd, want, odd)
            if got >= 0:
                count += got
                if got < want:
                    break  # the queue ran dry inside the call
                continue
            if -got in _DRAINED:
                break
            # Not an empty queue: a kernel without the syscall (ENOSYS
            # under a seccomp filter) or a socket fault.  The loop below
            # works on the first and reports the second as it always has.
            batched = False
        try:
            nbytes = sock.recv_into(fb.slot())
        except OSError:
            # Empty queue (EWOULDBLOCK), a signal, or a real socket fault:
            # either way the drain ends and the caller's next *blocking*
            # receive surfaces any persistent error through its own
            # recovery path.
            break
        count += 1
        if nbytes == REPORT_SIZE:
            fb.commit()
        else:
            odd.append((fb.slot_bytes(nbytes), nbytes))
    return count, odd


# ---------------------------------------------------------------------------
# vectorized frame screens and column extraction
# ---------------------------------------------------------------------------


def _rows_view(payload: bytes) -> "np.ndarray":
    """``(n, REPORT_SIZE)`` uint8 view over a frame's bytes (no copy)."""
    return np.frombuffer(payload, dtype=np.uint8).reshape(-1, REPORT_SIZE)


def _check_frame_len(payload: bytes) -> int:
    nrows, rem = divmod(len(payload), REPORT_SIZE)
    if rem:
        raise ValueError(
            f"frame length {len(payload)} is not a multiple of {REPORT_SIZE}"
        )
    return nrows


def screen_frame(payload: bytes) -> Tuple[bytes, List[Tuple[bytes, str]]]:
    """Batch ``payload_precheck`` over every row of a frame.

    Returns ``(clean_frame, rejected)`` where ``clean_frame`` holds the
    rows that pass the screen (in order) and ``rejected`` lists each bad
    row as ``(payload, reason)`` with the *same reason string* the scalar
    :func:`~repro.core.reports.payload_precheck` produces.  Rows are
    ``REPORT_SIZE`` bytes by construction, so only the version byte can
    disqualify one here.
    """
    nrows = _check_frame_len(payload)
    if nrows == 0:
        return b"", []
    if HAVE_NUMPY:
        raw = _rows_view(payload)
        ok = raw[:, 0] == REPORT_VERSION
        if ok.all():
            return (payload if isinstance(payload, bytes) else bytes(payload)), []
        rejected = [
            (
                bytes(raw[i]),
                f"unsupported report version {int(raw[i, 0])}",
            )
            for i in (~ok).nonzero()[0]
        ]
        return raw[ok].tobytes(), rejected
    clean: List[bytes] = []
    rejected = []
    for i in range(nrows):
        row = bytes(payload[i * REPORT_SIZE : (i + 1) * REPORT_SIZE])
        reason = payload_precheck(row)
        if reason is None:
            clean.append(row)
        else:
            rejected.append((row, reason))
    if not rejected:
        return (payload if isinstance(payload, bytes) else bytes(payload)), []
    return b"".join(clean), rejected


def pair_keys(payload: bytes) -> "np.ndarray":
    """Per-row packed ``(inport, outport)`` routing key (``payload[2:6]``)."""
    if not HAVE_NUMPY:
        raise RuntimeError("pair_keys requires numpy")
    _check_frame_len(payload)
    return _rows_view(payload)[:, 2:6].copy().view(">u4").ravel()


def dst_ips(payload: bytes) -> "np.ndarray":
    """Per-row destination IP column (for tenant LPM attribution)."""
    if not HAVE_NUMPY:
        raise RuntimeError("dst_ips requires numpy")
    _check_frame_len(payload)
    return _rows_view(payload)[:, 18:22].copy().view(">u4").ravel()


def shard_split(payload: bytes, workers: int) -> List[bytes]:
    """Partition a frame's rows across ``workers`` shards by pair key.

    Uses the same Knuth multiplicative hash as the scalar
    ``ShardedVeriDPDaemon._shard_of`` — exact in uint64 because both the
    key and the multiplier fit in 32 bits.  Returns one (possibly empty)
    sub-frame per shard; row order is preserved within a shard.
    """
    if workers <= 0:
        raise ValueError(f"workers must be positive, got {workers}")
    nrows = _check_frame_len(payload)
    if workers == 1 or nrows == 0:
        out = [b""] * workers
        if nrows:
            out[0] = payload if isinstance(payload, bytes) else bytes(payload)
        return out
    if HAVE_NUMPY:
        keys = pair_keys(payload).astype(np.uint64)
        shards = ((keys * np.uint64(_HASH_MULT)) >> np.uint64(16)) % np.uint64(
            workers
        )
        raw = _rows_view(payload)
        out = []
        for shard in range(workers):
            mask = shards == shard
            out.append(raw[mask].tobytes() if mask.any() else b"")
        return out
    buckets: List[List[bytes]] = [[] for _ in range(workers)]
    for i in range(nrows):
        row = bytes(payload[i * REPORT_SIZE : (i + 1) * REPORT_SIZE])
        key = int.from_bytes(row[2:6], "big")
        buckets[((key * _HASH_MULT) >> 16) % workers].append(row)
    return [b"".join(rows) for rows in buckets]
