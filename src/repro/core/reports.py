"""Tag reports and the VeriDP wire formats (Section 5, "Packet format").

A *tag report* is the 4-tuple ``<inport, outport, header, tag>`` an exit (or
dropping, or TTL-expiring) switch sends to the VeriDP server, encapsulated in
a plain UDP packet in the paper.  This module provides:

* :class:`TagReport` — the in-memory report record,
* :class:`PortCodec` — the 14-bit port encoding (8-bit switch id + 6-bit
  local port id) carried in the second VLAN tag,
* :func:`pack_report` / :func:`unpack_report` — the UDP payload layout, so
  the simulated switches and server exchange real bytes and the encoding
  rules (field widths, drop-port sentinel) are actually exercised.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from ..netmodel.packet import Header
from ..netmodel.rules import DROP_PORT
from ..netmodel.topology import PortRef

__all__ = [
    "TagReport",
    "PortCodec",
    "ReportDecodeError",
    "Frame",
    "pack_report",
    "unpack_report",
    "REPORT_VERSION",
    "REPORT_SIZE",
    "payload_precheck",
    "payload_dst_ip",
]

REPORT_VERSION = 1


class ReportDecodeError(ValueError):
    """A wire payload could not be decoded into a :class:`TagReport`.

    Every decode failure — truncated payload, unknown version, unknown
    switch index, out-of-range port — surfaces as this one typed error, so
    ingestion paths can catch it without also swallowing programming bugs
    (it still subclasses :class:`ValueError` for older call sites).
    """


#: Local port id meaning ``⊥`` inside the 6-bit port field (all ones).
_WIRE_DROP_PORT = 0x3F
#: Maximum encodable real port id (⊥ steals the top code point).
MAX_PORT_ID = 0x3E
#: Maximum number of switches addressable by the 8-bit switch field.
MAX_SWITCHES = 0xFF


class PortCodec:
    """Bidirectional mapping between :class:`PortRef` and 14-bit wire ids.

    The paper encodes the entry port as 8 bits of switch id plus 6 bits of
    port id.  Switch ids are strings in our model, so the codec assigns each
    switch a stable small integer in first-registration order (the real
    system would use datapath ids).
    """

    def __init__(self, switch_ids: Iterable[str] = ()) -> None:
        self._index: Dict[str, int] = {}
        self._names: List[str] = []
        #: wire id -> the one PortRef every decode of it returns (at most
        #: 2**14 of them), so a log of reports does not hold a copy each.
        self._refs: Dict[int, PortRef] = {}
        for sid in switch_ids:
            self.register(sid)

    def register(self, switch_id: str) -> int:
        """Assign (or return) the wire index of a switch."""
        index = self._index.get(switch_id)
        if index is None:
            if len(self._names) > MAX_SWITCHES:
                raise ValueError(
                    f"cannot register {switch_id!r}: 8-bit switch space exhausted"
                )
            index = len(self._names)
            self._index[switch_id] = index
            self._names.append(switch_id)
        return index

    def encode(self, ref: PortRef) -> int:
        """``PortRef -> 14-bit id``; ``⊥`` ports use the reserved port code."""
        try:
            switch_index = self._index[ref.switch]
        except KeyError:
            raise KeyError(f"switch {ref.switch!r} not registered in codec") from None
        if ref.port == DROP_PORT:
            port_code = _WIRE_DROP_PORT
        elif 0 <= ref.port <= MAX_PORT_ID:
            port_code = ref.port
        else:
            raise ValueError(
                f"port {ref.port} of {ref.switch} does not fit in 6 bits"
            )
        return (switch_index << 6) | port_code

    def decode(self, wire_id: int) -> PortRef:
        """``14-bit id -> PortRef``."""
        ref = self._refs.get(wire_id)
        if ref is not None:
            return ref
        if not 0 <= wire_id < (1 << 14):
            raise ValueError(f"wire port id {wire_id} does not fit in 14 bits")
        switch_index = wire_id >> 6
        port_code = wire_id & 0x3F
        try:
            switch_id = self._names[switch_index]
        except IndexError:
            raise ValueError(f"unknown switch index {switch_index}") from None
        port = DROP_PORT if port_code == _WIRE_DROP_PORT else port_code
        ref = self._refs[wire_id] = PortRef(switch_id, port)
        return ref

    def __len__(self) -> int:
        return len(self._names)

    @property
    def id_limit(self) -> int:
        """One past the largest wire id :meth:`decode` accepts."""
        return len(self._names) << 6


@dataclass(frozen=True, slots=True, weakref_slot=True)
class TagReport:
    """The 4-tuple a reporting switch sends to the VeriDP server.

    ``outport.port == DROP_PORT`` reports a rule-level drop; ``ttl_expired``
    marks reports forced by the verification TTL hitting zero (loops).
    Weak-referenceable, so a record that keeps only the wire bytes can hand
    out one decoded report while some reader still holds it.
    """

    inport: PortRef
    outport: PortRef
    header: Header
    tag: int
    ttl_expired: bool = False

    def __str__(self) -> str:
        flag = " (ttl-expired)" if self.ttl_expired else ""
        return f"report {self.inport} -> {self.outport} tag={self.tag:#06x}{flag}"


# UDP payload layout (big-endian):
#   version:1  flags:1  inport:2  outport:2  tag:8
#   src_ip:4  dst_ip:4  proto:1  src_port:2  dst_port:2
_REPORT_STRUCT = struct.Struct(">BBHHQ" + "IIBHH")
#: Exact wire size of one report payload; transports use it to pre-screen
#: datagrams (anything of a different length cannot possibly decode).
REPORT_SIZE = _REPORT_STRUCT.size
_FLAG_TTL_EXPIRED = 0x01


def pack_report(report: TagReport, codec: PortCodec) -> bytes:
    """Serialize a report to its UDP payload bytes."""
    if not 0 <= report.tag < (1 << 64):
        raise ValueError(f"tag {report.tag:#x} exceeds the 64-bit report field")
    flags = _FLAG_TTL_EXPIRED if report.ttl_expired else 0
    header = report.header
    return _REPORT_STRUCT.pack(
        REPORT_VERSION,
        flags,
        codec.encode(report.inport),
        codec.encode(report.outport),
        report.tag,
        header.src_ip,
        header.dst_ip,
        header.proto,
        header.src_port,
        header.dst_port,
    )


def unpack_report(payload: bytes, codec: PortCodec) -> TagReport:
    """Parse UDP payload bytes back into a :class:`TagReport`.

    Raises :class:`ReportDecodeError` for *any* malformed payload —
    truncation, oversize, unknown version, or port ids the codec cannot
    resolve — never a bare ``struct.error``/``KeyError``, so a daemon
    worker thread can treat decode failure as data, not as a crash.
    """
    if len(payload) != _REPORT_STRUCT.size:
        raise ReportDecodeError(
            f"report payload is {len(payload)} bytes, expected {_REPORT_STRUCT.size}"
        )
    try:
        (
            version,
            flags,
            inport_id,
            outport_id,
            tag,
            src_ip,
            dst_ip,
            proto,
            src_port,
            dst_port,
        ) = _REPORT_STRUCT.unpack(payload)
    except struct.error as exc:  # pragma: no cover - length already checked
        raise ReportDecodeError(f"undecodable report payload: {exc}") from None
    if version != REPORT_VERSION:
        raise ReportDecodeError(f"unsupported report version {version}")
    try:
        inport = codec.decode(inport_id)
        outport = codec.decode(outport_id)
    except (ValueError, KeyError, IndexError) as exc:
        raise ReportDecodeError(f"undecodable report port: {exc}") from None
    return TagReport(
        inport=inport,
        outport=outport,
        header=Header(
            src_ip=src_ip,
            dst_ip=dst_ip,
            proto=proto,
            src_port=src_port,
            dst_port=dst_port,
        ),
        tag=tag,
        ttl_expired=bool(flags & _FLAG_TTL_EXPIRED),
    )


class Frame:
    """A contiguous run of wire-format report rows, handled as one unit.

    The batched ingestion path (socket drain loop -> queue -> verifier)
    moves reports around as frames so a report only becomes an individual
    ``bytes`` object on error/salvage paths.  A frame is a window
    ``[start, stop)`` of ``REPORT_SIZE``-byte rows over a shared buffer:
    partial admission (overflow policies) narrows the window instead of
    copying, and ``tenants`` — when set by the quota queue — carries the
    per-row tenant attribution aligned to *absolute* row indexes of
    ``data`` so evictions can release the right occupancy slot.
    """

    __slots__ = ("data", "start", "stop", "tenants")

    def __init__(
        self,
        data: bytes,
        start: int = 0,
        stop: Optional[int] = None,
        tenants: Optional[Tuple[Optional[str], ...]] = None,
    ) -> None:
        nrows, rem = divmod(len(data), REPORT_SIZE)
        if rem:
            raise ValueError(
                f"frame length {len(data)} is not a multiple of {REPORT_SIZE}"
            )
        if stop is None:
            stop = nrows
        if not 0 <= start <= stop <= nrows:
            raise ValueError(f"bad frame window [{start}, {stop}) over {nrows} rows")
        self.data = data
        self.start = start
        self.stop = stop
        self.tenants = tenants

    @property
    def count(self) -> int:
        """Number of rows still in the window."""
        return self.stop - self.start

    def payload(self) -> bytes:
        """The window's rows as one contiguous bytes object (zero-copy when
        the window spans the whole underlying buffer)."""
        if self.start == 0 and self.stop * REPORT_SIZE == len(self.data):
            data = self.data
            return data if isinstance(data, bytes) else bytes(data)
        return bytes(self.data[self.start * REPORT_SIZE : self.stop * REPORT_SIZE])

    def row(self, i: int) -> bytes:
        """Row ``i`` (relative to the window start) as bytes — salvage path."""
        if not 0 <= i < self.count:
            raise IndexError(f"row {i} out of range for {self.count}-row frame")
        off = (self.start + i) * REPORT_SIZE
        return bytes(self.data[off : off + REPORT_SIZE])

    def rows(self) -> "Iterable[bytes]":
        """Iterate the window's rows as individual bytes objects."""
        for i in range(self.count):
            yield self.row(i)

    def split(self, n: int) -> "Frame":
        """Carve the first ``n`` window rows into a new frame (shared buffer)
        and advance this frame's window past them."""
        if not 0 <= n <= self.count:
            raise ValueError(f"cannot split {n} rows off a {self.count}-row frame")
        head = Frame.__new__(Frame)
        head.data = self.data
        head.start = self.start
        head.stop = self.start + n
        head.tenants = self.tenants
        self.start += n
        return head

    def __len__(self) -> int:
        return self.count

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Frame({self.count} rows [{self.start}:{self.stop}])"


def payload_precheck(payload: bytes) -> Optional[str]:
    """Codec-free screen of a raw datagram; ``None`` means plausibly valid.

    Transports use this at the socket edge to route payloads that *cannot*
    decode (wrong length, unknown version byte) straight to dead-lettering
    without spending a queue slot or a worker decode on them.  It is a
    necessary check only — payloads that pass may still fail
    :func:`unpack_report` (e.g. an out-of-range switch index).
    """
    if len(payload) != REPORT_SIZE:
        return f"wrong size {len(payload)} (a wire report is {REPORT_SIZE} bytes)"
    if payload[0] != REPORT_VERSION:
        return f"unsupported report version {payload[0]}"
    return None


def payload_dst_ip(payload: bytes) -> int:
    """The ``dst_ip`` field of a wire report, without building the report."""
    return _REPORT_STRUCT.unpack_from(payload)[6]
