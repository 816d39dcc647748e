"""One shard replica: the verification core behind every remote worker.

VeriDP's server work (paper Section 4.3, Algorithm 3) is one lookup and one
header-set test per report against the ``(inport, outport)`` path table.
A :class:`ShardReplica` holds that table for a slice of the pairs as pair
specs (no codec or topology; each pair's header sets are a
:class:`~repro.bdd.engine.NodePool`), verifies wire frames against it and
keeps what it found until the transport drains it.
Three transports carry one:

* the direct daemon's worker threads
  (:class:`~repro.core.direct.VeriDPDaemon`, in-thread under one lock),
* the sharded daemon's worker process
  (:func:`repro.core.sharded._shard_worker_main`, ``multiprocessing``
  queues),
* the cluster's :class:`~repro.cluster.node.VerificationNode` (TCP
  :class:`~repro.cluster.protocol.MessageStream`).

All three speak the same verbs — :meth:`~ShardReplica.verify`,
:meth:`~ShardReplica.patch`, :meth:`~ShardReplica.reload`,
:meth:`~ShardReplica.digest` and :meth:`~ShardReplica.drain` (after every
batch) — and hand back the same :class:`Delta` record, the one reply a
replica sends.  The replica keeps no metrics: its owner folds each delta's
counts and batch figures into the ``veridp_<role>_*`` families
(:class:`VerdictFamilies`) as it arrives.  The rows it flags go to one
server intake,
:meth:`~repro.core.server.VeriDPServer.receive_report_rows`, whose verdict
is the one of record.  The one behaviour that differs is where an
unknown-pair report goes: a daemon's replica covers its whole hash shard,
so an unknown pair is a verdict (``FAIL_UNKNOWN_PAIR``); a cluster node's
pair may be mid-migration, so the row is set aside for the coordinator,
which holds the authoritative table.

The module also holds the helpers the transports and their parents share:
the shard hash, the picklable pair spec builders, the pair-delta resync
and the replica fingerprint.
"""

from __future__ import annotations

import hashlib
import math
import struct
import time
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from ..obs import DEFAULT_BUCKETS, MetricsRegistry
from .pathtable import PathTable, match_pair
from .reports import _REPORT_STRUCT, REPORT_SIZE, REPORT_VERSION
from .vector import MIN_BATCH, VMALFORMED, VSCALAR, VUNKNOWN, WireBatchVerifier
from .verifier import Verdict

__all__ = [
    "Delta",
    "Resync",
    "ShardReplica",
    "VerdictFamilies",
    "build_one_shard_spec",
    "build_pair_spec",
    "build_shard_specs",
    "replica_digest",
    "resync_specs",
    "unframe_batch",
    "wire_kernel",
    "wire_packing",
]

#: Struct field positions of the header 5-tuple inside a report payload
#: (after version, flags, inport, outport, tag).
_WIRE_FIELD_POS = {
    "src_ip": 0,
    "dst_ip": 1,
    "proto": 2,
    "src_port": 3,
    "dst_port": 4,
}

_PASS = Verdict.PASS.value
_FAIL_MISMATCH = Verdict.FAIL_TAG_MISMATCH.value
_FAIL_NO_PATH = Verdict.FAIL_NO_PATH.value
_FAIL_UNKNOWN = Verdict.FAIL_UNKNOWN_PAIR.value

#: Knuth multiplicative hash constant for spreading (inport, outport) keys.
_HASH_MULT = 2654435761

#: Vector verdict code -> wire verdict value string (codes VPASS..VUNKNOWN).
_VCODE_TO_VALUE = (_PASS, _FAIL_MISMATCH, _FAIL_NO_PATH, _FAIL_UNKNOWN)

_NO_VERDICTS = {v.value: 0 for v in Verdict}

#: How many undecodable payloads a remote replica keeps per delta
#: for dead-lettering upstream (the *count* is always exact; the payload
#: sample is bounded to cap IPC volume under a corruption storm).
_MALFORMED_SAMPLE = 64


def _shard_of(pair_key: int, workers: int) -> int:
    """Shard index for a 32-bit packed ``(inport << 16) | outport`` key."""
    return ((pair_key * _HASH_MULT) >> 16) % workers


def unframe_batch(frame: bytes) -> List[bytes]:
    """Cut a ``REPORT_SIZE``-stride frame back into its payloads."""
    return [
        frame[start : start + REPORT_SIZE]
        for start in range(0, len(frame), REPORT_SIZE)
    ]


def wire_packing(layout) -> Tuple[Tuple[int, int], ...]:
    """``(wire_field_pos, width)`` per layout field, in layout order.

    The replica-side header packing recipe: raises when the layout carries
    a field the wire report format has no slot for.
    """
    packing = []
    for field in layout.fields:
        pos = _WIRE_FIELD_POS.get(field.name)
        if pos is None:
            raise ValueError(
                f"a shard replica needs the wire 5-tuple layout; "
                f"field {field.name!r} is not on the wire"
            )
        packing.append((pos, field.width))
    return tuple(packing)


def wire_kernel(pairs, packing) -> Optional[WireBatchVerifier]:
    """The vector kernel over ``pairs``, or ``None`` where it cannot be
    built (a header packing outside its 65..128-bit wire lanes); the scalar
    matcher then verifies every row."""
    try:
        return WireBatchVerifier(pairs, packing)
    except Exception:
        return None


def build_pair_spec(table: PathTable, hs, inport, outport) -> Optional[tuple]:
    """One pair's picklable replica spec, ``None`` if it vanished.

    The spec is the pair fast index's own ``(tags, pool, by_tag,
    disjoint)`` (:class:`~repro.core.pathtable.PairFastIndex`), shared, not
    copied.  Inside the process the pool is root ids into the BDD
    manager's node lists, so a replica holds no second copy of a matcher,
    and neither does a shard worker forked with it.  Pickling the spec (a
    worker patch, a cluster reload or patch) ships one deduplicated pool of
    just the pair's nodes, so a remote replica never needs the codec,
    topology or BDD manager.  ``None`` is meaningful on the resync path: it
    tells a replica to drop the pair (every path between the ports was
    removed by a rule update).
    """
    index = table.fast_index(inport, outport, hs)
    return None if index is None else index.spec


class Resync(NamedTuple):
    """What brings a set of shard replicas from a journal cursor to now."""

    #: ``table.version``, read before any spec was built.
    version: int
    #: The dirty-journal cursor to resync from next time.
    token: Tuple[int, int]
    #: True: ``specs`` are whole replicas (reload).  False: pair deltas
    #: (patch), where ``None`` drops a pair whose paths all vanished.
    full: bool
    #: One ``{(in_wire, out_wire): spec}`` per shard.
    specs: List[Dict[Tuple[int, int], Optional[tuple]]]


def resync_specs(
    table: PathTable, hs, codec, workers: int, token=None
) -> Resync:
    """The pair specs that bring ``workers`` shard replicas up to date.

    Consumes the table's dirty-pair journal from ``token``: only the pairs
    touched since then are compiled.  Whole replicas are compiled instead
    when there is nothing to resync from (``token`` is ``None``), the
    journal overflowed, or the table object itself was swapped.  Every
    replica owner — the direct daemon, the sharded daemon and the cluster
    coordinator — resyncs through here.
    """
    version = table.version
    token, dirty = table.dirty_since(token)
    specs: List[Dict[Tuple[int, int], Optional[tuple]]] = [
        {} for _ in range(workers)
    ]
    for inport, outport in table.pairs() if dirty is None else dirty:
        spec = build_pair_spec(table, hs, inport, outport)
        if spec is None and dirty is None:  # pragma: no cover - a racing delete
            continue
        in_wire = codec.encode(inport)
        out_wire = codec.encode(outport)
        shard = _shard_of((in_wire << 16) | out_wire, workers)
        specs[shard][(in_wire, out_wire)] = spec
    return Resync(version, token, dirty is None, specs)


def build_shard_specs(
    table: PathTable, hs, codec, workers: int
) -> List[Dict[Tuple[int, int], tuple]]:
    """Compile the path table into per-worker picklable shard replicas."""
    return resync_specs(table, hs, codec, workers).specs


def build_one_shard_spec(
    table: PathTable, hs, codec, workers: int, shard: int
) -> Dict[Tuple[int, int], tuple]:
    """Compile just one shard's replica (a restarted worker's bootstrap).

    Restarting worker ``k`` used to recompile every shard's replica; only
    shard ``k``'s pairs are compiled here, and the survivors are brought up
    to date separately via pair deltas (:func:`resync_specs`).
    """
    spec: Dict[Tuple[int, int], tuple] = {}
    for inport, outport in table.pairs():
        in_wire = codec.encode(inport)
        out_wire = codec.encode(outport)
        if _shard_of((in_wire << 16) | out_wire, workers) != shard:
            continue
        compiled = build_pair_spec(table, hs, inport, outport)
        if compiled is not None:
            spec[(in_wire, out_wire)] = compiled
    return spec


def replica_digest(pairs: Dict[Tuple[int, int], tuple]) -> str:
    """Stable fingerprint of one shard replica.

    Hashes pair keys, tags, tag buckets, the disjointness bit and each
    pair's localized node pool (the canonical form a pickled spec carries,
    *not* manager node ids), so two replicas digest equal iff they verify
    every report identically, whether their specs point into a BDD
    manager or arrived pickled.  Used to assert replicas converged after a
    delta resync.
    """
    digest = hashlib.sha1()
    for key in sorted(pairs):
        tags, pool, by_tag, disjoint = pairs[key]
        local = pool.localized()
        digest.update(repr((key, tags, sorted(by_tag.items()), disjoint)).encode())
        digest.update(repr((local.roots, local.level, local.low, local.high)).encode())
    return digest.hexdigest()


def _verify_wire(
    pairs: Dict[Tuple[int, int], tuple],
    packing: Tuple[Tuple[int, int], ...],
    payload: bytes,
) -> Optional[str]:
    """Verify one wire payload against a shard replica.

    Returns a verdict value string, or ``None`` for malformed payloads:
    a wire decode, then the :class:`~repro.core.verifier.Verifier`'s own
    matcher, :func:`~repro.core.pathtable.match_pair`.
    """
    try:
        fields = _REPORT_STRUCT.unpack(payload)
    except struct.error:
        return None
    if fields[0] != REPORT_VERSION:
        return None
    pair = pairs.get((fields[2], fields[3]))
    if pair is None:
        return _FAIL_UNKNOWN
    value = 0
    for pos, width in packing:
        value = (value << width) | fields[5 + pos]
    tag = fields[4]
    matched = match_pair(pair, tag, value)
    if matched < 0:
        return _FAIL_NO_PATH
    return _PASS if pair[0][matched] == tag else _FAIL_MISMATCH


class Delta(NamedTuple):
    """What one replica verified since its last drain: one batch.

    The one reply every transport sends, once per batch: the direct daemon
    drains it in-thread, a shard worker sends ``("batch", delta)``, a
    cluster node sends it as the ``MSG_BATCH_REPLY`` body.  Besides the
    verdicts it carries the batch's own figures as plain values, which the
    owner folds into its metric families (:class:`VerdictFamilies`).
    """

    #: The replica's id: shard index or node id.
    source: object
    processed: int
    malformed: int
    #: Verdict value -> count.
    counters: Dict[str, int]
    #: ``(payload, verdict value)`` per failing report, in arrival order.
    failures: List[Tuple[bytes, str]]
    #: ``(payload, error)`` per report that crashed verification.
    crashed: List[Tuple[bytes, str]]
    #: Unknown-pair payloads set aside for the coordinator (nodes only).
    unknown: List[bytes]
    #: Undecodable payloads, for dead-lettering (up to the replica's
    #: ``sample_cap``).
    malformed_sample: List[bytes]
    #: The batch seq this answers (the frontend's ack; 0 for shards).
    seq: int
    #: Wall-clock seconds the replica spent verifying.
    seconds: float
    #: Rows whose verdict came from the vector kernel.
    vector_rows: int
    #: Scalar-matcher downgrades by kind (``small``, ``batch``, ``row``).
    fallbacks: Dict[str, int]
    #: Rows per owning tenant (tagged replicas only).
    tenants: Dict[str, int]


class VerdictFamilies:
    """The ``veridp_<role>_*`` families, kept where deltas land.

    A replica's owner — the sharded daemon, the cluster coordinator —
    folds every :class:`Delta` in as it arrives, labelled by its source:
    the replica's own verdicts (before the server's intake settles its
    failures) and the batch's timing, vector rows and fallbacks, so a
    scrape matches the owner's ledger at every moment, a worker that dies
    before its next batch included.  ``tenants`` adds
    ``veridp_cluster_tenant_reports_total`` (tagged replicas).
    """

    def __init__(
        self, registry: MetricsRegistry, role: str, tenants: bool = False
    ) -> None:
        def family(suffix: str, text: str, *labels: str):
            return registry.counter(f"veridp_{role}_{suffix}", text, (role, *labels))

        self._processed = family(
            "processed_total", f"Payloads a {role} replica verified."
        )
        self._malformed = family(
            "malformed_total", f"Payloads a {role} replica could not decode."
        )
        self._verdicts = family(
            "verifications_total", f"Verdicts, by verdict and {role}.", "verdict"
        )
        self._seconds = registry.histogram(
            f"veridp_{role}_batch_seconds",
            f"Wall-clock seconds one {role} replica spent verifying one batch.",
            (role,),
            buckets=DEFAULT_BUCKETS,
        )
        self._batches = family("batches_total", f"Batches a {role} replica verified.")
        self._vector_rows = family(
            "vector_reports_total",
            f"Payloads a {role} replica verified through the vector kernel.",
        )
        self._fallbacks = family(
            "vector_fallback_total",
            "Vector-path downgrades to the scalar matcher, by kind: a whole "
            "batch (kernel error), a single row (irregular pair), or a batch "
            "below the crossover size.",
            "kind",
        )
        self._tenants = None
        if tenants:
            self._tenants = registry.counter(
                "veridp_cluster_tenant_reports_total",
                f"Reports verified per owning tenant, by {role} (sum out the "
                f"{role} label for the fleet-wide per-tenant totals).",
                (role, "tenant"),
            )

    def fold(self, delta: Delta) -> None:
        label = str(delta.source)
        self._processed.labels(label).inc(delta.processed)
        if delta.malformed:
            self._malformed.labels(label).inc(delta.malformed)
        for verdict, count in delta.counters.items():
            if count:
                self._verdicts.labels(label, verdict).inc(count)
        self._seconds.labels(label).observe(delta.seconds)
        self._batches.labels(label).inc()
        self._vector_rows.labels(label).inc(delta.vector_rows)
        for kind, count in delta.fallbacks.items():
            self._fallbacks.labels(label, kind).inc(count)
        if self._tenants is not None:
            for tenant, count in delta.tenants.items():
                self._tenants.labels(label, tenant).inc(count)


class ShardReplica:
    """A compiled slice of the path table that verifies wire frames.

    ``ident`` is the :attr:`Delta.source` of every reply.
    ``set_aside_unknown`` is the one behavioural switch between the
    transports (see the module docstring); ``sample_cap`` bounds the
    bad-version payloads kept per window; ``port_limit`` (the server
    codec's :attr:`~repro.core.reports.PortCodec.id_limit`) makes a row
    whose port id no switch owns malformed, as the server's decode calls
    it, instead of an unknown pair, and keeps every such payload.

    Everything the replica counts stays on plain ints and dicts and leaves
    in each :class:`Delta`; the replica keeps no metrics.  Not
    thread-safe: a transport serialises calls.
    """

    def __init__(
        self,
        ident,
        packing: Tuple[Tuple[int, int], ...],
        pairs: Optional[Dict[Tuple[int, int], tuple]] = None,
        set_aside_unknown: bool = False,
        sample_cap: float = _MALFORMED_SAMPLE,
        port_limit: float = math.inf,
    ) -> None:
        self.ident = ident
        self.packing = tuple(packing)
        self.port_limit = port_limit
        #: (in_wire, out_wire) -> compiled pair spec.
        self.pairs: Dict[Tuple[int, int], tuple] = {} if pairs is None else pairs
        #: (in_wire, out_wire) -> owning tenant (tagged replicas only).
        self.tenants: Dict[Tuple[int, int], str] = {}
        self.set_aside_unknown = set_aside_unknown
        self.sample_cap = sample_cap
        self._kernel = wire_kernel(self.pairs, self.packing)
        self._reset()

    @property
    def vector(self) -> bool:
        """Whether the vector kernel compiled for this replica's packing."""
        return self._kernel is not None

    def _reset(self) -> None:
        self.processed = 0
        self.malformed = 0
        self.counters = dict(_NO_VERDICTS)
        self.failures: List[Tuple[bytes, str]] = []
        self.crashed: List[Tuple[bytes, str]] = []
        self.unknown: List[bytes] = []
        self.malformed_sample: List[bytes] = []
        self.seconds = 0.0
        self.vector_rows = 0
        self.fallbacks: Dict[str, int] = {}
        self.tenant_rows: Dict[str, int] = {}

    # -- replica state -----------------------------------------------------

    def reload(self, pairs, tenants: Optional[Dict] = None) -> None:
        """Swap the whole replica; ``tenants`` tags pairs with their owner."""
        self.pairs = pairs
        self.tenants = {}
        self._tag(tenants)
        if self._kernel is not None:
            self._kernel.reload(pairs)

    def patch(self, changes, tenants: Optional[Dict] = None) -> None:
        """Apply a pair delta: ``None`` drops a pair, a spec (re)places it.

        Only the patched pairs' kernels recompile; untouched pairs keep
        their compiled arrays.
        """
        for key, spec in changes.items():
            self.tenants.pop(key, None)
            if spec is None:
                self.pairs.pop(key, None)
            else:
                self.pairs[key] = spec
        self._tag(tenants)
        if self._kernel is not None:
            self._kernel.invalidate(changes.keys())

    def _tag(self, tenants: Optional[Dict]) -> None:
        """Record tenant owners; a tagged replica counts reports per tenant."""
        if tenants is not None:
            self.tenants.update((k, t) for k, t in tenants.items() if t)

    def digest(self) -> str:
        return replica_digest(self.pairs)

    # -- verification ------------------------------------------------------

    def verify(self, frame: bytes) -> int:
        """Verify one batch: a ``REPORT_SIZE``-stride frame.

        The kernel takes frames of ``MIN_BATCH`` rows or more and accounts
        PASS rows in bulk; every other row — flagged by the kernel, in a
        small frame, or after a kernel error — goes through the scalar
        matcher, so no input changes a verdict.  Returns how many rows the
        kernel passed in bulk.
        """
        started = time.perf_counter()
        n = len(frame) // REPORT_SIZE
        codes = None
        pass_rows = 0
        if self._kernel is not None and n:
            if n < MIN_BATCH:
                self._fallback("small")
            else:
                try:
                    codes = self._kernel.verify_frame(frame)
                except Exception:
                    # A kernel bug must never change a verdict: redo the
                    # whole batch with the scalar matcher.
                    self._fallback("batch")
        if codes is None:
            for start in range(0, len(frame), REPORT_SIZE):
                self._verify_scalar(frame[start : start + REPORT_SIZE])
        else:
            # Healthy rows (code 0 == PASS) are accounted in bulk — only
            # exceptional rows materialise their payload slice.
            flagged = codes.nonzero()[0]
            pass_rows = n - flagged.shape[0]
            self.processed += pass_rows
            self.counters[_PASS] += pass_rows
            vector_rows = pass_rows
            for i in flagged.tolist():
                code = int(codes[i])
                payload = frame[i * REPORT_SIZE : (i + 1) * REPORT_SIZE]
                if code == VSCALAR:
                    self._fallback("row")
                    self._verify_scalar(payload)
                elif code == VMALFORMED:
                    self._count_malformed(payload)
                elif code == VUNKNOWN and self._undecodable(payload):
                    self._count_malformed(payload, keep=True)
                elif code == VUNKNOWN and self.set_aside_unknown:
                    self.unknown.append(payload)
                else:
                    vector_rows += 1
                    self._account(payload, _VCODE_TO_VALUE[code])
            self.vector_rows += vector_rows
        if self.tenants and n:
            self._count_tenants(frame, n)
        self.seconds += time.perf_counter() - started
        return pass_rows

    def _fallback(self, kind: str) -> None:
        self.fallbacks[kind] = self.fallbacks.get(kind, 0) + 1

    def _verify_scalar(self, payload: bytes) -> None:
        # Decode first, exactly like the kernel: a bad-version row is
        # malformed whether or not its pair is placed here.
        try:
            verdict = _verify_wire(self.pairs, self.packing, payload)
        except Exception as exc:
            self.crashed.append((payload, f"{type(exc).__name__}: {exc}"))
            return
        if verdict is None:
            self._count_malformed(payload)
        elif verdict == _FAIL_UNKNOWN and self._undecodable(payload):
            self._count_malformed(payload, keep=True)
        elif verdict == _FAIL_UNKNOWN and self.set_aside_unknown:
            self.unknown.append(payload)
        else:
            self._account(payload, verdict)

    def _undecodable(self, payload: bytes) -> bool:
        """Whether an unknown-pair row names a port no switch owns."""
        limit = self.port_limit
        return (
            int.from_bytes(payload[2:4], "big") >= limit
            or int.from_bytes(payload[4:6], "big") >= limit
        )

    def _account(self, payload: bytes, verdict: str) -> None:
        self.processed += 1
        self.counters[verdict] += 1
        if verdict != _PASS:
            self.failures.append((payload, verdict))

    def _count_malformed(self, payload: bytes, keep: bool = False) -> None:
        self.malformed += 1
        if keep or len(self.malformed_sample) < self.sample_cap:
            self.malformed_sample.append(payload)

    def _count_tenants(self, frame: bytes, n: int) -> None:
        """Per-tenant report attribution for one frame's rows."""
        rows = np.frombuffer(frame, np.uint8, n * REPORT_SIZE).reshape(n, REPORT_SIZE)
        keys = rows[:, 2:6].copy().view(">u4").ravel()
        uniq, counts = np.unique(keys, return_counts=True)
        for key32, count in zip(uniq.tolist(), counts.tolist()):
            tenant = self.tenants.get((key32 >> 16, key32 & 0xFFFF))
            if tenant:
                self.tenant_rows[tenant] = self.tenant_rows.get(tenant, 0) + count

    # -- reply -------------------------------------------------------------

    def drain(self, seq: int = 0) -> Delta:
        """Return what was verified since the last drain, and reset it:
        every transport's per-batch reply, ``seq`` the batch it answers."""
        delta = Delta(
            self.ident,
            self.processed,
            self.malformed,
            self.counters,
            self.failures,
            self.crashed,
            self.unknown,
            self.malformed_sample,
            seq,
            self.seconds,
            self.vector_rows,
            self.fallbacks,
            self.tenant_rows,
        )
        self._reset()
        return delta
