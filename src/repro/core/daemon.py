"""Concurrent VeriDP server daemons.

The paper's prototype verifies ~5x10^5 reports/second single-threaded and
notes "we expect a higher throughput with multi-threading in the future"
(Section 6.4).  This module supplies that deployment shell in two shapes:

* :class:`VeriDPDaemon` (:mod:`repro.core.direct`) — a thread pool
  draining a bounded queue of report frames, one wire-kernel call per
  queue slice; verification counters and the incident log are
  consolidated thread-safely, and localization runs on the worker that
  caught the failure.  CPU-bound verification is still GIL-serialised in
  CPython, so threads buy concurrency (socket + verify overlap), not
  parallelism,
* :class:`ShardedVeriDPDaemon` (:mod:`repro.core.sharded`) — a
  ``multiprocessing`` worker pool sharded by ``(inport, outport)`` hash,
  each worker serving a :class:`~repro.core.replica.ShardReplica` over one
  duplex pipe; the parent consolidates counters and localizes the (rare)
  failures.  This is the mode that turns the GIL-flat throughput curve
  into a scaling one when cores are available,
* :class:`UdpReportListener` (:mod:`repro.core.listener`) — an optional
  real UDP socket (the paper's transport: "tag reports ... are
  encapsulated with plain UDP packets") that feeds received datagrams into
  a daemon as frames.

Every shape ingests frames only: a single payload handed to ``submit`` is
a one-row frame.  This module re-exports the three classes and the replica
helpers their callers build specs with.

Resilience (the monitoring plane's own failure model — see DESIGN.md,
"Failure model of the monitoring plane"):

* ingestion queues are bounded with an explicit
  :class:`~repro.core.resilience.OverflowPolicy` and per-policy drop
  counters — overload is accounted, never silent,
* payloads that fail decoding or crash verification land in a
  :class:`~repro.core.resilience.DeadLetterQueue` with retry-then-
  quarantine semantics instead of killing a worker,
* the sharded daemon is supervised: dead or wedged worker processes are
  detected (exitcode polling + heartbeat pings) and restarted with bounded
  exponential backoff, their compiled path-table replica resynchronised
  against the current :attr:`PathTable.version`; when restarts exceed the
  budget the daemon degrades rather than wedging, each shard's next
  generation the same worker loop on a thread of the parent,
* each worker generation gets its *own* pipe, so a worker killed
  mid-message cannot corrupt the stream its successor reads.

Replicas follow rule updates in place: before new rows reach them, each
daemon patches the pairs the table's dirty journal names, or reloads a
replica whole when the journal overflowed or the table was swapped.
"""

from .direct import VeriDPDaemon
from .listener import UdpReportListener
from .replica import (
    build_one_shard_spec,
    build_pair_spec,
    build_shard_specs,
    wire_packing,
)
from .sharded import ShardedVeriDPDaemon

__all__ = [
    "VeriDPDaemon",
    "ShardedVeriDPDaemon",
    "UdpReportListener",
    "build_one_shard_spec",
    "build_pair_spec",
    "build_shard_specs",
    "wire_packing",
]
