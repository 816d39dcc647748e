"""VeriDP core: tags, path table, verification, localization, updates.

This package is the paper's primary contribution:

* :mod:`repro.core.bloom`        — Bloom-filter path tags (Section 5),
* :mod:`repro.core.pathtable`    — the path table + Algorithm 2,
* :mod:`repro.core.verifier`     — Algorithm 3,
* :mod:`repro.core.localization` — Algorithm 4 + the strawman,
* :mod:`repro.core.incremental`  — Section 4.4 incremental updates,
* :mod:`repro.core.sampling`     — Section 4.5 flow sampling,
* :mod:`repro.core.reports`      — tag-report wire formats (Section 5),
* :mod:`repro.core.server`       — the VeriDP server tying it together,
* :mod:`repro.core.incident`     — the incident record, kept as its wire
  payload and decoded on read,
* :mod:`repro.core.replica`      — one compiled shard of the path table,
  the verification core of sharded workers and cluster nodes,
* :mod:`repro.core.resilience`   — backpressure, dead-lettering and worker
  supervision for the monitoring plane itself,
* :mod:`repro.core.repair`       — automatic flow-table repair (the paper's
  future work #2).
"""

from typing import TYPE_CHECKING

from ..lazy import lazy_exports
from .bloom import BloomTagScheme, XorTagScheme, murmur3_32
from .localization import (
    CandidatePath,
    LocalizationResult,
    PathInferLocalizer,
    StrawmanLocalizer,
)
from .pathtable import (
    PathEntry,
    PathTable,
    PathTableBuilder,
    PathTableStats,
    ReachRecord,
    SnapshotProvider,
)
from .reports import (
    PortCodec,
    ReportDecodeError,
    TagReport,
    pack_report,
    unpack_report,
)
from .resilience import (
    DeadLetter,
    DeadLetterQueue,
    OverflowPolicy,
    PolicyQueue,
    RestartBackoff,
    WorkerSupervisor,
)
from .verifier import BatchVerificationResult, VerificationResult, Verdict, Verifier

if TYPE_CHECKING:
    from .atomic_builder import AtomicPathTableBuilder
    from .direct import VeriDPDaemon
    from .incremental import IncrementalPathTable, LpmProvider, PrefixRuleTree, RuleDelta
    from .listener import UdpReportListener
    from .queries import PolicyChecker, QueryResult
    from .repair import RepairAction, RepairEngine, RepairOutcome, RepairResult
    from .sampling import (
        AlwaysSampler,
        FlowSampler,
        NeverSampler,
        sampling_interval_for,
        worst_case_detection_latency,
    )
    from .incident import Incident
    from .server import VeriDPServer
    from .sharded import ShardedVeriDPDaemon

#: Resolved on first use (``tests/test_import_budget.py`` is the gate): the
#: offline tools no serve shape runs, the incremental updater and flow
#: sampling (only an incremental or durable server and the simulator load
#: them), and the server and daemons, which a cluster node (a replica behind
#: a socket) never needs.
_LAZY = {
    "Incident": "incident",
    "VeriDPServer": "server",
    "ShardedVeriDPDaemon": "sharded",
    "UdpReportListener": "listener",
    "VeriDPDaemon": "direct",
    "AtomicPathTableBuilder": "atomic_builder",
    "PolicyChecker": "queries",
    "QueryResult": "queries",
    "RepairAction": "repair",
    "RepairEngine": "repair",
    "RepairOutcome": "repair",
    "RepairResult": "repair",
    "IncrementalPathTable": "incremental",
    "LpmProvider": "incremental",
    "PrefixRuleTree": "incremental",
    "RuleDelta": "incremental",
    "AlwaysSampler": "sampling",
    "FlowSampler": "sampling",
    "NeverSampler": "sampling",
    "sampling_interval_for": "sampling",
    "worst_case_detection_latency": "sampling",
}

__getattr__, __dir__ = lazy_exports(globals(), _LAZY)


__all__ = [
    "BatchVerificationResult",
    "ShardedVeriDPDaemon",
    "BloomTagScheme",
    "XorTagScheme",
    "murmur3_32",
    "PathEntry",
    "PathTable",
    "PathTableBuilder",
    "AtomicPathTableBuilder",
    "PathTableStats",
    "ReachRecord",
    "SnapshotProvider",
    "Verifier",
    "Verdict",
    "VerificationResult",
    "PathInferLocalizer",
    "StrawmanLocalizer",
    "LocalizationResult",
    "CandidatePath",
    "IncrementalPathTable",
    "LpmProvider",
    "PrefixRuleTree",
    "RuleDelta",
    "FlowSampler",
    "AlwaysSampler",
    "NeverSampler",
    "sampling_interval_for",
    "worst_case_detection_latency",
    "TagReport",
    "PortCodec",
    "ReportDecodeError",
    "pack_report",
    "unpack_report",
    "OverflowPolicy",
    "PolicyQueue",
    "DeadLetter",
    "DeadLetterQueue",
    "RestartBackoff",
    "WorkerSupervisor",
    "VeriDPServer",
    "Incident",
    "VeriDPDaemon",
    "UdpReportListener",
    "RepairEngine",
    "RepairResult",
    "RepairAction",
    "RepairOutcome",
    "PolicyChecker",
    "QueryResult",
]
