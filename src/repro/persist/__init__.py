"""Durable state for the VeriDP monitor: WAL, snapshots, recovery, replay.

The paper treats the VeriDP server as an always-on monitor, but a monitor
that forgets its path table (minutes of Algorithm 2 on Stanford-scale
networks) and its evidence (the sampled report stream) on every restart is
not continuous.  This package adds durability with stdlib only:

* :mod:`repro.persist.wal`      — an append-only, CRC-checksummed,
  segment-rotated write-ahead log carrying control-plane rule changes and
  sampled tag reports in one global sequence, with configurable fsync
  policies and torn-tail recovery,
* :mod:`repro.persist.snapshot` — versioned, atomically-renamed path-table
  checkpoints (BDD node table included) with retention,
* :mod:`repro.persist.recovery` — boot = newest valid snapshot + WAL
  suffix replay through the Section 4.4 incremental updater,
* :mod:`repro.persist.replay`   — deterministic offline re-verification of
  the logged report stream (``python -m repro replay <state-dir>``),
  bisectable by WAL sequence number.
"""

from .recovery import (
    BootResult,
    PersistentState,
    RecoveryError,
    capture_state,
    lpm_rules_from_topology,
    restore_state,
    stage_control_event,
)
from .replay import ReplayIncident, ReplayResult, incident_key, replay
from .snapshot import (
    SNAPSHOT_FORMAT,
    SnapshotError,
    SnapshotStore,
    bdd_fingerprint,
    read_snapshot,
    table_fingerprint,
    write_snapshot,
)
from .wal import (
    RT_CONTROL,
    RT_MALFORMED,
    RT_REPORT,
    ControlEvent,
    WalError,
    WalRecord,
    WriteAheadLog,
)

__all__ = [
    "WriteAheadLog",
    "WalRecord",
    "WalError",
    "ControlEvent",
    "RT_CONTROL",
    "RT_REPORT",
    "RT_MALFORMED",
    "SnapshotStore",
    "SnapshotError",
    "SNAPSHOT_FORMAT",
    "write_snapshot",
    "read_snapshot",
    "bdd_fingerprint",
    "table_fingerprint",
    "PersistentState",
    "stage_control_event",
    "BootResult",
    "RecoveryError",
    "capture_state",
    "restore_state",
    "lpm_rules_from_topology",
    "ReplayResult",
    "ReplayIncident",
    "replay",
    "incident_key",
]
