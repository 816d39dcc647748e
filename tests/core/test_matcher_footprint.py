"""Memory gate: the verification state compiled per path entry.

Every path entry's header set is already a BDD in the server's manager.
What verification builds beside it is weighed here with tracemalloc on
Stanford x2, with full rules and LPM-only: the pair fast indexes
(``compile_matchers``), the pair specs a replica holds (``resync_specs``)
and the replica's vector kernel (compiled by its first batch).

When every entry also kept a FlatBDD copy of its matcher, every spec
re-copied it, and pair kernels held Python tuples of big-int cubes, this
came to 3.71 KiB per entry with full rules and 3.14 KiB LPM-only.  Specs
that point into the manager's node lists and packed kernels measure 1.51
and 1.65 KiB; the limits leave about 20% headroom over those.
"""

import gc
import tracemalloc

import pytest

from repro.core.replica import ShardReplica, resync_specs, wire_packing
from repro.core.reports import REPORT_SIZE
from repro.core.server import VeriDPServer
from repro.core.vector import MIN_BATCH
from repro.topologies import build_linear, build_stanford

#: Full rules (ACLs and SSH detours) -> KiB per entry allowed.
LIMIT_KIB = {True: 1.8, False: 2.0}


def compiled_state_bytes(server) -> int:
    """Traced bytes the verification state holds once built, all of it."""
    table, hs = server.table, server.hs
    # A zero frame of MIN_BATCH rows reaches the kernel (which compiles every
    # pair) and comes back malformed; draining drops what it recorded.
    frame = bytes(REPORT_SIZE * MIN_BATCH)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        table.compile_matchers(hs)
        sync = resync_specs(table, hs, server.codec, 1)
        replica = ShardReplica(0, wire_packing(hs.layout), sync.specs[0])
        replica.verify(frame)
        assert replica.drain().malformed == MIN_BATCH
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert replica.vector
    return held


@pytest.fixture(scope="module", autouse=True)
def warm_imports():
    """Build once on a small table so lazy imports are not weighed."""
    scenario = build_linear(3)
    compiled_state_bytes(VeriDPServer(scenario.topo, scenario.channel, fast_path=False))


@pytest.mark.parametrize("full", [True, False], ids=["full_rules", "lpm_only"])
def test_compiled_state_per_entry(full):
    scenario = build_stanford(
        subnets_per_zone=2, with_acls=full, with_ssh_detours=full
    )
    server = VeriDPServer(scenario.topo, scenario.channel, fast_path=False)
    entries = server.table.num_paths()
    per_entry_kib = compiled_state_bytes(server) / entries / 1024
    assert per_entry_kib <= LIMIT_KIB[full], (
        f"{per_entry_kib:.2f} KiB of compiled verification state per path "
        f"entry over {entries} entries (limit {LIMIT_KIB[full]})"
    )
