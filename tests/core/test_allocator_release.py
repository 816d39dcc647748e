"""The allocator release at the end of server construction is portable.

``VeriDPServer.__init__`` hands malloc's free pages back to the OS
(``malloc_trim(0)``) once the table build's scratch is retired, so shard
workers and cluster nodes forked later do not inherit it.  Where libc
cannot be opened or has no ``malloc_trim`` (it is a glibc extension), the
server is built all the same.  An update flush never releases: it keeps
its apply memos for the next flush.
"""

import ctypes

import pytest

import repro.core.server as server_module
from repro.core.server import VeriDPServer, release_free_memory
from repro.topologies import build_linear
from repro.topologies.base import lpm_ruleset_for


class _LibcWithoutTrim:
    """A libc handle that exports everything but ``malloc_trim``."""

    def __init__(self, *args, **kwargs) -> None:
        pass

    def __getattr__(self, name):
        raise AttributeError(name)


def _no_dlopen(*args, **kwargs):
    raise OSError("dlopen(NULL) is not available here")


@pytest.mark.parametrize("cdll", [_LibcWithoutTrim, _no_dlopen])
def test_server_builds_without_malloc_trim(monkeypatch, cdll):
    monkeypatch.setattr(ctypes, "CDLL", cdll)
    assert release_free_memory() is False
    scenario = build_linear(4)
    server = VeriDPServer(scenario.topo, scenario.channel)
    assert server.stats()["bdd_generation"] == 1
    assert len(server.table) > 0


def test_release_runs_where_libc_has_it():
    if not hasattr(ctypes.CDLL(None), "malloc_trim"):
        pytest.skip("this libc has no malloc_trim")
    assert release_free_memory() is True


def test_construction_releases_once_and_flushes_never(monkeypatch):
    calls = []
    monkeypatch.setattr(
        server_module, "release_free_memory", lambda: calls.append(1) or True
    )
    scenario = build_linear(4, install_routes=False)
    server = VeriDPServer(
        scenario.topo, channel=None, incremental=True, coalesce_ms=5.0
    )
    assert calls == [1]
    ruleset = lpm_ruleset_for(scenario.topo, scenario.subnets)
    for switch in sorted(ruleset):
        for prefix, port in ruleset[switch]:
            server.apply_rule_update(switch, prefix, port)
    stats = server.flush_pending_updates()
    assert stats is not None and stats.events > 0
    assert calls == [1]
