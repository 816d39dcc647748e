"""One-call cluster assembly: server + frontend + nodes + coordinator.

:class:`VeriDPCluster` wires the pieces of this package into the shape
the CLI, the tests and the benchmarks all use: an authoritative
:class:`~repro.core.server.VeriDPServer`, a :class:`ClusterFrontend`
with its :class:`SelectorIngest`, ``nodes`` verification members and one
:class:`ClusterCoordinator`.  It exposes the daemon-flavoured surface
(``submit`` / ``join`` / ``stats`` / ``stop``) plus the cluster-only
verbs (``kill_node`` / ``add_node`` / ``remove_node`` / ``resync``).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..core.ingest import DEFAULT_INGEST_BATCH
from .coordinator import ClusterCoordinator
from .frontend import ClusterFrontend, SelectorIngest

__all__ = ["VeriDPCluster"]


class VeriDPCluster:
    """A whole verification cluster behind one object."""

    def __init__(
        self,
        server,
        nodes: int = 3,
        node_mode: str = "thread",
        batch_size: int = 256,
        ingest_batch: int = DEFAULT_INGEST_BATCH,
        vnodes: int = 64,
        persist=None,
    ) -> None:
        self.server = server
        self.frontend = ClusterFrontend(
            batch_size=batch_size,
            persist=persist if persist is not None else server.persist,
        )
        self.coordinator = ClusterCoordinator(
            server,
            frontend=self.frontend,
            node_mode=node_mode,
            vnodes=vnodes,
        )
        self.ingest = SelectorIngest(self.frontend, ingest_batch=ingest_batch)
        self._running = False
        self._initial_nodes = nodes

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "VeriDPCluster":
        if self._running:
            return self
        self.coordinator.start(self._initial_nodes)
        self.ingest.start()
        self._running = True
        return self

    def stop(self) -> None:
        if not self._running:
            return
        self._running = False
        self.ingest.stop()
        self.coordinator.stop()

    def __enter__(self) -> "VeriDPCluster":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- ingestion ---------------------------------------------------------

    def listen_udp(self, host: str = "127.0.0.1", port: int = 0):
        return self.ingest.listen_udp(host, port)

    def listen_tcp(self, host: str = "127.0.0.1", port: int = 0):
        return self.ingest.listen_tcp(host, port)

    def submit(self, payload: bytes) -> bool:
        return self.frontend.submit(payload)

    def submit_frame(self, frame) -> int:
        return self.frontend.submit_frame(frame)

    # -- orchestration (delegation) ----------------------------------------

    def join(self, timeout: float = 30.0) -> None:
        self.coordinator.join(timeout=timeout)

    def flush(self) -> None:
        """Dispatch every partial buffer (the serve loop's timer tick)."""
        self.frontend.flush_buffers()

    def resync(self):
        return self.coordinator.resync()

    def add_node(self, node_id: Optional[str] = None) -> str:
        return self.coordinator.add_node(node_id)

    def remove_node(self, node_id: str) -> None:
        self.coordinator.remove_node(node_id)

    def kill_node(self, node_id: str) -> None:
        self.coordinator.kill_node(node_id)

    def check_nodes(self) -> List[str]:
        return self.coordinator.check_nodes()

    def nodes(self) -> List[str]:
        return self.coordinator.members()

    def converged(self) -> bool:
        return self.coordinator.converged()

    def stats(self) -> Dict[str, object]:
        out = self.coordinator.stats()
        out["engine"] = self.ingest.engine
        return out

    def metrics_endpoint(self, host: str = "127.0.0.1", port: int = 0):
        return self.coordinator.metrics_endpoint(host=host, port=port)
