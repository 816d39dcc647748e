"""One-call cluster assembly: server + frontend + nodes + coordinator.

:class:`VeriDPCluster` wires the pieces of this package into the shape
the CLI, the tests and the benchmarks all use: an authoritative
:class:`~repro.core.server.VeriDPServer`, a :class:`ClusterFrontend`,
``nodes`` verification members and one :class:`ClusterCoordinator`.
:meth:`VeriDPCluster.listen_udp` puts the daemons' own
:class:`~repro.core.listener.UdpReportListener` in front of the
frontend; a cluster that never listens runs no ingest thread.  It
exposes the daemon-flavoured surface (``submit`` / ``join`` / ``stats``
/ ``stop``) plus the cluster-only verbs (``kill_node`` / ``add_node`` /
``remove_node`` / ``resync``).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..core.ingest import DEFAULT_INGEST_BATCH, screen_frame
from ..core.listener import UdpReportListener
from ..core.reports import Frame
from .coordinator import ClusterCoordinator
from .frontend import ClusterFrontend

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
        self.coordinator = ClusterCoordinator(
            server,
            batch_size=batch_size,
            persist=persist,
            node_mode=node_mode,
            vnodes=vnodes,
        )
        self.frontend: ClusterFrontend = self.coordinator.frontend
        #: The report listener, once :meth:`listen_udp` built it.
        self.ingest: Optional[UdpReportListener] = None
        self._ingest_batch = ingest_batch
        self._running = False
        self._initial_nodes = nodes

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "VeriDPCluster":
        if self._running:
            return self
        self.coordinator.start(self._initial_nodes)
        if self.ingest is not None:
            self.ingest.start()
        self._running = True
        return self

    def stop(self) -> None:
        if not self._running:
            return
        self._running = False
        if self.ingest is not None:
            self.ingest.stop()
        self.coordinator.stop()

    def __enter__(self) -> "VeriDPCluster":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- ingestion ---------------------------------------------------------

    def listen_udp(self, host: str = "127.0.0.1", port: int = 0):
        """Bind the cluster's one report socket and return its address.

        The listener receives at once if the cluster is running, else
        from :meth:`start`; :meth:`stop` stops it.
        """
        if self.ingest is not None:
            raise RuntimeError(
                f"the cluster already listens on {self.ingest.address}"
            )
        self.ingest = UdpReportListener(
            self.frontend, host=host, port=port, ingest_batch=self._ingest_batch
        )
        if self._running:
            self.ingest.start()
        return self.ingest.address

    def submit(self, payload: bytes) -> bool:
        return self.frontend.submit(payload)

    def submit_frame(self, frame: Frame) -> int:
        """Screen a frame of wire rows and route the clean ones; returns
        the rows accepted.  Each rejected row is dead-lettered through
        the frontend, as the report listener does, so it counts once in
        ``submitted`` and once in ``precheck_rejected``."""
        clean, rejected = screen_frame(frame.payload())
        for payload, reason in rejected:
            self.frontend.dead_letter_transport(payload, reason)
        return self.frontend.submit_frame(Frame(clean))

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
        return self.coordinator.stats()

    def metrics_endpoint(self, host: str = "127.0.0.1", port: int = 0):
        return self.coordinator.metrics_endpoint(host=host, port=port)
