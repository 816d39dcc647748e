"""Tenant definitions: header-space footprints and edge-port ownership.

A *tenant* (virtual operator) is declared by the destination prefixes it
owns and the hosts attached to its slice.  The registry compiles each
tenant's prefixes into a footprint BDD **on the shared HeaderSpace** — the
hash-consed node store means N tenants cost one node table, not N — and
derives edge-port ownership from the topology's host attachments.

Footprints must be pairwise disjoint: overlapping prefixes would make
"whose header is this?" ambiguous, so :meth:`SliceRegistry.register`
rejects any tenant whose footprint intersects an existing one.

Hot-path attribution (classifying a report to a tenant) deliberately does
*not* evaluate BDDs: the registry keeps a plain longest-prefix-match dict
over the declared prefixes, so per-report cost is a few integer masks and
dict probes, independent of tenant count.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from ..bdd.headerspace import HeaderSpace, format_ipv4, parse_prefix
from ..netmodel.topology import PortRef, Topology

__all__ = ["TenantSpec", "Tenant", "SliceRegistry"]

#: The keys one tenant of a ``slices.json`` document may set.
_SPEC_KEYS = frozenset({"name", "prefixes", "hosts", "queue_share"})


@dataclass(frozen=True)
class TenantSpec:
    """Declarative description of one tenant (what ``slices.json`` holds)."""

    name: str
    prefixes: Tuple[str, ...]  # "a.b.c.d/len" destination prefixes owned
    hosts: Tuple[str, ...] = ()  # host ids whose attachment ports it owns
    queue_share: Optional[float] = None  # fraction of the ingest queue

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("tenant name must be non-empty")
        if not self.prefixes:
            raise ValueError(f"tenant {self.name!r} declares no prefixes")
        if self.queue_share is not None and not 0 < self.queue_share <= 1:
            raise ValueError(
                f"tenant {self.name!r}: queue_share must be in (0, 1], "
                f"got {self.queue_share}"
            )


@dataclass
class Tenant:
    """A registered tenant: the spec plus its compiled artifacts."""

    spec: TenantSpec
    footprint: int  # BDD of the owned destination header space
    prefixes: Tuple[Tuple[int, int], ...]  # parsed (value, plen)
    edge_ports: Tuple[PortRef, ...] = ()

    @property
    def name(self) -> str:
        return self.spec.name

    def __str__(self) -> str:
        prefixes = ", ".join(
            f"{format_ipv4(v)}/{p}" for v, p in self.prefixes
        )
        ports = ", ".join(str(p) for p in self.edge_ports) or "none"
        return f"tenant {self.name}: prefixes [{prefixes}] ports [{ports}]"


class SliceRegistry:
    """All tenants sharing one fabric, validated for disjointness.

    The registry is bound to one :class:`HeaderSpace` (footprint BDDs live
    in its node table) and optionally a :class:`Topology` (for edge-port
    ownership).  Registration order is preserved — it is the deterministic
    iteration order of views, metrics and isolation checks.
    """

    def __init__(
        self, hs: HeaderSpace, topo: Optional[Topology] = None
    ) -> None:
        self.hs = hs
        self.topo = topo
        self.tenants: Dict[str, Tenant] = {}
        #: edge port -> owning tenant name (delivery targets for isolation).
        self.port_owner: Dict[PortRef, str] = {}
        # Longest-prefix-match attribution table: (masked value, plen) ->
        # tenant name, probed from the longest registered plen down.
        self._lpm: Dict[Tuple[int, int], str] = {}
        self._plens: List[int] = []  # distinct plens, longest first
        # Vectorized-LPM cache (classify_dst_batch): bumped on any
        # register/remove so stale sorted-key arrays are never probed.
        self._lpm_epoch = 0
        self._lpm_vec = None

    def __len__(self) -> int:
        return len(self.tenants)

    def __iter__(self):
        return iter(self.tenants.values())

    # -- registration ------------------------------------------------------

    def register(self, spec: TenantSpec) -> Tenant:
        """Compile and admit one tenant; raises on overlap or name reuse."""
        if spec.name in self.tenants:
            raise ValueError(f"duplicate tenant name {spec.name!r}")
        parsed = tuple(parse_prefix(p) for p in spec.prefixes)
        bdd = self.hs.bdd
        footprint = bdd.or_many(
            [self.hs.prefix("dst_ip", value, plen) for value, plen in parsed]
        )
        if footprint == self.hs.empty:
            raise ValueError(f"tenant {spec.name!r} has an empty footprint")
        for other in self.tenants.values():
            if bdd.and_(footprint, other.footprint) != self.hs.empty:
                raise ValueError(
                    f"tenant {spec.name!r} footprint overlaps "
                    f"tenant {other.name!r}"
                )
        edge_ports: Tuple[PortRef, ...] = ()
        if self.topo is not None and spec.hosts:
            edge_ports = tuple(
                self.topo.host_port(host) for host in spec.hosts
            )
        tenant = Tenant(
            spec=spec,
            footprint=footprint,
            prefixes=parsed,
            edge_ports=edge_ports,
        )
        self.tenants[spec.name] = tenant
        for ref in edge_ports:
            owner = self.port_owner.get(ref)
            if owner is not None and owner != spec.name:
                del self.tenants[spec.name]
                raise ValueError(
                    f"edge port {ref} is owned by both {owner!r} and "
                    f"{spec.name!r}"
                )
            self.port_owner[ref] = spec.name
        for value, plen in parsed:
            self._lpm[(self._mask(value, plen), plen)] = spec.name
        self._plens = sorted(
            {plen for _, plen in self._lpm}, reverse=True
        )
        self._lpm_epoch += 1
        return tenant

    def remove(self, name: str) -> Tenant:
        """Deregister a tenant (its footprint BDD stays hash-consed)."""
        tenant = self.tenants.pop(name)
        for ref in tenant.edge_ports:
            if self.port_owner.get(ref) == name:
                del self.port_owner[ref]
        for value, plen in tenant.prefixes:
            self._lpm.pop((self._mask(value, plen), plen), None)
        self._plens = sorted(
            {plen for _, plen in self._lpm}, reverse=True
        )
        self._lpm_epoch += 1
        return tenant

    @staticmethod
    def _mask(value: int, plen: int) -> int:
        if plen == 0:
            return 0
        return value >> (32 - plen) << (32 - plen)

    # -- attribution -------------------------------------------------------

    def classify_dst(self, dst_ip: int) -> Optional[str]:
        """Owner of a destination address, by longest prefix match."""
        for plen in self._plens:
            owner = self._lpm.get((self._mask(dst_ip, plen), plen))
            if owner is not None:
                return owner
        return None

    def _lpm_tables(self, np):
        """Per-plen ``(plen, sorted masked keys, owner names)`` arrays for
        the vectorized probe, cached until the LPM table changes."""
        cached = self._lpm_vec
        if cached is not None and cached[0] == self._lpm_epoch:
            return cached[1]
        by_plen: Dict[int, List[Tuple[int, str]]] = {}
        for (masked, plen), name in self._lpm.items():
            by_plen.setdefault(plen, []).append((masked, name))
        tables = []
        for plen in self._plens:
            rows = sorted(by_plen.get(plen, ()))
            keys = np.array([m for m, _ in rows], dtype=np.uint32)
            names = np.array([nm for _, nm in rows], dtype=object)
            tables.append((plen, keys, names))
        self._lpm_vec = (self._lpm_epoch, tables)
        return tables

    def classify_dst_batch(self, dst_ips) -> List[Optional[str]]:
        """Vectorized :meth:`classify_dst` over a column of addresses.

        One masked ``searchsorted`` probe per registered prefix length
        replaces per-address dict walks — the batched-ingestion tenant
        attribution path.  Element-for-element identical to the scalar
        probe (parity-tested); scalar fallback when numpy is unavailable.
        """
        try:
            import numpy as np
        except Exception:  # pragma: no cover - numpy is baked into CI
            np = None
        if np is None:
            return [self.classify_dst(int(d)) for d in dst_ips]
        dst = np.asarray(dst_ips, dtype=np.uint32)
        n = int(dst.shape[0])
        out = np.full(n, None, dtype=object)
        if n == 0 or not self._plens:
            return out.tolist()
        unresolved = np.ones(n, dtype=bool)
        for plen, keys, names in self._lpm_tables(np):
            if not keys.shape[0] or not unresolved.any():
                continue
            if plen == 0:
                masked = np.zeros(n, dtype=np.uint32)
            else:
                shift = np.uint32(32 - plen)
                masked = (dst >> shift) << shift
            idx = np.searchsorted(keys, masked)
            # Clamp the off-the-end probes; the equality check below rejects
            # them (masked > every key implies masked != keys[0]).
            idx[idx == keys.shape[0]] = 0
            hit = (keys[idx] == masked) & unresolved
            if hit.any():
                out[hit] = names[idx[hit]]
                unresolved &= ~hit
        return out.tolist()

    def entry_resolver(self) -> Callable:
        """A ``(inport, outport, entry) -> tenant|None`` attribution hook.

        Used by :meth:`repro.core.coverage.CoverageTracker.dark_paths`
        to filter the dark list per tenant: a path belongs to the tenant
        owning its delivery port when that port is owned, else to the
        tenant whose footprint its destination falls in.
        """

        def resolve(inport: PortRef, outport: PortRef, entry) -> Optional[str]:
            owner = self.port_owner.get(outport)
            if owner is not None:
                return owner
            sample = self.hs.sample_header(entry.exit_header_set())
            if sample is None:
                return None
            return self.classify_dst(sample["dst_ip"])

        return resolve

    # -- per-tenant budget views -------------------------------------------

    def queue_shares(self) -> Dict[str, float]:
        """Tenants with an explicit ingest-queue share."""
        return {
            t.name: t.spec.queue_share
            for t in self.tenants.values()
            if t.spec.queue_share is not None
        }

    # -- declarative loading -----------------------------------------------

    @classmethod
    def from_specs(
        cls,
        specs: Iterable[TenantSpec],
        hs: HeaderSpace,
        topo: Optional[Topology] = None,
    ) -> "SliceRegistry":
        registry = cls(hs, topo)
        for spec in specs:
            registry.register(spec)
        return registry

    @staticmethod
    def parse_specs(data: dict) -> List[TenantSpec]:
        """Parse the ``slices.json`` document shape into specs.

        Expected shape::

            {"tenants": [{"name": "red",
                          "prefixes": ["10.0.1.0/24"],
                          "hosts": ["h1"],
                          "queue_share": 0.5}, ...]}

        A tenant key outside that shape is a ``ValueError`` naming it: a
        setting the monitor does not act on must not load as if it did.
        """
        tenants = data.get("tenants")
        if not isinstance(tenants, list) or not tenants:
            raise ValueError("slices document needs a non-empty 'tenants' list")
        specs = []
        for raw in tenants:
            if not isinstance(raw, dict):
                raise ValueError(f"a tenant must be an object, got {raw!r}")
            unknown = sorted(set(raw) - _SPEC_KEYS)
            if unknown:
                raise ValueError(
                    f"tenant {raw.get('name')!r}: unsupported key(s) {unknown}; "
                    f"a tenant takes {sorted(_SPEC_KEYS)}"
                )
            specs.append(
                TenantSpec(
                    name=raw["name"],
                    prefixes=tuple(raw["prefixes"]),
                    hosts=tuple(raw.get("hosts", ())),
                    queue_share=raw.get("queue_share"),
                )
            )
        return specs

    @classmethod
    def load(
        cls,
        path: str,
        hs: HeaderSpace,
        topo: Optional[Topology] = None,
    ) -> "SliceRegistry":
        """Build a registry from a ``slices.json`` file."""
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        return cls.from_specs(cls.parse_specs(data), hs, topo)
