"""SliceRegistry: validation, attribution, declarative loading."""

import json

import pytest

from repro.bdd.headerspace import parse_prefix
from repro.slice.registry import SliceRegistry, TenantSpec


def test_spec_validation():
    with pytest.raises(ValueError):
        TenantSpec(name="", prefixes=("10.0.0.0/24",))
    with pytest.raises(ValueError):
        TenantSpec(name="t", prefixes=())
    with pytest.raises(ValueError):
        TenantSpec(name="t", prefixes=("10.0.0.0/24",), queue_share=0.0)
    with pytest.raises(ValueError):
        TenantSpec(name="t", prefixes=("10.0.0.0/24",), queue_share=1.5)


def test_register_rejects_overlap_and_duplicates(server):
    registry = SliceRegistry(server.hs)
    registry.register(TenantSpec(name="a", prefixes=("10.0.0.0/24",)))
    with pytest.raises(ValueError, match="duplicate"):
        registry.register(TenantSpec(name="a", prefixes=("10.9.0.0/24",)))
    # A sub-prefix of an existing tenant's space is an overlap.
    with pytest.raises(ValueError, match="overlaps"):
        registry.register(TenantSpec(name="b", prefixes=("10.0.0.128/25",)))
    # Disjoint space is fine.
    registry.register(TenantSpec(name="c", prefixes=("10.1.0.0/24",)))
    assert sorted(t.name for t in registry) == ["a", "c"]


def test_register_rejects_port_double_ownership(server, scenario, hosts):
    registry = SliceRegistry(server.hs, scenario.topo)
    registry.register(
        TenantSpec(name="a", prefixes=("10.0.0.0/24",), hosts=(hosts[0],))
    )
    with pytest.raises(ValueError, match="owned by both"):
        registry.register(
            TenantSpec(name="b", prefixes=("10.1.0.0/24",), hosts=(hosts[0],))
        )
    # The failed registration must not leave a half-registered tenant.
    assert "b" not in registry.tenants


def test_classify_dst_longest_prefix_wins(server):
    registry = SliceRegistry(server.hs)
    registry.register(TenantSpec(name="coarse", prefixes=("10.0.0.0/16",)))
    # Carve a /24 out via a *disjoint* tenant in other space plus check LPM
    # ordering with nested plens registered by unrelated tenants.
    registry.register(TenantSpec(name="other", prefixes=("10.1.0.0/24",)))
    addr_coarse, _ = parse_prefix("10.0.5.1/32")
    addr_other, _ = parse_prefix("10.1.0.9/32")
    addr_miss, _ = parse_prefix("192.168.0.1/32")
    assert registry.classify_dst(addr_coarse) == "coarse"
    assert registry.classify_dst(addr_other) == "other"
    assert registry.classify_dst(addr_miss) is None


def test_remove_clears_ownership_and_lpm(registry):
    red = registry.tenants["red"]
    registry.remove("red")
    assert "red" not in registry.tenants
    for ref in red.edge_ports:
        assert ref not in registry.port_owner
    value, _ = red.prefixes[0]
    assert registry.classify_dst(value) is None
    # blue unaffected
    assert registry.port_owner
    assert len(registry) == 1


def test_edge_ports_derived_from_topology(registry, scenario, hosts):
    red = registry.tenants["red"]
    assert red.edge_ports == (
        scenario.topo.host_port(hosts[0]),
        scenario.topo.host_port(hosts[1]),
    )
    for ref in red.edge_ports:
        assert registry.port_owner[ref] == "red"


def test_budget_views(registry):
    assert registry.queue_shares() == {"red": 0.25}


def test_entry_resolver_attributes_by_port_owner(server, registry):
    server.refresh_if_dirty()
    resolve = registry.entry_resolver()
    seen = set()
    for inport, outport in server.table.pairs():
        for entry in server.table.lookup(inport, outport):
            seen.add(resolve(inport, outport, entry))
    # Both tenants are attributed; paths outside any footprint (hairpins,
    # non-delivered slices) legitimately resolve to None.
    assert {"red", "blue"} <= seen <= {"red", "blue", None}


def test_load_roundtrip(tmp_path, server, scenario, hosts):
    doc = {
        "tenants": [
            {
                "name": "red",
                "prefixes": [scenario.subnets[hosts[0]]],
                "hosts": [hosts[0]],
                "queue_share": 0.5,
            },
            {
                "name": "blue",
                "prefixes": [scenario.subnets[hosts[2]]],
                "hosts": [hosts[2]],
            },
        ]
    }
    path = tmp_path / "slices.json"
    path.write_text(json.dumps(doc))
    registry = SliceRegistry.load(str(path), server.hs, scenario.topo)
    assert sorted(registry.tenants) == ["blue", "red"]
    assert registry.queue_shares() == {"red": 0.5}
    assert registry.tenants["blue"].spec.queue_share is None
    assert registry.tenants["red"].edge_ports == (
        scenario.topo.host_port(hosts[0]),
    )


def test_parse_specs_rejects_bad_document():
    with pytest.raises(ValueError):
        SliceRegistry.parse_specs({})
    with pytest.raises(ValueError):
        SliceRegistry.parse_specs({"tenants": []})
    # A key the monitor would not act on is refused by name, not ignored.
    tenant = {"name": "t", "prefixes": ["10.0.0.0/24"], "sampling_interval": 0.5}
    with pytest.raises(ValueError, match="sampling_interval"):
        SliceRegistry.parse_specs({"tenants": [tenant]})
    with pytest.raises(ValueError, match="object"):
        SliceRegistry.parse_specs({"tenants": ["red"]})
