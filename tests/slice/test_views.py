"""TenantPathTable: slicing correctness, journal resync, node sharing."""

from repro.slice.views import TenantPathTable


def _view(server, registry, name):
    return TenantPathTable(
        server.table, server.hs, registry.tenants[name]
    )


def test_view_slices_to_footprint(server, registry):
    server.refresh_if_dirty()
    bdd = server.hs.bdd
    red = registry.tenants["red"]
    view = _view(server, registry, "red")
    assert len(view) > 0
    for inport, outport in view.pairs():
        for entry in view.lookup(inport, outport):
            # Every sliced header set sits inside the footprint...
            assert bdd.diff(entry.headers, red.footprint) == server.hs.empty
            # ...and inside some shared entry for the same pair.
            assert any(
                bdd.diff(entry.headers, shared.headers) == server.hs.empty
                for shared in server.table.lookup(inport, outport)
            )


def test_views_partition_the_table(server, registry):
    """red + blue views cover exactly the paths the resolver attributes."""
    server.refresh_if_dirty()
    red = _view(server, registry, "red")
    blue = _view(server, registry, "blue")
    bdd = server.hs.bdd
    both = bdd.or_(
        registry.tenants["red"].footprint,
        registry.tenants["blue"].footprint,
    )
    # Footprints are disjoint, so the two views partition exactly the
    # shared entries that intersect either footprint (paths outside any
    # tenant's space — hairpins, unowned slices — belong to neither view).
    in_scope = sum(
        1
        for i, o in server.table.pairs()
        for e in server.table.lookup(i, o)
        if bdd.and_(e.headers, both) != server.hs.empty
    )
    assert red.num_paths() + blue.num_paths() == in_scope
    overlap = set(red.pairs()) & set(blue.pairs())
    for inport, outport in overlap:
        red_headers = [e.headers for e in red.lookup(inport, outport)]
        blue_headers = [e.headers for e in blue.lookup(inport, outport)]
        assert not set(red_headers) & set(blue_headers)


def test_incremental_sync_rescans_only_dirty_pairs(server, registry, scenario, hosts):
    server.refresh_if_dirty()
    view = _view(server, registry, "red")
    before = view.pair_syncs
    assert view.sync() == 0  # clean journal: no work
    # Mutate one subnet's behavior at the victim's edge switch (a drop
    # specialization: same-port specializations are behavior no-ops the
    # incremental updater rightly won't dirty).
    from repro.netmodel.rules import DROP_PORT

    subnet = scenario.subnets[hosts[0]]
    switch = scenario.topo.host_port(hosts[0]).switch
    sub = subnet.rsplit("/", 1)[0] + "/26"
    server.apply_rule_update(switch, sub, DROP_PORT)
    synced = view.sync()
    assert 0 < synced < len(server.table.pairs())
    assert view.pair_syncs == before + synced


def test_view_noop_resync_keeps_version(server, registry):
    """Re-slicing an unchanged pair must not bump the view's version."""
    server.refresh_if_dirty()
    view = _view(server, registry, "red")
    version = view.table.version
    for inport, outport in view.pairs():
        assert view._sync_pair(inport, outport) is False
    assert view.table.version == version


def test_retarget_follows_table_swap(server, registry):
    server.refresh_if_dirty()
    view = _view(server, registry, "red")
    paths = view.num_paths()
    view.retarget(server.table)
    assert view.num_paths() == paths
    assert view.full_syncs >= 1


def test_node_store_shared_across_tenant_views(server, registry):
    """N tenant views allocate no duplicate BDD nodes (hash-consing).

    Building every tenant's view twice on the same HeaderSpace must leave
    the node count unchanged the second time, and produce identical
    canonical node ids for every sliced header set — the satellite
    acceptance check that N tenants cost one node table, not N.
    """
    server.refresh_if_dirty()
    views = {
        name: _view(server, registry, name) for name in registry.tenants
    }
    fingerprint = {
        name: [
            (inport, outport, tuple(e.headers for e in view.lookup(inport, outport)))
            for inport, outport in sorted(
                view.pairs(), key=lambda p: (str(p[0]), str(p[1]))
            )
        ]
        for name, view in views.items()
    }
    nodes_after_first = server.hs.bdd.num_nodes()
    rebuilt = {
        name: _view(server, registry, name) for name in registry.tenants
    }
    assert server.hs.bdd.num_nodes() == nodes_after_first
    for name, view in rebuilt.items():
        again = [
            (inport, outport, tuple(e.headers for e in view.lookup(inport, outport)))
            for inport, outport in sorted(
                view.pairs(), key=lambda p: (str(p[0]), str(p[1]))
            )
        ]
        assert again == fingerprint[name]
