"""Property tests for the iterative BDD fast path (ISSUE 5).

The engine's ``ite``/``and_``/``or_``/``not_`` run as iterative worklists
with bounded operation caches; these tests pin them to a reference
recursive implementation across randomized operand trees, check that
cache eviction never changes results, and that the ``export_nodes`` /
``from_nodes`` round trip preserves semantic fingerprints.
"""

from hypothesis import given, settings, strategies as st

from repro.bdd.engine import BDD, FALSE, TRUE
from repro.persist.snapshot import bdd_fingerprint

NUM_VARS = 6

exprs = st.recursive(
    st.integers(min_value=0, max_value=NUM_VARS - 1).map(lambda i: ("var", i))
    | st.sampled_from([("const", False), ("const", True)]),
    lambda children: st.one_of(
        st.tuples(st.just("not"), children),
        st.tuples(st.just("and"), children, children),
        st.tuples(st.just("or"), children, children),
        st.tuples(st.just("ite"), children, children, children),
    ),
    max_leaves=16,
)


def reference_ite(bdd: BDD, f: int, g: int, h: int) -> int:
    """Textbook recursive ite over the same node table, memo-free.

    Builds nodes through ``_mk`` only, so canonical hash-consing — not the
    iterative worklist, not the op caches — is the single shared mechanism
    with the production path.
    """
    if f == TRUE:
        return g
    if f == FALSE:
        return h
    if g == h:
        return g
    if g == TRUE and h == FALSE:
        return f
    level = min(bdd._level[f], bdd._level[g], bdd._level[h])

    def cofactor(u: int, high: bool) -> int:
        if bdd._level[u] != level:
            return u
        return bdd._high[u] if high else bdd._low[u]

    lo = reference_ite(bdd, cofactor(f, False), cofactor(g, False), cofactor(h, False))
    hi = reference_ite(bdd, cofactor(f, True), cofactor(g, True), cofactor(h, True))
    return bdd._mk(level, lo, hi)


def build_with(bdd: BDD, expr, use_reference: bool) -> int:
    kind = expr[0]
    if kind == "var":
        return bdd.var(expr[1])
    if kind == "const":
        return TRUE if expr[1] else FALSE
    if kind == "not":
        u = build_with(bdd, expr[1], use_reference)
        if use_reference:
            return reference_ite(bdd, u, FALSE, TRUE)
        return bdd.not_(u)
    if kind == "ite":
        f = build_with(bdd, expr[1], use_reference)
        g = build_with(bdd, expr[2], use_reference)
        h = build_with(bdd, expr[3], use_reference)
        if use_reference:
            return reference_ite(bdd, f, g, h)
        return bdd.ite(f, g, h)
    f = build_with(bdd, expr[1], use_reference)
    g = build_with(bdd, expr[2], use_reference)
    if use_reference:
        if kind == "and":
            return reference_ite(bdd, f, g, FALSE)
        return reference_ite(bdd, f, TRUE, g)
    return bdd.and_(f, g) if kind == "and" else bdd.or_(f, g)


@settings(max_examples=200, deadline=None)
@given(exprs)
def test_iterative_matches_reference_recursive(expr):
    """Iterative worklist ite/apply ≡ reference recursive, same node ids.

    Sharing one manager means canonicity forces *id* equality, not just
    semantic equivalence — the strongest possible check.
    """
    bdd = BDD(NUM_VARS)
    assert build_with(bdd, expr, False) == build_with(bdd, expr, True)


@settings(max_examples=100, deadline=None)
@given(exprs)
def test_tiny_op_cache_only_costs_recomputation(expr):
    """A pathologically small bounded cache (constant eviction) cannot
    change any result."""
    roomy = BDD(NUM_VARS)
    tiny = BDD(NUM_VARS, op_cache_max=4)
    want = build_with(roomy, expr, False)
    got = build_with(tiny, expr, False)
    assert bdd_fingerprint(tiny, got) == bdd_fingerprint(roomy, want)


@settings(max_examples=100, deadline=None)
@given(st.lists(exprs, min_size=1, max_size=5))
def test_many_op_reduction_matches_pairwise(batch):
    bdd = BDD(NUM_VARS)
    nodes = [build_with(bdd, expr, False) for expr in batch]
    anded = nodes[0]
    ored = nodes[0]
    for node in nodes[1:]:
        anded = bdd.and_(anded, node)
        ored = bdd.or_(ored, node)
    assert bdd.and_many(nodes) == anded
    assert bdd.or_many(nodes) == ored


@settings(max_examples=100, deadline=None)
@given(st.lists(exprs, min_size=1, max_size=4))
def test_from_nodes_round_trip_preserves_fingerprints(batch):
    bdd = BDD(NUM_VARS)
    roots = [build_with(bdd, expr, False) for expr in batch]
    clone = BDD.from_nodes(NUM_VARS, *bdd.export_nodes())
    for root in roots:
        assert bdd_fingerprint(clone, root) == bdd_fingerprint(bdd, root)


def test_cache_counters_move_and_eviction_bounds_cache():
    bdd = BDD(NUM_VARS, op_cache_max=8)
    vars_ = [bdd.var(i) for i in range(NUM_VARS)]
    for i in range(NUM_VARS):
        for j in range(NUM_VARS):
            bdd.ite(vars_[i], vars_[j], FALSE)
    counters = bdd.cache_counters()
    assert counters["misses"] > 0
    assert counters["evictions"] > 0
    assert len(bdd._ite_cache) <= 8
    # A repeated op right after is a hit (memo or ite cache).
    before = bdd.cache_counters()["hits"]
    bdd.and_(vars_[0], vars_[1])
    bdd.and_(vars_[0], vars_[1])
    assert bdd.cache_counters()["hits"] > before


def test_new_generation_clears_op_caches_keeps_results_valid():
    bdd = BDD(NUM_VARS)
    a, b = bdd.var(0), bdd.var(1)
    before = bdd.and_(a, b)
    gen = bdd.generation
    assert bdd.new_generation() == gen + 1
    assert not bdd._ite_cache and not bdd._and_memo
    assert bdd.and_(a, b) == before
