"""Property tests for the BDD engine's connectives.

``and_``, ``or_``, ``diff`` and ``not_`` are each a memoized recursion
(the binary ones on packed keys) and ``xor`` is built from them.  These
tests pin every connective to a textbook recursive ``ite`` across
randomized operand trees, at the default operation cache and at a
two-entry one; check that cache eviction never changes results and that
the ``export_nodes`` / ``from_nodes`` round trip preserves semantic
fingerprints; and run the apply recursion at the ``num_vars`` ceiling.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.bdd.engine import BDD, FALSE, MAX_VARS, TRUE
from repro.persist.snapshot import bdd_fingerprint

NUM_VARS = 6

exprs = st.recursive(
    st.integers(min_value=0, max_value=NUM_VARS - 1).map(lambda i: ("var", i))
    | st.sampled_from([("const", False), ("const", True)]),
    lambda children: st.one_of(
        st.tuples(st.just("not"), children),
        st.tuples(st.just("and"), children, children),
        st.tuples(st.just("or"), children, children),
        st.tuples(st.just("diff"), children, children),
        st.tuples(st.just("xor"), children, children),
        st.tuples(st.just("ite"), children, children, children),
    ),
    max_leaves=16,
)


def reference_ite(bdd: BDD, f: int, g: int, h: int) -> int:
    """Textbook recursive ite over the same node table, memo-free.

    Builds nodes through ``_mk`` only, so canonical hash-consing — not the
    per-connective recursions, not the op caches — is the single shared
    mechanism with the production path.
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
    """Build ``expr`` with the engine's connectives, or with ``reference_ite``
    alone; ``ite`` is the one kind the engine composes from the others."""
    kind = expr[0]
    if kind == "var":
        return bdd.var(expr[1])
    if kind == "const":
        return TRUE if expr[1] else FALSE
    args = [build_with(bdd, sub, use_reference) for sub in expr[1:]]
    if use_reference:
        if kind == "not":
            return reference_ite(bdd, args[0], FALSE, TRUE)
        if kind == "ite":
            return reference_ite(bdd, *args)
        f, g = args
        if kind == "and":
            return reference_ite(bdd, f, g, FALSE)
        if kind == "or":
            return reference_ite(bdd, f, TRUE, g)
        if kind == "diff":
            return reference_ite(bdd, g, FALSE, f)
        return reference_ite(bdd, f, reference_ite(bdd, g, FALSE, TRUE), g)
    if kind == "not":
        return bdd.not_(args[0])
    if kind == "ite":
        f, g, h = args
        return bdd.or_(bdd.and_(f, g), bdd.diff(h, f))
    op = {"and": bdd.and_, "or": bdd.or_, "diff": bdd.diff, "xor": bdd.xor}[kind]
    return op(*args)


@settings(max_examples=200, deadline=None)
@given(exprs)
def test_connectives_match_reference_ite(expr):
    """Every connective ≡ the reference recursive ite, same node ids.

    Sharing one manager means canonicity forces *id* equality, not just
    semantic equivalence — the strongest possible check.  A two-entry
    cache evicts on nearly every insert, so the memos cannot carry it.
    """
    for bdd in (BDD(NUM_VARS), BDD(NUM_VARS, op_cache_max=2)):
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
            bdd.diff(bdd.or_(vars_[i], vars_[j]), vars_[(i + j) % NUM_VARS])
    counters = bdd.cache_counters()
    assert counters["misses"] > 0
    assert counters["evictions"] > 0
    assert len(bdd._or_memo) <= 8 and len(bdd._diff_memo) <= 8
    # A repeated op right after is a memo hit.
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
    assert not bdd._and_memo and not bdd._or_memo and not bdd._diff_memo
    assert bdd.and_(a, b) == before


def test_apply_recursion_reaches_the_num_vars_ceiling():
    """Each connective recurses one frame per level: chains over all
    ``MAX_VARS`` variables that part only at the last level meet there
    without a RecursionError."""
    bdd = BDD(MAX_VARS)
    last = MAX_VARS - 1
    stem = bdd.cube([(level, True) for level in range(last)])
    up = bdd.cube([(level, True) for level in range(MAX_VARS)])
    down = bdd.cube([(level, level != last) for level in range(MAX_VARS)])
    assert bdd.and_(stem, bdd.var(last)) == up
    assert bdd.and_(up, down) == FALSE
    assert bdd.or_(up, down) == stem
    assert bdd.diff(up, down) == up
    assert bdd.diff(stem, down) == up
    assert bdd.xor(up, down) == stem
    assert bdd.and_(bdd.not_(up), up) == FALSE
    assert bdd.count(stem) == 2


def test_num_vars_ceiling_raises():
    assert BDD(MAX_VARS).num_vars == MAX_VARS
    with pytest.raises(ValueError):
        BDD(MAX_VARS + 1)
