"""Property-based tests for the BDD engine (hypothesis)."""

from hypothesis import given, settings, strategies as st

from repro.bdd.engine import BDD, FALSE, TRUE
from repro.bdd.headerspace import range_to_prefixes

NUM_VARS = 6

# A boolean expression tree over NUM_VARS variables.
exprs = st.recursive(
    st.integers(min_value=0, max_value=NUM_VARS - 1).map(lambda i: ("var", i))
    | st.sampled_from([("const", False), ("const", True)]),
    lambda children: st.one_of(
        st.tuples(st.just("not"), children),
        st.tuples(st.just("and"), children, children),
        st.tuples(st.just("or"), children, children),
        st.tuples(st.just("xor"), children, children),
    ),
    max_leaves=12,
)


def build_bdd(bdd: BDD, expr) -> int:
    kind = expr[0]
    if kind == "var":
        return bdd.var(expr[1])
    if kind == "const":
        return TRUE if expr[1] else FALSE
    if kind == "not":
        return bdd.not_(build_bdd(bdd, expr[1]))
    ops = {"and": bdd.and_, "or": bdd.or_, "xor": bdd.xor}
    return ops[kind](build_bdd(bdd, expr[1]), build_bdd(bdd, expr[2]))


def eval_expr(expr, assignment) -> bool:
    kind = expr[0]
    if kind == "var":
        return assignment[expr[1]]
    if kind == "const":
        return expr[1]
    if kind == "not":
        return not eval_expr(expr[1], assignment)
    a = eval_expr(expr[1], assignment)
    b = eval_expr(expr[2], assignment)
    return {"and": a and b, "or": a or b, "xor": a != b}[kind]


def all_assignments():
    for bits in range(1 << NUM_VARS):
        yield {i: bool((bits >> i) & 1) for i in range(NUM_VARS)}


class TestSemantics:
    @given(exprs)
    @settings(max_examples=150, deadline=None)
    def test_bdd_matches_brute_force(self, expr):
        bdd = BDD(NUM_VARS)
        node = build_bdd(bdd, expr)
        for assignment in all_assignments():
            assert bdd.evaluate(node, assignment) == eval_expr(expr, assignment)

    @given(exprs)
    @settings(max_examples=150, deadline=None)
    def test_count_matches_brute_force(self, expr):
        bdd = BDD(NUM_VARS)
        node = build_bdd(bdd, expr)
        expected = sum(eval_expr(expr, a) for a in all_assignments())
        assert bdd.count(node) == expected

    @given(exprs, exprs)
    @settings(max_examples=100, deadline=None)
    def test_canonicity(self, e1, e2):
        """Semantically equal functions get identical node ids."""
        bdd = BDD(NUM_VARS)
        n1, n2 = build_bdd(bdd, e1), build_bdd(bdd, e2)
        semantically_equal = all(
            eval_expr(e1, a) == eval_expr(e2, a) for a in all_assignments()
        )
        assert (n1 == n2) == semantically_equal

    @given(exprs)
    @settings(max_examples=100, deadline=None)
    def test_double_negation(self, expr):
        bdd = BDD(NUM_VARS)
        node = build_bdd(bdd, expr)
        assert bdd.not_(bdd.not_(node)) == node

    @given(exprs, exprs)
    @settings(max_examples=100, deadline=None)
    def test_de_morgan(self, e1, e2):
        bdd = BDD(NUM_VARS)
        a, b = build_bdd(bdd, e1), build_bdd(bdd, e2)
        assert bdd.not_(bdd.and_(a, b)) == bdd.or_(bdd.not_(a), bdd.not_(b))

    @given(exprs)
    @settings(max_examples=100, deadline=None)
    def test_cubes_partition_function(self, expr):
        bdd = BDD(NUM_VARS)
        node = build_bdd(bdd, expr)
        total = 0
        for cube in bdd.cubes(node):
            total += 1 << (NUM_VARS - len(cube))
        assert total == bdd.count(node)

    @given(exprs, st.integers(min_value=0, max_value=NUM_VARS - 1))
    @settings(max_examples=100, deadline=None)
    def test_shannon_expansion(self, expr, var):
        """f == (x AND f|x=1) OR (NOT x AND f|x=0)."""
        bdd = BDD(NUM_VARS)
        f = build_bdd(bdd, expr)
        x = bdd.var(var)
        hi = bdd.restrict(f, {var: True})
        lo = bdd.restrict(f, {var: False})
        rebuilt = bdd.or_(bdd.and_(x, hi), bdd.and_(bdd.not_(x), lo))
        assert rebuilt == f

    @given(exprs, st.integers(min_value=0, max_value=NUM_VARS - 1))
    @settings(max_examples=100, deadline=None)
    def test_quantification_duality(self, expr, var):
        """forall x. f == NOT exists x. NOT f."""
        bdd = BDD(NUM_VARS)
        f = build_bdd(bdd, expr)
        lhs = bdd.forall(f, [var])
        rhs = bdd.not_(bdd.exists(bdd.not_(f), [var]))
        assert lhs == rhs


class TestRangeToPrefixes:
    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_exact_cover(self, data):
        width = data.draw(st.integers(min_value=1, max_value=12))
        lo = data.draw(st.integers(min_value=0, max_value=(1 << width) - 1))
        hi = data.draw(st.integers(min_value=lo, max_value=(1 << width) - 1))
        covered = set()
        for value, plen in range_to_prefixes(lo, hi, width):
            size = 1 << (width - plen)
            assert value % size == 0, "prefix must be aligned"
            block = range(value, value + size)
            assert covered.isdisjoint(block), "prefixes must be disjoint"
            covered.update(block)
        assert covered == set(range(lo, hi + 1))

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_count_bound(self, data):
        width = data.draw(st.integers(min_value=1, max_value=16))
        lo = data.draw(st.integers(min_value=0, max_value=(1 << width) - 1))
        hi = data.draw(st.integers(min_value=lo, max_value=(1 << width) - 1))
        assert len(range_to_prefixes(lo, hi, width)) <= max(2 * width - 2, 1)
