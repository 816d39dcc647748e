"""Unit tests for the ROBDD engine."""

import pytest

from repro.bdd.engine import BDD, FALSE, TRUE


@pytest.fixture
def bdd():
    return BDD(8)


class TestConstruction:
    def test_terminals_are_fixed(self, bdd):
        assert FALSE == 0
        assert TRUE == 1

    def test_var_is_canonical(self, bdd):
        assert bdd.var(3) == bdd.var(3)

    def test_var_out_of_range(self, bdd):
        with pytest.raises(ValueError):
            bdd.var(8)
        with pytest.raises(ValueError):
            bdd.var(-1)

    def test_zero_width_manager_rejected(self):
        with pytest.raises(ValueError):
            BDD(0)

    def test_nvar_is_complement_of_var(self, bdd):
        assert bdd.nvar(2) == bdd.not_(bdd.var(2))

    def test_reduction_no_redundant_node(self, bdd):
        # (x AND y) OR (y AND NOT x) must collapse to y, with no x node.
        x, y = bdd.var(0), bdd.var(1)
        assert bdd.or_(bdd.and_(x, y), bdd.diff(y, x)) == y


class TestConnectives:
    def test_and_with_terminals(self, bdd):
        x = bdd.var(0)
        assert bdd.and_(x, TRUE) == x
        assert bdd.and_(x, FALSE) == FALSE
        assert bdd.and_(TRUE, x) == x

    def test_or_with_terminals(self, bdd):
        x = bdd.var(0)
        assert bdd.or_(x, FALSE) == x
        assert bdd.or_(x, TRUE) == TRUE

    def test_not_involution(self, bdd):
        f = bdd.xor(bdd.var(0), bdd.var(3))
        assert bdd.not_(bdd.not_(f)) == f

    def test_de_morgan(self, bdd):
        x, y = bdd.var(1), bdd.var(4)
        lhs = bdd.not_(bdd.and_(x, y))
        rhs = bdd.or_(bdd.not_(x), bdd.not_(y))
        assert lhs == rhs

    def test_xor_truth_table(self, bdd):
        x, y = bdd.var(0), bdd.var(1)
        f = bdd.xor(x, y)
        base = {i: False for i in range(8)}
        for xv in (False, True):
            for yv in (False, True):
                assign = dict(base)
                assign.update({0: xv, 1: yv})
                assert bdd.evaluate(f, assign) == (xv != yv)

    def test_diff(self, bdd):
        x, y = bdd.var(0), bdd.var(1)
        f = bdd.diff(bdd.or_(x, y), y)
        # f is x AND NOT y
        assert f == bdd.and_(x, bdd.not_(y))

    def test_commutativity_canonical(self, bdd):
        x, y = bdd.var(2), bdd.var(5)
        assert bdd.and_(x, y) == bdd.and_(y, x)
        assert bdd.or_(x, y) == bdd.or_(y, x)

    def test_and_many_empty_is_true(self, bdd):
        assert bdd.and_many([]) == TRUE

    def test_or_many_empty_is_false(self, bdd):
        assert bdd.or_many([]) == FALSE

    def test_and_many_matches_pairwise(self, bdd):
        vars_ = [bdd.var(i) for i in range(4)]
        acc = TRUE
        for v in vars_:
            acc = bdd.and_(acc, v)
        assert bdd.and_many(vars_) == acc

    def test_implies(self, bdd):
        x, y = bdd.var(0), bdd.var(1)
        assert bdd.implies(bdd.and_(x, y), x)
        assert not bdd.implies(x, bdd.and_(x, y))


class TestCube:
    def test_cube_matches_conjunction(self, bdd):
        literals = [(0, True), (3, False), (5, True)]
        expected = bdd.and_many(
            bdd.var(l) if pos else bdd.not_(bdd.var(l)) for l, pos in literals
        )
        assert bdd.cube(literals) == expected

    def test_cube_empty_is_true(self, bdd):
        assert bdd.cube([]) == TRUE

    def test_cube_order_independent(self, bdd):
        a = bdd.cube([(1, True), (4, False)])
        b = bdd.cube([(4, False), (1, True)])
        assert a == b


class TestCounting:
    def test_count_terminals(self, bdd):
        assert bdd.count(TRUE) == 256
        assert bdd.count(FALSE) == 0

    def test_count_single_var(self, bdd):
        assert bdd.count(bdd.var(0)) == 128
        assert bdd.count(bdd.var(7)) == 128

    def test_count_cube(self, bdd):
        f = bdd.cube([(0, True), (1, True), (2, False)])
        assert bdd.count(f) == 32

    def test_count_or(self, bdd):
        x, y = bdd.var(0), bdd.var(1)
        # |x OR y| = 128 + 128 - 64
        assert bdd.count(bdd.or_(x, y)) == 192

    def test_count_narrower_width(self, bdd):
        f = bdd.cube([(0, True)])
        assert bdd.count(f, num_vars=1) == 1
        assert bdd.count(f, num_vars=3) == 4

    def test_count_cache_not_poisoned_across_widths(self, bdd):
        f = bdd.var(0)
        assert bdd.count(f, num_vars=2) == 2
        assert bdd.count(f, num_vars=8) == 128
        assert bdd.count(f, num_vars=2) == 2


class TestQuantification:
    def test_exists_removes_var(self, bdd):
        x, y = bdd.var(0), bdd.var(1)
        f = bdd.and_(x, y)
        assert bdd.exists(f, [0]) == y

    def test_forall(self, bdd):
        x, y = bdd.var(0), bdd.var(1)
        f = bdd.or_(x, y)
        assert bdd.forall(f, [0]) == y

    def test_exists_all_support_gives_true(self, bdd):
        f = bdd.cube([(2, True), (6, False)])
        assert bdd.exists(f, [2, 6]) == TRUE

    def test_exists_empty_levels_is_identity(self, bdd):
        f = bdd.var(3)
        assert bdd.exists(f, []) == f


class TestRestrictAndSupport:
    def test_restrict_to_true_branch(self, bdd):
        x, y = bdd.var(0), bdd.var(1)
        f = bdd.and_(x, y)
        assert bdd.restrict(f, {0: True}) == y
        assert bdd.restrict(f, {0: False}) == FALSE

    def test_restrict_empty_assignment(self, bdd):
        f = bdd.var(2)
        assert bdd.restrict(f, {}) == f


class TestEnumeration:
    def test_cubes_cover_function(self, bdd):
        f = bdd.or_(bdd.var(0), bdd.and_(bdd.var(1), bdd.var(2)))
        total = 0
        for cube in bdd.cubes(f):
            total += 1 << (8 - len(cube))
        assert total == bdd.count(f)

    def test_cubes_of_false_is_empty(self, bdd):
        assert list(bdd.cubes(FALSE)) == []

    def test_pick_satisfies(self, bdd):
        f = bdd.cube([(0, True), (5, False)])
        cube = bdd.pick(f)
        assert cube is not None
        assert cube[0] is True
        assert cube[5] is False

    def test_pick_of_false_is_none(self, bdd):
        assert bdd.pick(FALSE) is None

    def test_evaluate_needs_full_support(self, bdd):
        f = bdd.var(3)
        with pytest.raises(ValueError):
            bdd.evaluate(f, {})


class TestMaintenance:
    def test_size_counts_reachable(self, bdd):
        f = bdd.cube([(0, True), (1, True)])
        # root, inner node, two terminals
        assert bdd.size(f) == 4

    def test_clear_caches_preserves_ids(self, bdd):
        f = bdd.and_(bdd.var(0), bdd.var(1))
        bdd.clear_caches()
        assert bdd.and_(bdd.var(0), bdd.var(1)) == f

    def test_stats_keys(self, bdd):
        stats = bdd.stats()
        assert {
            "nodes", "not_cache", "and_memo", "or_memo", "diff_memo", "quant_cache"
        } <= set(stats)
