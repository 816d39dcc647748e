"""Reduced Ordered Binary Decision Diagram (ROBDD) engine.

VeriDP represents packet header sets as BDDs (Section 4.1 of the paper,
following Yang & Lam's atomic-predicates work [56]).  This module is a
self-contained, pure-Python ROBDD implementation with:

* hash-consed node storage (a *unique table*), so structural equality is
  pointer (integer id) equality,
* conjunction, disjunction, difference and complement as dedicated
  memoized recursions (Bryant's apply, one per connective), with
  exclusive-or built from them,
* existential/universal quantification and variable restriction,
* model counting and satisfying-cube enumeration.

Nodes are referenced by small integers.  ``FALSE = 0`` and ``TRUE = 1`` are
the two terminals.  An internal node ``u`` has a *level* (its variable index
in the global ordering; smaller level = closer to the root), a *low* child
(the cofactor when the variable is 0) and a *high* child (cofactor when 1).

The manager enforces the two ROBDD invariants:

1. ordering: ``level(u) < level(low(u))`` and ``level(u) < level(high(u))``,
2. reduction: no node with ``low == high``, and no two distinct nodes with
   identical ``(level, low, high)`` triples.

Together these make every Boolean function over the fixed ordering have a
single canonical node id, which is what lets VeriDP compare and intersect
header sets in O(size) time.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

__all__ = ["BDD", "FlatBDD", "NodePool", "FALSE", "TRUE", "MAX_VARS", "pack_pools"]

#: Terminal node id for the constant-false function (empty header set).
FALSE = 0
#: Terminal node id for the constant-true function (the all-match header set).
TRUE = 1

#: Pseudo-level assigned to terminals; larger than any real variable level.
_TERMINAL_LEVEL = 1 << 30

#: Child sentinels inside :class:`FlatBDD` arrays (real children are >= 0).
_FLAT_FALSE = -1
_FLAT_TRUE = -2

#: Default bound on each operation cache.  When a cache reaches the bound the
#: oldest half (dict insertion order) is dropped; memo eviction only costs
#: recomputation, never correctness.
_OP_CACHE_MAX = 1 << 20

#: Bits of one node id inside a packed memo or unique-table key (a manager
#: stays far below 2**32 nodes).
_ID_BITS = 32

#: Largest ``num_vars`` a manager accepts.  The binary connectives recurse
#: one Python frame per variable level, so this keeps their stack depth
#: well under CPython's default recursion limit of 1,000 frames, with room
#: for the caller's own stack.  Every header layout in the package has
#: 104-116 variables.
MAX_VARS = 512


class FlatBDD:
    """One BDD function copied out of its manager into flat arrays.

    A node ``i`` stores ``shifts[i]`` (the right-shift that extracts its
    variable's bit from a packed header integer, MSB = level 0), ``low[i]``
    and ``high[i]`` (either another node index or one of the terminal
    sentinels).  ``source`` is the manager node id it was compiled from.

    No verification path holds one: reports are matched on the manager's
    own node arrays (:meth:`BDD.evaluate_value`, :class:`NodePool`).  The
    class stays as the independent matcher the tests check those against,
    and because a snapshot written before node pools pickled one beside
    every path entry; such a snapshot must still load.
    """

    __slots__ = ("source", "root", "shifts", "low", "high")

    def __init__(
        self,
        source: int,
        root: int,
        shifts: Sequence[int],
        low: Sequence[int],
        high: Sequence[int],
    ) -> None:
        self.source = source
        self.root = root
        self.shifts = list(shifts)
        self.low = list(low)
        self.high = list(high)

    def evaluate_value(self, value: int) -> bool:
        """Evaluate against a header packed into one integer (level 0 = MSB)."""
        u = self.root
        shifts = self.shifts
        low = self.low
        high = self.high
        while u >= 0:
            u = high[u] if (value >> shifts[u]) & 1 else low[u]
        return u == _FLAT_TRUE

    def __len__(self) -> int:
        return len(self.shifts)

    def __getstate__(self):
        return (self.source, self.root, self.shifts, self.low, self.high)

    def __setstate__(self, state) -> None:
        self.source, self.root, self.shifts, self.low, self.high = state


class NodePool:
    """Several BDD functions held as root ids into one node table.

    ``level``/``low``/``high`` follow the manager's layout: ids 0 and 1
    are the FALSE and TRUE terminals, and an internal node's bit is
    ``(value >> (top - level[u])) & 1`` of a packed header (``top`` is
    ``num_vars - 1``).  :meth:`BDD.pool` hands out a pool over the
    manager's *own* lists, so it copies nothing: node ids never change
    once allocated and the lists only grow, so the roots stay valid while
    the manager keeps allocating.

    ``local`` says the lists hold only nodes localized for this pool, or
    for the pools :func:`pack_pools` packed with it; :meth:`BDD.pool`
    hands out the one kind of pool that is not.  Pickling ships a local
    pool's table as it is (pools pickled together that share one table
    write it once, through pickle's memo) and localizes any other pool
    first, so no pickle carries a manager's node lists.
    """

    __slots__ = ("roots", "level", "low", "high", "top", "local")

    def __init__(
        self,
        roots: Tuple[int, ...],
        level: List[int],
        low: List[int],
        high: List[int],
        top: int,
        local: bool = True,
    ) -> None:
        self.roots = roots
        self.level = level
        self.low = low
        self.high = high
        self.top = top
        self.local = local

    def evaluate(self, i: int, value: int) -> bool:
        """Whether function ``i`` holds for a header packed into ``value``."""
        u = self.roots[i]
        top = self.top
        level = self.level
        low = self.low
        high = self.high
        while u > 1:  # not a terminal (FALSE = 0, TRUE = 1)
            u = high[u] if (value >> (top - level[u])) & 1 else low[u]
        return u == 1

    def __len__(self) -> int:
        return len(self.roots)

    def localized(self) -> "NodePool":
        """The same functions over a pool of only the nodes they reach.

        The numbering depends on the functions alone, so the localized
        pool of a localized pool is the same pool, and two pools of the
        same functions localize equal whichever table they came from.
        """
        return pack_pools((self,))[0]

    def __reduce__(self):
        pool = self if self.local else self.localized()
        return (NodePool, (pool.roots, pool.level, pool.low, pool.high, pool.top))


def pack_pools(pools: Sequence[NodePool]) -> List[NodePool]:
    """``pools`` localized into one deduplicated node table they share.

    Nodes are numbered depth-first from the roots (low before high), pool
    by pool in the order given; a node reached again, from any pool over
    the same source table, keeps its first number.  Each returned pool is
    its roots into the shared ``level``/``low``/``high`` lists.  The
    pools must share one variable count (``top``), as the pools of one
    header space do.
    """
    #: id(source level list) -> source node id -> packed node id.
    indexes: Dict[int, Dict[int, int]] = {}
    #: (source pool, its index, the nodes it adds in number order).
    segments: List[Tuple[NodePool, Dict[int, int], List[int]]] = []
    roots: List[Tuple[int, ...]] = []
    size = 2  # the terminals
    for pool in pools:
        src_low, src_high = pool.low, pool.high
        index = indexes.setdefault(id(pool.level), {FALSE: FALSE, TRUE: TRUE})
        order: List[int] = []
        for root in pool.roots:
            if root in index:
                continue
            stack = [root]
            while stack:
                u = stack.pop()
                if u in index:
                    continue
                index[u] = size + len(order)
                order.append(u)
                stack.append(src_high[u])
                stack.append(src_low[u])
        if order:
            segments.append((pool, index, order))
            size += len(order)
        roots.append(tuple(map(index.__getitem__, pool.roots)))
    # One concatenation per list sizes it exactly: the table lives as long
    # as its pools.
    level = [_TERMINAL_LEVEL, _TERMINAL_LEVEL] + [
        pool.level[u] for pool, _index, order in segments for u in order
    ]
    low = [FALSE, TRUE] + [
        index[pool.low[u]] for pool, index, order in segments for u in order
    ]
    high = [FALSE, TRUE] + [
        index[pool.high[u]] for pool, index, order in segments for u in order
    ]
    return [
        NodePool(ids, level, low, high, pool.top) for ids, pool in zip(roots, pools)
    ]


class BDD:
    """A manager owning a shared pool of ROBDD nodes.

    All node ids returned by one manager are only meaningful to that manager.
    The number of variables is fixed at construction; variable *levels* run
    from 0 (root-most) to ``num_vars - 1``.

    Example::

        bdd = BDD(4)
        x0, x1 = bdd.var(0), bdd.var(1)
        f = bdd.and_(x0, bdd.not_(x1))
        assert bdd.count(f) == 4  # of the 16 assignments over 4 vars
    """

    def __init__(self, num_vars: int, op_cache_max: int = _OP_CACHE_MAX) -> None:
        if not 0 < num_vars <= MAX_VARS:
            raise ValueError(f"num_vars must be in [1, {MAX_VARS}], got {num_vars}")
        if op_cache_max < 2:
            raise ValueError(f"op_cache_max must be >= 2, got {op_cache_max}")
        self.num_vars = num_vars
        # Parallel arrays indexed by node id.  Slots 0/1 are the terminals;
        # their level sorts after every variable so cofactoring stops there.
        self._level: List[int] = [_TERMINAL_LEVEL, _TERMINAL_LEVEL]
        self._low: List[int] = [0, 1]
        self._high: List[int] = [0, 1]
        # unique table: packed (level, low, high) -> node id (see _mk)
        self._unique: Dict[int, int] = {}
        # operation caches (memos): each bounded at op_cache_max entries.
        # The apply memos are keyed by the packed operand pair and survive
        # across calls until new_generation()/clear_caches() retires them.
        self._not_cache: Dict[int, int] = {}
        self._and_memo: Dict[int, int] = {}
        self._or_memo: Dict[int, int] = {}
        self._diff_memo: Dict[int, int] = {}
        self._quant_cache: Dict[Tuple[int, int, frozenset], int] = {}
        self._count_cache: Dict[int, int] = {}
        # size() memo: node structure is immutable once allocated, so cached
        # reachable-set sizes stay valid for the life of the manager.
        self._size_cache: Dict[int, int] = {}
        self.op_cache_max = op_cache_max
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_evictions = 0
        #: Build generation: bumped by new_generation(), which retires the
        #: apply memos.  Its one caller is the end of server construction;
        #: the memos of later update flushes live until evicted.
        self.generation = 0
        # single-variable nodes are ubiquitous; build them lazily
        self._var_nodes: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # node construction
    # ------------------------------------------------------------------

    def _mk(self, level: int, low: int, high: int) -> int:
        """Return the canonical node for ``(level, low, high)``."""
        if low == high:
            return low
        key = (((level << _ID_BITS) | low) << _ID_BITS) | high
        node = self._unique.get(key)
        if node is None:
            node = len(self._level)
            self._level.append(level)
            self._low.append(low)
            self._high.append(high)
            self._unique[key] = node
        return node

    def var(self, level: int) -> int:
        """The function that is true iff variable ``level`` is 1."""
        if not 0 <= level < self.num_vars:
            raise ValueError(f"variable level {level} out of range [0, {self.num_vars})")
        node = self._var_nodes.get(level)
        if node is None:
            node = self._mk(level, FALSE, TRUE)
            self._var_nodes[level] = node
        return node

    def nvar(self, level: int) -> int:
        """The function that is true iff variable ``level`` is 0."""
        if not 0 <= level < self.num_vars:
            raise ValueError(f"variable level {level} out of range [0, {self.num_vars})")
        return self._mk(level, TRUE, FALSE)

    # ------------------------------------------------------------------
    # structural accessors
    # ------------------------------------------------------------------

    def level_of(self, node: int) -> int:
        """Variable level of ``node`` (terminals report a huge sentinel)."""
        return self._level[node]

    def low_of(self, node: int) -> int:
        """Low (variable = 0) cofactor child."""
        return self._low[node]

    def high_of(self, node: int) -> int:
        """High (variable = 1) cofactor child."""
        return self._high[node]

    def size(self, node: int) -> int:
        """Number of distinct nodes reachable from ``node`` (incl. terminals).

        Memoized per root: node structure is immutable once allocated, so a
        cached answer never goes stale.  Stats collection used to pay this
        O(nodes) walk on every call; repeat calls are now O(1).
        """
        cached = self._size_cache.get(node)
        if cached is not None:
            return cached
        seen = {node}
        stack = [node]
        while stack:
            u = stack.pop()
            if u <= TRUE:
                continue
            for child in (self._low[u], self._high[u]):
                if child not in seen:
                    seen.add(child)
                    stack.append(child)
        result = len(seen)
        self._size_cache[node] = result
        return result

    def num_nodes(self) -> int:
        """Total nodes allocated by this manager (a capacity metric)."""
        return len(self._level)

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------

    def export_nodes(self) -> Tuple[List[int], List[int], List[int]]:
        """The node table (terminals excluded) as three parallel lists.

        Together with :meth:`from_nodes` this round-trips the manager so
        that *node ids stay valid*: any header-set id held elsewhere (path
        table entries, reachability records, node-pool roots) refers to the
        same function in the restored manager.
        """
        return (list(self._level[2:]), list(self._low[2:]), list(self._high[2:]))

    @classmethod
    def from_nodes(
        cls,
        num_vars: int,
        levels: List[int],
        lows: List[int],
        highs: List[int],
    ) -> "BDD":
        """Rebuild a manager from :meth:`export_nodes` output.

        Rebuilds the unique table so subsequent operations hash-cons onto
        the restored nodes (reproducing identical ids for identical
        functions); operation caches start cold.
        """
        if not (len(levels) == len(lows) == len(highs)):
            raise ValueError("node arrays disagree on length")
        bdd = cls(num_vars)
        bdd._level.extend(levels)
        bdd._low.extend(lows)
        bdd._high.extend(highs)
        unique = bdd._unique
        for node in range(2, len(bdd._level)):
            low, high = bdd._low[node], bdd._high[node]
            level = bdd._level[node]
            # Nodes are appended in construction order, so children always
            # precede parents; anything else is a corrupt table.
            if not (0 <= low < node and 0 <= high < node) or low == high:
                raise ValueError(f"corrupt node table at node {node}")
            if not 0 <= level < num_vars:
                raise ValueError(f"corrupt level at node {node}")
            unique[(((level << _ID_BITS) | low) << _ID_BITS) | high] = node
        return bdd

    # ------------------------------------------------------------------
    # Boolean connectives
    # ------------------------------------------------------------------

    def _evict_half(self, cache: Dict) -> None:
        """Drop the oldest half of an operation cache (insertion order).

        Amortized O(1) per insert; losing memo entries only costs
        recomputation.  The evicted count feeds the obs registry.
        """
        drop = len(cache) // 2
        for key in list(itertools.islice(iter(cache), drop)):
            del cache[key]
        self.cache_evictions += drop

    # Every connective is its own memoized recursion, one frame per variable
    # level (depth <= num_vars + 1 <= MAX_VARS + 1), with terminal rules of
    # its own; the binary ones key their memo by the packed operand pair
    # ``(f << 32) | g``, smaller id first for the commutative ones.

    def not_(self, f: int) -> int:
        """Complement of ``f`` (memoized both directions)."""
        if f <= TRUE:
            return TRUE - f
        cache = self._not_cache
        node = cache.get(f)
        if node is not None:
            self.cache_hits += 1
            return node
        self.cache_misses += 1
        node = self._mk(self._level[f], self.not_(self._low[f]), self.not_(self._high[f]))
        if len(cache) >= self.op_cache_max:
            self._evict_half(cache)
        cache[f] = node
        cache[node] = f
        return node

    def and_(self, f: int, g: int) -> int:
        """Conjunction (header-set intersection)."""
        if f <= TRUE:
            return g if f else FALSE
        if g <= TRUE:
            return f if g else FALSE
        if f == g:
            return f
        key = (f << _ID_BITS) | g if f < g else (g << _ID_BITS) | f
        memo = self._and_memo
        node = memo.get(key)
        if node is not None:
            self.cache_hits += 1
            return node
        self.cache_misses += 1
        levels = self._level
        lf = levels[f]
        lg = levels[g]
        if lf == lg:
            lo = self.and_(self._low[f], self._low[g])
            hi = self.and_(self._high[f], self._high[g])
        elif lf < lg:
            lo = self.and_(self._low[f], g)
            hi = self.and_(self._high[f], g)
        else:
            lf = lg
            lo = self.and_(f, self._low[g])
            hi = self.and_(f, self._high[g])
        node = self._mk(lf, lo, hi)
        if len(memo) >= self.op_cache_max:
            self._evict_half(memo)
        memo[key] = node
        return node

    def or_(self, f: int, g: int) -> int:
        """Disjunction (header-set union)."""
        if f <= TRUE:
            return TRUE if f else g
        if g <= TRUE:
            return TRUE if g else f
        if f == g:
            return f
        key = (f << _ID_BITS) | g if f < g else (g << _ID_BITS) | f
        memo = self._or_memo
        node = memo.get(key)
        if node is not None:
            self.cache_hits += 1
            return node
        self.cache_misses += 1
        levels = self._level
        lf = levels[f]
        lg = levels[g]
        if lf == lg:
            lo = self.or_(self._low[f], self._low[g])
            hi = self.or_(self._high[f], self._high[g])
        elif lf < lg:
            lo = self.or_(self._low[f], g)
            hi = self.or_(self._high[f], g)
        else:
            lf = lg
            lo = self.or_(f, self._low[g])
            hi = self.or_(f, self._high[g])
        node = self._mk(lf, lo, hi)
        if len(memo) >= self.op_cache_max:
            self._evict_half(memo)
        memo[key] = node
        return node

    def diff(self, f: int, g: int) -> int:
        """Set difference ``f AND NOT g``, without building ``NOT g``."""
        if f == FALSE or g == TRUE or f == g:
            return FALSE
        if g == FALSE:
            return f
        key = (f << _ID_BITS) | g
        memo = self._diff_memo
        node = memo.get(key)
        if node is not None:
            self.cache_hits += 1
            return node
        self.cache_misses += 1
        levels = self._level
        lf = levels[f]  # TRUE's terminal level sorts after every variable
        lg = levels[g]
        if lf == lg:
            lo = self.diff(self._low[f], self._low[g])
            hi = self.diff(self._high[f], self._high[g])
        elif lf < lg:
            lo = self.diff(self._low[f], g)
            hi = self.diff(self._high[f], g)
        else:
            lf = lg
            lo = self.diff(f, self._low[g])
            hi = self.diff(f, self._high[g])
        node = self._mk(lf, lo, hi)
        if len(memo) >= self.op_cache_max:
            self._evict_half(memo)
        memo[key] = node
        return node

    def xor(self, f: int, g: int) -> int:
        """Exclusive or (symmetric difference of header sets)."""
        return self.or_(self.diff(f, g), self.diff(g, f))

    def implies(self, f: int, g: int) -> bool:
        """True iff every satisfying assignment of ``f`` also satisfies ``g``."""
        return self.diff(f, g) == FALSE

    def and_many(self, terms: Iterable[int]) -> int:
        """Conjunction of an iterable of functions (TRUE for empty input).

        Balanced-tree reduction: pairwise rounds keep intermediate results
        small (a linear fold drags one ever-growing accumulant through every
        step), turning n-way intersections from O(n * |acc|) into the
        log-depth product profile.
        """
        items = [t for t in terms if t != TRUE]
        if not items:
            return TRUE
        if FALSE in items:
            return FALSE
        while len(items) > 1:
            nxt = []
            for i in range(0, len(items) - 1, 2):
                r = self.and_(items[i], items[i + 1])
                if r == FALSE:
                    return FALSE
                nxt.append(r)
            if len(items) & 1:
                nxt.append(items[-1])
            items = nxt
        return items[0]

    def or_many(self, terms: Iterable[int]) -> int:
        """Disjunction of an iterable of functions (FALSE for empty input).

        Balanced-tree reduction; see :meth:`and_many`.
        """
        items = [t for t in terms if t != FALSE]
        if not items:
            return FALSE
        if TRUE in items:
            return TRUE
        while len(items) > 1:
            nxt = []
            for i in range(0, len(items) - 1, 2):
                r = self.or_(items[i], items[i + 1])
                if r == TRUE:
                    return TRUE
                nxt.append(r)
            if len(items) & 1:
                nxt.append(items[-1])
            items = nxt
        return items[0]

    # ------------------------------------------------------------------
    # cube construction (the workhorse for match predicates)
    # ------------------------------------------------------------------

    def cube(self, literals: Sequence[Tuple[int, bool]]) -> int:
        """Conjunction of literals given as ``(level, polarity)`` pairs.

        Builds the cube bottom-up in a single pass, which is far cheaper than
        repeated ``and_`` calls: a 32-bit exact-match predicate costs exactly
        32 node allocations.
        """
        node = TRUE
        for level, positive in sorted(literals, key=lambda lp: lp[0], reverse=True):
            if positive:
                node = self._mk(level, FALSE, node)
            else:
                node = self._mk(level, node, FALSE)
        return node

    # ------------------------------------------------------------------
    # restriction and quantification
    # ------------------------------------------------------------------

    def restrict(self, f: int, assignment: Dict[int, bool]) -> int:
        """Substitute constants for variables: ``f|_{x_i = b_i}``."""
        if not assignment:
            return f
        cache: Dict[int, int] = {}

        def walk(u: int) -> int:
            if u <= TRUE:
                return u
            hit = cache.get(u)
            if hit is not None:
                return hit
            level = self._level[u]
            if level in assignment:
                result = walk(self._high[u] if assignment[level] else self._low[u])
            else:
                result = self._mk(level, walk(self._low[u]), walk(self._high[u]))
            cache[u] = result
            return result

        return walk(f)

    def exists(self, f: int, levels: Iterable[int]) -> int:
        """Existential quantification over the given variable levels."""
        levelset = frozenset(levels)
        if not levelset:
            return f
        return self._quantify(f, levelset, conjunctive=False)

    def forall(self, f: int, levels: Iterable[int]) -> int:
        """Universal quantification over the given variable levels."""
        levelset = frozenset(levels)
        if not levelset:
            return f
        return self._quantify(f, levelset, conjunctive=True)

    def _quantify(self, f: int, levelset: frozenset, conjunctive: bool) -> int:
        key = (f, int(conjunctive), levelset)
        cached = self._quant_cache.get(key)
        if cached is not None:
            return cached
        if f <= TRUE:
            return f
        level = self._level[f]
        lo = self._quantify(self._low[f], levelset, conjunctive)
        hi = self._quantify(self._high[f], levelset, conjunctive)
        if level in levelset:
            result = self.and_(lo, hi) if conjunctive else self.or_(lo, hi)
        else:
            result = self._mk(level, lo, hi)
        self._quant_cache[key] = result
        return result

    # ------------------------------------------------------------------
    # model counting and enumeration
    # ------------------------------------------------------------------

    def count(self, f: int, num_vars: Optional[int] = None) -> int:
        """Number of satisfying assignments over ``num_vars`` variables.

        ``num_vars`` defaults to the manager width; pass a smaller value only
        if you know ``f``'s support fits inside it.
        """
        width = self.num_vars if num_vars is None else num_vars

        def effective_level(u: int) -> int:
            return width if u <= TRUE else self._level[u]

        def solutions(u: int) -> int:
            """Satisfying assignments over levels [level(u), width)."""
            if u == FALSE:
                return 0
            if u == TRUE:
                return 1
            key = (u, width)
            cached = self._count_cache.get(key)
            if cached is None:
                level = self._level[u]
                lo, hi = self._low[u], self._high[u]
                cached = (solutions(lo) << (effective_level(lo) - level - 1)) + (
                    solutions(hi) << (effective_level(hi) - level - 1)
                )
                self._count_cache[key] = cached
            return cached

        return solutions(f) << effective_level(f)

    def cubes(self, f: int) -> Iterator[Dict[int, bool]]:
        """Yield satisfying *cubes* as partial assignments ``level -> bool``.

        Unassigned levels in a yielded dict are don't-cares.  The cubes are
        disjoint and their union is exactly the satisfying set of ``f``.
        """
        path: Dict[int, bool] = {}

        def walk(u: int) -> Iterator[Dict[int, bool]]:
            if u == FALSE:
                return
            if u == TRUE:
                yield dict(path)
                return
            level = self._level[u]
            path[level] = False
            yield from walk(self._low[u])
            path[level] = True
            yield from walk(self._high[u])
            del path[level]

        yield from walk(f)

    def pick(self, f: int) -> Optional[Dict[int, bool]]:
        """One satisfying cube of ``f``, or ``None`` if unsatisfiable."""
        for cube in self.cubes(f):
            return cube
        return None

    def evaluate(self, f: int, assignment: Dict[int, bool]) -> bool:
        """Evaluate ``f`` under a *total* assignment of its support."""
        u = f
        while u > TRUE:
            level = self._level[u]
            try:
                u = self._high[u] if assignment[level] else self._low[u]
            except KeyError as exc:
                raise ValueError(f"assignment missing variable level {level}") from exc
        return u == TRUE

    def evaluate_value(self, f: int, value: int) -> bool:
        """Evaluate ``f`` against a header packed into one integer.

        Level 0 is the most significant of ``num_vars`` bits (the format of
        :meth:`repro.bdd.headerspace.HeaderSpace.header_value`): each
        variable's bit is one shift, not a dict lookup, and nothing is
        compiled first.  This is the verifier's matcher.
        """
        u = f
        top = self.num_vars - 1
        level = self._level
        low = self._low
        high = self._high
        while u > TRUE:
            u = high[u] if (value >> (top - level[u])) & 1 else low[u]
        return u == TRUE

    def pool(self, roots: Iterable[int]) -> NodePool:
        """``roots`` as a :class:`NodePool` over this manager's own lists."""
        return NodePool(
            tuple(roots), self._level, self._low, self._high, self.num_vars - 1, False
        )

    # ------------------------------------------------------------------
    # flat compilation
    # ------------------------------------------------------------------

    def compile_flat(self, f: int) -> FlatBDD:
        """Copy ``f`` out of the manager into a standalone :class:`FlatBDD`.

        The returned matcher evaluates headers packed into a single integer
        with variable level 0 as the most significant bit: the bit for level
        ``L`` is ``(value >> (num_vars - 1 - L)) & 1`` (see
        :meth:`repro.bdd.headerspace.HeaderSpace.header_value`).
        """
        if f == FALSE:
            return FlatBDD(f, _FLAT_FALSE, (), (), ())
        if f == TRUE:
            return FlatBDD(f, _FLAT_TRUE, (), (), ())
        index: Dict[int, int] = {}
        order: List[int] = []
        stack = [f]
        while stack:
            u = stack.pop()
            if u <= TRUE or u in index:
                continue
            index[u] = len(order)
            order.append(u)
            stack.append(self._low[u])
            stack.append(self._high[u])
        top = self.num_vars - 1

        def child(c: int) -> int:
            if c == FALSE:
                return _FLAT_FALSE
            if c == TRUE:
                return _FLAT_TRUE
            return index[c]

        shifts = [top - self._level[u] for u in order]
        low = [child(self._low[u]) for u in order]
        high = [child(self._high[u]) for u in order]
        return FlatBDD(f, 0, shifts, low, high)

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------

    def clear_caches(self) -> None:
        """Drop operation caches (the unique table is kept).

        Long-running servers can call this between workloads to bound memory;
        node ids stay valid.  The ``size()`` memo is kept: node structure is
        immutable, so it can never go stale.
        """
        self._not_cache.clear()
        self._and_memo.clear()
        self._or_memo.clear()
        self._diff_memo.clear()
        self._quant_cache.clear()
        self._count_cache.clear()

    def new_generation(self) -> int:
        """Start a new build generation: retire the apply memos, keep nodes.

        Apply memos (not/and/or/diff) survive across calls *within* one
        generation, so repeated sub-expressions hit.  A generation is a
        piece of work whose operands nothing afterwards shares: the initial
        table build (``VeriDPServer.__init__``) and the initial slice proof
        (``set_slices``), each of which ends with this call and returns the
        memory without touching the unique table.  An update flush is *not*
        one: consecutive flushes rebuild overlapping sub-expressions, and
        retiring per flush was measured on ``rule_churn`` to trade 1.4 MiB
        for +12% rule-to-verdict latency and missed detection deadlines
        (EXPERIMENTS.md "Fixed costs").
        """
        self.clear_caches()
        self.generation += 1
        return self.generation

    def cache_counters(self) -> Dict[str, int]:
        """Cumulative operation-cache hit/miss/eviction counters."""
        return {
            "hits": self.cache_hits,
            "misses": self.cache_misses,
            "evictions": self.cache_evictions,
        }

    def memo_sizes(self) -> Dict[str, int]:
        """Entries held by each operation memo :meth:`clear_caches` drops."""
        return {
            "not_cache": len(self._not_cache),
            "and_memo": len(self._and_memo),
            "or_memo": len(self._or_memo),
            "diff_memo": len(self._diff_memo),
            "quant_cache": len(self._quant_cache),
            "count_cache": len(self._count_cache),
        }

    def stats(self) -> Dict[str, int]:
        """Allocation and cache-size counters, for capacity benchmarks."""
        return {
            "nodes": len(self._level),
            **self.memo_sizes(),
            "size_cache": len(self._size_cache),
            "op_cache_max": self.op_cache_max,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_evictions": self.cache_evictions,
            "generation": self.generation,
        }
