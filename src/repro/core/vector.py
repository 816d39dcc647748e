"""Vectorized batch verification kernel (path-entry BDDs packed into numpy).

The scalar fast path walks each candidate's BDD on the manager's node
lists (a :class:`~repro.bdd.engine.NodePool`) per report in interpreted
Python (~2 µs/report).  This module packs a pair's header sets into numpy
arrays and verifies a whole dispatch batch as array operations, so the
per-report cost is a few *nanoseconds* of vectorized work instead of
microseconds of interpreter dispatch.

Two evaluation tiers coexist inside one kernel, chosen per path entry at
compile time:

* **cube tier** — a matcher whose BDD has at most :data:`CUBE_CAP` paths
  to TRUE is flattened into its cubes (conjunctions of literals).  A cube
  is a ``(mask, want)`` pair over the packed header, and membership is a
  masked compare: ``(header & mask) == want``.  Headers and cubes are
  split into two overlapping ``uint64`` lanes (levels ``0..63`` and
  ``total-64..total-1``), so the whole batch evaluates as a handful of
  ``uint64`` AND/compare sweeps — the same trick the tag comparison and
  Bloom membership checks use.  Cubes touching only one lane (the common
  case: pure dst-prefix matchers) skip the other lane's ops entirely.
* **descent tier** — cube-rich matchers keep their BDD shape: node
  ``level``/``low``/``high`` arrays concatenate into one assembly and the
  whole batch descends simultaneously, one gather (``np.take``-style fancy
  index) and compare per BDD level, with masked early-exit compacting the
  active set as rows reach terminals.

Candidate selection mirrors the scalar fast path: a vectorized
open-addressing hash probes ``(pair, tag)`` to the tag-first candidate
(provably verdict-identical for disjoint pairs); rows it cannot resolve
fall back to the paper-literal list-order scan, whose first match is
recovered with a segmented ``minimum.reduceat``.

Everything degrades gracefully: an unsupported header layout, a tiny
batch, or a pair too irregular to pack (too many entries, too many nodes)
all fall back to the scalar matcher
(:func:`~repro.core.pathtable.match_pair`, the one the ``Verifier`` runs)
— per batch or per row — with the fallbacks counted.  Invalidation rides
the path table's dirty-pair journal: a replica patched with the dirty
pairs' specs recompiles only those pair kernels.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

try:  # pragma: no cover - exercised via the HAVE_NUMPY fallbacks
    import numpy as np

    HAVE_NUMPY = True
except Exception:  # pragma: no cover
    np = None  # type: ignore[assignment]
    HAVE_NUMPY = False

from ..bdd.engine import _FLAT_FALSE, _FLAT_TRUE, FALSE, TRUE, NodePool

__all__ = [
    "HAVE_NUMPY",
    "MIN_BATCH",
    "CUBE_CAP",
    "NODE_CAP",
    "ENTRY_CAP",
    "witness_cube",
    "VPASS",
    "VMISMATCH",
    "VNOPATH",
    "VUNKNOWN",
    "VSCALAR",
    "VMALFORMED",
    "SLOT_UNKNOWN",
    "SLOT_SCALAR",
    "PairKernel",
    "compile_pair_kernel",
    "KernelAssembly",
    "build_table_kernel",
    "WireBatchVerifier",
    "lanes_from_bytes",
    "bloom_first_miss",
]


#: Batches below this size are not worth the numpy fixed costs; the caller
#: falls back to the scalar loop (the crossover heuristic, DESIGN.md §11).
MIN_BATCH = 32
#: Matchers with more cubes than this use the descent tier instead.
CUBE_CAP = 64
#: Pairs whose descent-tier nodes exceed this are "too irregular to pack".
NODE_CAP = 1 << 15
#: Pairs with more entries than this are "too irregular to pack".
ENTRY_CAP = 512
#: Column-block width for wide cube buckets (early-exit granularity).
_BLOCK_COLS = 8

#: Per-block lane compare modes: full 64-bit, one 32-bit half (when every
#: mask/want in the block fits it — headers are mostly prefix matches, so
#: this is the common case), or mask-free constant.
_LANE_U64 = 0
_LANE_LO32 = 1
_LANE_HI32 = 2
_LANE_CONST = 3

#: Verdict codes (array dtype uint8), aligned with ``Verdict`` ordering.
VPASS = 0
VMISMATCH = 1
VNOPATH = 2
VUNKNOWN = 3
#: Row sentinel: the pair is known but irregular — resolve via scalar path.
VSCALAR = 255
#: Row sentinel (wire tier): the payload cannot decode.
VMALFORMED = 254

#: Slot sentinels for per-report pair lookups.
SLOT_UNKNOWN = -1
SLOT_SCALAR = -2

_U64_MASK = (1 << 64) - 1
#: Hash-mixing constants (splitmix64 flavour), mirrored in numpy lookups.
_MIX1 = 0x9E3779B97F4A7C15
_MIX2 = 0xC2B2AE3D27D4EB4F

_MISSING = object()


# ---------------------------------------------------------------------------
# cube extraction
# ---------------------------------------------------------------------------


def cubes_of(
    pool: NodePool, i: int, cap: int = CUBE_CAP
) -> Optional[List[Tuple[int, int]]]:
    """Enumerate function ``i`` of ``pool``'s cubes — its BDD paths to TRUE.

    Each cube is ``(mask, want)`` over the packed header value (bit ``s``
    of either is the variable at level ``pool.top - s``), and the function
    accepts ``v`` iff some cube has ``v & mask == want``.  Returns ``None``
    when it has more than ``cap`` cubes (or ``cap <= 0``) — the caller
    then keeps the BDD shape and uses the descent tier.
    """
    if cap <= 0:
        return None
    root = pool.roots[i]
    if root == FALSE:
        return []
    if root == TRUE:
        return [(0, 0)]
    top = pool.top
    level = pool.level
    low = pool.low
    high = pool.high
    out: List[Tuple[int, int]] = []
    stack: List[Tuple[int, int, int]] = [(root, 0, 0)]
    while stack:
        u, mask, want = stack.pop()
        if u == TRUE:
            out.append((mask, want))
            if len(out) > cap:
                return None
            continue
        if u == FALSE:
            continue
        bit = 1 << (top - level[u])
        stack.append((low[u], mask | bit, want))
        stack.append((high[u], mask | bit, want | bit))
    return out


def witness_cube(pool: NodePool, i: int) -> Optional[Tuple[int, int]]:
    """One satisfying cube ``(mask, want)`` of function ``i``, ``None`` if FALSE.

    The active prober's fallback when :func:`cubes_of` gives up: a single
    greedy descent to TRUE instead of full path enumeration.  In a reduced
    OBDD every internal node reaches TRUE (a node reaching only FALSE *is*
    FALSE), so preferring the high branch whenever it is not FALSE finds a
    witness in at most one node per level — O(levels), never exponential.
    ``want`` itself (don't-cares zero-filled) is a satisfying packed header
    value for :meth:`~repro.bdd.engine.NodePool.evaluate`.
    """
    u = pool.roots[i]
    if u == FALSE:
        return None
    top = pool.top
    level = pool.level
    low = pool.low
    high = pool.high
    mask = 0
    want = 0
    while u != TRUE:
        bit = 1 << (top - level[u])
        mask |= bit
        if high[u] != FALSE:
            want |= bit
            u = high[u]
        else:
            u = low[u]
    return (mask, want)


# ---------------------------------------------------------------------------
# per-pair compilation
# ---------------------------------------------------------------------------

if HAVE_NUMPY:
    #: One row per path entry of a :class:`PairKernel`.
    _ENTRY_DTYPE = np.dtype(
        [("tag", "<u8"), ("ncubes", "<i4"), ("root", "<i4"), ("primary", "?")]
    )
    #: The cube and node arrays of a kernel that has none (most pairs have
    #: no descent entry), shared instead of one empty array per pair.
    _NO_CUBES = np.zeros(0, dtype=np.uint64)
    _NO_NODES = np.zeros((0, 3), dtype=np.int32)


class PairKernel:
    """One pair's path entries packed for the vector kernel.

    ``entries`` holds one row per entry: its ``tag``, its cube count
    ``ncubes`` (0 = descent tier), its descent-tier ``root`` and whether it
    is the ``primary`` tag-first candidate — set only when the pair is
    disjoint and the entry's tag bucket holds it alone, the case where
    tag-first probing is provably verdict-identical to list order.
    ``cubes`` holds the cube entries' cubes in entry order, four values
    each: ``m0, w0, m1, w1`` (mask and want split into the two ``uint64``
    lanes); ``nodes`` the descent entries' deduplicated node
    pool, one ``(level, low, high)`` row each, children pair-local or a
    terminal sentinel.
    """

    __slots__ = ("entries", "cubes", "nodes")

    def __init__(self, entries, cubes, nodes) -> None:
        self.entries = entries
        self.cubes = cubes
        self.nodes = nodes

    @property
    def n_entries(self) -> int:
        return len(self.entries)


def _pair_local(ids):
    """Node-pool ids (0/1 terminals) as descent-kernel node indexes."""
    return np.where(ids > TRUE, ids - 2, _FLAT_FALSE - ids)


def compile_pair_kernel(
    tags: Sequence[int],
    pool: NodePool,
    by_tag: Dict[int, Tuple[int, ...]],
    disjoint: bool,
    total_bits: int,
    cube_cap: int = None,  # type: ignore[assignment]
    node_cap: int = None,  # type: ignore[assignment]
    entry_cap: int = None,  # type: ignore[assignment]
) -> Optional[PairKernel]:
    """Pack one pair's ``tags`` and header-set ``pool`` into a :class:`PairKernel`.

    Returns ``None`` when the candidate set is too irregular to pack
    (more than ``entry_cap`` entries, or descent-tier node pool beyond
    ``node_cap``) — callers route such pairs to the scalar path.
    """
    if cube_cap is None:
        cube_cap = CUBE_CAP
    if node_cap is None:
        node_cap = NODE_CAP
    if entry_cap is None:
        entry_cap = ENTRY_CAP
    n = len(tags)
    if n > entry_cap:
        return None
    shift0 = max(total_bits - 64, 0)
    entries = np.zeros(n, dtype=_ENTRY_DTYPE)
    entries["tag"] = tags
    ncubes = entries["ncubes"]
    lanes: List[int] = []
    descent: List[int] = []
    for i in range(n):
        cubes = cubes_of(pool, i, cube_cap)
        if cubes is None:
            descent.append(i)
            continue
        if not cubes:
            # Never-matching entry: one unsatisfiable cube, since a cube
            # count of 0 marks a descent entry.
            cubes = [(0, 1)]
        ncubes[i] = len(cubes)
        for mask, want in cubes:
            lanes += (mask >> shift0, want >> shift0, mask & _U64_MASK, want & _U64_MASK)
    cube_lanes = np.array(lanes, dtype=np.uint64) if lanes else _NO_CUBES
    nodes = _NO_NODES
    if descent:
        local = NodePool(
            tuple(pool.roots[i] for i in descent),
            pool.level,
            pool.low,
            pool.high,
            pool.top,
            pool.local,
        ).localized()
        if len(local.level) - 2 > node_cap:
            return None
        nodes = np.column_stack(
            (
                np.asarray(local.level[2:], dtype=np.int32),
                _pair_local(np.asarray(local.low[2:], dtype=np.int32)),
                _pair_local(np.asarray(local.high[2:], dtype=np.int32)),
            )
        )
        entries["root"][descent] = _pair_local(np.asarray(local.roots, dtype=np.int32))
    if disjoint:
        for positions in by_tag.values():
            if len(positions) == 1:
                entries["primary"][positions[0]] = True
    return PairKernel(entries, cube_lanes, nodes)


# ---------------------------------------------------------------------------
# the assembly: all pair kernels concatenated, batch evaluation
# ---------------------------------------------------------------------------


def _home(a, b, mask):
    """Home slot of each ``(a, b)`` key: a splitmix64-flavoured hash."""
    h = b * np.uint64(_MIX1) + a.astype(np.uint64) * np.uint64(_MIX2)
    h = h ^ (h >> np.uint64(31))
    h = h * np.uint64(_MIX1)
    return (h >> np.uint64(32)).astype(np.int64) & mask


class _ProbeTable:
    """Vectorized open-addressing map ``(key_a, key_b) -> value``.

    Linear probing at a load factor of at most 1/4, built and probed with
    numpy; lookups are bounded by the worst probe length seen at build
    time.
    """

    __slots__ = ("ka", "kb", "val", "mask", "max_probe")

    def __init__(self, a, b, val) -> None:
        """Map ``(a[i], b[i]) -> val[i]`` (int64, uint64 and int64 arrays)."""
        n = a.shape[0]
        size = 4
        while size < 4 * (n + 1):
            size <<= 1
        mask = np.int64(size - 1)
        self.ka = np.full(size, -1, dtype=np.int64)
        self.kb = np.zeros(size, dtype=np.uint64)
        self.val = np.zeros(size, dtype=np.int64)
        self.mask = mask
        self.max_probe = 0
        # Every key still pending after ``probe`` rounds has found each of
        # its slots home..home+probe-1 taken, so it tries home+probe next.
        # Of the keys that try one free slot together, exactly one wins:
        # the one whose index the scatter below left in ``owner``.
        home = _home(a, b, mask)
        pending = np.arange(n, dtype=np.int64)
        owner = np.empty(size, dtype=np.int64)
        probe = 0
        while pending.size:
            slots = (home[pending] + probe) & mask
            free = self.ka[slots] == -1
            keys = pending[free]
            taken = slots[free]
            owner[taken] = keys
            won = owner[taken] == keys
            if won.any():
                self.max_probe = probe
                slot, key = taken[won], keys[won]
                self.ka[slot] = a[key]
                self.kb[slot] = b[key]
                self.val[slot] = val[key]
            left = np.ones(pending.size, dtype=bool)
            left[np.flatnonzero(free)[won]] = False
            pending = pending[left]
            probe += 1

    def lookup(self, a, b):
        """Vectorized ``get((a, b), -1)`` over aligned key arrays.

        The first probe is unrolled over the whole batch — at a 1/4 load
        factor almost every present key sits in its home slot, so the loop
        below usually starts from a near-empty remainder.
        """
        idx = _home(a, b, self.mask)
        stored = self.ka[idx]
        hit = (stored == a) & (self.kb[idx] == b)
        out = np.where(hit, self.val[idx], np.int64(-1))
        active = np.flatnonzero((stored != -1) & ~hit)
        if active.size == 0:
            return out
        aa = a[active]
        ab = b[active]
        cur = idx[active]
        for _ in range(self.max_probe):
            cur = (cur + 1) & self.mask
            stored = self.ka[cur]
            hit = (stored == aa) & (self.kb[cur] == ab)
            if hit.any():
                out[active[hit]] = self.val[cur[hit]]
            cont = (stored != -1) & ~hit
            active = active[cont]
            if active.size == 0:
                break
            aa = aa[cont]
            ab = ab[cont]
            cur = cur[cont]
        return out


def _scatter(column, src, dst, rows, pad, fill):
    """A ``(rows, pad)`` matrix of ``fill`` with ``column[src]`` at ``dst``."""
    out = np.full(rows * pad, fill, dtype=np.uint64)
    out[dst] = column[src]
    return out.reshape(rows, pad)


def _lane_block(m, w):
    """Pick the cheapest compare mode for one lane of one column block.

    Returns ``(mode, a, b)``: for ``_LANE_CONST`` ``a`` is the precomputed
    ``(lane & 0) == want`` boolean matrix; for the 32-bit modes ``a``/``b``
    are the halved mask/want matrices; otherwise the uint64 originals.
    """
    if not m.any():
        return _LANE_CONST, np.ascontiguousarray(w == 0), None
    s32 = np.uint64(32)
    if not (m >> s32).any() and not (w >> s32).any():
        return (
            _LANE_LO32,
            np.ascontiguousarray(m.astype(np.uint32)),
            np.ascontiguousarray(w.astype(np.uint32)),
        )
    lo = np.uint64(0xFFFFFFFF)
    if not (m & lo).any() and not (w & lo).any():
        return (
            _LANE_HI32,
            np.ascontiguousarray((m >> s32).astype(np.uint32)),
            np.ascontiguousarray((w >> s32).astype(np.uint32)),
        )
    return _LANE_U64, np.ascontiguousarray(m), np.ascontiguousarray(w)


class KernelAssembly:
    """Every regular pair kernel concatenated into flat batch arrays.

    Cube entries are stored as *padded rectangular* matrices, bucketed by
    power-of-two cube count: entry ``e`` in bucket ``b`` owns row
    ``ent_brow[e]`` of the bucket's ``(rows, pad_b)`` mask/want matrices,
    with unused cells filled by an unsatisfiable cube.  Evaluation is then
    a handful of 2-D broadcasts per bucket instead of ragged
    repeat/cumsum/reduceat machinery — the difference between ~3M and
    >6M verifs/s on the fig13 batches.
    """

    def __init__(self, kernels: Sequence[PairKernel], total_bits: int) -> None:
        if not HAVE_NUMPY:
            raise RuntimeError("KernelAssembly requires numpy")
        self.total_bits = total_bits
        counts = np.array([k.n_entries for k in kernels], dtype=np.int64)
        self.ent_off = np.zeros(len(kernels) + 1, dtype=np.int64)
        np.cumsum(counts, out=self.ent_off[1:])
        ents = np.concatenate(
            [k.entries for k in kernels] or [np.zeros(0, dtype=_ENTRY_DTYPE)]
        )
        self.n_entries = int(self.ent_off[-1])
        self.ent_tags = ents["tag"].copy()
        # Descent nodes: each kernel's pool shifts up past the ones before.
        node_counts = np.array([len(k.nodes) for k in kernels], dtype=np.int64)
        node_base = np.zeros(len(kernels), dtype=np.int64)
        np.cumsum(node_counts[:-1], out=node_base[1:])
        nodes = np.concatenate([k.nodes for k in kernels] or [_NO_NODES]).astype(
            np.int64
        )
        children = nodes[:, 1:]
        shift = np.repeat(node_base, node_counts)[:, None]
        self.node_levels = nodes[:, 0].copy()
        self.node_children = np.where(children >= 0, children + shift, children).ravel()
        roots = ents["root"].astype(np.int64)
        shift = np.repeat(node_base, counts)
        self.ent_root = np.where(roots >= 0, roots + shift, roots)
        #: Assembly index of every tag-first candidate entry.
        self.primary_ents = np.flatnonzero(ents["primary"])
        # Bucket cube entries by padded (power-of-two) cube count and scatter
        # each bucket's cubes into its (rows, pad) lane matrices, lane by
        # lane; the padding cells hold an unsatisfiable cube (mask 0 /
        # want 1 on lane1).
        cubes = np.concatenate([k.cubes for k in kernels] or [_NO_CUBES]).reshape(
            -1, 4
        )
        ncubes = ents["ncubes"].astype(np.int64)
        cube_off = np.zeros(self.n_entries, dtype=np.int64)
        np.cumsum(ncubes[:-1], out=cube_off[1:])
        shift0 = max(total_bits - 64, 0)
        pad_fill = (0, 1 >> shift0, 0, 1)
        has = ncubes > 0
        pads = np.zeros(self.n_entries, dtype=np.int64)
        pads[has] = np.left_shift(1, np.ceil(np.log2(ncubes[has])).astype(np.int64))
        self.ent_bucket = np.full(self.n_entries, -1, dtype=np.int8)
        self.ent_brow = np.zeros(self.n_entries, dtype=np.int64)
        self.buckets: List[Tuple] = []
        for pad in sorted(set(pads[has].tolist())):
            members = np.flatnonzero(pads == pad)
            count = ncubes[members]
            # Cell k of the bucket's cubes, in row-major order, is cube
            # ``cube_off[member] + col`` at position ``row * pad + col``.
            starts = np.zeros(members.size, dtype=np.int64)
            np.cumsum(count[:-1], out=starts[1:])
            step = np.arange(int(count.sum()), dtype=np.int64)
            src = np.repeat(cube_off[members] - starts, count) + step
            dst = np.repeat(np.arange(members.size) * pad - starts, count) + step
            m0, w0, m1, w1 = (
                _scatter(cubes[:, lane], src, dst, members.size, pad, pad_fill[lane])
                for lane in range(4)
            )
            self.ent_bucket[members] = len(self.buckets)
            self.ent_brow[members] = np.arange(members.size)
            # Wide buckets split into column blocks: rows that match an
            # early block (the common healthy case) skip the rest.
            blocks = []
            step = _BLOCK_COLS
            for lo in range(0, pad, step):
                hi = min(lo + step, pad)
                mode0, a0, b0 = _lane_block(m0[:, lo:hi], w0[:, lo:hi])
                mode1, a1, b1 = _lane_block(m1[:, lo:hi], w1[:, lo:hi])
                blocks.append((mode0, a0, b0, mode1, a1, b1))
            self.buckets.append(tuple(blocks))

    # -- entry evaluation ----------------------------------------------------

    def _eval_descent(self, rows, gidx, hdr_bytes):
        """Gather-based simultaneous descent with masked early exit."""
        uniq, inv = np.unique(rows, return_inverse=True)
        bits = np.unpackbits(hdr_bytes[uniq], axis=1)
        nbits = bits.shape[1]
        bits_flat = bits.ravel().astype(np.int64)
        rowmul = inv.astype(np.int64) * nbits
        res = np.zeros(gidx.shape[0], dtype=bool)
        nodes = self.ent_root[gidx]
        res[nodes == _FLAT_TRUE] = True
        pidx = np.flatnonzero(nodes >= 0)
        nodes = nodes[pidx]
        levels = self.node_levels
        children = self.node_children
        guard = 0
        while nodes.size:
            guard += 1
            if guard > self.total_bits + 1:  # pragma: no cover - corrupt kernel
                raise RuntimeError("vector descent did not terminate")
            b = bits_flat[rowmul[pidx] + levels[nodes]]
            nxt = children[(nodes << 1) + b]
            alive = nxt >= 0
            if alive.all():
                nodes = nxt
                continue
            dead = ~alive
            res[pidx[dead]] = nxt[dead] == _FLAT_TRUE
            pidx = pidx[alive]
            nodes = nxt[alive]
        return res

    def _eval_entries(self, rows, gidx, lane0, lane1, hdr_bytes):
        bk = self.ent_bucket[gidx]
        out = np.zeros(gidx.shape[0], dtype=bool)
        views = {}

        def lane_view(which, mode):
            if mode == _LANE_U64:
                return lane0 if which == 0 else lane1
            key = (which, mode)
            v = views.get(key)
            if v is None:
                base = lane0 if which == 0 else lane1
                if mode == _LANE_LO32:
                    v = base.astype(np.uint32)
                else:
                    v = (base >> np.uint64(32)).astype(np.uint32)
                views[key] = v
            return v

        for b, blocks in enumerate(self.buckets):
            sel = np.flatnonzero(bk == b)
            if not sel.size:
                continue
            br = self.ent_brow[gidx[sel]]
            r = rows[sel]
            last = len(blocks) - 1
            for i, (mode0, a0, b0, mode1, a1, b1) in enumerate(blocks):
                single = (a0.shape[1] if a0.ndim == 2 else 1) == 1
                if mode0 == _LANE_CONST:
                    t0 = a0[br, 0] if single else a0[br]
                else:
                    lv = lane_view(0, mode0)
                    if single:
                        t0 = (lv[r] & a0[br, 0]) == b0[br, 0]
                    else:
                        t0 = (lv[r, None] & a0[br]) == b0[br]
                if mode1 == _LANE_CONST:
                    t1 = a1[br, 0] if single else a1[br]
                else:
                    lv = lane_view(1, mode1)
                    if single:
                        t1 = (lv[r] & a1[br, 0]) == b1[br, 0]
                    else:
                        t1 = (lv[r, None] & a1[br]) == b1[br]
                okb = t0 & t1
                if not single:
                    okb = okb.any(axis=1)
                if i == last:
                    out[sel] = okb
                    break
                out[sel[okb]] = True
                miss = ~okb
                sel = sel[miss]
                if not sel.size:
                    break
                br = br[miss]
                r = r[miss]
        sel = np.flatnonzero(bk == -1)
        if sel.size:
            out[sel] = self._eval_descent(rows[sel], gidx[sel], hdr_bytes)
        return out

    # -- batch verification ----------------------------------------------------

    def verify(self, slot, tag, lane0, lane1, hdr_bytes):
        """Verdict codes + matched entry indexes for one marshalled batch.

        ``slot`` holds per-row pair slots (:data:`SLOT_UNKNOWN` /
        :data:`SLOT_SCALAR` sentinels included); returns ``(codes,
        matched)`` where ``matched[i]`` is the assembly entry index the row
        matched (``-1`` when none).  Scalar-sentinel rows come back as
        :data:`VSCALAR` for the caller to resolve.
        """
        n = slot.shape[0]
        codes = np.full(n, VNOPATH, dtype=np.uint8)
        matched = np.full(n, -1, dtype=np.int64)
        codes[slot == SLOT_UNKNOWN] = VUNKNOWN
        codes[slot == SLOT_SCALAR] = VSCALAR
        # The paper-literal list-order scan over every entry of the row's
        # pair, first match recovered per row.  For disjoint pairs the
        # match is unique, so this is verdict- and entry-identical to the
        # scalar tag-first ordering.
        rows = np.flatnonzero(slot >= 0)
        s = slot[rows]
        counts = self.ent_off[s + 1] - self.ent_off[s]
        nz = counts > 0
        rows, s, counts = rows[nz], s[nz], counts[nz]
        if rows.size == 0:
            return codes, matched
        total = int(counts.sum())
        expand = np.repeat(np.arange(rows.shape[0]), counts)
        starts = np.zeros(rows.shape[0], dtype=np.int64)
        np.cumsum(counts[:-1], out=starts[1:])
        local = np.arange(total, dtype=np.int64) - starts[expand]
        gidx = self.ent_off[s][expand] + local
        ok = self._eval_entries(rows[expand], gidx, lane0, lane1, hdr_bytes)
        big = np.int64(1 << 60)
        cand = np.where(ok, local, big)
        segmin = np.minimum.reduceat(cand, starts)
        found = segmin < big
        if found.any():
            frows = rows[found]
            mg = self.ent_off[s[found]] + segmin[found]
            matched[frows] = mg
            tag_ok = self.ent_tags[mg] == tag[frows]
            codes[frows] = np.where(tag_ok, VPASS, VMISMATCH).astype(np.uint8)
        return codes, matched


# ---------------------------------------------------------------------------
# header marshalling helpers
# ---------------------------------------------------------------------------


def lanes_from_bytes(hdr_bytes):
    """Split packed big-endian header bytes into two ``uint64`` lanes.

    ``lane0`` is the first 8 bytes (levels ``0..63``), ``lane1`` the last
    8 (levels ``total-64..total-1``); they overlap when ``total < 128``,
    which is harmless — cube masks are built with the same split.
    """
    lane0 = hdr_bytes[:, :8].copy().view(">u8").ravel().astype(np.uint64)
    lane1 = hdr_bytes[:, -8:].copy().view(">u8").ravel().astype(np.uint64)
    return lane0, lane1


# ---------------------------------------------------------------------------
# whole-table compile (a set-up step of the pipeline benchmark)
# ---------------------------------------------------------------------------


def build_table_kernel(table, hs, kernel_cache: Dict) -> KernelAssembly:
    """Compile every pair of ``table`` into ``kernel_cache`` and assemble them.

    The compile :class:`WireBatchVerifier` does, kept under this name and
    signature because the frozen pipeline benchmark times it as a set-up
    step.  ``kernel_cache`` receives each pair's :class:`PairKernel`
    (``None`` = irregular, left out of the assembly).
    """
    total_bits = hs.layout.total_bits
    kernels: List[PairKernel] = []
    for inport, outport in table.pairs():
        spec = table.fast_index(inport, outport, hs).spec
        kern = kernel_cache[inport, outport] = compile_pair_kernel(*spec, total_bits)
        if kern is not None:
            kernels.append(kern)
    return KernelAssembly(kernels, total_bits)


# ---------------------------------------------------------------------------
# wire-level batch verifier (daemon shard workers, fig13 vector bench)
# ---------------------------------------------------------------------------

#: Byte spans of the wire header fields inside a report payload, indexed by
#: their ``_WIRE_FIELD_POS`` position (src_ip, dst_ip, proto, sport, dport).
_WIRE_SPANS = ((14, 18), (18, 22), (22, 23), (23, 25), (25, 27))
_WIRE_WIDTHS = (32, 32, 8, 16, 16)

_REPORT_DTYPE_SPEC = [
    ("version", "u1"),
    ("flags", "u1"),
    ("inport", ">u2"),
    ("outport", ">u2"),
    ("tag", ">u8"),
]


class WireBatchVerifier:
    """Verify batches of wire report payloads with the vector kernel.

    Construction takes the same ``pairs`` replica dict and field
    ``packing`` a shard worker holds; kernels compile lazily on first use
    and are invalidated per pair (``invalidate(keys)``, the dirty-journal
    delta path) or wholesale (``reload``).  ``verify`` returns one verdict
    code per payload — including :data:`VMALFORMED` for undecodable
    payloads and :data:`VSCALAR` for rows the caller must re-run through
    the scalar matcher.
    """

    def __init__(self, pairs: Dict, packing, report_size: int = 27) -> None:
        if not HAVE_NUMPY:
            raise RuntimeError("WireBatchVerifier requires numpy")
        self._pairs = pairs
        self._packing = tuple(packing)
        self.report_size = report_size
        byte_cols: List[int] = []
        total_bits = 0
        for pos, width in self._packing:
            span = _WIRE_SPANS[pos]
            if width != _WIRE_WIDTHS[pos]:
                raise ValueError(
                    f"field width {width} does not match the wire field at "
                    f"position {pos} ({_WIRE_WIDTHS[pos]} bits)"
                )
            byte_cols.extend(range(span[0], span[1]))
            total_bits += width
        if not 64 < total_bits <= 128:
            raise ValueError(
                f"vector kernel needs a 65..128-bit header, got {total_bits}"
            )
        self.total_bits = total_bits
        cols = np.asarray(byte_cols, dtype=np.int64)
        #: None = identity (skip the permutation gather on the hot path).
        self._byte_cols = None if (cols == np.arange(14, 27)).all() else cols
        self._kernels: Dict = {}
        self._assembly: Optional[KernelAssembly] = None
        self._slot_table: Optional[_ProbeTable] = None
        self._fused: Optional[_ProbeTable] = None
        self.kernel_compiles = 0
        self.irregular_pairs = 0

    # -- invalidation (table version / dirty journal) --------------------------

    def reload(self, pairs: Dict) -> None:
        """Swap the whole replica (full resync / worker reload)."""
        self._pairs = pairs
        self._kernels.clear()
        self._assembly = None

    def invalidate(self, keys=None) -> None:
        """Drop compiled state for ``keys`` (``None`` = everything).

        The delta path: after a dirty-journal patch only the touched pair
        kernels recompile; the assembly (cheap concatenation) rebuilds on
        the next batch either way.
        """
        if keys is None:
            self._kernels.clear()
        else:
            for key in keys:
                self._kernels.pop(key, None)
        self._assembly = None

    def _ensure(self) -> None:
        if self._assembly is not None:
            return
        kernels: List[PairKernel] = []
        kernel_pairs: List[int] = []
        slot_pairs: List[int] = []
        slots: List[int] = []
        self.irregular_pairs = 0
        for key, spec in self._pairs.items():
            kern = self._kernels.get(key, _MISSING)
            if kern is _MISSING:
                kern = compile_pair_kernel(*spec, self.total_bits)
                self._kernels[key] = kern
                self.kernel_compiles += 1
            packed = (key[0] << 16) | key[1]
            slot_pairs.append(packed)
            if kern is None:
                self.irregular_pairs += 1
                slots.append(SLOT_SCALAR)
            else:
                slots.append(len(kernels))
                kernels.append(kern)
                kernel_pairs.append(packed)
        assembly = KernelAssembly(kernels, self.total_bits)
        self._slot_table = _ProbeTable(
            np.array(slot_pairs, dtype=np.int64),
            np.zeros(len(slot_pairs), dtype=np.uint64),
            np.array(slots, dtype=np.int64),
        )
        # One probe keyed (pair, tag) -> global entry lets healthy rows skip
        # the per-row slot lookup entirely; only the remainder resolves its
        # pair slot and runs the assembly's list-order scan.
        primary = assembly.primary_ents
        self._fused = None
        if primary.size:
            pair_of = np.repeat(
                np.array(kernel_pairs, dtype=np.int64), np.diff(assembly.ent_off)
            )
            self._fused = _ProbeTable(
                pair_of[primary], assembly.ent_tags[primary], primary
            )
        self._assembly = assembly

    # -- verification ---------------------------------------------------------

    def verify(self, payloads: Sequence[bytes]):
        """Verdict codes (uint8, one per payload) for a list batch."""
        self._ensure()
        n = len(payloads)
        size = self.report_size
        if n == 0:
            return np.empty(0, dtype=np.uint8)
        # One C pass over the lengths; wrong-size payloads are VMALFORMED
        # and the well-formed subset re-enters on the fast path below.
        lens = np.fromiter(map(len, payloads), dtype=np.int64, count=n)
        if (lens != size).any():
            good = np.flatnonzero(lens == size)
            codes = np.full(n, VMALFORMED, dtype=np.uint8)
            if good.size:
                sub = [payloads[i] for i in good.tolist()]
                codes[good] = self.verify(sub)
            return codes
        buf = b"".join(payloads)
        return self._verify_raw(
            np.frombuffer(buf, dtype=np.uint8).reshape(n, size)
        )

    def verify_frame(self, frame: bytes):
        """Verdict codes for a pre-framed batch (concatenated payloads).

        The sharded daemon ships each batch to its workers as one
        concatenated frame, so the hot path skips both the join and the
        per-payload length screen of :meth:`verify` — frame boundaries are
        fixed at ``report_size``, and a frame whose length is not a
        multiple of it is rejected outright (the framer only concatenates
        well-sized payloads).
        """
        self._ensure()
        size = self.report_size
        n, trailing = divmod(len(frame), size)
        if trailing:
            raise ValueError(
                f"frame length {len(frame)} is not a multiple of {size}"
            )
        if n == 0:
            return np.empty(0, dtype=np.uint8)
        return self._verify_raw(
            np.frombuffer(frame, dtype=np.uint8).reshape(n, size)
        )

    def _verify_raw(self, raw):
        """The shared batch pipeline over an ``(n, report_size)`` array."""
        n, size = raw.shape
        # Bytes 2..5 are inport/outport big-endian back to back, so one
        # ``>u4`` view is exactly the packed ``(inport << 16) | outport``.
        pk = raw[:, 2:6].copy().view(">u4").ravel().astype(np.int64)
        tags = raw[:, 6:14].copy().view(">u8").ravel().astype(np.uint64)
        if self._byte_cols is None:
            hdr = raw[:, 14:size]
        else:
            hdr = raw[:, self._byte_cols]
        lane0, lane1 = lanes_from_bytes(hdr)
        codes = np.full(n, VNOPATH, dtype=np.uint8)
        # Fast phase: (pair, tag) probe straight to the primary entry; a
        # hit whose matcher accepts the header is a PASS, everything else
        # falls through to the list-order scan on the remainder.
        if self._fused is not None:
            gidx = self._fused.lookup(pk, tags)
            arows = np.flatnonzero(gidx >= 0)
            if arows.size:
                ok = self._assembly._eval_entries(
                    arows, gidx[arows], lane0, lane1, hdr
                )
                codes[arows[ok]] = VPASS
        rem = np.flatnonzero(codes != VPASS)
        if rem.size:
            # Probe misses return -1 == SLOT_UNKNOWN already.
            slot = self._slot_table.lookup(
                pk[rem], np.zeros(rem.size, dtype=np.uint64)
            )
            sub, _ = self._assembly.verify(
                slot, tags[rem], lane0[rem], lane1[rem], hdr[rem]
            )
            codes[rem] = sub
        from .reports import REPORT_VERSION

        codes[raw[:, 0] != REPORT_VERSION] = VMALFORMED
        return codes


# ---------------------------------------------------------------------------
# Bloom membership as uint64 AND/compare over a batch
# ---------------------------------------------------------------------------


def bloom_first_miss(tag: int, hop_filters) -> int:
    """Index of the first hop filter *not* contained in ``tag`` (-1 = none).

    The localization walk's inner loop, vectorized: all hops of a candidate
    path are tested with one AND/compare sweep instead of a Python loop.
    """
    hf = np.asarray(hop_filters, dtype=np.uint64)
    if hf.size == 0:
        return -1
    t = np.uint64(tag)
    miss = (hf & t) != hf
    if not miss.any():
        return -1
    return int(miss.argmax())
