"""Atomic predicates (Yang & Lam [56], the paper's reference 56).

Given a set of *generator* predicates (for VeriDP: every transfer predicate
of every switch), the **atoms** are the coarsest partition of the header
space such that each generator is a union of atoms.  Representing header
sets as sets of atom indices turns the BDD intersections in Algorithm 2's
inner loop into native integer-set operations — the optimisation that lets
[56] verify the Stanford network in real time.

This module computes the atoms by iterative refinement and provides the
bidirectional conversion between BDDs and atom sets.  The correctness
contract: conversions are exact for any Boolean combination of generator
predicates (property-tested), which covers everything a path-table
traversal ever intersects.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Sequence

from .engine import BDD, FALSE, TRUE

__all__ = ["AtomicUniverse", "compute_atoms"]


def compute_atoms(bdd: BDD, predicates: Iterable[int]) -> List[int]:
    """Refine ``{True}`` against every predicate; returns the atom BDDs.

    Deterministic: atoms come out in refinement order.  Worst case the atom
    count is exponential in the predicate count, but nested/disjoint
    predicates (IP routing tables) stay near-linear — which is the whole
    point of the technique.
    """
    atoms: List[int] = [TRUE]
    for predicate in predicates:
        if predicate in (TRUE, FALSE):
            continue
        refined: List[int] = []
        for atom in atoms:
            inside = bdd.and_(atom, predicate)
            if inside != FALSE:
                refined.append(inside)
            outside = bdd.diff(atom, predicate)
            if outside != FALSE:
                refined.append(outside)
        atoms = refined
    return atoms


class AtomicUniverse:
    """A fixed atom basis with BDD <-> atom-set conversion.

    Built once from the generator predicates; afterwards every set
    operation on generator-derived header sets is a ``frozenset`` op.
    """

    def __init__(self, bdd: BDD, generators: Sequence[int]) -> None:
        self.bdd = bdd
        self.atoms: List[int] = compute_atoms(bdd, generators)
        self._to_bdd_cache: Dict[FrozenSet[int], int] = {}
        self._from_bdd_cache: Dict[int, FrozenSet[int]] = {}
        self.all_atoms: FrozenSet[int] = frozenset(range(len(self.atoms)))
        self.empty: FrozenSet[int] = frozenset()

    def __len__(self) -> int:
        return len(self.atoms)

    # -- conversions ---------------------------------------------------------

    def from_bdd(self, predicate: int) -> FrozenSet[int]:
        """Atom indices whose union is ``predicate``.

        Exact iff ``predicate`` is a union of atoms (true for any Boolean
        combination of the generators); atoms partially overlapping a
        non-generator predicate are *included*, making the result an
        over-approximation in that (unsupported) case.
        """
        cached = self._from_bdd_cache.get(predicate)
        if cached is not None:
            return cached
        if predicate == FALSE:
            result: FrozenSet[int] = frozenset()
        elif predicate == TRUE:
            result = self.all_atoms
        else:
            result = frozenset(
                index
                for index, atom in enumerate(self.atoms)
                if self.bdd.and_(atom, predicate) != FALSE
            )
        self._from_bdd_cache[predicate] = result
        return result

    def to_bdd(self, atom_set: FrozenSet[int]) -> int:
        """The union BDD of a set of atoms."""
        atom_set = frozenset(atom_set)
        cached = self._to_bdd_cache.get(atom_set)
        if cached is not None:
            return cached
        if atom_set == self.all_atoms:
            result = TRUE
        else:
            result = self.bdd.or_many(self.atoms[i] for i in sorted(atom_set))
        self._to_bdd_cache[atom_set] = result
        return result

    # -- diagnostics -----------------------------------------------------------

    def is_partition(self) -> bool:
        """Sanity: atoms are pairwise disjoint and cover the universe."""
        union = self.bdd.or_many(self.atoms)
        if union != TRUE:
            return False
        for i, a in enumerate(self.atoms):
            for b in self.atoms[i + 1 :]:
                if self.bdd.and_(a, b) != FALSE:
                    return False
        return True
