"""Path-table shape reporting — Table 2 and Figure 6.

Table 2 reports, per topology: number of (inport, outport) entries, number
of paths, average path length, construction time.  Figure 6 plots the
distribution of the number of paths per (inport, outport) pair, which
justifies Algorithm 3's linear scan.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..bdd.headerspace import HeaderSpace
from ..core.pathtable import PathTable, PathTableBuilder, PathTableStats
from ..topologies.base import Scenario

__all__ = [
    "Table2Row",
    "build_and_measure",
    "path_count_distribution",
    "distribution_cdf",
]


@dataclass
class Table2Row:
    """One row of Table 2, plus handles to the built artifacts."""

    setup: str
    stats: PathTableStats
    builder: PathTableBuilder
    table: PathTable

    def as_tuple(self) -> Tuple[str, int, int, float, float]:
        """(setup, #entries, #paths, avg path len, time) — the paper's columns."""
        return (
            self.setup,
            self.stats.num_pairs,
            self.stats.num_paths,
            round(self.stats.avg_path_length, 2),
            round(self.stats.build_time_s, 3),
        )

    def __str__(self) -> str:
        setup, pairs, paths, avg, secs = self.as_tuple()
        return f"{setup:12s} {pairs:>8d} {paths:>8d} {avg:>8.2f} {secs:>8.3f}s"


def build_and_measure(scenario: Scenario, setup: Optional[str] = None) -> Table2Row:
    """Build the path table for a scenario and report its Table 2 row."""
    hs = HeaderSpace()
    builder = PathTableBuilder(scenario.topo, hs)
    table = builder.build()
    return Table2Row(
        setup=setup or scenario.topo.name,
        stats=table.stats(),
        builder=builder,
        table=table,
    )


def path_count_distribution(table: PathTable) -> Dict[int, int]:
    """``{paths_per_pair: number_of_pairs}`` — the Figure 6 histogram."""
    return dict(Counter(table.paths_per_pair()))


def distribution_cdf(distribution: Dict[int, int]) -> List[Tuple[int, float]]:
    """Cumulative fraction of pairs with at most ``k`` paths, sorted by k."""
    total = sum(distribution.values())
    if total == 0:
        return []
    cdf: List[Tuple[int, float]] = []
    running = 0
    for k in sorted(distribution):
        running += distribution[k]
        cdf.append((k, running / total))
    return cdf
