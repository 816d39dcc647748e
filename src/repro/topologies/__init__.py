"""Topology zoo: the paper's experiment networks plus small generators.

* :func:`build_stanford`  — Stanford-backbone-like (16 routers, ACLs),
* :func:`build_internet2` — Internet2/Abilene-like (9 routers, LPM only),
* :func:`build_fattree`   — k-ary fat trees (the localization fixture),
* :mod:`repro.topologies.generators` — linear/ring/star/grid and the
  Figure 5 toy network with the paper's exact rules.
"""

from typing import TYPE_CHECKING

from ..lazy import lazy_exports
from .base import Scenario, lpm_ruleset_for, wire_scenario
from .internet2 import INTERNET2_POPS, build_internet2, internet2_lpm_ruleset
from .stanford import STANFORD_BACKBONES, STANFORD_ZONES, build_stanford

if TYPE_CHECKING:
    from .fattree import build_fattree, fattree_dimensions
    from .generators import (
        build_figure5,
        build_jellyfish,
        build_random,
        build_grid,
        build_linear,
        build_ring,
        build_star,
    )
    from .io import (
        load_scenario,
        save_scenario,
        topology_from_dict,
        topology_to_dict,
    )

#: Resolved on first use (``tests/test_import_budget.py`` is the gate): a
#: serve process builds the Stanford or Internet2 scenario only.
_LAZY = {
    "build_fattree": "fattree",
    "fattree_dimensions": "fattree",
    "build_figure5": "generators",
    "build_jellyfish": "generators",
    "build_random": "generators",
    "build_grid": "generators",
    "build_linear": "generators",
    "build_ring": "generators",
    "build_star": "generators",
    "load_scenario": "io",
    "save_scenario": "io",
    "topology_from_dict": "io",
    "topology_to_dict": "io",
}

__getattr__, __dir__ = lazy_exports(globals(), _LAZY)

__all__ = [
    "Scenario",
    "wire_scenario",
    "lpm_ruleset_for",
    "build_fattree",
    "fattree_dimensions",
    "build_linear",
    "build_ring",
    "build_star",
    "build_grid",
    "build_figure5",
    "build_random",
    "build_jellyfish",
    "topology_to_dict",
    "topology_from_dict",
    "save_scenario",
    "load_scenario",
    "build_stanford",
    "STANFORD_ZONES",
    "STANFORD_BACKBONES",
    "build_internet2",
    "internet2_lpm_ruleset",
    "INTERNET2_POPS",
]
