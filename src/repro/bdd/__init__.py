"""Binary Decision Diagram substrate for header-set reasoning.

VeriDP (Section 4.1) encodes packet header sets as BDDs instead of wildcard
expressions.  :mod:`repro.bdd.engine` is a from-scratch ROBDD manager;
:mod:`repro.bdd.headerspace` maps the TCP/IP 5-tuple onto BDD variables and
provides match-predicate constructors.
"""

from typing import TYPE_CHECKING

from ..lazy import lazy_exports
from .engine import BDD, FALSE, TRUE
from .headerspace import (
    DEFAULT_FIELDS,
    HeaderField,
    HeaderLayout,
    HeaderSpace,
    format_ipv4,
    parse_ipv4,
    parse_prefix,
    range_to_prefixes,
)

if TYPE_CHECKING:
    from .atomic import AtomicUniverse, compute_atoms

__all__ = [
    "BDD",
    "AtomicUniverse",
    "compute_atoms",
    "FALSE",
    "TRUE",
    "HeaderField",
    "HeaderLayout",
    "HeaderSpace",
    "DEFAULT_FIELDS",
    "parse_ipv4",
    "parse_prefix",
    "format_ipv4",
    "range_to_prefixes",
]

# Atomic predicates serve the offline AtomicPathTableBuilder only.
__getattr__, __dir__ = lazy_exports(
    globals(), {"AtomicUniverse": "atomic", "compute_atoms": "atomic"}
)
