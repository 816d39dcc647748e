"""Moved to :mod:`repro.core.coverage` (the server uses it); re-exported here."""

from ..core.coverage import CoverageReport, CoverageTracker

__all__ = ["CoverageReport", "CoverageTracker"]
