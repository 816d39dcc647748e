"""Tests for the diagnostic path table dump."""

from repro.bdd.headerspace import HeaderSpace
from repro.core.pathtable import PathTableBuilder
from repro.topologies import build_figure5, build_linear


class TestPathTableDump:
    def test_dump_contains_entries(self):
        scenario = build_figure5()
        hs = HeaderSpace()
        table = PathTableBuilder(scenario.topo, hs).build()
        text = table.dump(hs)
        assert "path table:" in text
        assert "<S1, 1>" in text
        assert "e.g." in text  # sample headers rendered

    def test_dump_without_headerspace(self):
        scenario = build_linear(3)
        table = PathTableBuilder(scenario.topo, HeaderSpace()).build()
        text = table.dump()
        assert "e.g." not in text
        assert "PathEntry" in text

    def test_dump_limit(self):
        scenario = build_linear(3)
        table = PathTableBuilder(scenario.topo, HeaderSpace()).build()
        text = table.dump(limit=2)
        assert "more)" in text
        assert text.count("PathEntry") == 2
