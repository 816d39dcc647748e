"""Tests for the experiment-runner CLI."""

import pytest

from repro.cli import build_parser, main, render_table


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["table2"])
        assert args.command == "table2"
        assert args.seed == 0
        assert args.scale == 2

    def test_fig12_options(self):
        args = build_parser().parse_args(
            ["fig12", "--topo", "ft4", "--trials", "50", "--bits", "8", "16"]
        )
        assert args.topo == "ft4"
        assert args.trials == 50
        assert args.bits == [8, 16]

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])

    def test_serve_options(self):
        args = build_parser().parse_args(
            ["serve", "--topo", "ft4", "--mode", "sharded",
             "--metrics-port", "0", "--reports", "5"]
        )
        assert args.command == "serve"
        assert args.mode == "sharded"
        assert args.metrics_port == 0
        assert args.reports == 5

    def test_fig13_rejects_repeats_below_one(self, capsys):
        for value in ("0", "-3"):
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args(["fig13", "--repeats", value])
            assert exc.value.code == 2
            assert "--repeats: must be at least 1" in capsys.readouterr().err

    def test_serve_metrics_off_by_default(self):
        args = build_parser().parse_args(["serve"])
        assert args.metrics_port is None
        assert args.mode == "thread"


class TestRenderTable:
    def test_alignment(self):
        text = render_table("T", ["a", "bbbb"], [["xx", 1], ["y", 22]])
        lines = text.splitlines()
        assert lines[1] == "T"
        assert "a   bbbb" in lines[3]
        assert "xx  1" in text

    def test_empty_rows(self):
        text = render_table("T", ["col"], [])
        assert "col" in text


class TestCommands:
    """Each command runs end-to-end at a tiny scale."""

    def run(self, *argv):
        return main(list(argv))

    def test_table4(self, capsys):
        assert self.run("table4") == 0
        out = capsys.readouterr().out
        assert "native_us" in out and "19.89" in out

    def test_table2(self, capsys):
        assert self.run("table2", "--scale", "1") == 0
        out = capsys.readouterr().out
        assert "ft4" in out and "stanford" in out

    def test_fig6(self, capsys):
        assert self.run("fig6", "--scale", "1") == 0
        assert "CDF" in capsys.readouterr().out

    def test_fig12(self, capsys):
        assert self.run("fig12", "--topo", "ft4", "--trials", "50",
                        "--bits", "16", "64") == 0
        out = capsys.readouterr().out
        assert "abs FNR" in out

    def test_table3(self, capsys):
        assert self.run("table3", "--trials", "1") == 0
        assert "loc. prob" in capsys.readouterr().out

    def test_fig13(self, capsys):
        assert self.run("fig13", "--repeats", "2", "--scale", "1") == 0
        assert "verifs/s" in capsys.readouterr().out

    def test_fig14(self, capsys):
        assert self.run("fig14", "--scale", "1") == 0
        assert "under 10 ms" in capsys.readouterr().out

    def test_demo(self, capsys):
        assert self.run("demo") == 0
        out = capsys.readouterr().out
        assert "blamed:" in out

    def test_tradeoff(self, capsys):
        assert self.run("tradeoff", "--intervals", "0.5", "--trials", "1") == 0
        assert "bound (s)" in capsys.readouterr().out

    def test_paths(self, capsys):
        assert self.run("paths", "--topo", "ft4", "--limit", "2") == 0
        out = capsys.readouterr().out
        assert "path table:" in out and "more)" in out

    def test_serve_self_drive(self, capsys):
        assert self.run("serve", "--topo", "ft4", "--reports", "4",
                        "--metrics-port", "0") == 0
        out = capsys.readouterr().out
        assert "listening for tag reports on udp://" in out
        assert "monitoring endpoint on http://" in out
        assert "self-drive: sent" in out
        assert "submitted" in out and "processed" in out

    def test_serve_cluster_duration_runs_the_maintenance_loop(
        self, capsys, monkeypatch
    ):
        """``--duration`` bounds the node watch, it does not skip it: a
        node that dies mid-run is failed over before the deadline."""
        from repro.cluster import VeriDPCluster

        passes = []
        check_nodes = VeriDPCluster.check_nodes

        def counted(cluster):
            passes.append(1)
            return check_nodes(cluster)

        monkeypatch.setattr(VeriDPCluster, "check_nodes", counted)
        assert self.run("serve", "--topo", "ft4", "--cluster", "2",
                        "--duration", "1.2") == 0
        out = capsys.readouterr().out
        assert len(passes) >= 2  # at t=0 and t=1 s, then at the deadline
        assert "serve (cluster) statistics" in out

    def test_report_collates_results(self, capsys, tmp_path, monkeypatch):
        results = tmp_path / "benchmarks" / "results"
        results.mkdir(parents=True)
        (results / "a.txt").write_text("TABLE-A\n")
        (results / "b.txt").write_text("TABLE-B\n")
        monkeypatch.chdir(tmp_path)
        assert self.run("report") == 0
        out = capsys.readouterr().out
        assert "2 tables" in out
        assert "TABLE-A" in out and "TABLE-B" in out

    def test_report_without_results(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert self.run("report") == 1
        assert "no results" in capsys.readouterr().out
