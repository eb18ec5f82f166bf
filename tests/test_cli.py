"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_spmm_defaults(self):
        args = build_parser().parse_args(["spmm"])
        assert args.m == 1024 and args.v == 8

    def test_figure_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["reproduce", "fig99"])
        args = build_parser().parse_args(["reproduce"])
        assert args.keys == [] and args.out is None
        for name in ("fig1", "fig10", "fig11", "fig12", "table2", "table3", "overhead"):
            assert build_parser().parse_args(["reproduce", name]).keys == [name]

    def test_help_lists_only_the_paper_and_fleet_commands(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--help"])
        out = capsys.readouterr().out
        assert (
            "{spmm,reorder,inspect,reproduce,top,fleet-status,verify,device}"
            in out
        )


class TestCommands:
    def test_device(self, capsys):
        assert main(["device"]) == 0
        out = capsys.readouterr().out
        assert "A100" in out and "312" in out

    def test_reorder(self, capsys):
        rc = main(
            ["reorder", "--m", "128", "--k", "128", "--sparsity", "0.9", "--v", "4",
             "--block-tile", "32"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "reorder success" in out
        assert "col_idx_array" in out

    def test_spmm_small(self, capsys):
        rc = main(
            ["spmm", "--m", "128", "--k", "128", "--n", "64", "--sparsity", "0.9",
             "--v", "4", "--systems", "jigsaw,cublas"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "jigsaw" in out and "vs cuBLAS" in out

    def test_spmm_unknown_system(self, capsys):
        rc = main(["spmm", "--systems", "jigsaw,tpu"])
        assert rc == 2
        assert "unknown systems" in capsys.readouterr().err

    def test_figure_overhead(self, capsys, tmp_path):
        """`reproduce overhead` prints one block; `--out` writes the same text."""
        assert main(["reproduce", "overhead"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("=" * 52 + "\nSection 4.6: paper storage model")
        assert "56.25%" in out
        path = tmp_path / "results.txt"
        assert main(["reproduce", "overhead", "--out", str(path)]) == 0
        assert path.read_text() == out

    def test_reorder_workers_flag(self, capsys):
        rc = main(
            ["reorder", "--m", "128", "--k", "128", "--sparsity", "0.9", "--v", "4",
             "--block-tile", "32", "--workers", "2"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "reorder success" in out
        assert "preprocessing" in out

    def test_reorder_plan_cache_flag(self, capsys, tmp_path):
        argv = ["reorder", "--m", "64", "--k", "128", "--sparsity", "0.9", "--v", "4",
                "--block-tile", "32", "--plan-cache", str(tmp_path)]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "miss" in first
        assert main(argv) == 0  # second run loads the artifact
        second = capsys.readouterr().out
        assert "hit" in second
        assert list(tmp_path.glob("jigsaw-*.npz"))

    def test_spmm_accepts_engine_flags(self, capsys):
        rc = main(
            ["spmm", "--m", "128", "--k", "128", "--n", "64", "--sparsity", "0.9",
             "--v", "4", "--systems", "jigsaw", "--workers", "1"]
        )
        assert rc == 0
        assert "jigsaw" in capsys.readouterr().out


class TestFleetStatusCli:
    def _write_status(self, tmp_path):
        import json

        from tests.analysis.test_fleet_top import SAMPLE_STATUS

        p = tmp_path / "status.json"
        p.write_text(json.dumps(SAMPLE_STATUS))
        return str(p)

    def test_fleet_status_dumps_json(self, capsys, tmp_path):
        import json

        path = self._write_status(tmp_path)
        assert main(["fleet-status", "--status-file", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro.fleet_status/v1"

    def test_fleet_status_missing_file_exits_2(self, capsys, tmp_path):
        rc = main(["fleet-status", "--status-file", str(tmp_path / "nope.json")])
        assert rc == 2
        assert "no fleet status" in capsys.readouterr().err

    def test_top_once_renders_a_frame(self, capsys, tmp_path):
        path = self._write_status(tmp_path)
        assert main(["top", "--status-file", path, "--once"]) == 0
        out = capsys.readouterr().out
        assert "repro top" in out
        assert "fast_burn" in out

    def test_top_once_missing_file_exits_2(self, capsys, tmp_path):
        rc = main(["top", "--status-file", str(tmp_path / "nope.json"), "--once"])
        assert rc == 2
        assert "waiting for fleet status" in capsys.readouterr().out

    def test_top_parser_defaults(self):
        args = build_parser().parse_args(["top", "--status-file", "s.json"])
        assert args.interval == 1.0
        assert args.once is False
