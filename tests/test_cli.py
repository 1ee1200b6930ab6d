"""Tests for the ``python -m repro`` command-line interface."""

import hashlib

import pytest

from repro.cli import build_parser, main
from repro.experiments.figures import FIGURES

# (spec count, digest of the ordered tokens) that ``run X --dry-run`` printed
# at the commit before FIGURES/PAPER_SCALE replaced Scale and the per-figure
# CLI wrappers, at the default scale and under --full.  Only fig12 --full
# differs from that commit (it used to ignore --full).
DRY_RUN_GRIDS = {
    "table1": ((0, "e3b0c44298fc"), (0, "e3b0c44298fc")),
    "fig2": ((10, "67f3993503f4"), (15, "1b0a4b31d5ac")),
    "fig3": ((16, "9a1a7d32a8d0"), (24, "2f0e43d296ec")),
    "fig5": ((0, "e3b0c44298fc"), (0, "e3b0c44298fc")),
    "fig6": ((24, "c229dd1113fb"), (108, "d5592734cc7e")),
    "fig7": ((24, "f34e8f256811"), (108, "85290a0edcec")),
    "fig8": ((24, "a0071f5a4e6c"), (36, "24ac6d91618e")),
    "fig9": ((8, "7b877c8ec8ab"), (48, "cab1817a6909")),
    "fig10": ((3, "46ebd34ecc27"), (3, "46ebd34ecc27")),
    "fig11": ((18, "7f0e363847a4"), (24, "8059cbe99e0a")),
    "fig12": ((32, "87f8a2a91b8f"), (32, "6242135242d3")),
    "fig13": ((2, "70a9156d38ca"), (2, "70a9156d38ca")),
    # the two rows that build their rigs by hand (no RunSpec kind of their own)
    "ablation": ((0, "e3b0c44298fc"), (0, "e3b0c44298fc")),
    "dcqcn": ((0, "e3b0c44298fc"), (0, "e3b0c44298fc")),
}


class TestParser:
    def test_list_command(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_command_with_options(self):
        args = build_parser().parse_args(["run", "fig5", "--seed", "9"])
        assert args.command == "run"
        assert args.experiment == "fig5"
        assert args.seed == 9
        assert not args.full

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig99"])

    def test_every_paper_artifact_is_registered(self):
        expected = {
            "table1", "fig2", "fig3", "fig5", "fig6", "fig7", "fig8",
            "fig9", "fig10", "fig11", "fig12", "fig13", "ablation", "dcqcn",
        }
        assert set(FIGURES) == expected
        assert set(DRY_RUN_GRIDS) == expected


class TestMain:
    def test_list_prints_all(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert [line.split()[0] for line in out.splitlines()] == list(
            DRY_RUN_GRIDS
        )  # the order `repro list` has always printed

    @pytest.mark.parametrize("full", [False, True], ids=["default", "full"])
    @pytest.mark.parametrize("name", DRY_RUN_GRIDS)
    def test_dry_run_grid_is_pinned(self, name, full, capsys):
        argv = ["-q", "run", name, "--dry-run", "--no-cache"]
        assert main(argv + (["--full"] if full else [])) == 0
        out = capsys.readouterr().out
        tokens = [
            line.rsplit(None, 1)[0].strip()
            for line in out.splitlines()
            if line.endswith(("  miss", "  hit")) and "|" in line
        ]
        digest = hashlib.sha256("\n".join(tokens).encode()).hexdigest()[:12]
        assert (len(tokens), digest) == DRY_RUN_GRIDS[name][full]
        assert ("builds no executor spec grid" in out) == (not tokens)

    def test_full_without_paper_scale_says_so(self, capsys):
        assert main(["run", "fig10", "--full", "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "# fig10 has no paper-scale parameters; running defaults" in out

    @pytest.mark.parametrize(
        "variable, value, argv",
        [
            ("REPRO_JOBS", "abc", "run fig5"),
            ("REPRO_RETRIES", "-3", "run fig5"),
            ("REPRO_SPEC_TIMEOUT", "abc", "run fig5"),
            ("REPRO_FULL", "enable", "run fig5"),
            ("REPRO_FIDELITY", "fliud", "scenario check scenarios/fig10_microscopic.toml"),
            ("REPRO_FIDELITY", "fliud", "scenario run scenarios/ --dry-run"),
            ("--retries", "-3", "run fig5 --retries -3"),
        ],
    )
    def test_malformed_setting_is_one_error_line(
        self, variable, value, argv, monkeypatch, capsys
    ):
        if variable.startswith("REPRO_"):
            monkeypatch.setenv(variable, value)
        assert main(argv.split()) == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # nothing ran, nothing warned-and-ran
        errors = captured.err.splitlines()
        assert len(errors) == 1 and errors[0].startswith("# error: ")
        assert variable in errors[0] and value in errors[0]

    def test_run_fast_experiment(self, capsys):
        assert main(["run", "fig5"]) == 0
        out = capsys.readouterr().out
        assert "Figure 5" in out
        assert "completed in" in out

    def test_run_table1_with_seed(self, capsys):
        assert main(["run", "table1", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "seed=3" in out
        assert "Networking Stack" in out
