"""Tests for machine-readable grid export: report.to_json/to_csv and the
CLI's ``--results-out``."""

import csv
import json

import pytest

from repro.experiments.report import to_csv, to_json


class TestToJson:
    def test_returns_sorted_indented_text(self):
        text = to_json({"b": 1, "a": [1, 2]})
        assert text.endswith("\n")
        assert text.index('"a"') < text.index('"b"')
        assert json.loads(text) == {"b": 1, "a": [1, 2]}

    def test_writes_file(self, tmp_path):
        path = tmp_path / "out.json"
        text = to_json({"x": 1.5}, str(path))
        assert path.read_text() == text


class TestToCsv:
    def test_round_trips_through_csv_reader(self, tmp_path):
        path = tmp_path / "out.csv"
        to_csv(
            ["figure", "cell", "value"],
            [["fig5", "a", 1.25], ["fig5", "b", 2.5]],
            str(path),
        )
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows == [
            ["figure", "cell", "value"],
            ["fig5", "a", "1.25"],
            ["fig5", "b", "2.5"],
        ]

    def test_returns_text_without_path(self):
        text = to_csv(["h"], [["v"]])
        assert text == "h\nv\n"

    def test_row_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            to_csv(["a", "b"], [["only-one"]])


class TestCliResultsOut:
    def test_fig5_results_out_json(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "fig5.json"
        assert main(["run", "fig5", "--results-out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["figure"] == "fig5"
        assert "workload=web-search" in payload["cells"]
        assert "mean_bytes" in payload["cells"]["workload=web-search"]
        assert "results written" in capsys.readouterr().out

    def test_fig5_results_out_csv(self, tmp_path):
        from repro.cli import main

        out = tmp_path / "fig5.csv"
        assert main(["run", "fig5", "--results-out", str(out)]) == 0
        with open(out, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["figure", "cell", "metric", "value"]
        assert any(row[1] == "workload=data-mining" for row in rows[1:])

    def test_missing_directory_rejected_before_running(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(
                [
                    "run", "fig5",
                    "--results-out", str(tmp_path / "nope" / "x.json"),
                ]
            )

    def test_table1_results_out(self, tmp_path):
        from repro.cli import main

        out = tmp_path / "table1.json"
        assert main(["run", "table1", "--results-out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["figure"] == "table1"
        assert payload["derived"]["variation_ratio"] > 1.5

    FIG10 = ["run", "fig10", "--no-cache", "--seed", "5"]

    def test_grid_figure_results_out_json(self, tmp_path, monkeypatch):
        """fig10 at small fanout with CoDel's cell failing: the file has the
        table's shape, its cells are keyed by ``Cell.key``, the failed cell
        is absent rather than ``null``, and ``claims`` round-trips the
        verdicts -- the one about CoDel skipped, not failed."""
        from repro.cli import main
        from repro.experiments.figures import FIGURES, PAPER_SCALE
        from repro.validation.invariants import REGISTRY

        monkeypatch.setitem(PAPER_SCALE, "fig10", {"fanout": 20})
        monkeypatch.setenv("REPRO_FAULT_INJECT", "raise:CoDel")
        out = tmp_path / "fig10.json"
        assert main(self.FIG10 + ["--full", "--results-out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert set(payload) == {"figure", "params", "cells", "derived", "claims"}
        assert payload["figure"] == "fig10"
        assert payload["params"] == {
            "fanout": 20,
            "seed": 5,
            "schemes": ["DCTCP-RED-Tail", "CoDel", "ECN#"],
        }
        grid = FIGURES["fig10"].cells(fanout=20, seed=5)
        assert set(payload["cells"]) == {
            cell.key for cell in grid.values()
        } - {"scheme=CoDel"}
        for metrics in payload["cells"].values():
            assert metrics["standing_queue_pkts"] >= 0.0
            assert all(isinstance(v, float) for v in metrics.values())
        assert "ecn_sharp_standing_ratio" in payload["derived"]
        assert "codel_standing_ratio" not in payload["derived"]
        assert all(isinstance(v, float) for v in payload["derived"].values())
        claims = {claim["name"]: claim for claim in payload["claims"]}
        assert list(claims) == [claim.name for claim in REGISTRY["fig10"]]
        for claim in REGISTRY["fig10"]:
            verdict = claims[claim.name]
            assert verdict["threshold"] == claim.threshold
            assert verdict["status"] in ("pass", "fail", "skip")
            if claim.key in payload["derived"]:
                assert verdict["value"] == payload["derived"][claim.key]
        assert claims["fig10.codel_standing_queue"]["status"] == "skip"
        assert claims["fig10.codel_standing_queue"]["value"] is None
        assert claims["fig10.burst_absorbed"]["status"] == "pass"

    def test_grid_figure_results_out_csv(self, tmp_path, monkeypatch):
        from repro.cli import main
        from repro.experiments.figures import PAPER_SCALE

        monkeypatch.setitem(
            PAPER_SCALE, "fig10", {"fanout": 20, "schemes": ("ECN#",)}
        )
        out = tmp_path / "fig10.csv"
        assert main(self.FIG10 + ["--full", "--results-out", str(out)]) == 0
        with open(out, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["figure", "cell", "metric", "value"]
        assert {(row[0], row[1]) for row in rows[1:]} == {
            ("fig10", "scheme=ECN#"),
            ("fig10", "derived"),
        }
        assert "standing_queue_pkts" in {row[2] for row in rows[1:]}
        derived = {row[2] for row in rows[1:] if row[1] == "derived"}
        assert "ecn_sharp_floor_pkts" in derived  # ECN#'s own number...
        assert "ecn_sharp_standing_ratio" not in derived  # ...no RED-Tail to divide by
