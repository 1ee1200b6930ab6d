"""Tests for golden-baseline serialization and staleness detection."""

import json

import pytest

from repro.validation.baselines import (
    BASELINE_SCHEMA_VERSION,
    Baseline,
    BaselineManifest,
    DirtyTreeError,
    StaleBaselineError,
    ensure_clean_tree,
)


def make_baseline(**manifest_overrides) -> Baseline:
    manifest = BaselineManifest(scale="tiny", git_sha="abc1234")
    for key, value in manifest_overrides.items():
        setattr(manifest, key, value)
    return Baseline(
        manifest=manifest,
        figures={
            "fig10": {
                "params": {"fanout": 100},
                "cells": {
                    "scheme=ECN#": {
                        "metrics": {"standing_queue_pkts": [26.6]},
                        "tokens": ["microscopic|ECN#|seed=51|deadbeef"],
                    }
                },
            }
        },
    )


class TestRoundTrip:
    def test_save_load_preserves_everything(self, tmp_path):
        baseline = make_baseline()
        path = tmp_path / "tiny.json"
        baseline.save(path)
        # a top-level key this version does not know (the retired perf
        # payload of older baselines) is ignored on load
        payload = json.loads(path.read_text())
        payload["bench"] = {"packet": {"events_per_sec": 1e6}}
        path.write_text(json.dumps(payload))
        loaded = Baseline.load(path)
        assert loaded.manifest.scale == "tiny"
        assert loaded.manifest.git_sha == "abc1234"
        assert loaded.manifest.baseline_schema == BASELINE_SCHEMA_VERSION
        assert loaded.cell_samples("fig10", "scheme=ECN#", "standing_queue_pkts") == [26.6]
        assert loaded.cell_tokens("fig10", "scheme=ECN#") == [
            "microscopic|ECN#|seed=51|deadbeef"
        ]

    def test_save_creates_parent_dirs(self, tmp_path):
        path = tmp_path / "nested" / "dir" / "tiny.json"
        make_baseline().save(path)
        assert path.exists()

    def test_missing_entries_return_none(self):
        baseline = make_baseline()
        assert baseline.cell_samples("fig10", "scheme=nope", "m") is None
        assert baseline.cell_samples("fig99", "c", "m") is None
        assert baseline.cell_tokens("fig10", "scheme=nope") is None


class TestStaleness:
    def test_current_schema_is_compatible(self):
        make_baseline().check_compatible()

    def test_old_baseline_schema_raises(self):
        baseline = make_baseline(baseline_schema=BASELINE_SCHEMA_VERSION - 1)
        with pytest.raises(StaleBaselineError, match="baseline schema"):
            baseline.check_compatible()

    def test_old_spec_schema_raises(self):
        baseline = make_baseline(spec_schema=-1)
        with pytest.raises(StaleBaselineError, match="spec schema"):
            baseline.check_compatible()

    def test_matching_tokens_pass(self):
        make_baseline().check_tokens(
            "fig10", "scheme=ECN#", ["microscopic|ECN#|seed=51|deadbeef"]
        )

    def test_changed_tokens_raise(self):
        with pytest.raises(StaleBaselineError, match="different run specs"):
            make_baseline().check_tokens(
                "fig10", "scheme=ECN#", ["microscopic|ECN#|seed=51|cafecafe"]
            )

    def test_unknown_cell_tokens_pass_through(self):
        # A cell absent from the baseline surfaces as a missing-baseline
        # SKIP at compare time, not a staleness error.
        make_baseline().check_tokens("fig10", "scheme=new", ["whatever"])


class TestDirtyTreeGuard:
    def test_dirty_tree_refused(self, monkeypatch):
        monkeypatch.setattr(
            "repro.validation.baselines.git_dirty", lambda cwd=None: True
        )
        with pytest.raises(DirtyTreeError):
            ensure_clean_tree()

    def test_force_overrides_and_reports_dirty(self, monkeypatch):
        monkeypatch.setattr(
            "repro.validation.baselines.git_dirty", lambda cwd=None: True
        )
        assert ensure_clean_tree(force=True) is True

    def test_clean_tree_passes(self, monkeypatch):
        monkeypatch.setattr(
            "repro.validation.baselines.git_dirty", lambda cwd=None: False
        )
        assert ensure_clean_tree() is False

    def test_outside_git_passes(self, monkeypatch):
        monkeypatch.setattr(
            "repro.validation.baselines.git_dirty", lambda cwd=None: None
        )
        assert ensure_clean_tree() is False
