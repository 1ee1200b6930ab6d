"""Golden-result baselines: capture, serialization, and staleness checks.

A baseline is a checked-in JSON snapshot of the validation grid's per-seed
metric samples (one list per (figure, cell, metric)), plus a manifest that
pins everything needed to detect staleness later:

* ``baseline_schema`` -- the format of this file;
* ``spec_schema`` -- the executor's :data:`CACHE_SCHEMA_VERSION`, bumped
  whenever simulation semantics change;
* the package version, git SHA and dirty flag at capture time;
* per-cell :meth:`RunSpec.token` lists, so a change to the validation
  grid's spec construction (different parameters hashing differently) is
  caught as staleness instead of producing nonsense comparisons.

Capturing from a dirty working tree is refused by default (``--force``
overrides, and the manifest then records ``git_dirty: true``), so a
checked-in baseline provably corresponds to a commit.
"""

from __future__ import annotations

import json
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

from .. import __version__
from ..experiments.executor import CACHE_SCHEMA_VERSION
from ..telemetry.provenance import git_sha

__all__ = [
    "BASELINE_SCHEMA_VERSION",
    "BaselineManifest",
    "Baseline",
    "StaleBaselineError",
    "DirtyTreeError",
    "git_dirty",
    "ensure_clean_tree",
]

BASELINE_SCHEMA_VERSION = 1
"""Bump when the baseline JSON layout changes incompatibly."""


class StaleBaselineError(RuntimeError):
    """The baseline no longer matches the code that would consume it."""


class DirtyTreeError(RuntimeError):
    """Refusing to capture a baseline from uncommitted changes."""


def git_dirty(cwd: Optional[str] = None) -> Optional[bool]:
    """True/False for a dirty/clean working tree; ``None`` outside git."""
    try:
        proc = subprocess.run(
            ["git", "status", "--porcelain"],
            capture_output=True,
            text=True,
            timeout=10.0,
            cwd=cwd,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if proc.returncode != 0:
        return None
    return bool(proc.stdout.strip())


def ensure_clean_tree(force: bool = False, cwd: Optional[str] = None) -> bool:
    """Guard for baseline capture: raise :class:`DirtyTreeError` when the
    working tree has uncommitted changes, unless ``force``.  Returns the
    dirty flag to record in the manifest (``False`` when unknown)."""
    dirty = git_dirty(cwd)
    if dirty and not force:
        raise DirtyTreeError(
            "working tree has uncommitted changes; a captured baseline "
            "would not correspond to any commit. Commit first, or pass "
            "--force to record a dirty-tree baseline."
        )
    return bool(dirty)


@dataclass
class BaselineManifest:
    """Provenance pinned into every baseline file."""

    scale: str
    baseline_schema: int = BASELINE_SCHEMA_VERSION
    spec_schema: int = CACHE_SCHEMA_VERSION
    package_version: str = __version__
    git_sha: Optional[str] = None
    git_dirty: bool = False
    created_unix: float = 0.0

    @classmethod
    def collect(cls, scale: str, dirty: bool = False) -> "BaselineManifest":
        return cls(
            scale=scale,
            git_sha=git_sha(),
            git_dirty=dirty,
            created_unix=time.time(),
        )

    def to_dict(self) -> dict:
        return {
            "scale": self.scale,
            "baseline_schema": self.baseline_schema,
            "spec_schema": self.spec_schema,
            "package_version": self.package_version,
            "git_sha": self.git_sha,
            "git_dirty": self.git_dirty,
            "created_unix": self.created_unix,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "BaselineManifest":
        return cls(
            scale=data.get("scale", ""),
            baseline_schema=data.get("baseline_schema", -1),
            spec_schema=data.get("spec_schema", -1),
            package_version=data.get("package_version", ""),
            git_sha=data.get("git_sha"),
            git_dirty=bool(data.get("git_dirty", False)),
            created_unix=data.get("created_unix", 0.0),
        )


@dataclass
class Baseline:
    """One captured validation grid.

    ``figures`` maps figure name to::

        {"params": {...},
         "cells": {cell_key: {"metrics": {metric: [per-seed values]},
                              "tokens": [RunSpec tokens]}}}
    """

    manifest: BaselineManifest
    figures: Dict[str, dict] = field(default_factory=dict)

    # ------------------------------------------------------------- access

    def cell_samples(
        self, figure: str, cell: str, metric: str
    ) -> Optional[List[float]]:
        entry = self.figures.get(figure, {}).get("cells", {}).get(cell)
        if entry is None:
            return None
        return entry.get("metrics", {}).get(metric)

    def cell_tokens(self, figure: str, cell: str) -> Optional[List[str]]:
        entry = self.figures.get(figure, {}).get("cells", {}).get(cell)
        if entry is None:
            return None
        return entry.get("tokens")

    # -------------------------------------------------------- staleness

    def check_compatible(self) -> None:
        """Raise :class:`StaleBaselineError` on any schema mismatch."""
        if self.manifest.baseline_schema != BASELINE_SCHEMA_VERSION:
            raise StaleBaselineError(
                f"baseline schema {self.manifest.baseline_schema} != "
                f"current {BASELINE_SCHEMA_VERSION}; recapture with "
                "'repro validate capture'"
            )
        if self.manifest.spec_schema != CACHE_SCHEMA_VERSION:
            raise StaleBaselineError(
                f"baseline spec schema {self.manifest.spec_schema} != "
                f"current CACHE_SCHEMA_VERSION {CACHE_SCHEMA_VERSION}; "
                "simulation semantics changed -- recapture the baseline"
            )

    def check_tokens(self, figure: str, cell: str, tokens: List[str]) -> None:
        """Raise when the current grid's spec tokens differ from capture
        time (the validation grid's spec construction changed)."""
        recorded = self.cell_tokens(figure, cell)
        if recorded is None:
            return  # new cell: handled as missing-baseline at compare time
        if list(recorded) != list(tokens):
            raise StaleBaselineError(
                f"baseline for {figure}:{cell} was captured from different "
                f"run specs (tokens {recorded} != current {tokens}); the "
                "grid definition changed -- recapture the baseline"
            )

    # ------------------------------------------------------------ storage

    def to_dict(self) -> dict:
        return {
            "manifest": self.manifest.to_dict(),
            "figures": self.figures,
        }

    def save(self, path: Path) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")

    @classmethod
    def load(cls, path: Path) -> "Baseline":
        """Read a baseline file; anything that is not the documented shape
        raises :class:`StaleBaselineError` naming the file.  Unknown
        top-level keys (e.g. the retired ``bench`` payload) are ignored."""

        def obj(value: Any, what: str) -> dict:
            if not isinstance(value, dict):
                raise StaleBaselineError(
                    f"baseline {path} is malformed ({what} is not a JSON "
                    "object); recapture with 'repro validate capture'"
                )
            return value

        try:
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except ValueError as exc:
            raise StaleBaselineError(
                f"baseline {path} is not valid JSON ({exc}); recapture "
                "with 'repro validate capture'"
            ) from None
        data = obj(data, "the file")
        manifest = obj(data.get("manifest", {}), "'manifest'")
        figures = obj(data.get("figures", {}), "'figures'")
        for figure, entry in figures.items():
            entry = obj(entry, f"figure {figure!r}")
            cells = obj(entry.get("cells", {}), f"{figure!r} cells")
            for key, cell in cells.items():
                obj(cell, f"cell {figure}:{key}")
        return cls(
            manifest=BaselineManifest.from_dict(manifest), figures=figures
        )
