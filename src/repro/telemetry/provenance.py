"""Run provenance: a manifest describing exactly how a result was produced.

Every figure the paper reports is a function of (code version, seed, scale,
scheme parameters).  :class:`RunManifest` captures those plus the runtime
environment and the run's cost (wall time, event count) so any exported
result can be traced back to the configuration that produced it, months
later, without guessing.
"""

from __future__ import annotations

import json
import platform
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Optional

__all__ = ["RunManifest", "git_sha"]

_GIT_SHA_CACHE: Dict[str, Optional[str]] = {}


def git_sha(cwd: Optional[str] = None) -> Optional[str]:
    """Current commit SHA, or None outside a git checkout / without git."""
    key = cwd or "."
    if key not in _GIT_SHA_CACHE:
        try:
            out = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=cwd,
                capture_output=True,
                text=True,
                timeout=5,
            )
            _GIT_SHA_CACHE[key] = out.stdout.strip() if out.returncode == 0 else None
        except (OSError, subprocess.SubprocessError):
            _GIT_SHA_CACHE[key] = None
    return _GIT_SHA_CACHE[key]


def _plain(value: Any) -> Any:
    """Best-effort conversion to JSON-serializable data."""
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


@dataclass
class RunManifest:
    """Everything needed to reproduce (or audit) one run."""

    experiment: str
    seed: Optional[int] = None
    scale: Optional[dict] = None
    params: Dict[str, Any] = field(default_factory=dict)
    git_sha: Optional[str] = None
    python: str = ""
    platform: str = ""
    started_unix: float = 0.0
    wall_seconds: Optional[float] = None
    events: Optional[int] = None
    scheduler: Optional[str] = None
    """Event-queue implementation the run used (``repro.sim.eventq``)."""
    settings: Optional[dict] = None
    """:func:`repro.settings.snapshot` of the run: every resolved setting
    plus any fault/canary hook that was set.  Retry delays are a pure
    function of (spec token, attempt, ``retry_backoff``), so recording the
    base makes retried runs bit-reproducible end to end."""

    @classmethod
    def collect(
        cls,
        experiment: str,
        seed: Optional[int] = None,
        scale: Any = None,
        **params: Any,
    ) -> "RunManifest":
        """Capture configuration + environment at run start."""
        return cls(
            experiment=experiment,
            seed=seed,
            scale=_plain(scale) if scale is not None else None,
            params={k: _plain(v) for k, v in params.items()},
            git_sha=git_sha(),
            python=sys.version.split()[0],
            platform=platform.platform(),
            started_unix=time.time(),
        )

    def finish(
        self, wall_seconds: Optional[float] = None, events: Optional[int] = None
    ) -> "RunManifest":
        """Record the run's cost once it has completed; returns self."""
        self.wall_seconds = wall_seconds
        self.events = events
        return self

    def to_dict(self) -> dict:
        return _plain(asdict(self))

    def write_json(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
