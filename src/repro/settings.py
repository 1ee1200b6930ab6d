"""Run-time settings: one table, one precedence, one malformed-value policy.

Every user-facing setting is a row of :data:`SETTINGS` and :func:`resolve` is
the only code that reads their variables: explicit keyword/flag > environment
> default, and malformed or out-of-range text from *either* source raises
:class:`SettingError` naming it (``REPRO_RETRIES='-3'``, ``--retries -3``).
``cli.main`` turns that into one ``# error:`` line and exit 2; nothing warns
and runs with another value.

The fault/canary :data:`HOOKS` must reach spawn workers through the
environment, so they stay parsed where they act (``faults.py``, ``chaos.py``,
``schemes.py``) and are only named here, for :func:`snapshot` and for test
isolation.  Imports nothing from the package, so anything may import it.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Dict, NamedTuple, Tuple

FIDELITIES: Tuple[str, ...] = ("packet", "fluid")
"""Simulation fidelities: per-packet DES or the flow-level fluid model."""


class SettingError(ValueError):
    """A setting's text is malformed or out of range."""


class Setting(NamedTuple):
    env: str
    flag: str
    parse: Callable[[Any], Any]  # text or typed value -> value, or ValueError
    default: Any


def _number(kind: type, minimum: float, zero_is_off: bool = False):
    def parse(raw: Any) -> Any:
        try:
            value = kind(raw)
        except ValueError:
            raise ValueError(f"not a valid {kind.__name__}") from None
        if not value >= minimum:  # also rejects nan
            raise ValueError(f"must be >= {minimum}")
        return (value or None) if zero_is_off else value

    return parse


def _truth(raw: Any) -> bool:
    text = str(raw).strip().lower()
    if text in ("1", "true", "yes", "on"):
        return True
    if text in ("0", "false", "no", "off"):
        return False
    raise ValueError("not a truth value (use 1/true/yes/on or 0/false/no/off)")


def _fidelity(raw: Any) -> str:
    if raw not in FIDELITIES:
        raise ValueError(f"unknown fidelity (choose from {', '.join(FIDELITIES)})")
    return raw


_seconds = _number(float, 0, zero_is_off=True)

SETTINGS: Dict[str, Setting] = {
    "jobs": Setting("REPRO_JOBS", "--jobs", _number(int, 1), 1),
    "retries": Setting("REPRO_RETRIES", "--retries", _number(int, 0), 1),
    "retry_backoff": Setting("REPRO_RETRY_BACKOFF", "--retry-backoff", _seconds, None),
    "spec_timeout": Setting("REPRO_SPEC_TIMEOUT", "--spec-timeout", _seconds, None),
    # Unset: library executors do not cache, the CLI uses ~/.cache/repro.
    "cache_dir": Setting("REPRO_CACHE_DIR", "--cache-dir", str, None),
    # Resolved where specs are *built* (the scenario compiler), never in the
    # executor: a spec's result must be a pure function of the spec so cache
    # entries stay valid across environments.
    "fidelity": Setting("REPRO_FIDELITY", "--fidelity", _fidelity, "packet"),
    "full": Setting("REPRO_FULL", "--full", _truth, False),
}

HOOKS = ("REPRO_FAULT_INJECT", "REPRO_CHAOS", "REPRO_AQM_PERTURB")

VARIABLES = tuple(s.env for s in SETTINGS.values()) + HOOKS
"""Every ``REPRO_*`` variable the package reads."""


def resolve(name: str, explicit: Any = None) -> Any:
    """Setting ``name``: ``explicit`` (unless None), else its variable,
    else its default."""
    setting = SETTINGS[name]
    if explicit is not None:
        raw, source = explicit, f"{setting.flag} {explicit}"
    else:
        raw = os.environ.get(setting.env, "").strip()
        if not raw:
            return setting.default
        source = f"{setting.env}={raw!r}"
    try:
        return setting.parse(raw)
    except ValueError as exc:
        raise SettingError(f"{source}: {exc}") from None


def snapshot(**explicit: Any) -> Dict[str, Any]:
    """Every setting resolved (``explicit`` as for :func:`resolve`) plus each
    hook variable that is set: what a run manifest records."""
    resolved = {name: resolve(name, explicit.get(name)) for name in SETTINGS}
    resolved.update((h, os.environ[h]) for h in HOOKS if os.environ.get(h))
    return resolved
