"""Run-time settings: one table, one precedence, one malformed-value policy.

Every user-facing setting is a row of :data:`SETTINGS` and :func:`resolve` is
the only code that reads their variables: explicit keyword/flag > environment
> default, and malformed or out-of-range text from *either* source raises
:class:`SettingError` naming it (``REPRO_JOBS='0'``, ``--jobs 0``).
``cli.main`` turns that into one ``# error:`` line and exit 2; nothing warns
and runs with another value.

The one test hook, ``REPRO_FAULT_INJECT`` (:data:`HOOKS`), is not a setting:
it must reach spawn workers through the environment, and no flag sets it.
:func:`fault_directives` is its only parser and follows the same policy --
a malformed directive raises :class:`SettingError` -- while the code that
acts on each directive stays at its point of use.  Imports nothing from the
package, so anything may import it.
"""

from __future__ import annotations

import os
from functools import lru_cache
from typing import Any, Callable, Dict, NamedTuple, Optional, Tuple

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
    "spec_timeout": Setting("REPRO_SPEC_TIMEOUT", "--spec-timeout", _seconds, None),
    # Unset: library executors do not cache, the CLI uses ~/.cache/repro.
    "cache_dir": Setting("REPRO_CACHE_DIR", "--cache-dir", str, None),
    # Resolved where specs are *built* (the scenario compiler), never in the
    # executor: a spec's result must be a pure function of the spec so cache
    # entries stay valid across environments.
    "fidelity": Setting("REPRO_FIDELITY", "--fidelity", _fidelity, "packet"),
    "full": Setting("REPRO_FULL", "--full", _truth, False),
}

FAULT_INJECT = "REPRO_FAULT_INJECT"
HOOKS = (FAULT_INJECT,)

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


class Fault(NamedTuple):
    """One ``REPRO_FAULT_INJECT`` directive.  The variable holds
    ``;``-separated directives, each acting at one point:

    * ``raise|hang|exit[:<substr>]`` -- ``execute_spec``, for specs whose
      token contains ``substr`` (empty: every spec);
    * ``kill_after|kill_before|torn_write[:<n>]`` -- this process's n-th
      ``CampaignStore.append`` (default 1);
    * ``corrupt_cache[:<n>]`` -- this process's n-th ``ResultCache.store``;
    * ``perturb:<aqm kind>:<param>:<factor>`` -- ``build_aqm`` and the fluid
      marker bank multiply ``param`` of AQM ``kind`` (``match``) by
      ``factor``.
    """

    mode: str
    match: str = ""
    n: Optional[int] = None
    param: str = ""
    factor: float = 1.0


SPEC_FAULTS = ("raise", "hang", "exit")
COUNTED_FAULTS = ("kill_after", "kill_before", "torn_write", "corrupt_cache")
FAULT_MODES = SPEC_FAULTS + COUNTED_FAULTS + ("perturb",)
_count = _number(int, 1)


def _fault(part: str) -> Fault:
    mode, *fields = part.split(":")
    mode = mode.strip().lower()
    if mode not in FAULT_MODES:
        choices = ", ".join(FAULT_MODES)
        raise ValueError(f"unknown mode {mode!r} (choose from {choices})")
    if mode == "perturb":
        if len(fields) != 3:
            raise ValueError("expected perturb:<aqm kind>:<param>:<factor>")
        kind, param, text = fields
        try:
            factor = float(text)
        except ValueError:
            raise ValueError(f"factor {text!r} is not a float") from None
        if not factor > 0:  # also rejects nan
            raise ValueError(f"factor {text!r} must be > 0")
        return Fault(mode, kind, param=param, factor=factor)
    if len(fields) > 1:
        raise ValueError("too many ':' fields")
    field = fields[0] if fields else ""
    if mode in COUNTED_FAULTS:  # the one field is the count
        return Fault(mode, n=_count(field) if field.strip() else 1)
    return Fault(mode, field)


@lru_cache(maxsize=32)
def _faults(raw: str) -> Tuple[Fault, ...]:
    faults = []
    for part in filter(None, (part.strip() for part in raw.split(";"))):
        try:
            faults.append(_fault(part))
        except ValueError as exc:
            raise SettingError(f"{FAULT_INJECT}={raw!r}: {part!r}: {exc}") from None
    return tuple(faults)


def fault_directives() -> Tuple[Fault, ...]:
    """The ``REPRO_FAULT_INJECT`` directives, parsed once per distinct value
    (so a changed environment takes effect at once); a malformed one raises
    :class:`SettingError` naming the variable."""
    return _faults(os.environ.get(FAULT_INJECT, ""))
