"""The settings table: one precedence and one malformed-value policy for
every ``REPRO_*`` setting."""

import re
from pathlib import Path

import pytest

from repro import settings
from repro.settings import SETTINGS, SettingError, resolve

REPO = Path(__file__).parent.parent

# name -> (env text, its value, explicit value, its value, malformed texts)
CASES = {
    "jobs": ("3", 3, 2, 2, ["abc", "0", "2.5"]),
    "retries": ("3", 3, 0, 0, ["lots", "-3"]),
    "retry_backoff": ("0.25", 0.25, 0, None, ["soon", "-1", "nan"]),
    "spec_timeout": ("2.5", 2.5, 0, None, ["soon", "-1"]),
    "cache_dir": ("/tmp/a", "/tmp/a", Path("/tmp/b"), "/tmp/b", []),
    "fidelity": ("fluid", "fluid", "packet", "packet", ["fliud"]),
    "full": (" On ", True, False, False, ["enable", "2"]),
}


@pytest.mark.parametrize("name", SETTINGS)
def test_explicit_beats_environment_beats_default(name, monkeypatch):
    env_text, env_value, explicit, explicit_value, _ = CASES[name]
    setting = SETTINGS[name]
    monkeypatch.delenv(setting.env, raising=False)  # the fixture's cache dir
    assert resolve(name) == setting.default
    monkeypatch.setenv(setting.env, "  ")  # blank counts as unset
    assert resolve(name) == setting.default
    monkeypatch.setenv(setting.env, env_text)
    assert resolve(name) == settings.snapshot()[name] == env_value
    assert resolve(name, explicit) == explicit_value
    assert settings.snapshot(**{name: explicit})[name] == explicit_value


@pytest.mark.parametrize(
    "name, text", [(n, t) for n, case in CASES.items() for t in case[4]]
)
def test_malformed_text_raises_naming_its_source(name, text, monkeypatch):
    setting = SETTINGS[name]
    monkeypatch.setenv(setting.env, text)
    with pytest.raises(SettingError, match=re.escape(f"{setting.env}={text!r}")):
        resolve(name)
    with pytest.raises(SettingError, match=re.escape(f"{setting.flag} {text}")):
        resolve(name, text)  # explicit: names the flag, never reads the env


def test_snapshot_lists_hooks_that_are_set(monkeypatch):
    assert set(settings.snapshot()) == set(SETTINGS)
    monkeypatch.setenv("REPRO_CHAOS", "kill_after:1")
    assert settings.snapshot()["REPRO_CHAOS"] == "kill_after:1"


def test_every_repro_variable_in_source_and_readme_is_a_row():
    files = [*(REPO / "src").rglob("*.py"), REPO / "README.md"]
    mentioned = {
        token
        for path in files
        for token in re.findall(r"REPRO_[A-Z_]+", path.read_text())
    }
    assert mentioned == set(settings.VARIABLES)
