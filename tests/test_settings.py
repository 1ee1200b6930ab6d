"""The settings table: one precedence and one malformed-value policy for
every ``REPRO_*`` setting, and for the ``REPRO_FAULT_INJECT`` test hook."""

import re
from pathlib import Path

import pytest

from repro import settings
from repro.settings import SETTINGS, Fault, SettingError, resolve

REPO = Path(__file__).parent.parent

# name -> (env text, its value, explicit value, its value, malformed texts)
CASES = {
    "jobs": ("3", 3, 2, 2, ["abc", "0", "2.5"]),
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
    monkeypatch.setenv("REPRO_FAULT_INJECT", "kill_after:1")
    assert settings.snapshot()["REPRO_FAULT_INJECT"] == "kill_after:1"


# text -> its directives: every mode's valid forms
VALID_FAULTS = {
    "": (),
    " ; ; ": (),
    "raise": (Fault("raise"),),
    "raise:ECN#": (Fault("raise", "ECN#"),),
    "hang:seed=3|;exit:TCN": (Fault("hang", "seed=3|"), Fault("exit", "TCN")),
    "exit:": (Fault("exit", ""),),
    "kill_after": (Fault("kill_after", n=1),),
    "kill_before:2": (Fault("kill_before", n=2),),
    "torn_write:3": (Fault("torn_write", n=3),),
    "KILL_AFTER:2 ; corrupt_cache": (
        Fault("kill_after", n=2), Fault("corrupt_cache", n=1)),
    "perturb:ecn-sharp:pst_interval:20": (
        Fault("perturb", "ecn-sharp", param="pst_interval", factor=20.0),),
    "perturb:codel:target:0.5;raise:seed=8|": (
        Fault("perturb", "codel", param="target", factor=0.5),
        Fault("raise", "seed=8|")),
}

# malformed text -> what the error says about it
MALFORMED_FAULTS = {
    "explode:1": "unknown mode 'explode'",
    "not-a-valid-spec": "unknown mode",
    "kill_after:2;expode": "unknown mode 'expode'",
    "kill_after:soon": "not a valid int",
    "corrupt_cache:0": "must be >= 1",
    "torn_write:-1": "must be >= 1",
    "perturb:ecn-sharp:pst_interval:lots": "factor 'lots' is not a float",
    "perturb:ecn-sharp:pst_interval:0": "factor '0' must be > 0",
    "perturb:ecn-sharp:pst_interval": "expected perturb:<aqm kind>:<param>:<factor>",
    "perturb:ecn-sharp:pst_interval:20:1": "expected perturb:",
    "kill_after:1:2": "too many ':' fields",
    "raise:ECN#:1:2": "too many ':' fields",
    # a spec runs once, so raise/hang/exit take no attempt bound
    "raise:ECN#:1": "too many ':' fields",
    "raise:ECN#:soon": "too many ':' fields",
    "raise:ECN#:0": "too many ':' fields",
    "exit::1": "too many ':' fields",
}


@pytest.mark.parametrize("text", VALID_FAULTS)
def test_fault_directives_parse_every_mode(text, monkeypatch):
    monkeypatch.setenv("REPRO_FAULT_INJECT", text)
    assert settings.fault_directives() == VALID_FAULTS[text]


@pytest.mark.parametrize("text", MALFORMED_FAULTS)
def test_malformed_fault_directive_raises_naming_the_variable(text, monkeypatch):
    monkeypatch.setenv("REPRO_FAULT_INJECT", text)
    expected = (re.escape(f"REPRO_FAULT_INJECT={text!r}: ") + ".*"
                + re.escape(MALFORMED_FAULTS[text]))
    for _ in range(2):  # a failed parse is not memoised as a pass
        with pytest.raises(SettingError, match=expected):
            settings.fault_directives()


def test_fault_directives_follow_the_environment(monkeypatch):
    """Memoised on the text, so a changed value takes effect at once."""
    monkeypatch.setenv("REPRO_FAULT_INJECT", "kill_after:4")
    assert settings.fault_directives() == (Fault("kill_after", n=4),)
    monkeypatch.setenv("REPRO_FAULT_INJECT", "raise")
    assert settings.fault_directives() == (Fault("raise"),)
    monkeypatch.delenv("REPRO_FAULT_INJECT")
    assert settings.fault_directives() == ()


def test_every_repro_variable_in_source_and_readme_is_a_row():
    files = [*(REPO / "src").rglob("*.py"), REPO / "README.md"]
    mentioned = {
        token
        for path in files
        for token in re.findall(r"REPRO_[A-Z_]+", path.read_text())
    }
    assert mentioned == set(settings.VARIABLES)
