"""Engine settings: the one environment reader and the precedence rule."""

from __future__ import annotations

import pytest

from repro.api import AssessSession
from repro.datagen import sales_engine
from repro.parallel import DEFAULT_MORSEL_ROWS
from repro.settings import Settings

# (variable, value, field, parsed) — every spelling the environment accepts
# or ignores; an ignored value leaves the field at its built-in default.
PARSE_TABLE = [
    ("REPRO_PARALLELISM", "3", "parallelism", 3),
    ("REPRO_PARALLELISM", "three", "parallelism", 1),
    ("REPRO_PARALLELISM", "", "parallelism", 1),
    ("REPRO_MORSEL_ROWS", "4096", "morsel_rows", 4096),
    ("REPRO_MORSEL_ROWS", "not-a-number", "morsel_rows", DEFAULT_MORSEL_ROWS),
    ("REPRO_MEMORY_BYTES", "1000", "memory_budget", 1000),
    ("REPRO_MEMORY_BYTES", "not-a-number", "memory_budget", None),
    ("REPRO_MEMORY_BYTES", "-5", "memory_budget", None),
    ("REPRO_TELEMETRY_DIR", " telemetry ", "telemetry_dir", "telemetry"),
    ("REPRO_TELEMETRY_DIR", "  ", "telemetry_dir", None),
    ("REPRO_TELEMETRY_PROFILE", "", "profile_interval", None),
    ("REPRO_TELEMETRY_PROFILE", "0", "profile_interval", None),
    ("REPRO_TELEMETRY_PROFILE", "off", "profile_interval", None),
    ("REPRO_TELEMETRY_PROFILE", "1", "profile_interval", 0.005),
    ("REPRO_TELEMETRY_PROFILE", "on", "profile_interval", 0.005),
    ("REPRO_TELEMETRY_PROFILE", "2.5", "profile_interval", 0.0025),
    ("REPRO_TELEMETRY_PROFILE", "0.0001", "profile_interval", 1e-4),
]


@pytest.mark.parametrize(
    "variable,value,field,parsed",
    PARSE_TABLE,
    ids=[f"{variable[6:]}={value.strip()}" for variable, value, _, _ in PARSE_TABLE],
)
def test_from_env_parses(variable, value, field, parsed):
    settings = Settings.from_env({variable: value})
    expected = pytest.approx(parsed) if isinstance(parsed, float) else parsed
    assert getattr(settings, field) == expected
    # Every other field keeps its default.
    for name in set(Settings.__dataclass_fields__) - {field}:
        assert getattr(settings, name) == getattr(Settings(), name), name


def test_from_env_of_an_empty_environment_is_the_defaults():
    assert Settings.from_env({}) == Settings()


def test_environment_configures_only_an_engine_code_did_not(
    monkeypatch, tmp_path
):
    environment = {
        "REPRO_PARALLELISM": "2",
        "REPRO_MORSEL_ROWS": "256",
        "REPRO_MEMORY_BYTES": "8192",
        "REPRO_TELEMETRY_DIR": str(tmp_path),
    }
    for variable, value in environment.items():
        monkeypatch.setenv(variable, value)

    # No code configured it: the engine runs by the environment.
    armed = sales_engine(n_rows=2_000)
    assert armed.settings == Settings.from_env(environment)
    assert armed.parallel is not None and armed.parallel.degree == 2
    session = AssessSession(armed)
    assert session.memory_budget == 8192 and session.parallelism == 2
    assert session.telemetry is not None
    session.telemetry.close()

    # Configured in code: the environment's values are gone, and what the
    # code left unset takes the built-in defaults.
    configured = sales_engine(n_rows=2_000)
    session = AssessSession(configured, memory_budget=4096)
    assert configured.settings == Settings(memory_budget=4096)
    assert configured.parallel is None
    assert session.telemetry is None

    # Later settings build on what code set before, never on the
    # environment; every executor reads the engine's one value.
    session.set_parallelism(3)
    assert configured.settings == Settings(parallelism=3, memory_budget=4096)
    assert configured.parallel.degree == 3
    assert configured.executor.settings is configured.settings
    assert configured.executor.parallel is configured.parallel
    AssessSession(configured)  # no arguments: nothing changes
    assert configured.settings == Settings(parallelism=3, memory_budget=4096)
    configured.configure(parallelism=1)
    assert configured.parallel is None
