"""The knob contract, one table row per ``configured_*`` resolver.

Every ``PERCIVAL_*`` knob resolves the same way: an explicit value
wins (and the environment is not read at all), else the environment
variable is parsed, else the default applies; an unset or empty
variable means the default, and a value the knob does not accept raises
``ValueError`` naming the variable.
"""

import os
from dataclasses import dataclass
from typing import Callable, Tuple

import pytest

from repro.core.config import (
    ServeSettings,
    configured_cascade_enabled,
    configured_chaos_seed,
    configured_diff_capacity,
    configured_diff_enabled,
    configured_precision,
    configured_resilience_enabled,
    configured_respawn_budget,
    configured_serve_lanes,
    configured_serve_settings,
    configured_worker_count,
)


@dataclass(frozen=True)
class Knob:
    var: str
    #: resolve(explicit) -> value; ``explicit=None`` defers to the env
    resolve: Callable[[object], object]
    default: object
    valid: str
    parsed: object
    #: a value passed explicitly, differing from ``parsed``; None when
    #: the resolver takes no explicit value
    explicit: object
    invalid: Tuple[str, ...]


def _setting(field: str) -> Callable[[object], object]:
    """One ``ServeSettings`` field through ``configured_serve_settings``;
    an explicit value arrives as a settings object holding it."""

    def resolve(explicit):
        settings = (
            None if explicit is None else ServeSettings(**{field: explicit})
        )
        return getattr(configured_serve_settings(settings), field)

    return resolve


def _env_only(resolver: Callable[[], object]) -> Callable[[object], object]:
    def resolve(explicit):
        assert explicit is None
        return resolver()

    return resolve


KNOBS = [
    Knob("PERCIVAL_WORKERS", configured_worker_count,
         max((os.cpu_count() or 1) - 1, 0), "3", 3, 2, ("many", "2.5")),
    Knob("PERCIVAL_SERVE_MAX_BATCH", _setting("max_batch"),
         16, "32", 32, 4, ("lots", "2.5")),
    Knob("PERCIVAL_SERVE_MAX_WAIT_MS", _setting("max_wait_ms"),
         4.0, "7.5", 7.5, 1.0, ("soon",)),
    Knob("PERCIVAL_SERVE_MAX_DEPTH", _setting("max_depth"),
         128, "256", 256, 64, ("deep",)),
    Knob("PERCIVAL_SERVE_AGING_MS", _setting("aging_ms"),
         8.0, "2.5", 2.5, 3.0, ("old",)),
    Knob("PERCIVAL_SERVE_LANES", configured_serve_lanes,
         None, "3", 3, 5, ("many", "0", "-1")),
    Knob("PERCIVAL_CASCADE", configured_cascade_enabled,
         False, "on", True, False, ("maybe", "2")),
    Knob("PERCIVAL_DIFF", configured_diff_enabled,
         False, "on", True, False, ("maybe", "2")),
    Knob("PERCIVAL_DIFF_CAPACITY", configured_diff_capacity,
         512, "16", 16, 8, ("lots", "0", "-4")),
    Knob("PERCIVAL_CHAOS", _env_only(configured_chaos_seed),
         None, "7", 7, None, ("maybe", "7.5")),
    Knob("PERCIVAL_RESILIENCE", _env_only(configured_resilience_enabled),
         False, "on", True, None, ("maybe", "2")),
    Knob("PERCIVAL_RESPAWN_BUDGET", configured_respawn_budget,
         16, "3", 3, 5, ("lots", "-1")),
    Knob("PERCIVAL_PRECISION", configured_precision,
         "fp32", "int8", "int8", "fp16", ("int4",)),
]

ALL_VARS = [knob.var for knob in KNOBS]


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    """Every row starts from an environment with no knob set."""
    for var in ALL_VARS:
        monkeypatch.delenv(var, raising=False)


@pytest.mark.parametrize("knob", KNOBS, ids=ALL_VARS)
class TestKnobContract:
    def test_unset_or_empty_is_default(self, knob, monkeypatch):
        assert knob.resolve(None) == knob.default
        monkeypatch.setenv(knob.var, "")
        assert knob.resolve(None) == knob.default
        monkeypatch.setenv(knob.var, "  ")
        assert knob.resolve(None) == knob.default

    def test_valid_env_value_parses(self, knob, monkeypatch):
        monkeypatch.setenv(knob.var, knob.valid)
        assert knob.resolve(None) == knob.parsed
        monkeypatch.setenv(knob.var, f" {knob.valid} ")
        assert knob.resolve(None) == knob.parsed

    def test_invalid_value_names_the_variable(self, knob, monkeypatch):
        for raw in knob.invalid:
            monkeypatch.setenv(knob.var, raw)
            with pytest.raises(ValueError, match=knob.var):
                knob.resolve(None)


#: chaos and resilience are read from the environment only
EXPLICIT = [knob for knob in KNOBS if knob.explicit is not None]


@pytest.mark.parametrize("knob", EXPLICIT, ids=[k.var for k in EXPLICIT])
def test_explicit_value_beats_env(knob, monkeypatch):
    assert knob.explicit != knob.parsed
    monkeypatch.setenv(knob.var, knob.valid)
    assert knob.resolve(knob.explicit) == knob.explicit
    # an explicit value means the environment is never read
    monkeypatch.setenv(knob.var, knob.invalid[0])
    assert knob.resolve(knob.explicit) == knob.explicit


TOGGLES = [
    ("PERCIVAL_CASCADE", configured_cascade_enabled),
    ("PERCIVAL_DIFF", configured_diff_enabled),
    ("PERCIVAL_RESILIENCE", configured_resilience_enabled),
]


@pytest.mark.parametrize(
    "var,resolve", TOGGLES, ids=[var for var, _ in TOGGLES]
)
def test_on_off_toggles_share_one_vocabulary(var, resolve, monkeypatch):
    for raw, expected in (
        ("off", False), ("0", False), ("false", False), ("no", False),
        ("on", True), ("1", True), ("true", True), ("yes", True),
        ("ON", True), ("Off", False), (" Yes ", True),
    ):
        monkeypatch.setenv(var, raw)
        assert resolve() is expected, raw
    for raw in ("none", "auto", "enabled"):
        monkeypatch.setenv(var, raw)
        with pytest.raises(ValueError, match=var):
            resolve()


def test_chaos_vocabulary(monkeypatch):
    for raw, expected in (
        ("off", None), ("false", None), ("no", None), ("none", None),
        ("on", 0), ("true", 0), ("yes", 0), ("ON", 0),
        # 0 is a valid seed, not "off"
        ("0", 0), ("23", 23),
    ):
        monkeypatch.setenv("PERCIVAL_CHAOS", raw)
        assert configured_chaos_seed() == expected, raw


def test_auto_or_int_knobs(monkeypatch):
    for raw in ("auto", "AUTO", " Auto "):
        monkeypatch.setenv("PERCIVAL_WORKERS", raw)
        assert configured_worker_count() == max((os.cpu_count() or 1) - 1, 0)
        monkeypatch.setenv("PERCIVAL_SERVE_LANES", raw)
        assert configured_serve_lanes() is None
    # a negative worker count clamps to 0 (sharding off) ...
    monkeypatch.setenv("PERCIVAL_WORKERS", "-2")
    assert configured_worker_count() == 0
    assert configured_worker_count(-3) == 0
    # ... but a lane count below 1 is rejected, explicit or not
    with pytest.raises(ValueError):
        configured_serve_lanes(0)


def test_integer_bounds(monkeypatch):
    monkeypatch.setenv("PERCIVAL_RESPAWN_BUDGET", "0")
    assert configured_respawn_budget() == 0
    with pytest.raises(ValueError):
        configured_respawn_budget(-1)
    with pytest.raises(ValueError):
        configured_diff_capacity(0)


def test_precision_is_case_insensitive(monkeypatch):
    monkeypatch.setenv("PERCIVAL_PRECISION", "INT8")
    assert configured_precision() == "int8"
    assert configured_precision(" FP16 ") == "fp16"
    with pytest.raises(ValueError):
        configured_precision("int4")
