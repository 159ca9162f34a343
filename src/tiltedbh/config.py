"""The one config schema.

``SweepConfig`` holds every setting of a run: each field carries its
default, the conversion of a raw JSON value and the rule the value must
meet, so ``from_dict`` fills, converts and validates a whole config from
the field definitions alone.  A value must have its JSON type and is never
coerced: a flag is a JSON boolean, an integer a whole number that is not a
boolean, a float a finite number and a list a JSON array.  A point config
(``n_bosons``, ``n_sites``, ``u``, ``d`` plus the command's own keys)
becomes a one-point ``SweepConfig``.  Unknown keys and invalid values raise
``ConfigError``.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from . import dynamics
from ._version import __version__

# CPython's built-in SHA-256 (``_sha2`` from 3.12, ``_sha256`` before):
# ``hashlib`` would load ``_hashlib`` and with it OpenSSL's libcrypto,
# 3.6 MiB of a process that draws no random ensemble
try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:  # an interpreter built without its own SHA-256
        from hashlib import sha256

__all__ = [
    "ConfigError",
    "SweepConfig",
    "ALLOWED_DIAGNOSTICS",
    "OBSERVABLES",
    "output_metadata",
    "load_config",
    "point_config",
    "basis_config",
]

ALLOWED_DIAGNOSTICS = (
    "gap_ratio",
    "pr",
    "entropy",
    "imbalance",
    "survival",
    "entropy_dynamics",
    "imbalance_dynamics",
)


class ConfigError(ValueError):
    pass


def _setting(default, convert=None, ok=None, rule="", required=False):
    """A SweepConfig field: its default, the conversion of a raw config
    value, and the condition ``ok`` the converted value must meet, which
    ``rule`` states in error messages.  A required field has no usable
    default and must be given non-empty."""
    meta = {"convert": convert, "ok": ok, "rule": rule, "required": required}
    if isinstance(default, (list, tuple)):
        return field(default_factory=lambda: list(default), metadata=meta)
    return field(default=default, metadata=meta)


def _flag(value) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"expected true or false, got {value!r}")
    return value


def _integer(value) -> int:
    if isinstance(value, float) and value.is_integer() or \
            isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    raise ValueError(f"expected a whole number, got {value!r}")


def _real(value) -> float:
    if isinstance(value, numbers.Real) and not isinstance(value, bool) and \
            math.isfinite(value):
        return float(value)
    raise ValueError(f"expected a finite number, got {value!r}")


def _array(value) -> list:
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"expected a JSON array, got {value!r}")
    return list(value)


def _string(value) -> str:
    if not isinstance(value, str):
        raise ValueError(f"expected a string, got {value!r}")
    return value


def _optional(convert):
    return lambda value: None if value is None else convert(value)


def _each(convert, ok, rule):
    def parse(values):
        out = [convert(v) for v in _array(values)]
        for i, value in enumerate(out):
            if not ok(value):
                raise ValueError(f"entry {i}: {rule}")
        return out
    return parse


def _size_pair(pair) -> list:
    if not isinstance(pair, (list, tuple)) or len(pair) != 2:
        raise ValueError(f"expected a [N, M] pair, got {pair!r}")
    n, m = _integer(pair[0]), _integer(pair[1])
    if n < 1 or m < 1:
        raise ValueError("N and M must be >= 1")
    return [n, m]


def _validated(name: str, value, convert=None, ok=None, rule=""):
    """``value`` converted, and checked against ``ok``; a ConfigError
    names ``name``."""
    try:
        if convert is not None:
            value = convert(value)
        good = ok is None or ok(value)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"{name}: {err}") from None
    if not good:
        raise ConfigError(f"{name}: {rule}")
    return value


_AT_LEAST_ONE = (lambda v: v >= 1, "must be >= 1")
_AT_LEAST_TWO = (lambda v: v >= 2, "must be >= 2")  # TimeGrid needs two
_POSITIVE = (lambda v: v > 0, "must be positive")
_NON_NEGATIVE = (lambda v: v >= 0, "must be >= 0")


@dataclass
class SweepConfig:
    """Every setting of a run, with its default and its validation.

    Energies (``u_values``, ``d_values``, ``reference_u``, ``reference_d``)
    are in units of the hopping.
    """

    system_sizes: list = _setting(
        [], lambda v: [_size_pair(p) for p in _array(v)], required=True)
    u_values: list = _setting([], _each(_real, *_NON_NEGATIVE), required=True)
    d_values: list = _setting([], _each(_real, *_NON_NEGATIVE), required=True)
    diagnostics: list = _setting(
        [], _each(_string, ALLOWED_DIAGNOSTICS.__contains__,
                  f"not one of {ALLOWED_DIAGNOSTICS}"), required=True)
    seed: int = _setting(0, _integer, *_NON_NEGATIVE)
    workers: int = _setting(1, _integer, *_AT_LEAST_ONE)
    edge_discard: float = _setting(0.1, _real, lambda v: 0 <= v < 0.5,
                                   "must lie in [0, 0.5)")
    central_window: float = _setting(0.8, _real, lambda v: 0 < v <= 1,
                                     "must lie in (0, 1]")
    occupation_cap: int = _setting(3, _integer, *_AT_LEAST_ONE)
    window_halfwidth: float = _setting(0.4, _real, *_POSITIVE)
    reference_u: float = _setting(0.5, _real, *_NON_NEGATIVE)
    reference_d: float = _setting(0.8, _real, *_NON_NEGATIVE)
    survival_sample_count: int = _setting(200, _integer, *_AT_LEAST_ONE)
    entropy_sample_count: int = _setting(50, _integer, *_AT_LEAST_ONE)
    imbalance_max_states: int | None = _setting(
        None, _optional(_integer), lambda v: v is None or v >= 1,
        "must be >= 1 when set")
    time_min: float = _setting(0.1, _real, *_POSITIVE)
    time_max: float = _setting(1.0e4, _real)
    time_points: int = _setting(400, _integer, *_AT_LEAST_TWO)
    time_points_observables: int = _setting(400, _integer, *_AT_LEAST_TWO)
    time_max_observables: float | None = _setting(None, _optional(_real))
    smoothing_window: int = _setting(
        dynamics.DEFAULT_SMOOTHING_WINDOW, _integer,
        lambda v: v >= 1 and v % 2 == 1, "must be odd and >= 1")
    hole_window: list = _setting(
        dynamics.DEFAULT_HOLE_WINDOW, lambda v: [_real(x) for x in _array(v)],
        lambda v: len(v) == 2 and 0 < v[0] < v[1],
        "expected [lo, hi] with 0 < lo < hi")
    save_traces: bool = _setting(False, _flag)
    save_eigenstate_profiles: bool = _setting(False, _flag)
    cache_dir: str | None = _setting(None, _optional(_string))

    @classmethod
    def from_dict(cls, raw: dict) -> "SweepConfig":
        """Fill defaults and validate every field."""
        defaults = cls()
        values = {}
        for key in raw:
            if key not in defaults.__dataclass_fields__:
                raise ConfigError(f"{key}: unknown configuration field")
        for spec in fields(cls):
            name, meta = spec.name, spec.metadata
            value = raw.get(name, getattr(defaults, name))
            if meta["required"] and value in (None, []):
                raise ConfigError(f"{name}: required and must be non-empty")
            values[name] = _validated(name, value, meta["convert"],
                                      meta["ok"], meta["rule"])

        # journal keys and file names tell points apart by size and .12g text
        for name, key in (("system_sizes", tuple), ("u_values", "{:.12g}".format),
                          ("d_values", "{:.12g}".format)):
            keys = [key(v) for v in values[name]]
            for i, k in enumerate(keys):
                if k in keys[:i]:
                    raise ConfigError(f"{name}: entry {i} repeats entry {keys.index(k)}")
        if values["time_min"] >= values["time_max"]:
            raise ConfigError("time_min/time_max: need 0 < time_min < time_max")
        if values["time_max_observables"] is not None and \
                values["time_max_observables"] <= values["time_min"]:
            raise ConfigError("time_max_observables: must exceed time_min")

        def grid(points_key: str, t_max: float):
            """The times of a grid run_point builds."""
            try:
                return dynamics.log_time_grid(values["time_min"], t_max,
                                              values[points_key]).points
            except ValueError as err:  # too many points, or equal times
                raise ConfigError(f"{points_key}: {err}") from err

        diagnostics = set(values["diagnostics"])
        if diagnostics & {"entropy_dynamics", "imbalance_dynamics"}:
            grid("time_points_observables",
                 values["time_max_observables"] or values["time_max"])
        if "survival" in diagnostics:
            times = grid("time_points", values["time_max"])
            lo, hi = values["hole_window"]
            if not ((times >= lo) & (times <= hi)).any():
                raise ConfigError(f"hole_window: [{lo}, {hi}] holds no time "
                                  f"of the survival grid")
        return cls(**values)

    def metadata(self, extra: dict | None = None) -> dict:
        """``output_metadata`` of this config; ``extra`` holds settings
        outside the schema that also enter the hash."""
        return output_metadata({**asdict(self), **(extra or {})}, self.seed)


def output_metadata(settings: dict, seed: int) -> dict:
    """Config hash, seed and package version, stamped on every output."""
    canon = json.dumps(settings, sort_keys=True)
    return {
        "config_hash": sha256(canon.encode()).hexdigest()[:12],
        "seed": seed,
        "version": __version__,
    }


def load_config(path) -> dict:
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path}: expected a JSON object")
    return raw


# -- point configs -------------------------------------------------------------


# quench observable -> sweep diagnostic
OBSERVABLES = {"survival": "survival", "entropy": "entropy_dynamics",
               "imbalance": "imbalance_dynamics"}

# the keys each point command reads besides its point and the sweep fields,
# with their defaults, conversions and, for some, the condition and rule
_COMMAND_KEYS = {
    "basis": {"write_states": (True, _flag)},
    "spectrum": {"export_matrix": (False, _flag)},
    "eigenstates": {},
    "quench": {
        "observables": (list(OBSERVABLES),
                        _each(_string, OBSERVABLES.__contains__,
                              f"not one of {tuple(OBSERVABLES)}"),
                        bool, "must be non-empty"),
        "include_analytic": (True, _flag),
    },
}


def _command_keys(raw: dict, command: str) -> dict:
    """Remove the command's own keys from ``raw``; return them validated."""
    return {key: _validated(key, raw.pop(key, default), *checks)
            for key, (default, *checks) in _COMMAND_KEYS[command].items()}


# the point keys, with the conversion and rule of the sweep field each fills
_POINT_KEYS = {"n_bosons": (_integer, *_AT_LEAST_ONE),
               "n_sites": (_integer, *_AT_LEAST_ONE),
               "u": (_real, *_NON_NEGATIVE),
               "d": (_real, *_NON_NEGATIVE)}


def _point_values(raw: dict, keys) -> list:
    """The point keys ``keys``, removed from ``raw``, converted and checked
    under their own names."""
    for key in keys:
        if key not in raw:
            raise ConfigError(f"{key}: required field missing")
    return [_validated(key, raw.pop(key), *_POINT_KEYS[key]) for key in keys]


def basis_config(raw: dict) -> tuple[int, int, dict]:
    """(N, M, own keys) of a ``basis`` config."""
    raw = dict(raw)
    own = _command_keys(raw, "basis")
    n, m = _point_values(raw, ("n_bosons", "n_sites"))
    if raw:
        raise ConfigError(f"{next(iter(raw))}: unknown configuration field")
    return n, m, own


# sweep fields a point config may not set: the point keys set the first
# four, and a single point has no workers and saves no per-point files
_SWEEP_ONLY_KEYS = ("system_sizes", "u_values", "d_values", "diagnostics",
                    "workers", "save_traces", "save_eigenstate_profiles")


def point_config(raw: dict, command: str,
                 overrides: dict | None = None) -> tuple[SweepConfig, dict]:
    """A point config as a one-point SweepConfig, plus the command's own
    keys.  Unknown keys and invalid values raise ConfigError."""
    raw = {**raw, **(overrides or {})}
    own = _command_keys(raw, command)
    n, m, u, d = _point_values(raw, _POINT_KEYS)
    for key in _SWEEP_ONLY_KEYS:
        if key in raw:
            raise ConfigError(f"{key}: a sweep setting; point configs do "
                              f"not take it")
    if command == "spectrum":
        diagnostics = ["gap_ratio"]
    elif command == "eigenstates":
        diagnostics = ["pr", "entropy", "imbalance"]
    else:
        diagnostics = [OBSERVABLES[name] for name in own["observables"]]
    raw.update(system_sizes=[[n, m]], u_values=[u], d_values=[d],
               diagnostics=diagnostics)
    return SweepConfig.from_dict(raw), own
