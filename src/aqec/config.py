"""Experiment configuration: a small sectioned text format with mandatory
unit suffixes, converted to internal units (rad/ns, 1/ns, ns) exactly once
at ingestion.

Example::

    [model]
    kind = single_qubit
    delta = 350 MHz          # angular: 2 pi x 350 MHz
    gamma_q = 0.2 per_us
    gamma_r = 0.2 per_us

    [pulse]
    n_modes = 20
    t_p = 40 ns
    seed_c1x = 20 MHz

Angular frequencies accept MHz (meaning 2 pi x f) or rad_per_ns; rates
accept per_us or per_ns; times accept ns or us. ``write_config`` emits
canonical internal units, so load(write(cfg)) round-trips exactly.

Each ``ExperimentConfig`` field is declared once, by ``_field``: its
[section], key, value kind and default. The commands read every setting a
user can change from these fields; ``optimize.optimize_pulse`` takes the
config itself. The parser's key table, the section-to-attribute mapping,
the range checks and ``write_config`` are all read from those
declarations. The [model] keys of a kind are the fields of
its model class; only their value kinds are listed here.

Accepted ranges: every number is finite; rates, times and integers are
>= 0; n_modes, t_p, epsilon, learning_rate, target_fidelity and each
[sweep] t1 are > 0; target_fidelity is at most 1; t_r_grid is non-empty.
The model classes add their own bounds (delta > 0, j > 0, w > 0).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import MISSING, Field, dataclass, field, fields, replace

import numpy as np

from .models import Model, SingleQubitModel, ThreeQubitModel, VslqModel

TWO_PI = 2.0 * np.pi
FD_EPSILON = TWO_PI * 0.01e-3   # default epsilon: 2 pi x 0.01 MHz in rad/ns


class ConfigError(ValueError):
    """Configuration file is malformed or inconsistent."""


# unit name -> (quantity kind, factor to internal units)
_UNITS = {
    "MHz": ("afreq", TWO_PI * 1e-3),      # 2 pi x MHz -> rad/ns
    "rad_per_ns": ("afreq", 1.0),
    "per_us": ("rate", 1e-3),
    "per_ns": ("rate", 1.0),
    "ns": ("time", 1.0),
    "us": ("time", 1e3),
}

# canonical unit per quantity kind, used by write_config
_CANONICAL = {"afreq": "rad_per_ns", "rate": "per_ns", "time": "ns"}

# kinds whose values must be >= 0; every numeric value must be finite
_NONNEGATIVE = {"rate", "time", "time_list", "int"}

_MODELS = {"single_qubit": SingleQubitModel, "three_qubit": ThreeQubitModel,
           "vslq": VslqModel}

# [model] key -> kind; the keys each model kind takes are its class's fields
_MODEL_UNITS = {
    "delta": "afreq", "gamma_q": "rate", "gamma_r": "rate",
    "j": "afreq", "gamma_p": "rate",
    "w": "afreq", "gamma_s": "rate", "omega_s": "afreq",
}


def _field(section: str, key: str, kind: str, default, optional: bool = False,
           positive: bool = False):
    """Declare a config field: its [section] key, value kind and default.

    Kinds: afreq, rate, time, time_list, int, float, str. An ``optional``
    field is written only when it differs from its default; a ``positive``
    one must be > 0.
    """
    return field(default=default, metadata={
        "section": section, "key": key, "kind": kind,
        "optional": optional, "positive": positive})


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully validated configuration in internal units."""

    model_kind: str
    model_params: tuple[tuple[str, float], ...]   # sorted (key, value) pairs

    n_modes: int = _field("pulse", "n_modes", "int", 20, positive=True)
    t_p: float = _field("pulse", "t_p", "time", 40.0, positive=True)
    seed_c1x: float = _field("pulse", "seed_c1x", "afreq", TWO_PI * 0.02)

    epsilon: float = _field("optimizer", "epsilon", "afreq", FD_EPSILON,
                            positive=True)
    learning_rate: float = _field("optimizer", "learning_rate", "float", 0.02,
                                  positive=True)
    max_iters: int = _field("optimizer", "max_iters", "int", 1000)
    target_fidelity: float = _field("optimizer", "target_fidelity", "float",
                                    0.999, positive=True)

    t_r: float | None = _field("schedule", "t_r", "time", None, optional=True)
    t_r_grid: tuple[float, ...] = _field(
        "schedule", "t_r_grid", "time_list",
        (20.0, 40.0, 60.0, 80.0, 100.0, 140.0, 180.0, 240.0, 320.0, 400.0))
    reset_rate: float = _field("schedule", "reset_rate", "rate", 30e-3)
    n_cycles: int = _field("schedule", "n_cycles", "int", 1)

    sweep_t1: tuple[float, ...] = _field("sweep", "t1", "time_list", (),
                                         optional=True, positive=True)
    sweep_mode: str = _field("sweep", "mode", "str", "default", optional=True)

    out_dir: str = _field("run", "out_dir", "str", "out")
    # processes of the point pool; 0 or 1 runs the points in this process
    workers: int = _field("run", "workers", "int", 0)
    pulse_file: str | None = _field("run", "pulse_file", "str", None,
                                    optional=True)

    def model(self) -> Model:
        if self.model_kind not in _MODELS:
            raise ConfigError(f"unknown model kind {self.model_kind!r}")
        return _MODELS[self.model_kind](**dict(self.model_params))


def _sections() -> dict[str, dict[str, Field]]:
    """section -> key -> field, in declaration order, which is write order."""
    out: dict[str, dict[str, Field]] = {}
    for f in fields(ExperimentConfig):
        if f.metadata:
            out.setdefault(f.metadata["section"], {})[f.metadata["key"]] = f
    return out


_SECTIONS = _sections()
# section -> key -> kind, as the parser reads them
_KINDS = {"model": {"kind": "str", **_MODEL_UNITS},
          **{section: {key: f.metadata["kind"] for key, f in group.items()}
             for section, group in _SECTIONS.items()}}


def _parse_value(kind: str, raw: str, lineno: int):
    toks = raw.split()
    if kind == "str":
        if len(toks) != 1:
            raise ConfigError(f"line {lineno}: expected a single word, got {raw!r}")
        return toks[0]
    if kind == "int":
        if len(toks) != 1:
            raise ConfigError(f"line {lineno}: expected a bare integer, got {raw!r}")
        try:
            return int(toks[0])
        except ValueError:
            raise ConfigError(f"line {lineno}: {toks[0]!r} is not an integer")
    if kind == "float":
        if len(toks) != 1:
            raise ConfigError(f"line {lineno}: expected a bare number, got {raw!r}")
        try:
            return float(toks[0])
        except ValueError:
            raise ConfigError(f"line {lineno}: {toks[0]!r} is not a number")
    # dimensioned kinds: one or more numbers followed by a unit suffix
    if len(toks) < 2:
        raise ConfigError(f"line {lineno}: missing unit suffix in {raw!r}")
    unit = toks[-1]
    if unit not in _UNITS:
        raise ConfigError(f"line {lineno}: unknown unit {unit!r}")
    unit_kind, factor = _UNITS[unit]
    base = kind[:-5] if kind.endswith("_list") else kind
    if unit_kind != base:
        raise ConfigError(
            f"line {lineno}: unit {unit!r} is a {unit_kind}, expected {base}")
    try:
        values = [float(tok) * factor for tok in toks[:-1]]
    except ValueError:
        raise ConfigError(f"line {lineno}: non-numeric value in {raw!r}")
    if kind.endswith("_list"):
        return tuple(values)
    if len(values) != 1:
        raise ConfigError(f"line {lineno}: expected one value, got {len(values)}")
    return values[0]


def parse_config(text: str) -> ExperimentConfig:
    sections: dict[str, dict[str, object]] = {}
    current: str | None = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if body.startswith("[") and body.endswith("]"):
            current = body[1:-1].strip()
            if current not in _KINDS:
                raise ConfigError(f"line {lineno}: unknown section [{current}]")
            sections.setdefault(current, {})
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        if current is None:
            raise ConfigError(f"line {lineno}: key outside any [section]")
        key, raw = (s.strip() for s in body.split("=", 1))
        if key not in _KINDS[current]:
            raise ConfigError(f"line {lineno}: unknown key {key!r} in [{current}]")
        if key in sections[current]:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        sections[current][key] = _parse_value(_KINDS[current][key], raw, lineno)
    return _finalize(sections)


def _finalize(sections: dict[str, dict[str, object]]) -> ExperimentConfig:
    if "model" not in sections:
        raise ConfigError("missing required section [model]")
    model = dict(sections["model"])
    kind = model.pop("kind", None)
    if kind is None:
        raise ConfigError("[model] must declare 'kind'")
    if kind not in _MODELS:
        raise ConfigError(f"unknown model kind {kind!r}")
    required = {f.name: f.default is MISSING for f in fields(_MODELS[kind])}
    missing = [k for k, needed in required.items() if needed and k not in model]
    if missing:
        raise ConfigError(f"[model] kind {kind} missing keys: {missing}")
    extra = [k for k in model if k not in required]
    if extra:
        raise ConfigError(f"[model] keys not valid for kind {kind}: {extra}")
    params = tuple(sorted((k, float(v)) for k, v in model.items()))

    values = {f.name: sections[section][key]
              for section, group in _SECTIONS.items()
              for key, f in group.items() if key in sections.get(section, {})}
    cfg = ExperimentConfig(kind, params, **values)
    _validate(cfg)
    return cfg


def _check_range(name: str, kind: str, value, positive: bool = False) -> None:
    if kind == "str" or value is None:
        return
    for v in value if kind.endswith("_list") else (value,):
        if not math.isfinite(v):
            raise ConfigError(f"{name} must be finite, got {v}")
        if positive and not v > 0:
            raise ConfigError(f"{name} must be positive, got {v}")
        if kind in _NONNEGATIVE and v < 0:
            raise ConfigError(f"{name} must be nonnegative, got {v}")


def _validate(cfg: ExperimentConfig) -> None:
    for key, value in cfg.model_params:
        _check_range(f"[model] {key}", _MODEL_UNITS[key], value)
    cfg.model()  # model constructors check their own parameter ranges
    for section, group in _SECTIONS.items():
        for key, f in group.items():
            _check_range(f"[{section}] {key}", f.metadata["kind"],
                         getattr(cfg, f.name), f.metadata["positive"])
    if cfg.target_fidelity > 1:
        raise ConfigError("target_fidelity must be <= 1")
    if not cfg.t_r_grid:
        raise ConfigError("t_r_grid must be non-empty")


def load_config(path) -> ExperimentConfig:
    with open(path) as f:
        return parse_config(f.read())


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _format(kind: str, value) -> str:
    if kind in ("str", "int"):
        return str(value)
    if kind == "float":
        return _fmt(value)
    if kind.endswith("_list"):
        return " ".join(_fmt(v) for v in value) + " " + _CANONICAL[kind[:-5]]
    return f"{_fmt(value)} {_CANONICAL[kind]}"


def write_config(cfg: ExperimentConfig) -> str:
    """Canonical text form (internal units); parses back to an equal config.

    Optional fields are written only when they differ from their default,
    and a section with nothing to write is left out.
    """
    lines = ["[model]", f"kind = {cfg.model_kind}"]
    lines += [f"{key} = {_format(_MODEL_UNITS[key], value)}"
              for key, value in cfg.model_params]
    for section, group in _SECTIONS.items():
        body = [f"{key} = {_format(f.metadata['kind'], getattr(cfg, f.name))}"
                for key, f in group.items()
                if not (f.metadata["optional"]
                        and getattr(cfg, f.name) == f.default)]
        if body:
            lines += ["", f"[{section}]"] + body
    return "\n".join(lines) + "\n"


def config_hash(cfg: ExperimentConfig) -> str:
    return hashlib.sha256(write_config(cfg).encode()).hexdigest()


def with_overrides(cfg: ExperimentConfig, **kwargs) -> ExperimentConfig:
    out = replace(cfg, **kwargs)
    _validate(out)
    return out
