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
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, replace

import numpy as np

from .models import Model, SingleQubitModel, ThreeQubitModel, VslqModel
from .optimize import FD_EPSILON, OptimizerConfig

TWO_PI = 2.0 * np.pi


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

# section -> key -> kind; kinds: afreq, rate, time, time_list, int, float, str
_SCHEMA: dict[str, dict[str, str]] = {
    "model": {
        "kind": "str",
        "delta": "afreq", "gamma_q": "rate", "gamma_r": "rate",
        "j": "afreq", "gamma_p": "rate",
        "w": "afreq", "gamma_s": "rate", "omega_s": "afreq",
    },
    "pulse": {"n_modes": "int", "t_p": "time", "seed_c1x": "afreq"},
    "optimizer": {"epsilon": "afreq", "learning_rate": "float",
                  "max_iters": "int", "target_fidelity": "float"},
    "schedule": {"t_r": "time", "t_r_grid": "time_list",
                 "reset_rate": "rate", "n_cycles": "int"},
    "sweep": {"t1": "time_list", "mode": "str"},
    "run": {"out_dir": "str", "workers": "int", "pulse_file": "str"},
}

_MODEL_KEYS = {
    "single_qubit": ("delta", "gamma_q", "gamma_r"),
    "three_qubit": ("j", "gamma_p", "gamma_r"),
    "vslq": ("w", "delta", "gamma_p", "gamma_s"),
}
_MODEL_OPTIONAL = {"vslq": ("omega_s",), "single_qubit": (), "three_qubit": ()}


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully validated configuration in internal units."""

    model_kind: str
    model_params: tuple[tuple[str, float], ...]   # sorted (key, value) pairs

    n_modes: int = 20
    t_p: float = 40.0                             # ns
    seed_c1x: float = TWO_PI * 0.02               # rad/ns

    epsilon: float = FD_EPSILON
    learning_rate: float = 0.02
    max_iters: int = 1000
    target_fidelity: float = 0.999

    t_r: float | None = None                      # ns
    t_r_grid: tuple[float, ...] = (20.0, 40.0, 60.0, 80.0, 100.0,
                                   140.0, 180.0, 240.0, 320.0, 400.0)
    reset_rate: float = 30e-3                     # 1/ns
    n_cycles: int = 1

    sweep_t1: tuple[float, ...] = ()              # ns
    sweep_mode: str = "default"

    out_dir: str = "out"
    workers: int = 0                              # 0: resolve from env
    pulse_file: str | None = None

    def model(self) -> Model:
        p = dict(self.model_params)
        if self.model_kind == "single_qubit":
            return SingleQubitModel(delta=p["delta"], gamma_q=p["gamma_q"],
                                    gamma_r=p["gamma_r"])
        if self.model_kind == "three_qubit":
            return ThreeQubitModel(j=p["j"], gamma_p=p["gamma_p"],
                                   gamma_r=p["gamma_r"])
        if self.model_kind == "vslq":
            return VslqModel(w=p["w"], delta=p["delta"], gamma_p=p["gamma_p"],
                             gamma_s=p["gamma_s"], omega_s=p.get("omega_s"))
        raise ConfigError(f"unknown model kind {self.model_kind!r}")

    def optimizer(self) -> OptimizerConfig:
        return OptimizerConfig(epsilon=self.epsilon,
                               learning_rate=self.learning_rate,
                               max_iters=self.max_iters,
                               target_fidelity=self.target_fidelity,
                               seed_c1x=self.seed_c1x)

    def resolved_workers(self) -> int:
        if self.workers > 0:
            return self.workers
        env = os.environ.get("AQEC_WORKERS", "")
        if env.strip():
            try:
                n = int(env)
            except ValueError:
                raise ConfigError(f"AQEC_WORKERS={env!r} is not an integer")
            if n < 1:
                raise ConfigError("AQEC_WORKERS must be >= 1")
            return n
        return 1


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
            if current not in _SCHEMA:
                raise ConfigError(f"line {lineno}: unknown section [{current}]")
            sections.setdefault(current, {})
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        if current is None:
            raise ConfigError(f"line {lineno}: key outside any [section]")
        key, raw = (s.strip() for s in body.split("=", 1))
        if key not in _SCHEMA[current]:
            raise ConfigError(f"line {lineno}: unknown key {key!r} in [{current}]")
        if key in sections[current]:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        sections[current][key] = _parse_value(_SCHEMA[current][key], raw, lineno)
    return _finalize(sections)


def _finalize(sections: dict[str, dict[str, object]]) -> ExperimentConfig:
    if "model" not in sections:
        raise ConfigError("missing required section [model]")
    model = dict(sections["model"])
    kind = model.pop("kind", None)
    if kind is None:
        raise ConfigError("[model] must declare 'kind'")
    if kind not in _MODEL_KEYS:
        raise ConfigError(f"unknown model kind {kind!r}")
    required = _MODEL_KEYS[kind]
    optional = _MODEL_OPTIONAL[kind]
    missing = [k for k in required if k not in model]
    if missing:
        raise ConfigError(f"[model] kind {kind} missing keys: {missing}")
    extra = [k for k in model if k not in required + optional]
    if extra:
        raise ConfigError(f"[model] keys not valid for kind {kind}: {extra}")
    params = tuple(sorted((k, float(v)) for k, v in model.items()))

    kwargs: dict = {"model_kind": kind, "model_params": params}
    mapping = {
        "pulse": {"n_modes": "n_modes", "t_p": "t_p", "seed_c1x": "seed_c1x"},
        "optimizer": {"epsilon": "epsilon", "learning_rate": "learning_rate",
                      "max_iters": "max_iters",
                      "target_fidelity": "target_fidelity"},
        "schedule": {"t_r": "t_r", "t_r_grid": "t_r_grid",
                     "reset_rate": "reset_rate", "n_cycles": "n_cycles"},
        "sweep": {"t1": "sweep_t1", "mode": "sweep_mode"},
        "run": {"out_dir": "out_dir", "workers": "workers",
                "pulse_file": "pulse_file"},
    }
    for section, keys in mapping.items():
        for key, attr in keys.items():
            if section in sections and key in sections[section]:
                kwargs[attr] = sections[section][key]
    cfg = ExperimentConfig(**kwargs)
    _validate(cfg)
    return cfg


def _validate(cfg: ExperimentConfig) -> None:
    cfg.model()  # model constructors check their own parameter ranges
    if cfg.n_modes < 1:
        raise ConfigError("n_modes must be >= 1")
    if not cfg.t_p > 0:
        raise ConfigError("t_p must be positive")
    if not 0 < cfg.target_fidelity <= 1:
        raise ConfigError("target_fidelity must be in (0, 1]")
    if not cfg.epsilon > 0:
        raise ConfigError("epsilon must be positive")
    if cfg.max_iters < 0:
        raise ConfigError("max_iters must be nonnegative")
    if cfg.t_r is not None and cfg.t_r < 0:
        raise ConfigError("t_r must be nonnegative")
    if not cfg.t_r_grid or any(t < 0 for t in cfg.t_r_grid):
        raise ConfigError("t_r_grid must be non-empty and nonnegative")
    if cfg.reset_rate < 0:
        raise ConfigError("reset_rate must be nonnegative")
    if cfg.n_cycles < 0:
        raise ConfigError("n_cycles must be nonnegative")
    if any(t <= 0 for t in cfg.sweep_t1):
        raise ConfigError("sweep t1 values must be positive")
    if cfg.workers < 0:
        raise ConfigError("workers must be >= 1 (or omitted)")


def load_config(path) -> ExperimentConfig:
    with open(path) as f:
        return parse_config(f.read())


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def write_config(cfg: ExperimentConfig) -> str:
    """Canonical text form (internal units); parses back to an equal config."""
    lines = ["[model]", f"kind = {cfg.model_kind}"]
    for key, value in cfg.model_params:
        kind = _SCHEMA["model"][key]
        lines.append(f"{key} = {_fmt(value)} {_CANONICAL[kind]}")
    lines += [
        "",
        "[pulse]",
        f"n_modes = {cfg.n_modes}",
        f"t_p = {_fmt(cfg.t_p)} ns",
        f"seed_c1x = {_fmt(cfg.seed_c1x)} rad_per_ns",
        "",
        "[optimizer]",
        f"epsilon = {_fmt(cfg.epsilon)} rad_per_ns",
        f"learning_rate = {_fmt(cfg.learning_rate)}",
        f"max_iters = {cfg.max_iters}",
        f"target_fidelity = {_fmt(cfg.target_fidelity)}",
        "",
        "[schedule]",
    ]
    if cfg.t_r is not None:
        lines.append(f"t_r = {_fmt(cfg.t_r)} ns")
    lines.append("t_r_grid = " + " ".join(_fmt(t) for t in cfg.t_r_grid) + " ns")
    lines += [
        f"reset_rate = {_fmt(cfg.reset_rate)} per_ns",
        f"n_cycles = {cfg.n_cycles}",
    ]
    if cfg.sweep_t1 or cfg.sweep_mode != "default":
        lines += ["", "[sweep]"]
        if cfg.sweep_t1:
            lines.append("t1 = " + " ".join(_fmt(t) for t in cfg.sweep_t1) + " ns")
        if cfg.sweep_mode != "default":
            lines.append(f"mode = {cfg.sweep_mode}")
    lines += [
        "",
        "[run]",
        f"out_dir = {cfg.out_dir}",
        f"workers = {cfg.workers}",
    ]
    if cfg.pulse_file is not None:
        lines.append(f"pulse_file = {cfg.pulse_file}")
    return "\n".join(lines) + "\n"


def config_hash(cfg: ExperimentConfig) -> str:
    return hashlib.sha256(write_config(cfg).encode()).hexdigest()


def with_overrides(cfg: ExperimentConfig, **kwargs) -> ExperimentConfig:
    out = replace(cfg, **kwargs)
    _validate(out)
    return out
