"""Experiment orchestration: the command implementations behind the CLI.

Every command takes a validated ExperimentConfig, writes CSV/JSON outputs
into a run directory, and records every emitted file in a manifest whose
config hash makes reruns comparable. The reset-time scan, every sweep mode
and fig4 map one point function over their axis on a process pool of
``cfg.workers`` processes, one row per point, in axis order, so numeric
outputs do not depend on the worker count.
"""

from __future__ import annotations

import csv
import datetime
import hashlib
import json
from collections.abc import Callable
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__
from . import analysis as an
from . import dynamics as dy
from . import models as mo
from . import optimize as op
from . import spectral as spc
from .config import ExperimentConfig, config_hash, with_overrides, write_config
from .hilbert import Operator, basis_state
from .presets import (PAPER_VALUES, VSLQ_FIXED_TABLE, list_presets,
                      preset_config)
from .pulse import (
    CycleSchedule,
    PulseShape,
    evaluate_many,
    load_pulse,
    save_pulse,
)

LIFETIME_WINDOW_CYCLES = 200      # bounded-window lifetime extraction
LIFETIME_WINDOW_NS = 50_000.0
SHORT_WINDOW_NS = 2_000.0         # short-time comparison horizon
T_R_PROBE_CYCLES = 25             # cycles of the <X_L> probe per grid t_r


# --- output plumbing ---------------------------------------------------------

@dataclass
class RunContext:
    out_dir: Path
    cfg: ExperimentConfig
    outputs: list[str] = field(default_factory=list)

    def path(self, name: str) -> Path:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        if name not in self.outputs:
            self.outputs.append(name)
        return self.out_dir / name

    def write_csv(self, name: str, header: list[str], rows) -> Path:
        p = self.path(name)
        with open(p, "w") as f:
            f.write(",".join(header) + "\n")
            for row in rows:
                f.write(",".join(
                    v if isinstance(v, str) else f"{v:.12g}" for v in row) + "\n")
        return p

    def write_json(self, name: str, payload) -> Path:
        p = self.path(name)
        with open(p, "w") as f:
            json.dump(payload, f, indent=1, sort_keys=True)
            f.write("\n")
        return p

    def finish(self) -> Path:
        self.path("config.txt").write_text(write_config(self.cfg))
        entries = []
        for name in sorted(self.outputs):
            p = self.out_dir / name
            digest = hashlib.sha256(p.read_bytes()).hexdigest()
            entries.append({"path": name, "sha256": digest,
                            "bytes": p.stat().st_size})
        manifest = {
            "config_hash": config_hash(self.cfg),
            "version": __version__,
            "created_utc": datetime.datetime.now(
                datetime.timezone.utc).isoformat(),
            "outputs": entries,
        }
        p = self.out_dir / "manifest.json"
        with open(p, "w") as f:
            json.dump(manifest, f, indent=1, sort_keys=True)
            f.write("\n")
        return p


def _pool_map(fn, items, workers: int):
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    import concurrent.futures

    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


@dataclass(frozen=True)
class _ModelKind:
    """What the commands take from one model kind."""

    t1_rate: str                   # the primary rate a T1 point sets to 1/T1
    protected: Callable            # model -> the state the cycles protect
    observables: Callable          # model -> {name: operator or state}


_MODEL_KINDS = {
    "single_qubit": _ModelKind(
        "gamma_q",
        lambda m: basis_state(m.space, (1, 0)),
        lambda m: {"fid_target": basis_state(m.space, (1, 0)),
                   "pop_leak": basis_state(m.space, (2, 1))}),
    "three_qubit": _ModelKind(
        "gamma_p",
        lambda m: mo.three_qubit_code_states(m)["0L"],
        lambda m: {f"fid_{k}": s
                   for k, s in mo.three_qubit_code_states(m).items()}),
    "vslq": _ModelKind(
        "gamma_p",
        lambda m: mo.vslq_logical_states(m)["0L"],
        lambda m: {"exp_XL": mo.vslq_logical_operators(m)["X"],
                   "exp_YL": mo.vslq_logical_operators(m)["Y"],
                   "fid_0L": mo.vslq_logical_states(m)["0L"]}),
}


def _with_t1(cfg: ExperimentConfig, t1_ns: float) -> ExperimentConfig:
    """Rebuild the config with the kind's T1 rate at 1/t1."""
    params = dict(cfg.model_params)
    params[_MODEL_KINDS[cfg.model_kind].t1_rate] = 1.0 / t1_ns
    return with_overrides(cfg, model_params=tuple(sorted(params.items())))


# --- optimize ----------------------------------------------------------------

def _optimize_core(ctx: RunContext) -> op.OptimizeResult:
    cfg = ctx.cfg
    model = cfg.model()
    terms = mo.build(model)
    objective = op.make_objective(terms, mo.target_operation(model))
    result = op.optimize_pulse(objective, cfg)
    warned = mo.check_coupling_regime(model, result.pulse.peak_coupling())

    save_pulse(result.pulse, ctx.path("pulse.json"))
    ctx.write_csv("optimize_trace.csv", ["iteration", "fidelity", "step"],
                  result.trace)
    t = np.linspace(0.0, cfg.t_p, 401)
    ox, oy = evaluate_many(result.pulse, t)
    ctx.write_csv("pulse_samples.csv", ["time_ns", "omega_x", "omega_y"],
                  zip(t, ox, oy))
    ctx.write_json("optimize_summary.json", {
        "fidelity": result.fidelity,
        "converged": result.converged,
        "iterations": result.iterations,
        "stop_reason": result.stop_reason,
        "pair_fidelities": result.pair_fidelities.tolist(),
        "target_fidelity": cfg.target_fidelity,
        "regime_warnings": warned,
    })
    return result


def cmd_optimize(cfg: ExperimentConfig, out_dir) -> op.OptimizeResult:
    """Optimize the coupling pulse for the configured model."""
    ctx = RunContext(Path(out_dir), cfg)
    result = _optimize_core(ctx)
    ctx.finish()
    if not result.converged:
        raise op.ConvergenceError(
            f"pulse optimization reached F={result.fidelity:.6f} "
            f"< target {cfg.target_fidelity}")
    return result


def _ensure_pulse(ctx: RunContext) -> PulseShape:
    """The pulse file's pulse, which must last ``[pulse] t_p``, or else a
    freshly optimized one."""
    if not ctx.cfg.pulse_file:
        return _optimize_core(ctx).pulse
    pulse = load_pulse(ctx.cfg.pulse_file)
    if abs(pulse.t_p - ctx.cfg.t_p) > 1e-12:
        raise ValueError(f"the pulse file lasts {pulse.t_p} ns, not the "
                         f"configured t_p = {ctx.cfg.t_p} ns")
    return pulse


# --- evolve ------------------------------------------------------------------

def cmd_evolve(cfg: ExperimentConfig, out_dir) -> dy.Trajectory:
    """Run pulse-reset cycles from the protected state; write the trajectory."""
    ctx = RunContext(Path(out_dir), cfg)
    pulse = _ensure_pulse(ctx)
    model = cfg.model()
    kind = _MODEL_KINDS[cfg.model_kind]
    terms = mo.build(model)
    t_r = cfg.t_r if cfg.t_r is not None else cfg.t_r_grid[0]
    schedule = CycleSchedule(t_r, cfg.reset_rate, cfg.n_cycles)
    traj = dy.evolve_cycles(terms, pulse, schedule, kind.protected(model))
    values = {name: traj.expect(obs)
              for name, obs in kind.observables(model).items()}
    dy.trajectory_to_csv(traj, values, ctx.path("trajectory.csv"))
    dy.dump_states(traj, ctx.path("states.json"))
    ctx.write_json("evolve_summary.json", {
        "n_cycles": cfg.n_cycles, "t_r_ns": t_r,
        "final_time_ns": float(traj.times[-1]),
        # at trajectory.csv's 12 significant digits, which unlike the full
        # floats do not depend on the BLAS thread count
        "observables": {k: float(f"{v[-1]:.12g}") for k, v in values.items()},
    })
    ctx.finish()
    return traj


# --- points ----------------------------------------------------------------------
#
# A point function maps (cfg, value, pulse) -> row. The value is T1, which
# cfg's rates already carry, for the scan and the sweeps, and delta for
# fig4. Each is looked up by name in this module when it is called, so a
# wrapper bound to the module attribute sees the call.

def _run_point(item) -> dict:
    name, cfg, value, pulse = item
    return globals()[name](cfg, value, pulse)


def _map_points(cfg: ExperimentConfig, point: str, t1_axis,
                pulse: PulseShape | None) -> list[dict]:
    """Rows of the named point function over the T1 axis, sorted by T1.

    Each distinct T1 is computed once; every entry of the axis gets its own
    copy of that row, so a post-step may edit one without touching another.
    """
    distinct = sorted(set(t1_axis))
    items = [(point, _with_t1(cfg, t1), t1, pulse) for t1 in distinct]
    rows = dict(zip(distinct, _pool_map(_run_point, items, cfg.workers)))
    return [dict(rows[t1]) for t1 in sorted(t1_axis)]


def _write_rows(ctx: RunContext, name: str, rows: list[dict]) -> None:
    """Write the rows as a CSV whose header is the first row's keys."""
    header = list(rows[0])
    ctx.write_csv(name, header, [[r[h] for h in header] for r in rows])


def _scan_point(cfg: ExperimentConfig, t1_ns: float, pulse: PulseShape) -> dict:
    """End-of-cycle residual over the t_r grid."""
    model = cfg.model()
    scan = op.scan_reset_time(mo.build(model), pulse, cfg.t_r_grid,
                              _MODEL_KINDS[cfg.model_kind].protected(model),
                              cfg.reset_rate, n_cycles=cfg.n_cycles)
    return {"t1_us": t1_ns / 1e3, "scan": scan}


def _residual_point(cfg: ExperimentConfig, t1_ns: float,
                    pulse: PulseShape) -> dict:
    """Best pulse-reset residual against the constant-coupling optimum,
    both on the point's one model: cfg's, at gamma_q = 1/T1."""
    model = cfg.model()
    terms = mo.build(model)
    target = _MODEL_KINDS[cfg.model_kind].protected(model)
    scan = op.scan_reset_time(terms, pulse, cfg.t_r_grid, target,
                              cfg.reset_rate, n_cycles=cfg.n_cycles)
    cc = op.optimize_constant_coupling(terms, target)
    return {
        "t1_us": t1_ns / 1e3,
        "pulse_reset_residual": scan.best_residual,
        "best_t_r_ns": scan.best_t_r,
        "constant_residual": cc.residual,
        "constant_residual_steady": cc.residual_steady,
        "constant_omega_radns": cc.omega,
        "constant_gamma_r_perns": cc.gamma_r,
    }


def _vslq_working_point(cfg: ExperimentConfig, t1_ns: float):
    """(row, model, Omega): the VSLQ_FIXED_TABLE row at T1, cfg's VSLQ with
    gamma_p = 1/T1 and the row's gamma_s and Omega_s, and the row's
    constant coupling Omega (rad/ns)."""
    t1_us = t1_ns / 1e3
    key = int(round(t1_us))
    if key not in VSLQ_FIXED_TABLE or abs(t1_us - key) > 1e-9 * key:
        raise ValueError(f"no tabulated working point for T1={t1_us} us")
    row = VSLQ_FIXED_TABLE[key]
    model = replace(cfg.model(), gamma_p=1.0 / t1_ns, gamma_s=row[1] * 1e-3,
                    omega_s=2 * np.pi * row[2] * 1e-3)
    return row, model, 2 * np.pi * row[0] * 1e-3


def _vslq_fixed_point(cfg: ExperimentConfig, t1_ns: float, pulse) -> dict:
    """VSLQ lifetimes at the tabulated fixed working point (no pulse)."""
    t1_us = t1_ns / 1e3
    row, model, omega = _vslq_working_point(cfg, t1_ns)
    t_x, t_y = op.vslq_fixed_lifetime(model, omega)
    return {
        "t1_us": t1_us,
        "omega_over_2pi_mhz": row[0], "gamma_s_per_us": row[1],
        "omega_s_over_2pi_mhz": row[2],
        "t_x_us": t_x, "t_y_us": t_y,
        "t_x_paper_us": row[3], "t_y_paper_us": row[4],
        "improvement_x": an.improvement_factor(t_x, t1_us),
        "improvement_y": an.improvement_factor(t_y, t1_us),
    }


def _vslq_cycle_setup(cfg: ExperimentConfig, pulse: PulseShape):
    """(terms, eigen, t_r) of a VSLQ cycle point: cfg's VSLQ terms, "X" and
    "Y" each mapped to (its +1 eigenstate, its logical operator), and
    ``cfg.t_r``, or else the first grid t_r whose cycles at cfg's reset
    rate decay <X_L> from |+X_L> slowest per unit time over
    ``T_R_PROBE_CYCLES`` cycles."""
    model = cfg.model()
    terms = mo.build(model)
    ops = mo.vslq_logical_operators(model)
    eigen = {which: (mo.vslq_pauli_eigenstate(model, which, +1), ops[which])
             for which in ("X", "Y")}
    if cfg.t_r is not None:
        return terms, eigen, cfg.t_r

    def rate(t_r):
        schedule = CycleSchedule(t_r, cfg.reset_rate, T_R_PROBE_CYCLES)
        traj = dy.evolve_cycles(terms, pulse, schedule, eigen["X"][0])
        # per-time decay rate: cycle lengths differ across grid points
        return -np.log(max(traj.expect(ops["X"])[-1], 1e-12)) / traj.times[-1]

    return terms, eigen, float(min(cfg.t_r_grid, key=rate))


def _cycle_end_series(cfg: ExperimentConfig, terms: mo.ModelTerms,
                      pulse: PulseShape, t_r: float, state, obs):
    """Times (us) and values of <obs> at the cycle ends of the lifetime window."""
    if not t_r > 0:
        raise ValueError("cycle lifetime extraction needs t_r > 0")
    n_cycles = int(min(LIFETIME_WINDOW_CYCLES,
                       LIFETIME_WINDOW_NS // (cfg.t_p + t_r)))
    schedule = CycleSchedule(t_r, cfg.reset_rate, n_cycles)
    traj = dy.evolve_cycles(terms, pulse, schedule, state)
    return traj.times[2::2] / 1e3, traj.expect(obs)[2::2]


def _vslq_cycle_point(cfg: ExperimentConfig, t1_ns: float,
                      pulse: PulseShape) -> dict:
    """VSLQ logical lifetimes: pulse-reset cycles vs the tabulated fixed point."""
    t1_us = t1_ns / 1e3
    fixed = _vslq_fixed_point(cfg, t1_ns, pulse)
    terms, eigen, t_r = _vslq_cycle_setup(cfg, pulse)
    row = {"t1_us": t1_us, "t_r_ns": t_r}
    for which, (state, obs) in eigen.items():
        times_us, vals = _cycle_end_series(cfg, terms, pulse, t_r, state, obs)
        lifetime = an.fit_lifetime(times_us, vals, model="exp").lifetime
        row[f"t_{which.lower()}_cycles_us"] = lifetime
        row[f"improvement_{which.lower()}_cycles"] = an.improvement_factor(
            lifetime, t1_us)
    row["t_x_fixed_us"] = fixed["t_x_us"]
    row["t_y_fixed_us"] = fixed["t_y_us"]
    row["improvement_x_fixed"] = fixed["improvement_x"]
    row["improvement_y_fixed"] = fixed["improvement_y"]
    return row


def _short_time_point(cfg: ExperimentConfig, t1_ns: float,
                      pulse: PulseShape) -> dict:
    """Short-window <X_L>, <Y_L>: pulse-reset cycles vs fixed parameters.

    The row's ``curves`` entry holds both protocols' time series; the
    post-step moves them into ``short_time_curves.csv``. Raises
    ValueError if the window holds no whole cycle.
    """
    terms, eigen, t_r = _vslq_cycle_setup(cfg, pulse)
    n_cycles = int(SHORT_WINDOW_NS // (cfg.t_p + t_r))
    if n_cycles < 1:
        raise ValueError(
            f"the short-time window of {SHORT_WINDOW_NS:g} ns is shorter "
            f"than one cycle of t_p + t_r = {cfg.t_p + t_r:g} ns")
    t1_us = t1_ns / 1e3
    schedule = CycleSchedule(t_r, cfg.reset_rate, n_cycles)
    trajs = [dy.evolve_cycles(terms, pulse, schedule, state)
             for state, _ in eigen.values()]
    t_end = float(trajs[0].times[-1])
    _, m_fix, omega = _vslq_working_point(cfg, t1_ns)
    times_fix = np.linspace(0.0, t_end, n_cycles + 1)
    fixed = op.vslq_fixed_evolution(m_fix, omega, times_fix)
    row = {"t1_us": t1_us, "t_r_ns": t_r}
    curves = []
    for (which, (_, obs)), traj, vals_fix in zip(eigen.items(), trajs, fixed):
        vals = traj.expect(obs)
        row[f"{which.lower()}_pulse_reset"] = float(vals[-1])
        row[f"{which.lower()}_fixed"] = float(vals_fix[-1])
        row[f"window_ns_{which.lower()}"] = t_end
        for protocol, times, v in (("pulse_reset", traj.times, vals),
                                   ("fixed", times_fix, vals_fix)):
            curves += [(t1_us, which, protocol, t, x)
                       for t, x in zip(times, v)]
    row["curves"] = curves
    return row


def _three_qubit_majority_projector(model: mo.ThreeQubitModel, bit: int):
    """Projector onto the majority-``bit`` class of the primary qubits."""
    sp = model.space
    occupations = np.unravel_index(np.arange(sp.total_dim), sp.dims)
    hit = [mo.majority_vote(bits) == bit for bits in zip(*occupations[:3])]
    return Operator(sp, np.diag(np.array(hit, dtype=complex)))


def _three_qubit_point(cfg: ExperimentConfig, t1_ns: float,
                       pulse: PulseShape) -> dict:
    """Flip-code improvement factor T_L/T_E at one error time T_E.

    The logical lifetime is the decay time of the majority-class population
    (which relaxes toward 1/2) under pulse-reset cycles, extracted from a
    bounded per-cycle window.
    """
    model = cfg.model()
    t_e_us = t1_ns / 1e3
    t_r = cfg.t_r if cfg.t_r is not None else cfg.t_r_grid[0]
    times_us, vals = _cycle_end_series(
        cfg, mo.build(model), pulse, t_r,
        mo.three_qubit_code_states(model)["0L"],
        _three_qubit_majority_projector(model, 0))
    fit = an.fit_lifetime(times_us, 2.0 * (vals - 0.5), model="exp")
    return {
        "t_e_us": t_e_us, "t_r_ns": t_r,
        "t_l_us": fit.lifetime, "r_squared": fit.r_squared,
        "improvement": an.improvement_factor(fit.lifetime, t_e_us),
    }


def _counterterm_point(cfg: ExperimentConfig, delta: float, pulse) -> dict:
    """The pulse optimized for cfg's single qubit at delta (rad/ns), with
    cfg's settings: its y-quadrature peak, and its leakage with and without
    y. The objective and the leakage probe are lossless: neither reads a
    channel rate."""
    model = replace(cfg.model(), delta=float(delta))
    terms = mo.build(model)
    objective = op.make_objective(terms, mo.target_operation(model))
    result = op.optimize_pulse(objective, cfg)
    peak = spc.counterterm_peak(result.pulse)
    no_y = PulseShape(result.pulse.cx, [0.0] * cfg.n_modes, cfg.t_p)
    return {
        "delta_mhz": float(delta) / (2 * np.pi) * 1e3,
        "peak_mhz": peak.frequency_mhz,
        "power_fraction": peak.power_fraction,
        "max_leakage_with_y": spc.max_leakage(terms, result.pulse),
        "max_leakage_without_y": spc.max_leakage(terms, no_y),
        "fidelity": result.fidelity,
    }


# --- reset-time scan -----------------------------------------------------------

def cmd_scan_reset(cfg: ExperimentConfig, out_dir) -> dict:
    """Scan t_r per T1 for the end-of-cycle residual; write curve and best.

    The T1 axis is ``[sweep] t1``, or else the model's own primary T1. The
    T1 points run on a pool of ``cfg.workers`` processes.
    """
    t1_axis = cfg.sweep_t1
    if not t1_axis:
        rate = dict(cfg.model_params)[_MODEL_KINDS[cfg.model_kind].t1_rate]
        if not rate:
            raise ValueError("model has no finite primary rate; set [sweep] t1")
        t1_axis = (1.0 / rate,)
    ctx = RunContext(Path(out_dir), cfg)
    rows = _map_points(cfg, "_scan_point", t1_axis, _ensure_pulse(ctx))
    header = ["t1_us", "t_r_ns", "residual"]
    ctx.write_csv("scan.csv", header,
                  [(r["t1_us"], t_r, res) for r in rows
                   for t_r, res in zip(r["scan"].t_r, r["scan"].residuals)])
    best = [(r["t1_us"], r["scan"].best_t_r, r["scan"].best_residual)
            for r in rows]
    ctx.write_csv("best.csv", header, best)
    ctx.finish()
    return {"best": best}


# --- sweeps --------------------------------------------------------------------

def _write_exponents(ctx: RunContext, rows: list[dict]) -> dict:
    """Fit the residuals' power laws over T1 and write ``exponents.json``.

    The file maps ``pulse_reset``, ``pulse_reset_with_offset`` and
    ``constant`` to the fields of their power-law ``ScalingFit`` over T1.
    A sweep with fewer than ``analysis.MIN_POWER_LAW_POINTS`` distinct T1
    values cannot be fitted: the three keys are then ``null`` and one more
    key, ``not_fitted``, gives the reason and the distinct count. With
    enough values there is no ``not_fitted`` key.
    """
    x = np.array([r["t1_us"] for r in rows])
    y_pr = np.array([r["pulse_reset_residual"] for r in rows])
    y_cc = np.array([r["constant_residual"] for r in rows])
    fits = {
        "pulse_reset": lambda: an.fit_power_law(x, y_pr),
        "pulse_reset_with_offset":
            lambda: an.fit_power_law(x, y_pr, with_offset=True),
        "constant": lambda: an.fit_power_law(x, y_cc),
    }
    distinct = np.unique(x).size
    fitted = distinct >= an.MIN_POWER_LAW_POINTS
    exponents = {k: asdict(fit()) if fitted else None for k, fit in fits.items()}
    if not fitted:
        exponents["not_fitted"] = (
            f"{distinct} T1 points with distinct values; the power-law fit "
            f"needs at least {an.MIN_POWER_LAW_POINTS}")
    ctx.write_json("exponents.json", exponents)
    return {
        "exponents": exponents,
        "paper": {"pulse_reset": PAPER_VALUES["pulse_reset_exponent"],
                  "constant": PAPER_VALUES["constant_coupling_exponent"]},
    }


def _write_short_time_curves(ctx: RunContext, rows: list[dict]) -> dict:
    """Move every row's curves into ``short_time_curves.csv``."""
    ctx.write_csv("short_time_curves.csv",
                  ["t1_us", "observable", "protocol", "time_ns", "value"],
                  [c for r in rows for c in r.pop("curves")])
    return {}


# sweep mode -> (the model kind it runs on, name of its point function, its
# CSV, post-step over the rows). The VSLQ modes read VSLQ_FIXED_TABLE.
_SWEEPS = {
    "residual": ("single_qubit", "_residual_point", "residuals.csv", _write_exponents),
    "fixed_lifetimes": ("vslq", "_vslq_fixed_point", "fixed_lifetimes.csv", None),
    "lifetimes": ("vslq", "_vslq_cycle_point", "cycle_lifetimes.csv", None),
    "short_time": ("vslq", "_short_time_point", "short_time.csv",
                   _write_short_time_curves),
    "improvement": ("three_qubit", "_three_qubit_point", "improvement.csv", None),
}


def _sweep_core(ctx: RunContext) -> dict:
    cfg = ctx.cfg
    if not cfg.sweep_t1:
        raise ValueError("sweep requires a non-empty t1 axis")
    mode = "residual" if cfg.sweep_mode == "default" else cfg.sweep_mode
    if mode not in _SWEEPS:
        raise ValueError(f"unknown sweep mode {cfg.sweep_mode!r}")
    kind, point, csv_name, post = _SWEEPS[mode]
    if cfg.model_kind != kind:
        raise ValueError(f"sweep mode {mode} runs on model kind {kind}, "
                         f"not {cfg.model_kind}")
    if kind == "vslq":
        for t1_ns in cfg.sweep_t1:
            _vslq_working_point(cfg, t1_ns)
    pulse = None if mode == "fixed_lifetimes" else _ensure_pulse(ctx)
    rows = _map_points(cfg, point, cfg.sweep_t1, pulse)
    result = {"rows": rows, **(post(ctx, rows) if post else {})}
    _write_rows(ctx, csv_name, rows)
    return result


def cmd_sweep(cfg: ExperimentConfig, out_dir, workers: int | None = None) -> dict:
    """Run the configured sweep mode over the T1 axis.

    ``workers``, if given, overrides ``cfg.workers``; outputs do not depend
    on it.
    """
    if workers is not None:
        cfg = with_overrides(cfg, workers=workers)
    ctx = RunContext(Path(out_dir), cfg)
    result = _sweep_core(ctx)
    ctx.finish()
    return result


# --- figure reproductions ---------------------------------------------------------

def _fit_exponent(fit: dict | None) -> float | None:
    return None if fit is None else fit["exponent"]


def cmd_reproduce(figure_id: str, out_dir, workers: int | None = None) -> dict:
    """Run the full pipeline for a named figure or table preset; ``workers``,
    if given, overrides the preset's."""
    if figure_id not in list_presets():
        raise ValueError(f"unknown figure id {figure_id!r}; known: {list_presets()}")
    cfg = preset_config(figure_id)
    if workers is not None:
        cfg = with_overrides(cfg, workers=workers)
    ctx = RunContext(Path(out_dir), cfg)

    if figure_id == "fig2":
        result = _optimize_core(ctx)
        summary = {"achieved_fidelity": result.fidelity,
                   "paper_fidelity": PAPER_VALUES["single_qubit_fidelity"],
                   "meets_paper": bool(
                       result.fidelity >= PAPER_VALUES["single_qubit_fidelity"])}
    elif figure_id == "fig3":
        exps = _sweep_core(ctx)["exponents"]
        summary = {
            "pulse_reset_exponent": _fit_exponent(exps["pulse_reset"]),
            "constant_exponent": _fit_exponent(exps["constant"]),
            "paper_pulse_reset": PAPER_VALUES["pulse_reset_exponent"],
            "paper_constant": PAPER_VALUES["constant_coupling_exponent"],
        }
    elif figure_id == "fig4":
        deltas = [2 * np.pi * 1e-3 * d
                  for d in PAPER_VALUES["counterterm_deltas_mhz"]]
        rows = _pool_map(_run_point, [("_counterterm_point", cfg, d, None)
                                      for d in deltas], cfg.workers)
        _write_rows(ctx, "counterterm.csv", rows)
        peaks = [r["peak_mhz"] for r in rows]
        summary = {
            "deltas_mhz": [r["delta_mhz"] for r in rows],
            "peaks_mhz": peaks,
            "monotone": bool(np.all(np.diff(peaks) > 0)),
            "within_25pct": bool(all(
                abs(r["peak_mhz"] - r["delta_mhz"]) <= 0.25 * r["delta_mhz"]
                for r in rows)),
        }
    elif figure_id == "fig5":
        result = _optimize_core(ctx)
        summary = {"achieved_infidelity": 1.0 - result.fidelity,
                   "paper_infidelity": PAPER_VALUES["three_qubit_infidelity"],
                   "note": "sweep mode=improvement produces panel (c)"}
    elif figure_id == "fig6":
        result = _optimize_core(ctx)
        summary = {"achieved_fidelity": result.fidelity,
                   "paper_fidelity": PAPER_VALUES["vslq_fidelity"],
                   "note": "sweep mode=lifetimes produces panel (c)"}
    elif figure_id == "fig7":
        res = _sweep_core(ctx)
        ok = all(r["x_pulse_reset"] >= r["x_fixed"]
                 and r["y_pulse_reset"] >= r["y_fixed"] for r in res["rows"])
        summary = {"rows": res["rows"], "pulse_reset_advantage": bool(ok)}
    else:  # table1
        res = _sweep_core(ctx)
        summary = {"rows": res["rows"]}

    ctx.write_json("reproduce_summary.json", summary)
    ctx.finish()
    return summary


# --- fit ---------------------------------------------------------------------------

def cmd_fit(csv_path, x_col: str, y_col: str, kind: str, out_dir) -> dict:
    """Fit a decay or power law to two columns of a CSV file."""
    with open(csv_path) as f:
        records = list(csv.DictReader(f))
    x = np.array([float(rec[x_col]) for rec in records])
    y = np.array([float(rec[y_col]) for rec in records])
    if kind in ("exp", "exp_with_offset"):
        fit = an.fit_lifetime(x, y, model=kind)
    elif kind in ("power", "power_with_offset"):
        fit = an.fit_power_law(x, y, with_offset=kind.endswith("offset"))
    else:
        raise ValueError(f"unknown fit kind {kind!r}")
    payload = {"kind": kind, **asdict(fit)}
    payload["source"] = {"csv": str(csv_path), "x": x_col, "y": y_col,
                         "n_points": len(records)}
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "fit.json", "w") as f:
        json.dump(payload, f, indent=1, sort_keys=True)
        f.write("\n")
    return payload
