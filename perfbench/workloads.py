"""The benchmark's workloads: inputs from a seed, set-up, the timed command,
and the check of its outputs.

Inputs are made with the standard library only, so the same seed gives the
same inputs on any machine. File paths in the generated configs are
relative to the working directory, because the config format takes one
word per value and a checkout path may hold spaces. Set-up parses the
generated config, which is all a command receives; the commands build
their own models and load their own pulses, so that work is timed as part
of the command. aqec is imported lazily because the parent process never
loads it.

Tolerances. The integrators run at rtol 1e-9 (Lindblad) and 1e-10
(Schrodinger) per step. Each tolerance below is larger than that, and says
why, but smaller than the change any real defect makes (a lost term, a
wrong rate or phase moves these outputs by 1e-3 or more).
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
PULSE_FILE = HERE / "data" / "fig2_pulse.json"
REFERENCE_FILE = HERE / "reference.json"

# opt-sq: full-space and sector-restricted F come from two different
# integrations at rtol 1e-10, each of ~10^3 steps, so their global errors
# may differ by ~10^3 x 1e-10; 1e-6 leaves room and is still 100 times
# smaller than the F gained by one ascent iteration near the target.
OPT_F_TOL = 1e-6
# cycles-vslq: observables after 2 cycles of ~800 accepted DP5 steps per
# pulse phase at rtol 1e-9; a valid change of step sequence (another RHS
# form or core) may move them by up to ~10^3 x rtol per phase.
CYCLES_OBS_ATOL = 1e-5
# apply_propagator and the integrator hermitize exactly: (a + b*)/2 is the
# conjugate of (b + a*)/2 in floating point. The trace gate is the one
# evolve_lindblad itself applies; the eigenvalue floor is its clip level.
CYCLES_HERM_ATOL = 1e-12
CYCLES_TRACE_ATOL = 1e-8
CYCLES_EIG_FLOOR = -1e-9
# sweep-sq: residuals (>= 1.7e-3) are 1 - F after one cycle of ~1,000
# accepted steps at rtol 1e-9, so their relative error budget is ~10^3 x
# rtol / residual. The constant-coupling optimum stops at a step of 1e-4
# in log-parameter space, so its parameters are defined only to ~1e-4.
SWEEP_RESIDUAL_RTOL = 1e-4
SWEEP_CONSTANT_RTOL = 2e-4
# lifetime-vslq: lifetimes come from exact-expm samples and a curve_fit
# whose default ftol/xtol is 1.5e-8 in the normalized fit variables.
LIFETIME_RTOL = 1e-5
# Band around the published VSLQ_FIXED_TABLE lifetimes. The 40 us windowed
# fit of a bi-exponential decay is biased; at the recorded commit the
# largest deviation over the 12 tabulated T1 is 2.6 % (T_Y at 5 us).
LIFETIME_TABLE_BAND = 0.05

OPT_TARGET_FIDELITY = 0.9
# The ascent path is chaotic in the seed pulse: over seed_c1x = 20 MHz
# +-1 %, F = 0.95 takes 1 to 6 iterations. A relative jitter of 1e-6 keeps
# every seed on the fig2 path (F = 0.906 after iteration 2), so wall_s
# measures the code rather than the path.
OPT_C1X_JITTER = 1e-6
SWEEP_T1_US = (5, 10, 15, 20, 25, 30, 40, 50, 60)     # fig3's T1 axis
SWEEP_POINTS = 4                                       # fit_power_law minimum
SWEEP_T_R_GRID_NS = (40, 100)
CYCLES_PULSE_VARIANTS = 16
CYCLES_T1_US = 30
CYCLES_T_R_NS = 60
CYCLES_N = 2
LIFETIME_T1_US = (5, 10, 15, 20, 25, 30, 35, 40, 45, 50, 55, 60)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    inputs: Callable[[int, Path], dict]
    run: Callable[[dict, Path], object]
    outputs: Callable[[dict, Path, object], dict]
    check: Callable[[dict, dict, dict], list[str]]


def setup(inputs: dict) -> dict:
    """The state a command runs from: the inputs and their parsed config."""
    from aqec import config
    return dict(inputs, cfg=config.parse_config(inputs["config"]))


def load_reference() -> dict:
    if not REFERENCE_FILE.exists():
        return {}
    return json.loads(REFERENCE_FILE.read_text())


def _close(a: float, b: float, rtol: float = 0.0, atol: float = 0.0) -> bool:
    return abs(a - b) <= atol + rtol * abs(b)


def _read_rows(path: Path) -> list[dict]:
    with open(path) as f:
        return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(f)]


# --- opt-sq --------------------------------------------------------------------

def _opt_inputs(seed: int, inputs_dir: Path) -> dict:
    rng = random.Random(seed)
    c1x_mhz = 20.0 * (1.0 + OPT_C1X_JITTER * rng.uniform(-1, 1))
    text = f"""\
[model]
kind = single_qubit
delta = 350 MHz
gamma_q = 0.2 per_us
gamma_r = 0.2 per_us

[pulse]
n_modes = 20
t_p = 40 ns
seed_c1x = {c1x_mhz!r} MHz

[optimizer]
epsilon = 0.01 MHz
learning_rate = 0.02
max_iters = 40
target_fidelity = {OPT_TARGET_FIDELITY!r}

[run]
workers = 1
"""
    return {"config": text, "seed_c1x_mhz": c1x_mhz}


def _opt_run(state: dict, run_dir: Path):
    from aqec import runner
    return runner.cmd_optimize(state["cfg"], run_dir)


def _opt_outputs(state: dict, run_dir: Path, ret) -> dict:
    summary = json.loads((run_dir / "optimize_summary.json").read_text())
    pulse = json.loads((run_dir / "pulse.json").read_text())
    return {"fidelity": summary["fidelity"], "iterations": summary["iterations"],
            "target_fidelity": summary["target_fidelity"],
            "cx": pulse["cx"], "cy": pulse["cy"], "t_p_ns": pulse["t_p_ns"]}


def full_space_fidelity(terms, target, cx, cy, t_p: float) -> float:
    """Weighted transfer fidelity from full-space Schrodinger propagation."""
    from aqec import dynamics, hilbert, pulse
    shape = pulse.PulseShape(cx, cy, t_p)
    total = 0.0
    for initial, final, weight in target.pairs:
        problem = dynamics.EvolutionProblem(
            h_static=terms.h_static, h_x=terms.h_x, h_y=terms.h_y,
            coupling=lambda t: pulse.evaluate(shape, t), channels=(),
            t_span=(0.0, t_p), initial=initial)
        psi = dynamics.evolve_unitary(problem).final
        total += weight * hilbert.state_fidelity(psi, final)
    return total


def _opt_check(state: dict, out: dict, reference: dict) -> list[str]:
    from aqec import models
    model = state["cfg"].model()
    f_full = full_space_fidelity(models.build(model), models.target_operation(model),
                                 out["cx"], out["cy"], out["t_p_ns"])
    failures = []
    if f_full < OPT_TARGET_FIDELITY - OPT_F_TOL:
        failures.append(f"full-space F {f_full:.9f} misses target "
                        f"{OPT_TARGET_FIDELITY}")
    if not _close(f_full, out["fidelity"], atol=OPT_F_TOL):
        failures.append(f"full-space F {f_full:.12f} != reported "
                        f"{out['fidelity']:.12f}")
    return failures


# --- sweep-sq ------------------------------------------------------------------

def _sweep_inputs(seed: int, inputs_dir: Path) -> dict:
    t1s = sorted(random.Random(seed).sample(SWEEP_T1_US, SWEEP_POINTS))
    return {"config": sweep_config(t1s), "t1_us": t1s}


def sweep_config(t1s_us) -> str:
    grid = " ".join(str(t) for t in SWEEP_T_R_GRID_NS)
    return f"""\
[model]
kind = single_qubit
delta = 350 MHz
gamma_q = 0.2 per_us
gamma_r = 0.2 per_us

[pulse]
n_modes = 20
t_p = 40 ns

[schedule]
t_r_grid = {grid} ns
reset_rate = 30 per_us
n_cycles = 1

[sweep]
t1 = {" ".join(str(t) for t in t1s_us)} us
mode = residual

[run]
workers = 1
pulse_file = {os.path.relpath(PULSE_FILE)}
"""


def _sweep_cmd(state: dict, run_dir: Path):
    from aqec import runner
    return runner.cmd_sweep(state["cfg"], run_dir, workers=1)


def _sweep_outputs(state: dict, run_dir: Path, ret) -> dict:
    exps = json.loads((run_dir / "exponents.json").read_text())
    return {"rows": _read_rows(run_dir / "residuals.csv"),
            "exponents": {k: v["exponent"] for k, v in exps.items()}}


def _sweep_check(state: dict, out: dict, reference: dict) -> list[str]:
    ref = reference.get("sweep-sq", {})
    failures = []
    want = [float(t) for t in sorted(state["cfg"].sweep_t1)]
    got = [row["t1_us"] * 1e3 for row in out["rows"]]
    if len(got) != len(want) or any(not _close(a, b, rtol=1e-12)
                                    for a, b in zip(got, want)):
        failures.append(f"rows cover T1 {got} ns, configured {want} ns")
    for row in out["rows"]:
        key = f"{row['t1_us']:g}"
        if key not in ref:
            failures.append(f"no reference row for T1 = {key} us")
            continue
        exp = ref[key]
        if row["best_t_r_ns"] != exp["best_t_r_ns"]:
            failures.append(f"T1 {key}: best t_r {row['best_t_r_ns']} != "
                            f"{exp['best_t_r_ns']}")
        for col, rtol in (("pulse_reset_residual", SWEEP_RESIDUAL_RTOL),
                          ("constant_residual", SWEEP_CONSTANT_RTOL),
                          ("constant_residual_steady", SWEEP_CONSTANT_RTOL),
                          ("constant_omega_radns", SWEEP_CONSTANT_RTOL),
                          ("constant_gamma_r_perns", SWEEP_CONSTANT_RTOL)):
            if not _close(row[col], exp[col], rtol=rtol):
                failures.append(f"T1 {key}: {col} {row[col]!r} != {exp[col]!r}")
    for name, value in out["exponents"].items():
        if not (isinstance(value, float) and math.isfinite(value) and value < 0):
            failures.append(f"exponent {name} = {value!r} is not a finite decay")
    return failures


# --- cycles-vslq ---------------------------------------------------------------

def cycles_pulse_record(variant: int) -> dict:
    """fig6's seed pulse plus small seeded higher modes, as a pulse record."""
    rng = random.Random(variant)
    c1 = 2 * math.pi * 10e-3
    cx = [c1 * (1.0 + 0.05 * rng.uniform(-1, 1))]
    cx += [0.05 * c1 * rng.gauss(0, 1) / n for n in range(2, 21)]
    cy = [0.05 * c1 * rng.gauss(0, 1) / n for n in range(1, 21)]
    return {"n_modes": 20, "cx": cx, "cy": cy, "t_p_ns": 40.0}


def _cycles_inputs(seed: int, inputs_dir: Path) -> dict:
    variant = seed % CYCLES_PULSE_VARIANTS
    pulse_path = inputs_dir / f"cycles-vslq-pulse{variant}.json"
    inputs_dir.mkdir(parents=True, exist_ok=True)
    pulse_path.write_text(json.dumps(cycles_pulse_record(variant), indent=1) + "\n")
    pulse_path = os.path.relpath(pulse_path)
    text = f"""\
[model]
kind = vslq
w = 35 MHz
delta = 350 MHz
gamma_p = {1 / CYCLES_T1_US!r} per_us
gamma_s = 35 per_us

[pulse]
n_modes = 20
t_p = 40 ns

[schedule]
t_r = {CYCLES_T_R_NS} ns
reset_rate = 35 per_us
n_cycles = {CYCLES_N}

[run]
workers = 1
pulse_file = {pulse_path}
"""
    return {"config": text, "variant": variant}


def _cycles_run(state: dict, run_dir: Path):
    from aqec import runner
    return runner.cmd_evolve(state["cfg"], run_dir)


def _cycles_outputs(state: dict, run_dir: Path, traj) -> dict:
    rho = traj.final.density()
    summary = json.loads((run_dir / "evolve_summary.json").read_text())
    return {"variant": state["variant"],
            "final_re": rho.real.tolist(), "final_im": rho.imag.tolist(),
            "observables": summary["observables"]}


def _cycles_check(state: dict, out: dict, reference: dict) -> list[str]:
    import numpy as np
    rho = np.array(out["final_re"]) + 1j * np.array(out["final_im"])
    failures = []
    herm = float(np.max(np.abs(rho - rho.conj().T)))
    if herm > CYCLES_HERM_ATOL:
        failures.append(f"final state not Hermitian: max |rho - rho^+| = {herm:.3e}")
    trace = complex(np.trace(rho))
    if abs(trace - 1.0) > CYCLES_TRACE_ATOL:
        failures.append(f"final trace {trace:.12g} != 1")
    w_min = float(np.linalg.eigvalsh((rho + rho.conj().T) / 2)[0])
    if w_min < CYCLES_EIG_FLOOR:
        failures.append(f"final state has eigenvalue {w_min:.3e}")
    expected = reference.get("cycles-vslq", {}).get(str(out["variant"]))
    if expected is None:
        return failures + [f"no reference for pulse variant {out['variant']}"]
    expected = expected["observables"]
    if set(out["observables"]) != set(expected):
        failures.append(f"observables {sorted(out['observables'])} != "
                        f"{sorted(expected)}")
    for name, value in expected.items():
        got = out["observables"].get(name)
        if got is None or not _close(got, value, atol=CYCLES_OBS_ATOL):
            failures.append(f"observable {name} {got!r} != {value!r}")
    return failures


# --- lifetime-vslq -------------------------------------------------------------

def _lifetime_inputs(seed: int, inputs_dir: Path) -> dict:
    t1 = random.Random(seed).choice(LIFETIME_T1_US)
    return {"config": lifetime_config([t1]), "t1_us": [t1]}


def lifetime_config(t1s_us) -> str:
    return f"""\
[model]
kind = vslq
w = 35 MHz
delta = 350 MHz
gamma_p = 0.2 per_us
gamma_s = 35 per_us

[sweep]
t1 = {" ".join(str(t) for t in t1s_us)} us
mode = fixed_lifetimes

[run]
workers = 1
"""


def _lifetime_outputs(state: dict, run_dir: Path, ret) -> dict:
    return {"rows": _read_rows(run_dir / "fixed_lifetimes.csv")}


def _lifetime_check(state: dict, out: dict, reference: dict) -> list[str]:
    from aqec.presets import VSLQ_FIXED_TABLE
    ref = reference.get("lifetime-vslq", {})
    failures = []
    want = sorted(t / 1e3 for t in state["cfg"].sweep_t1)
    if [row["t1_us"] for row in out["rows"]] != want:
        failures.append(f"rows cover T1 {[r['t1_us'] for r in out['rows']]} us, "
                        f"configured {want}")
    for row in out["rows"]:
        key = f"{row['t1_us']:g}"
        exp = ref.get(key)
        if exp is None:
            failures.append(f"no reference row for T1 = {key} us")
            continue
        _, _, _, tx_paper, ty_paper = VSLQ_FIXED_TABLE[int(round(row["t1_us"]))]
        for col, paper in (("t_x_us", tx_paper), ("t_y_us", ty_paper)):
            if not _close(row[col], exp[col], rtol=LIFETIME_RTOL):
                failures.append(f"T1 {key}: {col} {row[col]!r} != {exp[col]!r}")
            if not _close(row[col], paper, rtol=LIFETIME_TABLE_BAND):
                failures.append(f"T1 {key}: {col} {row[col]:.6g} outside "
                                f"{LIFETIME_TABLE_BAND:.0%} of the table's {paper}")
    return failures


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload("opt-sq",
             "fig2 pulse ascent to F = 0.9; the only workload on the "
             "optimizer's sector-block Schrodinger core and FD gradient",
             _opt_inputs, _opt_run, _opt_outputs, _opt_check),
    Workload("sweep-sq",
             "reduced fig3 residual sweep over 4 T1 points; d = 6 Lindblad "
             "pulse phases, where integrator overhead outweighs the RHS",
             _sweep_inputs, _sweep_cmd, _sweep_outputs, _sweep_check),
    Workload("cycles-vslq",
             "aqec evolve on the d = 36 VSLQ: one dense reset expm and "
             "BLAS-bound Lindblad pulse phases, bypassing the optimizer",
             _cycles_inputs, _cycles_run, _cycles_outputs, _cycles_check),
    Workload("lifetime-vslq",
             "table1 fixed_lifetimes point: two dense 1296^2 expm and the "
             "windowed lifetime fit, with no adaptive integration",
             _lifetime_inputs, _sweep_cmd, _lifetime_outputs, _lifetime_check),
)}
