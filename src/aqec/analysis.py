"""Observable extraction and regression: residual errors, exponential
lifetimes, power-law scaling, improvement factors."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.optimize

from .dynamics import Trajectory
from .hilbert import QuantumState, state_fidelity

# Fewest (x, y) samples fit_power_law accepts; sweeps check against it too.
MIN_POWER_LAW_POINTS = 4


@dataclass(frozen=True)
class DecayFit:
    """A exp(-t/T) + B fit; ``lifetime`` carries the units of the input times."""

    lifetime: float
    amplitude: float
    offset: float
    r_squared: float


@dataclass(frozen=True)
class ScalingFit:
    """y = prefactor * x**exponent (+ offset); residual is RMS in log space."""

    exponent: float
    prefactor: float
    offset: float
    residual: float


def residual_error(trajectory: Trajectory, target: QuantumState) -> float:
    """1 - <target| rho_end |target> at the end of the recorded evolution."""
    if not trajectory.states:
        raise ValueError("trajectory has no recorded states")
    return 1.0 - state_fidelity(trajectory.final, target)


def fit_lifetime(times, values, model: str = "exp") -> DecayFit:
    """Least-squares decay fit of A exp(-t/T) (+ B for "exp_with_offset").

    Times are normalized internally, making the fitted T scale with the
    input time units. Raises on fewer than 5 samples, degenerate (constant)
    data, or a non-positive fitted lifetime.
    """
    if model not in ("exp", "exp_with_offset"):
        raise ValueError(f"unknown decay model {model!r}")
    t = np.asarray(times, dtype=float)
    y = np.asarray(values, dtype=float)
    if t.ndim != 1 or t.shape != y.shape or t.size < 5:
        raise ValueError("need at least 5 (time, value) samples")
    if np.ptp(y) < 1e-15 * max(1.0, np.max(np.abs(y))):
        raise ValueError("degenerate data: values are constant")

    t_scale = t[-1] - t[0]
    if t_scale <= 0:
        raise ValueError("times must be increasing")
    ts = (t - t[0]) / t_scale

    # seed T from the log-slope of the offset-free positive part
    b0 = 0.0 if model == "exp" else float(min(0.0, y.min()))
    pos = y - b0 > 1e-300
    if pos.sum() >= 2:
        slope = np.polyfit(ts[pos], np.log(y[pos] - b0), 1)[0]
        tau0 = -1.0 / slope if slope < 0 else 10.0
        tau0 = float(np.clip(tau0, 1e-3, 1e6))
    else:
        tau0 = 1.0
    a0 = float(y[0] - b0)

    if model == "exp":
        def f(tt, a, tau):
            return a * np.exp(-tt / tau)
        p0 = (a0, tau0)
    else:
        def f(tt, a, tau, b):
            return a * np.exp(-tt / tau) + b
        p0 = (a0, tau0, b0)

    popt, _ = scipy.optimize.curve_fit(f, ts, y, p0=p0, maxfev=20000)
    a, tau = popt[0], popt[1]
    b = popt[2] if model == "exp_with_offset" else 0.0
    if not tau > 0:
        raise ValueError(f"fitted lifetime {tau * t_scale} is not positive")
    resid = y - f(ts, *popt)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid ** 2)) / ss_tot if ss_tot > 0 else 0.0
    if r2 <= 0.0:
        raise ValueError("decay model does not describe the data "
                         f"(r^2 = {r2:.3g})")
    return DecayFit(lifetime=float(tau * t_scale), amplitude=float(a),
                    offset=float(b), r_squared=min(1.0, r2))


def _loglog_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    lx, ly = np.log(x), np.log(y)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    return float(slope), float(np.exp(intercept)), float(np.sqrt(np.mean(resid ** 2)))


def fit_power_law(x, y, with_offset: bool = False) -> ScalingFit:
    """Exponent of y ~ x^b by log-log regression.

    With ``with_offset`` the model is y = a x^b + c, solved by a nested
    1-d minimization over the offset c (which must leave y - c positive).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or x.shape != y.shape or x.size < MIN_POWER_LAW_POINTS:
        raise ValueError(f"need at least {MIN_POWER_LAW_POINTS} (x, y) samples")
    if np.any(x <= 0) or np.any(y <= 0):
        raise ValueError("power-law fit needs positive data")

    if not with_offset:
        b, a, r = _loglog_fit(x, y)
        return ScalingFit(exponent=b, prefactor=a, offset=0.0, residual=r)

    y_min = y.min()
    span = y.max() - y_min

    def cost(c):
        return _loglog_fit(x, y - c)[2]

    res = scipy.optimize.minimize_scalar(
        cost, bounds=(y_min - span, y_min * (1 - 1e-9)), method="bounded",
        options={"xatol": y_min * 1e-12 + 1e-300})
    c = float(res.x)
    if cost(0.0) <= cost(c):
        c = 0.0
    b, a, r = _loglog_fit(x, y - c)
    return ScalingFit(exponent=b, prefactor=a, offset=c, residual=r)


def improvement_factor(logical, physical_time: float) -> float:
    """T_L / T_E (or T_L / T_1): logical over physical lifetime."""
    t_l = logical.lifetime if isinstance(logical, DecayFit) else float(logical)
    if not (t_l > 0 and physical_time > 0):
        raise ValueError("lifetimes must be positive")
    return t_l / physical_time
