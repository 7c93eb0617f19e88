"""Observable extraction and regression: residual errors, exponential
lifetimes, power-law scaling, improvement factors. Both fits solve their
linear parameters in closed form (variable projection, Golub & Pereyra 1973)
and minimize the residual over the one nonlinear parameter left."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import Trajectory
from .hilbert import QuantumState, state_fidelity

# Fewest (x, y) samples fit_power_law accepts; sweeps check against it too.
MIN_POWER_LAW_POINTS = 4
OFFSET_GRID = 64   # offsets the power-law fit scans before refining the best


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


def _golden_min(f, lo: float, hi: float, xatol: float) -> float:
    """Golden-section search for a minimum of f on [lo, hi] to width xatol."""
    if not lo < hi:
        raise ValueError(f"empty search interval [{lo:.6g}, {hi:.6g}]")
    g = (np.sqrt(5.0) - 1.0) / 2.0
    c, d = hi - g * (hi - lo), lo + g * (hi - lo)
    fc, fd = f(c), f(d)
    for _ in range(int(np.ceil(np.log(xatol / (hi - lo)) / np.log(g)))):
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - g * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + g * (hi - lo)
            fd = f(d)
    return c if fc < fd else d


def fit_lifetime(times, values, model: str = "exp") -> DecayFit:
    """Least-squares decay fit of A exp(-t/T) (+ B for "exp_with_offset").

    For each trial rate k = 1/T the amplitude (and offset) are solved in
    closed form and the residual is minimized over k, bracketed outward
    from the log-slope seed; times are normalized, so T scales with their
    units. Raises on fewer than 5 samples, non-finite or constant data, no
    interior minimum, or a non-positive fitted lifetime.
    """
    if model not in ("exp", "exp_with_offset"):
        raise ValueError(f"unknown decay model {model!r}")
    t = np.asarray(times, dtype=float)
    y = np.asarray(values, dtype=float)
    if t.ndim != 1 or t.shape != y.shape or t.size < 5:
        raise ValueError("need at least 5 (time, value) samples")
    if not (np.isfinite(t).all() and np.isfinite(y).all()):
        raise ValueError("times and values must be finite")
    if np.ptp(y) < 1e-15 * max(1.0, np.max(np.abs(y))):
        raise ValueError("degenerate data: values are constant")

    t_scale = t[-1] - t[0]
    if t_scale <= 0:
        raise ValueError("times must be increasing")
    ts = (t - t[0]) / t_scale

    # seed k = 1/T from the log-slope of the offset-free positive part
    b0 = 0.0 if model == "exp" else float(min(0.0, y.min()))
    pos = y - b0 > 1e-300
    k0 = 1.0
    if pos.sum() >= 2:
        slope = np.polyfit(ts[pos], np.log(y[pos] - b0), 1)[0]
        k0 = float(np.clip(-slope, 1e-6, 1e3)) if slope < 0 else 0.1

    # centring both sides projects the offset out of the linear part
    offset = model == "exp_with_offset"
    yc = y - y.mean() if offset else y

    def project(k):
        e = np.exp(-k * ts)
        e = e - e.mean() if offset else e
        a = (e @ yc) / (e @ e)
        return a, yc - a * e

    def cost(k):
        return np.linalg.norm(project(k)[1])

    with np.errstate(all="ignore"):
        # walk downhill from the seed rate in steps growing by the golden
        # ratio until the cost rises (an overflowing exp's NaN never does)
        k1, k2 = sorted((k0, 2.0 * k0), key=cost, reverse=True)
        f2 = cost(k2)
        for _ in range(60):
            k3 = k2 + 1.618 * (k2 - k1)
            if (f3 := cost(k3)) > f2:
                break
            k1, k2, f2 = k2, k3, f3
        else:
            raise ValueError("decay fit found no interior minimum")
        k = _golden_min(cost, *sorted((k1, k3)), 1e-10 * abs(k3 - k1))
        a, resid = project(k)
    if not k > 0:
        raise ValueError(f"fitted lifetime {t_scale / k} is not positive")
    b = y.mean() - a * np.exp(-k * ts).mean() if offset else 0.0
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid ** 2)) / ss_tot if ss_tot > 0 else 0.0
    if r2 <= 0.0:
        raise ValueError("decay model does not describe the data "
                         f"(r^2 = {r2:.3g})")
    return DecayFit(lifetime=float(t_scale / k), amplitude=float(a),
                    offset=float(b), r_squared=min(1.0, r2))


def _loglog_residuals(lx: np.ndarray, ly: np.ndarray) -> np.ndarray:
    """RMS residual of the least-squares line through (lx, each row of ly)."""
    dx = lx - lx.mean()
    dy = ly - ly.mean(axis=-1, keepdims=True)
    resid = dy - ((dy @ dx) / (dx @ dx))[..., None] * dx
    return np.sqrt(np.mean(resid ** 2, axis=-1))


def _loglog_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    lx, ly = np.log(x), np.log(y)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    return float(slope), float(np.exp(intercept)), float(np.sqrt(np.mean(resid ** 2)))


def fit_power_law(x, y, with_offset: bool = False) -> ScalingFit:
    """Exponent of y ~ x^b by log-log regression.

    With ``with_offset`` the model is y = a x^b + c: the log-log regression
    of y - c gives a and b, and its residual, which can have several minima,
    is minimized over c in [2 y_min - y_max, y_min), where y - c > 0, by a
    scan of ``OFFSET_GRID`` points refined by ``_golden_min`` between the
    neighbours of the best; c = 0 is kept unless the refined c beats it.
    Raises on non-finite or non-positive data.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or x.shape != y.shape or x.size < MIN_POWER_LAW_POINTS:
        raise ValueError(f"need at least {MIN_POWER_LAW_POINTS} (x, y) samples")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("power-law fit needs finite data")
    if np.any(x <= 0) or np.any(y <= 0):
        raise ValueError("power-law fit needs positive data")

    if not with_offset:
        b, a, r = _loglog_fit(x, y)
        return ScalingFit(exponent=b, prefactor=a, offset=0.0, residual=r)

    y_min = y.min()
    lo, hi = y_min - (y.max() - y_min), y_min * (1 - 1e-9)
    if not lo < hi:
        raise ValueError(f"empty search interval [{lo:.6g}, {hi:.6g}] for c")
    lx = np.log(x)

    def cost(c):
        return float(_loglog_residuals(lx, np.log(y - c)))

    grid = np.linspace(lo, hi, OFFSET_GRID)
    k = int(np.argmin(_loglog_residuals(lx, np.log(y - grid[:, None]))))
    c = float(_golden_min(cost, grid[max(k - 1, 0)],
                          grid[min(k + 1, OFFSET_GRID - 1)],
                          y_min * 1e-12 + 1e-300))
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
