"""Fourier-sine coupling pulses and pulse-reset cycle schedules.

A pulse is a pair of quadrature envelopes built from a sine basis that
vanishes at both ends of the coupling window by construction:

    Omega_{x,y}(t) = sum_n c_n^{x,y} sin(n pi t / t_p),   0 <= t <= t_p.

The basis is evaluated here only: ``evaluate`` samples a pulse, at one
time or an array of times, and ``drive`` is the in-place kernel that feeds
the integrators a batch of coefficient rows at one time per call.

A schedule alternates the pulse (lossy element at the primary rate) with a
reset phase of length t_r (coupling off, lossy element pumped at the reset
rate); ``models.phase_channels`` gives each phase its channel rates.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

PEAK_SAMPLES = 1024   # uniform samples of the peak-coupling search


@dataclass(frozen=True)
class PulseShape:
    """Sine-basis coefficients (rad/ns) for both quadratures over t_p ns."""

    cx: tuple[float, ...]
    cy: tuple[float, ...]
    t_p: float

    def __init__(self, cx, cy, t_p: float):
        cx = tuple(float(c) for c in cx)
        cy = tuple(float(c) for c in cy)
        if len(cx) < 1 or len(cx) != len(cy):
            raise ValueError("cx and cy must have equal length >= 1")
        if not np.isfinite(cx + cy).all():
            raise ValueError("pulse coefficients must be finite")
        if not t_p > 0:
            raise ValueError(f"t_p must be positive, got {t_p}")
        object.__setattr__(self, "cx", cx)
        object.__setattr__(self, "cy", cy)
        object.__setattr__(self, "t_p", float(t_p))

    @property
    def n_modes(self) -> int:
        return len(self.cx)

    def peak_coupling(self) -> float:
        """max over t of sqrt(Ox^2 + Oy^2) on PEAK_SAMPLES uniform times."""
        t = np.linspace(0.0, self.t_p, PEAK_SAMPLES)
        ox, oy = evaluate(self, t)
        return float(np.max(np.hypot(ox, oy)))


def seed_pulse(n_modes: int, t_p: float, c1x: float) -> PulseShape:
    """First-x-mode-only initialization; all other coefficients zero."""
    cx = [0.0] * n_modes
    cx[0] = float(c1x)
    return PulseShape(cx, [0.0] * n_modes, t_p)


def evaluate(pulse: PulseShape, t: float | np.ndarray):
    """(Omega_x, Omega_y) in rad/ns at a time within [0, t_p], as floats,
    or at an array of times, as two arrays of its shape."""
    ts = np.asarray(t, dtype=float)
    if ts.size and (ts.min() < 0.0 or ts.max() > pulse.t_p):
        raise ValueError(f"times outside pulse window [0, {pulse.t_p}]")
    n = np.arange(1, pulse.n_modes + 1)
    s = np.sin(np.multiply.outer(ts, n) * (np.pi / pulse.t_p))
    ox, oy = s @ np.asarray(pulse.cx), s @ np.asarray(pulse.cy)
    return (float(ox), float(oy)) if ts.ndim == 0 else (ox, oy)


def drive(cx, cy, t_p: float, out: np.ndarray):
    """omega(t), which writes [Omega_x; Omega_y] of the coefficient rows
    ``cx``, ``cy`` (B, N) or (N,) at t into ``out`` (2B,) and returns it:
    the sines of n pi t / t_p taken in place, and one ``np.dot``. It checks
    no window, since an integrator over [0, t_p] samples t only inside."""
    coeffs = np.concatenate([np.atleast_2d(cx), np.atleast_2d(cy)])
    k = np.arange(1, coeffs.shape[1] + 1) * (np.pi / t_p)
    sines = np.empty(k.size)

    def omega(t):
        np.sin(np.multiply(k, t, out=sines), out=sines)
        return np.dot(coeffs, sines, out=out)

    return omega


@dataclass(frozen=True)
class CycleSchedule:
    """``n_cycles`` cycles of the pulse, then t_r ns of reset with the lossy
    channels at ``reset_rate`` (1/ns). Within one period of t_p + t_r,
    [0, t_p) is the pulse phase and [t_p, t_p + t_r) the reset phase."""

    t_r: float
    reset_rate: float
    n_cycles: int

    def __post_init__(self):
        if not (self.t_r >= 0 and self.reset_rate >= 0 and self.n_cycles >= 0):
            raise ValueError(f"t_r, reset_rate and n_cycles must be "
                             f"nonnegative, got {self}")


# --- serialization ----------------------------------------------------------

def pulse_record(pulse: PulseShape) -> dict:
    return {
        "n_modes": pulse.n_modes,
        "cx": list(pulse.cx),
        "cy": list(pulse.cy),
        "t_p_ns": pulse.t_p,
    }


def save_pulse(pulse: PulseShape, path) -> None:
    """Write the pulse record as JSON; floats round-trip exactly."""
    with open(path, "w") as f:
        json.dump(pulse_record(pulse), f, indent=1)
        f.write("\n")


def load_pulse(path) -> PulseShape:
    with open(path) as f:
        rec = json.load(f)
    pulse = PulseShape(rec["cx"], rec["cy"], rec["t_p_ns"])
    if pulse.n_modes != int(rec["n_modes"]):
        raise ValueError("pulse record inconsistent: n_modes != len(cx)")
    return pulse
