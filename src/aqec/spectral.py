"""Counterterm spectroscopy: the dominant frequency of an optimized pulse's
second quadrature, and the worst-case leakage it suppresses. fig4's point
function (``runner._counterterm_point``) applies both at each
nonlinearity."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import models as mo
from .dynamics import EvolutionProblem, evolve_unitary
from .hilbert import basis_state
from .pulse import PulseShape, evaluate, evaluate_many

SAMPLE_DT_NS = 0.05   # Nyquist 10 GHz, far above any coupling frequency here
LEAKAGE_SAMPLES = 200  # record times of the leakage probe over the window


@dataclass(frozen=True)
class SpectralPeak:
    frequency_mhz: float
    power_fraction: float


def dominant_frequency(samples: Sequence[float], dt_ns: float) -> SpectralPeak:
    """Strongest DFT component of a real series, parabolic-interpolated.

    Returns the peak frequency in (linear) MHz and the fraction of total
    spectral power within the peak bin and its two neighbours. A constant
    series peaks at zero frequency.
    """
    y = np.asarray(samples, dtype=float)
    if y.ndim != 1 or y.size < 64:
        raise ValueError("need at least 64 uniform samples")
    if not dt_ns > 0:
        raise ValueError("dt must be positive")
    spec = np.fft.rfft(y)
    power = np.abs(spec) ** 2
    k = int(np.argmax(power))
    df_mhz = 1e3 / (y.size * dt_ns)
    if 0 < k < power.size - 1 and power[k] > 0:
        # parabolic interpolation on log-magnitude
        with np.errstate(divide="ignore"):
            la, lb, lc = np.log(np.maximum(power[k - 1:k + 2], 1e-300)) / 2
        denom = la - 2 * lb + lc
        shift = 0.5 * (la - lc) / denom if denom != 0 else 0.0
        shift = float(np.clip(shift, -0.5, 0.5))
    else:
        shift = 0.0
    total = float(power.sum())
    around = float(power[max(0, k - 1):k + 2].sum())
    frac = around / total if total > 0 else 0.0
    return SpectralPeak(frequency_mhz=(k + shift) * df_mhz,
                        power_fraction=min(1.0, frac))


def counterterm_peak(pulse: PulseShape) -> SpectralPeak:
    """Dominant frequency of the y quadrature sampled every SAMPLE_DT_NS
    over the pulse window."""
    t = np.arange(0.0, pulse.t_p + SAMPLE_DT_NS / 2, SAMPLE_DT_NS)
    t = np.clip(t, 0.0, pulse.t_p)
    _, oy = evaluate_many(pulse, t)
    return dominant_frequency(oy, SAMPLE_DT_NS)


def max_leakage(terms: mo.ModelTerms, pulse: PulseShape) -> float:
    """Peak population of the |2_q 1_r> leakage state while holding |1_q 0_r>.

    Decoherence-free propagation of the stabilized state under the pulse,
    sampled at LEAKAGE_SAMPLES times across the window.
    """
    space = terms.space
    initial = basis_state(space, (1, 0))
    leak = basis_state(space, (2, 1))
    record = np.linspace(0.0, pulse.t_p, LEAKAGE_SAMPLES)
    prob = EvolutionProblem(
        h_static=terms.h_static, h_x=terms.h_x, h_y=terms.h_y,
        coupling=lambda t: evaluate(pulse, t), channels=(),
        t_span=(0.0, pulse.t_p), initial=initial)
    traj = evolve_unitary(prob, record_times=record)
    return float(np.max(traj.expect(leak)))
