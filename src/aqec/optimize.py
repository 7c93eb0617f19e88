"""Gradient-ascent pulse optimization, the reset-time scan, and the
constant-coupling and fixed-parameter baselines.

The pulse objective is the weighted state-transfer fidelity of a target
operation under decoherence-free evolution. Two structural facts keep this
fast without any approximation:

* every coupling operator used here conserves a joint excitation parity,
  so each transfer pair evolves inside a small exactly-invariant subspace
  (found once by sparsity closure over the Hamiltonian terms);
* all finite-difference coefficient perturbations share one batched
  integration of the stacked sector states. The right-hand side weighs the
  (pairs, d, batch) states by the batch's quadrature amplitudes and applies
  the per-pair generators [-i h0 | -i hx | -i hy] to them in one batched
  matmul.

Gradients are central finite differences over the 2N sine coefficients;
the ascent uses a fixed base step with backtracking halving on
non-improvement and doubling after three consecutive accepts (capped at
eight times the base step). Everything is deterministic.
The pulse and ascent settings are ExperimentConfig fields, which
``optimize_pulse`` reads; every other setting here is a module constant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

# Both forms, for perfbench's binding census: it pins the names imported
# from dynamics and hilbert below as aqec.optimize aliases, and a call
# through a module object reaches that module's own binding and adds no
# alias for the census to classify.
from . import analysis, dynamics, hilbert
from .config import FD_EPSILON, ExperimentConfig
from .dynamics import (
    DEFAULT_ATOL,
    NORM_DRIFT_ATOL,
    UNITARY_RTOL,
    IntegrationError,
    adaptive_rk,
    constant_lindblad_batch,
    evolve_constant_lindblad,
    evolve_cycles,
)
from .hilbert import QuantumState, sector_labels, state_fidelity
from .models import (
    ModelTerms,
    TargetOperation,
    VslqModel,
    build_vslq,
    phase_channels,
    vslq_logical_operators,
    vslq_pauli_eigenstate,
)
from .pulse import CycleSchedule, PulseShape, drive, seed_pulse

CC_WINDOW_US = 5.0        # settling window of the constant-coupling residual
CC_MAX_ITERS = 80         # descent iterations of the constant-coupling search
CC_GRID_OMEGA_MHZ = (0.5, 1, 2, 4, 8, 16)        # its seed grid, Omega / 2 pi
CC_GRID_GAMMA_PER_US = (1, 3, 10, 30, 100, 300)  # by Gamma_r;
CC_FD_STEP = 0.02         # its central-difference step in log-parameters,
CC_STEP = 0.25            # initial descent step,
CC_STEP_GROWTH = 1.5      # the step's growth after an accepted step,
CC_STEP_MAX = 0.5         # its cap,
CC_STEP_FLOOR = 1e-4      # the step at or below which halving stops,
CC_LADDER_HEAD = 3        # and the rungs of each halving ladder tried first
FIXED_WINDOW_US = 40.0    # fixed-parameter lifetime: evolution window,
FIXED_SAMPLES = 81        # the samples taken over it,
FIXED_SKIP_US = 4.0       # and the initial transient left out of the fit


class ConvergenceError(RuntimeError):
    """An optimization failed to reach its requested target."""


# --- invariant subspaces ------------------------------------------------------

def reachable_indices(mats: Sequence[np.ndarray], seeds: Sequence[int]
                      ) -> list[int]:
    """Closure of ``seeds`` under the combined sparsity of ``mats``.

    Returns the sorted basis indices of the smallest subspace containing
    the seeds that is invariant under every matrix, read from its exact
    nonzeros: the union of the invariant sectors that hold a seed.
    """
    d = mats[0].shape[0]
    adj = np.zeros((d, d), dtype=bool)
    for m in mats:
        adj |= m != 0
    labels = sector_labels(*np.nonzero(adj), d)
    keep = np.isin(labels, labels[np.asarray(seeds, dtype=int)])
    return [int(i) for i in np.nonzero(keep)[0]]


@dataclass(frozen=True)
class Objective:
    """Prepared state-transfer objective over sector-restricted blocks.

    Arrays are padded to the largest sector dimension; padded rows/columns
    are zero and stay decoupled during propagation.
    """

    gens: np.ndarray     # (P, d, 3d): [-i h0 | -i hx | -i hy] per pair
    psi0: np.ndarray     # (P, d)
    psif: np.ndarray
    weights: np.ndarray  # (P,)


def make_objective(terms: ModelTerms, target: TargetOperation) -> Objective:
    mats = [terms.h_static.matrix, terms.h_x.matrix, terms.h_y.matrix]
    blocks = []
    for initial, final, weight in target.pairs:
        v0, vf = initial.vector(), final.vector()
        seeds = list(np.flatnonzero(v0)) + list(np.flatnonzero(vf))
        idx = reachable_indices(mats, seeds)
        blocks.append((idx, v0[idx], vf[idx], weight))
    d = max(len(idx) for idx, *_ in blocks)
    p = len(blocks)
    h = np.zeros((p, d, 3 * d), dtype=complex)
    psi0 = np.zeros((p, d), dtype=complex)
    psif = np.zeros((p, d), dtype=complex)
    weights = np.zeros(p)
    for k, (idx, v0, vf, w) in enumerate(blocks):
        ix = np.ix_(idx, idx)
        n = len(idx)
        for j, mat in enumerate(mats):
            h[k, :n, j * d:j * d + n] = mat[ix]
        psi0[k, :n] = v0
        psif[k, :n] = vf
        weights[k] = w
    return Objective(-1j * h, psi0, psif, weights)


def coeff_batch_rhs(obj: Objective, cx: np.ndarray, cy: np.ndarray,
                    t_p: float):
    """y' = f(t, y) for a batch of coefficient vectors (B, N), for adaptive_rk.

    y holds the sector states as (P, d, B). A call has the pulse's
    ``drive`` write the batch's quadrature amplitudes into the last two
    rows of the (3, B) weights [1, Omega_x, Omega_y], weighs y by them into
    one preallocated (P, 3, d, B) buffer, and applies the objective's
    stacked generators ``gens`` to it in one batched matmul.
    """
    b = cx.shape[0]
    p, d = obj.psi0.shape
    weights = np.ones((3, 1, b))
    omega = drive(cx, cy, t_p, weights[1:].reshape(2 * b))
    weighted = np.empty((p, 3, d, b), dtype=complex)
    stacked = weighted.reshape(p, 3 * d, b)

    def rhs(t, y):
        omega(t)
        np.multiply(y[:, None], weights, out=weighted)
        return obj.gens @ stacked

    return rhs


def _propagate_coeff_batch(obj: Objective, cx: np.ndarray, cy: np.ndarray,
                           t_p: float) -> np.ndarray:
    """Pair fidelities (B, P) for a batch of coefficient vectors (B, N)."""
    cx = np.atleast_2d(np.asarray(cx, dtype=float))
    cy = np.atleast_2d(np.asarray(cy, dtype=float))
    y0 = np.repeat(obj.psi0[:, :, None], cx.shape[0], axis=2)
    _, ys = adaptive_rk(coeff_batch_rhs(obj, cx, cy, t_p), (0.0, t_p), y0,
                        rtol=UNITARY_RTOL, atol=DEFAULT_ATOL)
    yf = ys[-1]
    norms = np.linalg.norm(yf, axis=1)
    drift = float(np.max(np.abs(norms - 1.0)))
    if drift > NORM_DRIFT_ATOL:
        raise IntegrationError(
            f"norm drift {drift:.3e} exceeds {NORM_DRIFT_ATOL}")
    amps = np.einsum("pj,pjb->bp", obj.psif.conj(), yf)
    return np.abs(amps) ** 2


def pair_fidelities(obj: Objective, pulse: PulseShape) -> np.ndarray:
    """|<final|U(t_p)|initial>|^2 for every pair of the target operation."""
    f = _propagate_coeff_batch(obj, np.array([pulse.cx]), np.array([pulse.cy]),
                               pulse.t_p)
    return f[0]


def fidelity(obj: Objective, pulse: PulseShape, *,
             pairs: np.ndarray | None = None) -> float:
    """Weighted state-transfer fidelity of the target operation.

    When ``pairs`` is given, the pair fidelities it weighs are written
    into it, so a caller that keeps them needs no second integration.
    """
    f = pair_fidelities(obj, pulse)
    if pairs is not None:
        pairs[:] = f
    return float(np.dot(obj.weights, f))


def gradient(obj: Objective, pulse: PulseShape, epsilon: float = FD_EPSILON
             ) -> tuple[np.ndarray, np.ndarray]:
    """Central-difference dF/dc for all 2N coefficients, batched."""
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    n_modes = pulse.n_modes
    cx0 = np.asarray(pulse.cx)
    cy0 = np.asarray(pulse.cy)
    b = 4 * n_modes
    cx = np.tile(cx0, (b, 1))
    cy = np.tile(cy0, (b, 1))
    for k in range(n_modes):
        cx[2 * k, k] += epsilon
        cx[2 * k + 1, k] -= epsilon
        cy[2 * n_modes + 2 * k, k] += epsilon
        cy[2 * n_modes + 2 * k + 1, k] -= epsilon
    f = _propagate_coeff_batch(obj, cx, cy, pulse.t_p) @ obj.weights
    gx = (f[0:2 * n_modes:2] - f[1:2 * n_modes:2]) / (2 * epsilon)
    gy = (f[2 * n_modes::2] - f[2 * n_modes + 1::2]) / (2 * epsilon)
    return gx, gy


# --- pulse-shape ascent ----------------------------------------------------------

@dataclass
class OptimizeResult:
    pulse: PulseShape
    fidelity: float
    pair_fidelities: np.ndarray   # of ``pulse``, weighed into ``fidelity``
    converged: bool
    iterations: int
    stop_reason: str   # "target_reached", "stationary" or "iteration_cap"
    trace: list[tuple[int, float, float]] = field(repr=False)


def optimize_pulse(obj: Objective, cfg: ExperimentConfig) -> OptimizeResult:
    """Maximize the transfer fidelity over the 2N sine coefficients.

    Starts from ``seed_pulse(cfg.n_modes, cfg.t_p, cfg.seed_c1x)``.
    Deterministic given the configuration; returns the best pulse seen and
    its pair fidelities, flagged as non-converged when
    cfg.target_fidelity was not reached. ``stop_reason`` says why the
    ascent ended: the target was reached, no step down to 2^-40 of the
    base step improved F (stationary), or cfg.max_iters ran out.
    """
    t_p = cfg.t_p
    pulse = seed_pulse(cfg.n_modes, t_p, cfg.seed_c1x)
    cx = np.array(pulse.cx)
    cy = np.array(pulse.cy)
    pairs = np.empty(len(obj.weights))
    f_cur = fidelity(obj, pulse, pairs=pairs)
    pairs_cur = pairs.copy()
    step = cfg.learning_rate
    accepts = 0
    trace = [(0, f_cur, step)]
    it = 0
    stationary = False
    while it < cfg.max_iters and f_cur < cfg.target_fidelity:
        it += 1
        gx, gy = gradient(obj, PulseShape(cx, cy, t_p), cfg.epsilon)
        improved = False
        while step >= cfg.learning_rate * 2.0 ** -40:
            cx_try = cx + step * gx
            cy_try = cy + step * gy
            f_try = fidelity(obj, PulseShape(cx_try, cy_try, t_p), pairs=pairs)
            if f_try > f_cur:
                improved = True
                break
            step *= 0.5
            accepts = 0
        if not improved:
            stationary = True   # no ascent direction at the step floor
            break
        # f_cur rises strictly, so the current point is the best one seen
        cx, cy, f_cur, pairs_cur = cx_try, cy_try, f_try, pairs.copy()
        accepts += 1
        if accepts >= 3:
            step = min(step * 2.0, cfg.learning_rate * 8.0)
            accepts = 0
        trace.append((it, f_cur, step))
    converged = f_cur >= cfg.target_fidelity
    return OptimizeResult(
        pulse=PulseShape(cx, cy, t_p),
        fidelity=f_cur,
        pair_fidelities=pairs_cur,
        converged=converged,
        iterations=it,
        stop_reason=("target_reached" if converged else
                     "stationary" if stationary else "iteration_cap"),
        trace=trace,
    )


# --- reset-time scan ---------------------------------------------------------------

@dataclass
class ResetScan:
    t_r: np.ndarray
    residuals: np.ndarray
    best_t_r: float
    best_residual: float


def scan_reset_time(terms: ModelTerms, pulse: PulseShape,
                    t_r_grid: Sequence[float], target: QuantumState,
                    reset_rate: float,
                    n_cycles: int = 1) -> ResetScan:
    """End-of-cycle residual error against ``target`` for each reset time.

    ``n_cycles`` pulse-reset cycles are evolved from the target state with
    photon loss on: each is the pulse, then t_r of reset with the lossy
    channels at ``reset_rate`` (``models.phase_channels``). The grid point
    with the lowest final residual wins.
    Single-cycle scans measure the clean-start cost of a reset; multi-cycle
    scans additionally punish reset times too short to empty the lossy
    channel between corrections.

    The first pulse phase starts from ``target`` whatever t_r is, so it is
    integrated once; each t_r applies its exact reset to that state, and
    further cycles continue from there. These are the operations of one
    ``evolve_cycles`` run per t_r, in the same order, on the same orbit
    coordinates of the terms' symmetries. The residuals agree with such
    runs to rounding, not bit for bit: the reset propagator here keeps
    only the blocks that the post-pulse state occupies, which may pack
    into other slots than the full propagator of ``evolve_cycles``.
    """
    t_r_grid = list(t_r_grid)
    if not t_r_grid:
        raise ValueError("t_r grid must be non-empty")
    if min(t_r_grid) < 0 or n_cycles < 1:
        raise ValueError("a scan needs t_r >= 0 and n_cycles >= 1")
    reset_channels = phase_channels(terms, reset_rate)
    post_pulse = evolve_cycles(terms, pulse, CycleSchedule(0.0, reset_rate, 1),
                               target).final
    residuals = []
    for t_r in t_r_grid:
        state = post_pulse
        if t_r > 0:
            state = evolve_constant_lindblad(terms.h_static, reset_channels,
                                             post_pulse, [0.0, t_r],
                                             terms.basis_symmetries).final
        if n_cycles > 1:
            schedule = CycleSchedule(t_r, reset_rate, n_cycles - 1)
            state = evolve_cycles(terms, pulse, schedule, state).final
        residuals.append(1.0 - state_fidelity(state, target))
    residuals = np.array(residuals)
    k = int(np.argmin(residuals))
    return ResetScan(np.array(t_r_grid, dtype=float), residuals,
                     float(t_r_grid[k]), float(residuals[k]))


# --- single-qubit constant-coupling baseline ------------------------------------

@dataclass
class ConstantCouplingPoint:
    omega: float          # rad/ns
    gamma_r: float        # 1/ns
    residual: float       # 1 - F after the settling window
    residual_steady: float  # 1 - F of the t -> infinity steady state


def optimize_constant_coupling(terms: ModelTerms, target: QuantumState
                               ) -> ConstantCouplingPoint:
    """Best constant-coupling working point (Omega, Gamma_r) for holding
    ``target`` under ``terms``: the primary channels keep the rates of
    ``terms``, which carry T1, and the lossy ones run at Gamma_r, whatever
    rate ``terms`` gives them.

    Minimizes the residual error of holding ``target``, measured
    at the end of a settling window of ``CC_WINDOW_US`` (leakage populations
    equilibrate on a T1 timescale, so the window choice matters at long
    T1). A coarse logarithmic grid seeds a finite-difference descent in
    log-parameter space of at most ``CC_MAX_ITERS`` steps; each step tries
    the step length, then its halves while they exceed ``CC_STEP_FLOOR``,
    and takes the first that lowers the residual. The t -> infinity
    steady-state residual at the optimum is reported alongside.

    The generator S0 + Omega S_x + Gamma_r S_r is affine in the
    parameters, so ``constant_lindblad_batch`` evaluates the grid and each
    step's four-point stencil in one call apiece, and each step's halving
    ladder in at most two: its first ``CC_LADDER_HEAD`` rungs, then the
    rest only if none of those lowers the residual, since most steps take
    an early rung. Taking the first improving rung keeps the path of
    trying one step length at a time.
    """
    psi = target.vector()
    primary = [(c.op, c.rate) for c in terms.channels if not c.lossy]
    lossy = [(c.op, 1.0) for c in terms.channels if c.lossy]
    final = constant_lindblad_batch(
        [(terms.h_static, primary), (terms.h_x, ()),
         (0.0 * terms.h_static, lossy)], target, CC_WINDOW_US * 1e3)

    def residuals(logx: np.ndarray) -> np.ndarray:
        """1 - F after the window for each row (log Omega, log Gamma_r)."""
        coeffs = np.hstack([np.ones((len(logx), 1)), np.exp(logx)])
        return 1.0 - np.einsum("i,kij,j->k", psi.conj(), final(coeffs),
                               psi).real

    log_omega = np.log(2 * np.pi * 1e-3 * np.array(CC_GRID_OMEGA_MHZ))
    log_gamma = np.log(1e-3 * np.array(CC_GRID_GAMMA_PER_US))
    grid = np.array([(lo, lg) for lo in log_omega for lg in log_gamma])
    r = residuals(grid)
    k = int(np.argmin(r))
    x, f_cur = grid[k], r[k]
    step = CC_STEP
    stencil = CC_FD_STEP * np.array([[1, 0], [-1, 0], [0, 1], [0, -1]])
    for _ in range(CC_MAX_ITERS):
        r = residuals(x + stencil)
        g = (r[0::2] - r[1::2]) / (2 * CC_FD_STEP)
        norm = np.linalg.norm(g)
        if norm == 0:
            break
        ladder = []
        while step > CC_STEP_FLOOR:
            ladder.append(step)
            step *= 0.5
        k = None
        for rungs in (ladder[:CC_LADDER_HEAD], ladder[CC_LADDER_HEAD:]):
            if not rungs:
                break
            x_try = x - np.array(rungs)[:, None] * g / norm
            r = residuals(x_try)
            better = np.flatnonzero(r < f_cur)
            if better.size:
                k = better[0]
                break
        if k is None:
            break
        x, f_cur = x_try[k], r[k]
        step = min(rungs[k] * CC_STEP_GROWTH, CC_STEP_MAX)
    omega, gamma_r = float(np.exp(x[0])), float(np.exp(x[1]))
    rho = dynamics.steady_state(terms.h_static + omega * terms.h_x,
                                phase_channels(terms, gamma_r))
    return ConstantCouplingPoint(omega, gamma_r, float(f_cur),
                                 1.0 - hilbert.state_fidelity(rho, target))


# --- fixed-parameter benchmark (lifetime at a given working point) ---------------

def vslq_fixed_evolution(model: VslqModel, omega: float,
                         times_ns: Sequence[float]
                         ) -> tuple[np.ndarray, np.ndarray]:
    """<X_L> from |+X_L> and <Y_L> from |+Y_L> at ``times_ns`` under
    ``model``'s channels at their rates and the constant coupling ``omega``
    (rad/ns) on its x quadrature, from one build of the terms, Hamiltonian,
    channels and logical operators; each state takes its own
    ``evolve_constant_lindblad`` call, and only its curve is kept.

    ``times_ns`` is a uniform grid from 0; one exact segment propagator
    serves every step. At the VSLQ fixed point the generator splits into
    8 decoupled blocks of 160-164 vec indices, of which the X and Y
    eigenstates occupy 2. Both states are mirror-invariant, so those 324
    indices reduce to 171 orbits in blocks of 91 and 80, which alone are
    exponentiated and applied.
    """
    terms = build_vslq(model)
    h = terms.h_static + omega * terms.h_x
    channels = tuple((c.op, c.rate) for c in terms.channels)
    ops = vslq_logical_operators(model)
    return tuple(evolve_constant_lindblad(
        h, channels, vslq_pauli_eigenstate(model, which, +1), times_ns,
        terms.basis_symmetries).expect(ops[which]) for which in ("X", "Y"))


def vslq_fixed_lifetime(model: VslqModel, omega: float
                        ) -> tuple[float, float]:
    """Logical lifetimes (T_X, T_Y), in us, of ``model`` under the constant
    coupling ``omega`` (rad/ns) on its x quadrature: exp(-t/T) fitted to
    each curve of one ``vslq_fixed_evolution`` over ``FIXED_WINDOW_US``,
    after its first ``FIXED_SKIP_US`` of transient."""
    times_ns = np.linspace(0.0, FIXED_WINDOW_US * 1e3, FIXED_SAMPLES)
    curves = vslq_fixed_evolution(model, omega, times_ns)
    t_us = times_ns / 1e3
    keep = t_us >= FIXED_SKIP_US
    return tuple(analysis.fit_lifetime(t_us[keep], v[keep]).lifetime
                 for v in curves)
