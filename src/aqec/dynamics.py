"""Time evolution: Schrodinger propagation for pulse design, Lindblad
master-equation propagation for lossy pulse-reset cycles.

The workhorse is an adaptive Dormand-Prince 5(4) integrator operating on
complex arrays of any shape; its seven stages live in one preallocated
array, so each stage input, the update and the error estimate are one
matrix product each. Evolutions are split at every phase boundary of a
cycle schedule so a discontinuous rate change is never straddled by a
step. All Lindblad flow uses one definition of the vectorized generator S,
built from the exact nonzeros of the d x d factors. A pulse phase
integrates vec(rho) through the stacked sparse blocks of S (static part,
the two coupling quadratures, callable-rate dissipators), one sparse matvec
per right-hand side. Reset phases (constant Hamiltonian, constant rates)
reuse a cached exact propagator exp(S * t_r), which is orders of magnitude
faster than stepping through them. Integrating a reset phase
(``evolve_lindblad`` on the reset-phase problem) is no longer a route of
``evolve_cycles``; it is kept only as the test oracle for that propagator,
and the two agree to integrator tolerance. S is never formed densely for
propagation: its nonzeros split the vec indices into decoupled blocks
(excitation-difference sectors), and exp(S * t) is built and applied block
by block, with no approximation beyond that of the matrix exponential.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np
import scipy.linalg
import scipy.sparse

from .hilbert import Operator, QuantumState, sector_labels
from .models import ModelTerms
from .pulse import CycleSchedule, PulseShape

UNITARY_RTOL = 1e-10
LINDBLAD_RTOL = 1e-9
DEFAULT_ATOL = 1e-12
EIG_RAISE = -1e-7    # density eigenvalue below this aborts the run
EIG_CLIP = -1e-9     # below this (but above EIG_RAISE) eigenvalues are clipped


class IntegrationError(RuntimeError):
    """The adaptive integrator could not meet the requested tolerance."""


class IntegrityError(RuntimeError):
    """A physical invariant (trace, positivity) failed beyond tolerance."""


# --- Dormand-Prince 5(4) ------------------------------------------------------

_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
# complex rows, so their products with the complex stages need no cast
_A = [np.array(row, dtype=complex) for row in (
    [],
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
)]
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0],
               dtype=complex)
_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200,
                187 / 2100, 1 / 40], dtype=complex)
_E = _B5 - _B4


def _initial_step(f, t0, y0, f0, direction, rtol, atol, span):
    sc = atol + rtol * np.abs(y0)
    d0 = np.sqrt(np.mean(np.abs(y0 / sc) ** 2))
    d1 = np.sqrt(np.mean(np.abs(f0 / sc) ** 2))
    h0 = 1e-6 * span if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    y1 = y0 + h0 * direction * f0
    f1 = f(t0 + h0 * direction, y1)
    d2 = np.sqrt(np.mean(np.abs((f1 - f0) / sc) ** 2)) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6 * span, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1, span)


def adaptive_rk(
    f: Callable[[float, np.ndarray], np.ndarray],
    t_span: tuple[float, float],
    y0: np.ndarray,
    rtol: float,
    atol: float = DEFAULT_ATOL,
    record_times: Sequence[float] | None = None,
    post_step: Callable[[np.ndarray], np.ndarray] | None = None,
    max_steps: int = 5_000_000,
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Integrate y' = f(t, y) with the embedded Dormand-Prince 5(4) pair.

    Steps are clamped to land exactly on every entry of ``record_times``
    (plus the endpoint), where the state is recorded. ``post_step`` is
    applied to the state after every accepted step (used to re-Hermitize
    density matrices) and voids the reuse of the last stage as the next
    first one. The seven stages are the rows of one preallocated array;
    each stage input, the update and the error estimate is one product of
    a tableau row with them. Raises IntegrationError with the achieved
    error if the step size underflows or the step budget is exhausted.
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    if t1 < t0:
        raise ValueError("backward integration not supported")
    y = np.array(y0, dtype=complex)
    if record_times is None:
        record = [t1]
    else:
        record = sorted({float(t) for t in record_times} | {t1})
        if record[0] < t0 or record[-1] > t1 + 1e-12:
            raise ValueError("record times outside t_span")
    out_t: list[float] = []
    out_y: list[np.ndarray] = []
    if record and abs(record[0] - t0) <= 1e-12 * max(1.0, abs(t0)):
        out_t.append(t0)
        out_y.append(y.copy())
        record = record[1:]
    if t1 == t0:
        return np.array(out_t), out_y

    span = t1 - t0
    t = t0
    shape = y.shape
    ks = np.empty((7,) + shape, dtype=complex)
    stages = ks.reshape(7, -1)
    ks[0] = f(t, y)
    h = _initial_step(f, t, y, ks[0], 1.0, rtol, atol, span)
    h_min = 1e-14 * span
    fsal_valid = True
    next_record = 0
    steps = 0
    err_norm = 0.0
    while t < t1 - 1e-14 * span:
        if steps >= max_steps:
            raise IntegrationError(
                f"step budget {max_steps} exhausted at t={t:.6g} "
                f"(last error norm {err_norm:.3g})")
        target = record[next_record] if next_record < len(record) else t1
        h_trial = min(h, target - t)
        clamped = h_trial < h
        if not fsal_valid:
            ks[0] = f(t, y)
            fsal_valid = True
        for i in range(1, 7):
            yi = y + h_trial * (_A[i] @ stages[:i]).reshape(shape)
            ks[i] = f(t + _C[i] * h_trial, yi)
        y_new = y + h_trial * (_B5 @ stages).reshape(shape)
        err = h_trial * (_E @ stages).reshape(shape)
        sc = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
        err_norm = float(np.sqrt(np.mean(np.abs(err / sc) ** 2)))
        steps += 1
        if err_norm <= 1.0:
            t = t + h_trial
            y = y_new
            if post_step is not None:
                y = post_step(y)
                fsal_valid = False
            else:
                ks[0] = ks[6]
            if next_record < len(record) and abs(t - record[next_record]) <= 1e-12 * max(1.0, abs(t)):
                out_t.append(record[next_record])
                out_y.append(y.copy())
                next_record += 1
            factor = 5.0 if err_norm == 0.0 else min(5.0, max(0.2, 0.9 * err_norm ** -0.2))
            h_next = h_trial * factor
            h = max(h, h_next) if clamped else h_next
        else:
            h = h_trial * max(0.2, 0.9 * err_norm ** -0.2)
            fsal_valid = fsal_valid and post_step is None
            if h < h_min:
                raise IntegrationError(
                    f"step size underflow at t={t:.6g} (error norm {err_norm:.3g})")
    return np.array(out_t), out_y


# --- problem containers ---------------------------------------------------------

Coupling = Callable[[float], tuple[float, float]]
RateFn = Callable[[float], float]


@dataclass(frozen=True)
class EvolutionProblem:
    """One evolution: Hamiltonian terms, coupling, channels, window, state.

    ``coupling`` maps t (ns) to the two quadrature amplitudes; None means
    the static Hamiltonian alone. Channel rates may be constants or
    callables of t; they must be nonnegative wherever sampled.
    """

    h_static: Operator
    h_x: Operator | None
    h_y: Operator | None
    coupling: Coupling | None
    channels: tuple[tuple[Operator, RateFn | float], ...]
    t_span: tuple[float, float]
    initial: QuantumState

    def __init__(self, h_static, h_x, h_y, coupling, channels, t_span, initial):
        dims = h_static.space.dims
        for op in (h_x, h_y):
            if op is not None and op.space.dims != dims:
                raise ValueError("coupling operators live on a different space")
        if initial.space.dims != dims:
            raise ValueError("initial state lives on a different space")
        channels = tuple((op, rate) for op, rate in channels)
        for op, _ in channels:
            if op.space.dims != dims:
                raise ValueError("channel operator lives on a different space")
        if not float(t_span[1]) >= float(t_span[0]):
            raise ValueError("t_span must be ordered")
        object.__setattr__(self, "h_static", h_static)
        object.__setattr__(self, "h_x", h_x)
        object.__setattr__(self, "h_y", h_y)
        object.__setattr__(self, "coupling", coupling)
        object.__setattr__(self, "channels", channels)
        object.__setattr__(self, "t_span", (float(t_span[0]), float(t_span[1])))
        object.__setattr__(self, "initial", initial)


@dataclass
class Trajectory:
    """Recorded evolution: strictly increasing times plus states."""

    times: np.ndarray
    states: list[QuantumState]
    observables: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        if len(self.states) != len(self.times):
            raise ValueError("times and states length mismatch")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")

    @property
    def final(self) -> QuantumState:
        if not self.states:
            raise ValueError("empty trajectory")
        return self.states[-1]


Observable = Operator | QuantumState


def _eval_observable(obs: Observable, state: QuantumState) -> float:
    from .hilbert import expectation, state_fidelity
    if isinstance(obs, Operator):
        return expectation(obs, state)
    return state_fidelity(state, obs)


def _attach_observables(traj: Trajectory,
                        observables: Mapping[str, Observable] | None) -> Trajectory:
    if observables:
        for name, obs in observables.items():
            traj.observables[name] = np.array(
                [_eval_observable(obs, s) for s in traj.states])
    return traj


# --- Hamiltonian/Lindblad right-hand sides ----------------------------------------

def _hamiltonian_fn(problem: EvolutionProblem) -> Callable[[float], np.ndarray]:
    h0 = problem.h_static.matrix
    if problem.coupling is None:
        return lambda t: h0
    hx = problem.h_x.matrix if problem.h_x is not None else None
    hy = problem.h_y.matrix if problem.h_y is not None else None
    coupling = problem.coupling

    def h_of_t(t: float) -> np.ndarray:
        ox, oy = coupling(t)
        h = h0
        if hx is not None and ox != 0.0:
            h = h + ox * hx
        if hy is not None and oy != 0.0:
            h = h + oy * hy
        return h

    return h_of_t


def _hermitize(rho: np.ndarray) -> np.ndarray:
    return (rho + rho.conj().T) / 2


def _sanitize_density(rho: np.ndarray) -> np.ndarray:
    """Hermitize; clip eigenvalues in [EIG_RAISE, EIG_CLIP); raise below."""
    rho = _hermitize(rho)
    w = np.linalg.eigvalsh(rho)
    if w[0] < EIG_RAISE:
        raise IntegrityError(
            f"density eigenvalue {w[0]:.3e} below {EIG_RAISE}; "
            "integration tolerance failure")
    if w[0] < EIG_CLIP:
        w_full, v = np.linalg.eigh(rho)
        w_full = np.clip(w_full, 0.0, None)
        rho = (v * w_full) @ v.conj().T
        rho = rho / np.trace(rho).real
    return rho


# --- public evolutions ---------------------------------------------------------

def evolve_unitary(problem: EvolutionProblem,
                   record_times: Sequence[float] | None = None,
                   observables: Mapping[str, Observable] | None = None,
                   rtol: float = UNITARY_RTOL,
                   atol: float = DEFAULT_ATOL) -> Trajectory:
    """Integrate i psi' = H(t) psi (hbar = 1) for a pure initial state."""
    psi0 = problem.initial.vector()
    h_of_t = _hamiltonian_fn(problem)

    def rhs(t, psi):
        return -1j * (h_of_t(t) @ psi)

    times, ys = adaptive_rk(rhs, problem.t_span, psi0, rtol=rtol, atol=atol,
                            record_times=record_times)
    drift = abs(np.linalg.norm(ys[-1]) - 1.0)
    if drift > 1e-8:
        raise IntegrationError(f"norm drift {drift:.3e} exceeds 1e-8")
    space = problem.initial.space
    states = [QuantumState(space, y / np.linalg.norm(y)) for y in ys]
    return _attach_observables(Trajectory(times, states), observables)


def evolve_lindblad(problem: EvolutionProblem,
                    record_times: Sequence[float] | None = None,
                    observables: Mapping[str, Observable] | None = None,
                    rtol: float = LINDBLAD_RTOL,
                    atol: float = DEFAULT_ATOL) -> Trajectory:
    """Integrate the Lindblad master equation with time-varying rates.

    Pure initial states are promoted to projectors. The state is
    re-Hermitized after every accepted step; trace drift beyond 1e-8 or an
    eigenvalue below -1e-7 at a record time raises IntegrityError.
    """
    times, ys = adaptive_rk(lindblad_rhs(problem), problem.t_span,
                            problem.initial.density(), rtol=rtol, atol=atol,
                            record_times=record_times, post_step=_hermitize)
    for t, y in zip(times, ys):
        drift = abs(np.trace(y).real - 1.0)
        if drift > 1e-8:
            raise IntegrityError(
                f"trace drift {drift:.3e} exceeds 1e-8 at t={t:.6g}")
    space = problem.initial.space
    states = [QuantumState(space, _sanitize_density(y)) for y in ys]
    return _attach_observables(Trajectory(times, states), observables)


# --- vectorized generator, exact segment propagation --------------------------------

def _kron_triplets(a: np.ndarray, b: np.ndarray):
    """(rows, cols, values) of the nonzero entries of kron(a, b)."""
    ai, aj = np.nonzero(a)
    bi, bj = np.nonzero(b)
    d = b.shape[0]
    rows = (ai[:, None] * d + bi).ravel()
    cols = (aj[:, None] * d + bj).ravel()
    vals = (a[ai, aj][:, None] * b[bi, bj]).ravel()
    return rows, cols, vals


def _generator_triplets(h: np.ndarray,
                        channels: Sequence[tuple[np.ndarray, float]]):
    """(rows, cols, values) of the row-major-vec Lindblad generator.

    S = K (x) 1 + 1 (x) K'^T + sum_k g_k L_k (x) L_k^*, with
    K = -iH - (1/2) sum_k g_k L_k^dag L_k and K' = iH - (1/2) sum_k g_k L_k^dag L_k.
    Entries are taken from the exact nonzeros of the d x d factors, so the
    d^2 x d^2 generator is never formed; a position may repeat, and its
    values add.
    """
    eye = np.eye(h.shape[0])
    decay = np.zeros_like(h, dtype=complex)
    jumps = []
    for lop, rate in channels:
        if rate == 0.0:
            continue
        decay += (0.5 * rate) * (lop.conj().T @ lop)
        jumps.append(_kron_triplets(rate * lop, lop.conj()))
    parts = [_kron_triplets(-1j * h - decay, eye),
             _kron_triplets(eye, (1j * h - decay).T)] + jumps
    return tuple(np.concatenate(p) for p in zip(*parts))


def lindblad_rhs(problem: EvolutionProblem
                 ) -> Callable[[float, np.ndarray], np.ndarray]:
    """rho' = f(t, rho) of the problem's master equation, for adaptive_rk.

    In row-major vec form rho' = sum_j w_j(t) G_j rho over the generator
    blocks G = [S(h_static, constant-rate channels); S(h_x); S(h_y); D_k for
    each callable-rate channel], with weights w = [1, Omega_x(t),
    Omega_y(t), g_k(t)]; the coupling blocks are present only with a
    coupling, and D_k is the dissipator of L_k at unit rate. All blocks come
    from ``_generator_triplets``, the definition the segment propagators
    and ``steady_state`` use, and are stacked into one CSR matrix, so a call
    is one sparse matvec and one weighted sum of its blocks. Constant rates
    are checked once here, callable ones at every call.
    """
    d = problem.h_static.matrix.shape[0]
    n = d * d
    constant, timed = [], []
    for op, rate in problem.channels:
        if callable(rate):
            timed.append((op.matrix, rate))
        elif rate < 0:
            raise ValueError(f"negative channel rate {rate}")
        else:
            constant.append((op.matrix, float(rate)))
    zero = np.zeros((d, d))
    blocks = [_generator_triplets(problem.h_static.matrix, constant)]
    if problem.coupling is not None:
        blocks += [_generator_triplets(zero if op is None else op.matrix, ())
                   for op in (problem.h_x, problem.h_y)]
    blocks += [_generator_triplets(zero, [(lop, 1.0)]) for lop, _ in timed]
    rows = np.concatenate([r + k * n for k, (r, _, _) in enumerate(blocks)])
    cols = np.concatenate([c for _, c, _ in blocks])
    vals = np.concatenate([v for _, _, v in blocks])
    stack = scipy.sparse.csr_matrix((vals, (rows, cols)),
                                    shape=(len(blocks) * n, n))
    weights = np.ones(len(blocks), dtype=complex)
    coupling = problem.coupling
    rates = [rate for _, rate in timed]
    first_rate = len(blocks) - len(rates)

    def rhs(t, rho):
        if coupling is not None:
            weights[1:3] = coupling(t)
        for k, rate in enumerate(rates, start=first_rate):
            g = rate(t)
            if g < 0:
                raise ValueError(f"negative channel rate {g} at t={t}")
            weights[k] = g
        out = weights @ (stack @ rho.reshape(n)).reshape(len(blocks), n)
        return out.reshape(d, d)

    return rhs


def lindblad_superoperator(h: np.ndarray,
                           channels: Sequence[tuple[np.ndarray, float]]) -> np.ndarray:
    """Row-major-vec generator: vec(rho') = S vec(rho) for constant H, rates."""
    n = h.shape[0] ** 2
    rows, cols, vals = _generator_triplets(h, channels)
    s = np.zeros((n, n), dtype=complex)
    np.add.at(s, (rows, cols), vals)
    return s


@dataclass(frozen=True)
class SegmentPropagator:
    """exp(S dt) of a block-diagonal generator, stored block by block.

    The blocks are packed into zero-padded slots of m indices, and
    ``exps[k]`` is the (block-diagonal) exponential of slot k. Row-major
    vec index i of rho sits at ``index[i]`` of the flattened slots,
    i.e. in slot ``index[i] // m``.
    """

    index: np.ndarray   # (d*d,)
    exps: np.ndarray    # (n_slots, m, m)


def segment_propagator(h: np.ndarray,
                       channels: Sequence[tuple[np.ndarray, float]],
                       dt: float) -> SegmentPropagator:
    """exp(S dt) for a time-independent Lindblad segment, exact by blocks.

    The generator S couples vec indices only within the weakly connected
    components of its nonzero pattern, so it is block diagonal up to a
    permutation and exp(S dt) is block diagonal in the same partition.
    Sideband couplings and single-site jumps conserve an excitation
    difference, so the blocks are small: the VSLQ fixed-point generator has
    8 blocks of 160-164 vec indices and the VSLQ reset generator 72 of at
    most 52, against 1296 in all. Blocks are packed, largest first, into
    slots the size m of the largest block (a slot takes the next block
    while it fits), and all slots are exponentiated in one
    ``scipy.linalg.expm`` call on the (n_slots, m, m) stack. No entry is
    dropped, so the result is exp(S dt) to the accuracy of expm itself.
    """
    n = h.shape[0] ** 2
    rows, cols, vals = _generator_triplets(h, channels)
    block = sector_labels(rows, cols, n)
    sizes = np.bincount(block)
    m = int(sizes.max())
    # packing keeps padding below 2x the indices and cuts expm's per-slice
    # Python overhead, which dominates at d = 6
    slot_of_block = np.empty(sizes.size, dtype=np.intp)
    k = fill = 0
    for b in np.argsort(-sizes, kind="stable").tolist():
        if fill + sizes[b] > m:
            k, fill = k + 1, 0
        slot_of_block[b] = k
        fill += sizes[b]
    slot = slot_of_block[block]
    fills = np.bincount(slot)
    order = np.argsort(slot, kind="stable")
    pos = np.empty(n, dtype=np.intp)
    pos[order] = np.arange(n) - np.repeat(np.cumsum(fills) - fills, fills)
    index = slot * m + pos
    flat = index[rows] * m + pos[cols]
    size = fills.size * m * m
    gen = (np.bincount(flat, vals.real * dt, size)
           + 1j * np.bincount(flat, vals.imag * dt, size))
    exps = scipy.linalg.expm(gen.reshape(fills.size, m, m))
    return SegmentPropagator(index, exps)


def apply_propagator(prop: SegmentPropagator, rho: np.ndarray) -> np.ndarray:
    """exp(S dt) vec(rho): gather into the slots, multiply, scatter back.

    The result is hermitized exactly.
    """
    d = rho.shape[0]
    n_slots, m, _ = prop.exps.shape
    x = np.zeros(n_slots * m, dtype=complex)
    x[prop.index] = rho.reshape(-1)
    y = np.matmul(prop.exps, x.reshape(n_slots, m, 1)).reshape(-1)
    return _hermitize(y[prop.index].reshape(d, d))


def evolve_constant_lindblad(h: Operator,
                             channels: Sequence[tuple[Operator, float]],
                             initial: QuantumState,
                             times: Sequence[float],
                             observables: Mapping[str, Observable] | None = None
                             ) -> Trajectory:
    """Exact expm-stepped evolution for constant H and rates.

    ``times`` must be increasing and start at the initial time (offset 0);
    propagators are cached per distinct step, so uniform grids cost one
    matrix exponential regardless of length.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 1:
        raise ValueError("need at least one time")
    if times[0] != 0.0 or np.any(np.diff(times) <= 0):
        raise ValueError("times must start at 0 and increase strictly")
    mats = [(op.matrix, float(rate)) for op, rate in channels]
    cache: dict[float, SegmentPropagator] = {}
    rho = initial.density()
    space = initial.space
    states = [QuantumState(space, _sanitize_density(rho))]
    for dt in np.diff(times):
        key = round(float(dt), 12)
        if key not in cache:
            cache[key] = segment_propagator(h.matrix, mats, float(dt))
        rho = apply_propagator(cache[key], rho)
        states.append(QuantumState(space, _sanitize_density(rho)))
    return _attach_observables(Trajectory(times, states), observables)


def steady_state(h: Operator,
                 channels: Sequence[tuple[Operator, float]]) -> QuantumState:
    """Null vector of the Lindblad generator, normalized to unit trace."""
    mats = [(op.matrix, float(rate)) for op, rate in channels]
    s = lindblad_superoperator(h.matrix, mats)
    d = h.matrix.shape[0]
    a = np.vstack([s, np.eye(d, dtype=complex).reshape(1, -1)])
    b = np.zeros(d * d + 1, dtype=complex)
    b[-1] = 1.0
    rho, *_ = np.linalg.lstsq(a, b, rcond=None)
    rho = rho.reshape(d, d)
    return QuantumState(h.space, _sanitize_density(rho))


# --- pulse-reset cycles ----------------------------------------------------------

def evolve_cycles(terms: ModelTerms,
                  pulse: PulseShape,
                  schedule: CycleSchedule,
                  initial: QuantumState,
                  observables: Mapping[str, Observable] | None = None,
                  rtol: float = LINDBLAD_RTOL) -> Trajectory:
    """Alternate pulse and reset phases of the schedule under Lindblad flow.

    Each pulse phase is integrated separately, from the state recorded at
    the end of the previous phase, so the piecewise-constant rates are never
    straddled by a step; states are recorded at every phase boundary. Reset
    phases all share one exact propagator.
    """
    if abs(schedule.t_p - pulse.t_p) > 1e-12:
        raise ValueError("schedule t_p differs from pulse duration")
    space = terms.space
    states = [QuantumState(space, _sanitize_density(initial.density()))]
    times = [0.0]
    if schedule.n_cycles == 0:
        traj = Trajectory(np.array([0.0]), states)
        return _attach_observables(traj, observables)

    pulse_channels = tuple(
        (c.op, schedule.rate_pulse[c.label]) for c in terms.channels)
    reset_prop = None
    if schedule.t_r > 0:
        reset_prop = segment_propagator(
            terms.h_static.matrix,
            [(c.op.matrix, schedule.rate_reset[c.label]) for c in terms.channels],
            schedule.t_r)

    # the integrator samples t only inside [0, t_p], the window that
    # pulse.evaluate checks; the sine modes are formed once here
    modes = np.arange(1, pulse.n_modes + 1) * (np.pi / pulse.t_p)
    coeffs = np.array([pulse.cx, pulse.cy])

    def coupling(t):
        return coeffs @ np.sin(modes * t)

    t_abs = 0.0
    for _ in range(schedule.n_cycles):
        prob = EvolutionProblem(
            h_static=terms.h_static, h_x=terms.h_x, h_y=terms.h_y,
            coupling=coupling,
            channels=pulse_channels,
            t_span=(0.0, schedule.t_p), initial=states[-1])
        final = evolve_lindblad(prob, rtol=rtol).final
        t_abs += schedule.t_p
        times.append(t_abs)
        states.append(final)
        if reset_prop is not None:
            rho = apply_propagator(reset_prop, final.density())
            t_abs += schedule.t_r
            times.append(t_abs)
            states.append(QuantumState(space, _sanitize_density(rho)))
    return _attach_observables(Trajectory(np.array(times), states), observables)


# --- exports ---------------------------------------------------------------------

def trajectory_to_csv(traj: Trajectory, path) -> None:
    """time_ns plus one column per observable, 12 significant digits."""
    names = sorted(traj.observables)
    with open(path, "w") as f:
        f.write(",".join(["time_ns"] + names) + "\n")
        for i, t in enumerate(traj.times):
            row = [f"{t:.12g}"] + [f"{traj.observables[n][i]:.12g}" for n in names]
            f.write(",".join(row) + "\n")


def dump_states(traj: Trajectory, path) -> None:
    """Full-state JSON dump (debugging aid, not a compact format)."""
    import json
    recs = []
    for t, s in zip(traj.times, traj.states):
        recs.append({
            "time_ns": float(t),
            "pure": bool(s.is_pure),
            "re": np.real(s.data).tolist(),
            "im": np.imag(s.data).tolist(),
        })
    with open(path, "w") as f:
        json.dump(recs, f)
        f.write("\n")
