"""Time evolution: Schrodinger propagation for pulse design, Lindblad
master-equation propagation for lossy pulse-reset cycles.

The workhorse is an adaptive Dormand-Prince 8(5,3) integrator (DOP853)
operating on complex arrays of any shape. The state y and the twelve
stages k_0 ... k_11 are the rows of one preallocated (13, N) array
z = [y; k_0 ... k_11], and the tableau is one augmented coefficient matrix
over those rows, scaled by h once per attempted step: each stage input is
one product of a tableau row with the rows of z before it, and the update
and both error estimates are one (3, N) product with all of z.
Evolutions are split at every phase boundary of a cycle schedule so a
discontinuous rate change is never straddled by a step. Every integrated
evolution has one shape, an ``EvolutionProblem`` with
H(t) = h_static + Omega_x(t) h_x + Omega_y(t) h_y, checked once when it is
built; a static problem passes zero amplitudes. All Lindblad flow
uses one definition of the vectorized generator S, built from the exact
nonzeros of the d x d factors. S is never formed densely: its nonzeros
split the vec indices into decoupled sectors (weakly connected components
of the pattern, here excitation-difference sectors), and a state occupies
only some of them. One rule, exact zeros of rho and rho^T, names the
occupied sectors, and only those are propagated. A model
may declare site permutations that S commutes with (``ModelTerms``);
``_reduce``, which every Lindblad build passes through, checks them
exactly on the d x d operators, and from an initial state that is
invariant too, entry for entry, an evolution propagates one value per
orbit of the vec indices (the weak-symmetry reduction of Buca & Prosen,
NJP 14, 073007 (2012)). States are lifted back to d x d densities only
where they are recorded; a state that is not invariant runs unreduced,
through the same code. A pulse phase integrates the occupied coordinates
through the stacked sparse blocks of S (static part and the two coupling
quadratures), one sparse matvec per right-hand side, with the step
control of the full vector; the VSLQ |0_L> occupies 324 of 1296 entries,
which its mirror folds into 171 orbits, and the three-qubit |0_L> 512,
which its pair permutations fold into 120. Nothing projects the
integrated state, so a pulse phase is an exactly linear map of the kept
coordinates; it stays Hermitian to rounding because the Lindblad flow
does. Constant segments use the exact propagator exp(S * t), built and
applied block by block with no approximation beyond that of the matrix
exponential; a constant evolution builds only the blocks its initial
state occupies, and ``constant_lindblad_batch`` builds them, through the
same builder, for a batch of generators affine in their coefficients in
one stack. Reset phases
share one cached propagator of every block, which is orders of magnitude
faster than stepping through them. Integrating a reset phase
(``evolve_lindblad`` on the reset-phase problem) is kept only as the test
oracle for that propagator, and the two agree to integrator tolerance.
``steady_state`` solves only over the sectors holding the identity's
diagonal. Evolutions return states alone; callers read observables off them
with ``Trajectory.expect``, one ``hilbert.expectation`` call per operator.
Every recorded or batched density passes ``hilbert.check_densities``, the
check ``QuantumState`` makes, exactly once, or raises IntegrityError; no
state is clipped or otherwise altered to pass it. A constant evolution
checks its records as one stack, which ``check_densities`` tests block by
block on the blocks of the stack's union nonzero pattern when it holds
more densities than each has rows and d is large enough for that to pay:
the 81 records from |+X_L> at the VSLQ fixed point split into four 9 x 9
blocks.

scipy is imported where it is first used: ``scipy.sparse`` by the
pulse-phase RHS, for its CSR matvec, and ``scipy.linalg`` by the
propagator builder, for ``expm``. A command that reaches neither, such as
a pulse ascent, loads no scipy module.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

# Both forms: hilbert's observables are called through the module object,
# which reaches hilbert's own binding, as perfbench's binding census
# expects; a name imported from it would add an aqec.dynamics alias that
# the census does not classify.
from . import hilbert
from .hilbert import (Operator, QuantumState, TensorSpace, check_densities,
                      sector_labels)
from .models import ModelTerms, phase_channels
from .pulse import CycleSchedule, PulseShape

UNITARY_RTOL = 1e-10
LINDBLAD_RTOL = 1e-9
DEFAULT_ATOL = 1e-12
NORM_DRIFT_ATOL = 1e-8   # |norm - 1| a Schrodinger propagation may reach
MAX_STEPS = 5_000_000    # adaptive_rk's step budget per integration


class IntegrationError(RuntimeError):
    """The adaptive integrator could not meet the requested tolerance."""


class IntegrityError(RuntimeError):
    """A physical invariant (trace, positivity) failed beyond tolerance."""


# --- Dormand-Prince 8(5,3) -----------------------------------------------------
#
# DOP853 (Prince & Dormand, J. Comput. Appl. Math. 7, 67 (1981); Hairer,
# Norsett & Wanner, Solving ODEs I, sec. II.10): twelve stages give the
# 8th-order update, and two embedded solutions, of orders 5 and 3, give the
# error estimate. Written as literals: importing them from scipy.integrate
# would load scipy.fft and about 150 more modules at every start.

_C = np.array([
    0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
    0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
    0.6512820512820513, 0.6, 0.8571428571428571, 1.0])
# complex rows, so their products with the complex stages need no cast
_A = [np.array(row, dtype=complex) for row in (
    [],
    [0.05260015195876773],
    [0.0197250569845379, 0.0591751709536137],
    [0.02958758547680685, 0.0, 0.08876275643042054],
    [0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792],
    [0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242],
    [0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596,
     -0.017578125],
    [0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
     -0.015319437748624402, 0.008273789163814023],
    [0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726,
     27.59209969944671, 20.154067550477894, -43.48988418106996],
    [0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
     21.230051448181193, 15.279233632882423, -33.28821096898486,
     -0.020331201708508627],
    [-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
     -8.149787010746927, -18.52006565999696, 22.739487099350505,
     2.4936055526796523, -3.0467644718982196],
    [2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625,
     -17.9589318631188, 27.94888452941996, -2.8589982771350235,
     -8.87285693353063, 12.360567175794303, 0.6433927460157636],
)]
_B = np.array([
    0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
    1.8915178993145003, -5.801203960010585, 0.3111643669578199,
    -0.1521609496625161, 0.20136540080403034, 0.04471061572777259],
    dtype=complex)
# the 8th-order update minus the 5th-order and minus the 3rd-order solution
_E5 = np.array([
    0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044,
    -0.4957589496572502, 1.6643771824549864, -0.35032884874997366,
    0.3341791187130175, 0.08192320648511571, -0.022355307863886294])
_E3 = _B.real - np.array([0.2440944881889764, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
                          0.7338466882816118, 0.0, 0.0, 0.022058823529411766])
_E53 = np.array([_E5, _E3], dtype=complex)
_STAGES = len(_C)
# The same coefficients over z = [y; k_0 ... k_11], one column per row of z:
# row i < 12 gives the input of stage i (row 0, y itself), row 12 the
# 8th-order update and rows 13 and 14 the two error estimates. A step h
# scales every column but y's.
_TABLEAU = np.array(
    [np.concatenate(([1.0], row, np.zeros(_STAGES - row.size))) for row in _A]
    + [np.concatenate(([1.0], _B))]
    + [np.concatenate(([0.0], e)) for e in _E53])


def _initial_step(f, t0, y0, f0, rtol, atol, span):
    sc = atol + rtol * np.abs(y0)
    d0 = np.sqrt(np.mean(np.abs(y0 / sc) ** 2))
    d1 = np.sqrt(np.mean(np.abs(f0 / sc) ** 2))
    h0 = 1e-6 * span if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    y1 = y0 + h0 * f0
    f1 = f(t0 + h0, y1)
    d2 = np.sqrt(np.mean(np.abs((f1 - f0) / sc) ** 2)) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6 * span, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return min(100 * h0, h1, span)


def adaptive_rk(
    f: Callable[[float, np.ndarray], np.ndarray],
    t_span: tuple[float, float],
    y0: np.ndarray,
    rtol: float,
    atol: float = DEFAULT_ATOL,
    record_times: Sequence[float] | None = None,
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Integrate y' = f(t, y) with the embedded Dormand-Prince 8(5,3) pair.

    Steps are clamped to land exactly on every entry of ``record_times``
    (plus the endpoint), where the state is recorded. The state and the
    twelve stages are the rows of one preallocated (13, N) array
    z = [y; k_0 ... k_11], N the size of y. Each attempt scales the
    augmented tableau ``_TABLEAU`` by h once, so each stage input is one
    product of a tableau row with the rows of z before it, and the update
    and both error estimates are one (3, N) product with all of z. f is
    called once per stage, with the stage input in the shape of ``y0``;
    that array is reused by the next stage, so f must not keep it.
    The first stage of a step is f at its start, evaluated once however
    often the step is retried. It is evaluated afresh after each accepted
    step: this tableau's last stage sits at t + h but not at the new y, so
    it cannot stand in for it. The error norm is Hairer's combination of
    the 5th- and 3rd-order estimates, h n5 / sqrt((n5 + 0.01 n3) N), where
    n5 and n3 are the squared sums of the estimates over the scale
    atol + rtol max(|y|, |y_new|), and the step follows it with exponent
    -1/8; |y| is carried over from the accepted step. Raises
    IntegrationError with the achieved error if the step size underflows
    or turns NaN, or the ``MAX_STEPS`` budget is exhausted.
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    if t1 < t0:
        raise ValueError("backward integration not supported")
    y0 = np.array(y0, dtype=complex)
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
        out_y.append(y0)
        record = record[1:]
    if t1 == t0:
        return np.array(out_t), out_y

    span = t1 - t0
    t = t0
    shape, n = y0.shape, y0.size
    z = np.empty((_STAGES + 1, n), dtype=complex)
    shaped = z.reshape((_STAGES + 1,) + shape)   # z's rows in y's shape
    y = shaped[0]
    y[...] = y0
    # views made once: each stage's tableau row and the rows of z it weighs
    coeffs = np.empty_like(_TABLEAU)
    y_coeffs = coeffs[:_STAGES + 1, 0]
    stage_coeffs = [coeffs[i, :i + 1] for i in range(_STAGES)]
    stage_rows = [z[:i + 1] for i in range(_STAGES)]
    stage_in = np.empty(n, dtype=complex)
    stage_arg = stage_in.reshape(shape)
    out_coeffs = coeffs[_STAGES:]
    out = np.empty((3, n), dtype=complex)
    y_new, err5, err3 = out
    nodes = _C.tolist()
    abs_y = np.abs(z[0])
    abs_new = np.empty(n)
    sc = np.empty(n)

    shaped[1] = f(t, y)
    h = float(_initial_step(f, t, y, shaped[1], rtol, atol, span))
    h_min = 1e-14 * span
    first_valid = True
    next_record = 0
    steps = 0
    err_norm = 0.0
    while t < t1 - 1e-14 * span:
        if steps >= MAX_STEPS:
            raise IntegrationError(
                f"step budget {MAX_STEPS} exhausted at t={t:.6g} "
                f"(last error norm {err_norm:.3g})")
        target = record[next_record] if next_record < len(record) else t1
        h_trial = min(h, target - t)
        clamped = h_trial < h
        if not first_valid:
            shaped[1] = f(t, y)
            first_valid = True
        np.multiply(_TABLEAU, h_trial, out=coeffs)
        y_coeffs.fill(1.0)
        # np.dot, not matmul: on these small operands its call costs less
        for i in range(1, _STAGES):
            np.dot(stage_coeffs[i], stage_rows[i], out=stage_in)
            shaped[i + 1] = f(t + nodes[i] * h_trial, stage_arg)
        np.dot(out_coeffs, z, out=out)
        np.abs(y_new, out=abs_new)
        np.maximum(abs_y, abs_new, out=sc)
        sc *= rtol
        sc += atol
        err5 /= sc
        err3 /= sc
        # the estimates carry h, so h n5 / sqrt(...) is n5 / sqrt(...) here
        n5 = np.vdot(err5, err5).real
        n3 = np.vdot(err3, err3).real
        err_norm = 0.0 if n5 == 0.0 else float(
            n5 / math.sqrt((n5 + 0.01 * n3) * n))
        steps += 1
        if err_norm <= 1.0:
            t += h_trial
            z[0] = y_new
            abs_y, abs_new = abs_new, abs_y
            first_valid = False
            if next_record < len(record) and abs(t - record[next_record]) <= 1e-12 * max(1.0, abs(t)):
                out_t.append(record[next_record])
                out_y.append(y.copy())
                next_record += 1
            factor = 5.0 if err_norm == 0.0 else min(5.0, max(0.2, 0.9 * err_norm ** -0.125))
            h_next = h_trial * factor
            h = max(h, h_next) if clamped else h_next
        else:
            h = h_trial * max(0.2, 0.9 * err_norm ** -0.125)
            if not h >= h_min:  # a NaN step (NaN in the RHS) fails here too
                raise IntegrationError(
                    f"step size underflow at t={t:.6g} (error norm {err_norm:.3g})")
    return np.array(out_t), out_y


# --- problem containers ---------------------------------------------------------

Coupling = Callable[[float], tuple[float, float]]


@dataclass(frozen=True)
class EvolutionProblem:
    """One evolution under H(t) = h_static + Omega_x(t) h_x + Omega_y(t) h_y.

    ``coupling`` maps t (ns) to the two quadrature amplitudes
    (Omega_x, Omega_y); a static problem passes zero amplitudes. Channel
    rates are constant over the window. ``symmetries`` are basis maps
    (``ModelTerms.basis_symmetries``) that the Hamiltonian and channels are
    declared invariant under; a Lindblad evolution propagates an invariant
    state in their orbit coordinates. The rest of the problem is checked
    here, once: every part lives on one space, ``t_span`` is ordered and
    every rate is nonnegative. The symmetries are checked where the
    generator is built, by ``_reduce``, as in every Lindblad build.
    """

    h_static: Operator
    h_x: Operator
    h_y: Operator
    coupling: Coupling
    channels: tuple[tuple[Operator, float], ...]
    t_span: tuple[float, float]
    initial: QuantumState
    symmetries: tuple[np.ndarray, ...] = ()

    def __post_init__(self):
        channels = tuple((op, rate) for op, rate in self.channels)
        parts = [self.h_x, self.h_y, self.initial] + [op for op, _ in channels]
        if any(p.space.dims != self.h_static.space.dims for p in parts):
            raise ValueError("the problem's parts live on different spaces")
        t0, t1 = float(self.t_span[0]), float(self.t_span[1])
        if not t1 >= t0:
            raise ValueError("t_span must be ordered")
        for _, rate in channels:
            if not rate >= 0:
                raise ValueError(f"channel rates must be nonnegative, got {rate}")
        object.__setattr__(self, "channels", channels)
        object.__setattr__(self, "t_span", (t0, t1))
        object.__setattr__(self, "symmetries",
                           tuple(np.asarray(p) for p in self.symmetries))


@dataclass
class Trajectory:
    """Recorded evolution: strictly increasing times plus states, off
    which ``expect`` reads observables. The states of a constant evolution
    are read-only views of the one stack that was checked."""

    times: np.ndarray
    states: list[QuantumState]

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

    def expect(self, obs: Operator | QuantumState) -> np.ndarray:
        """<obs> at every record for an Operator, read by one
        ``hilbert.expectation`` call over all states; the fidelity with it
        for a target QuantumState."""
        if isinstance(obs, Operator):
            return hilbert.expectation(obs, self.states)
        return np.array([hilbert.state_fidelity(s, obs) for s in self.states])


def _hermitize(rho: np.ndarray) -> np.ndarray:
    return (rho + rho.conj().swapaxes(-1, -2)) / 2


def _checked_states(space: TensorSpace, rhos: np.ndarray
                    ) -> list[QuantumState]:
    """The recorded states of the (K, d, d) stack ``rhos``, checked at once
    by ``QuantumState.densities``; a failed check is an IntegrityError."""
    try:
        return QuantumState.densities(space, rhos)
    except ValueError as exc:
        raise IntegrityError(str(exc)) from exc


def _checked_state(space: TensorSpace, rho: np.ndarray) -> QuantumState:
    """One recorded density: the one-record case of ``_checked_states``."""
    return _checked_states(space, rho[None])[0]


# --- public evolutions ---------------------------------------------------------

def evolve_unitary(problem: EvolutionProblem,
                   record_times: Sequence[float] | None = None) -> Trajectory:
    """Integrate i psi' = H(t) psi (hbar = 1) for a pure initial state;
    a channel with a positive rate, which it cannot apply, is a ValueError."""
    if any(rate > 0 for _, rate in problem.channels):
        raise ValueError("evolve_unitary applies no channel; a positive "
                         "rate needs evolve_lindblad")
    psi0 = problem.initial.vector()
    h0, hx, hy = (op.matrix for op in (problem.h_static, problem.h_x,
                                       problem.h_y))
    coupling = problem.coupling

    def rhs(t, psi):
        ox, oy = coupling(t)
        return -1j * ((h0 + ox * hx + oy * hy) @ psi)

    times, ys = adaptive_rk(rhs, problem.t_span, psi0, rtol=UNITARY_RTOL,
                            record_times=record_times)
    space = problem.initial.space
    states = []
    for y in ys:
        norm = np.linalg.norm(y)
        if abs(norm - 1.0) > NORM_DRIFT_ATOL:
            raise IntegrationError(
                f"norm drift {abs(norm - 1.0):.3e} exceeds {NORM_DRIFT_ATOL}")
        states.append(QuantumState(space, y / norm))
    return Trajectory(times, states)


def evolve_lindblad(problem: EvolutionProblem,
                    record_times: Sequence[float] | None = None,
                    rtol: float = LINDBLAD_RTOL) -> Trajectory:
    """Integrate the Lindblad master equation with a time-dependent coupling.

    Pure initial states are promoted to projectors. Only the vec indices of
    the generator sectors that the initial state occupies are integrated
    (``_sector_rhs``); every other entry of rho is zero and stays exactly
    zero. Where the initial state is invariant under the problem's
    symmetries, one value per orbit of them is integrated. The full d x d
    state is rebuilt only at record times, where ``_checked_state`` checks
    it.
    """
    rho0 = problem.initial.density()
    d = rho0.shape[0]
    n = d * d
    rhs, vec, at = _sector_rhs(problem, rho0)
    # The step control is that of the full d^2 entries. There, the entries
    # outside vec are zero in y and in both error estimates, so they add
    # to the count N = d^2 of the error norm but not to its sums: with
    # sc = atol + rtol |y|, n5 and n3 are sums over vec of |err / sc|^2,
    # and the norm is h n5 / sqrt((n5 + 0.01 n3) N). Scaling atol and
    # rtol by c = sqrt(d^2 / |vec|) scales sc by c, so n5 and n3 fall by
    # c^2 and n5 / sqrt(n5 + 0.01 n3) by c; with N = |vec| = d^2 / c^2,
    # the norm over vec alone is the same number up to rounding.
    # _initial_step takes RMS norms, which scale the same way, so it picks
    # the same first step. Integrating one value per orbit of s entries
    # divides the sums and N by s alike, which leaves the norm unchanged
    # when every orbit has one size s, and approximates it otherwise.
    c = np.sqrt(n / vec.size)
    y0 = np.zeros(int(at.max()) + 1, dtype=complex)
    y0[at] = rho0.reshape(n)[vec]
    times, ys = adaptive_rk(rhs, problem.t_span, y0,
                            rtol=c * rtol, atol=c * DEFAULT_ATOL,
                            record_times=record_times)
    space = problem.initial.space
    states = []
    for y in ys:
        rho = np.zeros(n, dtype=complex)
        rho[vec] = y[at]
        states.append(_checked_state(space, rho.reshape(d, d)))
    return Trajectory(times, states)


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


def _stack(parts: Sequence[tuple[np.ndarray, Sequence]]):
    """(rows, cols, values, part) of the generators S_j of parts[j] =
    (h_j, channels_j), concatenated in order: triplet i belongs to
    S_part[i]. Every generator comes from ``_generator_triplets``."""
    triplets = [_generator_triplets(h, channels) for h, channels in parts]
    rows, cols, vals = (np.concatenate(p) for p in zip(*triplets))
    part = np.repeat(np.arange(len(parts)), [len(r) for r, _, _ in triplets])
    return rows, cols, vals, part


def _invariant(symmetries: Sequence[np.ndarray], rho: np.ndarray) -> list:
    """The basis maps among ``symmetries`` that leave ``rho`` unchanged,
    entry for entry."""
    return [p for p in symmetries if np.array_equal(rho[np.ix_(p, p)], rho)]


def _check_symmetries(parts: Sequence[tuple[np.ndarray, Sequence]],
                      symmetries: Sequence[np.ndarray]) -> None:
    """Raise ValueError unless every map p of ``symmetries`` permutes
    range(d) and maps each part (h, channels) exactly onto itself:
    h[p][:, p] equals h entry for entry, and the images (L[p][:, p], rate)
    are the channel list again as a multiset, matched greedily. That is
    sufficient for S(U rho U^dag) = U S(rho) U^dag, with U the permutation
    matrix of p. A set test would accept a channel listed twice whose
    image is listed once, which breaks S."""
    d = parts[0][0].shape[0]
    for p in symmetries:
        if not np.array_equal(np.sort(p), np.arange(d)):
            raise ValueError("a declared symmetry does not permute the "
                             "basis indices")
        for h, channels in parts:
            unmatched = list(channels)
            for lop, rate in channels:
                image = lop[np.ix_(p, p)]
                hit = next((k for k, (o, g) in enumerate(unmatched)
                            if g == rate and np.array_equal(o, image)), None)
                if hit is None:
                    break
                del unmatched[hit]
            if unmatched or not np.array_equal(h[np.ix_(p, p)], h):
                raise ValueError("a declared symmetry does not leave the "
                                 "generator invariant")


def _occupied(labels: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Sorted vec indices of every sector that holds a nonzero entry of rho
    or of rho^T, for the sector ``labels`` of a generator pattern.

    The test is for exact zeros. A Lindblad generator maps the transpose of
    a sector onto a sector, so taking rho^T too closes the set under
    transposition: rho_ij and rho_ji, which the flow keeps conjugate, are
    propagated together even where a state Hermitian only to rounding has
    an exact zero on one side alone.
    """
    nonzero = (rho != 0) | (rho.T != 0)
    hit = np.zeros(labels.max() + 1, dtype=bool)
    hit[labels[nonzero.reshape(-1)]] = True
    return np.flatnonzero(hit[labels])


def _reduce(parts: Sequence[tuple[np.ndarray, Sequence]],
            symmetries: Sequence[np.ndarray], rho: np.ndarray | None):
    """(vec, at, rows, cols, vals, part, labels): ``_stack(parts)`` on the
    coordinates that the evolution of ``rho`` needs.

    The coordinates are one per orbit of the basis maps, among
    ``symmetries``, that rho is invariant under entry for entry (all of
    them if rho is None), or one per vec index if none is left. Every
    declared map is checked first, here alone: ``_check_symmetries``
    raises ValueError unless it maps each part onto itself. A map p acts
    on vec index i d + j as p[i] d + p[j]; the orbits are the components
    of those edges. S commutes with the maps, so for an invariant x,
    (S x)_r = sum_o (sum_{c in o} S[r, c]) x_o, the same for each r of an
    orbit: triplet (r, c, v) becomes (orbit(r), orbit(c), v / |orbit(r)|),
    and the reduced generator maps the value of each orbit of an
    invariant vector to that of its image.

    The sectors of that pattern are labelled once. The coordinates of the
    sectors that rho occupies (all, if rho is None) are kept: ``vec``
    holds their sorted vec indices, and ``at`` the position of each one's
    coordinate among the kept ones, numbered in coordinate order. The
    triplets with a kept row are returned in their order, with rows and
    columns as such positions; a sector maps into itself, so the column
    is kept too. ``labels`` is the sector of each kept coordinate in that
    one labelling: kept sectors are whole sectors of it, so labelling the
    kept triplets afresh would find the same partition, in the same order.
    """
    _check_symmetries(parts, symmetries)
    rows, cols, vals, part = _stack(parts)
    d = parts[0][0].shape[0]
    n = d * d
    if rho is not None:
        symmetries = _invariant(symmetries, rho)
    orbit = np.arange(n)
    if symmetries:
        images = [(p[:, None] * d + p).reshape(-1) for p in symmetries]
        orbit = sector_labels(np.tile(orbit, len(symmetries)),
                              np.concatenate(images), n)
        size = np.bincount(orbit)
        rows, cols, vals = orbit[rows], orbit[cols], vals / size[orbit[rows]]
    n_coords = int(orbit.max()) + 1
    labels = sector_labels(rows, cols, n_coords)
    vec = np.arange(n) if rho is None else _occupied(labels[orbit], rho)
    hit = np.zeros(n_coords, dtype=bool)
    hit[orbit[vec]] = True
    kept = np.flatnonzero(hit)
    pos = np.full(n_coords, -1, dtype=np.intp)
    pos[kept] = np.arange(kept.size)
    sel = pos[rows] >= 0
    return (vec, pos[orbit[vec]], pos[rows[sel]], pos[cols[sel]], vals[sel],
            part[sel], labels[kept])


def _sector_rhs(problem: EvolutionProblem, rho: np.ndarray):
    """(f, vec, at): the problem's master equation for adaptive_rk, on the
    coordinates x with vec(rho)[vec] = x[at].

    In row-major vec form rho' = sum_j w_j(t) G_j rho over the generator
    blocks G = [S(h_static, channels); S(h_x); S(h_y)], with weights
    w = [1, Omega_x(t), Omega_y(t)]; a zero h_x or h_y adds no triplets.
    The blocks are reduced by ``_reduce``, the step that the segment
    propagators and ``steady_state`` take, to one coordinate per orbit of
    the problem's symmetries that ``rho`` is invariant under (per vec
    index if none), and to the sectors that ``rho`` occupies under the
    union pattern of all blocks, so every block maps them into themselves
    and the entries outside stay exactly zero. The kept triplets are
    stacked, in their original order, into one CSR matrix, so a call is
    one sparse matvec and one weighted sum of its blocks. Unreduced, each
    entry of the matvec is bit-identical to that of the full-space one.
    """
    import scipy.sparse

    channels = [(op.matrix, float(rate)) for op, rate in problem.channels]
    vec, at, rows, cols, vals, part, labels = _reduce(
        [(problem.h_static.matrix, channels), (problem.h_x.matrix, ()),
         (problem.h_y.matrix, ())], problem.symmetries, rho)
    m = labels.size
    stack = scipy.sparse.csr_matrix(
        (vals, (rows + part * m, cols)), shape=(3 * m, m))
    weights = np.ones(3, dtype=complex)
    coupling = problem.coupling

    def rhs(t, x):
        weights[1:3] = coupling(t)
        return weights @ (stack @ x).reshape(3, m)

    return rhs, vec, at


@dataclass(frozen=True)
class SegmentPropagator:
    """exp(S dt) of a block-diagonal generator, stored block by block.

    The blocks are packed into zero-padded slots of m indices, and
    ``exps[..., k, :, :]`` is the (block-diagonal) exponential of slot k;
    leading axes, if any, hold a batch of generators over the same slots.
    The propagator covers the row-major vec indices ``vec`` (all of them,
    unless it was built for the sectors of one state); ``vec[j]`` sits at
    ``index[j]`` of the flattened slots, i.e. in slot ``index[j] // m``.
    Built on orbit coordinates, the members of an orbit share one
    position, and the propagator applies to invariant densities only.
    """

    vec: np.ndarray     # (n_covered,)
    index: np.ndarray   # (n_covered,)
    exps: np.ndarray    # (..., n_slots, m, m)


def _pack(labels: np.ndarray):
    """(index, n_slots, m): the position of each coordinate, by its sector
    ``labels``, in the flattened (n_slots, m, m) stack of its blocks.

    The blocks are packed, largest first and then by label, into slots the
    size m of the largest, and a slot takes the next block while it fits.
    That keeps the padding below 2x the coordinates and cuts expm's
    per-slice Python overhead, which dominates at d = 6. A label that no
    coordinate carries is an empty block, which sorts last and takes no
    room, so labels with gaps pack as their consecutive renumbering would.
    """
    sizes = np.bincount(labels)
    m = int(sizes.max())
    slot_of_block = np.empty(sizes.size, dtype=np.intp)
    k = fill = 0
    for b in np.argsort(-sizes, kind="stable").tolist():
        if fill + sizes[b] > m:
            k, fill = k + 1, 0
        slot_of_block[b] = k
        fill += sizes[b]
    slot = slot_of_block[labels]
    fills = np.bincount(slot)
    order = np.argsort(slot, kind="stable")
    n = labels.size
    pos = np.empty(n, dtype=np.intp)
    pos[order] = np.arange(n) - np.repeat(np.cumsum(fills) - fills, fills)
    return slot * m + pos, fills.size, m


def _propagators(parts: Sequence[tuple[np.ndarray, Sequence]],
                 rho: np.ndarray | None,
                 symmetries: Sequence[np.ndarray]):
    """build(c): exp(sum_j c[k, j] S_j) for every row k of a (K, J) array
    c, over the generators S_j of ``parts``, as one SegmentPropagator.

    The kept coordinates and triplets (``_reduce``: orbit coordinates,
    and the sectors that ``rho`` occupies, all if rho is None) and the
    packing of their blocks (``_pack``, on the sector labels of that one
    labelling) are fixed here, once. A build makes one
    ``scipy.linalg.expm`` call on the (K * n_slots, m, m) stack of the K
    generators, which takes each slot on its own."""
    import scipy.linalg

    vec, at, rows, cols, vals, part, labels = _reduce(parts, symmetries, rho)
    index, n_slots, m = _pack(labels)
    flat = index[rows] * m + index[cols] % m
    size = n_slots * m * m

    def build(coeffs: np.ndarray) -> SegmentPropagator:
        k = len(coeffs)
        where = (flat + size * np.arange(k)[:, None]).reshape(-1)
        stacked, scale = np.tile(vals, k), coeffs[:, part].reshape(-1)
        gen = (np.bincount(where, stacked.real * scale, k * size)
               + 1j * np.bincount(where, stacked.imag * scale, k * size))
        exps = scipy.linalg.expm(gen.reshape(k * n_slots, m, m))
        return SegmentPropagator(vec, index[at],
                                 exps.reshape(k, n_slots, m, m))

    return build


def segment_propagator(h: np.ndarray,
                       channels: Sequence[tuple[np.ndarray, float]],
                       dt: float,
                       rho: np.ndarray | None = None,
                       symmetries: Sequence[np.ndarray] = ()
                       ) -> SegmentPropagator:
    """exp(S dt) for a time-independent Lindblad segment, exact by blocks.

    The generator S couples vec indices only within the weakly connected
    components of its nonzero pattern, so it is block diagonal up to a
    permutation and exp(S dt) is block diagonal in the same partition.
    Sideband couplings and single-site jumps conserve an excitation
    difference, so the blocks are small: the VSLQ fixed-point generator has
    8 blocks of 160-164 vec indices and the VSLQ reset generator 72 of at
    most 52, against 1296 in all. Given a density ``rho``, only the blocks
    of the sectors that rho occupies are kept: the VSLQ fixed point from
    |+X_L> needs 2 of its 8. The kept blocks are packed, largest first,
    into slots the size m of the largest (a slot takes the next block
    while it fits).

    ``symmetries`` are basis maps that h and the channels must be
    invariant under, as ``_reduce`` checks (ValueError otherwise). Those
    that ``rho`` is invariant under (all, if
    rho is None) reduce S to one coordinate per orbit before the blocks
    are found, and the result then applies to invariant densities only.
    Under the VSLQ mirror, the 324 vec indices that |+X_L> occupies fall
    into 171 orbits, in blocks of 91 and 80, and the reset generator's
    1296 into 666, in blocks of at most 40.

    This is the one-part, one-row case ``[[dt]]`` of ``_propagators``. No
    entry of a kept block is dropped, so the result is exp(S dt) on the
    covered indices to the accuracy of expm itself. Each call labels the
    sectors once (and the orbits once, when a symmetry applies) and
    packs the kept blocks from those labels; nothing is cached between
    calls.
    """
    prop = _propagators([(h, channels)], rho, symmetries)(
        np.array([[float(dt)]]))
    return SegmentPropagator(prop.vec, prop.index, prop.exps[0])


def apply_propagator(prop: SegmentPropagator, rho: np.ndarray) -> np.ndarray:
    """exp(S dt) vec(rho): gather the covered indices into the slots,
    multiply, scatter back; one (..., d, d) result per generator of a
    batched propagator.

    Raises ValueError if rho has a nonzero entry outside the covered
    indices, so no weight is dropped, or if two covered indices that share
    a position (an orbit of a reduced propagator) differ. Each orbit's
    value is scattered to every member, and the result is hermitized
    exactly, which keeps it invariant.
    """
    d = rho.shape[0]
    flat = rho.reshape(-1)
    covered = flat[prop.vec]
    if np.count_nonzero(covered) != np.count_nonzero(flat):
        raise ValueError("rho has weight outside the propagator's blocks")
    *batch, n_slots, m, _ = prop.exps.shape
    x = np.zeros(n_slots * m, dtype=complex)
    x[prop.index] = covered
    if not np.array_equal(x[prop.index], covered):
        raise ValueError("rho is not invariant under the propagator's "
                         "symmetries")
    y = np.matmul(prop.exps, x.reshape(n_slots, m, 1)).reshape(*batch, -1)
    out = np.zeros((*batch, d * d), dtype=complex)
    out[..., prop.vec] = y[..., prop.index]
    return _hermitize(out.reshape(*batch, d, d))


def constant_lindblad_batch(parts: Sequence[tuple[Operator, Sequence]],
                            initial: QuantumState, t: float
                            ) -> Callable[[np.ndarray], np.ndarray]:
    """exp(S(c) t) rho0 for batches of coefficient rows c, where
    S(c) = sum_j c_j S_j and S_j is the generator of parts[j] = (h_j,
    channels_j).

    The triplets of every S_j and their layout are built once, here. The
    returned function maps a (K, J) array of rows to the K final densities
    (K, d, d), exact like ``evolve_constant_lindblad`` over [0, t]: one
    stack of the K generators on the slots that rho0 occupies, one
    ``scipy.linalg.expm`` call, one batched ``apply_propagator``. Every
    density passes ``hilbert.check_densities`` or raises IntegrityError.
    """
    rho0 = initial.density()
    build = _propagators([(h.matrix, [(op.matrix, float(rate))
                                      for op, rate in channels])
                          for h, channels in parts], rho0, ())

    def final(coeffs: np.ndarray) -> np.ndarray:
        rhos = apply_propagator(build(np.asarray(coeffs, dtype=float) * t),
                                rho0)
        try:
            check_densities(rhos)
        except ValueError as exc:
            raise IntegrityError(str(exc)) from exc
        return rhos

    return final


def evolve_constant_lindblad(h: Operator,
                             channels: Sequence[tuple[Operator, float]],
                             initial: QuantumState,
                             times: Sequence[float],
                             symmetries: Sequence[np.ndarray] = ()
                             ) -> Trajectory:
    """Exact expm-stepped evolution for constant H and rates.

    ``times`` must be increasing and start at the initial time (offset 0);
    propagators are cached per distinct step, so uniform grids cost one
    matrix exponential regardless of length. Each propagator keeps only
    the blocks that the initial state occupies, on one coordinate per
    orbit of the ``symmetries`` (basis maps) it is invariant under. That
    is exact: one constant generator keeps the propagated chain inside
    those blocks, and invariant. ``_reduce`` checks the symmetries.

    The K records are written into one (K, d, d) stack, each by its own
    ``apply_propagator`` step, and checked by one ``check_densities``
    call on the whole stack (``QuantumState.densities``, block by block
    when K > d >= ``hilbert.SPLIT_MIN_DIM``); the states are read-only
    views of it.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 1:
        raise ValueError("need at least one time")
    if times[0] != 0.0 or np.any(np.diff(times) <= 0):
        raise ValueError("times must start at 0 and increase strictly")
    mats = [(op.matrix, float(rate)) for op, rate in channels]
    rho = rho0 = initial.density()
    steps = np.diff(times)
    keys = [round(float(dt), 12) for dt in steps]
    # every distinct step's propagator is built before the stack is
    # allocated, so that their scratch and the stack are not held at once
    props: dict[float, SegmentPropagator] = {}
    for key, dt in zip(keys, steps):
        if key not in props:
            props[key] = segment_propagator(h.matrix, mats, float(dt), rho0,
                                            symmetries)
    rhos = np.empty((times.size, *rho0.shape), dtype=complex)
    # a pure state's outer product is Hermitian only to rounding
    rhos[0] = _hermitize(rho0)
    for i, key in enumerate(keys, 1):
        rho = rhos[i] = apply_propagator(props[key], rho)
    return Trajectory(times, _checked_states(initial.space, rhos))


def steady_state(h: Operator,
                 channels: Sequence[tuple[Operator, float]]) -> QuantumState:
    """Null vector of the Lindblad generator, normalized to unit trace.

    Solved over the sectors that hold the identity's diagonal: the
    (|S| + 1) x |S| least-squares system of the generator's triplets on
    those indices plus the trace row. It equals the full (d^2 + 1) x d^2
    system, whose min-norm solution is zero on every other sector.
    """
    mats = [(op.matrix, float(rate)) for op, rate in channels]
    d = h.matrix.shape[0]
    n = d * d
    eye = np.eye(d, dtype=complex)
    keep, _, rows, cols, vals, _, _ = _reduce([(h.matrix, mats)], (), eye)
    a = np.zeros((keep.size + 1, keep.size), dtype=complex)
    np.add.at(a, (rows, cols), vals)
    a[-1] = eye.reshape(n)[keep]
    b = np.zeros(keep.size + 1, dtype=complex)
    b[-1] = 1.0
    x, *_ = np.linalg.lstsq(a, b, rcond=None)
    # one refinement step: at the fig3 constant-coupling optima the system's
    # condition number is 1e4-1e5, and the first solve is off by up to
    # 2e-10 relative in the residual 1 - F, the refined one by 1e-14
    x += np.linalg.lstsq(a, b - a @ x, rcond=None)[0]
    rho = np.zeros(n, dtype=complex)
    rho[keep] = x
    return _checked_state(h.space, _hermitize(rho.reshape(d, d)))


# --- pulse-reset cycles ----------------------------------------------------------

def evolve_cycles(terms: ModelTerms,
                  pulse: PulseShape,
                  schedule: CycleSchedule,
                  initial: QuantumState,
                  rtol: float = LINDBLAD_RTOL) -> Trajectory:
    """Alternate pulse and reset phases of the schedule under Lindblad flow.

    A pulse phase lasts ``pulse.t_p`` with the lossy channels at the first
    primary's rate, a reset phase ``schedule.t_r`` with them at
    ``schedule.reset_rate``. Each pulse phase is integrated separately,
    from the state recorded at the end of the previous phase, so the
    piecewise-constant rates are never straddled by a step; states are
    recorded at every phase boundary. Reset phases all share one exact
    propagator of every block. Both phases run on one coordinate per orbit
    of the terms' symmetries that the initial state is invariant under;
    each phase keeps the state exactly invariant.
    """
    space = terms.space
    # a pure state's outer product is Hermitian only to rounding
    states = [_checked_state(space, _hermitize(initial.density()))]
    times = [0.0]
    primary_rate = next(c.rate for c in terms.channels if not c.lossy)
    pulse_channels = phase_channels(terms, primary_rate)
    symmetries = terms.basis_symmetries
    reset_prop = None
    if schedule.t_r > 0 and schedule.n_cycles > 0:
        reset_prop = segment_propagator(
            terms.h_static.matrix,
            [(op.matrix, rate)
             for op, rate in phase_channels(terms, schedule.reset_rate)],
            schedule.t_r,
            symmetries=_invariant(symmetries, states[0].density()))

    # the integrator samples t only inside [0, t_p], the window that
    # pulse.evaluate checks; the sine modes are formed once here, and each
    # call takes their sines in place
    modes = np.arange(1, pulse.n_modes + 1) * (np.pi / pulse.t_p)
    coeffs = np.array([pulse.cx, pulse.cy])
    sines = np.empty(pulse.n_modes)

    def coupling(t):
        return np.dot(coeffs, np.sin(np.multiply(modes, t, out=sines),
                                     out=sines))

    t_abs = 0.0
    for _ in range(schedule.n_cycles):
        prob = EvolutionProblem(
            h_static=terms.h_static, h_x=terms.h_x, h_y=terms.h_y,
            coupling=coupling,
            channels=pulse_channels,
            t_span=(0.0, pulse.t_p), initial=states[-1],
            symmetries=symmetries)
        final = evolve_lindblad(prob, rtol=rtol).final
        t_abs += pulse.t_p
        times.append(t_abs)
        states.append(final)
        if reset_prop is not None:
            rho = apply_propagator(reset_prop, final.density())
            t_abs += schedule.t_r
            times.append(t_abs)
            states.append(_checked_state(space, rho))
    return Trajectory(np.array(times), states)


# --- exports ---------------------------------------------------------------------

def trajectory_to_csv(traj: Trajectory, values: Mapping[str, np.ndarray],
                      path) -> None:
    """time_ns plus one column per named series of ``values`` (one value
    per record, as ``Trajectory.expect`` gives), in name order, at 12
    significant digits."""
    names = sorted(values)
    with open(path, "w") as f:
        f.write(",".join(["time_ns"] + names) + "\n")
        for i, t in enumerate(traj.times):
            row = [f"{t:.12g}"] + [f"{values[n][i]:.12g}" for n in names]
            f.write(",".join(row) + "\n")


def dump_states(traj: Trajectory, path) -> None:
    """Full-state JSON dump (debugging aid, not a compact format).

    Each record is encoded by its own ``json.dumps``, whose C encoder
    gives the bytes of ``json.dump``'s pure-Python stream in about half
    the time; one call per record holds the encoder's pieces of one
    record at a time, not of the whole list."""
    records = (json.dumps({"time_ns": float(t),
                           "pure": bool(s.is_pure),
                           "re": np.real(s.data).tolist(),
                           "im": np.imag(s.data).tolist()})
               for t, s in zip(traj.times, traj.states))
    with open(path, "w") as f:
        f.write("[" + ", ".join(records) + "]\n")
