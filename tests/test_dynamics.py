import dataclasses
import functools
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.csgraph

from aqec import dynamics as dy
from aqec import hilbert as hi
from aqec import models as mo
from aqec import optimize as op
from aqec.presets import VSLQ_FIXED_TABLE, preset_config
from aqec.pulse import (CycleSchedule, PulseShape, evaluate, load_pulse,
                        seed_pulse)
from test_config_fields import _perfbench_workloads

ROOT = Path(__file__).resolve().parents[1]
TWO_PI = 2 * np.pi


# trace 1 and Hermitian, with an eigenvalue of -1e-8
DIPPED = np.diag([1.0 + 1e-8, -1e-8]).astype(complex)


def static_problem(h0, channels, t_span, initial):
    """A problem under h0 alone: zero quadratures, held at zero amplitude."""
    zero = hi.Operator(h0.space, np.zeros(h0.matrix.shape))
    return dy.EvolutionProblem(h0, zero, zero, lambda t: (0.0, 0.0), channels,
                               t_span, initial)


def two_level_decay_problem(gamma, t_end):
    sp = hi.TensorSpace((2,))
    h0 = hi.Operator(sp, np.zeros((2, 2)))
    a = hi.Operator(sp, hi.ladder(2))
    return static_problem(h0, ((a, gamma),), (0.0, t_end),
                          hi.basis_state(sp, (1,)))


@pytest.fixture
def sq_terms():
    model = mo.SingleQubitModel(delta=TWO_PI * 0.35, gamma_q=0.0, gamma_r=0.0)
    return model, mo.build_single_qubit(model)


class TestUnitary:
    def test_zero_hamiltonian_is_identity(self):
        sp = hi.TensorSpace((3, 2))
        h0 = hi.Operator(sp, np.zeros((6, 6)))
        psi = hi.normalized_state(sp, np.arange(1.0, 7.0) + 0.5j)
        prob = static_problem(h0, (), (0.0, 1000.0), psi)
        traj = dy.evolve_unitary(prob)
        assert np.allclose(traj.final.vector(), psi.vector(), atol=1e-9)

    def test_positive_rate_channel_rejected(self, sq_terms):
        # a closed evolution would keep |1_q 0_r> at population 1 under
        # loss at 1/ns; rate-0 channels are accepted
        _, terms = sq_terms
        initial = hi.basis_state(terms.space, (1, 0))
        lossless = [(c.op, 0.0) for c in terms.channels]
        traj = dy.evolve_unitary(static_problem(terms.h_static, lossless,
                                                (0.0, 40.0), initial))
        assert hi.state_fidelity(traj.final, initial) == pytest.approx(1.0)
        lossy = [(c.op, 1.0) for c in terms.channels]
        with pytest.raises(ValueError, match="evolve_lindblad"):
            dy.evolve_unitary(static_problem(terms.h_static, lossy,
                                             (0.0, 40.0), initial))

    def test_rabi_pi_pulse_transfer(self, sq_terms):
        # constant coupling with the nonlinearity term absent: full
        # population transfer |00> -> |11> at t = pi / (2 Omega)
        _, terms = sq_terms
        sp = terms.space
        omega = 0.05
        h0 = hi.Operator(sp, np.zeros((6, 6)))
        prob = dy.EvolutionProblem(
            h0, terms.h_x, terms.h_y, lambda t: (omega, 0.0), (),
            (0.0, np.pi / (2 * omega)), hi.basis_state(sp, (0, 0)))
        traj = dy.evolve_unitary(prob)
        p11 = abs(traj.final.vector()[sp.index_of((1, 1))]) ** 2
        assert p11 == pytest.approx(1.0, abs=1e-8)

    def test_norm_preserved(self, sq_terms):
        model, terms = sq_terms
        pulse = seed_pulse(8, 40.0, TWO_PI * 0.02)
        prob = dy.EvolutionProblem(
            terms.h_static, terms.h_x, terms.h_y,
            lambda t: evaluate(pulse, t), (), (0.0, 40.0),
            hi.basis_state(terms.space, (0, 0)))
        traj = dy.evolve_unitary(prob)
        assert abs(np.linalg.norm(traj.final.vector()) - 1.0) < 1e-8

    def test_leakage_bound_against_expm_oracle(self, sq_terms):
        # constant Omega << delta from |1q 0r>: leakage stays second order,
        # and the trajectory matches dense matrix-exponential stepping
        model, terms = sq_terms
        sp = terms.space
        omega = TWO_PI * 0.002
        h = terms.h_static.matrix + omega * terms.h_x.matrix
        psi0 = hi.basis_vector(sp, (1, 0))
        ts = np.linspace(0.0, 40.0, 81)
        # oracle: exact propagator on a fine fixed grid
        step = scipy.linalg.expm(-1j * h * (ts[1] - ts[0]))
        psi = psi0.copy()
        oracle = [psi0]
        for _ in range(80):
            psi = step @ psi
            oracle.append(psi)
        prob = dy.EvolutionProblem(
            terms.h_static, terms.h_x, terms.h_y, lambda t: (omega, 0.0), (),
            (0.0, 40.0), hi.basis_state(sp, (1, 0)))
        traj = dy.evolve_unitary(prob, record_times=ts)
        i_leak = sp.index_of((2, 1))
        bound = 4.0 * (np.sqrt(2) * omega / model.delta) ** 2
        for k in range(81):
            assert np.allclose(traj.states[k].vector(), oracle[k], atol=1e-7)
            assert abs(traj.states[k].vector()[i_leak]) ** 2 < bound

    def test_norm_gate_checks_every_record_time(self, monkeypatch):
        # a drifted middle record must raise, not be renormalized away
        real = dy.adaptive_rk

        def drifted(*args, **kwargs):
            times, ys = real(*args, **kwargs)
            ys[1] = ys[1] * (1.0 + 1e-6)
            return times, ys

        monkeypatch.setattr(dy, "adaptive_rk", drifted)
        sp = hi.TensorSpace((2,))
        h0 = hi.Operator(sp, np.array([[0.0, 0.1], [0.1, 0.0]]))
        prob = static_problem(h0, (), (0.0, 10.0), hi.basis_state(sp, (0,)))
        with pytest.raises(dy.IntegrationError, match="norm drift"):
            dy.evolve_unitary(prob, record_times=[0.0, 5.0, 10.0])

    def test_record_times(self):
        sp = hi.TensorSpace((2,))
        h0 = hi.Operator(sp, np.array([[0.0, 0.1], [0.1, 0.0]]))
        prob = static_problem(h0, (), (0.0, 10.0), hi.basis_state(sp, (0,)))
        traj = dy.evolve_unitary(prob, record_times=[0.0, 2.5, 5.0, 10.0])
        assert np.allclose(traj.times, [0.0, 2.5, 5.0, 10.0])


class TestLindblad:
    def test_analytic_decay(self):
        gamma = 0.01
        traj = dy.evolve_lindblad(two_level_decay_problem(gamma, 100.0))
        pe = traj.final.density()[1, 1].real
        assert pe == pytest.approx(np.exp(-1.0), rel=1e-6)

    def test_no_channels_constant(self):
        sp = hi.TensorSpace((2, 2))
        h0 = hi.Operator(sp, np.zeros((4, 4)))
        rho0 = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
        prob = static_problem(h0, (), (0.0, 500.0), hi.QuantumState(sp, rho0))
        traj = dy.evolve_lindblad(prob)
        assert np.allclose(traj.final.density(), rho0, atol=1e-9)

    def test_bit_flip_channel_dephases_sigma_z(self):
        # <sigma_z>(t) = exp(-2 Gamma t) under a sigma_x channel
        sp = hi.TensorSpace((2,))
        h0 = hi.Operator(sp, np.zeros((2, 2)))
        sx = hi.Operator(sp, hi.SIGMA_X)
        sz = hi.Operator(sp, hi.SIGMA_Z)
        gamma = 0.002
        prob = static_problem(h0, ((sx, gamma),), (0.0, 400.0),
                              hi.basis_state(sp, (0,)))
        traj = dy.evolve_lindblad(prob)
        assert traj.expect(sz)[-1] == pytest.approx(
            np.exp(-2 * gamma * 400.0), rel=1e-6)

    def test_trace_and_hermiticity_preserved(self, sq_terms):
        model, terms = sq_terms
        pulse = seed_pulse(8, 40.0, TWO_PI * 0.02)
        channels = tuple((c.op, 1e-4) for c in terms.channels)
        prob = dy.EvolutionProblem(
            terms.h_static, terms.h_x, terms.h_y,
            lambda t: evaluate(pulse, t), channels, (0.0, 40.0),
            hi.basis_state(terms.space, (1, 0)))
        traj = dy.evolve_lindblad(prob, record_times=np.linspace(0, 40, 9))
        for s in traj.states:
            rho = s.density()
            assert abs(np.trace(rho).real - 1.0) < 1e-8
            assert np.max(np.abs(rho - rho.conj().T)) < 1e-10
            assert np.min(np.linalg.eigvalsh(rho)) > -1e-7

    def test_zero_rates_match_unitary(self, sq_terms):
        model, terms = sq_terms
        pulse = seed_pulse(8, 40.0, TWO_PI * 0.02)
        channels = tuple((c.op, 0.0) for c in terms.channels)
        initial = hi.basis_state(terms.space, (0, 0))
        prob_l = dy.EvolutionProblem(
            terms.h_static, terms.h_x, terms.h_y,
            lambda t: evaluate(pulse, t), channels, (0.0, 40.0), initial)
        prob_u = dy.EvolutionProblem(
            terms.h_static, terms.h_x, terms.h_y,
            lambda t: evaluate(pulse, t), (), (0.0, 40.0), initial)
        rho_l = dy.evolve_lindblad(prob_l).final.density()
        psi = dy.evolve_unitary(prob_u).final.vector()
        assert np.max(np.abs(rho_l - np.outer(psi, psi.conj()))) < 1e-7

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            two_level_decay_problem(-0.01, 10.0)

    # 1e-9 is inside the old 1e-8 loop but outside QuantumState's
    # TRACE_ATOL, where it used to surface as a ValueError
    @pytest.mark.parametrize("drift", [1e-6, 1e-9])
    def test_trace_gate_checks_every_record_time(self, monkeypatch, drift):
        # a drifted middle record must raise, not only a drifted last one
        real = dy.adaptive_rk

        def drifted(*args, **kwargs):
            times, ys = real(*args, **kwargs)
            ys[1] = ys[1] * (1.0 + drift)
            return times, ys

        monkeypatch.setattr(dy, "adaptive_rk", drifted)
        with pytest.raises(dy.IntegrityError, match="trace drift"):
            dy.evolve_lindblad(two_level_decay_problem(0.01, 100.0),
                               record_times=[0.0, 50.0, 100.0])

    @pytest.mark.parametrize("drift", [1e-6, 1e-9])
    def test_trace_gate_on_propagated_states(self, monkeypatch, drift):
        # the exact-propagator path passes the same gate
        real = dy.apply_propagator
        monkeypatch.setattr(dy, "apply_propagator",
                            lambda prop, rho: real(prop, rho) * (1.0 + drift))
        sp = hi.TensorSpace((2,))
        a = hi.Operator(sp, hi.ladder(2))
        h0 = hi.Operator(sp, np.zeros((2, 2)))
        with pytest.raises(dy.IntegrityError, match="trace drift"):
            dy.evolve_constant_lindblad(h0, ((a, 0.01),),
                                        hi.basis_state(sp, (1,)),
                                        [0.0, 50.0, 100.0])

    # the decay from |1> occupies only the populations, vec(rho)[[0, 3]];
    # -1e-8 lies below EIG_FLOOR, and the gate raises instead of clipping
    def test_negative_eigenvalue_raises_on_integrated_records(self,
                                                               monkeypatch):
        real = dy.adaptive_rk

        def dipped(*args, **kwargs):
            times, ys = real(*args, **kwargs)
            ys[-1] = DIPPED.reshape(-1)[[0, 3]]
            return times, ys

        monkeypatch.setattr(dy, "adaptive_rk", dipped)
        with pytest.raises(dy.IntegrityError, match="eigenvalue below"):
            dy.evolve_lindblad(two_level_decay_problem(0.01, 100.0))

    def test_negative_eigenvalue_raises_on_propagated_states(self,
                                                             monkeypatch):
        monkeypatch.setattr(dy, "apply_propagator",
                            lambda prop, rho: DIPPED.copy())
        sp = hi.TensorSpace((2,))
        a = hi.Operator(sp, hi.ladder(2))
        h0 = hi.Operator(sp, np.zeros((2, 2)))
        with pytest.raises(dy.IntegrityError, match="eigenvalue below"):
            dy.evolve_constant_lindblad(h0, ((a, 0.01),),
                                        hi.basis_state(sp, (1,)),
                                        [0.0, 50.0, 100.0])

    def test_each_sample_is_diagonalized_once(self, monkeypatch):
        # work counter in densities: each of the k + 1 records reaches
        # eigvalsh once, whole or as blocks whose rows partition its d = 16
        # rows, so the rows handed to eigvalsh sum to (k + 1) d. Two
        # records are checked whole (K <= d), twenty as 1 x 1 blocks.
        rows = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: rows.append(
            a.size // a.shape[-1]) or eigvalsh(a))
        sp = hi.TensorSpace((2,) * 4)
        a = hi.embed(hi.ladder(2), 0, sp)
        h0 = hi.Operator(sp, np.zeros((16, 16)))
        for n_records in (2, 20):
            rows.clear()
            dy.evolve_constant_lindblad(h0, ((a, 0.01),),
                                        hi.basis_state(sp, (1, 0, 1, 0)),
                                        10.0 * np.arange(n_records))
            assert sum(rows) == n_records * 16


class TestConstantPropagator:
    def test_matches_adaptive_rk(self, sq_terms):
        model, terms = sq_terms
        omega = TWO_PI * 0.002
        h = terms.h_static + omega * terms.h_x
        channels = tuple((c.op, 2e-4) for c in terms.channels)
        initial = hi.basis_state(terms.space, (1, 0))
        traj_e = dy.evolve_constant_lindblad(h, channels, initial,
                                             [0.0, 250.0, 500.0])
        prob = static_problem(h, channels, (0.0, 500.0), initial)
        traj_rk = dy.evolve_lindblad(prob, record_times=[0.0, 250.0, 500.0])
        for a, b in zip(traj_e.states, traj_rk.states):
            assert np.max(np.abs(a.density() - b.density())) < 1e-7

    def test_steady_state_is_stationary(self, sq_terms):
        model, terms = sq_terms
        omega = TWO_PI * 0.002
        h = terms.h_static + omega * terms.h_x
        channels = ((terms.channels[0].op, 2e-4), (terms.channels[1].op, 0.02))
        rho_ss = dy.steady_state(h, channels)
        s = lindblad_superoperator(
            h.matrix, [(op.matrix, r) for op, r in channels])
        drift = s @ rho_ss.density().reshape(-1)
        assert np.max(np.abs(drift)) < 1e-10

    def test_propagator_cache_for_uniform_grid(self):
        sp = hi.TensorSpace((2,))
        a = hi.Operator(sp, hi.ladder(2))
        h0 = hi.Operator(sp, np.zeros((2, 2)))
        times = np.linspace(0.0, 300.0, 31)
        traj = dy.evolve_constant_lindblad(h0, ((a, 0.01),),
                                           hi.basis_state(sp, (1,)), times)
        pe = np.array([s.density()[1, 1].real for s in traj.states])
        assert np.allclose(pe, np.exp(-0.01 * times), atol=1e-9)


class TestStackedRecords:
    """evolve_constant_lindblad writes its records into one stack, checked
    once, with every record the per-step propagator chain's."""

    @staticmethod
    def _decay(times):
        sp = hi.TensorSpace((2, 2))
        a = hi.Operator(sp, np.kron(hi.ladder(2), np.eye(2)))
        h = hi.Operator(sp, 0.01 * np.kron(hi.SIGMA_X, hi.SIGMA_X))
        initial = hi.normalized_state(sp, np.array([0.0, 1.0, 1.0, 0.5]))
        return (h, ((a, 0.01),), initial,
                dy.evolve_constant_lindblad(h, ((a, 0.01),), initial, times))

    def test_single_time_gives_one_record(self):
        _, _, initial, traj = self._decay([0.0])
        assert traj.times.tolist() == [0.0] and len(traj.states) == 1
        assert np.array_equal(traj.final.density(),
                              dy._hermitize(initial.density()))

    def test_non_uniform_grid_two_propagators_one_stack(self, monkeypatch):
        built, checked = [], []
        seg, check = dy.segment_propagator, hi.check_densities
        monkeypatch.setattr(dy, "segment_propagator",
                            lambda *a, **k: built.append(a[2]) or seg(*a, **k))
        monkeypatch.setattr(hi, "check_densities",
                            lambda r: checked.append(len(r)) or check(r))
        *_, traj = self._decay([0.0, 10.0, 30.0, 40.0, 60.0])
        assert sorted(built) == [10.0, 20.0]
        assert checked == [5]
        base = traj.states[0].data.base
        assert all(s.data.base is base for s in traj.states)

    def test_states_are_read_only(self):
        *_, traj = self._decay([0.0, 10.0, 20.0])
        for s in traj.states:
            with pytest.raises(ValueError, match="read-only"):
                s.data[0, 0] = 1.0

    def test_records_equal_the_propagator_chain(self):
        times = [0.0, 10.0, 30.0, 40.0, 60.0]
        h, channels, initial, traj = self._decay(times)
        mats = [(op.matrix, rate) for op, rate in channels]
        rho0 = rho = initial.density()
        assert np.array_equal(traj.states[0].data, dy._hermitize(rho0))
        for dt, state in zip(np.diff(times), traj.states[1:]):
            rho = dy.apply_propagator(
                dy.segment_propagator(h.matrix, mats, dt, rho0), rho)
            assert np.array_equal(state.data, rho)


def lindblad_superoperator(h, channels):
    """Row-major-vec generator: vec(rho') = S vec(rho) for constant H, rates."""
    n = h.shape[0] ** 2
    rows, cols, vals = dy._generator_triplets(h, channels)
    s = np.zeros((n, n), dtype=complex)
    np.add.at(s, (rows, cols), vals)
    return s


def _random_density(d, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def _sq_constant(omega=TWO_PI * 0.004, gamma_r=0.03):
    # single-qubit constant coupling over the 5 us settling window
    terms = mo.build_single_qubit(mo.SingleQubitModel(
        delta=TWO_PI * 0.35, gamma_q=1 / 5000, gamma_r=gamma_r))
    h = terms.h_static + omega * terms.h_x
    return h.matrix, [(c.op.matrix, c.rate) for c in terms.channels], 5000.0


def _vslq_model():
    omega, gamma_s, omega_s = VSLQ_FIXED_TABLE[5][:3]
    model = mo.VslqModel(
        w=TWO_PI * 0.035, delta=TWO_PI * 0.35, gamma_p=1 / 5000,
        gamma_s=gamma_s * 1e-3, omega_s=TWO_PI * omega_s * 1e-3)
    return model, TWO_PI * omega * 1e-3


def _vslq_terms():
    model, omega = _vslq_model()
    return mo.build_vslq(model), omega


def _vslq_fixed_point():
    # Table 1 working point at T1 = 5 us, one 500 ns sample step
    terms, omega = _vslq_terms()
    h = terms.h_static + omega * terms.h_x
    return h.matrix, [(c.op.matrix, c.rate) for c in terms.channels], 500.0


def _vslq_reset():
    terms, _ = _vslq_terms()
    return (terms.h_static.matrix,
            [(op.matrix, rate) for op, rate in mo.phase_channels(terms, 0.035)],
            60.0)


# the omega = 0 and gamma_r = 0 cases share d with sq-constant but not its
# generator pattern, so a block layout reused across patterns would show
SEGMENTS = {"sq-constant": _sq_constant,
            "sq-constant-omega0": lambda: _sq_constant(omega=0.0),
            "sq-constant-gamma_r0": lambda: _sq_constant(gamma_r=0.0),
            "vslq-fixed-point": _vslq_fixed_point, "vslq-reset": _vslq_reset}


def _random_pattern(n, seed):
    # about n one-directional entries among 80 % of the indices, so the
    # rest stay isolated, with a quarter of the entries repeated
    rng = np.random.default_rng(seed)
    linked = rng.permutation(n)[:max(1, (4 * n) // 5)]
    rows, cols = rng.choice(linked, size=(2, n))
    repeats = rng.integers(0, n, size=n // 4)
    return np.r_[rows, rows[repeats]], np.r_[cols, cols[repeats]], n


def _backward_path(n):
    # entries (i, i - 1) listed from the top down: hooking leaves one chain
    # of n pointers, the longest that pointer jumping can face
    rows = np.arange(n - 1, 0, -1)
    return rows, rows - 1, n


def _stacked_pattern(parts):
    rows, cols, _, _ = dy._stack(parts)
    return rows, cols, parts[0][0].size


def _pulse_phase_pattern(name):
    # the stack _sector_rhs builds: S(h_static, channels), S(h_x), S(h_y)
    prob = PULSE_PHASES[name]()
    return _stacked_pattern([
        (prob.h_static.matrix,
         [(op.matrix, rate) for op, rate in prob.channels]),
        (prob.h_x.matrix, ()), (prob.h_y.matrix, ())])


def _reset_pattern(name):
    terms = RHS_MODELS[name]()
    return _stacked_pattern([(terms.h_static.matrix, [
        (op.matrix, rate) for op, rate in mo.phase_channels(terms, 0.035)])])


SECTOR_PATTERNS = {
    **{f"random-{n}": functools.partial(_random_pattern, n, n)
       for n in (1, 7, 36, 1296, 4096)},
    "backward-path-4096": functools.partial(_backward_path, 4096),
    **{f"pulse-phase-{k}": functools.partial(_pulse_phase_pattern, k)
       for k in ("sq", "vslq-0L", "tq-000")},
    **{f"reset-{k}": functools.partial(_reset_pattern, k)
       for k in ("sq", "vslq", "tq")},
}


class TestBlockPropagator:
    @pytest.fixture(params=list(SEGMENTS), scope="class")
    def segment(self, request):
        return SEGMENTS[request.param]()

    def test_generator_matches_kronecker_formula(self, segment):
        h, channels, _ = segment
        d = h.shape[0]
        eye = np.eye(d)
        s = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
        for lop, rate in channels:
            lsq = lop.conj().T @ lop
            s += rate * (np.kron(lop, lop.conj())
                         - 0.5 * (np.kron(lsq, eye) + np.kron(eye, lsq.T)))
        got = lindblad_superoperator(h, channels)
        assert np.max(np.abs(got - s)) < 1e-15

    def test_matches_dense_expm(self, segment):
        h, channels, dt = segment
        rho = _random_density(h.shape[0], seed=11)
        dense = scipy.linalg.expm(lindblad_superoperator(h, channels) * dt)
        want = (dense @ rho.reshape(-1)).reshape(rho.shape)
        got = dy.apply_propagator(dy.segment_propagator(h, channels, dt), rho)
        assert np.max(np.abs(got - want)) < 1e-12

    def test_no_generator_entry_between_slots(self, segment):
        # exactness: exp(S dt) is block diagonal in the partition used
        h, channels, dt = segment
        prop = dy.segment_propagator(h, channels, dt)
        slot = prop.index // prop.exps.shape[1]
        rows, cols = np.nonzero(lindblad_superoperator(h, channels))
        assert np.all(slot[rows] == slot[cols])
        assert prop.exps.shape[0] > 1

    def test_vslq_sector_counts(self):
        sizes = {}
        for name in ("vslq-fixed-point", "vslq-reset"):
            h, channels, _ = SEGMENTS[name]()
            rows, cols = np.nonzero(lindblad_superoperator(h, channels))
            sizes[name] = np.bincount(hi.sector_labels(rows, cols, 36 ** 2))
        assert len(sizes["vslq-fixed-point"]) == 8
        assert sizes["vslq-fixed-point"].max() == 164
        assert len(sizes["vslq-reset"]) == 72
        assert sizes["vslq-reset"].max() == 52

    def test_vslq_orbit_counts(self):
        # under the mirror: |+X_L>'s 324 fixed-point indices fall into 171
        # orbits (18 of one index) in blocks of 91 and 80; all 1296 reset
        # indices into 666 orbits (36 of one index) in 42 blocks of <= 40
        terms, _ = _vslq_terms()
        model, _ = _vslq_model()
        plus_x = mo.vslq_pauli_eigenstate(model, "X", +1).density()
        cases = {"vslq-fixed-point": (plus_x, 171, 18, [91, 80]),
                 "vslq-reset": (None, 666, 36, None)}
        for name, (rho, n_orbits, n_fixed, blocks) in cases.items():
            h, channels, _ = SEGMENTS[name]()
            vec, at, rows, cols, _, _, _ = dy._reduce(
                [(h, channels)], terms.basis_symmetries, rho)
            sizes = np.bincount(at)
            assert sizes.size == n_orbits
            assert np.count_nonzero(sizes == 1) == n_fixed
            got = np.bincount(hi.sector_labels(rows, cols, sizes.size))
            if blocks is not None:
                assert sorted(got, reverse=True) == blocks
                assert vec.size == 324
            else:
                assert len(got) == 42 and got.max() == 40

    @pytest.mark.parametrize("stack", ["pulse-phase", "reset", "fixed-point"])
    @pytest.mark.parametrize("name", ["sq", "vslq", "tq"])
    def test_packing_from_reduced_labels_matches_fresh_labelling(self, name,
                                                                 stack):
        # oracle: the kept triplets labelled afresh, as a second labelling
        # would; reduced and not, for rho = None and an occupied state,
        # whose kept sectors leave gaps in the VSLQ's numbering
        parts, symmetries, rho = _pack_case(name, stack)
        for maps in (symmetries, ()):
            for density in (None, rho):
                _, _, rows, cols, _, _, labels = dy._reduce(parts, maps,
                                                            density)
                index, n_slots, m = dy._pack(labels)
                want = dy._pack(hi.sector_labels(rows, cols, labels.size))
                assert np.array_equal(index, want[0])
                assert (n_slots, m) == want[1:]

    @pytest.mark.parametrize("name", ["vslq-fixed-point", "vslq-reset"])
    def test_reduced_propagator_matches_unreduced(self, name):
        # oracle: the unreduced propagator (itself checked against the
        # dense expm) on a mirror-invariant random density
        h, channels, dt = SEGMENTS[name]()
        (p,) = _vslq_terms()[0].basis_symmetries
        rho = _random_density(36, seed=12)
        rho = (rho + rho[np.ix_(p, p)]) / 2
        assert np.array_equal(rho[np.ix_(p, p)], rho)
        full = dy.segment_propagator(h, channels, dt)
        want = dy.apply_propagator(full, rho)
        prop = dy.segment_propagator(h, channels, dt, None, [p])
        got = dy.apply_propagator(prop, rho)
        assert prop.exps.size < full.exps.size
        assert np.array_equal(got[np.ix_(p, p)], got)
        assert np.max(np.abs(got - want)) < 1e-12

    @pytest.mark.parametrize("name", list(SECTOR_PATTERNS))
    def test_sector_labels_match_connected_components(self, name):
        # oracle: scipy's weakly connected components, label for label
        rows, cols, n = SECTOR_PATTERNS[name]()
        pattern = scipy.sparse.coo_matrix(
            (np.ones(len(rows)), (rows, cols)), shape=(n, n))
        _, want = scipy.sparse.csgraph.connected_components(pattern,
                                                            directed=False)
        got = hi.sector_labels(rows, cols, n)
        assert np.array_equal(got, want)


def full_lindblad_rhs(problem):
    """rho' = f(t, rho) of the problem's master equation on the whole d x d
    matrix: ``_sector_rhs`` with every vec index kept."""
    d = problem.h_static.matrix.shape[0]
    rhs, _, _ = dy._sector_rhs(problem, np.ones((d, d)))
    return lambda t, rho: rhs(t, rho.reshape(-1)).reshape(d, d)


def _dense_lindblad_rhs(problem, t, rho):
    # the dense form K rho + rho K^dag + sum_k g_k L_k rho L_k^dag,
    # K = -iH(t) - (1/2) sum_k g_k L_k^dag L_k
    ox, oy = problem.coupling(t)
    k = -1j * (problem.h_static.matrix + ox * problem.h_x.matrix
               + oy * problem.h_y.matrix)
    jumps = np.zeros_like(rho)
    for op, rate in problem.channels:
        lop = op.matrix
        k = k - 0.5 * rate * (lop.conj().T @ lop)
        jumps = jumps + rate * (lop @ rho @ lop.conj().T)
    return k @ rho + rho @ k.conj().T + jumps


RHS_MODELS = {
    "sq": lambda: mo.build_single_qubit(mo.SingleQubitModel(
        delta=TWO_PI * 0.35, gamma_q=1 / 5000, gamma_r=0.03)),
    "vslq": lambda: _vslq_terms()[0],
    "tq": lambda: mo.build_three_qubit(mo.ThreeQubitModel(
        j=TWO_PI * 0.02, gamma_p=1 / 5000, gamma_r=0.03)),
}


def _pack_case(name, stack):
    """(parts, symmetries, rho): the RHS_MODELS model's generator stack of
    a pulse phase (``_sector_rhs``'s three parts at the primary rate), a
    35 per_us reset or a constant coupling, its basis maps, and the
    density of a state it is invariant under."""
    terms = RHS_MODELS[name]()
    primary = next(c.rate for c in terms.channels if not c.lossy)
    parts = {
        "pulse-phase": [
            (terms.h_static.matrix,
             [(o.matrix, r) for o, r in mo.phase_channels(terms, primary)]),
            (terms.h_x.matrix, ()), (terms.h_y.matrix, ())],
        "reset": [(terms.h_static.matrix,
                   [(o.matrix, r) for o, r in mo.phase_channels(terms, 0.035)])],
        "fixed-point": [((terms.h_static + TWO_PI * 0.004 * terms.h_x).matrix,
                         [(c.op.matrix, c.rate) for c in terms.channels])],
    }[stack]
    phase = {"sq": "sq", "vslq": "vslq-0L", "tq": "tq-000"}[name]
    return (parts, terms.basis_symmetries,
            PULSE_PHASES[phase]().initial.density())


class TestLindbladRhs:
    @pytest.mark.parametrize("name", list(RHS_MODELS))
    def test_matches_dense_formula(self, name):
        # the seed pulse plus one y mode, so both coupling blocks carry
        # weight; every channel has its own rate
        terms = RHS_MODELS[name]()
        seed = seed_pulse(8, 40.0, TWO_PI * 0.02)
        pulse = PulseShape(seed.cx, [0.0, TWO_PI * 0.005] + [0.0] * 6, 40.0)
        channels = [(c.op, 0.01 * (k + 1)) for k, c in enumerate(terms.channels)]
        initial = hi.basis_state(terms.space, (0,) * len(terms.space.dims))
        prob = dy.EvolutionProblem(
            terms.h_static, terms.h_x, terms.h_y, lambda t: evaluate(pulse, t),
            channels, (0.0, 40.0), initial)
        rhs = full_lindblad_rhs(prob)
        rng = np.random.default_rng(5)
        d = terms.space.total_dim
        for t in np.linspace(3.0, 37.0, 5):
            a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            rho = a + a.conj().T
            want = _dense_lindblad_rhs(prob, t, rho)
            got = rhs(t, rho)
            assert np.max(np.abs(got - want)) < 1e-13 * np.max(np.abs(want))


def _pulse_phase(terms, initial):
    # one cycles-style pulse phase: the seed pulse plus one y mode, at the
    # pulse-phase rates of a 35 per_us reset
    seed = seed_pulse(8, 40.0, TWO_PI * 0.01)
    pulse = PulseShape(seed.cx, [0.0, TWO_PI * 0.002] + [0.0] * 6, 40.0)
    primary_rate = next(c.rate for c in terms.channels if not c.lossy)
    channels = mo.phase_channels(terms, primary_rate)
    return dy.EvolutionProblem(
        terms.h_static, terms.h_x, terms.h_y, lambda t: evaluate(pulse, t),
        channels, (0.0, 40.0), initial)


def _tq_phase():
    model = mo.ThreeQubitModel(j=TWO_PI * 0.02, gamma_p=1 / 5000, gamma_r=0.03)
    terms = mo.build_three_qubit(model)
    return _pulse_phase(terms, mo.three_qubit_code_states(model)["0L"])


def _sq_phase():
    terms = RHS_MODELS["sq"]()
    return _pulse_phase(terms, hi.basis_state(terms.space, (1, 0)))


def _vslq_phase():
    # the cycles workload's VSLQ at T1 = 30 us
    model = mo.VslqModel(w=TWO_PI * 0.035, delta=TWO_PI * 0.35,
                         gamma_p=1 / 30000, gamma_s=0.035)
    return _pulse_phase(mo.build_vslq(model),
                        mo.vslq_logical_states(model)["0L"])


PULSE_PHASES = {
    "sq": _sq_phase,
    "vslq-0L": _vslq_phase,
    "tq-000": _tq_phase,
}
# the basis maps each model declares, for the phases that run reduced
PHASE_SYMMETRIES = {"vslq-0L": lambda: RHS_MODELS["vslq"]().basis_symmetries,
                    "tq-000": lambda: RHS_MODELS["tq"]().basis_symmetries}


def _counted(fn, calls):
    def wrapped(t, y):
        calls.append(1)
        return fn(t, y)
    return wrapped


def _constant_sq():
    terms = RHS_MODELS["sq"]()
    h = terms.h_static + TWO_PI * 0.004 * terms.h_x
    channels = tuple((c.op, c.rate) for c in terms.channels)
    return h, channels, hi.basis_state(terms.space, (1, 0)), 5000.0


def _constant_vslq_x():
    model, omega = _vslq_model()
    terms = mo.build_vslq(model)
    h = terms.h_static + omega * terms.h_x
    channels = tuple((c.op, c.rate) for c in terms.channels)
    return h, channels, mo.vslq_pauli_eigenstate(model, "X", +1), 500.0


CONSTANT_STARTS = {"sq-constant": _constant_sq,
                   "vslq-fixed-point-X": _constant_vslq_x}


class TestOccupiedSectors:
    @pytest.mark.parametrize("name", list(PULSE_PHASES))
    def test_pulse_phase_matches_full_space(self, name, monkeypatch):
        # oracle: the full-space pulse phase, every d^2 entry integrated
        prob = PULSE_PHASES[name]()
        full_calls, calls = [], []
        _, ys = dy.adaptive_rk(_counted(full_lindblad_rhs(prob), full_calls),
                               prob.t_span, prob.initial.density(),
                               rtol=dy.LINDBLAD_RTOL, atol=dy.DEFAULT_ATOL)
        integrate = dy.adaptive_rk
        monkeypatch.setattr(dy, "adaptive_rk", lambda f, *args, **kwargs:
                            integrate(_counted(f, calls), *args, **kwargs))
        got = dy.evolve_lindblad(prob).final.density()
        assert np.max(np.abs(got - ys[-1])) <= 1e-12
        assert len(calls) == len(full_calls)

    @pytest.mark.parametrize("name", list(CONSTANT_STARTS))
    def test_constant_evolution_matches_full_propagator(self, name):
        h, channels, initial, dt = CONSTANT_STARTS[name]()
        prop = dy.segment_propagator(
            h.matrix, [(op.matrix, r) for op, r in channels], dt)
        rho = initial.density()
        traj = dy.evolve_constant_lindblad(h, channels, initial,
                                           dt * np.arange(4))
        for state in traj.states[1:]:
            rho = dy.apply_propagator(prop, rho)
            want = dy._hermitize(rho)
            assert np.max(np.abs(state.density() - want)) <= 1e-12

    def test_full_density_occupies_every_index(self):
        prob = PULSE_PHASES["vslq-0L"]()
        rho = _random_density(36, seed=4)
        _, keep, _ = dy._sector_rhs(prob, rho)
        assert np.array_equal(keep, np.arange(36 ** 2))

    def test_vslq_pulse_phase_integrates_occupied_entries(self, monkeypatch):
        # work counter: |0_L> occupies 2 of the 8 sectors of the pulse phase
        sizes = []
        integrate = dy.adaptive_rk

        def counted(f, t_span, y0, *args, **kwargs):
            sizes.append(y0.size)
            return integrate(f, t_span, y0, *args, **kwargs)

        monkeypatch.setattr(dy, "adaptive_rk", counted)
        dy.evolve_lindblad(PULSE_PHASES["vslq-0L"]())
        assert sizes == [324]

    def test_fixed_point_propagator_keeps_occupied_slots(self, monkeypatch):
        # work counter: |+X_L> occupies 2 of the 8 fixed-point blocks
        slots = []
        build = dy.segment_propagator

        def counted(*args):
            prop = build(*args)
            slots.append(prop.exps.shape[0])
            return prop

        monkeypatch.setattr(dy, "segment_propagator", counted)
        h, channels, initial, dt = _constant_vslq_x()
        dy.evolve_constant_lindblad(h, channels, initial, [0.0, dt, 2 * dt])
        assert slots == [2]

    def test_apply_propagator_rejects_weight_outside_blocks(self):
        h, channels, initial, dt = _constant_vslq_x()
        prop = dy.segment_propagator(
            h.matrix, [(op.matrix, r) for op, r in channels], dt,
            initial.density())
        with pytest.raises(ValueError):
            dy.apply_propagator(prop, _random_density(36, seed=2))

    def test_steady_state_matches_dense_lstsq(self):
        # oracle: the (d^2 + 1) x d^2 least-squares system over every
        # index, with the same refinement step
        h, channels, _, _ = _constant_sq()
        mats = [(op.matrix, r) for op, r in channels]
        d = h.matrix.shape[0]
        a = np.vstack([lindblad_superoperator(h.matrix, mats),
                       np.eye(d).reshape(1, -1)])
        b = np.zeros(d * d + 1)
        b[-1] = 1.0
        x, *_ = np.linalg.lstsq(a, b, rcond=None)
        x += np.linalg.lstsq(a, b - a @ x, rcond=None)[0]
        want = dy._hermitize(x.reshape(d, d))
        got = dy.steady_state(h, channels).density()
        assert np.max(np.abs(got - want)) < 1e-12


def rk_reset_cycles(terms, pulse, sched, initial):
    """The cycles with every reset phase integrated by evolve_lindblad.

    The oracle for the exact reset propagator of evolve_cycles: each pulse
    phase is evolve_cycles' own (one cycle with t_r = 0), each reset phase
    the integrated reset-phase problem.
    """
    pulse_only = CycleSchedule(0.0, sched.reset_rate, 1)
    reset_channels = mo.phase_channels(terms, sched.reset_rate)
    state = initial
    for _ in range(sched.n_cycles):
        state = dy.evolve_cycles(terms, pulse, pulse_only, state).final
        prob = static_problem(terms.h_static, reset_channels,
                              (0.0, sched.t_r), state)
        state = dy.evolve_lindblad(prob).final
    return state


def _sq_chain(t_r):
    terms = mo.build_single_qubit(mo.SingleQubitModel(
        delta=TWO_PI * 0.35, gamma_q=1e-4, gamma_r=1e-4))
    return (terms, seed_pulse(8, 40.0, TWO_PI * 0.02),
            CycleSchedule(t_r, 0.03, 20), hi.basis_state(terms.space, (1, 0)))


def _vslq_chain():
    # the cycles workload's VSLQ at T1 = 30 us, from |0_L>
    model = mo.VslqModel(w=TWO_PI * 0.035, delta=TWO_PI * 0.35,
                         gamma_p=1 / 30000, gamma_s=0.035)
    return (mo.build_vslq(model), seed_pulse(8, 40.0, TWO_PI * 0.01),
            CycleSchedule(60.0, 0.035, 10),
            mo.vslq_logical_states(model)["0L"])


UNPROJECTED_CHAINS = {"sq": lambda: _sq_chain(60.0),
                      "sq-no-reset": lambda: _sq_chain(0.0),
                      "vslq": _vslq_chain}


class TestCycles:
    @pytest.fixture
    def cycle_setup(self):
        model = mo.SingleQubitModel(delta=TWO_PI * 0.35, gamma_q=1e-4,
                                    gamma_r=1e-4)
        terms = mo.build_single_qubit(model)
        pulse = seed_pulse(8, 40.0, TWO_PI * 0.02)
        return model, terms, pulse

    def test_zero_cycles_returns_initial(self, cycle_setup):
        model, terms, pulse = cycle_setup
        sched = CycleSchedule(60.0, 0.03, 0)
        initial = hi.basis_state(model.space, (1, 0))
        traj = dy.evolve_cycles(terms, pulse, sched, initial)
        assert len(traj.states) == 1
        assert np.allclose(traj.final.density(), initial.density())

    def test_zero_cycles_build_no_reset_propagator(self, monkeypatch):
        # no reset is applied, so none is built: the VSLQ reset would cost
        # one expm at t_r = 60 ns
        model = mo.VslqModel(w=TWO_PI * 0.035, delta=TWO_PI * 0.35,
                             gamma_p=1 / 30000, gamma_s=0.035)
        calls = []
        expm = scipy.linalg.expm
        monkeypatch.setattr(scipy.linalg, "expm",
                            lambda a: calls.append(1) or expm(a))
        initial = mo.vslq_pauli_eigenstate(model, "X")
        traj = dy.evolve_cycles(mo.build_vslq(model),
                                seed_pulse(8, 40.0, TWO_PI * 0.01),
                                CycleSchedule(60.0, 0.035, 0), initial)
        assert calls == []
        assert list(traj.times) == [0.0] and len(traj.states) == 1
        assert isinstance(traj.final, hi.QuantumState)
        assert np.max(np.abs(traj.final.density() - initial.density())) < 1e-15

    def test_identity_dynamics_on_static_eigenstate(self, cycle_setup):
        # zero rates and zero pulse leave a static eigenstate unchanged
        model = mo.SingleQubitModel(delta=TWO_PI * 0.35, gamma_q=0.0,
                                    gamma_r=0.0)
        terms = mo.build_single_qubit(model)
        zero_pulse = PulseShape([0.0] * 4, [0.0] * 4, 40.0)
        sched = CycleSchedule(60.0, 0.0, 2)
        initial = hi.basis_state(model.space, (1, 0))
        traj = dy.evolve_cycles(terms, zero_pulse, sched, initial)
        assert np.max(np.abs(traj.final.density() - initial.density())) < 1e-8

    def test_boundary_records(self, cycle_setup):
        model, terms, pulse = cycle_setup
        sched = CycleSchedule(60.0, 0.03, 3)
        traj = dy.evolve_cycles(terms, pulse, sched,
                                hi.basis_state(model.space, (1, 0)))
        assert np.allclose(traj.times,
                           [0, 40, 100, 140, 200, 240, 300])

    def test_pulse_phase_holds_lossy_at_primary_rate(self):
        # the model's own lossy rate reaches no phase: the pulse phase runs
        # the resonator at gamma_q, not at gamma_r = 0.03
        model = mo.SingleQubitModel(delta=TWO_PI * 0.35, gamma_q=1e-4,
                                    gamma_r=0.03)
        terms = mo.build_single_qubit(model)
        pulse = seed_pulse(8, 40.0, TWO_PI * 0.02)
        initial = hi.basis_state(model.space, (1, 1))
        got = dy.evolve_cycles(terms, pulse, CycleSchedule(0.0, 0.5, 1),
                               initial).final
        prob = dy.EvolutionProblem(
            terms.h_static, terms.h_x, terms.h_y, lambda t: evaluate(pulse, t),
            mo.phase_channels(terms, 1e-4), (0.0, 40.0), initial)
        want = dy.evolve_lindblad(prob).final
        assert np.max(np.abs(got.density() - want.density())) < 1e-9

    def test_expm_reset_matches_rk_reset(self, cycle_setup):
        model, terms, pulse = cycle_setup
        sched = CycleSchedule(60.0, 0.03, 2)
        initial = hi.basis_state(model.space, (1, 0))
        a = dy.evolve_cycles(terms, pulse, sched, initial)
        b = rk_reset_cycles(terms, pulse, sched, initial)
        assert np.max(np.abs(a.final.density() - b.density())) < 1e-7

    def test_three_qubit_expm_reset_matches_rk_reset(self):
        # the dense d^2 x d^2 expm takes minutes at d = 64: RK is the oracle
        model = mo.ThreeQubitModel(j=TWO_PI * 0.02, gamma_p=1 / 5000,
                                   gamma_r=0.03)
        terms = mo.build_three_qubit(model)
        pulse = seed_pulse(8, 40.0, TWO_PI * 0.01)
        sched = CycleSchedule(60.0, 0.03, 1)
        initial = hi.basis_state(model.space, (1, 0, 0, 0, 0, 0))
        a = dy.evolve_cycles(terms, pulse, sched, initial)
        b = rk_reset_cycles(terms, pulse, sched, initial)
        assert np.max(np.abs(a.final.density() - b.density())) < 1e-7

    @pytest.mark.parametrize("name", list(UNPROJECTED_CHAINS))
    def test_records_stay_hermitian_unprojected(self, name):
        # nothing projects a pulse phase: its end state is Hermitian to
        # rounding because the Lindblad flow is, and with t_r = 0 no
        # reset propagator hermitizes the chain between phases either
        terms, pulse, sched, initial = UNPROJECTED_CHAINS[name]()
        for state in dy.evolve_cycles(terms, pulse, sched, initial).states:
            rho = state.density()
            assert np.max(np.abs(rho - rho.conj().T)) <= 1e-14

    def test_reset_widens_the_occupied_sectors(self, monkeypatch):
        # with a zero primary rate the pulse phase has no jump term, so the
        # reset moves weight into sectors that the pulse pattern of
        # |1_q 0_r> does not reach, and each phase integrates more
        # coordinates. Oracle: the full 36 x 36 Liouvillian, pulse phases
        # by adaptive_rk at rtol 1e-12 and resets by expm
        model = mo.SingleQubitModel(delta=TWO_PI * 0.35, gamma_q=0.0,
                                    gamma_r=0.0)
        terms = mo.build_single_qubit(model)
        pulse = seed_pulse(8, 40.0, TWO_PI * 0.02)
        sched = CycleSchedule(60.0, 0.03, 3)
        initial = hi.basis_state(model.space, (1, 0))
        integrate = dy.adaptive_rk
        sizes = _integrated_sizes(monkeypatch)
        traj = dy.evolve_cycles(terms, pulse, sched, initial)
        assert sizes == [4, 5, 5]

        def generator(h, rate):
            return lindblad_superoperator(h.matrix, [
                (op.matrix, r) for op, r in mo.phase_channels(terms, rate)])

        s0 = generator(terms.h_static, 0.0)
        sx, sy = (lindblad_superoperator(h.matrix, ())
                  for h in (terms.h_x, terms.h_y))
        reset = scipy.linalg.expm(
            sched.t_r * generator(terms.h_static, sched.reset_rate))

        def rhs(t, y):
            ox, oy = evaluate(pulse, t)
            return (s0 + ox * sx + oy * sy) @ y

        y = initial.density().reshape(-1)
        want = [y]
        for _ in range(sched.n_cycles):
            y = integrate(rhs, (0.0, pulse.t_p), y, rtol=1e-12)[1][-1]
            want.append(y)
            y = reset @ y
            want.append(y)
        assert len(traj.states) == len(want)
        for state, y in zip(traj.states, want):
            assert np.max(np.abs(state.density().reshape(-1) - y)) < 1e-8

    def test_step_halving_convergence(self, cycle_setup):
        model, terms, pulse = cycle_setup
        sched = CycleSchedule(60.0, 0.03, 1)
        initial = hi.basis_state(model.space, (1, 0))
        f = []
        for rtol in (1e-9, 5e-10):
            traj = dy.evolve_cycles(terms, pulse, sched, initial, rtol=rtol)
            f.append(hi.state_fidelity(traj.final, initial))
        assert abs(f[0] - f[1]) < 1e-9


def _tq_chain():
    # fig5's three-qubit code at T_E = 5 us, from |0_L>, one seed-pulse cycle
    model = mo.ThreeQubitModel(j=TWO_PI * 0.02, gamma_p=1 / 5000,
                               gamma_r=0.03)
    return (mo.build_three_qubit(model), seed_pulse(8, 40.0, TWO_PI * 0.01),
            CycleSchedule(60.0, 0.03, 1),
            mo.three_qubit_code_states(model)["0L"])


def _unreduced(terms):
    return dataclasses.replace(terms, symmetries=())


def _max_state_difference(a, b):
    assert np.array_equal(a.times, b.times)
    return max(np.max(np.abs(x.density() - y.density()))
               for x, y in zip(a.states, b.states))


def _integrated_sizes(monkeypatch):
    """The size of every vector adaptive_rk is handed from here on."""
    sizes = []
    integrate = dy.adaptive_rk

    def counted(f, t_span, y0, *args, **kwargs):
        sizes.append(y0.size)
        return integrate(f, t_span, y0, *args, **kwargs)

    monkeypatch.setattr(dy, "adaptive_rk", counted)
    return sizes


class TestSymmetryReduction:
    @pytest.mark.parametrize("which,sign", [("X", +1), ("X", -1),
                                            ("Y", +1), ("Y", -1)])
    def test_constant_evolution_matches_unreduced(self, which, sign):
        # oracle: the same evolution with no symmetry declared, over the
        # 3 steps of test_constant_evolution_matches_full_propagator and
        # over lifetime-vslq's 80-step sample window
        model, omega = _vslq_model()
        terms = mo.build_vslq(model)
        h = terms.h_static + omega * terms.h_x
        channels = tuple((c.op, c.rate) for c in terms.channels)
        initial = mo.vslq_pauli_eigenstate(model, which, sign)
        window = np.linspace(0.0, op.FIXED_WINDOW_US * 1e3, op.FIXED_SAMPLES)
        for times, tol in ((500.0 * np.arange(4), 1e-12), (window, 1e-11)):
            want = dy.evolve_constant_lindblad(h, channels, initial, times)
            got = dy.evolve_constant_lindblad(h, channels, initial, times,
                                              terms.basis_symmetries)
            assert _max_state_difference(got, want) <= tol

    @pytest.mark.parametrize("chain,n_cycles,tol", [
        (_vslq_chain, 5, 1e-10), (_tq_chain, 1, 1e-9)])
    def test_cycles_match_unreduced(self, chain, n_cycles, tol):
        # oracle: every recorded density of the same cycles with no
        # symmetry declared; tq's step sequence differs, as its orbits
        # have 1, 3 or 6 members
        terms, pulse, sched, initial = chain()
        sched = CycleSchedule(sched.t_r, sched.reset_rate, n_cycles)
        got = dy.evolve_cycles(terms, pulse, sched, initial)
        want = dy.evolve_cycles(_unreduced(terms), pulse, sched, initial)
        assert _max_state_difference(got, want) <= tol

    @pytest.mark.parametrize("chain,coords", [(_vslq_chain, 171),
                                              (_tq_chain, 120)])
    def test_cycles_integrate_orbit_coordinates(self, chain, coords,
                                                monkeypatch):
        # work counter: VSLQ |0_L>'s 324 occupied indices fall into 171
        # mirror orbits, tq |0_L>'s 512 into 120 pair-permutation orbits
        terms, pulse, sched, initial = chain()
        sizes = _integrated_sizes(monkeypatch)
        dy.evolve_cycles(terms, pulse, CycleSchedule(sched.t_r,
                                                     sched.reset_rate, 1),
                         initial)
        assert sizes == [coords]

    def test_reset_widens_vslq_orbit_coordinates(self, monkeypatch):
        # work counter: at gamma_p = 0 the pulse phase has no jump term,
        # and each reset widens the next phase's occupied set of |0_L>'s
        # vec indices, 81, 268 and 324, held in 45, 143 and 171 orbits
        model = mo.VslqModel(w=TWO_PI * 0.035, delta=TWO_PI * 0.35,
                             gamma_p=0.0, gamma_s=0.035)
        sizes = _integrated_sizes(monkeypatch)
        dy.evolve_cycles(mo.build_vslq(model),
                         seed_pulse(8, 40.0, TWO_PI * 0.01),
                         CycleSchedule(60.0, 0.035, 3),
                         mo.vslq_logical_states(model)["0L"])
        assert sizes == [45, 143, 171]

    def test_fixed_point_propagator_keeps_orbit_slots(self, monkeypatch):
        # work counter: with the mirror, |+X_L>'s 2 blocks hold 91 and 80
        # orbits, packed into 2 slots of 91
        shapes = []
        build = dy.segment_propagator

        def counted(*args):
            prop = build(*args)
            shapes.append(prop.exps.shape)
            return prop

        monkeypatch.setattr(dy, "segment_propagator", counted)
        h, channels, initial, dt = _constant_vslq_x()
        dy.evolve_constant_lindblad(h, channels, initial, [0.0, dt, 2 * dt],
                                    _vslq_terms()[0].basis_symmetries)
        assert shapes == [(2, 91, 91)]

    def test_reset_blocks_shrink(self):
        # work counter: the VSLQ reset's 72 blocks of at most 52 become 42
        # blocks of at most 40 orbits
        terms = _vslq_chain()[0]
        prop = dy.segment_propagator(
            terms.h_static.matrix,
            [(o.matrix, r) for o, r in mo.phase_channels(terms, 0.035)],
            60.0, None, terms.basis_symmetries)
        assert prop.exps.shape == (20, 40, 40)

    def test_broken_symmetry_rejected(self):
        # h_x on the left pair only breaks the declared mirror
        terms, pulse, _, initial = _vslq_chain()
        sp = terms.space
        left = (hi.embed(hi.ladder(3), 1, sp).dagger()
                @ hi.embed(hi.ladder(2), 0, sp).dagger())
        h_x = left + left.dagger()
        prob = dataclasses.replace(_pulse_phase(terms, initial), h_x=h_x,
                                   symmetries=terms.basis_symmetries)
        with pytest.raises(ValueError, match="symmetry"):
            dy._sector_rhs(prob, initial.density())
        channels = [(c.op.matrix, c.rate) for c in terms.channels]
        with pytest.raises(ValueError, match="symmetry"):
            dy.segment_propagator((terms.h_static + 0.01 * h_x).matrix,
                                  channels, 500.0, None,
                                  terms.basis_symmetries)

    @pytest.mark.parametrize("broken", ["unequal-lossy-rates",
                                        "image-missing", "a_sl-twice"])
    def test_broken_channel_symmetry_rejected(self, broken):
        # the channel list must map onto itself as a multiset of (operator,
        # rate) pairs; a_sl and a_sr are its first and last channels, and
        # a_sl listed twice is set-equal to its image but not multiset-equal
        terms, _, _, initial = _vslq_chain()
        channels = list(mo.phase_channels(terms, 0.035))
        (a_sr, rate), rest = channels[-1], channels[:-1]
        channels = {"unequal-lossy-rates": rest + [(a_sr, 2 * rate)],
                    "image-missing": rest,
                    "a_sl-twice": channels + channels[:1]}[broken]
        prob = dataclasses.replace(_pulse_phase(terms, initial),
                                   channels=tuple(channels),
                                   symmetries=terms.basis_symmetries)
        with pytest.raises(ValueError, match="symmetry"):
            dy._sector_rhs(prob, initial.density())
        with pytest.raises(ValueError, match="symmetry"):
            dy.segment_propagator(terms.h_static.matrix,
                                  [(o.matrix, r) for o, r in channels],
                                  60.0, None, terms.basis_symmetries)

    @pytest.mark.parametrize("which", ["repeated", "short", "out-of-range"])
    def test_non_permutation_map_rejected(self, which):
        h, channels, initial, dt = _constant_vslq_x()
        (p,) = _vslq_terms()[0].basis_symmetries
        q = {"repeated": np.r_[p[1], p[1:]], "short": p[:-1],
             "out-of-range": p + 1}[which]
        with pytest.raises(ValueError, match="symmetry"):
            dy.segment_propagator(h.matrix,
                                  [(o.matrix, r) for o, r in channels], dt,
                                  None, [q])
        with pytest.raises(ValueError, match="symmetry"):
            dy.evolve_constant_lindblad(h, channels, initial, [0.0, dt], [q])

    @pytest.mark.parametrize("name,stack", [
        ("vslq", "pulse-phase"), ("vslq", "reset"), ("vslq", "fixed-point"),
        ("tq", "pulse-phase"), ("tq", "reset")])
    def test_accepted_maps_commute_with_dense_generator(self, name, stack):
        # oracle: every generator built with symmetries, dense, commutes
        # with each map that the exact d x d test accepts, as the vec
        # permutation v: S[v][:, v] = S to rounding of the decay sums
        parts, symmetries, _ = _pack_case(name, stack)
        dy._reduce(parts, symmetries, None)
        d = parts[0][0].shape[0]
        # row chunks keep the copies of tq's 4096^2 S small
        chunks = np.array_split(np.arange(d * d), 16)
        for h, channels in parts:
            s = lindblad_superoperator(h, channels)
            bound = 1e-15 * max(np.abs(s[rows]).max() for rows in chunks)
            for p in symmetries:
                v = (p[:, None] * d + p).reshape(-1)
                for rows in chunks:
                    diff = s[np.ix_(v[rows], v)] - s[rows]
                    assert np.abs(diff).max() <= bound
            del s  # before the next part's S is built

    def test_apply_propagator_rejects_non_invariant_density(self):
        h, channels, initial, dt = _constant_vslq_x()
        (p,) = _vslq_terms()[0].basis_symmetries
        rho = initial.density()
        prop = dy.segment_propagator(
            h.matrix, [(o.matrix, r) for o, r in channels], dt, rho, [p])
        # move weight between two mirror-image populations that the
        # propagator covers
        diag = np.arange(36) * 37
        i = next(i for i in range(36)
                 if p[i] != i and np.isin(diag[[i, p[i]]], prop.vec).all())
        bad = rho.copy()
        bad[i, i] += 1e-3
        bad[p[i], p[i]] -= 1e-3
        with pytest.raises(ValueError, match="not invariant"):
            dy.apply_propagator(prop, bad)

    def test_non_invariant_state_is_not_reduced(self, monkeypatch):
        # a single-loss error state breaks the mirror: the evolution
        # integrates the coordinates, and the arithmetic, of no symmetry
        terms, _, _, _ = _vslq_chain()
        model = mo.VslqModel(w=TWO_PI * 0.035, delta=TWO_PI * 0.35,
                             gamma_p=1 / 30000, gamma_s=0.035)
        prob = _pulse_phase(terms, mo.vslq_logical_states(model)["err_l_plus"])
        sizes = _integrated_sizes(monkeypatch)
        want = dy.evolve_lindblad(prob).final.density()
        got = dy.evolve_lindblad(dataclasses.replace(
            prob, symmetries=terms.basis_symmetries)).final.density()
        assert sizes[0] == sizes[1]
        assert np.array_equal(got, want)


class TestTrajectoryExports:
    def test_csv_round_trip(self, tmp_path):
        traj = dy.Trajectory(
            np.array([0.0, 1.0]),
            [hi.basis_state(hi.TensorSpace((2,)), (0,))] * 2)
        path = tmp_path / "t.csv"
        dy.trajectory_to_csv(traj, {"pop": np.array([1.0, 0.5])}, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "time_ns,pop"
        assert lines[2].startswith("1,0.5")

    def test_expect_reads_operators_and_target_states(self):
        sp = hi.TensorSpace((2,))
        plus = hi.QuantumState(sp, np.array([1.0, 1.0]) / np.sqrt(2))
        states = [hi.basis_state(sp, (0,)), plus]
        traj = dy.Trajectory(np.array([0.0, 1.0]), states)
        sz = hi.Operator(sp, hi.SIGMA_Z)
        target = hi.basis_state(sp, (0,))
        assert np.allclose(traj.expect(sz), [1.0, 0.0], atol=1e-15)
        assert np.allclose(traj.expect(target), [1.0, 0.5], atol=1e-15)
        assert traj.expect(sz).tolist() == [hi.expectation(sz, s)
                                            for s in states]
        assert traj.expect(target).tolist() == [hi.state_fidelity(s, target)
                                                for s in states]

    def test_evolve_csv_matches_observables_of_recorded_states(self, tmp_path):
        # oracle for the read path: every trajectory.csv column of a 1-cycle
        # sq `aqec evolve` equals, at its 12 digits, the fidelity this test
        # computes on each state recorded in states.json
        import json

        from aqec import cli
        from aqec import config as cf
        from aqec.pulse import save_pulse

        pulse_file = tmp_path / "pulse.json"
        save_pulse(PulseShape([0.0123, 0.0], [0.0, 0.00234], 40.0), pulse_file)
        text = f"""\
[model]
kind = single_qubit
delta = 350 MHz
gamma_q = 0.2 per_us
gamma_r = 0.2 per_us

[schedule]
t_r = 60 ns
n_cycles = 1

[run]
pulse_file = {pulse_file}
"""
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text(text)
        out = tmp_path / "out"
        assert cli.main(["evolve", "--config", str(cfg_file),
                         "--out", str(out)]) == 0
        space = cf.parse_config(text).model().space
        targets = {"fid_target": hi.basis_state(space, (1, 0)),
                   "pop_leak": hi.basis_state(space, (2, 1))}
        records = json.loads((out / "states.json").read_text())
        states = [hi.QuantumState(space,
                                  np.array(r["re"]) + 1j * np.array(r["im"]))
                  for r in records]
        header, *rows = (out / "trajectory.csv").read_text().splitlines()
        assert header.split(",") == ["time_ns", "fid_target", "pop_leak"]
        assert len(rows) == len(states) == 3
        for row, state in zip(rows, states):
            _, *vals = row.split(",")
            assert vals == [f"{hi.state_fidelity(state, targets[n]):.12g}"
                            for n in header.split(",")[1:]]

    def test_state_dump(self, tmp_path):
        import json
        traj = dy.Trajectory(
            np.array([0.0]),
            [hi.basis_state(hi.TensorSpace((2,)), (1,))])
        path = tmp_path / "s.json"
        dy.dump_states(traj, path)
        recs = json.loads(path.read_text())
        assert recs[0]["pure"] and recs[0]["re"] == [0.0, 1.0]
        # the C encoder, one record at a time, writes json.dump's bytes
        space = hi.TensorSpace((2, 3))
        states = [hi.QuantumState(space, _random_density(6, seed=k))
                  for k in range(3)]
        for traj in (dy.Trajectory(np.array([0.0, 40.0, 100.0]), states),
                     dy.Trajectory(np.array([]), [])):
            dy.dump_states(traj, path)
            streamed = tmp_path / "streamed.json"
            with open(streamed, "w") as f:
                json.dump(json.loads(path.read_text()), f)
                f.write("\n")
            assert path.read_bytes() == streamed.read_bytes()



def _sq_objective(counted):
    """The final sector states of one ``op.fidelity`` call on the fig2
    objective under its seed pulse, integrating ``counted(rhs)``, and the
    problem as (rhs, t_span, y0)."""
    cfg = preset_config("fig2")
    model = cfg.model()
    obj = op.make_objective(mo.build(model), mo.target_operation(model))
    pulse = seed_pulse(cfg.n_modes, cfg.t_p, cfg.seed_c1x)
    rhs = op.coeff_batch_rhs(obj, np.array([pulse.cx]), np.array([pulse.cy]),
                             pulse.t_p)
    y0 = obj.psi0[:, :, None].copy()
    _, ys = dy.adaptive_rk(counted(rhs), (0.0, pulse.t_p), y0,
                           rtol=dy.UNITARY_RTOL, atol=dy.DEFAULT_ATOL)
    return ys[-1], (rhs, (0.0, pulse.t_p), y0)


def _sector_pulse_phase(name, reduced=False):
    def run(counted, monkeypatch):
        """The occupied entries of vec(rho) after ``evolve_lindblad``, with
        every RHS it integrates wrapped in ``counted``, and the problem
        without symmetries. With ``reduced``, the evolution declares the
        model's symmetries and integrates orbit coordinates."""
        prob = PULSE_PHASES[name]()
        rho0 = prob.initial.density()
        rhs, keep, _ = dy._sector_rhs(prob, rho0)
        if reduced:
            prob = dataclasses.replace(
                prob, symmetries=PHASE_SYMMETRIES[name]())
        integrate = dy.adaptive_rk
        monkeypatch.setattr(dy, "adaptive_rk", lambda f, *args, **kwargs:
                            integrate(counted(f), *args, **kwargs))
        rho = dy.evolve_lindblad(prob).final.density()
        return rho.reshape(-1)[keep], (rhs, prob.t_span, rho0.reshape(-1)[keep])
    return run


def _tight_reference(rhs, t_span, y0):
    # an independent implementation of the same pair, 1,000 times tighter
    from scipy.integrate import solve_ivp
    sol = solve_ivp(lambda t, y: rhs(t, y.reshape(y0.shape)).reshape(-1),
                    t_span, y0.reshape(-1), method="DOP853", rtol=1e-13,
                    atol=1e-15)
    return sol.y[:, -1].reshape(y0.shape)


# Global error and RHS calls of one integration at the program's tolerance.
# The error bounds are what the Dormand-Prince 5(4) pair reached on these
# integrations; DOP853 reaches 0.7e-10, 2.1e-10 and 2.4e-10. The call
# ceilings leave about 20 % over DOP853's 2,161 and 1,633 calls, where the
# 5(4) pair took 6,890 and 4,628.
INTEGRATION_CASES = {
    "sq-objective": (lambda counted, _: _sq_objective(counted), 6.0e-10, 3000),
    "vslq-pulse-phase": (_sector_pulse_phase("vslq-0L"), 2.5e-10, 2000),
    "tq-pulse-phase": (_sector_pulse_phase("tq-000"), 3.1e-10, None),
    "vslq-pulse-phase-mirror": (_sector_pulse_phase("vslq-0L", True),
                                2.5e-10, 2000),
    "tq-pulse-phase-pairs": (_sector_pulse_phase("tq-000", True), 3.1e-10,
                             None),
}


class TestDop853:
    def test_nan_rhs_fails_fast(self):
        # a NaN error norm used to make the step NaN, which no underflow
        # test catches, so the whole MAX_STEPS budget ran before the raise
        calls = []

        def f(t, y):
            calls.append(t)
            if len(calls) > 500:
                raise RuntimeError("NaN RHS still integrating")
            return np.full_like(y, np.nan)

        with pytest.raises(dy.IntegrationError), np.errstate(invalid="ignore"):
            dy.adaptive_rk(f, (0.0, 10.0), np.ones(4, dtype=complex), 1e-9)
        assert len(calls) <= 100

    def test_tableau_matches_scipy(self):
        from scipy.integrate._ivp import dop853_coefficients as ref
        n = ref.N_STAGES
        assert np.array_equal(dy._C, ref.C[:n])
        for i in range(1, n):
            assert np.array_equal(dy._A[i], ref.A[i, :i])
        assert np.array_equal(dy._B, ref.B)
        # the error weights of the stage at (t + h, y_new) are zero: the
        # estimate needs only the twelve stages of the step
        assert ref.E5[n] == ref.E3[n] == 0.0
        assert np.array_equal(dy._E53, np.array([ref.E5[:n], ref.E3[:n]]))

    def test_order_conditions(self):
        # the quadrature conditions of order 8, and the row sums; the
        # ninth-order condition fails, so the check is not vacuous
        b, c = dy._B.real, dy._C
        for k in range(8):
            assert abs(b @ c ** k - 1 / (k + 1)) < 1e-14
        assert abs(b @ c ** 8 - 1 / 9) > 1e-6
        for i in range(1, len(c)):
            assert abs(dy._A[i].sum() - c[i]) < 1e-14

    @pytest.mark.parametrize("name", list(INTEGRATION_CASES))
    def test_global_error_and_rhs_calls(self, name, monkeypatch):
        run, max_error, max_calls = INTEGRATION_CASES[name]
        calls = []
        got, problem = run(lambda f: _counted(f, calls), monkeypatch)
        assert np.max(np.abs(got - _tight_reference(*problem))) <= max_error
        if max_calls is not None:
            assert len(calls) <= max_calls


def _reference_adaptive_rk(f, t_span, y0, rtol, atol=dy.DEFAULT_ATOL,
                           record_times=None, rejected=None):
    """The DOP853 loop before the state and the stages shared one array.

    Oracle for ``adaptive_rk``: the same tableau, error norm, step control
    and RHS schedule, with the stages in their own array, each stage input
    formed as y + h (A_i @ k) and the error norm from the unscaled
    estimates. Appends one entry to ``rejected`` per rejected step.
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    y = np.array(y0, dtype=complex)
    if record_times is None:
        record = [t1]
    else:
        record = sorted({float(t) for t in record_times} | {t1})
    out_t, out_y = [], []
    if record and abs(record[0] - t0) <= 1e-12 * max(1.0, abs(t0)):
        out_t.append(t0)
        out_y.append(y.copy())
        record = record[1:]
    span = t1 - t0
    t = t0
    shape = y.shape
    ks = np.empty((dy._STAGES,) + shape, dtype=complex)
    stages = ks.reshape(dy._STAGES, -1)
    ks[0] = f(t, y)
    h = dy._initial_step(f, t, y, ks[0], rtol, atol, span)
    first_valid = True
    next_record = 0
    while t < t1 - 1e-14 * span:
        target = record[next_record] if next_record < len(record) else t1
        h_trial = min(h, target - t)
        clamped = h_trial < h
        if not first_valid:
            ks[0] = f(t, y)
            first_valid = True
        for i in range(1, dy._STAGES):
            yi = y + h_trial * (dy._A[i] @ stages[:i]).reshape(shape)
            ks[i] = f(t + dy._C[i] * h_trial, yi)
        y_new = y + h_trial * (dy._B @ stages).reshape(shape)
        sc = atol + rtol * np.maximum(np.abs(y), np.abs(y_new)).reshape(-1)
        err = np.abs((dy._E53 @ stages) / sc) ** 2
        n5, n3 = err.sum(axis=1)
        err_norm = 0.0 if n5 == 0.0 else float(
            h_trial * n5 / np.sqrt((n5 + 0.01 * n3) * sc.size))
        if err_norm <= 1.0:
            t, y = t + h_trial, y_new
            first_valid = False
            if (next_record < len(record) and abs(t - record[next_record])
                    <= 1e-12 * max(1.0, abs(t))):
                out_t.append(record[next_record])
                out_y.append(y.copy())
                next_record += 1
            factor = 5.0 if err_norm == 0.0 else min(
                5.0, max(0.2, 0.9 * err_norm ** -0.125))
            h_next = h_trial * factor
            h = max(h, h_next) if clamped else h_next
        else:
            if rejected is not None:
                rejected.append(t)
            h = h_trial * max(0.2, 0.9 * err_norm ** -0.125)
    return np.array(out_t), out_y


def _captured_integrations(monkeypatch, module, run):
    """(f, t_span, y0, kwargs) of every adaptive_rk call that ``run`` makes
    through ``module``'s binding of it."""
    seen = []
    integrate = dy.adaptive_rk

    def capture(f, t_span, y0, **kwargs):
        seen.append((f, t_span, np.array(y0), kwargs))
        return integrate(f, t_span, y0, **kwargs)

    monkeypatch.setattr(module, "adaptive_rk", capture)
    run()
    return seen


def _cycles_pulse_phase(terms, pulse, initial):
    """One pulse phase of ``evolve_cycles``, through its own coupling."""
    return lambda: dy.evolve_cycles(terms, pulse, CycleSchedule(0.0, 0.03, 1),
                                    initial)


def _sq_fig2_phase():
    model = mo.SingleQubitModel(delta=TWO_PI * 0.35, gamma_q=1 / 20000,
                                gamma_r=1 / 20000)
    pulse = load_pulse(ROOT / "perfbench" / "data" / "fig2_pulse.json")
    return dy, _cycles_pulse_phase(mo.build_single_qubit(model), pulse,
                                   hi.basis_state(model.space, (1, 0)))


def _vslq_plus_x_phase():
    # the cycles-vslq workload's model, from |+X_L>, with its pulse 0
    model = mo.VslqModel(w=TWO_PI * 0.035, delta=TWO_PI * 0.35,
                         gamma_p=1 / 30000, gamma_s=0.035)
    rec = _perfbench_workloads().cycles_pulse_record(0)
    pulse = PulseShape(rec["cx"], rec["cy"], rec["t_p_ns"])
    return dy, _cycles_pulse_phase(
        mo.build_vslq(model), pulse, mo.vslq_pauli_eigenstate(model, "X"))


def _fig2_gradient():
    cfg = preset_config("fig2")
    model = cfg.model()
    obj = op.make_objective(mo.build(model), mo.target_operation(model))
    pulse = seed_pulse(cfg.n_modes, cfg.t_p, cfg.seed_c1x)
    return op, lambda: op.gradient(obj, pulse)


def _bump_with_records():
    # a fast phase bump at t = 5 forces rejected steps; the records split
    # the span at interior times
    w = np.linspace(0.2, 1.0, 6)

    def f(t, y):
        return -1j * (1.0 + 30.0 * np.exp(-((t - 5.0) / 0.2) ** 2)) * w * y

    def run():
        dy.adaptive_rk(f, (0.0, 10.0), np.ones(6, dtype=complex),
                       rtol=dy.UNITARY_RTOL, record_times=[1.0, 2.5, 5.0, 7.5])
    return dy, run


STEP_ORACLE_CASES = {
    "sq-fig2-pulse-phase": _sq_fig2_phase,
    "vslq-plus-x-pulse-phase": _vslq_plus_x_phase,
    "fig2-fd-batch": _fig2_gradient,
    "interior-records-rejected-steps": _bump_with_records,
}


class TestDop853Step:
    @pytest.mark.parametrize("name", list(STEP_ORACLE_CASES))
    def test_matches_reference_loop(self, name, monkeypatch):
        module, run = STEP_ORACLE_CASES[name]()
        integrations = _captured_integrations(monkeypatch, module, run)
        assert integrations
        monkeypatch.undo()
        rejected = []
        for f, t_span, y0, kwargs in integrations:
            calls, ref_calls = [], []
            times, ys = dy.adaptive_rk(_counted(f, calls), t_span, y0,
                                       **kwargs)
            ref_times, ref_ys = _reference_adaptive_rk(
                _counted(f, ref_calls), t_span, y0, rejected=rejected,
                **kwargs)
            assert len(calls) == len(ref_calls)
            assert np.array_equal(times, ref_times)
            assert len(ys) == len(ref_ys)
            for y, want in zip(ys, ref_ys):
                assert y.shape == want.shape
                assert np.max(np.abs(y - want)) <= 1e-12 * np.max(np.abs(want))
        if name == "interior-records-rejected-steps":
            assert rejected and len(ys) == 5
