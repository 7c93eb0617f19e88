import numpy as np
import pytest
import scipy.linalg

from aqec import dynamics as dy
from aqec import hilbert as hi
from aqec import models as mo
from aqec.presets import VSLQ_FIXED_TABLE
from aqec.pulse import CycleSchedule, PulseShape, evaluate, seed_pulse

TWO_PI = 2 * np.pi


def two_level_decay_problem(gamma, t_end):
    sp = hi.TensorSpace((2,))
    h0 = hi.Operator(sp, np.zeros((2, 2)))
    a = hi.Operator(sp, hi.ladder(2))
    return dy.EvolutionProblem(h0, None, None, None, ((a, gamma),),
                               (0.0, t_end), hi.basis_state(sp, (1,)))


@pytest.fixture
def sq_terms():
    model = mo.SingleQubitModel(delta=TWO_PI * 0.35, gamma_q=0.0, gamma_r=0.0)
    return model, mo.build_single_qubit(model)


class TestUnitary:
    def test_zero_hamiltonian_is_identity(self):
        sp = hi.TensorSpace((3, 2))
        h0 = hi.Operator(sp, np.zeros((6, 6)))
        psi = hi.normalized_state(sp, np.arange(1.0, 7.0) + 0.5j)
        prob = dy.EvolutionProblem(h0, None, None, None, (), (0.0, 1000.0), psi)
        traj = dy.evolve_unitary(prob)
        assert np.allclose(traj.final.vector(), psi.vector(), atol=1e-9)

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

    def test_record_times(self):
        sp = hi.TensorSpace((2,))
        h0 = hi.Operator(sp, np.array([[0.0, 0.1], [0.1, 0.0]]))
        prob = dy.EvolutionProblem(h0, None, None, None, (), (0.0, 10.0),
                                   hi.basis_state(sp, (0,)))
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
        prob = dy.EvolutionProblem(h0, None, None, None, (), (0.0, 500.0),
                                   hi.QuantumState(sp, rho0))
        traj = dy.evolve_lindblad(prob)
        assert np.allclose(traj.final.density(), rho0, atol=1e-9)

    def test_bit_flip_channel_dephases_sigma_z(self):
        # <sigma_z>(t) = exp(-2 Gamma t) under a sigma_x channel
        sp = hi.TensorSpace((2,))
        h0 = hi.Operator(sp, np.zeros((2, 2)))
        sx = hi.Operator(sp, hi.SIGMA_X)
        sz = hi.Operator(sp, hi.SIGMA_Z)
        gamma = 0.002
        prob = dy.EvolutionProblem(h0, None, None, None, ((sx, gamma),),
                                   (0.0, 400.0), hi.basis_state(sp, (0,)))
        traj = dy.evolve_lindblad(prob, observables={"sz": sz})
        assert traj.observables["sz"][-1] == pytest.approx(
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
        prob = two_level_decay_problem(-0.01, 10.0)
        with pytest.raises(ValueError):
            dy.evolve_lindblad(prob)

    def test_time_varying_rate_callable(self):
        # rate g(t) = g0 * t / T gives survival exp(-g0 T / 2)
        sp = hi.TensorSpace((2,))
        h0 = hi.Operator(sp, np.zeros((2, 2)))
        a = hi.Operator(sp, hi.ladder(2))
        g0, t_end = 0.02, 100.0
        prob = dy.EvolutionProblem(h0, None, None, None,
                                   ((a, lambda t: g0 * t / t_end),),
                                   (0.0, t_end), hi.basis_state(sp, (1,)))
        traj = dy.evolve_lindblad(prob)
        assert traj.final.density()[1, 1].real == pytest.approx(
            np.exp(-g0 * t_end / 2), rel=1e-6)

    def test_trace_gate_checks_every_record_time(self, monkeypatch):
        # a drifted middle record must raise, not only a drifted last one
        real = dy.adaptive_rk

        def drifted(*args, **kwargs):
            times, ys = real(*args, **kwargs)
            ys[1] = ys[1] * (1.0 + 1e-6)
            return times, ys

        monkeypatch.setattr(dy, "adaptive_rk", drifted)
        with pytest.raises(dy.IntegrityError):
            dy.evolve_lindblad(two_level_decay_problem(0.01, 100.0),
                               record_times=[0.0, 50.0, 100.0])


class TestConstantPropagator:
    def test_matches_adaptive_rk(self, sq_terms):
        model, terms = sq_terms
        omega = TWO_PI * 0.002
        h = terms.h_static + omega * terms.h_x
        channels = tuple((c.op, 2e-4) for c in terms.channels)
        initial = hi.basis_state(terms.space, (1, 0))
        traj_e = dy.evolve_constant_lindblad(h, channels, initial,
                                             [0.0, 250.0, 500.0])
        prob = dy.EvolutionProblem(h, None, None, None, channels,
                                   (0.0, 500.0), initial)
        traj_rk = dy.evolve_lindblad(prob, record_times=[0.0, 250.0, 500.0])
        for a, b in zip(traj_e.states, traj_rk.states):
            assert np.max(np.abs(a.density() - b.density())) < 1e-7

    def test_steady_state_is_stationary(self, sq_terms):
        model, terms = sq_terms
        omega = TWO_PI * 0.002
        h = terms.h_static + omega * terms.h_x
        channels = ((terms.channels[0].op, 2e-4), (terms.channels[1].op, 0.02))
        rho_ss = dy.steady_state(h, channels)
        s = dy.lindblad_superoperator(
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


def _random_density(d, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def _sq_constant():
    # single-qubit constant coupling over the 5 us settling window
    terms = mo.build_single_qubit(mo.SingleQubitModel(
        delta=TWO_PI * 0.35, gamma_q=1 / 5000, gamma_r=0.03))
    h = terms.h_static + TWO_PI * 0.004 * terms.h_x
    return h.matrix, [(c.op.matrix, c.rate) for c in terms.channels], 5000.0


def _vslq_terms():
    omega, gamma_s, omega_s = VSLQ_FIXED_TABLE[5][:3]
    terms = mo.build_vslq(mo.VslqModel(
        w=TWO_PI * 0.035, delta=TWO_PI * 0.35, gamma_p=1 / 5000,
        gamma_s=gamma_s * 1e-3, omega_s=TWO_PI * omega_s * 1e-3))
    return terms, TWO_PI * omega * 1e-3


def _vslq_fixed_point():
    # Table 1 working point at T1 = 5 us, one 500 ns sample step
    terms, omega = _vslq_terms()
    h = terms.h_static + omega * terms.h_x
    return h.matrix, [(c.op.matrix, c.rate) for c in terms.channels], 500.0


def _vslq_reset():
    terms, _ = _vslq_terms()
    _, rate_r = mo.pulse_reset_rates(terms, reset_rate=0.035)
    return (terms.h_static.matrix,
            [(c.op.matrix, rate_r[c.label]) for c in terms.channels], 60.0)


SEGMENTS = {"sq-constant": _sq_constant, "vslq-fixed-point": _vslq_fixed_point,
            "vslq-reset": _vslq_reset}


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
        got = dy.lindblad_superoperator(h, channels)
        assert np.max(np.abs(got - s)) < 1e-15

    def test_matches_dense_expm(self, segment):
        h, channels, dt = segment
        rho = _random_density(h.shape[0], seed=11)
        dense = scipy.linalg.expm(dy.lindblad_superoperator(h, channels) * dt)
        want = (dense @ rho.reshape(-1)).reshape(rho.shape)
        got = dy.apply_propagator(dy.segment_propagator(h, channels, dt), rho)
        assert np.max(np.abs(got - want)) < 1e-12

    def test_no_generator_entry_between_slots(self, segment):
        # exactness: exp(S dt) is block diagonal in the partition used
        h, channels, dt = segment
        prop = dy.segment_propagator(h, channels, dt)
        slot = prop.index // prop.exps.shape[1]
        rows, cols = np.nonzero(dy.lindblad_superoperator(h, channels))
        assert np.all(slot[rows] == slot[cols])
        assert prop.exps.shape[0] > 1

    def test_vslq_sector_counts(self):
        sizes = {}
        for name in ("vslq-fixed-point", "vslq-reset"):
            h, channels, _ = SEGMENTS[name]()
            rows, cols = np.nonzero(dy.lindblad_superoperator(h, channels))
            sizes[name] = np.bincount(hi.sector_labels(rows, cols, 36 ** 2))
        assert len(sizes["vslq-fixed-point"]) == 8
        assert sizes["vslq-fixed-point"].max() == 164
        assert len(sizes["vslq-reset"]) == 72
        assert sizes["vslq-reset"].max() == 52


def _dense_lindblad_rhs(problem, t, rho):
    # the dense form K rho + rho K^dag + sum_k g_k L_k rho L_k^dag,
    # K = -iH(t) - (1/2) sum_k g_k L_k^dag L_k
    ox, oy = problem.coupling(t)
    k = -1j * (problem.h_static.matrix + ox * problem.h_x.matrix
               + oy * problem.h_y.matrix)
    jumps = np.zeros_like(rho)
    for op, rate in problem.channels:
        g = rate(t) if callable(rate) else rate
        lop = op.matrix
        k = k - 0.5 * g * (lop.conj().T @ lop)
        jumps = jumps + g * (lop @ rho @ lop.conj().T)
    return k @ rho + rho @ k.conj().T + jumps


RHS_MODELS = {
    "sq": lambda: mo.build_single_qubit(mo.SingleQubitModel(
        delta=TWO_PI * 0.35, gamma_q=1 / 5000, gamma_r=0.03)),
    "vslq": lambda: _vslq_terms()[0],
    "tq": lambda: mo.build_three_qubit(mo.ThreeQubitModel(
        j=TWO_PI * 0.02, gamma_p=1 / 5000, gamma_r=0.03)),
}


class TestLindbladRhs:
    @pytest.mark.parametrize("name", list(RHS_MODELS))
    def test_matches_dense_formula(self, name):
        # the seed pulse plus one y mode, so both coupling blocks carry
        # weight; the first channel has a callable rate
        terms = RHS_MODELS[name]()
        seed = seed_pulse(8, 40.0, TWO_PI * 0.02)
        pulse = PulseShape(seed.cx, [0.0, TWO_PI * 0.005] + [0.0] * 6, 40.0)
        channels = [(c.op, 0.01 * (k + 1)) for k, c in enumerate(terms.channels)]
        channels[0] = (channels[0][0], lambda t: 0.01 * (1.0 + t / 40.0))
        initial = hi.basis_state(terms.space, (0,) * len(terms.space.dims))
        prob = dy.EvolutionProblem(
            terms.h_static, terms.h_x, terms.h_y, lambda t: evaluate(pulse, t),
            channels, (0.0, 40.0), initial)
        rhs = dy.lindblad_rhs(prob)
        rng = np.random.default_rng(5)
        d = terms.space.total_dim
        for t in np.linspace(3.0, 37.0, 5):
            a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            rho = a + a.conj().T
            want = _dense_lindblad_rhs(prob, t, rho)
            got = rhs(t, rho)
            assert np.max(np.abs(got - want)) < 1e-13 * np.max(np.abs(want))


def rk_reset_cycles(terms, pulse, sched, initial):
    """The cycles with every reset phase integrated by evolve_lindblad.

    The oracle for the exact reset propagator of evolve_cycles: each pulse
    phase is evolve_cycles' own (one cycle with t_r = 0), each reset phase
    the integrated reset-phase problem.
    """
    pulse_only = CycleSchedule(sched.t_p, 0.0, sched.rate_pulse,
                               sched.rate_reset, 1)
    reset_channels = [(c.op, sched.rate_reset[c.label]) for c in terms.channels]
    state = initial
    for _ in range(sched.n_cycles):
        state = dy.evolve_cycles(terms, pulse, pulse_only, state).final
        prob = dy.EvolutionProblem(terms.h_static, None, None, None,
                                   reset_channels, (0.0, sched.t_r), state)
        state = dy.evolve_lindblad(prob).final
    return state


class TestCycles:
    @pytest.fixture
    def cycle_setup(self):
        model = mo.SingleQubitModel(delta=TWO_PI * 0.35, gamma_q=1e-4,
                                    gamma_r=1e-4)
        terms = mo.build_single_qubit(model)
        pulse = seed_pulse(8, 40.0, TWO_PI * 0.02)
        rate_p, rate_r = mo.pulse_reset_rates(terms, reset_rate=0.03)
        return model, terms, pulse, rate_p, rate_r

    def test_zero_cycles_returns_initial(self, cycle_setup):
        model, terms, pulse, rate_p, rate_r = cycle_setup
        sched = CycleSchedule(40.0, 60.0, rate_p, rate_r, 0)
        initial = hi.basis_state(model.space, (1, 0))
        traj = dy.evolve_cycles(terms, pulse, sched, initial)
        assert len(traj.states) == 1
        assert np.allclose(traj.final.density(), initial.density())

    def test_identity_dynamics_on_static_eigenstate(self, cycle_setup):
        # zero rates and zero pulse leave a static eigenstate unchanged
        model, terms, pulse, _, _ = cycle_setup
        zero_pulse = PulseShape([0.0] * 4, [0.0] * 4, 40.0)
        rates = {"q": 0.0, "r": 0.0}
        sched = CycleSchedule(40.0, 60.0, rates, rates, 2)
        initial = hi.basis_state(model.space, (1, 0))
        traj = dy.evolve_cycles(terms, zero_pulse, sched, initial)
        assert np.max(np.abs(traj.final.density() - initial.density())) < 1e-8

    def test_boundary_records(self, cycle_setup):
        model, terms, pulse, rate_p, rate_r = cycle_setup
        sched = CycleSchedule(40.0, 60.0, rate_p, rate_r, 3)
        traj = dy.evolve_cycles(terms, pulse, sched,
                                hi.basis_state(model.space, (1, 0)))
        assert np.allclose(traj.times,
                           [0, 40, 100, 140, 200, 240, 300])

    def test_expm_reset_matches_rk_reset(self, cycle_setup):
        model, terms, pulse, rate_p, rate_r = cycle_setup
        sched = CycleSchedule(40.0, 60.0, rate_p, rate_r, 2)
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
        rate_p, rate_r = mo.pulse_reset_rates(terms, reset_rate=0.03)
        sched = CycleSchedule(40.0, 60.0, rate_p, rate_r, 1)
        initial = hi.basis_state(model.space, (1, 0, 0, 0, 0, 0))
        a = dy.evolve_cycles(terms, pulse, sched, initial)
        b = rk_reset_cycles(terms, pulse, sched, initial)
        assert np.max(np.abs(a.final.density() - b.density())) < 1e-7

    def test_schedule_pulse_mismatch_rejected(self, cycle_setup):
        model, terms, pulse, rate_p, rate_r = cycle_setup
        sched = CycleSchedule(39.0, 60.0, rate_p, rate_r, 1)
        with pytest.raises(ValueError):
            dy.evolve_cycles(terms, pulse, sched,
                             hi.basis_state(model.space, (1, 0)))

    def test_step_halving_convergence(self, cycle_setup):
        model, terms, pulse, rate_p, rate_r = cycle_setup
        sched = CycleSchedule(40.0, 60.0, rate_p, rate_r, 1)
        initial = hi.basis_state(model.space, (1, 0))
        f = []
        for rtol in (1e-9, 5e-10):
            traj = dy.evolve_cycles(terms, pulse, sched, initial, rtol=rtol)
            f.append(hi.state_fidelity(traj.final, initial))
        assert abs(f[0] - f[1]) < 1e-9


class TestTrajectoryExports:
    def test_csv_round_trip(self, tmp_path):
        traj = dy.Trajectory(
            np.array([0.0, 1.0]),
            [hi.basis_state(hi.TensorSpace((2,)), (0,))] * 2,
            {"pop": np.array([1.0, 0.5])})
        path = tmp_path / "t.csv"
        dy.trajectory_to_csv(traj, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "time_ns,pop"
        assert lines[2].startswith("1,0.5")

    def test_state_dump(self, tmp_path):
        import json
        traj = dy.Trajectory(
            np.array([0.0]),
            [hi.basis_state(hi.TensorSpace((2,)), (1,))])
        path = tmp_path / "s.json"
        dy.dump_states(traj, path)
        recs = json.loads(path.read_text())
        assert recs[0]["pure"] and recs[0]["re"] == [0.0, 1.0]
