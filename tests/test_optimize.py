import numpy as np
import pytest

from aqec import dynamics as dy
from aqec import hilbert as hi
from aqec import models as mo
from aqec import optimize as op
from aqec.presets import VSLQ_FIXED_TABLE
from aqec.pulse import PulseShape, seed_pulse

TWO_PI = 2 * np.pi


@pytest.fixture(scope="module")
def sq_objective():
    model = mo.SingleQubitModel(delta=TWO_PI * 0.35, gamma_q=0.0, gamma_r=0.0)
    terms = mo.build_single_qubit(model)
    return model, terms, op.make_objective(terms, mo.target_operation(model))


class TestReachableIndices:
    def test_single_qubit_sectors(self, sq_objective):
        model, terms, _ = sq_objective
        sp = model.space
        mats = [terms.h_static.matrix, terms.h_x.matrix, terms.h_y.matrix]
        assert op.reachable_indices(mats, [sp.index_of((0, 0))]) == [
            sp.index_of((0, 0)), sp.index_of((1, 1))]
        assert op.reachable_indices(mats, [sp.index_of((1, 0))]) == [
            sp.index_of((1, 0)), sp.index_of((2, 1))]

    def test_three_qubit_sector_size(self):
        model = mo.ThreeQubitModel(j=TWO_PI * 0.02, gamma_p=0, gamma_r=0)
        terms = mo.build_three_qubit(model)
        mats = [terms.h_static.matrix, terms.h_x.matrix, terms.h_y.matrix]
        idx = op.reachable_indices(mats, [model.space.index_of((1, 0, 0, 0, 0, 0))])
        assert len(idx) == 8

    def test_restriction_matches_full_propagation(self, sq_objective):
        # restricted propagation reproduces full-space amplitudes exactly
        model, terms, obj = sq_objective
        pulse = seed_pulse(6, 40.0, TWO_PI * 0.015)
        fids = op.pair_fidelities(obj, pulse)
        for k, (initial, final, _) in enumerate(obj.target.pairs):
            prob = dy.EvolutionProblem(
                terms.h_static, terms.h_x, terms.h_y,
                lambda t: __import__("aqec.pulse", fromlist=["evaluate"]
                                     ).evaluate(pulse, t),
                (), (0.0, 40.0), initial)
            traj = dy.evolve_unitary(prob)
            full = abs(np.vdot(final.vector(), traj.final.vector())) ** 2
            assert fids[k] == pytest.approx(full, abs=1e-9)


class TestFidelity:
    def test_identity_pair_zero_hamiltonian(self):
        sp = hi.TensorSpace((2, 2))
        zero = hi.Operator(sp, np.zeros((4, 4)))
        terms = mo.ModelTerms(sp, zero, zero, zero, ())
        psi = hi.basis_state(sp, (0, 1))
        target = mo.TargetOperation([(psi, psi, 1.0)])
        obj = op.make_objective(terms, target)
        assert op.fidelity(obj, seed_pulse(4, 10.0, 0.1)) == pytest.approx(1.0)

    def test_orthogonal_pair_zero_hamiltonian(self):
        sp = hi.TensorSpace((2, 2))
        zero = hi.Operator(sp, np.zeros((4, 4)))
        terms = mo.ModelTerms(sp, zero, zero, zero, ())
        target = mo.TargetOperation([
            (hi.basis_state(sp, (0, 1)), hi.basis_state(sp, (1, 0)), 1.0)])
        obj = op.make_objective(terms, target)
        assert op.fidelity(obj, seed_pulse(4, 10.0, 0.1)) == pytest.approx(
            0.0, abs=1e-12)

    def test_in_unit_interval_and_phase_invariant(self, sq_objective):
        model, terms, obj = sq_objective
        rng = np.random.default_rng(3)
        for _ in range(3):
            pulse = PulseShape(rng.normal(size=6) * 0.05,
                               rng.normal(size=6) * 0.05, 40.0)
            f = op.fidelity(obj, pulse)
            assert 0.0 <= f <= 1.0
        # global phase on a target state leaves the fidelity unchanged
        pairs = [(i, hi.QuantumState(f.space, np.exp(1.3j) * f.data), w)
                 for i, f, w in obj.target.pairs]
        obj_phase = op.make_objective(terms, mo.TargetOperation(pairs))
        pulse = seed_pulse(6, 40.0, TWO_PI * 0.01)
        assert op.fidelity(obj_phase, pulse) == pytest.approx(
            op.fidelity(obj, pulse), abs=1e-12)


class TestBatchRhs:
    def test_stacked_rhs_matches_einsum_form(self):
        # oracle: the three-einsum form on (B, P, d) states
        model = mo.VslqModel(w=TWO_PI * 0.035, delta=TWO_PI * 0.35,
                             gamma_p=0.0, gamma_s=0.0)
        obj = op.make_objective(mo.build_vslq(model), mo.target_operation(model))
        rng = np.random.default_rng(7)
        b, n_modes, t_p = 5, 8, 40.0
        cx = rng.normal(size=(b, n_modes)) * 0.05
        cy = rng.normal(size=(b, n_modes)) * 0.05
        rhs = op.coeff_batch_rhs(obj, cx, cy, t_p)
        p, d = obj.psi0.shape
        for t in np.linspace(3.0, 37.0, 5):
            y = rng.normal(size=(b, p, d)) + 1j * rng.normal(size=(b, p, d))
            s = np.sin(np.arange(1, n_modes + 1) * (np.pi * t / t_p))
            ox, oy = cx @ s, cy @ s
            want = np.einsum("pij,bpj->bpi", obj.h0, y)
            want += ox[:, None, None] * np.einsum("pij,bpj->bpi", obj.hx, y)
            want += oy[:, None, None] * np.einsum("pij,bpj->bpi", obj.hy, y)
            want = -1j * want
            got = rhs(t, np.ascontiguousarray(y.transpose(1, 2, 0)))
            err = np.max(np.abs(got.transpose(2, 0, 1) - want))
            assert err < 1e-13 * np.max(np.abs(want))


class TestGradient:
    def test_zero_for_stationary_objective(self):
        # target = initial = eigenstate of h_static, no coupling operators
        sp = hi.TensorSpace((2, 2))
        h0 = hi.Operator(sp, np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex))
        zero = hi.Operator(sp, np.zeros((4, 4)))
        psi = hi.basis_state(sp, (1, 0))
        obj = op.make_objective(mo.ModelTerms(sp, h0, zero, zero, ()),
                                mo.TargetOperation([(psi, psi, 1.0)]))
        gx, gy = op.gradient(obj, seed_pulse(5, 40.0, 0.05))
        assert np.max(np.abs(gx)) < 1e-9
        assert np.max(np.abs(gy)) < 1e-9

    def test_matches_dense_scan_slope(self, sq_objective):
        # oracle: 5-point polynomial fit of F(c1x) around the seed
        _, _, obj = sq_objective
        pulse = seed_pulse(20, 40.0, TWO_PI * 0.02)
        gx, _ = op.gradient(obj, pulse)
        h = 5e-4
        offsets = np.array([-2, -1, 0, 1, 2]) * h
        f_vals = []
        for d in offsets:
            cx = list(pulse.cx)
            cx[0] += d
            f_vals.append(op.fidelity(obj, PulseShape(cx, pulse.cy, 40.0)))
        slope = np.polyfit(offsets, f_vals, 4)[3]
        assert gx[0] == pytest.approx(slope, rel=1e-4)

    def test_odd_y_modes_stationary_at_x_only_seed(self, sq_objective):
        # time reversal about t_p/2 plus conjugation flips odd-mode y
        # coefficients while fixing the odd-mode-x seed, so those gradient
        # components vanish; even modes are not protected
        _, _, obj = sq_objective
        pulse = seed_pulse(20, 40.0, TWO_PI * 0.02)
        _, gy = op.gradient(obj, pulse)
        assert np.max(np.abs(gy[0::2])) < 1e-8     # modes 1, 3, 5, ...
        assert np.max(np.abs(gy[1::2])) > 1e-5     # even modes do move

    def test_epsilon_validation(self, sq_objective):
        _, _, obj = sq_objective
        with pytest.raises(ValueError):
            op.gradient(obj, seed_pulse(4, 40.0, 0.1), epsilon=0.0)


class TestOptimizePulse:
    def test_never_below_initialization(self, sq_objective):
        _, _, obj = sq_objective
        cfg = op.OptimizerConfig(learning_rate=0.02, max_iters=3,
                                 target_fidelity=1.0,
                                 seed_c1x=TWO_PI * 0.02)
        seed_f = op.fidelity(obj, seed_pulse(20, 40.0, cfg.seed_c1x))
        res = op.optimize_pulse(obj, cfg, 20, 40.0)
        assert res.fidelity >= seed_f

    def test_deterministic(self, sq_objective):
        _, _, obj = sq_objective
        cfg = op.OptimizerConfig(learning_rate=0.02, max_iters=4,
                                 target_fidelity=1.0,
                                 seed_c1x=TWO_PI * 0.02)
        a = op.optimize_pulse(obj, cfg, 12, 40.0)
        b = op.optimize_pulse(obj, cfg, 12, 40.0)
        assert a.pulse.cx == b.pulse.cx
        assert a.pulse.cy == b.pulse.cy
        assert a.trace == b.trace

    def test_stops_at_target(self, sq_objective):
        _, _, obj = sq_objective
        cfg = op.OptimizerConfig(learning_rate=0.02, max_iters=500,
                                 target_fidelity=0.9, seed_c1x=TWO_PI * 0.02)
        res = op.optimize_pulse(obj, cfg, 20, 40.0)
        assert res.converged and res.fidelity >= 0.9
        assert res.iterations < 500

    def test_non_convergence_flagged(self, sq_objective):
        _, _, obj = sq_objective
        cfg = op.OptimizerConfig(learning_rate=0.02, max_iters=1,
                                 target_fidelity=0.9999,
                                 seed_c1x=TWO_PI * 0.02)
        res = op.optimize_pulse(obj, cfg, 20, 40.0)
        assert not res.converged
        assert res.fidelity < 0.9999

    def test_stationary_on_converged_problem(self):
        # a fixed point of the loop has a small finite-difference gradient
        sp = hi.TensorSpace((2, 2))
        h0 = hi.Operator(sp, np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex))
        zero = hi.Operator(sp, np.zeros((4, 4)))
        psi = hi.basis_state(sp, (1, 0))
        obj = op.make_objective(mo.ModelTerms(sp, h0, zero, zero, ()),
                                mo.TargetOperation([(psi, psi, 1.0)]))
        cfg = op.OptimizerConfig(learning_rate=0.05, max_iters=50,
                                 target_fidelity=1.0, seed_c1x=0.05)
        res = op.optimize_pulse(obj, cfg, 4, 40.0)
        gx, gy = op.gradient(obj, res.pulse)
        assert max(np.max(np.abs(gx)), np.max(np.abs(gy))) < 1e-6


@pytest.fixture(scope="module")
def scan_setup():
    model = mo.SingleQubitModel(delta=TWO_PI * 0.35, gamma_q=1e-4,
                                gamma_r=1e-4)
    terms = mo.build_single_qubit(model)
    pulse = seed_pulse(8, 40.0, TWO_PI * 0.02)
    target = hi.basis_state(model.space, (1, 0))
    return terms, pulse, target


class TestResetScan:

    def test_single_point_grid(self, scan_setup):
        terms, pulse, target = scan_setup
        scan = op.scan_reset_time(terms, pulse, [60.0], target, 0.03)
        assert scan.best_t_r == 60.0

    def test_monotone_curve_picks_minimum(self, scan_setup):
        terms, pulse, target = scan_setup
        # one clean-start cycle: residual grows with t_r here, so the scan
        # must return the first grid point
        scan = op.scan_reset_time(terms, pulse, [20.0, 80.0, 200.0], target,
                                  0.03)
        assert scan.best_t_r == 20.0
        assert np.all(np.diff(scan.residuals) > 0)

    def test_empty_grid_rejected(self, scan_setup):
        terms, pulse, target = scan_setup
        with pytest.raises(ValueError):
            op.scan_reset_time(terms, pulse, [], target, 0.03)

    def test_multicycle_scan_beats_no_reset(self):
        # over repeated cycles an un-reset lossy channel anti-corrects, so
        # the scanned optimum beats t_r = 0 (evaluated directly)
        model = mo.SingleQubitModel(delta=TWO_PI * 0.35, gamma_q=1e-4,
                                    gamma_r=1e-4)
        terms = mo.build_single_qubit(model)
        pulse = _fig2_like_pulse()
        target = hi.basis_state(model.space, (1, 0))
        scan = op.scan_reset_time(terms, pulse, [10.0, 40.0, 80.0], target,
                                  0.03, n_cycles=15)
        no_reset = op.scan_reset_time(terms, pulse, [0.0], target, 0.03,
                                      n_cycles=15)
        assert scan.best_residual < no_reset.best_residual


def _fig2_like_pulse():
    # short deterministic optimization so the scan sees a sensible pulse
    model = mo.SingleQubitModel(delta=TWO_PI * 0.35, gamma_q=0.0, gamma_r=0.0)
    obj = op.make_objective(mo.build_single_qubit(model),
                            mo.target_operation(model))
    cfg = op.OptimizerConfig(learning_rate=0.02, max_iters=40,
                             target_fidelity=0.995, seed_c1x=TWO_PI * 0.02)
    return op.optimize_pulse(obj, cfg, 20, 40.0).pulse


class TestConstantCoupling:
    def test_t1_ordering_and_bounds(self):
        delta = TWO_PI * 0.35
        p5 = op.optimize_constant_coupling(delta, 5.0)
        p20 = op.optimize_constant_coupling(delta, 20.0)
        assert 0 < p20.residual < p5.residual < 0.1
        assert p5.residual <= p5.residual_steady
        assert p20.residual <= p20.residual_steady


@pytest.mark.slow
class TestFixedParameters:
    def test_lifetime_at_tabulated_point(self):
        w, delta = TWO_PI * 0.035, TWO_PI * 0.35
        t_x = op.vslq_fixed_lifetime(w, delta, 1.0 / 5000.0,
                                     TWO_PI * 2.94e-3, 24.66e-3,
                                     TWO_PI * 0.20975, which="X")
        assert t_x == pytest.approx(117.0, rel=0.15)


@pytest.mark.acceptance
@pytest.mark.parametrize("t1_us", sorted(VSLQ_FIXED_TABLE))
def test_table1_fixed_point_lifetimes(t1_us):
    # every Table 1 row within the 5 % band the benchmark checks against
    omega, gamma_s, omega_s, t_x_paper, t_y_paper = VSLQ_FIXED_TABLE[t1_us]
    args = (TWO_PI * 0.035, TWO_PI * 0.35, 1.0 / (t1_us * 1e3),
            TWO_PI * omega * 1e-3, gamma_s * 1e-3, TWO_PI * omega_s * 1e-3)
    assert op.vslq_fixed_lifetime(*args, which="X") == pytest.approx(
        t_x_paper, rel=0.05)
    assert op.vslq_fixed_lifetime(*args, which="Y") == pytest.approx(
        t_y_paper, rel=0.05)
