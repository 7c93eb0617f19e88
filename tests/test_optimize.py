import numpy as np
import pytest
import scipy.linalg

from aqec import dynamics as dy
from aqec import hilbert as hi
from aqec import models as mo
from aqec import optimize as op
from aqec.config import FD_EPSILON, with_overrides
from aqec.presets import VSLQ_FIXED_TABLE, preset_config
from aqec.pulse import CycleSchedule, PulseShape, seed_pulse
from test_dynamics import lindblad_superoperator

TWO_PI = 2 * np.pi


def _settings(n_modes, t_p, **optimizer):
    """A config carrying pulse and optimizer settings; optimize_pulse takes
    the model from the objective, not from here."""
    return with_overrides(preset_config("fig2"), n_modes=n_modes, t_p=t_p,
                          epsilon=FD_EPSILON, **optimizer)


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

    @pytest.mark.parametrize("preset", ["fig2", "fig5", "fig6"])
    def test_exact_zeros_match_a_1e_14_floor(self, preset):
        # the sectors are read from exact nonzeros, as dynamics._occupied
        # reads them; on sq, tq and VSLQ no Hamiltonian or target-state
        # entry lies in (0, 1e-14], so a 1e-14 floor gives the same sectors
        # and the same Objective
        model = preset_config(preset).model()
        terms = mo.build(model)
        arrays = [terms.h_static.matrix, terms.h_x.matrix, terms.h_y.matrix]
        arrays += [s.vector() for pair in mo.target_operation(model).pairs
                   for s in pair[:2]]
        for a in arrays:
            assert np.array_equal(a != 0, np.abs(a) > 1e-14)

    def test_restriction_matches_full_propagation(self, sq_objective):
        # restricted propagation reproduces full-space amplitudes exactly
        model, terms, obj = sq_objective
        pulse = seed_pulse(6, 40.0, TWO_PI * 0.015)
        fids = op.pair_fidelities(obj, pulse)
        for k, (initial, final, _) in enumerate(
                mo.target_operation(model).pairs):
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
                 for i, f, w in mo.target_operation(model).pairs]
        obj_phase = op.make_objective(terms, mo.TargetOperation(pairs))
        pulse = seed_pulse(6, 40.0, TWO_PI * 0.01)
        assert op.fidelity(obj_phase, pulse) == pytest.approx(
            op.fidelity(obj, pulse), abs=1e-12)


# the decoherence-free model of each kind that the ascent runs on
OBJECTIVE_MODELS = {
    "sq": lambda: mo.SingleQubitModel(delta=TWO_PI * 0.35, gamma_q=0.0,
                                      gamma_r=0.0),
    "vslq": lambda: mo.VslqModel(w=TWO_PI * 0.035, delta=TWO_PI * 0.35,
                                 gamma_p=0.0, gamma_s=0.0),
    "tq": lambda: mo.ThreeQubitModel(j=TWO_PI * 0.02, gamma_p=0.0,
                                     gamma_r=0.0),
}


class TestBatchRhs:
    @pytest.mark.parametrize("b", [1, 5], ids=["B1", "B5"])
    @pytest.mark.parametrize("kind", list(OBJECTIVE_MODELS))
    def test_stacked_rhs_matches_einsum_form(self, kind, b):
        # oracle: the three-einsum form on (B, P, d) states
        model = OBJECTIVE_MODELS[kind]()
        obj = op.make_objective(mo.build(model), mo.target_operation(model))
        rng = np.random.default_rng(7)
        n_modes, t_p = 8, 40.0
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
        cfg = _settings(20, 40.0, learning_rate=0.02, max_iters=3,
                        target_fidelity=1.0, seed_c1x=TWO_PI * 0.02)
        seed_f = op.fidelity(obj, seed_pulse(20, 40.0, cfg.seed_c1x))
        res = op.optimize_pulse(obj, cfg)
        assert res.fidelity >= seed_f

    def test_deterministic(self, sq_objective):
        _, _, obj = sq_objective
        cfg = _settings(12, 40.0, learning_rate=0.02, max_iters=4,
                        target_fidelity=1.0, seed_c1x=TWO_PI * 0.02)
        a = op.optimize_pulse(obj, cfg)
        b = op.optimize_pulse(obj, cfg)
        assert a.pulse.cx == b.pulse.cx
        assert a.pulse.cy == b.pulse.cy
        assert a.trace == b.trace

    def test_stops_at_target(self, sq_objective):
        _, _, obj = sq_objective
        cfg = _settings(20, 40.0, learning_rate=0.02, max_iters=500,
                        target_fidelity=0.9, seed_c1x=TWO_PI * 0.02)
        res = op.optimize_pulse(obj, cfg)
        assert res.converged and res.fidelity >= 0.9
        assert res.iterations < 500
        assert res.stop_reason == "target_reached"
        # the carried pair fidelities are those of the returned pulse
        pairs = op.pair_fidelities(obj, res.pulse)
        assert np.array_equal(res.pair_fidelities, pairs)
        assert res.fidelity == float(np.dot(obj.weights, pairs))

    def test_non_convergence_flagged(self, sq_objective):
        _, _, obj = sq_objective
        cfg = _settings(20, 40.0, learning_rate=0.02, max_iters=1,
                        target_fidelity=0.9999, seed_c1x=TWO_PI * 0.02)
        res = op.optimize_pulse(obj, cfg)
        assert not res.converged
        assert res.fidelity < 0.9999
        assert res.stop_reason == "iteration_cap"

    def test_stop_reason_stationary(self):
        # no coupling: F = 0 for every pulse, so no step improves it
        sp = hi.TensorSpace((2, 2))
        h0 = hi.Operator(sp, np.diag([0.0, 0.01, 0.02, 0.03]).astype(complex))
        zero = hi.Operator(sp, np.zeros((4, 4)))
        obj = op.make_objective(
            mo.ModelTerms(sp, h0, zero, zero, ()),
            mo.TargetOperation([(hi.basis_state(sp, (1, 0)),
                                 hi.basis_state(sp, (0, 1)), 1.0)]))
        cfg = _settings(4, 40.0, learning_rate=0.05, max_iters=50,
                        target_fidelity=0.9, seed_c1x=0.05)
        res = op.optimize_pulse(obj, cfg)
        assert res.stop_reason == "stationary"
        assert res.iterations == 1 and not res.converged

    def test_stationary_on_converged_problem(self):
        # a fixed point of the loop has a small finite-difference gradient
        sp = hi.TensorSpace((2, 2))
        h0 = hi.Operator(sp, np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex))
        zero = hi.Operator(sp, np.zeros((4, 4)))
        psi = hi.basis_state(sp, (1, 0))
        obj = op.make_objective(mo.ModelTerms(sp, h0, zero, zero, ()),
                                mo.TargetOperation([(psi, psi, 1.0)]))
        cfg = _settings(4, 40.0, learning_rate=0.05, max_iters=50,
                        target_fidelity=1.0, seed_c1x=0.05)
        res = op.optimize_pulse(obj, cfg)
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

    @pytest.mark.parametrize("n_cycles", [1, 3])
    def test_shared_pulse_phase_matches_per_t_r_cycles(self, scan_setup,
                                                      n_cycles):
        # oracle: one full evolve_cycles run per grid point
        terms, pulse, target = scan_setup
        grid = [0.0, 20.0, 60.0, 400.0]
        want = _per_t_r_residuals(terms, pulse, grid, target, 0.03, n_cycles)
        scan = op.scan_reset_time(terms, pulse, grid, target, 0.03,
                                  n_cycles=n_cycles)
        assert np.max(np.abs(scan.residuals - want)) <= 1e-12

    def test_shared_pulse_phase_matches_per_t_r_cycles_vslq(self):
        model = mo.VslqModel(w=TWO_PI * 0.035, delta=TWO_PI * 0.35,
                             gamma_p=1 / 30000, gamma_s=0.0)
        terms = mo.build_vslq(model)
        pulse = seed_pulse(8, 40.0, TWO_PI * 0.01)
        target = mo.vslq_logical_states(model)["0L"]
        grid = [20.0, 60.0]
        want = _per_t_r_residuals(terms, pulse, grid, target, 0.035, 1)
        scan = op.scan_reset_time(terms, pulse, grid, target, 0.035)
        assert np.max(np.abs(scan.residuals - want)) <= 1e-12

    def test_one_pulse_phase_per_single_cycle_scan(self, scan_setup,
                                                   monkeypatch):
        # work counter: 4 grid points share one pulse-phase integration
        terms, pulse, target = scan_setup
        calls = []
        integrate = dy.adaptive_rk

        def counted(*args, **kwargs):
            calls.append(1)
            return integrate(*args, **kwargs)

        monkeypatch.setattr(dy, "adaptive_rk", counted)
        op.scan_reset_time(terms, pulse, [20.0, 40.0, 60.0, 80.0], target, 0.03)
        assert len(calls) == 1

    def test_rejects_zero_cycles_and_negative_t_r(self, scan_setup):
        terms, pulse, target = scan_setup
        with pytest.raises(ValueError):
            op.scan_reset_time(terms, pulse, [20.0], target, 0.03, n_cycles=0)
        with pytest.raises(ValueError):
            op.scan_reset_time(terms, pulse, [20.0, -1.0], target, 0.03)


def _per_t_r_residuals(terms, pulse, grid, target, reset_rate, n_cycles):
    out = []
    for t_r in grid:
        schedule = CycleSchedule(t_r, reset_rate, n_cycles)
        final = dy.evolve_cycles(terms, pulse, schedule, target).final
        out.append(1.0 - hi.state_fidelity(final, target))
    return np.array(out)


def _fig2_like_pulse():
    # short deterministic optimization so the scan sees a sensible pulse
    model = mo.SingleQubitModel(delta=TWO_PI * 0.35, gamma_q=0.0, gamma_r=0.0)
    obj = op.make_objective(mo.build_single_qubit(model),
                            mo.target_operation(model))
    cfg = _settings(20, 40.0, learning_rate=0.02, max_iters=40,
                    target_fidelity=0.995, seed_c1x=TWO_PI * 0.02)
    return op.optimize_pulse(obj, cfg).pulse


class TestConstantCoupling:
    def test_t1_ordering_and_bounds(self):
        p5 = op.optimize_constant_coupling(*_cc_problem(5.0))
        p20 = op.optimize_constant_coupling(*_cc_problem(20.0))
        assert 0 < p20.residual < p5.residual < 0.1
        assert p5.residual <= p5.residual_steady
        assert p20.residual <= p20.residual_steady

    def test_labelling_does_not_grow_with_the_descent(self, monkeypatch):
        # the point labels its sectors twice, once for the cost's batch
        # build and once for steady_state, however many batches of cost
        # evaluations the descent makes
        labelled, evaluated = [], []
        label, batch = dy.sector_labels, op.constant_lindblad_batch

        def counted_batch(*args):
            final = batch(*args)
            return lambda coeffs: evaluated.append(1) or final(coeffs)

        monkeypatch.setattr(dy, "sector_labels",
                            lambda *args: labelled.append(1) or label(*args))
        monkeypatch.setattr(op, "constant_lindblad_batch", counted_batch)
        op.optimize_constant_coupling(*_cc_problem(20.0))
        assert len(labelled) == 2
        assert len(evaluated) > 10

    def test_residual_point_builds_the_terms_once(self, monkeypatch):
        # the pulse-reset scan and the constant-coupling baseline run on
        # the point's one model: its terms are built once and go to both
        from pathlib import Path

        from aqec import runner
        from aqec.pulse import load_pulse

        builds, seen = [], {}
        build = mo.build_single_qubit
        monkeypatch.setattr(mo, "build_single_qubit",
                            lambda m: builds.append(m) or build(m))

        def spy(name):
            real = getattr(op, name)

            def call(terms, *args, **kwargs):
                seen[name] = terms
                return real(terms, *args, **kwargs)
            return call

        for name in ("scan_reset_time", "optimize_constant_coupling"):
            monkeypatch.setattr(op, name, spy(name))
        pulse = load_pulse(Path(__file__).resolve().parents[1] / "perfbench"
                           / "data" / "fig2_pulse.json")
        cfg = runner._with_t1(
            with_overrides(preset_config("fig3"), t_r_grid=(40.0,)), 20e3)
        row = runner._residual_point(cfg, 20e3, pulse)
        assert builds == [cfg.model()]
        assert seen["scan_reset_time"] is seen["optimize_constant_coupling"]
        assert 0 < row["pulse_reset_residual"] < row["constant_residual"]


def _cc_problem(t1_us):
    model = mo.SingleQubitModel(delta=TWO_PI * 0.35,
                                gamma_q=1.0 / (t1_us * 1e3), gamma_r=0.0)
    terms = mo.build_single_qubit(model)
    return terms, hi.basis_state(model.space, (1, 0))


def _cc_residual(terms, target, omega, gamma_r):
    """1 - F after the settling window, by one exact constant evolution."""
    final = dy.evolve_constant_lindblad(
        terms.h_static + omega * terms.h_x, mo.phase_channels(terms, gamma_r),
        target, [0.0, op.CC_WINDOW_US * 1e3]).final
    return 1.0 - hi.state_fidelity(final, target)


def _sequential_constant_coupling(t1_us):
    """The one-point-at-a-time search that the batched one replaces."""
    terms, target = _cc_problem(t1_us)

    def cost(logx):
        return _cc_residual(terms, target, np.exp(logx[0]), np.exp(logx[1]))

    grid_omega = np.log(TWO_PI * 1e-3 * np.array([0.5, 1, 2, 4, 8, 16]))
    grid_gamma = np.log(1e-3 * np.array([1, 3, 10, 30, 100, 300]))
    best = None
    for lo in grid_omega:
        for lg in grid_gamma:
            r = cost([lo, lg])
            if best is None or r < best[0]:
                best = (r, lo, lg)
    x = np.array([best[1], best[2]])
    f_cur = best[0]
    step = 0.25
    h_rel = 0.02
    for _ in range(op.CC_MAX_ITERS):
        g = np.zeros(2)
        for i in range(2):
            dx = np.zeros(2)
            dx[i] = h_rel
            g[i] = (cost(x + dx) - cost(x - dx)) / (2 * h_rel)
        norm = np.linalg.norm(g)
        if norm == 0:
            break
        moved = False
        while step > 1e-4:
            x_try = x - step * g / norm
            f_try = cost(x_try)
            if f_try < f_cur:
                x, f_cur = x_try, f_try
                moved = True
                step = min(step * 1.5, 0.5)
                break
            step *= 0.5
        if not moved:
            break
    omega, gamma_r = float(np.exp(x[0])), float(np.exp(x[1]))
    rho = dy.steady_state(terms.h_static + omega * terms.h_x,
                          mo.phase_channels(terms, gamma_r))
    return omega, gamma_r, f_cur, 1.0 - hi.state_fidelity(rho, target)


class TestConstantCouplingBatch:
    """The batched search against the per-point evolutions it replaces."""

    @pytest.mark.parametrize("t1_us", [5.0, 60.0])
    def test_batch_matches_constant_evolution(self, t1_us):
        terms, target = _cc_problem(t1_us)
        primary = [(c.op, c.rate) for c in terms.channels if not c.lossy]
        lossy = [(c.op, 1.0) for c in terms.channels if c.lossy]
        final = dy.constant_lindblad_batch(
            [(terms.h_static, primary), (terms.h_x, ()),
             (0.0 * terms.h_static, lossy)], target, op.CC_WINDOW_US * 1e3)
        omegas = TWO_PI * 1e-3 * np.array(op.CC_GRID_OMEGA_MHZ)
        gammas = 1e-3 * np.array(op.CC_GRID_GAMMA_PER_US)
        rng = np.random.default_rng(int(t1_us))
        points = [(w, g) for w in omegas[[0, -1]] for g in gammas[[0, -1]]]
        points += list(zip(np.exp(rng.uniform(*np.log(omegas[[0, -1]]), 3)),
                           np.exp(rng.uniform(*np.log(gammas[[0, -1]]), 3))))
        rhos = final(np.array([(1.0, w, g) for w, g in points]))
        t = op.CC_WINDOW_US * 1e3
        for (w, g), rho in zip(points, rhos):
            h = terms.h_static + w * terms.h_x
            channels = mo.phase_channels(terms, g)
            want = dy.evolve_constant_lindblad(h, channels, target,
                                               [0.0, t]).final.data
            assert np.max(np.abs(rho - want)) <= 1e-12
            # the batch and evolve_constant_lindblad share one propagator
            # builder: the dense d^2 x d^2 expm shares none of it
            s = lindblad_superoperator(
                h.matrix, [(c.matrix, r) for c, r in channels])
            want = scipy.linalg.expm(s * t) @ target.density().reshape(-1)
            assert np.max(np.abs(rho.reshape(-1) - want)) <= 1e-12

    @pytest.mark.parametrize("t1_us", [5.0, 20.0])
    def test_descent_matches_sequential_search(self, t1_us):
        got = op.optimize_constant_coupling(*_cc_problem(t1_us))
        want = _sequential_constant_coupling(t1_us)
        assert (got.omega, got.gamma_r, got.residual,
                got.residual_steady) == pytest.approx(want, rel=1e-6)

    def test_integrity_gate_on_every_evaluated_density(self, monkeypatch):
        real = scipy.linalg.expm
        monkeypatch.setattr(scipy.linalg, "expm",
                            lambda a: real(a) * (1.0 + 1e-6))
        with pytest.raises(dy.IntegrityError, match="trace drift"):
            op.optimize_constant_coupling(*_cc_problem(20.0))


@pytest.mark.slow
class TestFixedParameters:
    def test_lifetime_at_tabulated_point(self):
        w, delta = TWO_PI * 0.035, TWO_PI * 0.35
        model = mo.VslqModel(w=w, delta=delta, gamma_p=1.0 / 5000.0,
                             gamma_s=24.66e-3, omega_s=TWO_PI * 0.20975)
        t_x, _ = op.vslq_fixed_lifetime(model, TWO_PI * 2.94e-3)
        assert t_x == pytest.approx(117.0, rel=0.15)


@pytest.mark.acceptance
@pytest.mark.parametrize("t1_us", sorted(VSLQ_FIXED_TABLE))
def test_table1_fixed_point_lifetimes(t1_us):
    # every Table 1 row within the 5 % band the benchmark checks against
    omega, gamma_s, omega_s, t_x_paper, t_y_paper = VSLQ_FIXED_TABLE[t1_us]
    model = mo.VslqModel(w=TWO_PI * 0.035, delta=TWO_PI * 0.35,
                         gamma_p=1.0 / (t1_us * 1e3), gamma_s=gamma_s * 1e-3,
                         omega_s=TWO_PI * omega_s * 1e-3)
    t_x, t_y = op.vslq_fixed_lifetime(model, TWO_PI * omega * 1e-3)
    assert t_x == pytest.approx(t_x_paper, rel=0.05)
    assert t_y == pytest.approx(t_y_paper, rel=0.05)
