import numpy as np
import pytest

from aqec import analysis as an
from aqec import dynamics as dy
from aqec import hilbert as hi
from test_dynamics import static_problem


class TestResidualError:
    def test_exact_target_gives_zero(self):
        sp = hi.TensorSpace((2,))
        s = hi.basis_state(sp, (1,))
        traj = dy.Trajectory(np.array([0.0]), [s])
        assert an.residual_error(traj, s) == pytest.approx(0.0, abs=1e-14)

    def test_orthogonal_state_gives_one(self):
        sp = hi.TensorSpace((2,))
        traj = dy.Trajectory(np.array([0.0]), [hi.basis_state(sp, (0,))])
        assert an.residual_error(traj, hi.basis_state(sp, (1,))) == \
            pytest.approx(1.0)

    def test_uncorrected_decay_matches_analytic(self):
        # one lossy qubit, no correction: residual after tau is 1 - e^(-G tau)
        sp = hi.TensorSpace((2,))
        a = hi.Operator(sp, hi.ladder(2))
        h0 = hi.Operator(sp, np.zeros((2, 2)))
        target = hi.basis_state(sp, (1,))
        gamma, tau = 5e-4, 140.0
        prob = static_problem(h0, ((a, gamma),), (0.0, tau), target)
        traj = dy.evolve_lindblad(prob)
        assert an.residual_error(traj, target) == pytest.approx(
            1.0 - np.exp(-gamma * tau), abs=1e-6)

    def test_bounded(self):
        sp = hi.TensorSpace((2,))
        rho = np.diag([0.3, 0.7]).astype(complex)
        traj = dy.Trajectory(np.array([0.0]), [hi.QuantumState(sp, rho)])
        r = an.residual_error(traj, hi.basis_state(sp, (1,)))
        assert 0.0 <= r <= 1.0


class TestFitLifetime:
    def test_exact_synthetic(self):
        t = np.linspace(0.0, 30.0, 20)
        fit = an.fit_lifetime(t, np.exp(-t / 7.0))
        assert fit.lifetime == pytest.approx(7.0, abs=1e-6)
        assert fit.amplitude == pytest.approx(1.0, abs=1e-9)
        assert fit.r_squared > 0.999999

    def test_with_offset(self):
        t = np.linspace(0.0, 50.0, 40)
        y = 0.8 * np.exp(-t / 12.0) + 0.1
        fit = an.fit_lifetime(t, y, model="exp_with_offset")
        assert fit.lifetime == pytest.approx(12.0, rel=1e-6)
        assert fit.offset == pytest.approx(0.1, abs=1e-8)

    def test_constant_series_rejected(self):
        t = np.linspace(0.0, 10.0, 10)
        with pytest.raises(ValueError):
            an.fit_lifetime(t, np.full(10, 0.5))

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            an.fit_lifetime([0, 1, 2, 3], [1, 0.9, 0.8, 0.7])

    def test_growing_data_rejected(self):
        t = np.linspace(0.0, 10.0, 12)
        with pytest.raises(ValueError):
            an.fit_lifetime(t, np.exp(t / 5.0))

    def test_scale_equivariance(self):
        t = np.linspace(0.0, 20.0, 25)
        y = np.exp(-t / 4.0) * 0.9 + 0.02
        base = an.fit_lifetime(t, y, model="exp_with_offset")
        for s in (1e-3, 1e3):
            scaled = an.fit_lifetime(t * s, y, model="exp_with_offset")
            assert scaled.lifetime == pytest.approx(base.lifetime * s,
                                                    rel=1e-9)

    def test_unknown_model(self):
        with pytest.raises(ValueError):
            an.fit_lifetime([0, 1, 2, 3, 4], [1, 0.8, 0.6, 0.5, 0.4],
                            model="biexponential")


class TestFitPowerLaw:
    def test_exact_exponent(self):
        x = np.linspace(5.0, 60.0, 10)
        fit = an.fit_power_law(x, x ** -0.81)
        assert fit.exponent == pytest.approx(-0.81, abs=1e-9)
        assert fit.residual < 1e-12

    def test_prefactor(self):
        x = np.array([1.0, 2.0, 4.0, 8.0])
        fit = an.fit_power_law(x, 3.0 * x ** 2)
        assert fit.exponent == pytest.approx(2.0, abs=1e-12)
        assert fit.prefactor == pytest.approx(3.0, rel=1e-12)

    def test_noisy_recovery(self):
        rng = np.random.default_rng(42)
        x = np.linspace(5.0, 60.0, 12)
        y = 0.05 * x ** -0.81 * (1.0 + 0.01 * rng.normal(size=x.size))
        fit = an.fit_power_law(x, y)
        assert fit.exponent == pytest.approx(-0.81, abs=0.03)

    def test_offset_variant(self):
        x = np.linspace(5.0, 60.0, 12)
        y = 0.05 * x ** -0.81 + 0.002
        fit = an.fit_power_law(x, y, with_offset=True)
        assert fit.offset == pytest.approx(0.002, rel=1e-3)
        assert fit.exponent == pytest.approx(-0.81, abs=1e-3)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            an.fit_power_law([1, 2, 3], [1, 2, 3])
        with pytest.raises(ValueError):
            an.fit_power_law([1, 2, 3, -4], [1, 2, 3, 4])
        with pytest.raises(ValueError):
            an.fit_power_law([1, 2, 3, 4], [1, 2, 0, 4])


class TestImprovementFactor:
    def test_published_ratios(self):
        assert an.improvement_factor(2016.0, 30.0) == pytest.approx(67.2)
        assert an.improvement_factor(117.0, 5.0) == pytest.approx(23.4)

    def test_equal_lifetimes(self):
        fit = an.DecayFit(lifetime=12.0, amplitude=1.0, offset=0.0,
                          r_squared=1.0)
        assert an.improvement_factor(fit.lifetime, 12.0) == pytest.approx(1.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            an.improvement_factor(-1.0, 5.0)
        with pytest.raises(ValueError):
            an.improvement_factor(1.0, 0.0)


def _curve_fit_lifetime(t, y, model, **tolerances):
    """The curve_fit decay fit that variable projection replaced, with its
    p0: the log-slope seed, y[0] - b0 and b0."""
    import scipy.optimize

    ts = (t - t[0]) / (t[-1] - t[0])
    b0 = 0.0 if model == "exp" else float(min(0.0, y.min()))
    pos = y - b0 > 1e-300
    slope = np.polyfit(ts[pos], np.log(y[pos] - b0), 1)[0]
    tau0 = float(np.clip(-1.0 / slope if slope < 0 else 10.0, 1e-3, 1e6))
    if model == "exp":
        def f(tt, a, tau):
            return a * np.exp(-tt / tau)
        p0 = (float(y[0]), tau0)
    else:
        def f(tt, a, tau, b):
            return a * np.exp(-tt / tau) + b
        p0 = (float(y[0] - b0), tau0, b0)
    popt, _ = scipy.optimize.curve_fit(f, ts, y, p0=p0, maxfev=20000,
                                       **tolerances)
    resid = y - f(ts, *popt)
    return popt[1] * (t[-1] - t[0]), float(resid @ resid)


def _ssr(t, y, fit):
    model = fit.amplitude * np.exp(-(t - t[0]) / fit.lifetime) + fit.offset
    return float(np.sum((y - model) ** 2))


class TestFitLifetimeOracle:
    @pytest.mark.parametrize("model", ["exp", "exp_with_offset"])
    @pytest.mark.parametrize("seed", range(4))
    def test_noisy_decay_matches_curve_fit(self, model, seed):
        rng = np.random.default_rng(seed)
        t = np.linspace(0.0, 30.0, 40)
        y = 0.9 * np.exp(-t / 8.0) + 1e-3 * rng.normal(size=t.size)
        if model == "exp_with_offset":
            y += 0.05
        fit = an.fit_lifetime(t, y, model=model)
        lifetime, ssr = _curve_fit_lifetime(t, y, model)
        assert fit.lifetime == pytest.approx(lifetime, rel=1e-7)
        assert _ssr(t, y, fit) <= ssr * (1 + 1e-12)

    def test_vslq_fixed_point_window_matches_curve_fit(self, monkeypatch):
        from aqec import models as mo
        from aqec import optimize as op
        from aqec.presets import VSLQ_FIXED_TABLE

        windows = []
        fit_lifetime = an.fit_lifetime

        def recording(times, values, model="exp"):
            windows.append((np.array(times), np.array(values)))
            return fit_lifetime(times, values, model)

        monkeypatch.setattr(an, "fit_lifetime", recording)
        omega, gamma_s, omega_s = VSLQ_FIXED_TABLE[30][:3]
        two_pi = 2 * np.pi
        model = mo.VslqModel(w=two_pi * 0.035, delta=two_pi * 0.35,
                             gamma_p=1.0 / 30e3, gamma_s=gamma_s * 1e-3,
                             omega_s=two_pi * omega_s * 1e-3)
        lifetime, _ = op.vslq_fixed_lifetime(model, two_pi * omega * 1e-3)
        (t, y), _ = windows
        assert lifetime == pytest.approx(_curve_fit_lifetime(t, y, "exp")[0],
                                         rel=1e-7)

    @pytest.mark.parametrize("seed", range(6))
    def test_residual_no_larger_than_converged_curve_fit(self, seed):
        # long lifetimes against the window with an offset leave the
        # residual flat along a valley, where the lifetime is defined only
        # loosely; the least-squares residual is still defined tightly
        rng = np.random.default_rng(seed)
        t = np.sort(rng.uniform(0.0, 50.0, 30))
        t[0] = 0.0
        y = (rng.uniform(0.2, 2.0) * np.exp(-t / rng.uniform(5.0, 250.0))
             + rng.uniform(-0.3, 0.3) + 1e-2 * rng.normal(size=t.size))
        fit = an.fit_lifetime(t, y, model="exp_with_offset")
        _, ssr = _curve_fit_lifetime(t, y, "exp_with_offset", ftol=1e-15,
                                     xtol=1e-15, gtol=1e-15)
        assert _ssr(t, y, fit) <= ssr * (1 + 1e-12)


class TestFitPowerLawOracle:
    @pytest.mark.parametrize("seed", range(4))
    def test_offset_fit_matches_bounded_minimize_scalar(self, seed):
        import scipy.optimize

        rng = np.random.default_rng(seed)
        x = np.array([5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 40.0, 50.0, 60.0])
        y = (0.05 * x ** -0.81 + 0.002) * (1 + 0.02 * rng.normal(size=x.size))
        span = y.max() - y.min()

        def cost(c):
            lx, ly = np.log(x), np.log(y - c)
            resid = ly - np.polyval(np.polyfit(lx, ly, 1), lx)
            return float(np.sqrt(np.mean(resid ** 2)))

        # the cost can have several minima (seed 3 has two): a global
        # reference scans the bracket finely, then lets bounded Brent
        # refine inside the best cell
        grid = np.linspace(y.min() - span, y.min() * (1 - 1e-9), 20_001)
        k = int(np.argmin([cost(c) for c in grid]))
        res = scipy.optimize.minimize_scalar(
            cost, bounds=(grid[max(k - 1, 0)], grid[min(k + 1, grid.size - 1)]),
            method="bounded", options={"xatol": y.min() * 1e-12 + 1e-300})
        c = res.x if cost(res.x) < cost(0.0) else 0.0
        lx, ly = np.log(x), np.log(y - c)
        exponent = np.polyfit(lx, ly, 1)[0]
        fit = an.fit_power_law(x, y, with_offset=True)
        assert fit.exponent == pytest.approx(exponent, rel=1e-6)
        assert fit.residual <= cost(c) * (1 + 1e-9)

    def test_offset_fit_finds_the_deep_minimum_of_fig3_residuals(self):
        # the pulse-reset residuals of the benchmark's fig3 reference: the
        # offset cost has a shallow minimum at the bracket's lower edge and
        # a deep one near c = 5.7e-4, which a single golden search missed
        # (it returned c = 0, exponent -0.848, residual 0.034)
        x = np.array([5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 40.0, 50.0, 60.0])
        y = np.array([0.0140691091075, 0.00735114461315, 0.00509973944523,
                      0.00397176022816, 0.00329424276797, 0.00284225999731,
                      0.0022769387364, 0.00193756303674, 0.00171123630309])
        fit = an.fit_power_law(x, y, with_offset=True)
        assert fit.offset == pytest.approx(5.70e-4, rel=1e-3)
        assert fit.exponent == pytest.approx(-0.995, abs=1e-3)
        assert fit.residual < 3e-4
        assert fit.residual < an.fit_power_law(x, y).residual / 100


class TestFitsRaiseValueError:
    def test_fit_lifetime_rejects_nan_and_inf(self):
        t = np.linspace(0.0, 10.0, 8)
        y = np.exp(-t / 3.0)
        for bad_t, bad_y in ((t, np.where(t == t[3], np.nan, y)),
                             (np.where(t == t[-1], np.inf, t), y)):
            with pytest.raises(ValueError, match="finite"):
                an.fit_lifetime(bad_t, bad_y)

    def test_fit_lifetime_rejects_times_not_strictly_increasing(self):
        # exp(-t/3) with its interior times reversed fits T = 6.6 at
        # r^2 = 0.11, and with a repeated time T = 2.8, if the order goes
        # unchecked
        t = np.linspace(0.0, 10.0, 8)
        y = np.exp(-t / 3.0)
        shuffled = np.r_[t[0], t[1:-1][::-1], t[-1]]
        repeated = np.where(t == t[4], t[3], t)
        for bad_t in (shuffled, repeated):
            with pytest.raises(ValueError, match="strictly increasing"):
                an.fit_lifetime(bad_t, y)

    @pytest.mark.parametrize("with_offset", [False, True])
    def test_fit_power_law_rejects_nan_and_inf(self, with_offset):
        x = np.array([5.0, 10.0, 20.0, 40.0, 60.0])
        y = 0.05 * x ** -0.8
        for bad_x, bad_y in ((x, np.where(x == 20.0, np.nan, y)),
                             (np.where(x == 60.0, np.inf, x), y)):
            with pytest.raises(ValueError, match="finite"):
                an.fit_power_law(bad_x, bad_y, with_offset=with_offset)

    def test_offset_fit_of_constant_data_raises_value_error(self):
        # y - c must stay positive, so constant y leaves no offset to search
        with pytest.raises(ValueError, match="empty search interval"):
            an.fit_power_law([1.0, 2.0, 3.0, 4.0], [0.3] * 4, with_offset=True)

    def test_decay_without_interior_minimum_raises_value_error(self):
        # all weight in the first sample: the residual keeps falling as the
        # decay rate grows, so no finite rate minimizes it
        with pytest.raises(ValueError, match="no interior minimum"):
            an.fit_lifetime(np.arange(6.0), [1.0, 0, 0, 0, 0, 0])
