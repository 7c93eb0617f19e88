import numpy as np
import pytest

from aqec import analysis as an
from aqec import dynamics as dy
from aqec import hilbert as hi


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
        prob = dy.EvolutionProblem(h0, None, None, None, ((a, gamma),),
                                   (0.0, tau), target)
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
        assert an.improvement_factor(fit, 12.0) == pytest.approx(1.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            an.improvement_factor(-1.0, 5.0)
        with pytest.raises(ValueError):
            an.improvement_factor(1.0, 0.0)
