import numpy as np
import pytest

from aqec import models as mo
from aqec import spectral as spc
from aqec.config import FD_EPSILON, with_overrides
from aqec.presets import preset_config
from aqec.pulse import PulseShape

TWO_PI = 2 * np.pi


class TestDominantFrequency:
    def test_pure_sine_on_bin(self):
        t = np.arange(800) * 0.05
        peak = spc.dominant_frequency(np.sin(TWO_PI * 0.100 * t), 0.05)
        assert peak.frequency_mhz == pytest.approx(100.0, abs=25.0)
        assert peak.power_fraction > 0.9

    def test_off_bin_interpolation(self):
        t = np.arange(1024) * 0.05
        peak = spc.dominant_frequency(np.sin(TWO_PI * 0.1113 * t), 0.05)
        df = 1e3 / (1024 * 0.05)
        assert abs(peak.frequency_mhz - 111.3) < df

    def test_constant_series_peaks_at_zero(self):
        peak = spc.dominant_frequency(np.ones(128), 0.05)
        assert peak.frequency_mhz == 0.0

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            spc.dominant_frequency(np.ones(63), 0.05)

    def test_amplitude_scaling_invariance(self):
        rng = np.random.default_rng(5)
        y = rng.normal(size=256)
        a = spc.dominant_frequency(y, 0.1)
        b = spc.dominant_frequency(100.0 * y, 0.1)
        assert a.frequency_mhz == pytest.approx(b.frequency_mhz)
        assert a.power_fraction == pytest.approx(b.power_fraction)

    def test_below_nyquist(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            y = rng.normal(size=200)
            peak = spc.dominant_frequency(y, 0.05)
            assert 0.0 <= peak.frequency_mhz <= 1e3 / (2 * 0.05)
            assert 0.0 <= peak.power_fraction <= 1.0


class TestCounterterm:
    def test_counterterm_peak_of_known_mode(self):
        # pulse with only mode 9 on t_p = 22.5 ns: frequency 9/(2 t_p)
        cy = [0.0] * 12
        cy[8] = 0.02
        pulse = PulseShape([0.0] * 12, cy, 22.5)
        peak = spc.counterterm_peak(pulse)
        assert peak.frequency_mhz == pytest.approx(9 / (2 * 22.5) * 1e3,
                                                   rel=0.05)

    def test_leakage_probe_zero_without_coupling(self):
        model = mo.SingleQubitModel(delta=TWO_PI * 0.35, gamma_q=0, gamma_r=0)
        terms = mo.build_single_qubit(model)
        silent = PulseShape([0.0] * 4, [0.0] * 4, 20.0)
        assert spc.max_leakage(terms, silent) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.slow
class TestDeltaSweep:
    """fig4's point function, runner._counterterm_point, over three deltas."""

    @pytest.fixture(scope="class")
    def sweep_rows(self):
        from aqec import runner
        cfg = with_overrides(preset_config("fig4"), n_modes=20, t_p=22.0,
                             epsilon=FD_EPSILON, learning_rate=0.02,
                             max_iters=300, target_fidelity=0.9998,
                             seed_c1x=TWO_PI * 0.02)
        deltas = [TWO_PI * 0.10, TWO_PI * 0.20, TWO_PI * 0.35]
        return [runner._counterterm_point(cfg, d, None) for d in deltas]

    def test_peaks_track_nonlinearity(self, sweep_rows):
        peaks = [r["peak_mhz"] for r in sweep_rows]
        assert np.all(np.diff(peaks) > 0)
        for r in sweep_rows:
            assert abs(r["peak_mhz"] - r["delta_mhz"]) <= 0.25 * r["delta_mhz"]

    def test_y_quadrature_suppresses_leakage(self, sweep_rows):
        for r in sweep_rows:
            assert r["max_leakage_with_y"] < r["max_leakage_without_y"]

    def test_fidelities_high(self, sweep_rows):
        for r in sweep_rows:
            assert r["fidelity"] >= 0.9989
