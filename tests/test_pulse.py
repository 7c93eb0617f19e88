import numpy as np
import pytest

from aqec import pulse as pu


@pytest.fixture
def pulse():
    return pu.PulseShape(cx=[0.1, 0.02, -0.03], cy=[0.0, 0.01, 0.0], t_p=40.0)


class TestEvaluate:
    def test_zero_at_boundaries(self, pulse):
        assert pu.evaluate(pulse, 0.0) == (0.0, 0.0)
        ox, oy = pu.evaluate(pulse, pulse.t_p)
        assert abs(ox) < 1e-14 and abs(oy) < 1e-14

    def test_first_mode_at_midpoint(self):
        p = pu.PulseShape([0.2, 0.0], [0.0, 0.0], 40.0)
        ox, oy = pu.evaluate(p, 20.0)
        assert ox == pytest.approx(0.2)
        assert oy == 0.0

    def test_second_mode_vanishes_at_midpoint(self):
        p = pu.PulseShape([0.0, 0.3], [0.0, 0.0], 40.0)
        ox, _ = pu.evaluate(p, 20.0)
        assert ox == pytest.approx(0.0, abs=1e-15)

    def test_outside_window_rejected(self, pulse):
        with pytest.raises(ValueError):
            pu.evaluate(pulse, -0.1)
        with pytest.raises(ValueError):
            pu.evaluate(pulse, 40.1)

    def test_linear_in_coefficients(self, pulse):
        scaled = pu.PulseShape([3 * c for c in pulse.cx],
                               [3 * c for c in pulse.cy], pulse.t_p)
        for t in (3.7, 11.0, 29.9):
            ox, oy = pu.evaluate(pulse, t)
            sx, sy = pu.evaluate(scaled, t)
            assert sx == pytest.approx(3 * ox, rel=1e-12)
            assert sy == pytest.approx(3 * oy, rel=1e-12)

    def test_vectorized_matches_scalar(self, pulse):
        # the same sines at every time; a BLAS matrix-vector product sums a
        # row in another order than a lone dot product, so the two agree
        # to the rounding of a few terms of size |c| <= 0.1
        ts = np.linspace(0, 40, 17)
        ox, oy = pu.evaluate(pulse, ts)
        assert ox.shape == oy.shape == ts.shape
        for i, t in enumerate(ts):
            ex, ey = pu.evaluate(pulse, t)
            assert type(ex) is float and type(ey) is float
            assert ox[i] == pytest.approx(ex, abs=1e-16)
            assert oy[i] == pytest.approx(ey, abs=1e-16)

    def test_array_with_one_time_outside_rejected(self, pulse):
        ts = np.linspace(0, 40, 17)
        pu.evaluate(pulse, ts)
        for bad in (-1e-9, 40.0 + 1e-9):
            with pytest.raises(ValueError, match="outside pulse window"):
                pu.evaluate(pulse, np.r_[ts[:5], bad, ts[5:]])

    def test_validation(self):
        with pytest.raises(ValueError):
            pu.PulseShape([], [], 40.0)
        with pytest.raises(ValueError):
            pu.PulseShape([0.1], [0.1, 0.2], 40.0)
        with pytest.raises(ValueError):
            pu.PulseShape([0.1], [0.0], 0.0)


class TestDrive:
    @pytest.mark.parametrize("b", [1, 3], ids=["B1", "B3"])
    def test_matches_evaluate(self, b):
        rng = np.random.default_rng(5)
        t_p = 40.0
        cx = rng.normal(size=(b, 6)) * 0.05
        cy = rng.normal(size=(b, 6)) * 0.05
        out = np.empty(2 * b)
        omega = pu.drive(cx, cy, t_p, out)
        for t in (0.0, t_p / 3, t_p):
            assert omega(t) is out
            for j in range(b):
                ox, oy = pu.evaluate(pu.PulseShape(cx[j], cy[j], t_p), t)
                assert out[j] == pytest.approx(ox, abs=1e-14)
                assert out[b + j] == pytest.approx(oy, abs=1e-14)

    def test_one_row_of_a_pulse(self, pulse):
        omega = pu.drive(pulse.cx, pulse.cy, pulse.t_p, np.empty(2))
        for t in (0.0, pulse.t_p / 3, pulse.t_p):
            assert omega(t) == pytest.approx(pu.evaluate(pulse, t), abs=1e-14)


class TestFiniteCoefficients:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_coefficient_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            pu.PulseShape([0.01, bad], [0.0, 0.0], 40.0)
        with pytest.raises(ValueError, match="finite"):
            pu.PulseShape([0.01, 0.0], [bad, 0.0], 40.0)

    def test_nan_pulse_file_exits_2(self, tmp_path):
        from aqec import cli
        pulse_file = tmp_path / "pulse.json"
        pulse_file.write_text('{"n_modes": 2, "cx": [0.01, NaN], '
                              '"cy": [0.0, 0.0], "t_p_ns": 40.0}\n')
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text(f"""\
[model]
kind = single_qubit
delta = 350 MHz
gamma_q = 0.2 per_us
gamma_r = 0.2 per_us

[schedule]
t_r = 60 ns

[run]
pulse_file = {pulse_file}
""")
        assert cli.main(["evolve", "--config", str(cfg_file),
                         "--out", str(tmp_path / "out")]) == 2


class TestSchedule:
    @pytest.mark.parametrize("field", ["t_r", "reset_rate", "n_cycles"])
    def test_negative_field_rejected(self, field):
        args = {"t_r": 60.0, "reset_rate": 0.03, "n_cycles": 2}
        pu.CycleSchedule(**args)
        with pytest.raises(ValueError, match="nonnegative"):
            pu.CycleSchedule(**{**args, field: -1})


class TestSerialization:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(11)
        pulse = pu.PulseShape(rng.normal(size=20) * 0.1,
                              rng.normal(size=20) * 0.01, 40.0)
        path = tmp_path / "pulse.json"
        pu.save_pulse(pulse, path)
        loaded = pu.load_pulse(path)
        assert loaded.t_p == pulse.t_p
        assert loaded.cx == pulse.cx       # exact float equality
        assert loaded.cy == pulse.cy

    def test_record_fields(self, pulse):
        rec = pu.pulse_record(pulse)
        assert set(rec) == {"n_modes", "cx", "cy", "t_p_ns"}
        assert rec["n_modes"] == 3
