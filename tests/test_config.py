import json
import subprocess
import sys

import numpy as np
import pytest

from aqec import config as cf
from aqec import presets as pr

TWO_PI = 2 * np.pi

MINIMAL = """\
[model]
kind = single_qubit
delta = 350 MHz
gamma_q = 0.2 per_us
gamma_r = 0.2 per_us
"""


class TestParsing:
    def test_unit_conversion_mhz(self):
        cfg = cf.parse_config(MINIMAL)
        assert dict(cfg.model_params)["delta"] == pytest.approx(
            TWO_PI * 0.350)

    def test_unit_conversion_per_us(self):
        text = MINIMAL.replace("kind = single_qubit", "kind = vslq").replace(
            "delta = 350 MHz", "w = 35 MHz\ndelta = 350 MHz").replace(
            "gamma_q = 0.2 per_us", "gamma_p = 0.2 per_us").replace(
            "gamma_r = 0.2 per_us", "gamma_s = 35 per_us")
        cfg = cf.parse_config(text)
        assert dict(cfg.model_params)["gamma_s"] == pytest.approx(0.035)

    def test_time_units(self):
        cfg = cf.parse_config(MINIMAL + "\n[pulse]\nt_p = 0.04 us\n")
        assert cfg.t_p == pytest.approx(40.0)

    def test_missing_model_section(self):
        with pytest.raises(cf.ConfigError, match="model"):
            cf.parse_config("[pulse]\nn_modes = 20\n")

    def test_unknown_key_with_line_number(self):
        bad = MINIMAL + "quux = 3 MHz\n"
        with pytest.raises(cf.ConfigError, match="line 6"):
            cf.parse_config(bad)

    def test_missing_unit_suffix(self):
        bad = MINIMAL.replace("350 MHz", "350")
        with pytest.raises(cf.ConfigError, match="unit"):
            cf.parse_config(bad)

    def test_wrong_unit_kind(self):
        bad = MINIMAL.replace("350 MHz", "350 ns")
        with pytest.raises(cf.ConfigError, match="expected afreq"):
            cf.parse_config(bad)

    def test_out_of_range_value(self):
        bad = MINIMAL + "\n[optimizer]\ntarget_fidelity = 1.5\n"
        with pytest.raises(cf.ConfigError):
            cf.parse_config(bad)

    def test_duplicate_key(self):
        bad = MINIMAL + "delta = 100 MHz\n"
        with pytest.raises(cf.ConfigError, match="duplicate"):
            cf.parse_config(bad)

    def test_comments_and_blank_lines(self):
        text = "# header\n\n" + MINIMAL + "   # trailing section comment\n"
        assert cf.parse_config(text).model_kind == "single_qubit"

    def test_sweep_list(self):
        cfg = cf.parse_config(MINIMAL + "\n[sweep]\nt1 = 5 10 20 us\n")
        assert cfg.sweep_t1 == (5e3, 10e3, 20e3)


class TestRoundTrip:
    @pytest.mark.parametrize("name", pr.list_presets())
    def test_presets_round_trip(self, name):
        cfg = pr.preset_config(name)
        assert cf.parse_config(cf.write_config(cfg)) == cfg

    def test_hash_stability(self):
        cfg = cf.parse_config(MINIMAL)
        assert cf.config_hash(cfg) == cf.config_hash(
            cf.parse_config(cf.write_config(cfg)))

    def test_hash_sensitivity(self):
        a = cf.parse_config(MINIMAL)
        b = cf.parse_config(MINIMAL.replace("350", "349"))
        assert cf.config_hash(a) != cf.config_hash(b)


class TestWorkers:
    def test_explicit_wins(self, tmp_path, monkeypatch):
        # the pool gets cfg.workers; a command's workers argument overrides it
        from aqec import runner

        def pool_map(fn, items, workers):
            raise _PoolCalled(workers)

        monkeypatch.setattr(runner, "_pool_map", pool_map)
        cfg = cf.with_overrides(cf.parse_config(VSLQ), workers=2,
                                sweep_t1=(5e3,), sweep_mode="fixed_lifetimes")
        for workers, handed in ((None, 2), (3, 3)):
            with pytest.raises(_PoolCalled) as got:
                runner.cmd_sweep(cfg, tmp_path / str(handed), workers)
            assert got.value.args == (handed,)


TINY_RUN = MINIMAL + """
[pulse]
n_modes = 6
t_p = 40 ns

[optimizer]
learning_rate = 0.02
max_iters = 30
target_fidelity = 0.98

[schedule]
t_r_grid = 20 60 ns
reset_rate = 30 per_us

[sweep]
t1 = 8 20 us
mode = residual

[run]
workers = 1
"""


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    from aqec import runner
    out = tmp_path_factory.mktemp("run1")
    cfg = cf.parse_config(TINY_RUN)
    result = runner.cmd_sweep(cfg, out, workers=1)
    return cfg, out, result


class TestRunnerOutputs:
    def test_manifest_lists_every_output(self, tiny_run):
        cfg, out, _ = tiny_run
        manifest = json.loads((out / "manifest.json").read_text())
        listed = {e["path"] for e in manifest["outputs"]}
        on_disk = {p.name for p in out.iterdir()} - {"manifest.json"}
        assert listed == on_disk
        assert manifest["config_hash"] == cf.config_hash(cfg)

    def test_optimize_summary_records_regime_warnings(self, tiny_run):
        import warnings

        from aqec import models as mo
        from aqec.pulse import load_pulse
        cfg, out, _ = tiny_run
        summary = json.loads((out / "optimize_summary.json").read_text())
        peak = load_pulse(out / "pulse.json").peak_coupling()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            expected = mo.check_coupling_regime(cfg.model(), peak)
        assert summary["regime_warnings"] == expected

    def test_optimize_summary_records_stop_reason(self, tiny_run):
        _, out, _ = tiny_run
        summary = json.loads((out / "optimize_summary.json").read_text())
        assert summary["stop_reason"] in {"target_reached", "stationary",
                                          "iteration_cap"}
        assert (summary["stop_reason"] == "target_reached") == summary["converged"]

    def test_sweep_rows_sorted(self, tiny_run):
        _, out, result = tiny_run
        t1s = [r["t1_us"] for r in result["rows"]]
        assert t1s == sorted(t1s)

    def test_residuals_csv_schema(self, tiny_run):
        _, out, _ = tiny_run
        lines = (out / "residuals.csv").read_text().splitlines()
        assert lines[0].startswith("t1_us,pulse_reset_residual")
        assert len(lines) == 3

    def test_worker_count_does_not_change_bytes(self, tiny_run,
                                                tmp_path_factory):
        from aqec import runner
        cfg, out, _ = tiny_run
        out2 = tmp_path_factory.mktemp("run2")
        runner.cmd_sweep(cfg, out2, workers=2)
        assert (out / "residuals.csv").read_bytes() == \
            (out2 / "residuals.csv").read_bytes()

    def test_rerun_identical_numeric_outputs(self, tiny_run,
                                             tmp_path_factory):
        from aqec import runner
        cfg, out, _ = tiny_run
        out3 = tmp_path_factory.mktemp("run3")
        runner.cmd_sweep(cfg, out3, workers=1)
        assert (out / "residuals.csv").read_bytes() == \
            (out3 / "residuals.csv").read_bytes()
        assert (out / "exponents.json").read_bytes() == \
            (out3 / "exponents.json").read_bytes()

    def test_evolve_summary_observables_are_the_csv_last_row(self, tmp_path):
        # both at 12 significant digits, so the summary is as reproducible
        # across BLAS thread counts as the CSV
        from aqec import runner
        from aqec.pulse import PulseShape, save_pulse
        pulse_file = tmp_path / "pulse.json"
        save_pulse(PulseShape([0.0123456789, 0.0], [0.0, 0.00234567], 40.0),
                   pulse_file)
        cfg = cf.with_overrides(cf.parse_config(MINIMAL), t_r=60.0,
                                n_cycles=2, pulse_file=str(pulse_file))
        runner.cmd_evolve(cfg, tmp_path / "out")
        header, *_, last = (tmp_path / "out" / "trajectory.csv"
                            ).read_text().splitlines()
        row = dict(zip(header.split(","), map(float, last.split(","))))
        summary = json.loads(
            (tmp_path / "out" / "evolve_summary.json").read_text())
        assert summary["observables"] == {k: v for k, v in row.items()
                                          if k != "time_ns"}
        assert summary["final_time_ns"] == row["time_ns"]

    def test_short_sweep_marks_exponents_not_fitted(self, tiny_run):
        _, out, result = tiny_run
        exps = json.loads((out / "exponents.json").read_text())
        fit_keys = {"pulse_reset", "pulse_reset_with_offset", "constant"}
        assert set(exps) == fit_keys | {"not_fitted"}
        assert all(exps[k] is None for k in fit_keys)
        assert exps["not_fitted"].startswith("2 T1 points")
        assert result["exponents"] == exps

    def test_empty_sweep_axis_rejected(self, tmp_path):
        from aqec import runner
        cfg = cf.parse_config(MINIMAL)
        with pytest.raises(ValueError, match="non-empty"):
            runner.cmd_sweep(cfg, tmp_path)


class TestScanResetCommand:
    def test_writes_scan_curve(self, tmp_path):
        from aqec import runner
        cfg = cf.parse_config(TINY_RUN)
        cfg = cf.with_overrides(cfg, sweep_t1=(10e3,), sweep_mode="default")
        res = runner.cmd_scan_reset(cfg, tmp_path)
        lines = (tmp_path / "scan.csv").read_text().splitlines()
        assert len(lines) == 1 + 2          # header + 2 grid points
        assert len(res["best"]) == 1

    def test_honours_n_cycles(self, tmp_path):
        from aqec import hilbert as hi
        from aqec import models as mo
        from aqec import optimize as op
        from aqec import runner
        from aqec.pulse import save_pulse, seed_pulse
        pulse = seed_pulse(6, 40.0, TWO_PI * 0.02)
        save_pulse(pulse, tmp_path / "pulse.json")
        cfg = cf.with_overrides(cf.parse_config(TINY_RUN), sweep_t1=(10e3,),
                                sweep_mode="default", n_cycles=3,
                                pulse_file=str(tmp_path / "pulse.json"))
        runner.cmd_scan_reset(cfg, tmp_path / "out")
        model = mo.SingleQubitModel(**{**dict(cfg.model_params),
                                       "gamma_q": 1e-4, "gamma_r": 1e-4})
        target = hi.basis_state(model.space, (1, 0))
        scan = op.scan_reset_time(mo.build_single_qubit(model), pulse,
                                  cfg.t_r_grid, target, cfg.reset_rate,
                                  n_cycles=3)
        lines = (tmp_path / "out" / "scan.csv").read_text().splitlines()
        assert lines[1:] == [f"10,{t:.12g},{r:.12g}"
                             for t, r in zip(scan.t_r, scan.residuals)]


VSLQ = """\
[model]
kind = vslq
w = 35 MHz
delta = 350 MHz
gamma_p = 0.2 per_us
gamma_s = 35 per_us
"""

THREE_QUBIT = """\
[model]
kind = three_qubit
j = 20 MHz
gamma_p = 0.2 per_us
gamma_r = 30 per_us
"""


class _PoolCalled(Exception):
    """Raised by the pool stand-in with the worker count it was handed."""


class TestSweepDispatch:
    def test_untabulated_t1_rejected_before_any_work(self, tmp_path):
        from aqec import runner
        cfg = cf.parse_config(VSLQ + """
[optimizer]
max_iters = 0

[sweep]
t1 = 7 us
mode = lifetimes
""")
        with pytest.raises(ValueError, match="no tabulated working point"):
            runner.cmd_sweep(cfg, tmp_path)
        assert not (tmp_path / "pulse.json").exists()

    @pytest.mark.parametrize("mode", ["fixed_lifetimes", "lifetimes"])
    def test_t1_off_a_tabulated_point_exits_2(self, mode, tmp_path):
        # 30.4 us rounds to the 30 us row but is not its T1
        from aqec import cli
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text(VSLQ + f"""
[optimizer]
max_iters = 0

[sweep]
t1 = 30.4 us
mode = {mode}
""")
        out = tmp_path / "out"
        assert cli.main(["sweep", "--config", str(cfg_file),
                         "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("mode,model", [("residual", VSLQ),
                                            ("fixed_lifetimes", MINIMAL)])
    def test_model_kind_mismatch_exits_2_before_any_work(self, mode, model,
                                                         tmp_path, monkeypatch):
        from aqec import cli, runner

        def pool_map(fn, items, workers):
            raise AssertionError("a mismatched sweep reached its points")

        monkeypatch.setattr(runner, "_pool_map", pool_map)
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text(model + f"""
[optimizer]
max_iters = 0

[sweep]
t1 = 5 us
mode = {mode}
""")
        out = tmp_path / "out"
        assert cli.main(["sweep", "--config", str(cfg_file),
                         "--out", str(out)]) == 2
        assert not (out / "pulse.json").exists()

    def test_every_mode_runs_its_points_on_the_pool(self, tmp_path,
                                                    monkeypatch):
        from aqec import dynamics, optimize, runner
        from aqec.pulse import PulseShape, save_pulse

        def pool_map(fn, items, workers):
            raise _PoolCalled(workers)

        def simulate(*args, **kwargs):
            raise AssertionError("a T1 point ran outside the pool")

        monkeypatch.setattr(runner, "_pool_map", pool_map)
        monkeypatch.setattr(dynamics, "evolve_cycles", simulate)
        monkeypatch.setattr(optimize, "vslq_fixed_lifetime", simulate)
        monkeypatch.setattr(optimize, "optimize_pulse", simulate)
        pulse_file = tmp_path / "pulse.json"
        save_pulse(PulseShape([0.01, 0.0], [0.0, 0.0], 40.0), pulse_file)
        models = {"residual": MINIMAL, "fixed_lifetimes": VSLQ,
                  "lifetimes": VSLQ, "short_time": VSLQ,
                  "improvement": THREE_QUBIT, "scan-reset": MINIMAL}
        for mode, model in models.items():
            sweep_mode = "default" if mode == "scan-reset" else mode
            cfg = cf.parse_config(model + f"""
[schedule]
t_r = 60 ns

[sweep]
t1 = 5 30 us
mode = {sweep_mode}
""")
            cfg = cf.with_overrides(cfg, workers=2, pulse_file=str(pulse_file))
            command = (runner.cmd_scan_reset if mode == "scan-reset"
                       else runner.cmd_sweep)
            with pytest.raises(_PoolCalled) as handed:
                command(cfg, tmp_path / mode)
            assert handed.value.args == (2,), mode
        with pytest.raises(_PoolCalled) as handed:
            runner.cmd_reproduce("fig4", tmp_path / "fig4", workers=2)
        assert handed.value.args == (2,), "fig4"


class TestVslqBuildsPerPoint:
    @pytest.mark.parametrize("mode,builds", [("fixed_lifetimes", 1),
                                             ("lifetimes", 2),
                                             ("short_time", 2)])
    def test_each_model_is_built_once(self, mode, builds, tmp_path,
                                      monkeypatch):
        # one T1 point: the fixed working point's VSLQ once, and the cycle
        # model once where the mode runs cycles
        from aqec import models, optimize, runner
        from aqec.pulse import PulseShape, save_pulse

        built = []

        def counting(build):
            def wrapper(model):
                built.append(model)
                return build(model)
            return wrapper

        def window(cfg, terms, pulse, t_r, state, obs):
            # the lifetime window's 200 cycles, replaced by a clean decay
            t_us = np.arange(1.0, 7.0)
            return t_us, np.exp(-t_us / 100.0)

        monkeypatch.setattr(optimize, "build_vslq",
                            counting(optimize.build_vslq))
        monkeypatch.setattr(models, "build", counting(models.build))
        monkeypatch.setattr(runner, "_cycle_end_series", window)
        pulse_file = tmp_path / "pulse.json"
        save_pulse(PulseShape([0.01, 0.0], [0.0, 0.0], 40.0), pulse_file)
        cfg = cf.parse_config(VSLQ + f"""
[schedule]
t_r = 960 ns
reset_rate = 35 per_us

[sweep]
t1 = 30 us
mode = {mode}

[run]
workers = 1
pulse_file = {pulse_file}
""")
        runner.cmd_sweep(cfg, tmp_path / "out")
        assert len(built) == builds


class TestPulseFileDuration:
    @pytest.mark.parametrize("command,model,sweep", [
        ("evolve", MINIMAL, ""),
        ("scan-reset", MINIMAL, "[sweep]\nt1 = 10 us\n"),
        ("sweep", VSLQ, "[sweep]\nt1 = 30 us\nmode = lifetimes\n")],
        ids=["evolve", "scan-reset", "lifetimes"])
    def test_mismatched_t_p_exits_2_before_any_work(self, command, model,
                                                    sweep, tmp_path,
                                                    monkeypatch):
        from aqec import cli, dynamics, runner
        from aqec.pulse import PulseShape, save_pulse

        def reached(*args, **kwargs):
            raise AssertionError("a mismatched pulse reached the simulation")

        monkeypatch.setattr(runner, "_pool_map", reached)
        monkeypatch.setattr(dynamics, "evolve_cycles", reached)
        pulse_file = tmp_path / "pulse.json"
        save_pulse(PulseShape([0.01, 0.0], [0.0, 0.0], 39.0), pulse_file)
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text(model + f"""
{sweep}
[pulse]
t_p = 40 ns

[run]
pulse_file = {pulse_file}
""")
        out = tmp_path / "out"
        assert cli.main([command, "--config", str(cfg_file),
                         "--out", str(out)]) == 2
        assert not out.exists()


class TestFitCommand:
    def test_fit_exp_from_csv(self, tmp_path):
        from aqec import runner
        t = np.linspace(0, 30, 16)
        csv = tmp_path / "data.csv"
        csv.write_text("t_us,signal\n" + "\n".join(
            f"{ti},{np.exp(-ti / 9.0)}" for ti in t) + "\n")
        payload = runner.cmd_fit(csv, "t_us", "signal", "exp", tmp_path)
        assert payload["lifetime"] == pytest.approx(9.0, rel=1e-6)
        assert (tmp_path / "fit.json").exists()

    def test_fit_power_from_csv(self, tmp_path):
        from aqec import runner
        x = np.linspace(5, 60, 10)
        csv = tmp_path / "data.csv"
        csv.write_text("x,y\n" + "\n".join(
            f"{xi},{0.05 * xi ** -0.7}" for xi in x) + "\n")
        payload = runner.cmd_fit(csv, "x", "y", "power", tmp_path)
        assert payload["exponent"] == pytest.approx(-0.7, abs=1e-9)


class TestCli:
    def _run(self, *args):
        return subprocess.run([sys.executable, "-m", "aqec.cli", *args],
                              capture_output=True, text=True)

    def test_optimize_roundtrip(self, tmp_path):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text(TINY_RUN.replace("max_iters = 30",
                                             "max_iters = 60"))
        out = tmp_path / "out"
        proc = self._run("optimize", "--config", str(cfg_file),
                         "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert (out / "pulse.json").exists()
        assert (out / "manifest.json").exists()
        summary = json.loads((out / "optimize_summary.json").read_text())
        assert summary["fidelity"] >= 0.98

    def test_validation_exit_code(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text(MINIMAL.replace("350 MHz", "350"))
        proc = self._run("optimize", "--config", str(bad),
                         "--out", str(tmp_path / "o"))
        assert proc.returncode == 2
        assert "unit" in proc.stderr

    def test_convergence_exit_code(self, tmp_path):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text(TINY_RUN.replace("max_iters = 30",
                                             "max_iters = 0").replace(
            "target_fidelity = 0.98", "target_fidelity = 0.999999"))
        proc = self._run("optimize", "--config", str(cfg_file),
                         "--out", str(tmp_path / "o"))
        assert proc.returncode == 3

    def test_missing_config_and_preset(self):
        proc = self._run("optimize")
        assert proc.returncode == 2

    def test_fit_subcommand(self, tmp_path):
        t = np.linspace(0, 20, 12)
        csv = tmp_path / "d.csv"
        csv.write_text("t,y\n" + "\n".join(
            f"{ti},{0.5 * np.exp(-ti / 4.0)}" for ti in t) + "\n")
        proc = self._run("fit", "--csv", str(csv), "--xcol", "t",
                         "--ycol", "y", "--kind", "exp",
                         "--out", str(tmp_path / "fo"))
        assert proc.returncode == 0
        assert "lifetime: 4" in proc.stdout

    def test_fit_rejects_nan_cell(self, tmp_path):
        csv = tmp_path / "d.csv"
        csv.write_text("t,y\n0,1\n1,0.8\n2,nan\n3,0.5\n4,0.4\n5,0.3\n")
        proc = self._run("fit", "--csv", str(csv), "--xcol", "t",
                         "--ycol", "y", "--kind", "exp",
                         "--out", str(tmp_path / "fo"))
        assert proc.returncode == 2
        assert "finite" in proc.stderr
