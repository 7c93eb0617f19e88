import math
import subprocess
import sys

import pytest

SUBCOMMANDS = [
    ("reproduce", "fig2"),
    ("optimize", "--preset", "fig2"),
    ("evolve", "--preset", "fig2"),
    ("sweep", "--preset", "fig3"),
    ("scan-reset", "--preset", "fig3"),
]


@pytest.mark.parametrize("workers", ["0", "-2"])
@pytest.mark.parametrize("command", SUBCOMMANDS, ids=[c[0] for c in SUBCOMMANDS])
def test_invalid_worker_count_exits_2(command, workers, tmp_path):
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "aqec.cli", *command, f"--workers={workers}",
         "--out", str(out)],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert "--workers" in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("command", ["optimize", "evolve"])
def test_workers_not_offered_where_unused(command, tmp_path):
    # neither command runs a pool, so the flag must not reach config_hash
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "aqec.cli", command, "--preset", "fig2",
         "--workers=2", "--out", str(out)],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert "--workers" in proc.stderr
    assert not out.exists()


def test_unknown_figure_exits_2(tmp_path):
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "aqec.cli", "reproduce", "fig9",
         "--out", str(out)],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert "table1" in proc.stderr
    assert not out.exists()


def test_negative_eigenvalue_exits_4(tmp_path, monkeypatch):
    # a reset output with an eigenvalue of -1e-8, below EIG_FLOOR, fails
    # the integrity gate instead of being clipped
    import numpy as np

    from aqec import cli, dynamics
    from aqec.pulse import PulseShape, save_pulse

    real = dynamics.apply_propagator

    def dipped(prop, rho):
        w, v = np.linalg.eigh(real(prop, rho))
        w[-1] += w[0] + 1e-8
        w[0] = -1e-8
        return dynamics._hermitize((v * w) @ v.conj().T)

    monkeypatch.setattr(dynamics, "apply_propagator", dipped)
    pulse_file = tmp_path / "pulse.json"
    save_pulse(PulseShape([0.01, 0.0], [0.0, 0.0], 40.0), pulse_file)
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
                     "--out", str(tmp_path / "out")]) == 4


def test_constant_coupling_integrity_failure_exits_4(tmp_path, monkeypatch,
                                                     capsys):
    # a trace broken in the search's batched expm (the 36-point grid; the
    # scan's reset propagators stack at most 4 slots at d = 6) fails the
    # integrity gate of the residual sweep's constant-coupling baseline
    import scipy.linalg

    from aqec import cli
    from aqec.pulse import PulseShape, save_pulse

    real = scipy.linalg.expm

    def broken(a):
        return real(a) * (1.0 + 1e-6) if len(a) > 4 else real(a)

    monkeypatch.setattr(scipy.linalg, "expm", broken)
    pulse_file = tmp_path / "pulse.json"
    save_pulse(PulseShape([0.01, 0.0], [0.0, 0.0], 40.0), pulse_file)
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(f"""\
[model]
kind = single_qubit
delta = 350 MHz
gamma_q = 0.2 per_us
gamma_r = 0.2 per_us

[schedule]
t_r_grid = 60 ns

[sweep]
t1 = 20 us
mode = residual

[run]
pulse_file = {pulse_file}
""")
    assert cli.main(["sweep", "--config", str(cfg_file),
                     "--out", str(tmp_path / "out")]) == 4
    err = capsys.readouterr().err
    assert "trace drift" in err and "of 36)" in err


def test_degenerate_t1_axis_writes_not_fitted(tmp_path, monkeypatch):
    # four equal T1 values are one distinct point: it is computed once, and
    # the power-law fits are skipped with a not_fitted marker instead of
    # crashing the sweep
    import json
    from pathlib import Path

    from aqec import cli, runner

    calls = []
    real = runner._residual_point
    monkeypatch.setattr(runner, "_residual_point",
                        lambda *args: calls.append(args[1]) or real(*args))

    pulse_file = (Path(__file__).resolve().parents[1] / "perfbench" / "data"
                  / "fig2_pulse.json")
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(f"""\
[model]
kind = single_qubit
delta = 350 MHz
gamma_q = 0.2 per_us
gamma_r = 0.2 per_us

[schedule]
t_r_grid = 40 ns

[sweep]
t1 = 20 20 20 20 us
mode = residual

[run]
pulse_file = {pulse_file}
""")
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", str(cfg_file),
                     "--out", str(out)]) == 0
    header, *rows = (out / "residuals.csv").read_text().splitlines()
    assert header.startswith("t1_us,") and len(rows) == 4
    assert all(r.startswith("20,") for r in rows)
    exps = json.loads((out / "exponents.json").read_text())
    assert all(exps[k] is None
               for k in ("pulse_reset", "pulse_reset_with_offset", "constant"))
    assert exps["not_fitted"].startswith("1 T1 points")
    assert calls == [20_000.0]


def test_short_time_window_without_a_cycle_exits_2(tmp_path, capsys):
    # t_p + t_r = 2040 ns leaves no whole cycle in the 2000 ns window, which
    # must not be reported as an empty comparison
    from aqec import cli
    from aqec.pulse import PulseShape, save_pulse

    pulse_file = tmp_path / "pulse.json"
    save_pulse(PulseShape([0.06, 0.0], [0.0, 0.0], 40.0), pulse_file)
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(f"""\
[model]
kind = vslq
w = 35 MHz
delta = 350 MHz
gamma_p = 0.033333333333333333 per_us
gamma_s = 35 per_us

[pulse]
t_p = 40 ns

[schedule]
t_r = 2000 ns
reset_rate = 35 per_us

[sweep]
t1 = 30 us
mode = short_time

[run]
pulse_file = {pulse_file}
""")
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", str(cfg_file),
                     "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "2000 ns" in err and "2040 ns" in err
    assert not (out / "short_time.csv").exists()


def test_fit_of_unordered_times_exits_2(tmp_path, capsys):
    # shuffled interior times of a clean exp(-t/3) fit badly but silently
    from aqec import cli

    csv_file = tmp_path / "decay.csv"
    t = [10 / 7 * k for k in (0, 6, 5, 4, 3, 2, 1, 7)]
    csv_file.write_text("t,y\n" + "".join(
        f"{x!r},{math.exp(-x / 3.0)!r}\n" for x in t))
    out = tmp_path / "out"
    assert cli.main(["fit", "--csv", str(csv_file), "--xcol", "t",
                     "--ycol", "y", "--out", str(out)]) == 2
    assert "strictly increasing" in capsys.readouterr().err
    assert not (out / "fit.json").exists()


@pytest.mark.parametrize("w,delta", [(0, 350), (35, 0)])
def test_vslq_without_positive_w_and_delta_exits_2(w, delta, tmp_path,
                                                    capsys):
    # unchecked, a fixed_lifetimes sweep at w = delta = 0 writes T_X = 10.8 us
    from aqec import cli

    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(f"""\
[model]
kind = vslq
w = {w} MHz
delta = {delta} MHz
gamma_p = 0.2 per_us
gamma_s = 35 per_us

[sweep]
t1 = 30 us
mode = fixed_lifetimes
""")
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", str(cfg_file),
                     "--out", str(out)]) == 2
    assert "w and delta must be positive" in capsys.readouterr().err
    assert not out.exists()
