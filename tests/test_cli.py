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
