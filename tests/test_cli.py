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
