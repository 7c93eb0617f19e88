"""Record the reference outputs that the workload checks compare against.

    python3 perfbench/record.py

Runs every input a seed can select: the sweep-sq row of each candidate T1,
the lifetime-vslq row of each tabulated T1, and the final cycles-vslq
observables of each pulse variant. Each row depends only on its own input,
so one sweep over all candidates gives the rows of every subset. Writes
perfbench/reference.json. Takes about 6 minutes with one BLAS thread.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import workloads as wl  # noqa: E402


def _commit() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                              capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def _run(workload: str, inputs: dict, tmp: Path) -> dict:
    w = wl.WORKLOADS[workload]
    state = wl.setup(inputs)
    run_dir = tmp / f"{workload}-{len(list(tmp.iterdir()))}"
    return w.outputs(state, run_dir, w.run(state, run_dir))


def record_sweep(tmp: Path) -> dict:
    out = _run("sweep-sq", {"config": wl.sweep_config(wl.SWEEP_T1_US)}, tmp)
    return {f"{row['t1_us']:g}": row for row in out["rows"]}


def record_lifetime(tmp: Path) -> dict:
    out = _run("lifetime-vslq", {"config": wl.lifetime_config(wl.LIFETIME_T1_US)},
               tmp)
    return {f"{row['t1_us']:g}": row for row in out["rows"]}


def record_cycles(tmp: Path) -> dict:
    ref = {}
    for variant in range(wl.CYCLES_PULSE_VARIANTS):
        out = _run("cycles-vslq", wl.WORKLOADS["cycles-vslq"].inputs(variant, tmp),
                   tmp)
        ref[str(variant)] = {"observables": out["observables"]}
    return ref


RECORDERS = {"sweep-sq": record_sweep, "lifetime-vslq": record_lifetime,
             "cycles-vslq": record_cycles}


def main() -> int:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    commit = _commit()
    ref = {"commits": {}}
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        for name, recorder in RECORDERS.items():
            ref[name] = recorder(Path(tmp))
            ref["commits"][name] = commit
            print(f"recorded {name}: {len(ref[name])} entries")
    wl.REFERENCE_FILE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
