"""aqec benchmark: run one workload (or all) and print every metric.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Each repetition runs in a fresh process (perfbench/rep.py) with one BLAS
thread and workers = 1. An untraced run repeats rounds of one full
repetition and SETUPS_PER_ROUND set-up-only repetitions while at least
half of the next round is expected to fall inside --seconds (at least one
round), and reports the medians of wall_s, setup_s and peak_rss_mb. A
traced run makes one untraced and one traced repetition of the same input
and reports the per-layer metrics of the traced one. Every repetition
checks its outputs; a failed check, an exception, or counters that differ
between repetitions of one input count as failed operations. The last
line of stdout is the JSON result; a record of the run goes to
perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS_DIR = HERE / "results"
RUNS_DIR = HERE / "runs"

sys.path.insert(0, str(HERE))
from tracing import LAYERS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Set-up (a fresh interpreter importing aqec) takes under a second, so each
# round measures it several times; interleaving the samples with the full
# repetitions spreads them over the run.
SETUPS_PER_ROUND = 3
DEADLINE_S = 170.0            # a run must end within 180 s
SINGLE_THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                     "MKL_NUM_THREADS": "1"}

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
DERIVED_METRICS = (
    ("dynamics.rhs.calls", "count"), ("dynamics.rhs.s", "s"),
    ("dynamics.rhs_per_integration", "count"), ("dynamics.rk_overhead.s", "s"),
    ("dynamics.cycles", "count"), ("dynamics.cycle.s", "s"),
    ("optimize.iterations", "count"), ("optimize.accept_ratio", "ratio"),
    ("runner.io.bytes", "bytes"),
    ("trace.wall_s", "s"), ("trace.overhead_frac", "ratio"),
)


def per_layer_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order.

    A layer that a workload never enters reads 0 calls and 0 s on it.
    """
    out = []
    for layer in LAYERS:
        out += [(f"{layer}.calls", "count"), (f"{layer}.s", "s"),
                (f"{layer}.self_s", "s")]
    return out + list(DERIVED_METRICS)


# --- repetitions ---------------------------------------------------------------

def _spawn(workload: str, seed: int, trace: bool, index: int, setup_only: bool,
           timeout: float) -> dict:
    tag = f"{workload}-seed{seed}-trace{int(trace)}-rep{index}"
    result = RUNS_DIR / f"{tag}.json"
    result.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "rep.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(trace)),
           "--run-dir", str(RUNS_DIR / tag), "--inputs-dir", str(RUNS_DIR / "inputs"),
           "--result", str(result)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, **SINGLE_THREAD_ENV)
    env.pop("AQEC_WORKERS", None)
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, timeout=max(timeout, 1.0),
                              capture_output=True, text=True)
    except subprocess.TimeoutExpired:
        return {"failures": [f"repetition timed out after {timeout:.0f} s"],
                "duration_s": time.perf_counter() - start}
    if proc.returncode != 0 or not result.exists():
        rec = {"failures": [f"rep.py exited {proc.returncode}: "
                            f"{proc.stderr.strip()[-2000:]}"]}
    else:
        rec = json.loads(result.read_text())
        spans = result.with_suffix(".spans.json")
        if spans.exists():
            RESULTS_DIR.mkdir(parents=True, exist_ok=True)
            kept = RESULTS_DIR / f"{workload}-seed{seed}.spans.json"
            spans.replace(kept)
            rec["spans_file"] = str(kept.relative_to(ROOT))
    rec["duration_s"] = time.perf_counter() - start
    return rec


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    RUNS_DIR.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()

    def remaining() -> float:
        return DEADLINE_S - (time.perf_counter() - start)

    reps: list[dict] = []
    if trace:
        for index, timed in enumerate((False, True)):
            reps.append(_spawn(workload, seed, timed, index, False, remaining()))
    else:
        rounds: list[float] = []
        while not (reps and reps[-1]["failures"]):
            round_start = time.perf_counter()
            for setup_only in (False,) + (True,) * SETUPS_PER_ROUND:
                reps.append(_spawn(workload, seed, False, len(reps), setup_only,
                                   remaining()))
                if reps[-1]["failures"]:
                    break
            rounds.append(time.perf_counter() - round_start)
            if (time.perf_counter() - start + statistics.median(rounds) / 2
                    > seconds):
                break
    setups = [r for r in reps if "setup_s" in r]

    full = [r for r in reps if not r.get("setup_only")]
    if len({json.dumps(r["counters"], sort_keys=True)
            for r in full if "counters" in r}) > 1:
        full[-1]["failures"].append("work counters differ between repetitions "
                                    "of one input")
    if (trace and all("digests" in r for r in full)
            and full[0]["digests"] != full[1]["digests"]):
        full[-1]["failures"].append("traced outputs differ from untraced outputs")
    failed = sum(1 for r in reps if r["failures"])

    record = {"workload": workload, "seed": seed, "trace": trace,
              "seconds": seconds, "run_s": time.perf_counter() - start,
              "attempted": len(reps), "failed": failed,
              "env": environment(full[0] if full else {}),
              "counters": full[0].get("counters") if full else None,
              "reps": reps}
    timed = [r for r in full if "wall_s" in r]
    if trace and len(timed) == 2 and "timings" in timed[1]:
        record["layers"] = timed[1]["timings"]
        record["metrics"] = layer_metrics(timed[1], timed[0])
    elif not trace and timed:
        record["metrics"] = end_to_end_metrics(timed, setups)
    return record


# --- metrics -------------------------------------------------------------------

def end_to_end_metrics(full: list[dict], setups: list[dict]) -> dict:
    samples = {"wall_s": [r["wall_s"] for r in full],
               "setup_s": [r["setup_s"] for r in setups],
               "peak_rss_mb": [r["peak_rss_mb"] for r in full]}
    return {name: {"value": statistics.median(samples[name]), "unit": unit,
                   "samples": len(samples[name])}
            for name, unit in END_TO_END}


def layer_metrics(traced: dict, untraced: dict) -> dict:
    t = traced["timings"]
    c = traced["counters"]
    values: dict[str, float] = {}
    for layer in LAYERS:
        values[f"{layer}.calls"] = t[layer]["calls"]
        values[f"{layer}.s"] = t[layer]["s"]
        values[f"{layer}.self_s"] = t[layer]["self_s"]
    rk, rhs = t["dynamics.adaptive_rk"], t["dynamics.rhs"]
    fid_calls = t["optimize.fidelity"]["calls"]
    iterations = c.get("optimize.iterations", 0)
    cycles = c["dynamics.cycles"]
    values.update({
        "dynamics.rhs.calls": rhs["calls"],
        "dynamics.rhs.s": rhs["s"],
        "dynamics.rhs_per_integration": (rhs["calls"] / rk["calls"]
                                         if rk["calls"] else 0.0),
        "dynamics.rk_overhead.s": rk["self_s"] - rhs["s"],
        "dynamics.cycles": cycles,
        "dynamics.cycle.s": (t["dynamics.evolve_cycles"]["s"] / cycles
                             if cycles else 0.0),
        "optimize.iterations": iterations,
        "optimize.accept_ratio": iterations / fid_calls if fid_calls else 0.0,
        "runner.io.bytes": c["runner.io.bytes"],
        "trace.wall_s": traced["wall_s"],
        "trace.overhead_frac": traced["wall_s"] / untraced["wall_s"] - 1.0,
    })
    return {name: {"value": values[name], "unit": unit}
            for name, unit in per_layer_names()}


def environment(rep: dict) -> dict:
    env = {"python": platform.python_version(), "machine": platform.machine(),
           "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
           "blas_threads": rep.get("blas_threads"),
           "thread_env": SINGLE_THREAD_ENV}
    env.update(rep.get("env", {}))
    return env


# --- report --------------------------------------------------------------------

def print_record(rec: dict) -> None:
    mode = "traced" if rec["trace"] else "untraced"
    print(f"{rec['workload']} seed {rec['seed']} ({mode}): {rec['attempted']} "
          f"repetitions in {rec['run_s']:.1f} s, {rec['failed']} failed")
    for i, r in enumerate(rec["reps"]):
        parts = [f"{k} {r[k]:.4f}" for k in ("setup_s", "wall_s", "peak_rss_mb")
                 if k in r]
        status = "ok" if not r["failures"] else "FAILED: " + " | ".join(
            f.strip().splitlines()[-1] for f in r["failures"])
        print(f"  rep {i}: {', '.join(parts)}  {status}")
    if "layers" in rec:
        print(f"  {'layer':38s} {'calls':>9s} {'s':>10s} {'self_s':>10s}")
        for name, t in rec["layers"].items():
            print(f"  {name:38s} {t['calls']:9d} {t['s']:10.4f} {t['self_s']:10.4f}")
    for name, m in rec.get("metrics", {}).items():
        n = f"  (median of {m['samples']})" if "samples" in m else ""
        print(f"  {name:38s} {m['value']:14.6g} {m['unit']}{n}")


def save_record(rec: dict) -> Path:
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / (f"{rec['workload']}-seed{rec['seed']}"
                          f"-trace{int(rec['trace'])}.json")
    path.write_text(json.dumps(rec, indent=1) + "\n")
    return path


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "aqec" / "__init__.py").is_file():
        print(f"error: no aqec sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    records = []
    for name in names:
        rec = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print_record(rec)
        print(f"  record: {save_record(rec).relative_to(ROOT)}")
        records.append(rec)

    metrics = {}
    for rec in records:
        prefix = "" if len(records) == 1 else f"{rec['workload']}."
        for name, m in rec.get("metrics", {}).items():
            metrics[prefix + name] = {"value": m["value"], "unit": m["unit"]}
    failed = sum(r["failed"] for r in records)
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(r["attempted"] for r in records),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
