"""One repetition of a workload in a fresh process.

    python3 perfbench/rep.py --workload NAME --seed N --trace 0|1
        --run-dir DIR --inputs-dir DIR --result FILE [--setup-only]

Times set-up (importing aqec and parsing the config) and the command,
takes the process's peak resident memory, then checks the outputs and
writes one JSON record to --result. The check is not timed and runs
with the layer wrappers removed. With --trace 1 the wrappers also time
every layer and the spans go to FILE with suffix .spans.json.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _blas_threads() -> int | None:
    """Threads OpenBLAS will use, asked of the library numpy loaded."""
    import ctypes
    import glob
    import numpy
    libs = os.path.dirname(numpy.__file__) + ".libs"
    for path in glob.glob(os.path.join(libs, "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _versions() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def _manifest_outputs(run_dir: Path) -> tuple[dict[str, str], int]:
    """sha256 of every output the command listed, and their total bytes."""
    entries = json.loads((run_dir / "manifest.json").read_text())["outputs"]
    return ({e["path"]: e["sha256"] for e in entries},
            sum(int(e["bytes"]) for e in entries))


def run_rep(workload: str, seed: int, trace: bool, run_dir: Path,
            inputs_dir: Path, setup_only: bool = False):
    """(record, set-up state, checked outputs); the last is None for set-up only."""
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS, load_reference, setup

    wl = WORKLOADS[workload]
    inputs = wl.inputs(seed, inputs_dir)
    record: dict = {"workload": workload, "seed": seed, "trace": trace,
                    "setup_only": setup_only, "failures": []}

    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import aqec.cli  # noqa: F401  (imports every module the commands use)
    import_s = time.perf_counter() - t0
    if Path(aqec.__file__).resolve().parent != ROOT / "src" / "aqec":
        raise RuntimeError(f"imported aqec from {aqec.__file__}, "
                           f"not from {ROOT / 'src'}")

    from tracing import Tracer
    tracer = Tracer(timed=trace)
    tracer.install()
    try:
        t1 = time.perf_counter()
        state = setup(inputs)
        record["setup_s"] = import_s + (time.perf_counter() - t1)
        if not setup_only:
            if run_dir.exists():
                shutil.rmtree(run_dir)
            t2 = time.perf_counter()
            ret = wl.run(state, run_dir)
            record["wall_s"] = time.perf_counter() - t2
            record["peak_rss_mb"] = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        tracer.uninstall()
    if setup_only:
        return record, state, None

    outputs = wl.outputs(state, run_dir, ret)
    record["failures"] = wl.check(state, outputs, load_reference())
    record["digests"], io_bytes = _manifest_outputs(run_dir)
    record["counters"] = dict(tracer.counters(), **{"runner.io.bytes": io_bytes})
    if "iterations" in outputs:
        record["counters"]["optimize.iterations"] = outputs["iterations"]
    record["binding_hits"] = tracer.hits
    record["missing_bindings"] = tracer.missing
    record["blas_threads"] = _blas_threads()
    record["env"] = _versions()
    if trace:
        record["timings"] = tracer.timings()
        record["spans"] = tracer.span_records()
    return record, state, outputs


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--run-dir", type=Path, required=True)
    p.add_argument("--inputs-dir", type=Path, required=True)
    p.add_argument("--result", type=Path, required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)
    try:
        record, _, _ = run_rep(args.workload, args.seed, bool(args.trace),
                               args.run_dir, args.inputs_dir, args.setup_only)
    except Exception:
        # a failed command is a failed operation: report it, do not crash
        record = {"workload": args.workload, "seed": args.seed,
                  "failures": [traceback.format_exc(limit=4)]}
    spans = record.pop("spans", None)
    if spans is not None:
        args.result.with_suffix(".spans.json").write_text(json.dumps(spans) + "\n")
    args.result.write_text(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
