"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q

Runs every workload once untraced and once traced, in this process (about
a minute with one BLAS thread), then checks that the outputs pass their
checks, that each check fails on a corrupted output, that tracing changes
no output byte and no counter, and that every wrapped binding is hit on
the workload expected to use it.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import rep  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402

SEED = 3

# binding -> workloads that must reach it
EXPECTED_HITS = {
    "aqec.optimize.gradient": ["opt-sq"],
    "aqec.optimize.fidelity": ["opt-sq"],
    "aqec.optimize.adaptive_rk": ["opt-sq"],
    "aqec.dynamics.adaptive_rk": ["sweep-sq", "cycles-vslq"],
    "aqec.dynamics.evolve_lindblad": ["sweep-sq", "cycles-vslq"],
    "aqec.dynamics.evolve_cycles": ["cycles-vslq"],
    "aqec.optimize.evolve_cycles": ["sweep-sq"],
    "aqec.dynamics.segment_propagator": ["sweep-sq", "cycles-vslq",
                                         "lifetime-vslq"],
    "aqec.dynamics.apply_propagator": ["sweep-sq", "cycles-vslq",
                                       "lifetime-vslq"],
    "aqec.optimize.evolve_constant_lindblad": ["sweep-sq", "lifetime-vslq"],
    "aqec.dynamics.steady_state": ["sweep-sq"],
    "aqec.optimize.scan_reset_time": ["sweep-sq"],
    "aqec.optimize.optimize_constant_coupling": ["sweep-sq"],
    "aqec.optimize.vslq_fixed_lifetime": ["lifetime-vslq"],
    "aqec.analysis.fit_lifetime": ["lifetime-vslq"],
    "aqec.analysis.fit_power_law": ["sweep-sq"],
    "aqec.runner._residual_point": ["sweep-sq"],
    "aqec.runner._vslq_fixed_point": ["lifetime-vslq"],
    "aqec.hilbert.expectation": ["cycles-vslq", "lifetime-vslq"],
    "aqec.hilbert.state_fidelity": ["sweep-sq", "cycles-vslq"],
    "aqec.optimize.state_fidelity": ["sweep-sq"],
    "aqec.runner.RunContext.write_csv": ["opt-sq", "sweep-sq", "lifetime-vslq"],
    "aqec.runner.RunContext.write_json": ["opt-sq", "sweep-sq", "cycles-vslq"],
    "aqec.runner.RunContext.finish": list(wl.WORKLOADS),
    "aqec.runner.save_pulse": ["opt-sq"],
    "aqec.dynamics.trajectory_to_csv": ["cycles-vslq"],
    "aqec.dynamics.dump_states": ["cycles-vslq"],
    "aqec.models.build": ["opt-sq", "sweep-sq", "cycles-vslq"],
    "aqec.models.build_single_qubit": ["opt-sq", "sweep-sq"],
    "aqec.models.build_vslq": ["cycles-vslq"],
    "aqec.optimize.build_vslq": ["lifetime-vslq"],
    "aqec.config.parse_config": list(wl.WORKLOADS),
    "scipy.linalg.expm": ["sweep-sq", "cycles-vslq", "lifetime-vslq"],
}
# wrapped bindings that no workload reaches, and why
UNREACHED = {
    "aqec.analysis.state_fidelity": "only analysis.residual_error, which no "
                                    "command calls",
    "aqec.models.build_three_qubit": "no workload runs the three-qubit code",
    "aqec.presets.parse_config": "workloads parse generated configs, not presets",
    "aqec.pulse.save_pulse": "the commands save through runner's binding",
    "aqec.dynamics.evolve_constant_lindblad": "called through dynamics only by "
                                              "fig7's short_time sweep",
}


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    out = {}
    inputs = tmp_path_factory.mktemp("inputs")
    for name in wl.WORKLOADS:
        for trace in (False, True):
            d = tmp_path_factory.mktemp(f"{name}-trace{int(trace)}")
            out[name, trace] = rep.run_rep(name, SEED, trace, d / "run", inputs)
    return out


@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_outputs_pass_their_checks(runs, name):
    for trace in (False, True):
        assert runs[name, trace][0]["failures"] == []


@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_traced_outputs_are_bit_identical(runs, name):
    untraced, traced = runs[name, False][0], runs[name, True][0]
    assert untraced["digests"] == traced["digests"]
    assert untraced["counters"] == traced["counters"]
    assert runs[name, False][2] == runs[name, True][2]


@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_expected_bindings_are_hit(runs, name):
    hits = runs[name, True][0]["binding_hits"]
    missed = [b for b, names in EXPECTED_HITS.items()
              if name in names and hits.get(b, 0) == 0]
    assert missed == []


def test_every_wrapped_binding_is_classified(runs):
    record = runs["opt-sq", True][0]
    assert record["missing_bindings"] == []
    wrapped = set(record["binding_hits"])
    assert wrapped == set(EXPECTED_HITS) | set(UNREACHED)
    for binding in UNREACHED:
        assert all(runs[n, True][0]["binding_hits"][binding] == 0
                   for n in wl.WORKLOADS), binding


def test_rhs_and_cycle_counters(runs):
    c = {n: runs[n, False][0]["counters"] for n in wl.WORKLOADS}
    assert c["opt-sq"]["optimize.iterations"] == 2
    assert c["cycles-vslq"]["dynamics.cycles"] == wl.CYCLES_N
    assert c["cycles-vslq"]["linalg.expm.calls"] == 1
    assert c["lifetime-vslq"]["linalg.expm.calls"] == 2
    assert c["lifetime-vslq"]["dynamics.rhs.calls"] == 0
    for name in ("opt-sq", "sweep-sq", "cycles-vslq"):
        assert c[name]["dynamics.rhs.calls"] > 0


# --- each check fails on a corrupted output ---------------------------------------

def _failures(runs, name, corrupt, reference=None):
    _, state, outputs = runs[name, False]
    bad = copy.deepcopy(outputs)
    corrupt(bad)
    return wl.WORKLOADS[name].check(state, bad, reference or wl.load_reference())


def _set(path, fn):
    def corrupt(out):
        obj = out
        for key in path[:-1]:
            obj = obj[key]
        obj[path[-1]] = fn(obj[path[-1]])
    return corrupt


CORRUPTIONS = {
    "opt-sq": [
        (_set(["fidelity"], lambda f: f + 1e-5), "reported"),
        (_set(["cx", 0], lambda c: c + 1e-3), "reported"),
        (lambda out: out.update(cx=[0.0] * 20, cy=[0.0] * 20), "misses target"),
    ],
    "sweep-sq": [
        (_set(["rows", 0, "pulse_reset_residual"], lambda r: r * (1 + 1e-3)),
         "pulse_reset_residual"),
        (_set(["rows", 1, "best_t_r_ns"], lambda t: 100.0), "best t_r"),
        (_set(["rows", 2, "constant_omega_radns"], lambda w: w * (1 + 1e-3)),
         "constant_omega_radns"),
        (_set(["rows", 3, "t1_us"], lambda t: t + 1.0), "rows cover"),
        (lambda out: out["rows"].pop(), "rows cover"),
        (_set(["exponents", "constant"], lambda e: float("nan")), "exponent"),
    ],
    "cycles-vslq": [
        (_set(["final_im", 0, 1], lambda v: v + 1e-9), "Hermitian"),
        (lambda out: out.update(
            final_re=[[v * (1 + 1e-6) for v in row] for row in out["final_re"]],
            final_im=[[v * (1 + 1e-6) for v in row] for row in out["final_im"]]),
         "trace"),
        (lambda out: _shift_weight(out, 1e-6), "eigenvalue"),
        (_set(["observables", "exp_XL"], lambda v: v + 1e-4), "exp_XL"),
        (_set(["variant"], lambda v: (v + 1) % wl.CYCLES_PULSE_VARIANTS),
         "observable"),
    ],
    "lifetime-vslq": [
        (_set(["rows", 0, "t_x_us"], lambda t: t * (1 + 1e-4)), "t_x_us"),
        (_set(["rows", 0, "t1_us"], lambda t: t + 5.0), "rows cover"),
    ],
}


def _shift_weight(out, eps):
    """Move eps of weight from the smallest to the largest eigenvector."""
    import numpy as np
    rho = np.array(out["final_re"]) + 1j * np.array(out["final_im"])
    _, v = np.linalg.eigh(rho)
    lo, hi = v[:, :1], v[:, -1:]
    rho = rho - eps * (lo @ lo.conj().T) + eps * (hi @ hi.conj().T)
    out["final_re"], out["final_im"] = rho.real.tolist(), rho.imag.tolist()


@pytest.mark.parametrize("name,index", [(n, i) for n, cs in CORRUPTIONS.items()
                                        for i in range(len(cs))])
def test_check_fails_on_corrupted_output(runs, name, index):
    corrupt, expect = CORRUPTIONS[name][index]
    failures = _failures(runs, name, corrupt)
    assert any(expect in f for f in failures), failures


def test_lifetime_band_catches_table_disagreement(runs):
    """Off the published table but equal to the reference: only the band fails."""
    _, state, outputs = runs["lifetime-vslq", False]
    bad = copy.deepcopy(outputs)
    row = bad["rows"][0]
    row["t_y_us"] = row["t_y_paper_us"] * 1.2
    reference = copy.deepcopy(wl.load_reference())
    reference["lifetime-vslq"][f"{row['t1_us']:g}"]["t_y_us"] = row["t_y_us"]
    failures = wl.WORKLOADS["lifetime-vslq"].check(state, bad, reference)
    assert len(failures) == 1 and "of the table" in failures[0], failures


# --- inputs, reference and the benchmark file ----------------------------------------

@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_inputs_depend_only_on_the_seed(tmp_path, name):
    w = wl.WORKLOADS[name]
    assert w.inputs(7, tmp_path / "a") == w.inputs(7, tmp_path / "a")
    assert w.inputs(7, tmp_path / "a")["config"] != w.inputs(8, tmp_path / "a")["config"]


def test_reference_covers_every_input_a_seed_can_pick():
    ref = wl.load_reference()
    assert set(ref["sweep-sq"]) == {f"{t:g}" for t in wl.SWEEP_T1_US}
    assert set(ref["lifetime-vslq"]) == {f"{t:g}" for t in wl.LIFETIME_T1_US}
    assert set(ref["cycles-vslq"]) == {str(v) for v in range(wl.CYCLES_PULSE_VARIANTS)}


def test_benchmark_file_matches_the_code():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in bench["workloads"]] == [
        (w.name, w.why) for w in wl.WORKLOADS.values()]
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == run.per_layer_names()


def test_fails_without_the_program(tmp_path):
    """Holding only BENCHMARK.json and perfbench, the run exits non-zero."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "runs", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "opt-sq", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=""))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
