"""Config fields: the canonical text form and the accepted value ranges."""

import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest

from aqec import config as cf
from aqec import presets as pr

ROOT = Path(__file__).resolve().parents[1]

MINIMAL = """\
[model]
kind = single_qubit
delta = 350 MHz
gamma_q = 0.2 per_us
gamma_r = 0.2 per_us
"""

VSLQ_ALL_FIELDS = """\
[model]
kind = vslq
w = 35 MHz
delta = 350 MHz
gamma_p = 0.2 per_us
gamma_s = 35 per_us
omega_s = 210 MHz

[schedule]
t_r = 60 ns
n_cycles = 7

[sweep]
mode = lifetimes

[run]
out_dir = runs/all
workers = 2
pulse_file = pulses/vslq.json
"""

# write_config of VSLQ_ALL_FIELDS, as written before the fields were
# declared in one place
VSLQ_ALL_FIELDS_CANONICAL = """\
[model]
kind = vslq
delta = 2.1991148575128552 rad_per_ns
gamma_p = 0.00020000000000000001 per_ns
gamma_s = 0.035000000000000003 per_ns
omega_s = 1.3194689145077132 rad_per_ns
w = 0.21991148575128552 rad_per_ns

[pulse]
n_modes = 20
t_p = 40 ns
seed_c1x = 0.12566370614359174 rad_per_ns

[optimizer]
epsilon = 6.283185307179587e-05 rad_per_ns
learning_rate = 0.02
max_iters = 1000
target_fidelity = 0.999

[schedule]
t_r = 60 ns
t_r_grid = 20 40 60 80 100 140 180 240 320 400 ns
reset_rate = 0.029999999999999999 per_ns
n_cycles = 7

[sweep]
mode = lifetimes

[run]
out_dir = runs/all
workers = 2
pulse_file = pulses/vslq.json
"""

# config_hash (the sha256 of the write_config text) of every preset and of
# the benchmark's generated configs, captured before the fields were
# declared in one place
PINNED_HASHES = {
    "fig2": "f69475241e49c24510d9f627416a901b8879a2967d55ed6f3079a3b52974bfc4",
    "fig3": "804ac7b25511f770f2345007a0fb9d69fa3e1710284c4a3ce064e1177253ed56",
    "fig4": "725f20d4d3f8b51eb28c08176186ff1cc6887b0dc57c922f68cc7676c51cba10",
    "fig5": "1aa4c23e60734d64ea794cc29d3684757b7231e70430d22fcbba85b0f576fd88",
    "fig6": "f260ad13da318f54cdeab8e7e0fc309e35d35a1dc43a0f587686e6f79f6cd05e",
    "fig7": "66a331431c0bcece0542970014f65e4e2338a43f0d3d3272c940fcd30b04f36a",
    "table1": "d6dcf2cfb7a7ed8501281487d24d6edb6312443177fb1e642f5d72a78b8f6f66",
    "perfbench-sweep":
        "59d70a3c9446720503c80ef1c47c9a297f57f729fffb182c03a783c729ec333e",
    "perfbench-lifetime":
        "69431ba54191d698355812ad71649b1a231f56c74c7b632ffbacb3c87dfbdc51",
    "vslq-all-fields":
        "35d308f7456e887b00ebb1e1995a1493f2ca61faaa0be8432cfe1679ad63c6eb",
}


def _perfbench_workloads():
    name = "_perfbench_workloads"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(
            name, ROOT / "perfbench" / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module      # its dataclasses look themselves up
        spec.loader.exec_module(module)
    return sys.modules[name]


def _config_text(case: str) -> str:
    if case in pr.list_presets():
        return pr.preset_text(case)
    if case == "vslq-all-fields":
        return VSLQ_ALL_FIELDS
    wl = _perfbench_workloads()
    if case == "perfbench-sweep":
        return wl.sweep_config(wl.SWEEP_T1_US)
    return wl.lifetime_config(wl.LIFETIME_T1_US)


class TestCanonicalText:
    @pytest.mark.parametrize("case", sorted(PINNED_HASHES))
    def test_hash_pinned(self, case, monkeypatch):
        # the benchmark writes its pulse path relative to the checkout
        monkeypatch.chdir(ROOT)
        cfg = cf.parse_config(_config_text(case))
        text = cf.write_config(cfg)
        assert hashlib.sha256(text.encode()).hexdigest() == PINNED_HASHES[case]
        assert cf.config_hash(cfg) == PINNED_HASHES[case]
        assert cf.parse_config(text) == cfg

    def test_optional_fields_written(self):
        cfg = cf.parse_config(VSLQ_ALL_FIELDS)
        assert cf.write_config(cfg) == VSLQ_ALL_FIELDS_CANONICAL

    def test_default_optional_fields_left_out(self):
        text = cf.write_config(cf.parse_config(MINIMAL))
        assert "[sweep]" not in text
        assert "t_r =" not in text
        assert "pulse_file" not in text


REJECTED = [
    ("gamma_q = 0.2 per_us", "gamma_q = nan per_us"),
    ("gamma_q = 0.2 per_us", "gamma_q = -1 per_us"),
    ("delta = 350 MHz", "delta = inf MHz"),
    ("", "[pulse]\nt_p = inf ns"),
    ("", "[pulse]\nseed_c1x = nan MHz"),
    ("", "[optimizer]\nepsilon = inf rad_per_ns"),
    ("", "[optimizer]\nlearning_rate = -5"),
    ("", "[optimizer]\nlearning_rate = nan"),
    ("", "[optimizer]\nlearning_rate = 0"),
    ("", "[schedule]\nreset_rate = inf per_us"),
    ("", "[schedule]\nt_r = nan ns"),
    ("", "[schedule]\nt_r_grid = 20 nan ns"),
    ("", "[sweep]\nt1 = 5 nan us"),
]


class TestRanges:
    @pytest.mark.parametrize("old,new", REJECTED,
                             ids=[new.replace("\n", " ") for _, new in REJECTED])
    def test_rejected(self, old, new):
        text = MINIMAL.replace(old, new) if old else MINIMAL + "\n" + new + "\n"
        with pytest.raises(cf.ConfigError, match="finite|positive|nonnegative"):
            cf.parse_config(text)

    def test_vslq_omega_s_must_be_finite(self):
        with pytest.raises(cf.ConfigError, match="finite"):
            cf.parse_config(VSLQ_ALL_FIELDS.replace("210 MHz", "nan MHz"))

    def test_overrides_checked(self):
        cfg = cf.parse_config(MINIMAL)
        with pytest.raises(cf.ConfigError, match="learning_rate"):
            cf.with_overrides(cfg, learning_rate=float("nan"))

    def test_zero_rates_and_times_accepted(self):
        cfg = cf.parse_config(
            MINIMAL.replace("gamma_q = 0.2", "gamma_q = 0")
            + "\n[schedule]\nt_r = 0 ns\nt_r_grid = 0 20 ns\nreset_rate = 0 per_ns\n"
              "n_cycles = 0\n")
        assert cfg.t_r == 0.0
        assert dict(cfg.model_params)["gamma_q"] == 0.0
