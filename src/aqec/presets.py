"""Named experiment presets reproducing the published figures and table.

Each preset is a complete configuration text (human units). The VSLQ
fixed-parameter working points used by the benchmark table are recorded
here as module data: per physical T1 (us), the tabulated coupling
Omega/2pi (MHz), shadow loss rate Gamma_S (1/us), shadow frequency
omega_S/2pi (MHz), and the published logical lifetimes T_X, T_Y (us).
"""

from __future__ import annotations

from .config import ExperimentConfig, parse_config

# T1 us -> (Omega/2pi MHz, Gamma_S 1/us, omega_S/2pi MHz, T_X us, T_Y us)
VSLQ_FIXED_TABLE: dict[int, tuple[float, float, float, float, float]] = {
    5:  (2.94, 24.66, 209.75, 117.0, 66.0),
    10: (2.15, 18.40, 209.83, 353.0, 189.0),
    15: (1.81, 15.32, 209.90, 675.0, 350.0),
    20: (1.59, 13.26, 209.92, 1061.0, 542.0),
    25: (1.43, 12.09, 209.94, 1514.0, 762.0),
    30: (1.31, 11.09, 209.95, 2016.0, 1005.0),
    35: (1.22, 10.30, 209.96, 2571.0, 1271.0),
    40: (1.14, 9.67, 209.96, 3151.0, 1553.0),
    45: (1.08, 9.15, 209.96, 3743.0, 1846.0),
    50: (1.02, 8.73, 209.97, 4422.0, 2168.0),
    55: (0.98, 8.38, 209.97, 5207.0, 2524.0),
    60: (0.93, 8.04, 209.97, 5955.0, 2879.0),
}

# published reference numbers the reproduction summaries compare against
PAPER_VALUES = {
    "single_qubit_fidelity": 0.9989,
    "three_qubit_infidelity": 1.0 - 0.99999635,
    "vslq_fidelity": 0.99991,
    "pulse_reset_exponent": -0.81,
    "constant_coupling_exponent": -0.69,
    "counterterm_deltas_mhz": (100.0, 200.0, 350.0),
}

# Single-qubit pulse design: t_p = 20 ns makes the standard seed
# c1x = 2 pi x 20 MHz an exact pi/2 transfer and lets the N = 20 sine basis
# reach 500 MHz, covering the counterterm frequencies up to delta. The
# scaling study uses t_p = 40 ns, where the optimized pulse's small
# hold-error floor (~5e-4) reproduces the published residual-error scaling.

_PRESETS: dict[str, str] = {}

_PRESETS["fig2"] = """\
# single-qubit stabilization pulse
[model]
kind = single_qubit
delta = 350 MHz
gamma_q = 0.2 per_us
gamma_r = 0.2 per_us

[pulse]
n_modes = 20
t_p = 40 ns
seed_c1x = 20 MHz

[optimizer]
epsilon = 0.01 MHz
learning_rate = 0.02
max_iters = 400
target_fidelity = 0.9997
"""

_PRESETS["fig3"] = """\
# residual-error scaling: pulse-reset cycles vs constant coupling
[model]
kind = single_qubit
delta = 350 MHz
gamma_q = 0.2 per_us
gamma_r = 0.2 per_us

[pulse]
n_modes = 20
t_p = 40 ns
seed_c1x = 20 MHz

[optimizer]
epsilon = 0.01 MHz
learning_rate = 0.02
max_iters = 400
target_fidelity = 0.9997

[schedule]
t_r_grid = 20 40 60 80 100 140 180 240 320 400 ns
reset_rate = 30 per_us
n_cycles = 1

[sweep]
t1 = 5 10 15 20 25 30 40 50 60 us
mode = residual
"""

_PRESETS["fig4"] = """\
# counterterm frequency vs nonlinearity
[model]
kind = single_qubit
delta = 350 MHz
gamma_q = 0 per_us
gamma_r = 0 per_us

[pulse]
n_modes = 20
t_p = 22 ns
seed_c1x = 20 MHz

[optimizer]
epsilon = 0.01 MHz
learning_rate = 0.02
max_iters = 300
target_fidelity = 0.9998
"""

_PRESETS["fig5"] = """\
# three-qubit flip code target operation
[model]
kind = three_qubit
j = 20 MHz
gamma_p = 0.033333333333333333 per_us
gamma_r = 30 per_us

[pulse]
n_modes = 20
t_p = 40 ns
seed_c1x = 10 MHz

[optimizer]
epsilon = 0.01 MHz
learning_rate = 0.02
max_iters = 600
target_fidelity = 0.99999

[schedule]
t_r_grid = 20 40 60 80 100 140 ns
reset_rate = 30 per_us

[sweep]
t1 = 5 10 20 us
mode = improvement
"""

_PRESETS["fig6"] = """\
# VSLQ target operation and logical lifetimes
[model]
kind = vslq
w = 35 MHz
delta = 350 MHz
gamma_p = 0.033333333333333333 per_us
gamma_s = 35 per_us

[pulse]
n_modes = 20
t_p = 40 ns
seed_c1x = 10 MHz

[optimizer]
epsilon = 0.01 MHz
learning_rate = 0.02
max_iters = 400
target_fidelity = 0.9999

[schedule]
t_r_grid = 40 60 80 100 ns
reset_rate = 35 per_us

[sweep]
t1 = 5 30 60 us
mode = lifetimes
"""

_PRESETS["fig7"] = """\
# VSLQ short-time evolution: pulse-reset vs fixed parameters
[model]
kind = vslq
w = 35 MHz
delta = 350 MHz
gamma_p = 0.033333333333333333 per_us
gamma_s = 35 per_us

[pulse]
n_modes = 20
t_p = 40 ns
seed_c1x = 10 MHz

[optimizer]
epsilon = 0.01 MHz
learning_rate = 0.02
max_iters = 400
target_fidelity = 0.9999

[schedule]
t_r_grid = 40 60 80 100 ns
reset_rate = 35 per_us

[sweep]
t1 = 30 60 us
mode = short_time
"""

_PRESETS["table1"] = """\
# VSLQ fixed-parameter working points: evaluation at tabulated values
[model]
kind = vslq
w = 35 MHz
delta = 350 MHz
gamma_p = 0.2 per_us
gamma_s = 35 per_us

[sweep]
t1 = 5 30 60 us
mode = fixed_lifetimes
"""

def list_presets() -> list[str]:
    return sorted(_PRESETS)


def preset_text(name: str) -> str:
    if name not in _PRESETS:
        raise KeyError(f"unknown preset {name!r}; known: {list_presets()}")
    return _PRESETS[name]


def preset_config(name: str) -> ExperimentConfig:
    return parse_config(preset_text(name))
