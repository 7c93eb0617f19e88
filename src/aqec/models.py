"""Builders for the three stabilized systems.

Each builder returns the static Hamiltonian, the two coupling quadrature
operators, and the dissipation channels:

    H(t) = h_static + Omega_x(t) h_x + Omega_y(t) h_y

* single qubit: a three-level device (nonlinearity delta) blue-sideband
  coupled to a lossy two-level resonator; photon-loss channels on both.
* three-qubit flip code: three primary qubits with ferromagnetic sigma_z
  couplings, each paired with its own lossy qubit; bit-flip noise on the
  primaries, photon loss on the lossy qubits.
* VSLQ: two three-level primaries stabilized by -W Xt_l Xt_r, each coupled
  to a lossy shadow resonator; photon loss everywhere.

Subsystem orderings are fixed here: (q, r), (P1, P2, P3, R1, R2, R3), and
(Sl, l, r, Sr). Energies in rad/ns, rates in 1/ns. Each builder also
declares the site permutations its terms are invariant under: the
three-qubit code its pair permutations, the VSLQ its mirror
(Sl, l, r, Sr) -> (Sr, r, l, Sl), the single qubit none.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .hilbert import (
    SIGMA_MINUS,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    Operator,
    QuantumState,
    TensorSpace,
    basis_state,
    basis_vector,
    embed,
    ladder,
    normalized_state,
    number_op,
    projector,
    x_tilde,
    z_tilde,
)


class RegimeWarning(UserWarning):
    """Model parameters leave the validity regime of the rotating frame."""


@dataclass(frozen=True)
class SingleQubitModel:
    """Three-level qubit + two-level lossy resonator (space (3, 2))."""

    delta: float      # nonlinearity, rad/ns
    gamma_q: float    # primary photon-loss rate, 1/ns
    gamma_r: float    # lossy-resonator rate, 1/ns

    def __post_init__(self):
        if not self.delta > 0:
            raise ValueError("delta must be positive")

    @property
    def space(self) -> TensorSpace:
        return TensorSpace((3, 2))


@dataclass(frozen=True)
class ThreeQubitModel:
    """Flip code: qubits (P1, P2, P3, R1, R2, R3), space (2,)*6."""

    j: float          # energy scale, rad/ns
    gamma_p: float    # primary bit-flip rate, 1/ns
    gamma_r: float    # lossy-qubit decay rate, 1/ns

    def __post_init__(self):
        if not self.j > 0:
            raise ValueError("j must be positive")

    @property
    def space(self) -> TensorSpace:
        return TensorSpace((2,) * 6)


@dataclass(frozen=True)
class VslqModel:
    """Very Small Logical Qubit on (Sl, l, r, Sr), space (2, 3, 3, 2).

    omega_s defaults to W + delta/2, the resonance condition of the ideal
    rotating frame; the benchmark treats it as independently tunable.
    """

    w: float
    delta: float
    gamma_p: float
    gamma_s: float
    omega_s: float | None = None

    def __post_init__(self):
        if not (self.w > 0 and self.delta > 0):
            raise ValueError("w and delta must be positive")
        if self.omega_s is None:
            object.__setattr__(self, "omega_s", self.w + self.delta / 2)

    @property
    def space(self) -> TensorSpace:
        return TensorSpace((2, 3, 3, 2))


Model = SingleQubitModel | ThreeQubitModel | VslqModel


@dataclass(frozen=True)
class LindbladChannel:
    op: Operator
    rate: float       # 1/ns
    lossy: bool       # True for the engineered-dissipation channel


@dataclass(frozen=True)
class ModelTerms:
    """Hamiltonian pieces and channels of one model instance, and the site
    permutations that leave them invariant.

    Each entry of ``symmetries`` permutes the sites
    (``TensorSpace.site_permutation``) and maps h_static, h_x, h_y and the
    channel list (operator and rate) exactly onto themselves; together they
    generate the group that ``dynamics`` reduces invariant states by.
    That exact mapping is the contract ``dynamics._reduce`` checks in
    every Lindblad build, where a broken one raises ValueError; here, a
    permutation between sites of unequal dimension raises ValueError.
    ``basis_symmetries`` gives their basis maps, the form dynamics takes.
    """

    space: TensorSpace
    h_static: Operator
    h_x: Operator
    h_y: Operator
    channels: tuple[LindbladChannel, ...]
    symmetries: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self):
        perms = tuple(tuple(int(i) for i in p) for p in self.symmetries)
        for perm in perms:
            self.space.site_permutation(perm)
        object.__setattr__(self, "symmetries", perms)

    @property
    def basis_symmetries(self) -> tuple[np.ndarray, ...]:
        return tuple(self.space.site_permutation(p) for p in self.symmetries)


def check_coupling_regime(model: Model, peak_omega: float) -> list[str]:
    """Warn of, and return, each breach of the model's rate hierarchy."""
    messages = []
    if isinstance(model, SingleQubitModel) and peak_omega > model.delta / 5:
        messages.append(
            f"peak |Omega| = {peak_omega:.4g} rad/ns exceeds delta/5 = "
            f"{model.delta / 5:.4g}; delta >> Omega no longer holds")
    elif isinstance(model, VslqModel) and (model.delta < 5 * model.w
                                           or model.w < 5 * peak_omega):
        messages.append(
            "hierarchy delta >> W >> Omega violated: "
            f"delta={model.delta:.4g}, W={model.w:.4g}, "
            f"peak |Omega|={peak_omega:.4g} rad/ns")
    for message in messages:
        warnings.warn(message, RegimeWarning)
    return messages


# --- builders ---------------------------------------------------------------

def build_single_qubit(m: SingleQubitModel) -> ModelTerms:
    """H = -delta P_q^2 + Ox (a_q a_r + h.c.) + Oy i(a_q^+ a_r^+ - a_q a_r)."""
    sp = m.space
    a_q = embed(ladder(3), 0, sp)
    a_r = embed(ladder(2), 1, sp)
    lower = a_q @ a_r                       # a_q a_r
    raise_ = lower.dagger()
    h_static = -m.delta * embed(projector(3, 2), 0, sp)
    h_x = lower + raise_
    h_y = 1j * (raise_ - lower)
    channels = (
        LindbladChannel(a_q, m.gamma_q, lossy=False),
        LindbladChannel(a_r, m.gamma_r, lossy=True),
    )
    # (q, r) have unequal dimensions: no site permutation but the identity
    return ModelTerms(sp, h_static, h_x, h_y, channels, ())


def build_three_qubit(m: ThreeQubitModel) -> ModelTerms:
    """Flip-code Hamiltonian: sigma_z couplings plus per-pair sideband drive."""
    sp = m.space
    sz_p = [embed(SIGMA_Z, i, sp) for i in range(3)]
    sz_r = [embed(SIGMA_Z, 3 + i, sp) for i in range(3)]
    sx_p = [embed(SIGMA_X, i, sp) for i in range(3)]
    sx_r = [embed(SIGMA_X, 3 + i, sp) for i in range(3)]
    sy_r = [embed(SIGMA_Y, 3 + i, sp) for i in range(3)]

    h_p = -m.j * (sz_p[0] @ sz_p[1] + sz_p[1] @ sz_p[2] + sz_p[0] @ sz_p[2])
    h_r = -2.0 * m.j * (sz_r[0] + sz_r[1] + sz_r[2])
    h_x = sx_p[0] @ sx_r[0] + sx_p[1] @ sx_r[1] + sx_p[2] @ sx_r[2]
    h_y = sx_p[0] @ sy_r[0] + sx_p[1] @ sy_r[1] + sx_p[2] @ sy_r[2]

    channels = tuple(
        LindbladChannel(embed(SIGMA_X, i, sp), m.gamma_p, lossy=False)
        for i in range(3)
    ) + tuple(
        LindbladChannel(embed(SIGMA_MINUS, 3 + i, sp), m.gamma_r, lossy=True)
        for i in range(3)
    )
    # (P1, P2, P3, R1, R2, R3): swap pairs 1 and 2, and pairs 2 and 3
    pair_swaps = ((1, 0, 2, 4, 3, 5), (0, 2, 1, 3, 5, 4))
    return ModelTerms(sp, h_p + h_r, h_x, h_y, channels, pair_swaps)


def build_vslq(m: VslqModel) -> ModelTerms:
    """VSLQ rotating-frame Hamiltonian with shadow-resonator sidebands."""
    sp = m.space
    a_sl = embed(ladder(2), 0, sp)
    a_l = embed(ladder(3), 1, sp)
    a_r = embed(ladder(3), 2, sp)
    a_sr = embed(ladder(2), 3, sp)

    xt_l = embed(x_tilde(3), 1, sp)
    xt_r = embed(x_tilde(3), 2, sp)
    p1_l = embed(projector(3, 1), 1, sp)
    p1_r = embed(projector(3, 1), 2, sp)
    n_sl = embed(number_op(2), 0, sp)
    n_sr = embed(number_op(2), 3, sp)

    h_static = (
        -m.w * (xt_l @ xt_r)
        + (m.delta / 2) * (p1_l + p1_r)
        + m.omega_s * (n_sl + n_sr)
    )
    raise_both = a_l.dagger() @ a_sl.dagger() + a_r.dagger() @ a_sr.dagger()
    lower_both = raise_both.dagger()
    h_x = raise_both + lower_both
    h_y = 1j * (raise_both - lower_both)

    channels = (
        LindbladChannel(a_sl, m.gamma_s, lossy=True),
        LindbladChannel(a_l, m.gamma_p, lossy=False),
        LindbladChannel(a_r, m.gamma_p, lossy=False),
        LindbladChannel(a_sr, m.gamma_s, lossy=True),
    )
    # the mirror (Sl, l, r, Sr) -> (Sr, r, l, Sl)
    return ModelTerms(sp, h_static, h_x, h_y, channels, ((3, 2, 1, 0),))


def build(model: Model) -> ModelTerms:
    if isinstance(model, SingleQubitModel):
        return build_single_qubit(model)
    if isinstance(model, ThreeQubitModel):
        return build_three_qubit(model)
    if isinstance(model, VslqModel):
        return build_vslq(model)
    raise TypeError(f"unknown model type {type(model).__name__}")


# --- logical states and operators -------------------------------------------

def majority_vote(bits: Sequence[int]) -> int:
    """Majority bit of a three-bit string."""
    if len(bits) != 3 or any(b not in (0, 1) for b in bits):
        raise ValueError("expected three bits")
    return int(sum(bits) >= 2)


def _vslq_primary_vector(sp: TensorSpace, sign_l: int, sign_r: int,
                         shadows=(0, 0)) -> np.ndarray:
    """(|0_l> + sign_l |2_l>)(|0_r> + sign_r |2_r>)/2 with given shadows."""
    v = np.zeros(sp.total_dim, dtype=complex)
    for nl, sl in ((0, 1.0), (2, float(sign_l))):
        for nr, sr in ((0, 1.0), (2, float(sign_r))):
            v += 0.5 * sl * sr * basis_vector(sp, (shadows[0], nl, nr, shadows[1]))
    return v


def vslq_logical_states(m: VslqModel) -> dict[str, QuantumState]:
    """Code states 0L and 1L, and the single-loss error states."""
    sp = m.space
    states: dict[str, QuantumState] = {
        "0L": QuantumState(sp, _vslq_primary_vector(sp, +1, +1)),
        "1L": QuantumState(sp, _vslq_primary_vector(sp, -1, -1)),
    }
    # single photon loss in l (r intact, sign +/-), shadows in vacuum
    for name, sign in (("err_l_plus", 1.0), ("err_l_minus", -1.0)):
        v = (basis_vector(sp, (0, 1, 0, 0)) + sign * basis_vector(sp, (0, 1, 2, 0)))
        states[name] = normalized_state(sp, v)
    for name, sign in (("err_r_plus", 1.0), ("err_r_minus", -1.0)):
        v = (basis_vector(sp, (0, 0, 1, 0)) + sign * basis_vector(sp, (0, 2, 1, 0)))
        states[name] = normalized_state(sp, v)
    return states


def vslq_logical_operators(m: VslqModel) -> dict[str, Operator]:
    """X_L = Xt_l, Z_L = Zt_l Zt_r, Y_L = i X_L Z_L."""
    sp = m.space
    x_l = embed(x_tilde(3), 1, sp)
    z_l = embed(z_tilde(3), 1, sp) @ embed(z_tilde(3), 2, sp)
    y_l = 1j * (x_l @ z_l)
    return {"X": x_l, "Y": y_l, "Z": z_l}


def vslq_pauli_eigenstate(m: VslqModel, which: str, sign: int = +1) -> QuantumState:
    """Eigenstate of a logical Pauli inside the code manifold.

    The code manifold is spanned by 0L and 1L of vslq_logical_states;
    the logical operator is restricted to that 2-d space and the requested
    eigenvector is returned as a full-space state.
    """
    if which not in ("X", "Y", "Z"):
        raise ValueError("which must be X, Y, or Z")
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    states = vslq_logical_states(m)
    basis = np.column_stack([states["0L"].vector(), states["1L"].vector()])
    op = vslq_logical_operators(m)[which].matrix
    restricted = basis.conj().T @ op @ basis
    vals, vecs = np.linalg.eigh(restricted)
    idx = int(np.argmin(np.abs(vals - sign)))
    if abs(vals[idx] - sign) > 1e-9:
        raise ValueError(f"{which} has no {sign:+d} eigenvalue on the code space")
    return normalized_state(m.space, basis @ vecs[:, idx])


def three_qubit_code_states(m: ThreeQubitModel) -> dict[str, QuantumState]:
    """|000>_P and |111>_P with all lossy qubits in the ground state."""
    sp = m.space
    return {
        "0L": basis_state(sp, (0, 0, 0, 0, 0, 0)),
        "1L": basis_state(sp, (1, 1, 1, 0, 0, 0)),
    }


# --- target operations --------------------------------------------------------

@dataclass(frozen=True)
class TargetOperation:
    """Weighted list of (initial, final) state-transfer pairs."""

    pairs: tuple[tuple[QuantumState, QuantumState, float], ...]

    def __init__(self, pairs):
        pairs = tuple((i, f, float(w)) for i, f, w in pairs)
        if not pairs:
            raise ValueError("need at least one pair")
        total = sum(w for _, _, w in pairs)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"pair weights must sum to 1, got {total}")
        if any(w < 0 for _, _, w in pairs):
            raise ValueError("weights must be nonnegative")
        object.__setattr__(self, "pairs", pairs)


def _uniform(pairs) -> TargetOperation:
    w = 1.0 / len(pairs)
    return TargetOperation([(i, f, w) for i, f in pairs])


def target_operation(model: Model) -> TargetOperation:
    """Transfer pairs defining one correction step of the model.

    single qubit: excite qubit+resonator on loss, leave the stabilized
    state alone. three-qubit: flip each single-error state back to its
    majority code state, exciting that qubit's own lossy partner; code
    states are fixed points. VSLQ: refill a lost photon from either primary
    into the matching code superposition (sign set by the intact qubit,
    which keeps the operation unitary and on-resonance), exciting the
    matching shadow; code states are fixed points.
    """
    if isinstance(model, SingleQubitModel):
        sp = model.space
        return _uniform([
            (basis_state(sp, (0, 0)), basis_state(sp, (1, 1))),
            (basis_state(sp, (1, 0)), basis_state(sp, (1, 0))),
        ])

    if isinstance(model, ThreeQubitModel):
        sp = model.space
        pairs = []
        for code in ((0, 0, 0), (1, 1, 1)):
            state = basis_state(sp, code + (0, 0, 0))
            pairs.append((state, state))
            for i in range(3):
                err = list(code)
                err[i] ^= 1
                resonators = [0, 0, 0]
                resonators[i] = 1
                pairs.append((
                    basis_state(sp, tuple(err) + (0, 0, 0)),
                    basis_state(sp, code + tuple(resonators)),
                ))
        return _uniform(pairs)

    if isinstance(model, VslqModel):
        sp = model.space
        st = vslq_logical_states(model)
        pairs = [(st["0L"], st["0L"]), (st["1L"], st["1L"])]
        for sign, tag in ((+1, "plus"), (-1, "minus")):
            pairs.append((
                st[f"err_l_{tag}"],
                QuantumState(sp, _vslq_primary_vector(sp, sign, sign, (1, 0))),
            ))
            pairs.append((
                st[f"err_r_{tag}"],
                QuantumState(sp, _vslq_primary_vector(sp, sign, sign, (0, 1))),
            ))
        return _uniform(pairs)

    raise TypeError(f"unknown model type {type(model).__name__}")


# --- pulse-reset phases ------------------------------------------------------

def phase_channels(terms: ModelTerms, lossy_rate: float
                   ) -> tuple[tuple[Operator, float], ...]:
    """(operator, rate) of every channel with the lossy element held at
    ``lossy_rate`` and every primary channel at its base rate: a pulse
    phase holds it at the first primary's rate, a reset phase at the reset
    rate, and the constant-coupling baseline at its own Gamma_r."""
    return tuple((c.op, lossy_rate if c.lossy else c.rate)
                 for c in terms.channels)
