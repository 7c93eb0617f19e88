"""Composite Hilbert-space construction and dense operator algebra.

All systems simulated here are small (total dimension <= 64), so operators
are kept as dense complex matrices. Subsystems are flattened left-to-right:
the first subsystem in ``dims`` is the slowest-varying index of the
composite basis (q-major ordering). That single convention is fixed here
and relied on everywhere else.

Units: angular frequencies in rad/ns, times in ns, rates in 1/ns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
import scipy.sparse
import scipy.sparse.csgraph

HERM_ATOL = 1e-12        # Hermiticity tolerance for generated Hamiltonians
PURE_NORM_ATOL = 1e-10   # |norm - 1| allowed for pure states
TRACE_ATOL = 1e-10       # |trace - 1| allowed for density matrices
EIG_FLOOR = -1e-9        # most negative admissible density eigenvalue

TWO_PI = 2.0 * np.pi


class DimensionError(ValueError):
    """Shape or subsystem-dimension mismatch."""


@dataclass(frozen=True)
class TensorSpace:
    """Ordered list of subsystem dimensions defining a composite space."""

    dims: tuple[int, ...]

    def __init__(self, dims: Sequence[int]):
        dims = tuple(int(d) for d in dims)
        if not dims:
            raise DimensionError("need at least one subsystem")
        if any(d < 2 for d in dims):
            raise DimensionError(f"every subsystem dimension must be >= 2, got {dims}")
        object.__setattr__(self, "dims", dims)

    @property
    def total_dim(self) -> int:
        return int(np.prod(self.dims))

    @property
    def n_sites(self) -> int:
        return len(self.dims)

    def index_of(self, occupations: Sequence[int]) -> int:
        """Flattened basis index of a product state (first site slowest)."""
        if len(occupations) != len(self.dims):
            raise DimensionError(
                f"expected {len(self.dims)} occupations, got {len(occupations)}"
            )
        idx = 0
        for n, d in zip(occupations, self.dims):
            if not 0 <= n < d:
                raise DimensionError(f"occupation {n} out of range for dim {d}")
            idx = idx * d + n
        return idx


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=complex)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Operator:
    """Dense operator on a TensorSpace. Immutable after construction."""

    space: TensorSpace
    matrix: np.ndarray

    def __init__(self, space: TensorSpace, matrix: np.ndarray):
        matrix = np.asarray(matrix, dtype=complex)
        d = space.total_dim
        if matrix.shape != (d, d):
            raise DimensionError(f"matrix shape {matrix.shape} != ({d}, {d})")
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "matrix", _readonly(matrix))

    def dagger(self) -> "Operator":
        return Operator(self.space, self.matrix.conj().T)

    def is_hermitian(self, atol: float = HERM_ATOL) -> bool:
        return bool(np.max(np.abs(self.matrix - self.matrix.conj().T)) <= atol)

    def __add__(self, other: "Operator") -> "Operator":
        self._check_space(other)
        return Operator(self.space, self.matrix + other.matrix)

    def __sub__(self, other: "Operator") -> "Operator":
        self._check_space(other)
        return Operator(self.space, self.matrix - other.matrix)

    def __mul__(self, scalar: complex) -> "Operator":
        return Operator(self.space, scalar * self.matrix)

    __rmul__ = __mul__

    def __matmul__(self, other: "Operator") -> "Operator":
        self._check_space(other)
        return Operator(self.space, self.matrix @ other.matrix)

    def _check_space(self, other: "Operator") -> None:
        if self.space.dims != other.space.dims:
            raise DimensionError(
                f"operator spaces differ: {self.space.dims} vs {other.space.dims}"
            )


@dataclass(frozen=True)
class QuantumState:
    """Pure vector or density matrix on a TensorSpace.

    Pure states are validated to unit norm; density matrices to unit trace,
    Hermiticity, and non-negative spectrum (within small tolerances).
    """

    space: TensorSpace
    data: np.ndarray
    is_pure: bool = field(init=False)

    def __init__(self, space: TensorSpace, data: np.ndarray):
        data = np.asarray(data, dtype=complex)
        d = space.total_dim
        if data.ndim == 1:
            if data.shape != (d,):
                raise DimensionError(f"state length {data.shape} != {d}")
            norm = np.linalg.norm(data)
            if abs(norm - 1.0) > PURE_NORM_ATOL:
                raise ValueError(f"pure state norm {norm} deviates from 1")
            pure = True
        elif data.ndim == 2:
            if data.shape != (d, d):
                raise DimensionError(f"density shape {data.shape} != ({d}, {d})")
            tr = np.trace(data)
            if abs(tr - 1.0) > TRACE_ATOL:
                raise ValueError(f"density trace {tr} deviates from 1")
            if np.max(np.abs(data - data.conj().T)) > 1e-12:
                raise ValueError("density matrix is not Hermitian to 1e-12")
            if np.min(np.linalg.eigvalsh((data + data.conj().T) / 2)) < EIG_FLOOR:
                raise ValueError("density matrix has eigenvalue below -1e-9")
            pure = False
        else:
            raise DimensionError("state must be a vector or a square matrix")
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "data", _readonly(data))
        object.__setattr__(self, "is_pure", pure)

    def density(self) -> np.ndarray:
        """Density-matrix form of the state (|psi><psi| for pure input)."""
        if self.is_pure:
            return np.outer(self.data, self.data.conj())
        return np.array(self.data)

    def vector(self) -> np.ndarray:
        if not self.is_pure:
            raise ValueError("state is a density matrix, not a pure vector")
        return np.array(self.data)


# --- local building blocks ------------------------------------------------

def ladder(dim: int) -> np.ndarray:
    """Lowering operator a with <n-1|a|n> = sqrt(n) on a dim-level system."""
    if dim < 2:
        raise DimensionError(f"ladder needs dim >= 2, got {dim}")
    return np.diag(np.sqrt(np.arange(1, dim, dtype=float)), k=1).astype(complex)


def number_op(dim: int) -> np.ndarray:
    a = ladder(dim)
    return a.conj().T @ a


def projector(dim: int, level: int) -> np.ndarray:
    """|level><level| on a dim-level system."""
    if not 0 <= level < dim:
        raise DimensionError(f"level {level} out of range for dim {dim}")
    p = np.zeros((dim, dim), dtype=complex)
    p[level, level] = 1.0
    return p


# Pauli matrices with the convention sigma_z |0> = +|0>.
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
SIGMA_MINUS = np.array([[0, 1], [0, 0]], dtype=complex)  # |0><1|


def x_tilde(dim: int = 3) -> np.ndarray:
    """(a^dag a^dag + a a)/sqrt(2); acts as a {|0>,|2>} flip on 3 levels."""
    a = ladder(dim)
    ad = a.conj().T
    return (ad @ ad + a @ a) / np.sqrt(2.0)


def z_tilde(dim: int = 3) -> np.ndarray:
    """P^2 - P^0 on a dim-level system."""
    return projector(dim, 2) - projector(dim, 0)


# --- composite construction -------------------------------------------------

def embed(local_op: np.ndarray, site: int, space: TensorSpace) -> Operator:
    """Embed a local matrix as I x ... x local_op x ... x I on ``space``."""
    local_op = np.asarray(local_op, dtype=complex)
    if not 0 <= site < space.n_sites:
        raise DimensionError(f"site {site} out of range for {space.n_sites} sites")
    d = space.dims[site]
    if local_op.shape != (d, d):
        raise DimensionError(
            f"local operator shape {local_op.shape} != subsystem dim ({d}, {d})"
        )
    m = np.eye(1, dtype=complex)
    for i, dim_i in enumerate(space.dims):
        m = np.kron(m, local_op if i == site else np.eye(dim_i, dtype=complex))
    return Operator(space, m)


def basis_vector(space: TensorSpace, occupations: Sequence[int]) -> np.ndarray:
    """Raw unit vector for a product state; useful for superpositions."""
    v = np.zeros(space.total_dim, dtype=complex)
    v[space.index_of(occupations)] = 1.0
    return v


def basis_state(space: TensorSpace, occupations: Sequence[int]) -> QuantumState:
    """Unit-norm pure product state in the fixed q-major ordering."""
    return QuantumState(space, basis_vector(space, occupations))


def normalized_state(space: TensorSpace, vector: np.ndarray) -> QuantumState:
    v = np.asarray(vector, dtype=complex)
    n = np.linalg.norm(v)
    if n == 0:
        raise ValueError("cannot normalize the zero vector")
    return QuantumState(space, v / n)


def expectation(op: Operator, state: QuantumState) -> float:
    """<psi|O|psi> or Tr(O rho) for Hermitian O; imaginary part discarded."""
    if op.space.dims != state.space.dims:
        raise DimensionError(
            f"operator space {op.space.dims} != state space {state.space.dims}"
        )
    if not op.is_hermitian(atol=1e-9):
        raise ValueError("expectation requires a Hermitian operator")
    if state.is_pure:
        val = np.vdot(state.data, op.matrix @ state.data)
    else:
        val = np.trace(op.matrix @ state.data)
    return float(val.real)


def sector_labels(rows: np.ndarray, cols: np.ndarray, n: int) -> np.ndarray:
    """Invariant-sector label of each of ``n`` basis indices.

    ``(rows, cols)`` are the positions of a matrix's nonzero entries. Two
    indices share a label when a chain of entries, taken in either
    direction, links them (the weakly connected components of the pattern),
    so every such matrix maps each sector into itself.
    """
    # CSR built by hand: going through COO costs more than the labelling
    # itself at the sizes used here (n <= 4096)
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    indices = cols[np.argsort(rows, kind="stable")].astype(np.int32)
    pattern = scipy.sparse.csr_matrix(
        (np.ones(len(indices)), indices, indptr), shape=(n, n))
    _, labels = scipy.sparse.csgraph.connected_components(pattern,
                                                          directed=False)
    return labels


def state_fidelity(rho: QuantumState, target: QuantumState) -> float:
    """<target| rho |target>, accepting pure or mixed rho."""
    if rho.space.dims != target.space.dims:
        raise DimensionError("states live on different spaces")
    psi = target.vector()
    if rho.is_pure:
        return float(abs(np.vdot(psi, rho.data)) ** 2)
    return float(np.real(np.vdot(psi, rho.data @ psi)))
