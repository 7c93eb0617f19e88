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

HERM_ATOL = 1e-12        # Hermiticity tolerance for operators and densities
PURE_NORM_ATOL = 1e-10   # |norm - 1| allowed for pure states
TRACE_ATOL = 1e-10       # |trace - 1| allowed for density matrices
EIG_FLOOR = -1e-9        # most negative admissible density eigenvalue
# Below this d, LAPACK's per-matrix overhead, not the d^3 work, sets the cost
# of a density's eigenvalues, so testing more and smaller blocks loses: at
# d = 6 the block-wise test took 2-4x the whole one, at d = 16 0.6-0.8x
# (OpenBLAS, one thread).
SPLIT_MIN_DIM = 16


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

    def site_permutation(self, perm: Sequence[int]) -> np.ndarray:
        """Basis map of the permutation ``perm`` of the sites.

        Entry k is the basis index of the product state whose site
        perm[i] holds the occupation that site i holds in state k, so
        x[map] permutes a vector and rho[map][:, map] a density. Raises
        ValueError unless ``perm`` permutes the sites and maps each onto
        one of equal dimension.
        """
        perm = tuple(int(i) for i in perm)
        if sorted(perm) != list(range(self.n_sites)):
            raise DimensionError(f"{perm} is not a permutation of "
                                 f"{self.n_sites} sites")
        if any(self.dims[i] != self.dims[j] for i, j in enumerate(perm)):
            raise DimensionError(f"{perm} moves sites between unequal "
                                 f"dimensions {self.dims}")
        return np.arange(self.total_dim).reshape(self.dims).transpose(
            perm).reshape(-1)


def check_densities(rhos: np.ndarray) -> np.ndarray:
    """Raise ValueError unless every matrix of the (K, d, d) stack is a
    density: finite, unit trace to TRACE_ATOL, Hermitian to HERM_ATOL, and
    no eigenvalue of its Hermitian part below EIG_FLOOR. Returns each
    matrix's least such eigenvalue. ``QuantumState`` checks its density as
    a stack of one. A failure names the first matrix that fails, and
    matrix k of K when K > 1. Finiteness is tested before any arithmetic,
    and each bound as ``not x <= bound``, so a NaN fails a test instead of
    passing it.

    A stack of more densities than each has rows (K > d), with d at least
    SPLIT_MIN_DIM, is tested block by block (``_density_blocks``), one
    block at a time, so no temporary spans the stack. Any other is tested
    whole: labelling the blocks costs about one whole-matrix test, which a
    smaller stack cannot repay.
    """
    def fail(bad, message):
        if bad.any():
            k = int(np.argmax(bad))
            where = f" (matrix {k} of {len(rhos)})" if len(rhos) > 1 else ""
            raise ValueError(message(k) + where)

    fail(~np.isfinite(rhos).all(axis=(-2, -1)),
         lambda k: "density matrix has a non-finite entry")
    drift = np.abs(np.trace(rhos, axis1=-2, axis2=-1) - 1.0)
    fail(~(drift <= TRACE_ATOL),
         lambda k: f"density trace drift {drift[k]:.3e} exceeds {TRACE_ATOL}")
    skew, least = np.zeros(len(rhos)), np.full(len(rhos), np.inf)
    for block in (_density_blocks(rhos)
                  if len(rhos) > rhos.shape[-1] >= SPLIT_MIN_DIM else [rhos]):
        adjoint = block.conj().swapaxes(-1, -2)
        np.maximum(skew, np.abs(block - adjoint).max(axis=(1, 2)), out=skew)
        np.minimum(least, np.linalg.eigvalsh((block + adjoint) / 2).min(
            axis=1), out=least)
    fail(~(skew <= HERM_ATOL),
         lambda k: f"density matrix is not Hermitian to {HERM_ATOL}")
    fail(~(least >= EIG_FLOOR),
         lambda k: f"density matrix has eigenvalue below {EIG_FLOOR}")
    return least


def _density_blocks(rhos: np.ndarray):
    """The diagonal blocks of the (K, d, d) stack, each gathered from it as
    a (K, s, s) array when it is reached.

    The blocks are the sectors (``sector_labels``) of the union nonzero
    pattern of the stack, which links i and j in both directions when an
    entry at (i, j) is nonzero in any matrix, so the partition is closed
    under transposition. Every entry outside the blocks is then zero in
    every matrix at both of its positions, so it is Hermitian exactly, and
    the Hermitian part of each matrix is block diagonal with the spectrum
    of its blocks. No entry escapes the tests: one that links two blocks
    merges them.
    """
    d = rhos.shape[-1]
    labels = sector_labels(*np.nonzero(np.count_nonzero(rhos, axis=0)), d)
    order = np.argsort(labels, kind="stable")
    for idx in np.split(order, np.cumsum(np.bincount(labels))[:-1]):
        yield rhos[:, idx[:, None], idx]


def _readonly(a: np.ndarray) -> np.ndarray:
    """A read-only C-contiguous complex view of ``a``, which stays as it was."""
    view = np.ascontiguousarray(a, dtype=complex).view()
    view.setflags(write=False)
    return view


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
        object.__setattr__(self, "matrix", _readonly(matrix.copy()))

    def dagger(self) -> "Operator":
        return Operator(self.space, self.matrix.conj().T)

    def is_hermitian(self) -> bool:
        return bool(np.max(np.abs(self.matrix - self.matrix.conj().T)) <= HERM_ATOL)

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

    Pure states are validated to finite entries and unit norm; density
    matrices by ``check_densities``. ``QuantumState.densities`` checks a
    stack of densities at once.
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
            if not np.isfinite(data).all():
                raise ValueError("pure state has a non-finite entry")
            norm = np.linalg.norm(data)
            if not abs(norm - 1.0) <= PURE_NORM_ATOL:
                raise ValueError(f"pure state norm {norm} deviates from 1")
        elif data.ndim == 2:
            if data.shape != (d, d):
                raise DimensionError(f"density shape {data.shape} != ({d}, {d})")
            check_densities(data[None])
        else:
            raise DimensionError("state must be a vector or a square matrix")
        self._set(space, _readonly(data.copy()))

    @classmethod
    def densities(cls, space: TensorSpace,
                  rhos: np.ndarray) -> list["QuantumState"]:
        """The K density states of the (K, d, d) stack ``rhos``, checked by
        one ``check_densities`` call and held as read-only views of it."""
        rhos = np.asarray(rhos, dtype=complex)
        d = space.total_dim
        if rhos.ndim != 3 or rhos.shape[1:] != (d, d):
            raise DimensionError(f"density stack shape {rhos.shape} != "
                                 f"(K, {d}, {d})")
        check_densities(rhos)
        states = [object.__new__(cls) for _ in range(len(rhos))]
        for state, rho in zip(states, _readonly(rhos)):
            state._set(space, rho)
        return states

    def _set(self, space: TensorSpace, data: np.ndarray) -> None:
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "is_pure", data.ndim == 1)

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


def expectation(op: Operator, states: QuantumState | Sequence[QuantumState]
                ) -> float | np.ndarray:
    """<psi|O|psi> or Tr(O rho) for Hermitian O, imaginary part discarded:
    a float for one state, an array for a sequence of them.

    O is checked once per call. Tr(O rho) is taken as sum_ij O_ij rho_ji,
    one d^2 dot product, not the trace of a d^3 matrix product. Each state
    takes the same formula alone or in a sequence, so both give the same
    bits.
    """
    one = isinstance(states, QuantumState)
    states = [states] if one else list(states)
    for state in states:
        if op.space.dims != state.space.dims:
            raise DimensionError(f"operator space {op.space.dims} != "
                                 f"state space {state.space.dims}")
    if not op.is_hermitian():
        raise ValueError("expectation requires a Hermitian operator")
    # vdot conjugates its first argument: vdot(O^dag, rho) = sum O_ij rho_ji
    adjoint = np.ascontiguousarray(op.matrix.conj().T)
    vals = np.array([
        np.vdot(s.data, op.matrix @ s.data).real if s.is_pure
        else np.vdot(adjoint, s.data).real for s in states])
    return float(vals[0]) if one else vals


def sector_labels(rows: np.ndarray, cols: np.ndarray, n: int) -> np.ndarray:
    """Invariant-sector label of each of ``n`` basis indices.

    ``(rows, cols)`` are the positions of a matrix's nonzero entries. Two
    indices share a label when a chain of entries, taken in either
    direction, links them (the weakly connected components of the pattern),
    so every such matrix maps each sector into itself. Sectors are numbered
    in the order of their least index, the order of
    ``scipy.sparse.csgraph.connected_components``.

    Each index points to an index of its sector no greater than itself.
    Every round hooks the root of each entry's end to the least root the
    entry links it to, in both directions, then jumps pointers until each
    points to its root; it stops when every entry links one root, which is
    then the least index of its sector.
    """
    labels = np.arange(n)
    while True:
        at_rows, at_cols = labels[rows], labels[cols]
        if np.array_equal(at_rows, at_cols):
            break
        np.minimum.at(labels, at_rows, at_cols)
        np.minimum.at(labels, at_cols, at_rows)
        while True:
            jumped = labels[labels]
            if np.array_equal(jumped, labels):
                break
            labels = jumped
    return np.unique(labels, return_inverse=True)[1]


def state_fidelity(rho: QuantumState, target: QuantumState) -> float:
    """<target| rho |target>, accepting pure or mixed rho."""
    if rho.space.dims != target.space.dims:
        raise DimensionError("states live on different spaces")
    psi = target.vector()
    if rho.is_pure:
        return float(abs(np.vdot(psi, rho.data)) ** 2)
    return float(np.real(np.vdot(psi, rho.data @ psi)))
