import functools

import numpy as np
import pytest

from aqec import hilbert as hi


@pytest.fixture
def qubit_pair():
    return hi.TensorSpace((2, 2))


@pytest.fixture
def qubit_resonator():
    return hi.TensorSpace((3, 2))


class TestTensorSpace:
    def test_total_dim(self):
        assert hi.TensorSpace((3, 2)).total_dim == 6
        assert hi.TensorSpace((2,) * 6).total_dim == 64
        assert hi.TensorSpace((2, 3, 3, 2)).total_dim == 36

    def test_rejects_small_dims(self):
        with pytest.raises(hi.DimensionError):
            hi.TensorSpace((2, 1))
        with pytest.raises(hi.DimensionError):
            hi.TensorSpace(())

    def test_index_first_site_slowest(self, qubit_resonator):
        # q-major ordering: |1_q 0_r> sits at index 2 for dims (3, 2)
        assert qubit_resonator.index_of((1, 0)) == 2
        assert qubit_resonator.index_of((0, 1)) == 1
        assert hi.TensorSpace((2,) * 6).index_of((0,) * 6) == 0

    def test_index_range_check(self, qubit_resonator):
        with pytest.raises(hi.DimensionError):
            qubit_resonator.index_of((3, 0))
        with pytest.raises(hi.DimensionError):
            qubit_resonator.index_of((0,))


class TestLadder:
    def test_two_level(self):
        assert np.allclose(hi.ladder(2), [[0, 1], [0, 0]])

    def test_three_level_elements(self):
        a = hi.ladder(3)
        assert a[0, 1] == 1.0
        assert a[1, 2] == pytest.approx(np.sqrt(2))
        assert np.count_nonzero(a) == 2

    def test_number_operator_diagonal(self):
        n = hi.number_op(3)
        assert np.allclose(np.diag(n), [0, 1, 2])

    def test_rejects_dim_one(self):
        with pytest.raises(hi.DimensionError):
            hi.ladder(1)


class TestEmbed:
    def test_sigma_z_on_first_site(self, qubit_pair):
        op = hi.embed(hi.SIGMA_Z, 0, qubit_pair)
        assert np.allclose(np.diag(op.matrix), [1, 1, -1, -1])

    def test_lowering_on_first_site(self, qubit_resonator):
        a_q = hi.embed(hi.ladder(3), 0, qubit_resonator)
        one = hi.basis_vector(qubit_resonator, (1, 0))
        zero = hi.basis_vector(qubit_resonator, (0, 0))
        assert np.allclose(a_q.matrix @ one, zero)

    def test_raising_gives_sqrt2(self, qubit_resonator):
        ad = hi.embed(hi.ladder(3).conj().T, 0, qubit_resonator)
        one = hi.basis_vector(qubit_resonator, (1, 0))
        two = hi.basis_vector(qubit_resonator, (2, 0))
        assert np.allclose(ad.matrix @ one, np.sqrt(2) * two)

    def test_shape_mismatch(self, qubit_resonator):
        with pytest.raises(hi.DimensionError):
            hi.embed(hi.SIGMA_X, 0, qubit_resonator)   # site 0 has dim 3
        with pytest.raises(hi.DimensionError):
            hi.embed(hi.SIGMA_X, 2, qubit_resonator)

    def test_disjoint_sites_commute(self):
        rng = np.random.default_rng(7)
        space = hi.TensorSpace((2, 3, 2))
        for _ in range(5):
            a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            oa = hi.embed(a, 0, space)
            ob = hi.embed(b, 1, space)
            comm = oa @ ob - ob @ oa
            assert np.max(np.abs(comm.matrix)) < 1e-12


class TestBasisState:
    def test_flattened_position(self):
        sp = hi.TensorSpace((3, 2))
        s = hi.basis_state(sp, (1, 0))
        assert s.data[2] == 1.0 and np.count_nonzero(s.data) == 1

    def test_unit_norm(self):
        sp = hi.TensorSpace((2, 3, 3, 2))
        s = hi.basis_state(sp, (1, 2, 0, 1))
        assert np.linalg.norm(s.data) == pytest.approx(1.0, abs=1e-12)

    def test_occupation_out_of_range(self):
        with pytest.raises(hi.DimensionError):
            hi.basis_state(hi.TensorSpace((2, 2)), (0, 2))


class TestQuantumState:
    def test_pure_norm_enforced(self, qubit_pair):
        with pytest.raises(ValueError):
            hi.QuantumState(qubit_pair, np.array([1.0, 1.0, 0, 0]))

    def test_density_validation(self, qubit_pair):
        rho = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
        s = hi.QuantumState(qubit_pair, rho)
        assert not s.is_pure
        with pytest.raises(ValueError):
            hi.QuantumState(qubit_pair, 2 * rho)       # trace 2
        bad = rho.copy()
        bad[0, 1] = 0.1                                 # not Hermitian
        with pytest.raises(ValueError):
            hi.QuantumState(qubit_pair, bad)

    def test_negative_eigenvalue_rejected(self, qubit_pair):
        rho = np.diag([1.1, -0.1, 0.0, 0.0]).astype(complex)
        with pytest.raises(ValueError):
            hi.QuantumState(qubit_pair, rho)

    @pytest.mark.parametrize("corrupt,match", [
        (lambda r: r * (1 + 2 * hi.TRACE_ATOL), "trace drift"),
        (lambda r: r + np.triu(np.full_like(r, 2 * hi.HERM_ATOL), 1),
         "not Hermitian"),
        (lambda r: r + np.diag([-2 * hi.EIG_FLOOR, 0, 2 * hi.EIG_FLOOR, 0]),
         "eigenvalue below"),
    ], ids=["trace", "hermitian", "eigenvalue"])
    def test_density_bounds_are_check_densities_bounds(self, qubit_pair,
                                                       corrupt, match):
        # just past each bound, the state and the stack check fail alike,
        # and the stack check names the failing matrix
        rho = corrupt(np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex))
        with pytest.raises(ValueError, match=match):
            hi.QuantumState(qubit_pair, rho)
        good = np.diag([0.25] * 4).astype(complex)
        with pytest.raises(ValueError, match=rf"{match}.*\(matrix 1 of 3\)"):
            hi.check_densities(np.stack([good, rho, good]))
        hi.check_densities(np.stack([good, good]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_vector_rejected(self, qubit_pair, bad):
        # a NaN norm used to pass abs(norm - 1) > PURE_NORM_ATOL
        with pytest.raises(ValueError, match="non-finite"):
            hi.QuantumState(qubit_pair, np.array([bad, 0, 0, 0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.inf)],
                             ids=["nan", "inf", "imag-inf"])
    def test_non_finite_density_rejected(self, qubit_pair, bad):
        # rejected before any arithmetic, with the gate's message and the
        # failing matrix, not a LinAlgError or a RuntimeWarning
        rho = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
        rho[0, 1] = rho[1, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            hi.QuantumState(qubit_pair, rho)
        good = np.diag([0.25] * 4).astype(complex)
        with pytest.raises(ValueError,
                           match=r"non-finite.*\(matrix 2 of 3\)"):
            hi.check_densities(np.stack([good, good, rho]))

    def test_density_of_pure(self, qubit_pair):
        s = hi.basis_state(qubit_pair, (1, 0))
        rho = s.density()
        assert rho[2, 2] == 1.0 and np.trace(rho) == pytest.approx(1.0)


class TestCallerArrays:
    """No constructor changes the array it is given: an operator and a
    single state keep a private read-only copy, and a density stack's
    states a read-only view of the stack itself."""

    @pytest.mark.parametrize("given,make", [
        (np.eye(4) / 4, lambda sp, a: hi.Operator(sp, a).matrix),
        (np.full(4, 0.5), lambda sp, a: hi.QuantumState(sp, a).data),
        (np.eye(4) / 4, lambda sp, a: hi.QuantumState(sp, a).data),
    ], ids=["operator", "vector", "density"])
    def test_private_read_only_copy(self, qubit_pair, given, make):
        given = given.astype(complex)     # contiguous complex: no conversion
        kept = make(qubit_pair, given)
        before = kept.copy()
        assert given.flags.writeable and not kept.flags.writeable
        assert not np.shares_memory(kept, given)
        given[0] = 0.0
        assert np.array_equal(kept, before)

    def test_density_stack_view_leaves_the_stack_writeable(self, qubit_pair):
        rhos = np.stack([np.eye(4, dtype=complex) / 4] * 2)
        states = hi.QuantumState.densities(qubit_pair, rhos)
        assert rhos.flags.writeable
        assert not any(s.data.flags.writeable for s in states)
        rhos[0, 0, 0] = 0.5
        assert states[0].data[0, 0] == 0.5


class TestExpectation:
    def test_sequence_reads_each_state_as_alone(self):
        sp = hi.TensorSpace((3, 2))
        op = hi.embed(hi.number_op(3), 0, sp) + hi.embed(hi.SIGMA_X, 1, sp)
        rhos = np.stack([hi.normalized_state(sp, np.arange(1.0, 7.0) ** p)
                         .density() for p in range(4)])
        states = hi.QuantumState.densities(sp, rhos)
        states.append(hi.basis_state(sp, (2, 1)))
        vals = hi.expectation(op, states)
        assert isinstance(vals, np.ndarray)
        assert vals.tolist() == [hi.expectation(op, s) for s in states]
        want = [np.trace(op.matrix @ s.density()).real for s in states]
        assert np.allclose(vals, want, rtol=0, atol=1e-14)
        assert hi.expectation(op, []).shape == (0,)

    def test_sequence_checks_every_space(self):
        op = hi.embed(hi.SIGMA_Z, 0, hi.TensorSpace((2, 2)))
        states = [hi.basis_state(hi.TensorSpace((2, 2)), (0, 0)),
                  hi.basis_state(hi.TensorSpace((3, 2)), (0, 0))]
        with pytest.raises(hi.DimensionError):
            hi.expectation(op, states)

    def test_projector_on_other_state(self):
        sp = hi.TensorSpace((3, 2))
        p2 = hi.embed(hi.projector(3, 2), 0, sp)
        s = hi.basis_state(sp, (1, 0))
        assert hi.expectation(p2, s) == pytest.approx(0.0, abs=1e-14)

    def test_density_branch_matches_pure(self):
        sp = hi.TensorSpace((3, 2))
        op = hi.embed(hi.number_op(3), 0, sp)
        psi = hi.normalized_state(sp, np.arange(1.0, 7.0))
        rho = hi.QuantumState(sp, psi.density())
        assert hi.expectation(op, psi) == pytest.approx(hi.expectation(op, rho))

    def test_space_mismatch(self):
        op = hi.embed(hi.SIGMA_Z, 0, hi.TensorSpace((2, 2)))
        s = hi.basis_state(hi.TensorSpace((3, 2)), (0, 0))
        with pytest.raises(hi.DimensionError):
            hi.expectation(op, s)

    def test_non_hermitian_rejected(self):
        sp = hi.TensorSpace((2,))
        op = hi.Operator(sp, np.array([[0, 1], [0, 0]]))
        with pytest.raises(ValueError):
            hi.expectation(op, hi.basis_state(sp, (0,)))

    def test_hermiticity_tolerance_is_herm_atol(self):
        # 1e-10 off Hermitian is outside HERM_ATOL, the one tolerance
        sp = hi.TensorSpace((2,))
        op = hi.Operator(sp, np.array([[0, 1e-10], [0, 0]]))
        with pytest.raises(ValueError):
            hi.expectation(op, hi.basis_state(sp, (0,)))


class TestDensityStack:
    def test_states_are_read_only_views_of_one_checked_stack(
            self, qubit_pair, monkeypatch):
        calls = []
        check = hi.check_densities
        monkeypatch.setattr(hi, "check_densities",
                            lambda r: calls.append(len(r)) or check(r))
        rhos = np.stack([np.diag(p).astype(complex) for p in
                         ([1, 0, 0, 0], [0.5, 0.5, 0, 0], [0.25] * 4)])
        states = hi.QuantumState.densities(qubit_pair, rhos)
        assert calls == [3]
        assert [s.is_pure for s in states] == [False] * 3
        assert all(np.shares_memory(s.data, rhos) for s in states)
        assert np.array_equal(states[1].density(), rhos[1])
        with pytest.raises(ValueError, match="read-only"):
            states[0].data[0, 0] = 0.5

    def test_shape_and_failure(self, qubit_pair):
        with pytest.raises(hi.DimensionError):
            hi.QuantumState.densities(qubit_pair, np.eye(4) / 4)
        with pytest.raises(hi.DimensionError):
            hi.QuantumState.densities(qubit_pair, np.zeros((2, 3, 3)))
        rhos = np.stack([np.eye(4) / 4, np.eye(4) / 2]).astype(complex)
        with pytest.raises(ValueError, match=r"trace drift.*\(matrix 1 of 2\)"):
            hi.QuantumState.densities(qubit_pair, rhos)


def _block_stack(sizes, n_zero, k, seed):
    """k random densities with diagonal blocks of ``sizes`` plus ``n_zero``
    levels that every matrix leaves empty, under one random permutation of
    the basis; each matrix is full rank on its blocks."""
    rng = np.random.default_rng(seed)
    d = sum(sizes) + n_zero
    rhos = np.zeros((k, d, d), dtype=complex)
    start = 0
    for size in sizes:
        a = (rng.normal(size=(k, size, size))
             + 1j * rng.normal(size=(k, size, size)))
        rhos[:, start:start + size, start:start + size] = (
            a @ a.conj().swapaxes(-1, -2))
        start += size
    perm = rng.permutation(d)
    rhos = rhos[:, perm][:, :, perm]
    rhos /= np.trace(rhos, axis1=1, axis2=2)[:, None, None].real
    return (rhos + rhos.conj().swapaxes(-1, -2)) / 2


@functools.cache
def _vslq_fixed_records():
    """The 2 x 81 records of the Table 1 fixed point at T1 = 30 us, from
    |+X_L> and from |+Y_L>; callers copy before they mutate."""
    from aqec import dynamics as dy
    from aqec import models as mo
    from aqec import optimize as op
    from aqec.presets import VSLQ_FIXED_TABLE
    two_pi = 2 * np.pi
    omega, gamma_s, omega_s = VSLQ_FIXED_TABLE[30][:3]
    model = mo.VslqModel(w=two_pi * 0.035, delta=two_pi * 0.35,
                         gamma_p=1 / 30000, gamma_s=gamma_s * 1e-3,
                         omega_s=two_pi * omega_s * 1e-3)
    terms = mo.build_vslq(model)
    h = terms.h_static + two_pi * omega * 1e-3 * terms.h_x
    channels = tuple((c.op, c.rate) for c in terms.channels)
    times = np.linspace(0.0, op.FIXED_WINDOW_US * 1e3, op.FIXED_SAMPLES)
    return [np.stack([s.data for s in dy.evolve_constant_lindblad(
        h, channels, mo.vslq_pauli_eigenstate(model, which, +1), times,
        terms.basis_symmetries).states]) for which in ("X", "Y")]


GATE_STACKS = {
    "vslq-X": lambda: _vslq_fixed_records()[0],
    "vslq-Y": lambda: _vslq_fixed_records()[1],
    # d = 17 on both sides of the K > d rule, and at its edge; d = 13 is
    # below SPLIT_MIN_DIM, so it is tested whole at any K
    "random-whole": lambda: _block_stack([7, 5, 3, 1], 1, 8, 1),
    "random-k-equals-d": lambda: _block_stack([7, 5, 3, 1], 1, 17, 3),
    "random-split": lambda: _block_stack([7, 5, 3, 1], 1, 30, 2),
    "random-small-d": lambda: _block_stack([5, 4, 2, 1], 1, 20, 4),
}


def _whole_reference(rhos):
    """(index of the first matrix failing the gate or None, least
    eigenvalue of each full Hermitian part), one matrix at a time."""
    least, bad = [], None
    for k, rho in enumerate(rhos):
        herm = (rho + rho.conj().T) / 2
        least.append(np.linalg.eigvalsh(herm).min())
        fails = (abs(np.trace(rho) - 1) > hi.TRACE_ATOL
                 or np.abs(rho - rho.conj().T).max() > hi.HERM_ATOL
                 or least[-1] < hi.EIG_FLOOR)
        if fails and bad is None:
            bad = k
    return bad, np.array(least)


def _blocks_of(rho):
    """The basis indices of each block of rho's nonzero pattern, found
    with scipy rather than the gate's own labelling."""
    import scipy.sparse
    import scipy.sparse.csgraph
    n, labels = scipy.sparse.csgraph.connected_components(
        scipy.sparse.csr_matrix(rho != 0), directed=False)
    return [np.flatnonzero(labels == b) for b in range(n)]


def _dip_in_block(rho):
    """Move weight inside the largest block until its least eigenvalue
    reaches -1e-6, keeping the trace."""
    idx = max(_blocks_of(rho), key=len)
    sub = np.ix_(idx, idx)
    w, v = np.linalg.eigh(rho[sub])
    shift = w[0] + 1e-6
    rho[sub] += shift * (np.outer(v[:, -1], v[:, -1].conj())
                         - np.outer(v[:, 0], v[:, 0].conj()))


def _skew_in_block(rho):
    idx = max(_blocks_of(rho), key=len)
    rho[idx[0], idx[1]] += 1e-9


def _link_blocks(rho):
    """A Hermitian pair of entries between the least-populated levels of
    two blocks, large enough for a negative eigenvalue of the merged
    block; a gate on the blocks of the unmutated pattern would pass it."""
    blocks = sorted(_blocks_of(rho), key=len)[-2:]
    i, j = (b[np.argmin(rho.diagonal()[b].real)] for b in blocks)
    link = np.sqrt(rho[i, i].real * rho[j, j].real) + 1e-6
    rho[i, j] = rho[j, i] = link


def _drift_trace(rho):
    rho *= 1 + 5 * hi.TRACE_ATOL


GATE_MUTATIONS = {"dip": (_dip_in_block, "eigenvalue below"),
                  "skew": (_skew_in_block, "not Hermitian"),
                  "link": (_link_blocks, "eigenvalue below"),
                  "trace": (_drift_trace, "trace drift")}


class TestBlockwiseGateOracle:
    """check_densities, split into blocks or whole, against eigvalsh of
    each full Hermitian part."""

    @pytest.fixture(params=list(GATE_STACKS), scope="class")
    def stack(self, request):
        return GATE_STACKS[request.param]()

    def test_split_rule(self, stack, monkeypatch):
        # only a stack of more densities than rows, of d >= SPLIT_MIN_DIM,
        # is split, into blocks whose rows partition the d rows
        split = []
        blocks = hi._density_blocks
        monkeypatch.setattr(hi, "_density_blocks",
                            lambda r: split.append(list(blocks(r)))
                            or split[-1])
        hi.check_densities(stack)
        k, d = stack.shape[:2]
        assert len(split) == (k > d >= hi.SPLIT_MIN_DIM)
        if split:
            assert sum(b.shape[-1] for b in split[0]) == d
            assert all(b.shape[0] == k for b in split[0])

    def test_vslq_records_split_into_four_blocks_of_nine(self):
        x_records, _ = _vslq_fixed_records()
        shapes = [b.shape for b in hi._density_blocks(x_records)]
        assert shapes == [(81, 9, 9)] * 4

    def test_passes_with_the_reference_least_eigenvalue(self, stack):
        bad, least = _whole_reference(stack)
        assert bad is None
        assert np.max(np.abs(hi.check_densities(stack) - least)) <= 1e-14

    @pytest.mark.parametrize("mutation", list(GATE_MUTATIONS))
    def test_mutation_is_caught_at_its_matrix(self, stack, mutation):
        corrupt, match = GATE_MUTATIONS[mutation]
        k = len(stack) // 2 + 1
        bad = stack.copy()
        corrupt(bad[k])
        assert _whole_reference(bad)[0] == k
        with pytest.raises(ValueError,
                           match=rf"{match}.*\(matrix {k} of {len(bad)}\)"):
            hi.check_densities(bad)


class TestTildeOperators:
    def test_x_tilde_unit_flip(self):
        # (a+a+ + aa)/sqrt(2) flips |0> <-> |2> with matrix element exactly 1
        xt = hi.x_tilde(3)
        assert xt[0, 2] == pytest.approx(1.0, abs=1e-15)
        assert xt[2, 0] == pytest.approx(1.0, abs=1e-15)
        assert xt[1, 1] == 0.0

    def test_z_tilde_anticommutes_with_x_tilde(self):
        xt, zt = hi.x_tilde(3), hi.z_tilde(3)
        anti = xt @ zt + zt @ xt
        sub = np.ix_([0, 2], [0, 2])
        assert np.max(np.abs(anti[sub])) < 1e-14

    def test_x_tilde_eigenstates(self):
        xt = hi.x_tilde(3)
        plus = np.array([1, 0, 1]) / np.sqrt(2)
        assert np.allclose(xt @ plus, plus)
