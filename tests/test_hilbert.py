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

    def test_density_of_pure(self, qubit_pair):
        s = hi.basis_state(qubit_pair, (1, 0))
        rho = s.density()
        assert rho[2, 2] == 1.0 and np.trace(rho) == pytest.approx(1.0)


class TestExpectation:
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
