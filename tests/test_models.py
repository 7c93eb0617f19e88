import dataclasses

import numpy as np
import pytest

from aqec import hilbert as hi
from aqec import models as mo

TWO_PI = 2 * np.pi


@pytest.fixture
def sq_model():
    return mo.SingleQubitModel(delta=TWO_PI * 0.35, gamma_q=2e-4, gamma_r=2e-4)


@pytest.fixture
def tq_model():
    return mo.ThreeQubitModel(j=TWO_PI * 0.02, gamma_p=1e-4, gamma_r=0.03)


@pytest.fixture
def vslq_model():
    return mo.VslqModel(w=TWO_PI * 0.035, delta=TWO_PI * 0.35,
                        gamma_p=2e-4, gamma_s=0.035)


def _support_is_single_site(op: hi.Operator, site: int):
    """Check the operator acts as identity on every other tensor factor."""
    dims = op.space.dims
    m = op.matrix.reshape(*dims, *dims)
    # trace out the claimed support site; remainder must be proportional to I
    d_site = dims[site]
    other = [i for i in range(len(dims)) if i != site]
    perm = [site] + other + [site + len(dims)] + [i + len(dims) for i in other]
    m = np.transpose(m, perm)
    d_rest = int(np.prod([dims[i] for i in other])) if other else 1
    m = m.reshape(d_site, d_rest, d_site, d_rest)
    local = np.trace(m, axis1=1, axis2=3) / d_rest
    rebuilt = np.einsum("ik,jl->ijkl", local, np.eye(d_rest))
    return np.allclose(m, rebuilt, atol=1e-12)


class TestSingleQubit:
    def test_coupling_matrix_elements(self, sq_model):
        terms = mo.build_single_qubit(sq_model)
        sp = sq_model.space
        hx = terms.h_x.matrix
        assert hx[sp.index_of((1, 1)), sp.index_of((0, 0))] == pytest.approx(1.0)
        assert hx[sp.index_of((2, 1)), sp.index_of((1, 0))] == pytest.approx(
            np.sqrt(2))

    def test_static_diagonal(self, sq_model):
        terms = mo.build_single_qubit(sq_model)
        sp = sq_model.space
        diag = np.real(np.diag(terms.h_static.matrix))
        expected = np.zeros(6)
        expected[sp.index_of((2, 0))] = -sq_model.delta
        expected[sp.index_of((2, 1))] = -sq_model.delta
        assert np.allclose(diag, expected)
        off = terms.h_static.matrix - np.diag(np.diag(terms.h_static.matrix))
        assert np.max(np.abs(off)) == 0.0

    def test_channels(self, sq_model):
        terms = mo.build_single_qubit(sq_model)
        assert [c.rate for c in terms.channels] == [2e-4, 2e-4]
        assert [c.lossy for c in terms.channels] == [False, True]

    def test_regime_warning(self, sq_model):
        with pytest.warns(mo.RegimeWarning):
            mo.check_coupling_regime(sq_model, sq_model.delta)
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mo.check_coupling_regime(sq_model, sq_model.delta / 10)

    def test_regime_check_returns_what_it_warned(self, sq_model):
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert mo.check_coupling_regime(sq_model,
                                            0.9 * sq_model.delta / 5) == []
        with pytest.warns(mo.RegimeWarning) as caught:
            messages = mo.check_coupling_regime(sq_model,
                                                1.1 * sq_model.delta / 5)
        assert len(messages) == 1 and "delta/5" in messages[0]
        assert [str(w.message) for w in caught] == messages

    def test_delta_must_be_positive(self):
        with pytest.raises(ValueError):
            mo.SingleQubitModel(delta=0.0, gamma_q=0.0, gamma_r=0.0)


class TestThreeQubit:
    def test_static_energies(self, tq_model):
        terms = mo.build_three_qubit(tq_model)
        sp = tq_model.space
        j = tq_model.j
        diag = np.real(np.diag(terms.h_static.matrix))
        # all-aligned primaries, resonators down: -3J - 6J
        assert diag[sp.index_of((0,) * 6)] == pytest.approx(-9 * j)
        # single flipped primary: +J - 6J
        assert diag[sp.index_of((1, 0, 0, 0, 0, 0))] == pytest.approx(-5 * j)
        assert diag[sp.index_of((1, 1, 1, 0, 0, 0))] == pytest.approx(-9 * j)

    def test_static_is_diagonal(self, tq_model):
        h = mo.build_three_qubit(tq_model).h_static.matrix
        assert np.max(np.abs(h - np.diag(np.diag(h)))) == 0.0

    def test_error_transfer_is_resonant(self, tq_model):
        terms = mo.build_three_qubit(tq_model)
        sp = tq_model.space
        diag = np.real(np.diag(terms.h_static.matrix))
        i_err = sp.index_of((1, 0, 1, 0, 0, 0))
        i_fix = sp.index_of((1, 1, 1, 0, 1, 0))
        assert diag[i_err] == pytest.approx(diag[i_fix])

    def test_coupling_flips_pairs(self, tq_model):
        terms = mo.build_three_qubit(tq_model)
        sp = tq_model.space
        src = sp.index_of((1, 0, 0, 0, 0, 0))
        dst = sp.index_of((0, 0, 0, 1, 0, 0))
        assert terms.h_x.matrix[dst, src] == pytest.approx(1.0)

    def test_channels(self, tq_model):
        chans = mo.build_three_qubit(tq_model).channels
        for i, c in enumerate(chans):
            assert _support_is_single_site(c.op, i)
            assert c.rate == (1e-4 if i < 3 else 0.03)

    def test_majority_vote(self):
        assert mo.majority_vote((0, 1, 0)) == 0
        assert mo.majority_vote((1, 0, 1)) == 1
        with pytest.raises(ValueError):
            mo.majority_vote((0, 1))


class TestVslq:
    def test_code_state_energies(self, vslq_model):
        terms = mo.build_vslq(vslq_model)
        st = mo.vslq_logical_states(vslq_model)
        w = vslq_model.w
        assert hi.expectation(terms.h_static, st["0L"]) == pytest.approx(-w)
        assert hi.expectation(terms.h_static, st["1L"]) == pytest.approx(-w)
        assert hi.expectation(terms.h_static, st["err_l_plus"]) == \
            pytest.approx(vslq_model.delta / 2)

    def test_code_states_orthonormal(self, vslq_model):
        st = mo.vslq_logical_states(vslq_model)
        assert abs(np.vdot(st["0L"].vector(), st["1L"].vector())) < 1e-14

    def test_code_space_degenerate_under_static(self, vslq_model):
        terms = mo.build_vslq(vslq_model)
        st = mo.vslq_logical_states(vslq_model)
        for name in ("0L", "1L"):
            v = st[name].vector()
            hv = terms.h_static.matrix @ v
            assert np.allclose(hv, -vslq_model.w * v, atol=1e-12)

    def test_omega_s_default(self):
        m = mo.VslqModel(w=1.0, delta=10.0, gamma_p=0.0, gamma_s=0.0)
        assert m.omega_s == pytest.approx(6.0)
        m2 = mo.VslqModel(w=1.0, delta=10.0, gamma_p=0.0, gamma_s=0.0,
                          omega_s=5.9)
        assert m2.omega_s == 5.9

    @pytest.mark.parametrize("w,delta", [(0.0, 10.0), (-1.0, 10.0),
                                         (1.0, 0.0), (1.0, -10.0)])
    def test_w_and_delta_must_be_positive(self, w, delta):
        with pytest.raises(ValueError, match="w and delta must be positive"):
            mo.VslqModel(w=w, delta=delta, gamma_p=0.0, gamma_s=0.0)

    def test_channels(self, vslq_model):
        chans = mo.build_vslq(vslq_model).channels
        for site, c in enumerate(chans):
            assert _support_is_single_site(c.op, site)

    def test_logical_operators(self, vslq_model):
        ops = mo.vslq_logical_operators(vslq_model)
        st = mo.vslq_logical_states(vslq_model)
        assert hi.expectation(ops["X"], st["0L"]) == pytest.approx(1.0)
        assert hi.expectation(ops["X"], st["1L"]) == pytest.approx(-1.0)
        assert hi.expectation(ops["Z"], st["0L"]) == pytest.approx(0.0, abs=1e-12)
        for name in ("X", "Y", "Z"):
            assert ops[name].is_hermitian()

    def test_pauli_eigenstates(self, vslq_model):
        ops = mo.vslq_logical_operators(vslq_model)
        for which in ("X", "Y", "Z"):
            for sign in (+1, -1):
                s = mo.vslq_pauli_eigenstate(vslq_model, which, sign)
                assert hi.expectation(ops[which], s) == pytest.approx(sign)


class TestHermiticity:
    @pytest.mark.parametrize("build,model", [
        (mo.build_single_qubit,
         mo.SingleQubitModel(delta=TWO_PI * 0.35, gamma_q=0, gamma_r=0)),
        (mo.build_three_qubit,
         mo.ThreeQubitModel(j=TWO_PI * 0.02, gamma_p=0, gamma_r=0)),
        (mo.build_vslq,
         mo.VslqModel(w=TWO_PI * 0.035, delta=TWO_PI * 0.35,
                      gamma_p=0, gamma_s=0)),
    ])
    def test_all_terms_hermitian(self, build, model):
        terms = build(model)
        for op in (terms.h_static, terms.h_x, terms.h_y):
            assert op.is_hermitian()


class TestTargetOperation:
    def test_single_qubit_pairs(self, sq_model):
        target = mo.target_operation(sq_model)
        assert len(target.pairs) == 2
        sp = sq_model.space
        init, fin, w = target.pairs[0]
        assert np.argmax(np.abs(init.data)) == sp.index_of((0, 0))
        assert np.argmax(np.abs(fin.data)) == sp.index_of((1, 1))
        hold_i, hold_f, _ = target.pairs[1]
        assert np.allclose(hold_i.data, hold_f.data)

    def test_three_qubit_contains_published_pair(self, tq_model):
        target = mo.target_operation(tq_model)
        assert len(target.pairs) == 8
        sp = tq_model.space
        i101 = sp.index_of((1, 0, 1, 0, 0, 0))
        f111 = sp.index_of((1, 1, 1, 0, 1, 0))
        found = any(
            np.argmax(np.abs(i.data)) == i101
            and np.argmax(np.abs(f.data)) == f111
            for i, f, _ in target.pairs)
        assert found

    def test_three_qubit_code_states_fixed(self, tq_model):
        target = mo.target_operation(tq_model)
        fixed = sum(1 for i, f, _ in target.pairs
                    if np.allclose(i.data, f.data))
        assert fixed == 2

    def test_vslq_error_pair(self, vslq_model):
        target = mo.target_operation(vslq_model)
        assert len(target.pairs) == 6
        st = mo.vslq_logical_states(vslq_model)
        # photon refill: err_l_plus -> both qubits in the + superposition
        # with the left shadow excited
        sp = vslq_model.space
        expected = np.zeros(sp.total_dim, dtype=complex)
        for nl in (0, 2):
            for nr in (0, 2):
                expected[sp.index_of((1, nl, nr, 0))] = 0.5
        for i, f, _ in target.pairs:
            if abs(np.vdot(i.vector(), st["err_l_plus"].vector())) > 0.99:
                assert abs(np.vdot(expected, f.data)) == pytest.approx(1.0)
                break
        else:
            pytest.fail("err_l_plus pair missing")

    def test_vslq_minus_branch_sign_matched(self, vslq_model):
        # the intact qubit's superposition sign propagates to the refilled one
        target = mo.target_operation(vslq_model)
        st = mo.vslq_logical_states(vslq_model)
        ops = mo.vslq_logical_operators(vslq_model)
        for i, f, _ in target.pairs:
            if abs(np.vdot(i.vector(), st["err_l_minus"].vector())) > 0.99:
                assert hi.expectation(ops["X"], f) == pytest.approx(-1.0)
                break
        else:
            pytest.fail("err_l_minus pair missing")

    def test_weights_uniform_and_normalized(self, vslq_model):
        target = mo.target_operation(vslq_model)
        ws = [w for _, _, w in target.pairs]
        assert sum(ws) == pytest.approx(1.0)
        assert all(w == pytest.approx(ws[0]) for w in ws)


class TestPhaseChannels:
    @pytest.mark.parametrize("kind", ["sq_model", "tq_model", "vslq_model"])
    def test_lossy_at_given_rate_primary_at_base(self, kind, request):
        terms = mo.build(request.getfixturevalue(kind))
        got = mo.phase_channels(terms, 0.035)
        assert [op for op, _ in got] == [c.op for c in terms.channels]
        assert [rate for _, rate in got] == [
            0.035 if c.lossy else c.rate for c in terms.channels]
        assert any(c.lossy for c in terms.channels)
        assert any(not c.lossy for c in terms.channels)




def _permuted(op: hi.Operator, p: np.ndarray) -> np.ndarray:
    return op.matrix[np.ix_(p, p)]


class TestSymmetries:
    @pytest.mark.parametrize("kind,n_declared", [
        ("sq_model", 0), ("tq_model", 2), ("vslq_model", 1)])
    def test_declared_permutations_map_terms_onto_themselves(
            self, kind, n_declared, request):
        terms = mo.build(request.getfixturevalue(kind))
        assert len(terms.symmetries) == n_declared
        for p in terms.basis_symmetries:
            for op in (terms.h_static, terms.h_x, terms.h_y):
                assert np.array_equal(_permuted(op, p), op.matrix)
            # the channel list, operator and rate, onto itself
            images = [(_permuted(c.op, p), c.rate) for c in terms.channels]
            for c in terms.channels:
                hits = [rate for m, rate in images
                        if np.array_equal(m, c.op.matrix)]
                assert hits == [c.rate]

    def test_declarations(self, sq_model, tq_model, vslq_model):
        assert mo.build(sq_model).symmetries == ()
        assert mo.build(tq_model).symmetries == ((1, 0, 2, 4, 3, 5),
                                                 (0, 2, 1, 3, 5, 4))
        assert mo.build(vslq_model).symmetries == ((3, 2, 1, 0),)

    def test_basis_map_permutes_sites(self, vslq_model):
        sp = vslq_model.space
        (p,) = mo.build(vslq_model).basis_symmetries
        v = hi.basis_vector(sp, (1, 2, 0, 0))
        assert np.array_equal(v[p], hi.basis_vector(sp, (0, 0, 2, 1)))

    def test_unequal_dimensions_rejected(self, sq_model, vslq_model):
        terms = mo.build(vslq_model)
        with pytest.raises(ValueError):
            mo.ModelTerms(terms.space, terms.h_static, terms.h_x, terms.h_y,
                          terms.channels, ((1, 0, 2, 3),))
        sq = mo.build(sq_model)
        with pytest.raises(ValueError):
            mo.ModelTerms(sq.space, sq.h_static, sq.h_x, sq.h_y,
                          sq.channels, ((1, 0),))
        with pytest.raises(ValueError):
            terms.space.site_permutation((0, 0, 1, 2))

    def test_code_states_invariant(self, tq_model, vslq_model):
        (p,) = mo.build(vslq_model).basis_symmetries
        states = mo.vslq_logical_states(vslq_model)
        vslq = [states["0L"], states["1L"]] + [
            mo.vslq_pauli_eigenstate(vslq_model, which, sign)
            for which in ("X", "Y") for sign in (+1, -1)]
        for s in vslq:
            rho = s.density()
            assert np.array_equal(rho[np.ix_(p, p)], rho)
        for s in mo.three_qubit_code_states(tq_model).values():
            rho = s.density()
            for q in mo.build(tq_model).basis_symmetries:
                assert np.array_equal(rho[np.ix_(q, q)], rho)

    def test_single_loss_states_not_invariant(self, vslq_model):
        (p,) = mo.build(vslq_model).basis_symmetries
        states = mo.vslq_logical_states(vslq_model)
        for name in ("err_l_plus", "err_l_minus", "err_r_plus",
                     "err_r_minus"):
            rho = states[name].density()
            assert not np.array_equal(rho[np.ix_(p, p)], rho)


def _same(a, b) -> bool:
    """a and b are the same state, or the same operator, entry for entry."""
    if isinstance(a, hi.Operator):
        return isinstance(b, hi.Operator) and np.array_equal(a.matrix, b.matrix)
    return (isinstance(b, hi.QuantumState) and a.is_pure == b.is_pure
            and np.array_equal(a.data, b.data))


class TestRunFacts:
    """What the commands take from each model kind: the rate a T1 point
    sets, the state the cycles protect and the observables of evolve."""

    @pytest.mark.parametrize("cls", [mo.SingleQubitModel, mo.ThreeQubitModel,
                                     mo.VslqModel])
    def test_t1_rate_names_a_rate_field(self, cls):
        names = [f.name for f in dataclasses.fields(cls)]
        assert cls.t1_rate in names and cls.t1_rate.startswith("gamma_")
        assert "t1_rate" not in names

    def test_single_qubit(self, sq_model):
        sp = sq_model.space
        target = hi.basis_state(sp, (1, 0))
        assert _same(sq_model.protected(), target)
        obs = sq_model.observables()
        assert list(obs) == ["fid_target", "pop_leak"]
        assert _same(obs["fid_target"], target)
        assert _same(obs["pop_leak"], hi.basis_state(sp, (2, 1)))

    def test_three_qubit(self, tq_model):
        code = mo.three_qubit_code_states(tq_model)
        assert _same(tq_model.protected(), code["0L"])
        obs = tq_model.observables()
        assert list(obs) == ["fid_0L", "fid_1L"]
        assert _same(obs["fid_0L"], code["0L"])
        assert _same(obs["fid_1L"], code["1L"])

    def test_vslq(self, vslq_model):
        zero = mo.vslq_logical_states(vslq_model)["0L"]
        ops = mo.vslq_logical_operators(vslq_model)
        assert _same(vslq_model.protected(), zero)
        obs = vslq_model.observables()
        assert list(obs) == ["exp_XL", "exp_YL", "fid_0L"]
        assert _same(obs["exp_XL"], ops["X"])
        assert _same(obs["exp_YL"], ops["Y"])
        assert _same(obs["fid_0L"], zero)
