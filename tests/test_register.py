import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinmaps.register import (
    DensityOperator,
    PauliString,
    PureState,
    RegisterError,
    RegisterLayout,
    apply_local_kraus,
    apply_local_superop,
    basis_state,
    embed,
    embed_operator,
    expectation,
    kraus_superop,
    lift_qubit_operator,
    multiply,
    partial_trace,
    qubit_operator,
    qubit_register,
    system_with_ancilla,
)
from spinmaps.observables import dicke_state


def ket(*amps):
    v = np.array(amps, dtype=complex)
    return v / np.linalg.norm(v)


class TestLayout:
    def test_dims_and_index_roundtrip(self):
        lay = RegisterLayout((2, 3, 2))
        assert lay.dim == 12
        for idx in range(lay.dim):
            assert lay.index_of(lay.occupation_of(idx)) == idx

    def test_rejects_bad_dims(self):
        with pytest.raises(RegisterError):
            RegisterLayout((2, 4))
        with pytest.raises(RegisterError):
            RegisterLayout(())

    def test_rejects_bad_ancilla(self):
        with pytest.raises(RegisterError):
            RegisterLayout((2, 2), ancilla_index=5)

    def test_ancilla_helper(self):
        lay = system_with_ancilla(3)
        assert lay.ion_dims == (3, 2, 2, 2)
        assert lay.ancilla_index == 0


class TestBasisState:
    def test_two_excitation_product_state(self):
        psi = basis_state(qubit_register(3), [1, 0, 1])
        expected = np.zeros(8)
        expected[0b101] = 1.0
        assert np.allclose(psi.vector, expected)

    def test_single_qubit_ground(self):
        psi = basis_state(qubit_register(1), [0])
        assert np.allclose(psi.vector, [1, 0])
        assert abs(np.linalg.norm(psi.vector) - 1) < 1e-12

    def test_parked_ancilla(self):
        psi = basis_state(RegisterLayout((3,)), [2])
        assert np.allclose(psi.vector, [0, 0, 1])

    def test_out_of_range_level(self):
        with pytest.raises(RegisterError):
            basis_state(qubit_register(2), [0, 2])
        with pytest.raises(RegisterError):
            basis_state(qubit_register(2), [0])


class TestEmbed:
    def test_sigma_z_first_ion_of_two(self):
        op = embed(PauliString(((0, "z"),)), qubit_register(2))
        assert np.allclose(op, np.diag([-1, -1, 1, 1]))

    def test_sigma_x_on_qutrit_kills_parking(self):
        op = embed(PauliString(((0, "x"),)), RegisterLayout((3,)))
        expected = np.zeros((3, 3))
        expected[0, 1] = expected[1, 0] = 1.0
        assert np.allclose(op, expected)

    def test_disjoint_supports_commute(self):
        lay = qubit_register(2)
        a = embed(PauliString(((0, "z"),)), lay)
        b = embed(PauliString(((1, "x"),)), lay)
        assert np.allclose(a @ b, b @ a)

    def test_distinct_ion_invariant(self):
        with pytest.raises(RegisterError):
            PauliString(((0, "x"), (0, "y")))

    @pytest.mark.parametrize("ax_a", ["x", "y", "z", "+", "-", "up", "down"])
    @pytest.mark.parametrize("ax_b", ["x", "y", "z", "+", "-", "up", "down"])
    def test_embed_respects_products(self, ax_a, ax_b):
        lay = qubit_register(2)
        a = PauliString(((0, ax_a),), 1.5)
        b = PauliString(((0, ax_b), (1, "z")), 0.5 - 0.25j)
        prod = multiply(a, b)
        assert np.allclose(embed(prod, lay), embed(a, lay) @ embed(b, lay), atol=1e-12)


class TestPartialTrace:
    def test_product_with_ancilla(self):
        lay = system_with_ancilla(2, ancilla_dim=2)
        sys = dicke_state(1, 2).density()
        anc = np.array([[0, 0], [0, 1]], dtype=complex)
        rho = DensityOperator(lay, np.kron(anc, sys.matrix))
        reduced = partial_trace(rho, [0])
        assert np.allclose(reduced.matrix, sys.matrix, atol=1e-14)

    def test_bell_state_marginal(self):
        bell = ket(1, 0, 0, 1)
        rho = DensityOperator(qubit_register(2), np.outer(bell, bell.conj()))
        reduced = partial_trace(rho, [1])
        assert np.allclose(reduced.matrix, np.eye(2) / 2, atol=1e-14)

    def test_entangled_ancilla_branches(self):
        # trace of (|0>_a|psi0> + |1>_a|psi1>)/sqrt(2) over the ancilla
        psi0 = ket(1, 0, 0, 1j)
        psi1 = ket(0, 1, -1, 0)
        vec = (np.kron([1, 0], psi0) + np.kron([0, 1], psi1)) / np.sqrt(2)
        rho = DensityOperator(qubit_register(3), np.outer(vec, vec.conj()))
        reduced = partial_trace(rho, [0])
        expected = (np.outer(psi0, psi0.conj()) + np.outer(psi1, psi1.conj())) / 2
        assert np.allclose(reduced.matrix, expected, atol=1e-14)

    def test_cannot_trace_everything(self):
        rho = basis_state(qubit_register(2), [0, 0]).density()
        with pytest.raises(RegisterError):
            partial_trace(rho, [0, 1])

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_product_states_reduce_exactly(self, data):
        dims_a = data.draw(st.lists(st.sampled_from([2, 3]), min_size=1, max_size=2))
        dims_b = data.draw(st.lists(st.sampled_from([2, 3]), min_size=1, max_size=2))
        seed = data.draw(st.integers(0, 2**31 - 1))
        rng = np.random.default_rng(seed)

        def random_density(d):
            a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            m = a @ a.conj().T
            return m / np.trace(m)

        da, db = int(np.prod(dims_a)), int(np.prod(dims_b))
        rho_a, rho_b = random_density(da), random_density(db)
        lay = RegisterLayout(tuple(dims_a) + tuple(dims_b))
        rho = DensityOperator(lay, np.kron(rho_a, rho_b))
        left = partial_trace(rho, range(len(dims_a), len(dims_a) + len(dims_b)))
        assert np.max(np.abs(left.matrix - rho_a)) <= 1e-12
        right = partial_trace(rho, range(len(dims_a)))
        assert np.max(np.abs(right.matrix - rho_b)) <= 1e-12


class TestExpectation:
    def test_sigma_z_eigenstate(self):
        rho = basis_state(qubit_register(1), [1]).density()
        assert expectation(rho, PauliString(((0, "z"),))) == pytest.approx(1.0)

    def test_collective_raising_lowering_on_dicke(self):
        # <S+ S-> on |D(m,N)> = m (N + 1 - m)
        rho = dicke_state(2, 3).density()
        lay = qubit_register(3)
        splus = sum(embed(PauliString(((i, "+"),)), lay) for i in range(3))
        val = expectation(rho, splus @ splus.conj().T)
        assert val == pytest.approx(4.0, abs=1e-10)

    def test_two_point_function_on_dicke(self):
        rho = dicke_state(1, 2).density()
        val = expectation(rho, PauliString(((0, "+"), (1, "-"))))
        assert val == pytest.approx(0.5, abs=1e-12)

    def test_dimension_mismatch(self):
        rho = basis_state(qubit_register(1), [0]).density()
        with pytest.raises(RegisterError):
            expectation(rho, np.eye(4))

    def test_hermitian_gives_real(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        rho = DensityOperator(qubit_register(2), (a @ a.conj().T) / np.trace(a @ a.conj().T))
        herm = a + a.conj().T
        assert abs(expectation(rho, herm).imag) < 1e-10


class TestStateValidation:
    def test_rejects_non_hermitian(self):
        mat = np.array([[0.5, 0.3], [0.0, 0.5]], dtype=complex)
        with pytest.raises(RegisterError):
            DensityOperator(qubit_register(1), mat)

    def test_rejects_wrong_trace(self):
        with pytest.raises(RegisterError):
            DensityOperator(qubit_register(1), np.eye(2, dtype=complex))

    def test_rejects_negative_eigenvalue(self):
        mat = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(RegisterError):
            DensityOperator(qubit_register(1), mat)

    def test_rejects_unnormalized_vector(self):
        with pytest.raises(RegisterError):
            PureState(qubit_register(1), np.array([1.0, 1.0]))


def reference_embed(op, sites, dims):
    """``op (x) 1_rest`` on the ion order (sites, rest), rows and columns
    re-indexed into register order by pure index lookup."""
    order = list(sites) + [i for i in range(len(dims)) if i not in sites]
    moved = RegisterLayout(tuple(dims[i] for i in order))
    register = RegisterLayout(tuple(dims))
    source = np.empty(register.dim, dtype=int)
    for idx in range(moved.dim):
        occ = moved.occupation_of(idx)
        reg_occ = [0] * len(dims)
        for slot, ion in enumerate(order):
            reg_occ[ion] = occ[slot]
        source[register.index_of(reg_occ)] = idx
    full = np.kron(op, np.eye(moved.dim // op.shape[0], dtype=complex))
    return full[np.ix_(source, source)]


def random_operator(rng, d):
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def random_density(rng, d, rank=4):
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho)


class TestEmbedOperatorEquivalence:
    @pytest.mark.parametrize("seed", range(40))
    def test_random_layout_and_unordered_sites(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 6))
        dims = tuple(int(d) for d in rng.choice([2, 3], n))
        sites = [int(i) for i in rng.permutation(n)[: int(rng.integers(1, min(3, n) + 1))]]
        op = random_operator(rng, int(np.prod([dims[s] for s in sites])))
        assert np.array_equal(embed_operator(op, sites, dims), reference_embed(op, sites, dims))

    @pytest.mark.parametrize("dims", [(2, 2, 2), (3, 2, 2, 2), (2, 3, 2, 3), (3, 3)])
    def test_periodic_pair_wraps_around(self, dims):
        rng = np.random.default_rng(len(dims))
        sites = (len(dims) - 1, 0)
        op = random_operator(rng, dims[sites[0]] * dims[sites[1]])
        assert np.array_equal(embed_operator(op, sites, dims), reference_embed(op, sites, dims))

    def test_rejects_mismatched_operator(self):
        with pytest.raises(RegisterError):
            embed_operator(np.eye(4), (0,), (3, 2))

    def test_qutrit_lift_keeps_or_annihilates_parking(self):
        x = qubit_operator("x")
        assert np.array_equal(lift_qubit_operator(x, 2), x)
        assert np.array_equal(lift_qubit_operator(x, 3)[2], np.zeros(3))
        assert lift_qubit_operator(x, 3, keep_parking=True)[2, 2] == 1.0


class TestUnitaryAsKrausEquivalence:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("sites", [(0,), (0, 1), (0, 3), (2, 0), (1, 3)])
    def test_matches_dense_conjugation_on_stabilization_layout(self, seed, sites):
        rng = np.random.default_rng(seed)
        dims = system_with_ancilla(3).ion_dims  # qutrit ancilla + 3 qubit spins
        rho = random_density(rng, int(np.prod(dims)))
        q, _ = np.linalg.qr(random_operator(rng, int(np.prod([dims[s] for s in sites]))))
        e = embed_operator(q, sites, dims)
        out = apply_local_kraus(rho, (q,), sites, dims)
        assert np.max(np.abs(out - e @ rho @ e.conj().T)) <= 1e-12
        superop_out = apply_local_superop(rho, kraus_superop((q,)), sites, dims)
        assert superop_out.tobytes() == out.tobytes()

    def test_superoperator_of_the_wrong_shape(self):
        rho = basis_state(qubit_register(3), [1, 0, 1]).density().matrix
        for sites, superop in [((0,), np.eye(16)), ((0, 2), np.eye(4)), ((1, 2), np.eye(15))]:
            with pytest.raises(RegisterError, match="superoperator shape"):
                apply_local_superop(rho, superop, sites, (2, 2, 2))



from spinmaps.channels import apply_embedded, park_from, reset_channel  # noqa: E402
from spinmaps.maps import DissipativeMapSpec, elementary_dissipative_map  # noqa: E402


def _local_channel(n_sites):
    if n_sites == 1:
        return reset_channel(qubit_register(1), 0)
    return elementary_dissipative_map(DissipativeMapSpec(1))


_SITE_ENTRY_POINTS = {
    "embed_operator": lambda rho, sites: embed_operator(
        np.eye(2 ** len(sites)), sites, rho.layout.ion_dims),
    "apply_local_kraus": lambda rho, sites: apply_local_kraus(
        rho.matrix, (np.eye(2 ** len(sites)),), sites, rho.layout.ion_dims),
    "apply_local_superop": lambda rho, sites: apply_local_superop(
        rho.matrix, kraus_superop((np.eye(2 ** len(sites)),)), sites, rho.layout.ion_dims),
    "apply_embedded": lambda rho, sites: apply_embedded(
        _local_channel(len(sites)), rho, sites),
    "park_from": lambda rho, sites: park_from(rho, *sites, source_level=1),
}


class TestSiteValidation:
    @pytest.mark.parametrize("entry", sorted(_SITE_ENTRY_POINTS))
    @pytest.mark.parametrize("site", [-1, -3, 3, 7])
    def test_negative_or_out_of_range_site(self, entry, site):
        rho = basis_state(system_with_ancilla(2), [2, 1, 0]).density()
        with pytest.raises(RegisterError, match="distinct ions"):
            _SITE_ENTRY_POINTS[entry](rho, (site,))

    @pytest.mark.parametrize(
        "entry", ["embed_operator", "apply_local_kraus", "apply_local_superop", "apply_embedded"])
    @pytest.mark.parametrize("sites", [(1, 1), (2, 2), (0, 3), (-1, 1)])
    def test_repeated_or_bad_pair(self, entry, sites):
        rho = basis_state(qubit_register(3), [1, 0, 1]).density()
        with pytest.raises(RegisterError, match="distinct ions"):
            _SITE_ENTRY_POINTS[entry](rho, sites)


from spinmaps.register import _sector_indices, basis_bits, excitation_numbers  # noqa: E402


class TestBasisBits:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_rows_are_the_occupations(self, n):
        lay = qubit_register(n)
        bits = basis_bits(n)
        assert bits.shape == (2**n, n)
        assert np.issubdtype(bits.dtype, np.signedinteger)
        for idx in range(lay.dim):
            assert tuple(bits[idx]) == lay.occupation_of(idx)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_excitation_numbers_are_popcounts(self, n):
        expected = [bin(b).count("1") for b in range(2**n)]
        assert excitation_numbers(n).tolist() == expected

    def test_cached_tables_are_read_only(self):
        for table in (basis_bits(3), excitation_numbers(3), *_sector_indices(3)):
            with pytest.raises(ValueError):
                table[0] = 1


class TestNaNRejected:
    """``nan > tol`` is False, so each invariant is written to fail on NaN."""

    def test_density_operator(self):
        with pytest.raises(RegisterError):
            DensityOperator(qubit_register(1), np.full((2, 2), np.nan))

    def test_pure_state(self):
        with pytest.raises(RegisterError):
            PureState(qubit_register(1), np.array([np.nan, 1.0]))


import re  # noqa: E402

from spinmaps.register import _hermitian_blocks  # noqa: E402


def reference_min_eigenvalue(mat):
    """Smallest eigenvalue of the Hermitian part by one dense ``eigvalsh``."""
    return float(np.min(np.linalg.eigvalsh(0.5 * (mat + mat.conj().T))))


def reference_accepts(mat):
    return reference_min_eigenvalue(mat) >= -1e-8


def accepts(layout, mat):
    try:
        DensityOperator(layout, mat)
    except RegisterError as exc:
        assert str(exc).startswith("smallest eigenvalue"), exc
        return False
    return True


def random_unitary(rng, d):
    q, r = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def planted_spectrum(rng, d, lowest):
    """``d`` eigenvalues summing to 1, the smallest one equal to ``lowest``."""
    rest = rng.uniform(0.5, 1.5, d - 1)
    rest *= (1.0 - lowest) / rest.sum()
    return np.concatenate([[lowest], rest])


def sector_diagonal_state(rng, n, lowest):
    """Random state on n qubits that is exactly block diagonal in the
    excitation sectors; its smallest eigenvalue is ``lowest`` (in a random
    sector)."""
    d = 2**n
    evals = rng.permutation(planted_spectrum(rng, d, lowest))
    mat = np.zeros((d, d), dtype=complex)
    start = 0
    for idx in _sector_indices(n):
        k = len(idx)
        u = random_unitary(rng, k)
        mat[np.ix_(idx, idx)] = (u * evals[start : start + k]) @ u.conj().T
        start += k
    return mat


def dense_state(rng, d, lowest):
    u = random_unitary(rng, d)
    return (u * planted_spectrum(rng, d, lowest)) @ u.conj().T


def rejected_lo(layout, mat):
    with pytest.raises(RegisterError, match="smallest eigenvalue") as info:
        DensityOperator(layout, mat)
    text = str(info.value)
    assert re.fullmatch(r"smallest eigenvalue \S+ below -1e-08", text), text
    return float(text.split()[2])


class TestBlockedPositivity:
    """Sector blocks and the Cholesky pre-test decide exactly as one dense
    ``eigvalsh`` of the Hermitian part."""

    def test_random_sector_diagonal_states(self):
        rng = np.random.default_rng(2024)
        lows = [0.0, 1e-6, -1e-8 + 1e-9, -1e-8 - 1e-9, -1e-6, -1e-2]
        decisions = set()
        for trial in range(200):
            n = 2 + trial % 7
            mat = sector_diagonal_state(rng, n, lows[rng.integers(len(lows))])
            layout = qubit_register(n)
            assert len(_hermitian_blocks(layout, 0.5 * (mat + mat.conj().T))) == n + 1
            decision = accepts(layout, mat)
            assert decision == reference_accepts(mat)
            decisions.add(decision)
        assert decisions == {True, False}

    @pytest.mark.parametrize("offset", [1e-10, -1e-10, 1e-11, -1e-11])
    @pytest.mark.parametrize("register", ["qubits", "qutrit-ancilla"])
    def test_planted_eigenvalue_at_the_floor(self, offset, register):
        rng = np.random.default_rng(7)
        if register == "qubits":
            layout = qubit_register(6)
            mat = sector_diagonal_state(rng, 6, -1e-8 + offset)
            n_blocks = 7
        else:
            layout = system_with_ancilla(4)
            mat = dense_state(rng, layout.dim, -1e-8 + offset)
            n_blocks = 1
        assert len(_hermitian_blocks(layout, 0.5 * (mat + mat.conj().T))) == n_blocks
        assert accepts(layout, mat) == reference_accepts(mat) == (offset > 0)

    @pytest.mark.parametrize("lowest", [0.0, -1e-8 + 1e-10, -1e-8 - 1e-10, -1e-3])
    def test_one_tiny_cross_sector_entry_goes_dense(self, lowest):
        rng = np.random.default_rng(11)
        layout = qubit_register(5)
        mat = sector_diagonal_state(rng, 5, lowest)
        i, j = _sector_indices(5)[1][0], _sector_indices(5)[2][0]
        mat[i, j] = 1e-300
        mat[j, i] = 1e-300
        assert len(_hermitian_blocks(layout, 0.5 * (mat + mat.conj().T))) == 1
        assert accepts(layout, mat) == reference_accepts(mat)

    @pytest.mark.parametrize("register", ["qubits", "qutrit-ancilla", "cross-sector"])
    @pytest.mark.parametrize("lowest", [-1e-8 - 1e-10, -1e-5, -0.25])
    def test_rejection_names_the_dense_smallest_eigenvalue(self, register, lowest):
        rng = np.random.default_rng(13)
        if register == "qutrit-ancilla":
            layout = system_with_ancilla(3)
            mat = dense_state(rng, layout.dim, lowest)
        else:
            layout = qubit_register(7)
            mat = sector_diagonal_state(rng, 7, lowest)
            if register == "cross-sector":
                mat[0, -1] = mat[-1, 0] = 1e-14
        lo = rejected_lo(layout, mat)
        assert abs(lo - reference_min_eigenvalue(mat)) <= 1e-12

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
    @pytest.mark.parametrize("where", ["diagonal", "in-sector", "cross-sector"])
    def test_non_finite_entries_raise(self, bad, where):
        rng = np.random.default_rng(17)
        layout = qubit_register(4)
        mat = sector_diagonal_state(rng, 4, 0.0)
        i = _sector_indices(4)[2][0]
        j = {"diagonal": i, "in-sector": _sector_indices(4)[2][1],
             "cross-sector": _sector_indices(4)[3][0]}[where]
        mat[i, j] = bad
        with pytest.raises(RegisterError):
            DensityOperator(layout, mat)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_dense_state_raises(self, bad):
        layout = system_with_ancilla(2)
        mat = dense_state(np.random.default_rng(19), layout.dim, 0.0)
        mat[3, 5] = mat[5, 3] = bad
        with pytest.raises(RegisterError):
            DensityOperator(layout, mat)


from scipy.linalg.lapack import zpotrf  # noqa: E402

import spinmaps.register as register_module  # noqa: E402


def dense_path_validate(layout, mat, herm_tol=1e-10, clears=None):
    """The fully dense validation of the previous release, kept here verbatim
    as the reference: returns ``(message or None, positivity blocks)``."""
    mat = np.asarray(mat, dtype=complex)
    d = layout.dim
    herm = np.max(np.abs(mat - mat.conj().T)) if d else 0.0
    if not herm <= herm_tol:
        return f"matrix deviates from Hermitian by {herm}", None
    tr = np.trace(mat)
    if not abs(tr - 1.0) <= 1e-10:
        return f"trace {tr} deviates from 1 beyond {1e-10}", None
    h = mat.conj().T
    h += mat
    h *= 0.5
    blocks = [h]
    if set(layout.ion_dims) == {2}:
        sectors = [h[np.ix_(idx, idx)] for idx in _sector_indices(layout.n_ions)]
        if sum(np.count_nonzero(b) for b in sectors) == np.count_nonzero(h):
            blocks = sectors

    def cholesky_clears(block):
        shifted = block.copy()
        shifted[np.diag_indices_from(shifted)] += 1e-8 - 1e-10
        return zpotrf(shifted.T, overwrite_a=True, clean=False)[1] == 0

    clears = cholesky_clears if clears is None else clears
    if all(clears(b) for b in blocks):
        return None, blocks
    lo = float(np.min(np.concatenate([np.linalg.eigvalsh(b) for b in blocks])))
    if not lo >= -1e-8:
        return f"smallest eigenvalue {lo} below {-1e-08}", blocks
    return None, blocks


def validate(layout, mat):
    """Message of the RegisterError ``DensityOperator`` raises, or None."""
    try:
        DensityOperator(layout, mat)
    except RegisterError as exc:
        return str(exc)
    return None


class TestSectorFirstValidation:
    """When the matrix itself passes the count test, the residual and the
    Hermitian part are computed per sector; every decision, residual, block
    and message equals the dense path's."""

    def same_as_dense_path(self, monkeypatch, layout, mat):
        """Assert equal messages, and bitwise equal positivity blocks when
        both paths get that far; returns the message."""
        seen = []
        monkeypatch.setattr(
            register_module, "_clears_floor", lambda b: seen.append(b.copy()) or True
        )
        recorded = validate(layout, mat.copy())
        monkeypatch.undo()
        expected, blocks = dense_path_validate(layout, mat.copy(), clears=lambda b: True)
        assert recorded == expected
        if blocks is not None:
            assert len(seen) == len(blocks)
            for got, want in zip(seen, blocks):
                assert got.tobytes() == want.tobytes()
        message = validate(layout, mat.copy())
        assert message == dense_path_validate(layout, mat.copy())[0]
        return message

    def residual_message(self, monkeypatch, layout, mat):
        """Force the Hermiticity check to fail, so the message shows the
        exact residual, on both paths."""
        monkeypatch.setattr(register_module, "HERMITICITY_TOL", -1.0)
        got = validate(layout, mat.copy())
        monkeypatch.undo()
        assert got == dense_path_validate(layout, mat.copy(), herm_tol=-1.0)[0]
        return got

    def test_random_sector_diagonal_states(self, monkeypatch):
        rng = np.random.default_rng(80)
        lows = [0.0, 1e-6, -1e-8 + 1e-10, -1e-8 - 1e-10, -1e-4]
        accepted = set()
        for trial in range(70):
            n = 2 + trial % 7
            layout = qubit_register(n)
            mat = sector_diagonal_state(rng, n, lows[trial % len(lows)])
            assert register_module._sector_blocks(layout, mat) is not None
            accepted.add(self.same_as_dense_path(monkeypatch, layout, mat) is None)
            self.residual_message(monkeypatch, layout, mat)
        assert accepted == {True, False}

    @pytest.mark.parametrize("size", [1e-13, 4e-11, 9e-11, 2e-10, 1e-6])
    def test_in_sector_non_hermitian_perturbation(self, monkeypatch, size):
        rng = np.random.default_rng(81)
        for n in range(2, 9):
            layout = qubit_register(n)
            mat = sector_diagonal_state(rng, n, 0.0)
            idx = _sector_indices(n)[1]
            i, j = rng.choice(idx, 2, replace=False)
            mat[i, j] += size * np.exp(2j * np.pi * rng.uniform())
            assert register_module._sector_blocks(layout, mat) is not None
            message = self.same_as_dense_path(monkeypatch, layout, mat)
            assert (message is None) == (size < 1e-10)
            assert self.residual_message(monkeypatch, layout, mat) is not None

    @pytest.mark.parametrize("size", [1e-12, 1e-6])
    def test_anti_hermitian_cross_sector_pair_falls_through(self, monkeypatch, size):
        rng = np.random.default_rng(82)
        for n in range(2, 9):
            layout = qubit_register(n)
            mat = sector_diagonal_state(rng, n, 0.0)
            i, j = _sector_indices(n)[1][0], _sector_indices(n)[2][-1]
            a = size * np.exp(2j * np.pi * rng.uniform())
            mat[i, j], mat[j, i] = a, -np.conj(a)
            h = 0.5 * (mat + mat.conj().T)
            assert register_module._sector_blocks(layout, mat) is None
            assert len(_hermitian_blocks(layout, h)) == n + 1
            message = self.same_as_dense_path(monkeypatch, layout, mat)
            assert (message is None) == (size < 1e-10)
            self.residual_message(monkeypatch, layout, mat)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan), complex(np.inf, 1)])
    @pytest.mark.parametrize("where", ["diagonal", "in-sector", "cross-sector", "both-halves"])
    def test_non_finite_entries_give_the_same_message(self, monkeypatch, bad, where):
        rng = np.random.default_rng(83)
        for n in (2, 5, 8):
            layout = qubit_register(n)
            mat = sector_diagonal_state(rng, n, 0.0)
            s1, s2 = _sector_indices(n)[1], _sector_indices(n)[2]
            i, j = {"diagonal": (s1[0], s1[0]), "in-sector": (s1[0], s1[1]),
                    "cross-sector": (s1[0], s2[0]), "both-halves": (s1[1], s1[0])}[where]
            mat[i, j] = bad
            if where == "both-halves":
                mat[j, i] = bad
            message = self.same_as_dense_path(monkeypatch, layout, mat)
            assert message is not None and message.startswith(("matrix deviates", "trace"))
            self.residual_message(monkeypatch, layout, mat)

    @pytest.mark.parametrize("n_system", [1, 2, 3, 4])
    @pytest.mark.parametrize("lowest", [0.0, -1e-8 + 1e-10, -1e-8 - 1e-10, -1e-3])
    def test_qutrit_registers_take_the_dense_path(self, monkeypatch, n_system, lowest):
        rng = np.random.default_rng(84 + n_system)
        layout = system_with_ancilla(n_system)
        mat = dense_state(rng, layout.dim, lowest)
        assert register_module._sector_blocks(layout, mat) is None
        message = self.same_as_dense_path(monkeypatch, layout, mat)
        assert (message is None) == (lowest >= -1e-8)
        mat[0, 1] += 1e-9
        assert self.same_as_dense_path(monkeypatch, layout, mat).startswith("matrix deviates")
        self.residual_message(monkeypatch, layout, mat)

    @pytest.mark.parametrize("offset", [1e-10, -1e-10])
    def test_planted_eigenvalue_at_the_floor(self, monkeypatch, offset):
        rng = np.random.default_rng(85)
        for n in range(2, 9):
            layout = qubit_register(n)
            mat = sector_diagonal_state(rng, n, -1e-8 + offset)
            message = self.same_as_dense_path(monkeypatch, layout, mat)
            assert (message is None) == (offset > 0)
            assert message is None or message.startswith("smallest eigenvalue")
