import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinmaps.register import (
    DensityOperator,
    PauliString,
    PureState,
    RegisterError,
    RegisterLayout,
    apply_local_superop,
    basis_state,
    embed,
    embed_operator,
    expectation,
    kraus_superop,
    lift_qubit_operator,
    partial_trace,
    qubit_operator,
    qubit_register,
    system_with_ancilla,
)
from spinmaps.observables import dicke_state


def ket(*amps):
    v = np.array(amps, dtype=complex)
    return v / np.linalg.norm(v)


AXES = ("i", "x", "y", "z", "+", "-", "up", "down")


def multiply(a, b):
    """Symbolic product ``a . b`` (operator composition, a applied after b).

    The single-qubit algebra over the supported axes is closed up to complex
    scalars; identity factors drop out and an exactly vanishing product is
    returned as the empty string with coefficient 0.
    """
    coeff = complex(a.coefficient) * complex(b.coefficient)
    factors = []
    on_a, on_b = dict(a.factors), dict(b.factors)
    for ion in sorted(set(on_a) | set(on_b)):
        if ion not in on_a or ion not in on_b:
            factors.append((ion, on_a.get(ion, on_b.get(ion))))
            continue
        prod = qubit_operator(on_a[ion]) @ qubit_operator(on_b[ion])
        if np.allclose(prod, 0):
            return PauliString((), 0.0)
        for name in AXES:
            mat = qubit_operator(name)
            scale = prod[np.abs(mat) > 0.5] / mat[np.abs(mat) > 0.5]
            if np.allclose(prod, scale[0] * mat):
                coeff *= scale[0]
                if name != "i":
                    factors.append((ion, name))
                break
        else:
            raise AssertionError("product left the Pauli axis algebra")
    return PauliString(tuple(factors), coeff)


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
        out = apply_local_superop(rho, kraus_superop((q,)), sites, dims)
        assert np.max(np.abs(out - e @ rho @ e.conj().T)) <= 1e-12

    def test_superoperator_of_the_wrong_shape(self):
        rho = basis_state(qubit_register(3), [1, 0, 1]).density().matrix
        for sites, superop in [((0,), np.eye(16)), ((0, 2), np.eye(4)), ((1, 2), np.eye(15))]:
            with pytest.raises(RegisterError, match="superoperator shape"):
                apply_local_superop(rho, superop, sites, (2, 2, 2))



from spinmaps.channels import apply_embedded, park_channel, reset_channel  # noqa: E402
from spinmaps.maps import DissipativeMapSpec, elementary_dissipative_map  # noqa: E402


def _local_channel(n_sites):
    if n_sites == 1:
        return reset_channel(qubit_register(1), 0)
    return elementary_dissipative_map(DissipativeMapSpec(1))


_SITE_ENTRY_POINTS = {
    "embed_operator": lambda rho, sites: embed_operator(
        np.eye(2 ** len(sites)), sites, rho.layout.ion_dims),
    "apply_local_superop": lambda rho, sites: apply_local_superop(
        rho.matrix, kraus_superop((np.eye(2 ** len(sites)),)), sites, rho.layout.ion_dims),
    "apply_embedded": lambda rho, sites: apply_embedded(
        _local_channel(len(sites)), rho, sites),
    "park_from": lambda rho, sites: apply_embedded(
        park_channel(RegisterLayout((3,)), 0, source_level=1), rho, sites),
}


class TestSiteValidation:
    @pytest.mark.parametrize("entry", sorted(_SITE_ENTRY_POINTS))
    @pytest.mark.parametrize("site", [-1, -3, 3, 7])
    def test_negative_or_out_of_range_site(self, entry, site):
        rho = basis_state(system_with_ancilla(2), [2, 1, 0]).density()
        with pytest.raises(RegisterError, match="distinct ions"):
            _SITE_ENTRY_POINTS[entry](rho, (site,))

    @pytest.mark.parametrize(
        "entry", ["embed_operator", "apply_local_superop", "apply_embedded"])
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

import spinmaps.register as register_module  # noqa: E402


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
            assert register_module._sector_blocks(layout, mat) is not None
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
        else:
            layout = system_with_ancilla(4)
            mat = dense_state(rng, layout.dim, -1e-8 + offset)
        assert (register_module._sector_blocks(layout, mat) is None) == (register != "qubits")
        assert accepts(layout, mat) == reference_accepts(mat) == (offset > 0)

    @pytest.mark.parametrize("lowest", [0.0, -1e-8 + 1e-10, -1e-8 - 1e-10, -1e-3])
    def test_one_tiny_cross_sector_entry_goes_dense(self, lowest):
        rng = np.random.default_rng(11)
        layout = qubit_register(5)
        mat = sector_diagonal_state(rng, 5, lowest)
        i, j = _sector_indices(5)[1][0], _sector_indices(5)[2][0]
        mat[i, j] = 1e-300
        mat[j, i] = 1e-300
        assert register_module._sector_blocks(layout, mat) is None
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


def dense_path_validate(layout, mat, herm_tol=1e-10, clears=None):
    """The fully dense validation of an earlier release, kept here as the
    reference (its Hermiticity message now names the tolerance, as the trace
    and positivity messages do): returns ``(message or None, positivity blocks)``."""
    mat = np.asarray(mat, dtype=complex)
    d = layout.dim
    herm = np.max(np.abs(mat - mat.conj().T)) if d else 0.0
    if not herm <= herm_tol:
        return f"matrix deviates from Hermitian by {herm} (tolerance {herm_tol})", None
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
    """When the matrix passes the count test it is stored and validated as its
    sector blocks; every decision, residual, block and message equals the
    dense path's.  Otherwise it is validated as one dense block."""

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
            assert register_module._sector_blocks(layout, mat) is None
            # The pair cancels in the Hermitian part, which the reference then
            # splits into sectors; the state itself stays dense, one block.
            message = validate(layout, mat.copy())
            assert message == dense_path_validate(layout, mat.copy())[0]
            assert (message is None) == (size < 1e-10)
            if message is None:
                assert DensityOperator(layout, mat).sectors is None
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


from spinmaps.register import hermitize  # noqa: E402


def kraus_oracle(rho, kraus, sites, dims):
    """``sum_k K rho K^dag`` with every ``K`` embedded densely."""
    embedded = [embed_operator(k, sites, dims) for k in kraus]
    return sum(e @ rho @ e.conj().T for e in embedded)


def _qubit_site_shapes(n):
    shapes = [(0, 1), (n - 1, 0), (n // 2,)]
    if n >= 3:
        shapes += [(2, 0), (0, 2, 1)]
    return shapes


# d**2 <= _TILE_ENTRIES (one tile) up to qubit N = 6; N = 7..9 and the
# 7-ion qutrit register (d = 192) split into many tiles.
_TILED_CASES = [((2,) * n, sites) for n in range(3, 10) for sites in _qubit_site_shapes(n)] + [
    (dims, sites)
    for dims in [(3, 2, 2), (3, 2, 2, 2, 2, 2, 2)]
    for sites in [(0, 1), (2, 0), (len(dims) - 1, 0), (0,), (1,), (1, 0, 2)]
]


class TestTiledLocalApply:
    """The tiled kernel, out of place and in place, against a dense Kraus oracle."""

    @pytest.mark.parametrize("dims,sites", _TILED_CASES)
    def test_equals_dense_kraus_oracle(self, dims, sites):
        rng = np.random.default_rng(len(dims) * 31 + sum(sites) * 7 + len(sites))
        d = int(np.prod(dims))
        d_loc = int(np.prod([dims[s] for s in sites]))
        rho = random_operator(rng, d)  # neither Hermitian nor unit trace
        kraus = [random_operator(rng, d_loc) / d_loc for _ in range(2)]
        superop = kraus_superop(kraus)
        before = rho.copy()
        out = apply_local_superop(rho, superop, sites, dims)
        assert rho.tobytes() == before.tobytes()
        assert np.max(np.abs(out - kraus_oracle(rho, kraus, sites, dims))) <= 1e-13
        in_place = apply_local_superop(rho, superop, sites, dims, out=rho)
        assert in_place is rho
        assert rho.tobytes() == out.tobytes()

    def test_writes_into_a_strided_view(self):
        rng = np.random.default_rng(6)
        dims, sites = (3, 2, 2, 2, 2), (4, 0)
        rho, superop = random_operator(rng, 48), random_operator(rng, 36)
        held = np.zeros((3 * 48, 2 * 48), dtype=complex)
        view = held[::3, 48:]
        apply_local_superop(rho, superop, sites, dims, out=view)
        assert view.tobytes() == apply_local_superop(rho, superop, sites, dims).tobytes()
        assert not np.any(held[1::3]) and not np.any(held[:, :48])

    def test_rejects_an_out_that_reshape_would_copy(self):
        rng = np.random.default_rng(7)
        dims, sites = (3, 2, 2, 2, 2), (1,)
        rho, superop = random_operator(rng, 48), random_operator(rng, 4)
        # merging the two leading axes of this view needs a copy
        out = np.zeros((24, 2, 48), dtype=complex).transpose(1, 0, 2)
        with pytest.raises(RegisterError, match="cannot be viewed"):
            apply_local_superop(rho, superop, sites, dims, out=out)


class TestHermitize:
    # d = 96 ends in a partial tile; d = 512 is 8 x 8 full tiles
    @pytest.mark.parametrize("dims", [(3, 2, 2, 2, 2), (2,) * 9, (2,), (3, 2)])
    def test_bytewise_the_out_of_place_form(self, dims):
        rng = np.random.default_rng(len(dims))
        d = int(np.prod(dims))
        # the real-valued matrix has zero imaginary parts, whose sign must survive
        for mat in (random_operator(rng, d), rng.standard_normal((d, d)).astype(complex)):
            expected = (0.5 * (mat + mat.conj().T)).tobytes()
            assert hermitize(mat) is mat
            assert mat.tobytes() == expected


import tracemalloc  # noqa: E402
from math import comb  # noqa: E402

from spinmaps.maps import elementary_hamiltonian_map  # noqa: E402
from spinmaps.register import (  # noqa: E402
    apply_local, apply_sector_superop, local_sum, sector_buffer, sector_views)


def dense_of(flat, n):
    """The d x d matrix whose sector blocks are those of ``flat``, by index lookup."""
    mat = np.zeros((2**n, 2**n), dtype=complex)
    for idx, block in zip(_sector_indices(n), sector_views(flat, n)):
        mat[np.ix_(idx, idx)] = block
    return mat


def _pair_superops():
    return {
        "D": elementary_dissipative_map(DissipativeMapSpec(1, 0.5 * np.pi, 0.02)).superop,
        "D-weak": elementary_dissipative_map(DissipativeMapSpec(1, 0.5, 0.0)).superop,
        "U": elementary_hamiltonian_map(0.25 * np.pi, 0.004).superop,
    }


def _blocked_sites(n):
    shapes = [(0, 1), (n - 1, 0), (n // 2,)]  # open, periodic wrap, one site
    if n >= 3:
        shapes += [(2, 0), (0, 2, 1)]  # non-adjacent, three sites
    return shapes


class TestBlockedForm:
    """A sector-diagonal state stored as its sector blocks: who makes it, what
    ``.matrix`` returns, and the kernel against the tiled dense apply."""

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_density_of_basis_and_dicke_vectors_is_blocked(self, n):
        for vec in (basis_state(qubit_register(n), [1] + [0] * (n - 1)).vector,
                    dicke_state(n // 2, n).vector):
            rho = PureState(qubit_register(n), vec).density()
            assert rho.sectors is not None
            assert rho.matrix.tobytes() == np.outer(vec, vec.conj()).tobytes()
            assert rho.matrix is not rho.matrix  # built on demand, not cached

    def test_equal_superposition_and_qutrit_states_stay_dense(self):
        equal = PureState(qubit_register(4), np.full(16, 0.25)).density()
        assert equal.sectors is None
        assert equal.matrix.tobytes() == np.full((16, 16), 1 / 16, dtype=complex).tobytes()
        parked = basis_state(system_with_ancilla(2), [2, 1, 0]).density()
        assert parked.sectors is None
        with pytest.raises(RegisterError, match="all-qubit register"):
            parked.sector_block(0)

    def test_matrix_and_blocks_equal_the_dense_reference(self, blocked_and_dense):
        rng = np.random.default_rng(30)
        for n in range(1, 9):
            blocked, reference = blocked_and_dense(rng, n)
            assert blocked.matrix.tobytes() == reference.tobytes()
            assert blocked.matrix.tobytes() == dense_of(blocked.sectors, n).tobytes()
            for k, idx in enumerate(_sector_indices(n)):
                block = blocked.sector_block(k)
                assert block.tobytes() == reference[np.ix_(idx, idx)].tobytes()
                assert not block.flags.writeable
            with pytest.raises(RegisterError, match="no excitation sector"):
                blocked.sector_block(n + 1)

    def test_state_is_immutable_and_its_buffer_read_only(self, blocked_and_dense):
        blocked, _ = blocked_and_dense(np.random.default_rng(31), 3)
        with pytest.raises(ValueError):
            blocked.sectors[0] = 1.0
        with pytest.raises(AttributeError):
            blocked.layout = qubit_register(3)

    @pytest.mark.parametrize("layout,size", [(qubit_register(3), 19), (system_with_ancilla(2), 6)])
    def test_buffer_that_does_not_fit_is_rejected(self, layout, size):
        flat = np.zeros(size, dtype=complex)
        flat[0] = 1.0
        with pytest.raises(RegisterError, match="sector buffer of shape"):
            DensityOperator.from_sectors(layout, flat)

    @pytest.mark.parametrize("n", range(2, 9))
    @pytest.mark.parametrize("name", ["D", "D-weak", "U"])
    def test_kernel_equals_the_tiled_apply(self, n, name):
        rng = np.random.default_rng(32 + n)
        superop = _pair_superops()[name]
        for sites in _blocked_sites(n):
            k = len(sites)
            local = superop if k == 2 else rng.standard_normal((4**k, 4**k)) + 0j
            if k != 2:  # a random charge-conserving superoperator
                local[register_module._charge_moving(k)] = 0
            flat = rng.standard_normal(comb(2 * n, n)) + 1j * rng.standard_normal(comb(2 * n, n))
            expected = apply_local_superop(dense_of(flat, n), local, sites, (2,) * n)
            out = apply_sector_superop(flat, local, [sites], n)
            assert out is flat
            assert np.max(np.abs(dense_of(flat, n) - expected)) <= 1e-12
            # the tiled apply leaves the cross-sector entries it was given at zero
            assert np.count_nonzero(expected) == np.count_nonzero(dense_of(flat, n))
        if n >= 3:  # one call over all placements equals the placements one by one
            placements = [(0, 1), (1, 2), (n - 1, 0)]
            flat = rng.standard_normal(comb(2 * n, n)) + 1j * rng.standard_normal(comb(2 * n, n))
            expected = dense_of(flat, n)
            for sites in placements:
                apply_local_superop(expected, superop, sites, (2,) * n, out=expected)
            apply_sector_superop(flat, superop, placements, n)
            assert np.max(np.abs(dense_of(flat, n) - expected)) <= 1e-12

    def test_kernel_rejects_a_misfit_and_charge_moving_maps_go_dense(self, blocked_and_dense):
        rho, reference = blocked_and_dense(np.random.default_rng(33), 3)
        flat = rho.sectors.copy()
        before = flat.copy()
        with pytest.raises(RegisterError, match="superoperator shape"):
            apply_sector_superop(flat, np.eye(4), [(0, 1)], 3)
        with pytest.raises(RegisterError, match="distinct ions"):
            apply_sector_superop(flat, np.eye(16), [(0, 3)], 3)
        assert flat.tobytes() == before.tobytes()
        # a misfit placement beside a sweep pair is not fused into a window
        for placements in ([(0, 1, 2), (1, 2)], [(0, 1), (1,)]):
            with pytest.raises(RegisterError, match="superoperator shape"):
                apply_local(rho, _pair_superops()["D"], placements)
        # the charge check sits in the dispatch: an x rotation takes the tiled dense apply
        c, s = np.cos(0.3), np.sin(0.3)
        x_rotation = kraus_superop([np.array([[c, -1j * s], [-1j * s, c]])])
        out = apply_local(rho, x_rotation, [(1,)])
        assert out.sectors is None
        expected = apply_local_superop(reference, x_rotation, (1,), (2,) * 3)
        assert np.max(np.abs(out.matrix - expected)) <= 1e-12

    @pytest.mark.parametrize("n", [4, 6])
    def test_sweep_and_bond_sum_take_each_charge_block_once(self, blocked_and_dense, monkeypatch, n):
        rho = blocked_and_dense(np.random.default_rng(34 + n), n)[0]
        superop = _pair_superops()["D"]
        bonds = [(i, i + 1) for i in range(n - 1)]
        expected = apply_local(rho, superop, bonds)
        plan_rows = sorted(rows for rows, _ in register_module._sector_plan(n, (0, 1)))
        # the sweep applies its 3-site windows as one run and the left-over pair
        # (4 and 6 ions both end in one) as another: each takes its blocks once
        sweep_rows = sorted([rows for rows, _ in register_module._sector_plan(n, (0, 1, 2))]
                            + [rows for rows, _ in register_module._sector_plan(n, (0, 1))])
        taken, ix = [], np.ix_

        def spy(*args):
            taken.append(list(args[0]))
            return ix(*args)

        monkeypatch.setattr(np, "ix_", spy)
        out = apply_local(rho, superop, bonds)
        assert sorted(taken) == sweep_rows
        assert out.sectors.tobytes() == expected.sectors.tobytes()
        taken.clear()
        local_sum(rho, superop, bonds)
        assert sorted(taken) == plan_rows


def _invariant_states():
    """Sector-diagonal matrices of 3 qubits that break one invariant each, with
    entries that are exact binary fractions, so every sum is exact in any order."""
    base = np.diag([1, 1, 1, 2, 1, 1, 0.5, 0.5]).astype(complex) / 8
    non_hermitian = base.copy()
    non_hermitian[1, 2] = 2.0**-20  # sector 1: indices 1, 2, 4
    wrong_trace = base * 1.25
    negative = base.copy()
    negative[3, 3], negative[5, 5] = 0.375 + 2.0**-10, -2.0**-10  # sector 2: 3, 5, 6
    return {
        "hermiticity": (non_hermitian, r"matrix deviates from Hermitian by 9\.5367431640625e-07 \(tolerance 1e-10\)"),
        "trace": (wrong_trace, r"trace \(1\.25\+0j\) deviates from 1 beyond 1e-10"),
        "positivity": (negative, r"smallest eigenvalue -0\.0009765625 below -1e-08"),
    }


class TestOneMessagePerInvariant:
    """The same broken state, built dense and built blocked, raises the same
    message: the invariant, its value and its tolerance."""

    @pytest.mark.parametrize("invariant", ["hermiticity", "trace", "positivity"])
    def test_dense_and_blocked_name_the_same_value_and_tolerance(self, invariant):
        mat, message = _invariant_states()[invariant]
        flat = sector_buffer(3)
        for idx, block in zip(_sector_indices(3), sector_views(flat, 3)):
            block[...] = mat[np.ix_(idx, idx)]
        with pytest.raises(RegisterError) as dense:
            DensityOperator(qubit_register(3), mat)
        with pytest.raises(RegisterError) as blocked:
            DensityOperator.from_sectors(qubit_register(3), flat)
        assert re.fullmatch(message, str(dense.value)), str(dense.value)
        assert str(blocked.value) == str(dense.value)


class TestDenseValidationMemory:
    """The dense path holds one Hermitian copy: the residual is tiled and the
    Cholesky test factors that copy in place."""

    def test_equal_superposition_peaks_one_state_above_its_input(self):
        n = 9
        mat = np.full((2**n, 2**n), 1.0 / 2**n, dtype=complex)
        DensityOperator(qubit_register(n), mat)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            DensityOperator(qubit_register(n), mat)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak / (16 * 4**n) <= 1.2

    def test_failing_block_is_rebuilt_for_eigvalsh(self):
        rng = np.random.default_rng(34)
        for layout in (qubit_register(4), system_with_ancilla(2)):
            mat = dense_state(rng, layout.dim, -1e-8 - 1e-9)
            lo = rejected_lo(layout, mat)
            assert abs(lo - reference_min_eigenvalue(mat)) <= 1e-12

    def test_tiled_residual_fails_on_nan_in_any_tile(self):
        layout = qubit_register(9)  # 8 x 8 tiles of 64 x 64
        mat = np.full((512, 512), 1.0 / 512, dtype=complex)
        mat[300, 450] = np.nan
        with pytest.raises(RegisterError, match="Hermitian by nan"):
            DensityOperator(layout, mat)


import spinmaps.lindblad as lindblad_module  # noqa: E402
from spinmaps.channels import apply_embedded  # noqa: E402
from spinmaps.cli import dump_state, load_state  # noqa: E402
from spinmaps.lindblad import MasterEqSpec, compare_stroboscopic, integrate  # noqa: E402
from spinmaps.observables import dicke_mixture  # noqa: E402
from spinmaps.protocols import stabilization_register, stabilize_remove, stabilize_system  # noqa: E402


def off_sector_or_qutrit(rho):
    """True when ``rho`` has a qutrit ion or a nonzero entry of its matrix
    between basis states of different excitation number."""
    n = rho.layout.n_ions
    if rho.layout.ion_dims != (2,) * n:
        return True
    ups = np.array([bin(b).count("1") for b in range(2**n)])
    return bool(np.any(rho.matrix[ups[:, None] != ups[None, :]]))


class TestOneRuleForTheForm:
    """Whatever produced it, a state is dense (``sectors is None``) exactly
    when it has an entry outside the excitation sectors or a qutrit ion."""

    def test_every_producer_follows_the_rule(self, tmp_path, monkeypatch):
        n, layout = 3, qubit_register(3)
        basis = basis_state(layout, [0, 1, 1]).density()
        equal = PureState(layout, np.full(8, 8**-0.5)).density()
        cross = DensityOperator(layout, 0.5 * basis.matrix + 0.5 * equal.matrix)
        qutrit = basis_state(system_with_ancilla(2), [1, 0, 1]).density()
        for rho in (equal, cross, qutrit):
            assert rho.sectors is None
        starts = (basis, dicke_mixture(n), equal, cross)
        pumped = stabilize_remove(
            DensityOperator(stabilization_register(n), np.kron(np.diag([0, 1, 0]), basis.matrix)), 1)
        outputs = {"equal": [equal], "cross-sector": [cross], "qutrit": [qutrit, pumped],
                   "dicke_mixture": [starts[1]]}
        pair = elementary_dissipative_map(DissipativeMapSpec(1, 0.7, 0.02))
        outputs["D"] = [apply_embedded(pair, rho, (0, 1)) for rho in starts]
        outputs["stabilize_system"] = [
            stabilize_system(rho, 1, removing) for rho in starts for removing in (True, False)]
        outputs["partial_trace"] = [partial_trace(pumped, [0]), partial_trace(pumped, [2]),
                                    partial_trace(cross, [0]), partial_trace(basis, [1])]
        spec = MasterEqSpec(n, u=0.3, kappa=0.04)
        outputs["integrate"] = [rho for start in starts for rho in integrate(start, spec, 0.3, 0.1)]
        compared = []
        monkeypatch.setattr(lindblad_module, "trace_distance",
                            lambda a, b: compared.append(b) or 0.0)
        for start in starts:
            compare_stroboscopic(start, 0.2, 0.3, 2)
        outputs["compare_stroboscopic"] = compared
        loaded = []
        for i, rho in enumerate([*starts, qutrit]):
            dump_state(rho, tmp_path / f"{i}.json")
            loaded.append(load_state(tmp_path / f"{i}.json"))
        outputs["load_state"] = loaded
        forms = set()
        for producer, states in outputs.items():
            for rho in states:
                assert (rho.sectors is None) == off_sector_or_qutrit(rho), producer
                forms.add((producer, rho.sectors is None))
        for producer in outputs:
            if producer not in ("equal", "cross-sector", "qutrit", "dicke_mixture"):
                assert {(producer, True), (producer, False)} <= forms, producer
        assert ("dicke_mixture", False) in forms


from spinmaps.register import relabel  # noqa: E402


def kraus_path_sum(mat, path, target, phase):
    """``sum_p K_p mat K_p^dag`` with ``K_p = sum_{path_i = p} phase_i |target_i><i|``."""
    out = np.zeros_like(mat)
    for p in np.unique(path):
        k = np.zeros_like(mat)
        (i,) = np.nonzero(path == p)
        k[target[i], i] = phase[i]
        out += k @ mat @ k.conj().T
    return out


class TestRelabel:
    """``relabel`` is the channel of Kraus operators that each send a basis
    state to one basis state times a phase, on either stored form."""

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_both_forms_match_the_kraus_sum(self, blocked_and_dense, n):
        rng = np.random.default_rng(130 + n)
        d = 2**n
        path = rng.integers(0, 3, d)
        phase = np.exp(2j * np.pi * rng.random(d))
        blocked, reference = blocked_and_dense(rng, n)
        dense_mat = 0.5 * reference + 0.5 / d  # every entry nonzero
        dense = DensityOperator(qubit_register(n), dense_mat)
        assert dense.sectors is None
        # a permutation for the dense state; the bit complement, which takes
        # sector k into sector n - k, for the blocked one
        for rho, mat, target in ((dense, dense_mat, rng.permutation(d)),
                                 (blocked, reference, np.arange(d) ^ (d - 1))):
            before = rho.matrix.copy()
            out = relabel(rho, path, target, phase)
            assert (out.sectors is None) == (rho.sectors is None)
            assert np.max(np.abs(out.matrix - kraus_path_sum(mat, path, target, phase))) <= 1e-12
            assert np.array_equal(rho.matrix, before)

    def test_a_path_that_splits_a_sector_block_raises(self, blocked_and_dense):
        blocked, _ = blocked_and_dense(np.random.default_rng(7), 3)
        identity, ones = np.arange(8), np.ones(8)
        with pytest.raises(RegisterError, match="splits a sector block"):
            relabel(blocked, np.zeros(8, dtype=int), np.roll(identity, 1), ones)
        with pytest.raises(RegisterError, match="per basis state of dim 8"):
            relabel(blocked, np.zeros(4, dtype=int), identity, ones)


class TestExactlyHermitianValidation:
    """A block whose Hermiticity residual is exactly 0 is its own Hermitian
    part: validation factors a plain copy of it and calls ``hermitize`` only
    for blocks with a nonzero residual."""

    def hermitize_calls(self, monkeypatch, layout, mat):
        calls = []
        monkeypatch.setattr(
            register_module, "hermitize", lambda m: calls.append(m.shape) or hermitize(m)
        )
        try:
            rho = DensityOperator(layout, mat)
        finally:
            monkeypatch.undo()
        return rho, calls

    @pytest.mark.parametrize("form", ["blocked", "dense"])
    def test_exactly_hermitian_state_is_not_hermitized(self, monkeypatch, form):
        rng = np.random.default_rng(43)
        if form == "blocked":
            layout, mat = qubit_register(5), sector_diagonal_state(rng, 5, 0.0)
        else:
            layout = system_with_ancilla(3)
            mat = dense_state(rng, layout.dim, 0.0)
        mat = hermitize(mat)
        assert register_module._hermiticity_residual(mat) == 0
        rho, calls = self.hermitize_calls(monkeypatch, layout, mat)
        assert (rho.sectors is None) == (form == "dense")
        assert calls == []

    def test_only_blocks_with_a_residual_are_hermitized(self, monkeypatch):
        layout = qubit_register(4)
        mat = hermitize(sector_diagonal_state(np.random.default_rng(47), 4, 0.0))
        i, j = _sector_indices(4)[2][:2]
        mat[i, j] += 1e-14  # within the tolerance, in the 6 x 6 block of sector 2
        rho, calls = self.hermitize_calls(monkeypatch, layout, mat)
        assert rho.sectors is not None
        assert calls == [(6, 6)]

    @pytest.mark.parametrize("offset", [1e-10, -1e-10, 1e-11, -1e-11])
    @pytest.mark.parametrize("register", ["qubits", "qutrit-ancilla"])
    def test_floor_decision_of_exactly_hermitian_states(self, offset, register):
        rng = np.random.default_rng(53)
        if register == "qubits":
            layout = qubit_register(6)
            mat = sector_diagonal_state(rng, 6, -1e-8 + offset)
        else:
            layout = system_with_ancilla(4)
            mat = dense_state(rng, layout.dim, -1e-8 + offset)
        mat = hermitize(mat)
        assert register_module._hermiticity_residual(mat) == 0
        assert accepts(layout, mat) == reference_accepts(mat) == (offset > 0)
