import numpy as np
import pytest
from math import comb, pi

from spinmaps.maps import apply_hamiltonian_map
from spinmaps.observables import (
    ObservableReport,
    analytic_dicke_order,
    dicke_fidelity,
    dicke_mixture,
    dicke_state,
    offdiag_order,
    purity,
    subspace_populations,
)
from spinmaps.register import (
    DensityOperator,
    PauliString,
    RegisterError,
    basis_state,
    embed,
    expectation,
    qubit_register,
)


class TestDickeState:
    def test_two_site_single_excitation(self):
        vec = dicke_state(1, 2).vector
        assert np.allclose(vec, np.array([0, 1, 1, 0]) / np.sqrt(2))

    @pytest.mark.parametrize("n,m", [(2, 1), (3, 1), (3, 2), (5, 2), (6, 3)])
    def test_collective_expectations(self, n, m):
        rho = dicke_state(m, n).density()
        lay = qubit_register(n)
        splus = sum(embed(PauliString(((i, "+"),)), lay) for i in range(n))
        sz = sum(embed(PauliString(((i, "z"),)), lay) for i in range(n))
        assert expectation(rho, splus @ splus.conj().T) == pytest.approx(
            m * (n + 1 - m), abs=1e-10
        )
        assert expectation(rho, sz) == pytest.approx(2 * m - n, abs=1e-10)

    def test_permutation_symmetry_of_pair_correlators(self):
        n, m = 4, 2
        rho = dicke_state(m, n).density()
        vals = [
            expectation(rho, PauliString(((i, "+"), (j, "-"))))
            for i in range(n)
            for j in range(n)
            if i != j
        ]
        assert np.allclose(vals, vals[0], atol=1e-12)

    def test_range_check(self):
        with pytest.raises(RegisterError):
            dicke_state(4, 3)


class TestScalarObservables:
    def test_fidelity_of_target_is_one(self):
        rho = dicke_state(2, 3).density()
        assert dicke_fidelity(rho, 2, 3) == pytest.approx(1.0, abs=1e-12)

    def test_fidelity_of_orthogonal_basis_state(self):
        rho = basis_state(qubit_register(3), [0, 0, 0]).density()
        assert dicke_fidelity(rho, 2, 3) == 0.0

    def test_fidelity_of_maximally_mixed(self):
        rho = DensityOperator(qubit_register(3), np.eye(8, dtype=complex) / 8)
        assert dicke_fidelity(rho, 2, 3) == pytest.approx(1 / 8, abs=1e-12)

    def test_purity(self):
        assert purity(dicke_state(1, 2).density()) == pytest.approx(1.0, abs=1e-12)
        mixed = DensityOperator(qubit_register(2), np.eye(4, dtype=complex) / 4)
        assert purity(mixed) == pytest.approx(0.25, abs=1e-12)
        two = DensityOperator(
            qubit_register(1), np.diag([0.5, 0.5]).astype(complex)
        )
        assert purity(two) == pytest.approx(0.5, abs=1e-12)

    def test_subspace_populations(self):
        assert np.allclose(
            subspace_populations(dicke_state(2, 3).density()), [0, 0, 1, 0]
        )
        plus = np.full(8, 1 / np.sqrt(8), dtype=complex)
        rho = DensityOperator(qubit_register(3), np.outer(plus, plus.conj()))
        assert np.allclose(
            subspace_populations(rho), [1 / 8, 3 / 8, 3 / 8, 1 / 8], atol=1e-12
        )
        mixed = DensityOperator(qubit_register(3), np.eye(8, dtype=complex) / 8)
        assert np.allclose(
            subspace_populations(mixed), [1 / 8, 3 / 8, 3 / 8, 1 / 8], atol=1e-12
        )


class TestOffdiagOrder:
    def test_two_site_dicke(self):
        assert offdiag_order(dicke_state(1, 2).density(), 1) == pytest.approx(0.5)

    def test_product_state_has_no_coherence(self):
        rho = basis_state(qubit_register(3), [1, 0, 1]).density()
        assert offdiag_order(rho, 2) == pytest.approx(0.0, abs=1e-14)

    def test_sign_flip_under_accumulated_competition(self):
        # One phi = pi/2 map turns the hop coherences purely imaginary (the
        # nearest-neighbour hops connect states whose interaction energies
        # differ by exactly 1), so the real part crosses zero there and turns
        # negative once a second map doubles the accumulated phase.
        rho = dicke_state(2, 3).density()
        assert offdiag_order(rho, 2) == pytest.approx(2 / 3, abs=1e-12)
        rho1 = apply_hamiltonian_map(rho, pi / 2)
        assert offdiag_order(rho1, 2) == pytest.approx(0.0, abs=1e-12)
        rho2 = apply_hamiltonian_map(rho1, pi / 2)
        assert offdiag_order(rho2, 2) == pytest.approx(-2 / 3, abs=1e-12)
        assert offdiag_order(rho2, 2) < 0 < offdiag_order(rho, 2)

    def test_empty_subspace_is_an_error(self):
        rho = basis_state(qubit_register(2), [0, 0]).density()
        with pytest.raises(RegisterError):
            offdiag_order(rho, 2)


class TestDickeMixture:
    def test_single_spin_is_maximally_mixed(self):
        assert np.allclose(dicke_mixture(1).matrix, np.eye(2) / 2)

    def test_two_spin_weights(self):
        mix = dicke_mixture(2)
        d1 = dicke_state(1, 2).vector
        expected = np.diag([0.25, 0, 0, 0.25]).astype(complex)
        expected += 0.5 * np.outer(d1, d1.conj())
        assert np.allclose(mix.matrix, expected, atol=1e-14)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_two_point_function_is_quarter(self, n):
        mix = dicke_mixture(n)
        # all pairs, including the farthest one
        for (i, j) in [(0, 1), (0, n - 1)]:
            val = expectation(mix, PauliString(((i, "+"), (j, "-"))))
            assert val == pytest.approx(0.25, abs=1e-12)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_binomial_weights(self, n):
        pops = subspace_populations(dicke_mixture(n))
        assert np.allclose(pops, [comb(n, m) / 2**n for m in range(n + 1)], atol=1e-12)


class TestAnalyticOrder:
    def test_empty_and_full_chains_carry_no_order(self):
        assert analytic_dicke_order(0, 5) == 0.0
        assert analytic_dicke_order(5, 5) == 0.0

    def test_three_spin_value(self):
        assert analytic_dicke_order(2, 3) == pytest.approx(1 / 3, abs=1e-15)

    def test_half_filling_approaches_quarter(self):
        assert analytic_dicke_order(100, 200) == pytest.approx(0.25, abs=2e-3)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_matches_direct_expectation(self, n):
        for m in range(1, n):
            rho = dicke_state(m, n).density()
            direct = expectation(rho, PauliString(((0, "+"), (n - 1, "-")))).real
            assert abs(direct - analytic_dicke_order(m, n)) <= 1e-12


class TestObservableReport:
    def test_accepts_consistent_record(self):
        ObservableReport(1, "SWEEP", 0.5, 0.9, (0.25, 0.5, 0.25), 0.1)

    def test_rejects_bad_populations(self):
        with pytest.raises(RegisterError):
            ObservableReport(1, "SWEEP", 0.5, 0.9, (0.5, 0.9), 0.1)

    def test_rejects_bad_purity(self):
        with pytest.raises(RegisterError):
            ObservableReport(1, "SWEEP", 0.5, 1.5, (0.5, 0.5), 0.1)


import tracemalloc  # noqa: E402


def _dense_hop(n):
    """Test-local reference: sum_j sigma^-_j sigma^+_{j+1} on the open chain."""
    lay = qubit_register(n)
    op = np.zeros((lay.dim, lay.dim))
    for b in range(lay.dim):
        occ = lay.occupation_of(b)
        for j in range(n - 1):
            if occ[j] == 1 and occ[j + 1] == 0:
                flipped = occ[:j] + (0, 1) + occ[j + 2:]
                op[lay.index_of(flipped), b] += 1.0
    return op


def _random_state(n, seed, rank=4):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(2**n, rank)) + 1j * rng.normal(size=(2**n, rank))
    mat = g @ g.conj().T
    return DensityOperator(qubit_register(n), mat / np.trace(mat))


def _sector_masks(n):
    counts = np.array([sum(qubit_register(n).occupation_of(b)) for b in range(2**n)])
    return [counts == m for m in range(n + 1)]


class TestSectorBookkeepingAgainstReferences:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_offdiag_order_matches_dense_hop_operator(self, n):
        rho = _random_state(n, seed=n)
        hop = _dense_hop(n)
        for m0, mask in enumerate(_sector_masks(n)):
            block = rho.matrix[np.ix_(mask, mask)]
            ref = np.real(np.trace(hop[np.ix_(mask, mask)] @ block)) / np.real(np.trace(block))
            assert abs(offdiag_order(rho, m0) - ref) < 1e-12

    @pytest.mark.parametrize("n", range(2, 9))
    def test_subspace_populations_match_mask_sums(self, n):
        rho = _random_state(n, seed=100 + n)
        diag = np.real(np.diag(rho.matrix))
        ref = [diag[mask].sum() for mask in _sector_masks(n)]
        assert np.max(np.abs(subspace_populations(rho) - ref)) < 1e-14

    def test_offdiag_order_builds_no_dense_operator(self):
        rho = dicke_state(5, 10).density()
        tracemalloc.start()
        try:
            value = offdiag_order(rho, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert value == pytest.approx(9 * analytic_dicke_order(5, 10), abs=1e-12)
        assert peak < 4e6


class TestReportRejectsNaN:
    def test_nan_population(self):
        with pytest.raises(RegisterError, match="populations"):
            ObservableReport(1, "SWEEP", 0.5, 0.9, (float("nan"), 1.0), 0.1)


class TestPurityAgainstEinsum:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_random_hermitized_states(self, n):
        rng = np.random.default_rng(100 + n)
        d = 2**n
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        mat = a @ a.conj().T
        mat = 0.5 * (mat + mat.conj().T) / np.trace(mat).real
        rho = DensityOperator(qubit_register(n), mat)
        reference = float(np.real(np.einsum("ij,ji->", mat, mat)))
        assert abs(purity(rho) - reference) <= 1e-13


class TestBlockedObservables:
    """Every observable of a blocked state, and of a dense state with
    cross-sector coherence, matches the numpy formula on its matrix."""

    @pytest.mark.parametrize("n", range(2, 9))
    def test_both_forms_agree(self, blocked_and_dense, n):
        rng = np.random.default_rng(70 + n)
        blocked, reference = blocked_and_dense(rng, n)
        coherent = 0.5 * reference + 0.5 / 2**n  # plus the equal superposition
        dense = DensityOperator(qubit_register(n), coherent)
        assert dense.sectors is None
        hop = _dense_hop(n)
        for rho, mat in ((blocked, reference), (dense, coherent)):
            for m, mask in enumerate(_sector_masks(n)):
                d = dicke_state(m, n).vector
                assert abs(dicke_fidelity(rho, m, n) - float(np.real(d.conj() @ mat @ d))) <= 1e-12
                block = mat[np.ix_(mask, mask)]
                order = np.real(np.trace(hop[np.ix_(mask, mask)] @ block)) / np.real(np.trace(block))
                assert abs(offdiag_order(rho, m) - order) <= 1e-12
            populations = [np.real(np.diag(mat))[mask].sum() for mask in _sector_masks(n)]
            assert np.max(np.abs(subspace_populations(rho) - populations)) <= 1e-12
            assert abs(purity(rho) - np.einsum("ij,ji->", mat, mat).real) <= 1e-12

    def test_empty_sector_raises_on_both_forms(self):
        coherent = np.zeros((16, 16), dtype=complex)
        coherent[0, 0] = coherent[3, 3] = coherent[0, 3] = coherent[3, 0] = 0.5  # |0000>, |0011>
        dense = DensityOperator(qubit_register(4), coherent)
        assert dense.sectors is None
        for rho in (basis_state(qubit_register(4), [1, 1, 0, 0]).density(), dense):
            with pytest.raises(RegisterError, match="no population in the m=1"):
                offdiag_order(rho, 1)
            assert dicke_fidelity(rho, 1, 4) == 0.0
