import numpy as np
import pytest
from math import pi

from spinmaps import lindblad
from spinmaps.channels import trace_distance
from spinmaps.maps import apply_hamiltonian_map, composite_dissipative_sweep
from spinmaps.lindblad import (
    MasterEqSpec,
    compare_stroboscopic,
    integrate,
    liouvillian_apply,
)
from spinmaps.observables import dicke_fidelity, dicke_state
from spinmaps.register import DensityOperator, RegisterError, basis_state, qubit_register


def dm(vec):
    vec = np.asarray(vec, dtype=complex)
    vec = vec / np.linalg.norm(vec)
    return np.outer(vec, vec.conj())


SINGLET = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)


class TestLiouvillian:
    def test_output_is_traceless(self):
        rng = np.random.default_rng(2)
        vec = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        rho = DensityOperator(qubit_register(3), dm(vec))
        deriv = liouvillian_apply(rho, MasterEqSpec(3, u=0.7, kappa=1.3))
        assert abs(np.trace(deriv)) <= 1e-12

    @pytest.mark.parametrize("n,m", [(2, 1), (3, 1), (3, 2), (4, 2)])
    def test_dark_states_are_stationary_without_hamiltonian(self, n, m):
        rho = dicke_state(m, n).density()
        deriv = liouvillian_apply(rho, MasterEqSpec(n, u=0.0, kappa=1.0))
        assert np.max(np.abs(deriv)) <= 1e-12

    def test_zero_kappa_reduces_to_commutator(self):
        rng = np.random.default_rng(3)
        vec = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        rho = DensityOperator(qubit_register(2), dm(vec))
        from spinmaps.maps import interaction_hamiltonian

        h = np.diag(interaction_hamiltonian(2))
        u = 0.9
        deriv = liouvillian_apply(rho, MasterEqSpec(2, u=u, kappa=0.0))
        expected = -1j * u * (h @ rho.matrix - rho.matrix @ h)
        assert np.max(np.abs(deriv - expected)) <= 1e-13

    def test_singlet_population_decays_at_unit_rate(self):
        # d<singlet|rho|singlet>/dt = -kappa for rho = |singlet><singlet|
        kappa = 1.7
        rho = DensityOperator(qubit_register(2), dm(SINGLET))
        deriv = liouvillian_apply(rho, MasterEqSpec(2, u=0.0, kappa=kappa))
        rate = float(np.real(SINGLET.conj() @ deriv @ SINGLET))
        assert rate == pytest.approx(-kappa, abs=1e-12)


class TestIntegrate:
    def test_zero_time_returns_input(self):
        rho = basis_state(qubit_register(2), [1, 0]).density()
        traj = integrate(rho, MasterEqSpec(2), 0.0, 0.01)
        assert len(traj) == 1 and traj[0] is rho

    def test_stability_bound_enforced(self):
        rho = basis_state(qubit_register(2), [1, 0]).density()
        with pytest.raises(RegisterError):
            integrate(rho, MasterEqSpec(2, u=1.0, kappa=1.0), 1.0, 0.1)

    def test_trace_and_hermiticity_along_long_trajectory(self):
        rho = basis_state(qubit_register(2), [1, 0]).density()
        traj = integrate(rho, MasterEqSpec(2, kappa=1.0), 50.0, 0.04)
        final = traj[-1].matrix
        assert abs(np.trace(final) - 1) <= 1e-8
        assert np.max(np.abs(final - final.conj().T)) <= 1e-10

    def test_purely_dissipative_fidelity_is_monotone(self):
        rho = basis_state(qubit_register(3), [1, 0, 1]).density()
        traj = integrate(rho, MasterEqSpec(3, u=0.0, kappa=1.0), 12.0, 0.02)
        fids = [dicke_fidelity(state, 2, 3) for state in traj]
        assert all(b >= a - 1e-10 for a, b in zip(fids, fids[1:]))
        assert fids[-1] > 0.99

    def test_rk4_endpoint_error_scales_as_dt_fourth(self):
        spec = MasterEqSpec(2, u=1.0, kappa=1.2)
        rho = basis_state(qubit_register(2), [1, 0]).density()
        ref = integrate(rho, spec, 2.0, 0.0005)[-1].matrix
        coarse = integrate(rho, spec, 2.0, 0.02)[-1].matrix
        fine = integrate(rho, spec, 2.0, 0.01)[-1].matrix
        ratio = np.linalg.norm(coarse - ref) / np.linalg.norm(fine - ref)
        assert 10 < ratio < 22


class TestStroboscopicComparison:
    def test_deviation_shrinks_with_step_size_at_fixed_g(self):
        rho = basis_state(qubit_register(3), [1, 0, 1]).density()
        g = 1.0
        devs = [
            compare_stroboscopic(rho, theta, g * theta**2, n_steps=10)
            for theta in (0.2, 0.1, 0.05)
        ]
        assert devs[0] > devs[1] > devs[2]
        # second-order convergence: halving theta shrinks deviation ~4x or more
        assert devs[0] / devs[1] > 3.0

    def test_pure_dissipation_agrees_with_master_equation(self):
        rho = basis_state(qubit_register(2), [1, 0]).density()
        dev = compare_stroboscopic(rho, 0.05, 0.0, n_steps=20)
        assert dev < 2e-4

    def test_fixed_points_agree_quadratically_in_theta(self):
        # long-time states for two theta values at the same g approach the
        # continuum fixed point with O(theta^2) discrepancies
        rho0 = basis_state(qubit_register(2), [1, 0]).density()
        devs = {}
        for theta in (0.2, 0.1):
            devs[theta] = compare_stroboscopic(rho0, theta, 0.5 * theta**2, n_steps=120)
        ratio = devs[0.2] / devs[0.1]
        assert 2.5 < ratio < 6.5

    def test_rejects_large_angles(self):
        rho = basis_state(qubit_register(2), [1, 0]).density()
        with pytest.raises(RegisterError):
            compare_stroboscopic(rho, 0.5, 0.0, n_steps=2)

    @pytest.mark.parametrize("n,theta,g", [(3, 0.2, 1.0), (4, 0.1, 10.0), (5, 0.2, 0.0)])
    def test_equals_comparison_over_full_trajectories(self, monkeypatch, n, theta, g):
        """Validating only the compared states leaves the result unchanged:
        it equals the worst trace distance against the endpoint of each
        unit-time ``integrate`` trajectory, and one state is validated per
        map step instead of one per RK4 step."""
        rho0 = basis_state(qubit_register(n), [1, 0] * (n // 2) + [1] * (n % 2)).density()
        phi, n_steps = g * theta**2, 3
        spec = MasterEqSpec(n, u=phi, kappa=theta**2)
        dt = 1.0 / max(4, int(np.ceil((abs(phi) + theta**2) / 0.05)))
        strobe, cont, expected = rho0, rho0, 0.0
        for _ in range(n_steps):
            strobe = composite_dissipative_sweep(strobe, theta)
            if phi != 0.0:
                strobe = apply_hamiltonian_map(strobe, phi)
            cont = integrate(cont, spec, 1.0, dt)[-1]
            expected = max(expected, trace_distance(strobe, cont))
        built = []
        hook = lambda *a: built.append(a) or DensityOperator(*a)  # noqa: E731
        hook.from_sectors = lambda *a: built.append(a) or DensityOperator.from_sectors(*a)
        monkeypatch.setattr(lindblad, "DensityOperator", hook)
        assert compare_stroboscopic(rho0, theta, phi, n_steps) == expected
        assert len(built) == n_steps


from spinmaps.maps import interaction_hamiltonian, jump_operator  # noqa: E402


def dense_liouvillian(rho, n, u, kappa):
    """-i U [H, rho] + kappa sum_i (c rho c^dag - {c^dag c, rho}/2), all dense."""
    h = np.diag(interaction_hamiltonian(n))
    out = -1j * u * (h @ rho - rho @ h)
    for i in range(1, n):
        c = jump_operator(i, n)
        cdc = c.conj().T @ c
        out += kappa * (c @ rho @ c.conj().T - 0.5 * (cdc @ rho + rho @ cdc))
    return out


class TestEffectiveHamiltonianForm:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("u,kappa", [(0.7, 1.3), (0.0, 0.9), (1.1, 0.0), (0.0, 0.0)])
    def test_matches_dense_jump_reference(self, n, u, kappa):
        rng = np.random.default_rng(10 * n)
        vec = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
        rho = DensityOperator(qubit_register(n), dm(vec))
        deriv = liouvillian_apply(rho, MasterEqSpec(n, u=u, kappa=kappa))
        expected = dense_liouvillian(rho.matrix, n, u, kappa)
        assert np.max(np.abs(deriv - expected)) <= 1e-12


import tracemalloc  # noqa: E402

from spinmaps.register import PureState, hermitize  # noqa: E402


def dense_rk4(mat, n, u, kappa, dt, steps):
    """The matrices after each RK4 step on the dense reference Liouvillian,
    re-Hermitized and renormalized as :func:`integrate` does."""
    out = []
    for _ in range(steps):
        k1 = dense_liouvillian(mat, n, u, kappa)
        k2 = dense_liouvillian(mat + 0.5 * dt * k1, n, u, kappa)
        k3 = dense_liouvillian(mat + 0.5 * dt * k2, n, u, kappa)
        k4 = dense_liouvillian(mat + dt * k3, n, u, kappa)
        mat = hermitize(mat + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4))
        mat = mat / np.trace(mat).real
        out.append(mat)
    return out


def cross_sector(rho, n):
    """Half ``rho`` plus half the equal superposition: dense, every entry nonzero."""
    equal = PureState(qubit_register(n), np.full(2**n, 2 ** (-n / 2))).density()
    return DensityOperator(qubit_register(n), 0.5 * rho.matrix + 0.5 * equal.matrix)


class TestStoredFormRK4:
    """The RK4 runs on the stored form: the sector blocks of a blocked state,
    the matrix of a dense one; both equal a dense RK4 on the reference Liouvillian."""

    @pytest.mark.parametrize("n", range(2, 9))
    @pytest.mark.parametrize("blocked", [True, False])
    def test_matches_a_dense_rk4(self, blocked_and_dense, n, blocked):
        rho, reference = blocked_and_dense(np.random.default_rng(200 + n), n)
        if not blocked:
            rho = cross_sector(rho, n)
            reference = rho.matrix.copy()
        before = rho.matrix.copy()
        u, kappa, dt, steps = 0.7, 0.3, 0.05, 4
        traj = integrate(rho, MasterEqSpec(n, u=u, kappa=kappa), dt * steps, dt)
        assert len(traj) == steps + 1 and traj[0] is rho
        for state, expected in zip(traj[1:], dense_rk4(reference, n, u, kappa, dt, steps)):
            assert (state.sectors is not None) == blocked
            assert np.max(np.abs(state.matrix - expected)) <= 1e-12
        assert np.array_equal(rho.matrix, before)

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_liouvillian_of_a_blocked_state_is_dense(self, blocked_and_dense, n):
        rho, reference = blocked_and_dense(np.random.default_rng(210 + n), n)
        deriv = liouvillian_apply(rho, MasterEqSpec(n, u=0.7, kappa=1.3))
        assert deriv.shape == (2**n, 2**n)
        assert np.max(np.abs(deriv - dense_liouvillian(reference, n, 0.7, 1.3))) <= 1e-12

    def test_one_blocked_step_at_n9_stays_below_one_and_a_quarter_dense_states(self):
        # The dense RK4 it replaces peaked at 7.0 dense states.
        n = 9
        rho = basis_state(qubit_register(n), [0, 1] * 4 + [1]).density()
        spec = MasterEqSpec(n, u=0.7, kappa=0.3)
        integrate(rho, spec, 0.05, 0.05)  # warm the plan caches
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = integrate(rho, spec, 0.05, 0.05)[-1]
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert out.sectors is not None
        assert peak / (16 * 4**n) < 1.25

    def test_blocked_comparison_never_builds_the_matrix(self, monkeypatch):
        rho = basis_state(qubit_register(5), [1, 0, 1, 1, 0]).density()
        expected = compare_stroboscopic(rho, 0.2, 0.04, 3)

        def no_matrix(self):
            raise AssertionError("the dense matrix was built")

        monkeypatch.setattr(DensityOperator, "matrix", property(no_matrix))
        assert compare_stroboscopic(rho, 0.2, 0.04, 3) == expected


class TestBlockedTraceDistance:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_the_dense_formula(self, blocked_and_dense, n):
        rng = np.random.default_rng(220 + n)
        (a, ref_a), (b, ref_b) = blocked_and_dense(rng, n), blocked_and_dense(rng, n)
        expected = 0.5 * np.sum(np.abs(np.linalg.eigvalsh(ref_a - ref_b)))
        assert abs(trace_distance(a, b) - expected) <= 1e-12
        assert trace_distance(a, a) == 0.0
        dense = cross_sector(b, n)
        mixed = 0.5 * np.sum(np.abs(np.linalg.eigvalsh(ref_a - dense.matrix)))
        assert abs(trace_distance(a, dense) - mixed) <= 1e-12
