import tracemalloc

import numpy as np
import pytest
from itertools import combinations
from math import pi

import spinmaps.maps as maps_module
from spinmaps.channels import ChannelError, apply, choi, choi_distance, process_fidelity
from spinmaps.maps import (
    DissipativeMapSpec,
    HamiltonianMapSpec,
    apply_dissipative_map,
    apply_hamiltonian_map,
    circuit_dissipative_map,
    composite_dissipative_sweep,
    composite_map,
    dissipative_kraus,
    elementary_dissipative_map,
    elementary_hamiltonian_map,
    hamiltonian_map,
    interaction_hamiltonian,
    jump_operator,
    pair_jump_operator,
    singlet_projector,
)
from spinmaps.observables import dicke_fidelity, dicke_state, subspace_populations
from spinmaps.register import (
    DensityOperator,
    PauliString,
    RegisterError,
    basis_state,
    embed,
    embed_operator,
    qubit_register,
)
from test_local_channels import nested_product

SINGLET = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)
TRIPLET = np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2)


def dm(vec):
    vec = np.asarray(vec, dtype=complex)
    vec = vec / np.linalg.norm(vec)
    return np.outer(vec, vec.conj())


def naive_pair_kraus(theta):
    """Independent construction of the pair Kraus set from raw ladder ops."""
    sp = np.array([[0, 0], [1, 0]], dtype=complex)
    sm = sp.conj().T
    c_raw = (np.kron(sp, np.eye(2)) + np.kron(np.eye(2), sp)) @ (
        np.kron(sm, np.eye(2)) - np.kron(np.eye(2), sm)
    )
    c = -0.5 * c_raw  # normalized singlet -> triplet transition
    proj = c.conj().T @ c
    return np.sin(theta) * c, np.eye(4) + (np.cos(theta) - 1) * proj


class TestJumpOperator:
    def test_normalized_literal_product(self):
        # the raw ladder-operator product is -2x the unit-normalized
        # singlet->triplet operator; the map requires the normalized form
        e1, _ = naive_pair_kraus(pi / 2)
        assert np.allclose(pair_jump_operator(), e1, atol=1e-14)

    def test_converts_singlet_to_triplet(self):
        c = jump_operator(1, 2)
        assert np.allclose(c @ SINGLET, TRIPLET, atol=1e-14)

    def test_triplet_states_are_dark(self):
        c = jump_operator(1, 2)
        for vec in (TRIPLET, [1, 0, 0, 0], [0, 0, 0, 1]):
            assert np.allclose(c @ np.asarray(vec, dtype=complex), 0.0, atol=1e-14)

    def test_projector_property(self):
        p = singlet_projector()
        assert np.allclose(p, np.outer(SINGLET, SINGLET.conj()), atol=1e-14)
        assert np.allclose(p @ p, p, atol=1e-14)

    @pytest.mark.parametrize("n", [3, 4])
    def test_commutes_with_total_sz(self, n):
        lay = qubit_register(n)
        sz = sum(embed(PauliString(((i, "z"),)), lay) for i in range(n))
        for i in range(1, n):
            c = jump_operator(i, n)
            assert np.max(np.abs(c @ sz - sz @ c)) < 1e-12

    def test_site_range(self):
        with pytest.raises(RegisterError):
            jump_operator(0, 3)
        with pytest.raises(RegisterError):
            jump_operator(3, 3)


class TestElementaryMap:
    def test_deterministic_pumping(self):
        ch = elementary_dissipative_map(DissipativeMapSpec(1))
        out = apply(ch, DensityOperator(qubit_register(2), dm(SINGLET)))
        assert np.allclose(out.matrix, dm(TRIPLET), atol=1e-12)

    def test_deterministic_kraus_set(self):
        ch = elementary_dissipative_map(DissipativeMapSpec(1, theta=pi / 2))
        assert len(ch.kraus_ops) == 2
        assert np.allclose(ch.kraus_ops[0], pair_jump_operator(), atol=1e-14)
        assert np.allclose(
            ch.kraus_ops[1], np.eye(4) - singlet_projector(), atol=1e-14
        )

    def test_zero_angle_is_identity(self):
        ch = elementary_dissipative_map(DissipativeMapSpec(1, theta=0.0))
        rho = DensityOperator(qubit_register(2), dm([0.4, 0.3, 0.7, 0.2j]))
        assert np.allclose(apply(ch, rho).matrix, rho.matrix, atol=1e-12)

    @pytest.mark.parametrize("theta", [0.3, 1.0, pi / 2])
    def test_matches_independent_kraus_oracle(self, theta):
        ch = elementary_dissipative_map(DissipativeMapSpec(1, theta=theta))
        e1, e2 = naive_pair_kraus(theta)
        rho = dm([0.2, 0.4, -0.1, 0.6j])
        expected = e1 @ rho @ e1.conj().T + e2 @ rho @ e2.conj().T
        got = sum(k @ rho @ k.conj().T for k in ch.kraus_ops)
        assert np.allclose(got, expected, atol=1e-13)

    def test_small_angle_error_scales_as_fourth_power(self):
        vec = np.array([0.31, 0.42 - 0.2j, -0.61 + 0.11j, 0.55j])
        rho = dm(vec)
        c = pair_jump_operator()
        cdc = c.conj().T @ c
        lind = c @ rho @ c.conj().T - 0.5 * (cdc @ rho + rho @ cdc)
        thetas = np.logspace(-2, -1, 8)
        errs = []
        for th in thetas:
            ch = elementary_dissipative_map(DissipativeMapSpec(1, theta=float(th)))
            out = sum(k @ rho @ k.conj().T for k in ch.kraus_ops)
            errs.append(np.linalg.norm(out - (rho + th**2 * lind)))
        slope = np.polyfit(np.log(thetas), np.log(errs), 1)[0]
        assert slope == pytest.approx(4.0, abs=0.3)


class TestCircuitMap:
    @pytest.mark.parametrize("phi", [pi / 8, pi / 4, pi / 2])
    def test_choi_equals_direct_kraus_map(self, phi):
        direct = elementary_dissipative_map(DissipativeMapSpec(1, theta=phi))
        engineered = circuit_dissipative_map(DissipativeMapSpec(1, theta=phi))
        assert choi_distance(choi(engineered), choi(direct)) <= 1e-9
        assert process_fidelity(choi(engineered), choi(direct)) >= 1 - 1e-9

    def test_zero_angle_is_identity_on_system(self):
        ch = circuit_dissipative_map(DissipativeMapSpec(1, theta=0.0))
        rho = DensityOperator(qubit_register(2), dm([0.4, 0.3, 0.7, 0.2j]))
        assert np.allclose(apply(ch, rho).matrix, rho.matrix, atol=1e-12)

    def test_probabilistic_pumping_rate(self):
        # conversion probability p = sin^2(phi) on the singlet
        ch = circuit_dissipative_map(DissipativeMapSpec(1, theta=pi / 4))
        out = apply(ch, DensityOperator(qubit_register(2), dm(SINGLET)))
        triplet_weight = float(np.real(TRIPLET.conj() @ out.matrix @ TRIPLET))
        assert triplet_weight == pytest.approx(0.5, abs=1e-12)

    def test_inverse_stage_is_redundant_at_full_pumping(self):
        # including M^dag at phi = pi/2 yields the identical channel
        from spinmaps.maps import _ancilla_dilation_unitary

        u_with = _ancilla_dilation_unitary(pi / 2, pi / 2, omit_inverse=False)
        kraus = tuple(u_with[4 * k : 4 * (k + 1), 4:8] for k in range(2))
        from spinmaps.channels import Channel

        with_inverse = Channel(qubit_register(2), kraus)
        omitted = circuit_dissipative_map(DissipativeMapSpec(1, theta=pi / 2))
        assert choi_distance(choi(with_inverse), choi(omitted)) <= 1e-12


class TestHamiltonianMap:
    def test_interaction_counts_adjacent_excited_pairs(self):
        h = interaction_hamiltonian(3)
        lay = qubit_register(3)
        assert h[lay.index_of([0, 1, 1])] == 1
        assert h[lay.index_of([1, 0, 1])] == 0
        assert h[lay.index_of([1, 1, 1])] == 2

    def test_single_excitation_sector_is_untouched(self):
        ch = hamiltonian_map(HamiltonianMapSpec(pi / 2), 3)
        for occ in ([0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]):
            rho = basis_state(qubit_register(3), occ).density()
            assert np.allclose(apply(ch, rho).matrix, rho.matrix, atol=1e-14)

    def test_adjacent_pair_acquires_phase(self):
        phi = 0.9
        ch = hamiltonian_map(HamiltonianMapSpec(phi), 2)
        u = ch.kraus_ops[0]
        assert u[3, 3] == pytest.approx(np.exp(-1j * phi), abs=1e-14)
        assert u[0, 0] == u[1, 1] == u[2, 2] == 1.0

    def test_zero_angle_is_identity(self):
        ch = hamiltonian_map(HamiltonianMapSpec(0.0), 3)
        assert np.allclose(ch.kraus_ops[0], np.eye(8), atol=1e-14)

    def test_sequential_equals_global_unitary(self):
        rho = DensityOperator(qubit_register(3), dm(np.arange(1, 9) + 0.5j))
        out = apply_hamiltonian_map(rho, 0.77)
        u = hamiltonian_map(HamiltonianMapSpec(0.77), 3).kraus_ops[0]
        assert np.allclose(out.matrix, u @ rho.matrix @ u.conj().T, atol=1e-12)

    def test_noisy_composition_matches_sequential_application(self):
        n = 3
        rho = DensityOperator(qubit_register(n), dm(np.arange(1, 9) + 0.5j))
        pair = elementary_hamiltonian_map(0.6, 0.1).kraus_ops
        stages = [[embed_operator(k, (j, j + 1), (2,) * n) for k in pair] for j in range(n - 1)]
        expected = sum(k @ rho.matrix @ k.conj().T for k in nested_product(stages, 2**n))
        assert np.allclose(apply_hamiltonian_map(rho, 0.6, 0.1).matrix, expected, atol=1e-12)

    def test_noisy_spec_raises_before_allocating(self):
        spec = HamiltonianMapSpec(0.6, epsilon_coh=0.1)
        tracemalloc.start()
        try:
            with pytest.raises(ChannelError, match="apply_hamiltonian_map"):
                hamiltonian_map(spec, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


class TestCompositeSweep:
    def test_converges_to_dark_state_from_localized_start(self):
        # fixed-point iteration oracle: the same evolution built from naive
        # dense Kraus embeddings must converge to the same state
        lay = qubit_register(3)
        rho = basis_state(lay, [1, 0, 1]).density()
        e1, e2 = naive_pair_kraus(pi / 2)
        mat = rho.matrix.copy()
        for _ in range(12):
            for ops in (
                [np.kron(k, np.eye(2)) for k in (e1, e2)],
                [np.kron(np.eye(2), k) for k in (e1, e2)],
            ):
                mat = sum(k @ mat @ k.conj().T for k in ops)
        oracle_fid = float(
            np.real(dicke_state(2, 3).vector.conj() @ mat @ dicke_state(2, 3).vector)
        )
        out = rho
        for _ in range(12):
            out = composite_dissipative_sweep(out)
        assert dicke_fidelity(out, 2, 3) == pytest.approx(oracle_fid, abs=1e-12)
        assert dicke_fidelity(out, 2, 3) > 0.999

    def test_first_sweep_fidelity_is_exact(self):
        # hand-derived value for |101>: D_{1,2} then D_{2,3} gives 5/6
        rho = basis_state(qubit_register(3), [1, 0, 1]).density()
        out = composite_dissipative_sweep(rho)
        assert dicke_fidelity(out, 2, 3) == pytest.approx(5 / 6, abs=1e-12)

    def test_dark_state_is_invariant(self):
        rho = dicke_state(2, 4).density()
        out = composite_dissipative_sweep(rho)
        assert np.max(np.abs(out.matrix - rho.matrix)) < 1e-12

    def test_full_noise_maximally_mixes_touched_pair(self):
        rho = basis_state(qubit_register(2), [1, 0]).density()
        out = composite_dissipative_sweep(rho, epsilon=1.0)
        assert np.allclose(out.matrix, np.eye(4) / 4, atol=1e-12)

    def test_periodic_boundary_touches_wrap_pair(self):
        rho = basis_state(qubit_register(3), [1, 0, 1]).density()
        out = composite_dissipative_sweep(rho, periodic=True)
        assert abs(np.trace(out.matrix) - 1) < 1e-12
        assert dicke_fidelity(out, 2, 3) > dicke_fidelity(rho, 2, 3)

    def test_single_map_application_matches_channel(self):
        lay = qubit_register(4)
        rho = DensityOperator(lay, dm(np.arange(1, 17) - 3.2j))
        spec = DissipativeMapSpec(2, theta=1.1, epsilon=0.15)
        out = apply_dissipative_map(rho, spec)
        pair = elementary_dissipative_map(spec)
        dense = tuple(
            np.kron(np.kron(np.eye(2), k), np.eye(2)) for k in pair.kraus_ops
        )
        expected = sum(k @ rho.matrix @ k.conj().T for k in dense)
        assert np.allclose(out.matrix, expected, atol=1e-12)

    def test_repeated_single_maps_build_the_pair_channel_once(self, monkeypatch):
        built = []
        monkeypatch.setattr(maps_module, "dissipative_kraus",
                            lambda theta: built.append(theta) or dissipative_kraus(theta))
        maps_module._cached_dissipative_map.cache_clear()
        rho = basis_state(qubit_register(4), [1, 0, 1, 0]).density()
        for site in (1, 2, 3, 1, 2):
            rho = apply_dissipative_map(rho, DissipativeMapSpec(site, 0.9, 0.05))
        composite_dissipative_sweep(rho, 0.9, 0.05)
        assert built == [0.9]


class TestCompositeMap:
    def test_reduces_to_sweep_without_competition(self):
        rho = basis_state(qubit_register(3), [1, 0, 1]).density()
        a = composite_map(rho, phi=0.0, epsilon_coh=0.3)
        b = composite_dissipative_sweep(rho)
        assert np.allclose(a.matrix, b.matrix, atol=1e-14)

    def test_competition_drops_then_dissipation_recovers(self):
        rho = basis_state(qubit_register(3), [1, 0, 1]).density()
        for _ in range(4):
            rho = composite_dissipative_sweep(rho)
        near_dark = dicke_fidelity(rho, 2, 3)
        hit = apply_hamiltonian_map(rho, pi / 2)
        dropped = dicke_fidelity(hit, 2, 3)
        recovered = dicke_fidelity(composite_dissipative_sweep(hit), 2, 3)
        assert dropped < near_dark - 0.3
        assert recovered > dropped + 0.1

    def test_weak_competition_is_gentler(self):
        drops = {}
        for phi in (pi / 4, pi / 2):
            rho = basis_state(qubit_register(3), [1, 0, 1]).density()
            for _ in range(2):
                rho = composite_dissipative_sweep(rho)
            rho = composite_map(rho, phi=phi)
            drops[phi] = dicke_fidelity(rho, 2, 3)
        assert drops[pi / 4] > drops[pi / 2]


class TestExcitationConservation:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_ideal_maps_conserve_all_subspace_weights(self, n):
        rng = np.random.default_rng(n)
        vec = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
        rho = DensityOperator(qubit_register(n), dm(vec))
        before = subspace_populations(rho)
        swept = composite_dissipative_sweep(rho)
        assert np.max(np.abs(subspace_populations(swept) - before)) < 1e-10
        rotated = apply_hamiltonian_map(rho, 0.83)
        assert np.max(np.abs(subspace_populations(rotated) - before)) < 1e-10

    @pytest.mark.parametrize("n,m", [(3, 1), (4, 2), (5, 2), (6, 3)])
    def test_unique_dark_state_within_sector(self, n, m):
        # superposition supported on the m-sector converges to |D(m, N)>
        rng = np.random.default_rng(10 * n + m)
        counts = np.array([bin(b).count("1") for b in range(2**n)])
        vec = np.where(
            counts == m, rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n), 0
        )
        rho = DensityOperator(qubit_register(n), dm(vec))
        for _ in range(40):
            rho = composite_dissipative_sweep(rho)
        assert dicke_fidelity(rho, m, n) > 0.999


class TestSpecValidation:
    def test_site_bounds(self):
        with pytest.raises(RegisterError):
            DissipativeMapSpec(0)

    def test_angle_bounds(self):
        with pytest.raises(RegisterError):
            DissipativeMapSpec(1, theta=2.0)
        with pytest.raises(RegisterError):
            HamiltonianMapSpec(2.0)

    def test_noise_bounds(self):
        with pytest.raises(RegisterError):
            DissipativeMapSpec(1, epsilon=1.5)


def _loop_bond_energies(n, periodic):
    """Test-local reference: count adjacent up-up pairs of every basis state."""
    lay = qubit_register(n)
    bonds = [(i, i + 1) for i in range(n - 1)] + ([(n - 1, 0)] if periodic else [])
    diag = [sum(lay.occupation_of(b)[i] & lay.occupation_of(b)[j] for i, j in bonds)
            for b in range(lay.dim)]
    return np.array(diag)


class TestInteractionHamiltonianReference:
    @pytest.mark.parametrize("periodic", [False, True])
    @pytest.mark.parametrize("n", range(2, 9))
    def test_equals_loop_reference(self, n, periodic):
        assert np.array_equal(interaction_hamiltonian(n, periodic), _loop_bond_energies(n, periodic))


from spinmaps.register import apply_local_superop  # noqa: E402


class TestPairSweepHermitization:
    """The sweep re-Hermitizes its fresh output in place: bitwise the
    out-of-place ``0.5 * (mat + mat.conj().T)``, and the input is untouched."""

    @pytest.mark.parametrize("periodic", [False, True])
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_bitwise_equal_to_the_out_of_place_form(self, n, periodic):
        rng = np.random.default_rng(n)
        a = rng.standard_normal((2**n, 2**n)) + 1j * rng.standard_normal((2**n, 2**n))
        rho = DensityOperator(qubit_register(n), a @ a.conj().T / np.trace(a @ a.conj().T).real)
        before = rho.matrix.copy()
        superop = elementary_dissipative_map(DissipativeMapSpec(1, 1.1, 0.05)).superop
        mat = rho.matrix
        pairs = [(i, (i + 1) % n) for i in range(n if periodic else n - 1)]
        for ions in pairs:
            mat = apply_local_superop(mat, superop, ions, rho.layout.ion_dims)
        out = composite_dissipative_sweep(rho, 1.1, 0.05, periodic)
        assert out.matrix.tobytes() == (0.5 * (mat + mat.conj().T)).tobytes()
        assert rho.matrix.tobytes() == before.tobytes()

    def test_no_pair_leaves_the_input_untouched(self):
        mat = np.array([[0.5, 0.25 + 0.1j], [0.25 - 0.1j, 0.5]])
        rho = DensityOperator(qubit_register(1), mat.copy())
        out = apply_hamiltonian_map(rho, 0.3, 0.01)
        assert out.matrix is not rho.matrix
        assert rho.matrix.tobytes() == mat.tobytes() == out.matrix.tobytes()


def _sector_mixed_state(rng, n):
    """Random mixture of one random pure state per excitation sector."""
    d = 2**n
    counts = np.array([bin(b).count("1") for b in range(d)])
    mat = np.zeros((d, d), dtype=complex)
    for k in range(n + 1):
        idx = np.flatnonzero(counts == k)
        v = rng.standard_normal(len(idx)) + 1j * rng.standard_normal(len(idx))
        mat[np.ix_(idx, idx)] += np.outer(v, v.conj()) / np.vdot(v, v).real / (n + 1)
    return DensityOperator(qubit_register(n), mat)


_SWEEPS = [
    lambda rho: composite_dissipative_sweep(rho, 0.7, 0.02),
    lambda rho: apply_hamiltonian_map(rho, 0.25, 0.004),
    lambda rho: apply_dissipative_map(rho, DissipativeMapSpec(3, 0.7, 0.02)),
]
_SWEEP_IDS = ["dissipative", "hamiltonian", "single-D"]


def _traced_peak(sweep, rho):
    """Peak traced bytes of one sweep of ``rho``, in dense states of its register."""
    sweep(rho)  # builds the cached pair channel and tile plans
    tracemalloc.start()
    try:
        out = sweep(rho)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.matrix.shape == rho.matrix.shape
    return peak / (16 * rho.layout.dim**2)


class TestSweepMemory:
    """A sweep or one pair map holds its input plus one working state: every
    pair is applied in place and the re-Hermitization is tiled.  The sector
    state is blocked, so its working state is a sector buffer and its
    validation is per block; a state with cross-sector coherence is dense,
    and its validation adds one Hermitian copy."""

    @pytest.mark.parametrize("sweep", _SWEEPS, ids=_SWEEP_IDS)
    def test_traced_peak_above_the_input(self, sweep):
        rho = _sector_mixed_state(np.random.default_rng(9), 9)
        assert rho.sectors is not None
        assert _traced_peak(sweep, rho) <= 1.5

    @pytest.mark.parametrize("sweep", _SWEEPS, ids=_SWEEP_IDS)
    def test_dense_traced_peak_above_the_input(self, sweep):
        rng = np.random.default_rng(10)
        g = rng.standard_normal((2**9, 3)) + 1j * rng.standard_normal((2**9, 3))
        rho = DensityOperator(qubit_register(9), g @ g.conj().T / np.linalg.norm(g) ** 2)
        assert rho.sectors is None
        assert _traced_peak(sweep, rho) <= 2.2


from spinmaps.register import hermitize  # noqa: E402


def dense_sweep(mat, channel, n, periodic):
    """Reference sweep of a numpy matrix: the tiled dense apply of ``channel``
    on every sweep pair in order, then the Hermitian part."""
    for ions in [(i, (i + 1) % n) for i in range(n if periodic else n - 1)]:
        mat = apply_local_superop(mat, channel.superop, ions, (2,) * n)
    return hermitize(mat)


class TestBlockedSweeps:
    """A blocked state is swept on its sector blocks, stays blocked and agrees
    with the tiled dense sweep of its numpy matrix."""

    @pytest.mark.parametrize("n", range(2, 9))
    @pytest.mark.parametrize("periodic", [False, True])
    def test_dissipative_sweep(self, blocked_and_dense, n, periodic):
        rng = np.random.default_rng(40 + n)
        blocked, reference = blocked_and_dense(rng, n)
        for theta in (0.5, pi / 2):
            for epsilon in (0.0, 0.02):
                out = composite_dissipative_sweep(blocked, theta, epsilon, periodic)
                channel = elementary_dissipative_map(DissipativeMapSpec(1, theta, epsilon))
                assert out.sectors is not None
                assert np.max(np.abs(out.matrix - dense_sweep(reference, channel, n, periodic))) <= 1e-12

    @pytest.mark.parametrize("n", range(2, 9))
    @pytest.mark.parametrize("periodic", [False, True])
    def test_hamiltonian_map(self, blocked_and_dense, n, periodic):
        rng = np.random.default_rng(50 + n)
        blocked, reference = blocked_and_dense(rng, n)
        for epsilon in (0.0, 0.004):
            out = apply_hamiltonian_map(blocked, 0.25 * pi, epsilon, periodic)
            channel = elementary_hamiltonian_map(0.25 * pi, epsilon)
            assert out.sectors is not None
            assert np.max(np.abs(out.matrix - dense_sweep(reference, channel, n, periodic))) <= 1e-12

    def test_sweep_leaves_the_blocked_input_untouched(self, blocked_and_dense):
        blocked, _ = blocked_and_dense(np.random.default_rng(60), 5)
        before = blocked.sectors.tobytes()
        out = composite_map(blocked, 0.7, 0.3, 0.02, 0.004)
        assert out.sectors is not blocked.sectors
        assert blocked.sectors.tobytes() == before

    def test_single_pair_map_of_a_blocked_state_is_blocked(self, blocked_and_dense):
        blocked, reference = blocked_and_dense(np.random.default_rng(61), 4)
        spec = DissipativeMapSpec(2, 0.5, 0.02)
        out = apply_dissipative_map(blocked, spec)
        expected = hermitize(apply_local_superop(reference, elementary_dissipative_map(spec).superop, (1, 2), (2,) * 4))
        assert out.sectors is not None
        assert np.max(np.abs(out.matrix - expected)) <= 1e-12
