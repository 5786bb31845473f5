import numpy as np
import pytest
from itertools import product
from math import pi

from spinmaps.channels import (
    Channel,
    ChannelError,
    apply,
    apply_embedded,
    choi,
    choi_distance,
    compose,
    depolarizing_channel,
    mean_state_fidelity,
    mix,
    park_channel,
    process_fidelity,
    reset_channel,
    trace_distance,
    uhlmann_fidelity,
    unitary_channel,
)
from spinmaps.maps import DissipativeMapSpec, elementary_dissipative_map
from spinmaps.register import (
    DensityOperator,
    PureState,
    RegisterLayout,
    basis_state,
    qubit_register,
    system_with_ancilla,
)


def identity_channel(layout):
    return unitary_channel(layout, np.eye(layout.dim))


def pauli_eigenstate_products(layout):
    """All products of single-qubit X/Y/Z eigenstates (6^n states).

    For two qubits this is the 36-state probe ensemble used to quote mean
    state fidelities of noisy maps.
    """
    s = np.sqrt(0.5)
    single = [
        np.array([1, 0], dtype=complex),        # z-down
        np.array([0, 1], dtype=complex),        # z-up
        np.array([s, s], dtype=complex),        # x+
        np.array([s, -s], dtype=complex),       # x-
        np.array([s, 1j * s], dtype=complex),   # y+
        np.array([s, -1j * s], dtype=complex),  # y-
    ]
    states = []
    for combo in product(single, repeat=layout.n_ions):
        vec = np.array([1.0], dtype=complex)
        for factor in combo:
            vec = np.kron(vec, factor)
        states.append(PureState(layout, vec).density())
    return states


def dm(vec):
    vec = np.asarray(vec, dtype=complex)
    vec = vec / np.linalg.norm(vec)
    return np.outer(vec, vec.conj())


def random_channel(layout, n_kraus, seed):
    """CPTP channel from a randomized isometry (deterministic per seed)."""
    rng = np.random.default_rng(seed)
    d = layout.dim
    ops = [
        rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        for _ in range(n_kraus)
    ]
    total = sum(k.conj().T @ k for k in ops)
    vals, vecs = np.linalg.eigh(total)
    inv_sqrt = (vecs * (1 / np.sqrt(vals))) @ vecs.conj().T
    return Channel(layout, tuple(k @ inv_sqrt for k in ops))


class TestApply:
    def test_identity_channel(self):
        lay = qubit_register(2)
        rho = DensityOperator(lay, dm([0.3, 0.5, 0.7, 0.1j]))
        assert np.allclose(apply(identity_channel(lay), rho).matrix, rho.matrix)

    def test_fully_depolarizing_single_qubit(self):
        lay = qubit_register(1)
        ch = depolarizing_channel(lay, (0,))
        for vec in ([1, 0], [0.6, 0.8], [1, 1j]):
            rho = DensityOperator(lay, dm(vec))
            assert np.allclose(apply(ch, rho).matrix, np.eye(2) / 2, atol=1e-12)

    def test_singlet_pumped_to_triplet(self):
        ch = elementary_dissipative_map(DissipativeMapSpec(1))
        singlet = dm([0, 1, -1, 0])
        rho = DensityOperator(qubit_register(2), singlet)
        assert np.allclose(apply(ch, rho).matrix, dm([0, 1, 1, 0]), atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ChannelError):
            apply(identity_channel(qubit_register(1)),
                  basis_state(qubit_register(2), [0, 0]).density())

    def test_embedded_application_matches_dense(self):
        lay = qubit_register(3)
        pair = random_channel(qubit_register(2), 3, seed=11)
        rho = DensityOperator(lay, dm(np.arange(1, 9)))
        out = apply_embedded(pair, rho, (1, 2))
        dense_ops = tuple(np.kron(np.eye(2), k) for k in pair.kraus_ops)
        dense = Channel(lay, dense_ops)
        assert np.allclose(out.matrix, apply(dense, rho).matrix, atol=1e-12)

    def test_completeness_is_enforced(self):
        with pytest.raises(ChannelError):
            Channel(qubit_register(1), (np.eye(2) * 0.5,))


class TestMix:
    def test_degenerate_weights_return_first(self):
        lay = qubit_register(1)
        a = random_channel(lay, 2, seed=1)
        b = random_channel(lay, 2, seed=2)
        mixed = mix([a, b], [1.0, 0.0])
        assert choi_distance(choi(mixed), choi(a)) <= 1e-12

    def test_choi_linearity(self):
        lay = qubit_register(1)
        a = random_channel(lay, 2, seed=3)
        b = random_channel(lay, 3, seed=4)
        w = 0.37
        mixed = mix([a, b], [w, 1 - w])
        expected = w * choi(a).matrix + (1 - w) * choi(b).matrix
        assert np.max(np.abs(choi(mixed).matrix - expected)) <= 1e-12

    def test_self_mixture_is_identity_operation(self):
        lay = qubit_register(1)
        a = random_channel(lay, 2, seed=5)
        mixed = mix([a, a], [0.5, 0.5])
        assert choi_distance(choi(mixed), choi(a)) <= 1e-12

    def test_negative_weight_rejected(self):
        lay = qubit_register(1)
        a = identity_channel(lay)
        with pytest.raises(ChannelError):
            mix([a, a], [1.5, -0.5])

    def test_noisy_map_is_paper_mixture(self):
        # chi_diss(eps) = (1 - eps) chi_id + eps chi_Pi at the Choi level
        eps = 0.27
        ideal = elementary_dissipative_map(DissipativeMapSpec(1))
        noisy = elementary_dissipative_map(DissipativeMapSpec(1, epsilon=eps))
        double_dep = depolarizing_channel(qubit_register(2), (0, 1))
        expected = (1 - eps) * choi(ideal).matrix + eps * choi(double_dep).matrix
        assert np.max(np.abs(choi(noisy).matrix - expected)) <= 1e-12


class TestReset:
    def test_pumps_ground_to_excited(self):
        lay = system_with_ancilla(1, ancilla_dim=2)
        rho = basis_state(lay, [0, 1]).density()
        out = apply_embedded(reset_channel(RegisterLayout((2,)), 0, 1), rho, (0,))
        assert np.allclose(out.matrix, basis_state(lay, [1, 1]).density().matrix)

    def test_destroys_branch_coherence(self):
        # (|0>_a psi0 + |1>_a psi1)/sqrt(2) -> |1><1| (x) (P0 + P1)/2
        lay = system_with_ancilla(2, ancilla_dim=2)
        psi0 = np.array([1, 0, 0, 1j]) / np.sqrt(2)
        psi1 = np.array([0, 1, 1, 0]) / np.sqrt(2)
        vec = (np.kron([1, 0], psi0) + np.kron([0, 1], psi1)) / np.sqrt(2)
        rho = DensityOperator(lay, np.outer(vec, vec.conj()))
        out = apply_embedded(reset_channel(RegisterLayout((2,)), 0, 1), rho, (0,))
        mixture = (np.outer(psi0, psi0.conj()) + np.outer(psi1, psi1.conj())) / 2
        expected = np.kron(np.diag([0.0, 1.0]), mixture)
        assert np.allclose(out.matrix, expected, atol=1e-12)

    def test_noop_when_already_reset(self):
        lay = system_with_ancilla(1, ancilla_dim=2)
        rho = basis_state(lay, [1, 0]).density()
        out = apply_embedded(reset_channel(RegisterLayout((2,)), 0, 1), rho, (0,))
        assert np.allclose(out.matrix, rho.matrix)

    def test_idempotent_as_channel(self):
        lay = RegisterLayout((3,), ancilla_index=0)
        ch = reset_channel(lay, 0, target_level=1)
        twice = compose(ch, ch)
        assert choi_distance(choi(twice), choi(ch)) <= 1e-12


class TestParking:
    def test_moves_source_level(self):
        lay = RegisterLayout((3,), ancilla_index=0)
        rho = basis_state(lay, [1]).density()
        out = apply_embedded(park_channel(lay, 0, source_level=1), rho, (0,))
        assert np.allclose(out.matrix, np.diag([0, 0, 1.0]))

    def test_accumulates_on_existing_parking_population(self):
        lay = RegisterLayout((3,), ancilla_index=0)
        rho = DensityOperator(lay, np.diag([0.2, 0.3, 0.5]).astype(complex))
        out = apply_embedded(park_channel(lay, 0, source_level=0), rho, (0,))
        assert np.allclose(out.matrix, np.diag([0.0, 0.3, 0.7]), atol=1e-12)

    def test_idempotent_as_channel(self):
        lay = RegisterLayout((3,), ancilla_index=0)
        ch = park_channel(lay, 0, source_level=1)
        assert choi_distance(choi(compose(ch, ch)), choi(ch)) <= 1e-12

    def test_requires_qutrit(self):
        lay = qubit_register(1)
        rho = basis_state(lay, [0]).density()
        with pytest.raises(ChannelError):
            apply_embedded(park_channel(RegisterLayout((3,)), 0, source_level=0), rho, (0,))


class TestChoiAndFidelities:
    def test_identity_choi_is_maximally_entangled_state(self):
        lay = qubit_register(1)
        c = choi(identity_channel(lay)).matrix
        phi = np.array([1, 0, 0, 1]) / np.sqrt(2)
        assert np.allclose(c, np.outer(phi, phi.conj()), atol=1e-14)

    @pytest.mark.parametrize("dims,n_kraus", [((2,), 1), ((2,), 3), ((2, 2), 4), ((3, 2), 2)])
    def test_choi_is_the_outer_product_sum_bitwise(self, dims, n_kraus):
        ch = random_channel(RegisterLayout(dims), n_kraus, seed=n_kraus)
        d = ch.dim
        mat = np.zeros((d * d, d * d), dtype=complex)
        for k in ch.kraus_ops:
            mat += np.outer(k.reshape(-1), k.reshape(-1).conj())
        assert choi(ch).matrix.tobytes() == (mat / d).tobytes()

    def test_process_fidelity_of_identical_channels(self):
        ch = elementary_dissipative_map(DissipativeMapSpec(1))
        assert process_fidelity(choi(ch), choi(ch)) == pytest.approx(1.0, abs=1e-10)

    def test_unitary_vs_fully_depolarizing_two_qubits(self):
        lay = qubit_register(2)
        dep = depolarizing_channel(lay, (0, 1))
        assert np.allclose(choi(dep).matrix, np.eye(16) / 16, atol=1e-14)
        u = unitary_channel(lay, np.diag([1, 1j, -1, -1j]).astype(complex))
        assert process_fidelity(choi(u), choi(dep)) == pytest.approx(1 / 16, abs=1e-10)

    def test_uhlmann_extremes(self):
        lay = qubit_register(1)
        zero = basis_state(lay, [0]).density()
        one = basis_state(lay, [1]).density()
        assert uhlmann_fidelity(zero, one) == pytest.approx(0.0, abs=1e-12)
        assert uhlmann_fidelity(zero, zero) == pytest.approx(1.0, abs=1e-12)

    def test_trace_distance(self):
        lay = qubit_register(1)
        zero = basis_state(lay, [0]).density()
        one = basis_state(lay, [1]).density()
        assert trace_distance(zero, one) == pytest.approx(1.0, abs=1e-12)
        assert trace_distance(zero, zero) == pytest.approx(0.0, abs=1e-12)

    def test_noise_strength_orders_process_fidelity(self):
        ideal = choi(elementary_dissipative_map(DissipativeMapSpec(1)))
        fids = []
        for eps in np.arange(0.0, 1.01, 0.1):
            noisy = elementary_dissipative_map(DissipativeMapSpec(1, epsilon=float(eps)))
            fids.append(process_fidelity(choi(noisy), ideal))
        assert all(a > b for a, b in zip(fids, fids[1:]))


class TestMeanStateFidelity:
    def test_probe_set_size(self):
        assert len(pauli_eigenstate_products(qubit_register(2))) == 36

    def test_identical_channels_score_one(self):
        ch = elementary_dissipative_map(DissipativeMapSpec(1))
        probes = pauli_eigenstate_products(qubit_register(2))[:6]
        assert mean_state_fidelity(ch, ch, probes) == pytest.approx(1.0, abs=1e-10)

    def test_full_noise_on_bell_like_inputs(self):
        ideal = elementary_dissipative_map(DissipativeMapSpec(1))
        ruined = elementary_dissipative_map(DissipativeMapSpec(1, epsilon=1.0))
        lay = qubit_register(2)
        bells = [
            DensityOperator(lay, dm([1, 0, 0, 1])),
            DensityOperator(lay, dm([0, 1, 1, 0])),
            DensityOperator(lay, dm([0, 1, -1, 0])),
        ]
        assert mean_state_fidelity(ruined, ideal, bells) < 1.0

    def test_fitted_noise_regression_value(self):
        # regression pin: frozen output of this implementation over the 36
        # Pauli-eigenstate products at the fitted noise strength; there is
        # no closed-form oracle for this model value
        ideal = elementary_dissipative_map(DissipativeMapSpec(1))
        noisy = elementary_dissipative_map(DissipativeMapSpec(1, epsilon=0.27))
        probes = pauli_eigenstate_products(qubit_register(2))
        value = mean_state_fidelity(noisy, ideal, probes)
        assert value == pytest.approx(0.8469343045339278, abs=1e-9)

    def test_monotone_in_noise_strength(self):
        ideal = elementary_dissipative_map(DissipativeMapSpec(1))
        probes = pauli_eigenstate_products(qubit_register(2))
        vals = [
            mean_state_fidelity(
                elementary_dissipative_map(DissipativeMapSpec(1, epsilon=eps)),
                ideal,
                probes,
            )
            for eps in (0.0, 0.27, 0.5, 1.0)
        ]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_empty_probe_set_rejected(self):
        ch = elementary_dissipative_map(DissipativeMapSpec(1))
        with pytest.raises(ChannelError):
            mean_state_fidelity(ch, ch, [])


from spinmaps.channels import pump_kraus_ops  # noqa: E402


class TestResetLevelRange:
    @pytest.mark.parametrize("level", [-1, 3])
    def test_reset_ancilla_rejects_level_outside_qutrit(self, level):
        rho = basis_state(system_with_ancilla(2), [0, 1, 0]).density()
        with pytest.raises(ChannelError, match="target level"):
            apply_embedded(reset_channel(RegisterLayout((3,)), 0, level), rho, (0,))

    @pytest.mark.parametrize("dim,level", [(2, -1), (2, 2), (3, -1), (3, 3)])
    def test_pump_kraus_ops_rejects_level(self, dim, level):
        with pytest.raises(ChannelError, match="target level"):
            pump_kraus_ops(dim, level)

    def test_reset_channel_still_rejects_level(self):
        with pytest.raises(ChannelError, match="target level"):
            reset_channel(qubit_register(2), 0, target_level=2)


from spinmaps.channels import ChoiMatrix  # noqa: E402
from spinmaps.register import RegisterError  # noqa: E402


class TestNaNRejected:
    def test_channel_with_nan_kraus_operator(self):
        with pytest.raises(ChannelError):
            Channel(qubit_register(1), (np.full((2, 2), np.nan),))

    def test_choi_matrix_of_nan(self):
        with pytest.raises(ChannelError):
            ChoiMatrix(np.full((4, 4), np.nan), 2)


class TestBuilderSiteChecks:
    @pytest.mark.parametrize("build", [
        lambda: reset_channel(qubit_register(2), 5),
        lambda: park_channel(RegisterLayout((3, 2)), 5, 1),
        lambda: depolarizing_channel(qubit_register(2), (5,)),
    ])
    def test_out_of_range_ion_is_a_register_error(self, build):
        with pytest.raises(RegisterError, match="distinct ions"):
            build()
