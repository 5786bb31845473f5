import numpy as np
import pytest
from itertools import combinations
from math import comb

from spinmaps.observables import subspace_populations
from spinmaps.protocols import (
    SubspaceProjector,
    build_projector,
    postselect,
    qnd_unitary,
    stabilization_register,
    stabilize,
    stabilize_inject,
    stabilize_remove,
)
from spinmaps.register import (
    DensityOperator,
    RegisterError,
    basis_state,
    partial_trace,
    qubit_register,
    system_with_ancilla,
)
from spinmaps.observables import dicke_state


def qnd_register(n):
    """Qubit ancilla at index 0 followed by N system spins."""
    return system_with_ancilla(n, ancilla_dim=2)


def dm(vec):
    vec = np.asarray(vec, dtype=complex)
    vec = vec / np.linalg.norm(vec)
    return np.outer(vec, vec.conj())


def brute_force_projector(m, n):
    diag = [1.0 if bin(b).count("1") == m else 0.0 for b in range(2**n)]
    return np.diag(diag)


def with_ancilla(sys_mat, anc_level=1):
    anc = np.zeros((3, 3), dtype=complex)
    anc[anc_level, anc_level] = 1.0
    layout = stabilization_register(int(np.log2(sys_mat.shape[0])))
    return DensityOperator(layout, np.kron(anc, sys_mat))


def system_of(rho):
    return partial_trace(rho, [0])


def equal_superposition(n):
    return dm(np.ones(2**n))


class TestProjector:
    def test_three_spin_single_excitation_coefficients(self):
        p = build_projector(1, 3)
        assert p.alphas == (9 / 16, -9 / 16, -1 / 16, 1 / 16)

    def test_three_spin_double_excitation_coefficients(self):
        p = build_projector(2, 3)
        assert p.alphas == (9 / 16, 9 / 16, -1 / 16, -1 / 16)

    def test_sz_symmetry_relates_the_two(self):
        # exchanging up and down spins flips the sign of every odd power
        p1 = build_projector(1, 3).alphas
        p2 = build_projector(2, 3).alphas
        assert p2 == tuple(a * (-1) ** k for k, a in enumerate(p1))

    def test_vacuum_projector(self):
        p = build_projector(0, 4).matrix
        vac = basis_state(qubit_register(4), [0, 0, 0, 0]).vector
        assert np.allclose(p @ vac, vac)
        assert np.trace(p) == pytest.approx(1.0)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_brute_force_enumeration(self, n):
        for m in range(n + 1):
            built = build_projector(m, n).matrix
            assert np.max(np.abs(built - brute_force_projector(m, n))) <= 1e-12

    def test_polynomial_reproduces_matrix(self):
        # sum_k alpha_k S_z^k evaluated as a matrix equals the projector
        from spinmaps.register import PauliString, embed

        n, m = 4, 2
        lay = qubit_register(n)
        sz = sum(embed(PauliString(((i, "z"),)), lay) for i in range(n))
        p = build_projector(m, n)
        poly = sum(a * np.linalg.matrix_power(sz, k) for k, a in enumerate(p.alphas))
        assert np.max(np.abs(poly - p.matrix)) <= 1e-9

    def test_trace_counts_microstates(self):
        for n, m in [(5, 2), (8, 4)]:
            assert np.trace(build_projector(m, n).matrix) == pytest.approx(comb(n, m))

    def test_range_errors(self):
        with pytest.raises(RegisterError):
            build_projector(4, 3)
        assert build_projector(7, 14).diagonal.sum() == comb(14, 7)

    def test_idempotence_is_validated(self):
        with pytest.raises(RegisterError, match="idempotent"):
            SubspaceProjector(2, 1, (0.0,) * 3, np.array([0.5, 0.5, 0.0, 0.0]))

    def test_diagonal_shape_is_validated(self):
        with pytest.raises(RegisterError, match="shape"):
            SubspaceProjector(2, 1, (0.0,) * 3, np.diag([0.0, 1.0, 1.0, 0.0]))


class TestQndUnitary:
    def test_flips_ancilla_on_target_sector(self):
        n, m0 = 3, 1
        u = qnd_unitary(m0, n)
        lay = qnd_register(n)
        vec = np.kron([0, 1], basis_state(qubit_register(n), [0, 1, 0]).vector)
        out = u @ vec
        expected = -1j * np.kron([1, 0], basis_state(qubit_register(n), [0, 1, 0]).vector)
        assert np.allclose(out, expected, atol=1e-14)
        assert lay.dim == u.shape[0]

    def test_leaves_other_sectors_alone(self):
        u = qnd_unitary(1, 3)
        vec = np.kron([0, 1], basis_state(qubit_register(3), [1, 1, 0]).vector)
        assert np.allclose(u @ vec, vec, atol=1e-14)

    def test_square_is_minus_one_on_sector(self):
        n, m0 = 3, 2
        u = qnd_unitary(m0, n)
        p = build_projector(m0, n).matrix
        expected = np.kron(np.eye(2), np.eye(8) - p) - np.kron(np.eye(2), p)
        assert np.max(np.abs(u @ u - expected)) <= 1e-12

    def test_unitarity(self):
        u = qnd_unitary(2, 4)
        assert np.max(np.abs(u.conj().T @ u - np.eye(32))) <= 1e-12

    @pytest.mark.parametrize("m", range(4))
    def test_commutes_with_every_excitation_projector(self, m):
        u = qnd_unitary(1, 3)
        p = np.kron(np.eye(2), build_projector(m, 3).matrix)
        assert np.max(np.abs(u @ p - p @ u)) <= 1e-12


class TestPostselect:
    def test_target_sector_input_is_untouched(self):
        rho = dicke_state(2, 4).density()
        out, prob = postselect(rho, 2)
        assert prob == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(out.matrix, rho.matrix, atol=1e-12)

    def test_equal_superposition_success_fraction(self):
        rho = DensityOperator(qubit_register(3), equal_superposition(3))
        out, prob = postselect(rho, 1)
        assert prob == pytest.approx(3 / 8, abs=1e-12)
        # the surviving state is the single-excitation Dicke state
        d = dicke_state(1, 3).density()
        assert np.allclose(out.matrix, d.matrix, atol=1e-12)

    def test_zero_support_signals_failure(self):
        rho = basis_state(qubit_register(3), [0, 0, 0]).density()
        out, prob = postselect(rho, 2)
        assert out is None and prob == 0.0


class TestRemoval:
    def test_equal_superposition_populations(self):
        rho = with_ancilla(equal_superposition(3))
        out = system_of(stabilize_remove(rho, 1))
        assert np.allclose(
            subspace_populations(out), [1 / 8, 6 / 8, 1 / 8, 0.0], atol=1e-9
        )

    def test_triple_excitation_loses_exactly_one(self):
        rho = with_ancilla(dm(basis_state(qubit_register(3), [1, 1, 1]).vector))
        out = system_of(stabilize_remove(rho, 1))
        assert np.allclose(subspace_populations(out), [0, 0, 1, 0], atol=1e-12)

    def test_dark_state_input_is_fixed(self):
        d = dicke_state(1, 3).density()
        out = system_of(stabilize_remove(with_ancilla(d.matrix), 1))
        assert np.max(np.abs(out.matrix - d.matrix)) <= 1e-9

    def test_target_block_acts_as_identity_channel(self):
        # the protocol restricted to m0-supported inputs is the identity:
        # coherences inside the target subspace pass through exactly
        vec = np.zeros(8, dtype=complex)
        lay = qubit_register(3)
        vec[lay.index_of([0, 0, 1])] = 1 / np.sqrt(3)
        vec[lay.index_of([0, 1, 0])] = 1j / np.sqrt(3)
        vec[lay.index_of([1, 0, 0])] = -1 / np.sqrt(3)
        rho_sys = dm(vec)
        out = system_of(stabilize_remove(with_ancilla(rho_sys), 1))
        assert np.max(np.abs(out.matrix - rho_sys)) <= 1e-9

    def test_never_raises_populations_above_target(self):
        rng = np.random.default_rng(5)
        vec = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        rho = with_ancilla(dm(vec))
        before = subspace_populations(system_of(rho))
        after = subspace_populations(system_of(stabilize_remove(rho, 1)))
        for m in range(2, 4):
            assert after[m] <= before[m] + 1e-12

    def test_requires_qutrit_ancilla(self):
        lay = qubit_register(4)
        rho = basis_state(lay, [1, 0, 0, 0]).density()
        with pytest.raises(RegisterError):
            stabilize_remove(rho, 1)


class TestInjection:
    def test_vacuum_gains_excitation_at_first_site(self):
        rho = with_ancilla(dm(basis_state(qubit_register(3), [0, 0, 0]).vector))
        out = system_of(stabilize_inject(rho, 1))
        target = basis_state(qubit_register(3), [1, 0, 0]).density()
        assert np.max(np.abs(out.matrix - target.matrix)) <= 1e-9

    def test_dark_state_input_is_fixed(self):
        d = dicke_state(1, 3).density()
        out = system_of(stabilize_inject(with_ancilla(d.matrix), 1))
        assert np.max(np.abs(out.matrix - d.matrix)) <= 1e-9

    def test_moves_exactly_the_vacuum_weight(self):
        rho = with_ancilla(equal_superposition(3))
        out = system_of(stabilize_inject(rho, 1))
        assert np.allclose(
            subspace_populations(out), [0.0, 4 / 8, 3 / 8, 1 / 8], atol=1e-9
        )

    def test_never_raises_populations_below_target(self):
        rng = np.random.default_rng(6)
        vec = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        rho = with_ancilla(dm(vec))
        before = subspace_populations(system_of(rho))
        after = subspace_populations(system_of(stabilize_inject(rho, 2)))
        for m in range(2):
            assert after[m] <= before[m] + 1e-12


class TestStabilize:
    def test_target_sector_is_fixed_point(self):
        d = dicke_state(2, 3).density()
        out = system_of(stabilize(with_ancilla(d.matrix), 2))
        assert np.max(np.abs(out.matrix - d.matrix)) <= 1e-9

    def test_mixture_is_pumped_toward_target(self):
        lay = qubit_register(3)
        mixture = 0.5 * (
            basis_state(lay, [0, 0, 0]).density().matrix
            + basis_state(lay, [1, 1, 1]).density().matrix
        )
        out = system_of(stabilize(with_ancilla(mixture), 1))
        pops = subspace_populations(out)
        assert pops[0] == pytest.approx(0.0, abs=1e-12)
        assert pops[3] == pytest.approx(0.0, abs=1e-12)
        assert pops[1] + pops[2] == pytest.approx(1.0, abs=1e-9)

    def test_single_round_is_not_idempotent_from_far_sectors(self):
        # m = 3 needs two rounds to reach m0 = 1
        rho = with_ancilla(dm(basis_state(qubit_register(3), [1, 1, 1]).vector))
        once = stabilize(rho, 1)
        assert np.allclose(
            subspace_populations(system_of(once)), [0, 0, 1, 0], atol=1e-9
        )
        twice = stabilize(with_ancilla(system_of(once).matrix), 1)
        assert np.allclose(
            subspace_populations(system_of(twice)), [0, 1, 0, 0], atol=1e-9
        )

    def test_outputs_are_valid_states(self):
        rng = np.random.default_rng(7)
        vec = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        out = stabilize(with_ancilla(dm(vec)), 1)
        # DensityOperator construction validates Hermiticity/trace/positivity
        assert isinstance(out, DensityOperator)

    @pytest.mark.parametrize("n,m0", [(2, 1), (4, 2)])
    def test_other_sizes_pump_toward_target(self, n, m0):
        rho = with_ancilla(equal_superposition(n))
        out = system_of(stabilize(rho, m0))
        pops = subspace_populations(out)
        before = subspace_populations(
            DensityOperator(qubit_register(n), equal_superposition(n))
        )
        assert pops[m0] > before[m0]


class TestCascadeEdgeCases:
    def test_removal_to_empty_chain_reaches_last_site(self):
        # m0 = 0: an excitation parked at the last site must still be found
        rho = with_ancilla(dm(basis_state(qubit_register(3), [0, 0, 1]).vector))
        out = system_of(stabilize_remove(rho, 0))
        assert np.allclose(subspace_populations(out), [1, 0, 0, 0], atol=1e-9)

    def test_injection_to_full_chain_reaches_last_site(self):
        # m0 = N: the only hole sits at the last site
        rho = with_ancilla(dm(basis_state(qubit_register(3), [1, 1, 0]).vector))
        out = system_of(stabilize_inject(rho, 3))
        assert np.allclose(subspace_populations(out), [0, 0, 0, 1], atol=1e-9)


class TestStabilizeIsRemoveThenInject:
    @pytest.mark.parametrize("n", range(2, 5))
    def test_exact_on_random_states(self, n):
        rng = np.random.default_rng(40 + n)
        d = 3 * 2**n
        for m0 in range(n + 1):
            a = rng.normal(size=(d, 4)) + 1j * rng.normal(size=(d, 4))
            mat = a @ a.conj().T
            rho = DensityOperator(stabilization_register(n), mat / np.trace(mat).real)
            expected = stabilize_inject(stabilize_remove(rho, m0), m0)
            assert np.array_equal(stabilize(rho, m0).matrix, expected.matrix)


from spinmaps.channels import park_kraus_ops, pump_kraus_ops  # noqa: E402
from spinmaps.protocols import _cascade_sites, _kraus_paths  # noqa: E402
from spinmaps.register import embed_operator, excitation_numbers  # noqa: E402

# The detector's exp(-i pi/2 X) on the qubit block of the qutrit ancilla and
# the pi pulse; the half-round applies them, and the swap, as relabellings.
_DETECT_GATE = np.array([[0, -1j, 0], [-1j, 0, 0], [0, 0, 1]], dtype=complex)
_ANCILLA_PI = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=complex)


def _swap_gate():
    """Flip-flop pi-pulse on (qutrit ancilla, qubit site):
    |0,1> <-> -i |1,0>, everything else fixed."""
    u = np.eye(6, dtype=complex)
    u[1, 1] = u[2, 2] = 0.0
    u[2, 1] = u[1, 2] = -1j
    return u


def dense_half_round(mat, n, m0, removing):
    """Removal or injection as dense sum_k K rho K^dag over register-sized Kraus operators."""
    dims = stabilization_register(n).ion_dims

    def channel(mat, kraus, sites):
        ops = [embed_operator(k, sites, dims) for k in kraus]
        return sum(k @ mat @ k.conj().T for k in ops)

    counts = excitation_numbers(n)
    flags = counts > m0 if removing else counts < m0
    detector = np.zeros((3 * 2**n,) * 2, dtype=complex)
    for b, flag in enumerate(flags):
        gate = _DETECT_GATE if flag else np.eye(3)
        detector[b::2**n, b::2**n] = gate
    park = park_kraus_ops(1 if removing else 0)
    if not removing:
        mat = channel(mat, (_ANCILLA_PI,), (0,))
    mat = channel(detector @ mat @ detector.conj().T, park, (0,))
    for site in _cascade_sites(n, m0, removing):
        mat = channel(channel(mat, (_swap_gate(),), (0, site)), park, (0,))
    return channel(mat, pump_kraus_ops(3, 1), (0,))


class TestFoldedStabilizationGates:
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("removing", [True, False])
    def test_half_rounds_match_dense_kraus_sums(self, n, removing):
        rng = np.random.default_rng(60 + n)
        d = 3 * 2**n
        half = stabilize_remove if removing else stabilize_inject
        for m0 in range(n + 1):
            a = rng.normal(size=(d, 3)) + 1j * rng.normal(size=(d, 3))
            mat = a @ a.conj().T
            rho = DensityOperator(stabilization_register(n), mat / np.trace(mat).real)
            expected = dense_half_round(rho.matrix, n, m0, removing)
            assert np.max(np.abs(half(rho, m0).matrix - expected)) <= 1e-12

    @pytest.mark.parametrize("removing", [True, False])
    def test_kraus_paths_are_cached_read_only(self, removing):
        first = _kraus_paths(4, 2, removing)
        again = _kraus_paths(4, 2, removing)
        assert all(a is b for a, b in zip(first, again))
        assert not any(a.flags.writeable for a in first)
        assert _kraus_paths(4, 1, removing)[0] is not first[0]
        for _ in range(2):
            with pytest.raises(RegisterError, match="m0 5 out of range for N=4"):
                _kraus_paths(4, 5, removing)


from spinmaps.cli import dump_state, load_state, parse_config_text, run_steps  # noqa: E402
from spinmaps.protocols import stabilize_system  # noqa: E402


def random_mixed(rng, d, rank):
    a = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
    mat = a @ a.conj().T
    return mat / np.trace(mat).real


def dense_system_half(sys_mat, m0, removing):
    """partial_trace(dense_half_round(|1><1| (x) rho)) on the system."""
    n = int(np.log2(sys_mat.shape[0]))
    out = dense_half_round(with_ancilla(sys_mat).matrix, n, m0, removing)
    return system_of(DensityOperator(stabilization_register(n), out)).matrix


class TestSystemStabilizationSteps:
    """The REMOVE, INJECT and STAB steps of ``run_steps`` relabel the system
    state's basis states; they equal the dense register Kraus sums traced
    over the ancilla."""

    @pytest.mark.parametrize("n", range(2, 7))
    def test_run_steps_match_dense_oracle(self, n, tmp_path):
        rng = np.random.default_rng(80 + n)
        for m0 in range(n + 1):
            path = tmp_path / f"rho_{m0}.json"
            dump_state(DensityOperator(qubit_register(n), random_mixed(rng, 2**n, 3)), path)
            config = parse_config_text(
                f"N = {n}\nm0 = {m0}\ninitial = file:{path}\n"
                f"schedule {{ REMOVE {m0}; INJECT {m0}; STAB {m0} }}\n"
            )
            prev = load_state(path).matrix
            halves = [(True,), (False,), (True, False)]
            for (_, rho), steps in zip(run_steps(config), halves):
                expected = prev
                for removing in steps:
                    expected = dense_system_half(expected, m0, removing)
                assert np.max(np.abs(rho.matrix - expected)) <= 1e-12
                prev = rho.matrix

    def test_requires_a_system_register(self):
        rho = with_ancilla(equal_superposition(2))
        with pytest.raises(RegisterError):
            stabilize_system(rho, 1, removing=True)

    def test_m0_range_is_checked(self):
        rho = DensityOperator(qubit_register(2), equal_superposition(2))
        with pytest.raises(RegisterError):
            stabilize_system(rho, 3, removing=False)


class TestBlockedStabilization:
    """``stabilize_system`` relabels the stored blocks of a sector-diagonal
    state, so its output is blocked; it agrees with the dense register Kraus
    sums, and beyond their reach with the qutrit-register half-round, whose
    state is dense."""

    @pytest.mark.parametrize("n", range(2, 9))
    def test_both_halves_keep_random_blocked_states_blocked(self, blocked_and_dense, n):
        rng = np.random.default_rng(110 + n)
        for m0 in range(n + 1):
            blocked, reference = blocked_and_dense(rng, n)
            for removing in (True, False):
                out = stabilize_system(blocked, m0, removing)
                assert out.sectors is not None
                if n <= 6:
                    expected = dense_system_half(reference, m0, removing)
                else:
                    half = stabilize_remove if removing else stabilize_inject
                    register = half(with_ancilla(reference), m0)
                    assert register.sectors is None
                    expected = system_of(register).matrix
                assert np.max(np.abs(out.matrix - expected)) <= 1e-12


class TestInputsAreNotWritten:
    @pytest.mark.parametrize("n", range(2, 6))
    def test_half_rounds_leave_their_input_unchanged(self, n):
        rng = np.random.default_rng(100 + n)
        for m0 in range(n + 1):
            reg = random_mixed(rng, 3 * 2**n, 3)  # every ancilla block nonzero, (2, 2) too
            sys_mat = random_mixed(rng, 2**n, 3)
            calls = [(half, DensityOperator(stabilization_register(n), reg), ())
                     for half in (stabilize_remove, stabilize_inject)]
            calls += [(stabilize_system, DensityOperator(qubit_register(n), sys_mat), (removing,))
                      for removing in (True, False)]
            for half, rho, args in calls:
                before = rho.matrix.tobytes()
                half(rho, m0, *args)
                assert rho.matrix.tobytes() == before


class TestBlockedPostselect:
    """QND post-selection returns one sector, so its output is blocked from
    either input form; both agree with the numpy projection of the matrix."""

    @pytest.mark.parametrize("n", range(2, 9))
    def test_both_forms_agree_with_the_dense_projection(self, blocked_and_dense, n):
        rng = np.random.default_rng(90 + n)
        blocked, reference = blocked_and_dense(rng, n)
        coherent = 0.5 * reference + 0.5 * equal_superposition(n)  # cross-sector entries
        dense = DensityOperator(qubit_register(n), coherent)
        assert dense.sectors is None
        for rho, mat in ((blocked, reference), (dense, coherent)):
            for m0 in range(n + 1):
                p = build_projector(m0, n).diagonal
                projected = p[:, None] * mat * p[None, :]
                weight = np.trace(projected).real
                out, prob = postselect(rho, m0)
                assert out.sectors is not None
                assert abs(prob - weight) <= 1e-12
                assert np.max(np.abs(out.matrix - projected / weight)) <= 1e-12

    def test_equal_superposition_gives_a_blocked_dicke_state(self):
        out, prob = postselect(DensityOperator(qubit_register(3), equal_superposition(3)), 1)
        assert out.sectors is not None
        assert np.max(np.abs(out.matrix - dicke_state(1, 3).density().matrix)) <= 1e-15

    def test_out_of_range_sector_has_no_support(self, blocked_and_dense):
        blocked, _ = blocked_and_dense(np.random.default_rng(99), 3)
        assert postselect(blocked, 4) == (None, 0.0)
