import numpy as np
import pytest
from math import pi
from scipy.linalg import expm

from spinmaps.channels import Channel, apply, choi, process_fidelity, unitary_channel
from spinmaps.gateset import (
    Pulse,
    PulseSequence,
    SequenceSyntaxError,
    UnitaryModeError,
    ms_unitary,
    parse_sequence,
    pauli_exp,
    rotation_unitary,
    sequence_channel,
    sequence_unitary,
    serialize_sequence,
    sz_unitary,
)
from spinmaps.register import (
    DensityOperator,
    PauliString,
    RegisterError,
    RegisterLayout,
    basis_state,
    qubit_register,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, 1j], [-1j, 0]], dtype=complex)
SZ = np.diag([-1.0, 1.0]).astype(complex)


def dm(vec):
    vec = np.asarray(vec, dtype=complex)
    vec = vec / np.linalg.norm(vec)
    return np.outer(vec, vec.conj())


def assert_same_state(actual, expected_vec, atol=1e-12):
    assert np.allclose(actual.matrix, dm(expected_vec), atol=atol)


class TestCollectiveRotation:
    def test_pi_flop_inverts_population(self):
        rho = basis_state(qubit_register(1), [0]).density()
        out = apply(unitary_channel(rho.layout, rotation_unitary(rho.layout, 1.0, 0.0)), rho)
        assert_same_state(out, [0, 1])

    def test_zero_angle_is_identity(self):
        rho = basis_state(qubit_register(2), [1, 0]).density()
        out = apply(unitary_channel(rho.layout, rotation_unitary(rho.layout, 0.0, 0.3)), rho)
        assert np.allclose(out.matrix, rho.matrix)

    def test_half_rotation_matches_exponential_oracle(self):
        # R(0.5, 0) |0> = (|0> - i|1>)/sqrt(2) via the 2x2 matrix exponential
        u = expm(-1j * 0.5 * pi / 2 * SX)
        expected = u @ np.array([1, 0])
        rho = basis_state(qubit_register(1), [0]).density()
        out = apply(unitary_channel(rho.layout, rotation_unitary(rho.layout, 0.5, 0.0)), rho)
        assert_same_state(out, expected)
        assert np.allclose(expected, np.array([1, -1j]) / np.sqrt(2))

    @pytest.mark.parametrize("theta,phi", [(0.3, 0.1), (1.2, 0.7), (0.5, -0.5)])
    def test_matches_expm_on_two_ions(self, theta, phi):
        lay = qubit_register(2)
        axis = np.cos(phi * pi) * SX + np.sin(phi * pi) * SY
        gen = np.kron(axis, np.eye(2)) + np.kron(np.eye(2), axis)
        assert np.allclose(
            rotation_unitary(lay, theta, phi), expm(-1j * theta * pi / 2 * gen), atol=1e-12
        )

    def test_mask_skips_decoupled_ions(self):
        lay = qubit_register(2)
        rho = basis_state(lay, [0, 0]).density()
        u = rotation_unitary(lay, 1.0, 0.0, active_mask=frozenset({0}))
        out = apply(unitary_channel(lay, u), rho)
        assert_same_state(out, np.kron([0, 1], [1, 0]))


class TestAddressedZ:
    def test_full_period_is_identity_channel(self):
        rho = basis_state(qubit_register(1), [0]).density()
        rho = apply(unitary_channel(rho.layout, rotation_unitary(rho.layout, 0.5, 0.0)), rho)
        out = apply(unitary_channel(rho.layout, sz_unitary(rho.layout, 2.0, 0)), rho)
        assert np.allclose(out.matrix, rho.matrix, atol=1e-12)

    def test_pi_pulse_flips_superposition_phase(self):
        plus = dm([1, 1])
        rho = DensityOperator(qubit_register(1), plus)
        out = apply(unitary_channel(rho.layout, sz_unitary(rho.layout, 1.0, 0)), rho)
        assert np.allclose(out.matrix, dm([1, -1]), atol=1e-12)

    def test_zero_angle_identity(self):
        rho = basis_state(qubit_register(2), [1, 0]).density()
        out = apply(unitary_channel(rho.layout, sz_unitary(rho.layout, 0.0, 1)), rho)
        assert np.allclose(out.matrix, rho.matrix)

    def test_matches_diagonal_exponential(self):
        lay = qubit_register(1)
        rho = DensityOperator(lay, dm([0.6, 0.8j]))
        u = expm(-1j * 0.73 * pi / 2 * SZ)
        out = apply(unitary_channel(rho.layout, sz_unitary(rho.layout, 0.73, 0)), rho)
        assert np.allclose(out.matrix, u @ rho.matrix @ u.conj().T, atol=1e-12)


class TestMolmerSorensen:
    def test_fully_entangling_gate_makes_ghz(self):
        lay = qubit_register(2)
        rho = basis_state(lay, [0, 0]).density()
        out = apply(unitary_channel(rho.layout, ms_unitary(rho.layout, 0.5, 0.0)), rho)
        assert_same_state(out, np.array([1, 0, 0, -1j]) / np.sqrt(2))

    def test_matches_expm_oracle(self):
        lay = qubit_register(2)
        s = np.kron(SX, np.eye(2)) + np.kron(np.eye(2), SX)
        u_oracle = expm(-1j * 0.5 * pi / 4 * s @ s)
        assert np.allclose(ms_unitary(lay, 0.5, 0.0), u_oracle, atol=1e-12)

    def test_zero_angle_identity(self):
        rho = basis_state(qubit_register(3), [1, 0, 1]).density()
        out = apply(unitary_channel(rho.layout, ms_unitary(rho.layout, 0.0, 0.7)), rho)
        assert np.allclose(out.matrix, rho.matrix)

    def test_two_ion_full_period_is_identity_channel(self):
        # S_phi^2 eigenvalues {0, 4} make MS(2, phi) a global phase
        lay = qubit_register(2)
        rho = DensityOperator(lay, dm([0.5, 0.5, 0.5, 0.5]))
        out = apply(unitary_channel(rho.layout, ms_unitary(rho.layout, 2.0, 0.25)), rho)
        assert np.allclose(out.matrix, rho.matrix, atol=1e-12)

    def test_single_active_qubit_is_identity_channel(self):
        lay = qubit_register(2)
        rho = DensityOperator(lay, dm([0.2, 0.4, 0.7, 0.55]))
        u = ms_unitary(lay, 0.5, 0.0, active_mask=frozenset({0}))
        out = apply(unitary_channel(lay, u), rho)
        assert np.allclose(out.matrix, rho.matrix, atol=1e-12)

    def test_single_active_qutrit_fixes_parked_incoherent_states(self):
        lay = RegisterLayout((3,), ancilla_index=0)
        mat = np.diag([0.3, 0.3, 0.0]).astype(complex)
        mat[0, 1] = mat[1, 0] = 0.25
        mat[2, 2] = 0.4
        rho = DensityOperator(lay, mat)
        u = ms_unitary(lay, 0.5, 0.0, active_mask=frozenset({0}))
        out = apply(unitary_channel(lay, u), rho)
        assert np.allclose(out.matrix, rho.matrix, atol=1e-12)

    def test_negative_angle_identity_up_to_local_rotations(self):
        # MS(1 - theta, phi) equals R(1, phi) composed with MS(-theta, phi)
        # as a channel, for even ion numbers
        lay = qubit_register(2)
        for theta in (0.25, 0.5):
            for phi in (0.0, 0.3):
                u_a = ms_unitary(lay, 1.0 - theta, phi)
                u_b = rotation_unitary(lay, 1.0, phi) @ ms_unitary(lay, -theta, phi)
                overlap = abs(np.trace(u_a.conj().T @ u_b)) / 4
                assert overlap == pytest.approx(1.0, abs=1e-12)


class TestPauliExp:
    def test_zero_angle_identity(self):
        rho = basis_state(qubit_register(2), [0, 1]).density()
        out = pauli_exp(rho, PauliString(((0, "x"), (1, "x"))), 0.0)
        assert np.allclose(out.matrix, rho.matrix)

    def test_xx_quarter_turn_equals_fully_entangling_gate(self):
        lay = qubit_register(2)
        rho = basis_state(lay, [0, 0]).density()
        out = pauli_exp(rho, PauliString(((0, "x"), (1, "x"))), pi / 4)
        assert_same_state(out, np.array([1, 0, 0, -1j]) / np.sqrt(2))

    def test_flip_flop_half_turn(self):
        # exp(-i pi/2 (s0+ s1- + s0- s1+)): |01> -> -i|10>, fixes |00>, |11>,
        # built from the two commuting Hermitian halves (XX + YY)/2
        lay = qubit_register(2)

        def flip_flop(state):
            out = pauli_exp(state, PauliString(((0, "x"), (1, "x")), 0.5), pi / 2)
            return pauli_exp(out, PauliString(((0, "y"), (1, "y")), 0.5), pi / 2)

        vec01 = np.array([0, 1, 0, 0], dtype=complex)
        rho = DensityOperator(lay, np.outer(vec01, vec01))
        assert np.allclose(flip_flop(rho).matrix, dm([0, 0, 1, 0]), atol=1e-12)
        # phases: check on a superposition that |01> picks up exactly -i
        sup = DensityOperator(lay, dm([1, 1, 0, 0]))
        assert np.allclose(flip_flop(sup).matrix, dm([1, 0, -1j, 0]), atol=1e-12)
        for occ in ([0, 0], [1, 1]):
            fixed = basis_state(lay, occ).density()
            assert np.allclose(flip_flop(fixed).matrix, fixed.matrix, atol=1e-12)

    def test_rejects_non_hermitian_string(self):
        rho = basis_state(qubit_register(1), [0]).density()
        with pytest.raises(RegisterError):
            pauli_exp(rho, PauliString(((0, "+"),)), 0.3)


class TestPulsePreservation:
    @pytest.mark.parametrize(
        "apply_fn",
        [
            lambda rho: apply(
                unitary_channel(rho.layout, rotation_unitary(rho.layout, 0.37, 0.21)), rho),
            lambda rho: apply(unitary_channel(rho.layout, sz_unitary(rho.layout, 1.13, 1)), rho),
            lambda rho: apply(unitary_channel(rho.layout, ms_unitary(rho.layout, 0.45, 0.8)), rho),
        ],
    )
    def test_trace_and_purity_preserved(self, apply_fn):
        vec = np.array([0.2, -0.4j, 0.5, 0.3 + 0.1j, 0.6, 0.1, 0.2j, 0.25])
        rho = DensityOperator(qubit_register(3), dm(vec))
        out = apply_fn(rho)
        assert abs(np.trace(out.matrix) - 1) < 1e-12
        assert abs(np.trace(out.matrix @ out.matrix) - 1) < 1e-10


class TestParser:
    def test_ms_pulse(self):
        seq = parse_sequence("MS(0.25, 1.0)")
        assert seq.pulses == (Pulse("MS", 0.25, phi=1.0),)

    def test_addressed_z_pulse(self):
        seq = parse_sequence("S_z(1.636, 3)")
        assert seq.pulses == (Pulse("Sz", 1.636, ion=3),)

    def test_empty_input(self):
        assert parse_sequence("") == PulseSequence(())
        assert parse_sequence("# only a comment\n\n") == PulseSequence(())

    def test_negative_angles_and_comments(self):
        seq = parse_sequence("R(0.5, -0.5)  # header rotation\nMS(0.375, -1.054)\n")
        assert seq.pulses[0].phi == -0.5
        assert seq.pulses[1].theta == 0.375

    def test_reset_and_repump(self):
        seq = parse_sequence("RESET(0)\nREPUMP(1)")
        assert [p.kind for p in seq.pulses] == ["Reset", "Repump"]

    def test_syntax_error_carries_line_number(self):
        with pytest.raises(SequenceSyntaxError) as err:
            parse_sequence("R(0.5, 0.0)\nBOGUS(1)\n")
        assert "line 2" in str(err.value)

    def test_bad_arity(self):
        with pytest.raises(SequenceSyntaxError):
            parse_sequence("MS(0.25)")
        with pytest.raises(SequenceSyntaxError):
            parse_sequence("RESET(0, 1)")

    def test_bad_number(self):
        with pytest.raises(SequenceSyntaxError):
            parse_sequence("R(zero, 0.0)")
        with pytest.raises(SequenceSyntaxError):
            parse_sequence("S_z(1.0, j)")

    def test_roundtrip(self):
        text = "R(0.5, -0.5)\nMS(0.875, 1.0)\nS_z(1.636, 3)\nRESET(0)\n"
        seq = parse_sequence(text)
        assert serialize_sequence(seq) == text
        assert parse_sequence(serialize_sequence(seq)) == seq


class TestSequenceInterpreter:
    def test_single_pulse_matches_collective_flip(self):
        lay = qubit_register(2)
        u = sequence_unitary(parse_sequence("R(1.0, 0.0)"), lay)
        rho = basis_state(lay, [0, 0]).density()
        direct = apply(unitary_channel(rho.layout, rotation_unitary(rho.layout, 1.0, 0.0)), rho)
        assert np.allclose(u @ rho.matrix @ u.conj().T, direct.matrix, atol=1e-12)

    def test_concatenation_composes(self):
        lay = qubit_register(2)
        s1 = parse_sequence("R(0.31, 0.2)\nMS(0.25, 0.4)")
        s2 = parse_sequence("S_z(0.77, 1)\nR(0.5, -0.1)")
        both = PulseSequence(s1.pulses + s2.pulses)
        assert np.allclose(
            sequence_unitary(both, lay),
            sequence_unitary(s2, lay) @ sequence_unitary(s1, lay),
            atol=1e-12,
        )

    def test_unitary_mode_rejects_reset(self):
        with pytest.raises(UnitaryModeError):
            sequence_unitary(parse_sequence("RESET(0)"), qubit_register(2))

    def test_sequence_unitary_is_unitary(self):
        lay = qubit_register(3)
        seq = parse_sequence("R(0.3, 0.1)\nMS(0.7, 0.25)\nS_z(1.2, 2)\nMS(0.125, -0.5)")
        u = sequence_unitary(seq, lay)
        assert np.max(np.abs(u.conj().T @ u - np.eye(8))) < 1e-12

    def test_channel_with_reset_is_cptp(self):
        lay = qubit_register(2)
        ch = sequence_channel(parse_sequence("R(0.5, 0.0)\nRESET(0)"), lay)
        total = sum(k.conj().T @ k for k in ch.kraus_ops)
        assert np.allclose(total, np.eye(4), atol=1e-12)

    def test_pure_pulse_channel_is_rank_one(self):
        lay = qubit_register(2)
        ch = sequence_channel(parse_sequence("R(0.5, 0.0)\nMS(0.25, 0.0)"), lay)
        assert len(ch.kraus_ops) == 1


class TestActiveMask:
    def test_sequence_respects_decoupled_ions(self):
        lay = qubit_register(3)
        seq = parse_sequence("R(1.0, 0.0)")
        masked = PulseSequence(seq.pulses, active_mask=frozenset({0, 2}))
        u = sequence_unitary(masked, lay)
        src = basis_state(lay, [0, 0, 0]).vector
        dst = basis_state(lay, [1, 0, 1]).vector
        assert abs(dst.conj() @ u @ src) == pytest.approx(1.0, abs=1e-12)
