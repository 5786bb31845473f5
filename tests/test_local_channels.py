"""Local channels: Kraus products built by ``compose`` and state updates
applied by ``apply_embedded``, each pinned against a test-local reference."""

from math import pi
from pathlib import Path

import numpy as np
import pytest

from spinmaps.channels import (
    ChannelError,
    apply_embedded,
    compose,
    park_from,
    park_kraus_ops,
    reset_ancilla,
    reset_channel,
    unitary_channel,
)
from spinmaps.gateset import (
    min_register_size,
    ms_unitary,
    parse_sequence,
    rotation_unitary,
    sequence_channel,
    sz_unitary,
)
from spinmaps.maps import (
    DissipativeMapSpec,
    HamiltonianMapSpec,
    apply_dissipative_map,
    elementary_hamiltonian_map,
    hamiltonian_map,
    jump_operator,
)
from spinmaps.register import (
    DensityOperator,
    RegisterError,
    RegisterLayout,
    apply_local_superop,
    embed_operator,
    hermitize,
    qubit_operator,
    qubit_register,
)

TABLE_DIR = Path(__file__).resolve().parents[1] / "src" / "spinmaps" / "data" / "pulse_tables"
TABLES = sorted(TABLE_DIR.glob("*.txt"))


def nested_product(stages, dim):
    """Kraus list of the stages applied in order, newest stage outermost."""
    kraus = [np.eye(dim, dtype=complex)]
    for stage in stages:
        kraus = [s @ k for s in stage for k in kraus]
    return kraus


def pulse_stage(pulse, layout, mask):
    if pulse.kind in ("Reset", "Repump"):
        return reset_channel(layout, pulse.ion, target_level=1).kraus_ops
    if pulse.kind == "R":
        return (rotation_unitary(layout, pulse.theta, pulse.phi, mask),)
    if pulse.kind == "MS":
        return (ms_unitary(layout, pulse.theta, pulse.phi, mask),)
    return (sz_unitary(layout, pulse.theta, pulse.ion),)


def assert_same_kraus(ops, reference):
    assert len(ops) == len(reference)
    for k, r in zip(ops, reference):
        assert np.array_equal(k, r)


def random_state(layout, seed, rank=4):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(layout.dim, rank)) + 1j * rng.normal(size=(layout.dim, rank))
    mat = a @ a.conj().T
    return DensityOperator(layout, mat / np.trace(mat).real)


def dense_kraus_sum(rho, local_ops, sites):
    dims = rho.layout.ion_dims
    full = [embed_operator(k, sites, dims) for k in local_ops]
    return sum(e @ rho.matrix @ e.conj().T for e in full)


class TestSequenceChannelProduct:
    def test_all_nine_tables_found(self):
        assert len(TABLES) == 9

    @pytest.mark.parametrize("path", TABLES, ids=lambda p: p.stem)
    def test_matches_nested_product(self, path):
        seq = parse_sequence(path.read_text())
        layout = qubit_register(min_register_size(seq))
        ch = sequence_channel(seq, layout)
        stages = [pulse_stage(p, layout, seq.active_mask) for p in seq.pulses]
        assert ch.label == "sequence"
        assert_same_kraus(ch.kraus_ops, nested_product(stages, layout.dim))

    def test_empty_sequence_keeps_its_label(self):
        ch = sequence_channel(parse_sequence(""), qubit_register(2))
        assert ch.label == "sequence"
        assert_same_kraus(ch.kraus_ops, [np.eye(4, dtype=complex)])


class TestNoisyHamiltonianMapProduct:
    @pytest.mark.parametrize("n,periodic", [(1, False), (2, False), (3, False), (4, False), (2, True), (3, True)])
    @pytest.mark.parametrize("phi,eps", [(0.3, 0.1), (pi / 2, 0.02)])
    def test_matches_nested_product(self, n, periodic, phi, eps):
        ch = hamiltonian_map(HamiltonianMapSpec(phi, eps), n, periodic)
        pair = elementary_hamiltonian_map(phi, eps).kraus_ops
        bonds = range(n if periodic else n - 1)
        stages = [
            [embed_operator(k, (j, (j + 1) % n), (2,) * n) for k in pair] for j in bonds
        ]
        assert ch.label == f"U(phi={phi:g}, eps={eps:g})"
        assert_same_kraus(ch.kraus_ops, nested_product(stages, 2**n))


class TestStateUpdatesAgainstDenseKraus:
    @pytest.mark.parametrize("dims", [(3, 2, 2), (2, 3, 2, 2), (2, 2, 2, 3, 2)])
    def test_reset_ancilla(self, dims):
        rho = random_state(RegisterLayout(dims), seed=len(dims))
        for ion, d in enumerate(dims):
            for level in range(d):
                pump = [np.outer(np.eye(d)[level], np.eye(d)[k]) for k in range(d)]
                out = reset_ancilla(rho, ion, level)
                assert np.max(np.abs(out.matrix - dense_kraus_sum(rho, pump, (ion,)))) <= 1e-12

    @pytest.mark.parametrize("dims,ion", [((3, 2, 2), 0), ((2, 2, 3, 2), 2)])
    @pytest.mark.parametrize("source", [0, 1])
    def test_park_from(self, dims, ion, source):
        rho = random_state(RegisterLayout(dims), seed=10 + source)
        basis = np.eye(3)
        other = 1 - source
        local = [
            np.outer(basis[2], basis[source]),
            np.outer(basis[other], basis[other]),
            np.outer(basis[2], basis[2]),
        ]
        out = park_from(rho, ion, source)
        assert np.max(np.abs(out.matrix - dense_kraus_sum(rho, local, (ion,)))) <= 1e-12

    @pytest.mark.parametrize("n,periodic", [(3, False), (4, False), (5, False), (3, True), (4, True)])
    @pytest.mark.parametrize("theta,eps", [(pi / 2, 0.0), (0.4, 0.05)])
    def test_apply_dissipative_map(self, n, periodic, theta, eps):
        rho = random_state(qubit_register(n), seed=20 + n)
        paulis = [np.eye(2, dtype=complex)] + [qubit_operator(ax) for ax in "xyz"]
        for site in range(1, n + 1 if periodic else n):
            pair = (site - 1, site % n)
            c = embed_operator(jump_operator(1, 2), pair, (2,) * n)
            ideal = [np.sin(theta) * c, np.eye(2**n) + (np.cos(theta) - 1.0) * (c.conj().T @ c)]
            expected = (1 - eps) * sum(e @ rho.matrix @ e.conj().T for e in ideal)
            noise = [np.kron(a, b) / 4 for a in paulis for b in paulis]
            expected = expected + eps * dense_kraus_sum(rho, noise, pair)
            out = apply_dissipative_map(rho, DissipativeMapSpec(site, theta, eps), periodic)
            assert np.max(np.abs(out.matrix - expected)) <= 1e-12


class TestQubitResetOfABlockedState:
    """``apply_embedded`` on a blocked state agrees with the tiled kernel on
    its numpy matrix.  A plain qubit reset moves no excitation charge, so the
    state stays blocked; a reset into a tilted state moves charge and goes dense."""

    @pytest.mark.parametrize("tilt,stays_blocked", [(0.0, True), (0.35, False)])
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_agrees_with_the_tiled_kernel(self, blocked_and_dense, n, tilt, stays_blocked):
        blocked, reference = blocked_and_dense(np.random.default_rng(70 + n), n)
        local = qubit_register(1)
        rotation = np.cos(tilt) * np.eye(2) - 1j * np.sin(tilt) * qubit_operator("x")
        channel = compose(reset_channel(local, 0, 1), unitary_channel(local, rotation))
        for ion in range(n):
            out = apply_embedded(channel, blocked, (ion,))
            expected = hermitize(apply_local_superop(reference, channel.superop, (ion,), (2,) * n))
            assert (out.sectors is not None) == stays_blocked
            assert np.max(np.abs(out.matrix - expected)) <= 1e-12


class TestLocalChannelChecks:
    @pytest.mark.parametrize("level", [-1, 2, 5])
    def test_park_kraus_ops_rejects_non_computational_source(self, level):
        with pytest.raises(ChannelError, match="source level"):
            park_kraus_ops(level)

    @pytest.mark.parametrize("index", [-1, 3, 5])
    def test_reset_ancilla_index_out_of_range(self, index):
        rho = random_state(RegisterLayout((3, 2, 2)), seed=0)
        with pytest.raises(RegisterError, match="distinct ions"):
            reset_ancilla(rho, index)
