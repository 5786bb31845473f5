"""Elementary dissipative maps, their circuit-engineered equivalents,
Hamiltonian competition maps and composite sweeps.

Site indices in this module are 1-based: map ``i`` acts on neighbouring
spins ``(i, i+1)`` of an N-spin chain, ``1 <= i <= N-1`` for open boundary
conditions.  Pumping angles ``theta`` and competition angles ``phi`` are in
radians here (``theta = pi/2`` is the deterministic map); the pulse-level
interfaces in :mod:`spinmaps.gateset` keep the tables' units of pi.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import cos, pi, sin

import numpy as np
from scipy.linalg import expm

from .channels import (
    Channel,
    ChannelError,
    apply_embedded,
    depolarizing_channel,
    mix,
    unitary_channel,
)
from .register import (
    DensityOperator,
    RegisterError,
    apply_local,
    basis_bits,
    embed_operator,
    qubit_register,
)

_PAIR_LAYOUT = qubit_register(2)

# Pair basis order: |00>, |01>, |10>, |11>.
_SINGLET = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)
_TRIPLET0 = np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2)


def pair_jump_operator() -> np.ndarray:
    """Two-spin jump operator |triplet_0><singlet| on the (|00>,|01>,|10>,|11>)
    basis: converts the antisymmetric pair component into the symmetric one
    and annihilates all triplet states."""
    return np.outer(_TRIPLET0, _SINGLET.conj())


def singlet_projector() -> np.ndarray:
    """c^dag c = |singlet><singlet| on a pair of spins."""
    return np.outer(_SINGLET, _SINGLET.conj())


def pair_hamiltonian() -> np.ndarray:
    """Bond term H_i = |11><11| of the interaction Hamiltonian on a pair of spins."""
    return np.diag([0.0, 0.0, 0.0, 1.0]).astype(complex)


@dataclass(frozen=True)
class DissipativeMapSpec:
    """Elementary dissipative map D_{i,i+1}: pumping angle theta
    (pi/2 = deterministic) and depolarizing strength epsilon."""

    site: int
    theta: float = pi / 2
    epsilon: float = 0.0

    def __post_init__(self) -> None:
        if self.site < 1:
            raise RegisterError("site indices are 1-based")
        if not 0.0 <= self.theta <= pi / 2 + 1e-12:
            raise RegisterError(f"theta {self.theta} outside [0, pi/2]")
        if not 0.0 <= self.epsilon <= 1.0:
            raise RegisterError(f"epsilon {self.epsilon} outside [0, 1]")


@dataclass(frozen=True)
class HamiltonianMapSpec:
    """Competition map U = exp(-i phi H) with per-pair depolarizing strength."""

    phi: float
    epsilon_coh: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.phi <= pi / 2 + 1e-12:
            raise RegisterError(f"phi {self.phi} outside [0, pi/2]")
        if not 0.0 <= self.epsilon_coh <= 1.0:
            raise RegisterError(f"epsilon_coh {self.epsilon_coh} outside [0, 1]")


def _sites_to_ions(site: int, n: int, periodic: bool = False) -> tuple[int, int]:
    limit = n if periodic else n - 1
    if not 1 <= site <= limit:
        raise RegisterError(f"site {site} out of range for N={n}")
    return (site - 1, site % n)


def jump_operator(i: int, n: int) -> np.ndarray:
    """Jump operator c_i on the full N-qubit register, identity elsewhere.

    Normalized so that c_i maps the (i, i+1) singlet exactly onto the
    triplet m_S = 0 state (norm-1 image).
    """
    return embed_operator(pair_jump_operator(), _sites_to_ions(i, n), (2,) * n)


def dissipative_kraus(theta: float) -> tuple[np.ndarray, np.ndarray]:
    """Pair Kraus set {sin(theta) c, 1 + (cos(theta) - 1) c^dag c}."""
    c = pair_jump_operator()
    proj = singlet_projector()
    e1 = sin(theta) * c
    e2 = np.eye(4, dtype=complex) + (cos(theta) - 1.0) * proj
    return e1, e2


def _depolarized(ideal: Channel, epsilon: float) -> Channel:
    """The per-map noise model: ``ideal`` mixed with pair depolarizing."""
    if epsilon == 0.0:
        return ideal
    noise = depolarizing_channel(_PAIR_LAYOUT, (0, 1))
    return mix([ideal, noise], [1.0 - epsilon, epsilon])


def elementary_dissipative_map(spec: DissipativeMapSpec) -> Channel:
    """Two-spin dissipative map as a channel on the pair.

    At theta = pi/2 the Kraus set is exactly {c, 1 - c^dag c}; epsilon > 0
    mixes in the double-depolarizing channel on both pair spins.
    """
    e1, e2 = dissipative_kraus(spec.theta)
    return _depolarized(Channel(_PAIR_LAYOUT, (e1, e2)), spec.epsilon)


def _ancilla_dilation_unitary(theta_map: float, phi: float, omit_inverse: bool) -> np.ndarray:
    """Unitary M^dag(theta) C(phi) M(theta) on (ancilla, spin i, spin i+1).

    M coherently maps singlet-vs-triplet onto the ancilla qubit prepared in
    |1>; C applies sigma^z to spin i conditioned on the ancilla branch,
    converting singlet to triplet with probability sin^2(phi).
    """
    x_anc = np.array([[0, 1], [1, 0]], dtype=complex)
    s2_minus_2 = -2.0 * singlet_projector()  # S^2 - 2 = -2 P_singlet on a pair
    m = expm(-1j * (theta_map / 2.0) * np.kron(x_anc, s2_minus_2))
    # C(phi) = |1><1|_a (x) 1 + |0><0|_a (x) exp(i phi sigma_i^z)
    zi = np.kron(np.diag([np.exp(-1j * phi), np.exp(1j * phi)]), np.eye(2))
    c_gate = np.kron(np.diag([0.0, 1.0]), np.eye(4)) + np.kron(
        np.diag([1.0, 0.0]), zi
    ).astype(complex)
    u = c_gate @ m
    if not omit_inverse:
        u = m.conj().T @ u
    return u


def circuit_dissipative_map(spec: DissipativeMapSpec) -> Channel:
    """Dissipative pair map engineered from the three-step ancilla circuit.

    The reduced system channel (ancilla prepared in |1>, circuit applied,
    ancilla reset/traced) is Choi-equal to
    ``elementary_dissipative_map(theta = phi of the controlled gate)``.  For
    phi = pi/2 the inverse mapping stage is skipped; the channel is
    unchanged by the omission.
    """
    phi = spec.theta
    omit = abs(phi - pi / 2) < 1e-12
    u = _ancilla_dilation_unitary(pi / 2, phi, omit_inverse=omit)
    # Stinespring reduction: K_k = <k|_a U |1>_a, ancilla is the first factor.
    kraus = tuple(u[4 * k : 4 * (k + 1), 4 : 8] for k in range(2))
    return _depolarized(Channel(_PAIR_LAYOUT, kraus), spec.epsilon)


def interaction_hamiltonian(n: int, periodic: bool = False) -> np.ndarray:
    """Diagonal of H = sum_i (1+sigma_i^z)(1+sigma_{i+1}^z)/4 in the
    computational basis: the integer count of adjacent up-up pairs."""
    bits, sites = basis_bits(n), np.array(_sweep_sites(n, periodic), dtype=int)
    return (bits[:, sites - 1] & bits[:, sites % n]).sum(axis=1)


def _pair_interaction_unitary(phi: float) -> np.ndarray:
    """exp(-i phi H_i) on one pair: phase e^{-i phi} on |11>."""
    return np.diag(np.exp(-1j * phi * np.diag(pair_hamiltonian())))


def elementary_hamiltonian_map(phi: float, epsilon_coh: float = 0.0) -> Channel:
    """Pair-level coherent map with optional depolarizing wrapper."""
    ideal = unitary_channel(_PAIR_LAYOUT, _pair_interaction_unitary(phi))
    return _depolarized(ideal, epsilon_coh)


def hamiltonian_map(spec: HamiltonianMapSpec, n: int, periodic: bool = False) -> Channel:
    """Ideal composite Hamiltonian map exp(-i phi H) on N spins, diagonal in the
    computational basis; a noisy one is applied by :func:`apply_hamiltonian_map`."""
    if spec.epsilon_coh != 0.0:
        raise ChannelError("a noisy Hamiltonian map is applied by apply_hamiltonian_map")
    u = np.diag(np.exp(-1j * spec.phi * interaction_hamiltonian(n, periodic)))
    return unitary_channel(qubit_register(n), u)


def _sweep_sites(n: int, periodic: bool) -> list[int]:
    return list(range(1, n + 1 if periodic else n))


# Sweeps and single D maps reuse one pair channel and its folded superoperator.
_cached_dissipative_map = lru_cache(maxsize=64)(elementary_dissipative_map)
_cached_hamiltonian_map = lru_cache(maxsize=64)(elementary_hamiltonian_map)


def _pair_sweep(rho: DensityOperator, channel: Channel, periodic: bool) -> DensityOperator:
    """Apply one pair channel on every sweep pair in order, then re-Hermitize."""
    n = rho.layout.n_ions
    pairs = [_sites_to_ions(site, n, periodic) for site in _sweep_sites(n, periodic)]
    return apply_local(rho, channel.superop, pairs)


def apply_dissipative_map(rho: DensityOperator, spec: DissipativeMapSpec, periodic: bool = False) -> DensityOperator:
    """Apply D_{i,i+1} to a register state with the sweeps' pair channel."""
    ions = _sites_to_ions(spec.site, rho.layout.n_ions, periodic)
    return apply_embedded(_cached_dissipative_map(DissipativeMapSpec(1, spec.theta, spec.epsilon)), rho, ions)


def composite_dissipative_sweep(
    rho: DensityOperator,
    theta: float = pi / 2,
    epsilon: float = 0.0,
    periodic: bool = False,
) -> DensityOperator:
    """Apply the elementary maps D_{1,2}, ..., D_{N-1,N} left to right."""
    if rho.layout.n_ions < 2:
        raise RegisterError("sweep needs at least two spins")
    return _pair_sweep(rho, _cached_dissipative_map(DissipativeMapSpec(1, theta, epsilon)), periodic)


def apply_hamiltonian_map(
    rho: DensityOperator,
    phi: float,
    epsilon_coh: float = 0.0,
    periodic: bool = False,
) -> DensityOperator:
    """Apply the composite Hamiltonian map, pair by pair.

    With epsilon_coh = 0 this equals conjugation by the global diagonal
    unitary exp(-i phi H) since the elementary maps commute.
    """
    return _pair_sweep(rho, _cached_hamiltonian_map(phi, epsilon_coh), periodic)


def composite_map(
    rho: DensityOperator,
    theta: float = pi / 2,
    phi: float = 0.0,
    epsilon_diss: float = 0.0,
    epsilon_coh: float = 0.0,
    periodic: bool = False,
) -> DensityOperator:
    """One composite step: dissipative sweep, then the Hamiltonian map.

    phi = 0 reduces exactly to the dissipative sweep.
    """
    out = composite_dissipative_sweep(rho, theta, epsilon_diss, periodic)
    if phi != 0.0:
        out = apply_hamiltonian_map(out, phi, epsilon_coh, periodic)
    return out
