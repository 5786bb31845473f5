"""Figures of merit: Dicke states, fidelity, purity, subspace populations,
off-diagonal order and the closed-form Dicke-mixture analytics.

Fidelity, populations and off-diagonal order read only diagonal
excitation-sector blocks, through :meth:`DensityOperator.sector_block`, so
each has one formula for the dense and the blocked form."""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .register import (
    DensityOperator,
    PureState,
    RegisterError,
    RegisterLayout,
    _sector_positions,
    basis_bits,
    excitation_numbers as _excitation_numbers,
    qubit_register,
)

EMPTY_SUBSPACE_TOL = 1e-12


def _check_system_register(layout: RegisterLayout, n: int) -> None:
    if layout.ion_dims != (2,) * n:
        raise RegisterError(f"expected a register of {n} qubits, got {layout.ion_dims}")


def dicke_state(m: int, n: int) -> PureState:
    """Symmetric superposition of all n-qubit basis states with m up-spins."""
    if not 0 <= m <= n:
        raise RegisterError(f"need 0 <= m <= N, got m={m}, N={n}")
    layout = qubit_register(n)
    vec = np.zeros(layout.dim, dtype=complex)
    vec[_excitation_numbers(n) == m] = 1.0 / np.sqrt(comb(n, m))
    return PureState(layout, vec)


def dicke_fidelity(rho: DensityOperator, m: int, n: int) -> float:
    """Overlap fidelity <D(m,N)| rho |D(m,N)>."""
    _check_system_register(rho.layout, n)
    d = dicke_state(m, n).vector[_excitation_numbers(n) == m]  # its sector-m part
    return float(np.real(d.conj() @ rho.sector_block(m) @ d))


def purity(rho: DensityOperator) -> float:
    """Tr rho^2, summed as |rho_ij|^2 over the stored entries since rho is Hermitian."""
    stored = rho.matrix if rho.sectors is None else rho.sectors
    return float(np.vdot(stored, stored).real)


def subspace_populations(rho: DensityOperator) -> np.ndarray:
    """Vector of Tr(P_m rho) over excitation numbers m = 0..N."""
    n = rho.layout.n_ions
    _check_system_register(rho.layout, n)
    return np.array([np.trace(rho.sector_block(m)).real for m in range(n + 1)])


def offdiag_order(rho: DensityOperator, m0: int) -> float:
    """Nearest-neighbour coherence within the m0-excitation subspace.

    Re Tr( (sum_j sigma^-_j sigma^+_{j+1}) P rho P ) / Tr(P rho P), with P
    the projector onto m0 excitations.  Raises if the subspace carries no
    population.
    """
    n = rho.layout.n_ions
    _check_system_register(rho.layout, n)
    mask = _excitation_numbers(n) == m0
    block = rho.sector_block(m0)
    weight = float(np.real(np.trace(block)))
    if weight < EMPTY_SUBSPACE_TOL:
        raise RegisterError(f"no population in the m={m0} subspace")
    # hop pairs: b has ion j up and ion j+1 down, t is b with the two swapped
    bits = basis_bits(n)
    b, j = np.nonzero((bits[:, :-1] > bits[:, 1:]) & mask[:, None])
    t = b - (1 << (n - 2 - j))
    pos = _sector_positions(n)
    return float(np.real(block[pos[b], pos[t]].sum())) / weight


def dicke_mixture(n: int) -> DensityOperator:
    """Binomially weighted incoherent mixture of Dicke states,
    rho = 2^-N sum_m C(N,m) |D(m,N)><D(m,N)|."""
    layout = qubit_register(n)
    mat = np.zeros((layout.dim, layout.dim), dtype=complex)
    for m in range(n + 1):
        d = dicke_state(m, n).vector
        mat += comb(n, m) * np.outer(d, d.conj())
    return DensityOperator(layout, mat / 2**n)


def analytic_dicke_order(m: int, n: int) -> float:
    """Closed form for <sigma_i^+ sigma_j^-> on a Dicke state, i != j:
    (m/N)(1 - m/N) / (1 - 1/N)."""
    if n < 2:
        raise RegisterError("need at least two spins for a two-point function")
    return (m / n) * (1 - m / n) / (1 - 1 / n)


@dataclass(frozen=True)
class ObservableReport:
    """Per-step record emitted by schedule runs."""

    step: int
    label: str
    dicke_fidelity: float
    purity: float
    populations: tuple[float, ...]
    offdiag: float | None
    success_prob: float | None = None
    state_dump: str | None = None

    def __post_init__(self) -> None:
        if not abs(sum(self.populations) - 1.0) <= 1e-9:
            raise RegisterError("subspace populations must sum to 1")
        if not 0.0 < self.purity <= 1.0 + 1e-9:
            raise RegisterError(f"purity {self.purity} outside (0, 1]")
        if not -1e-12 <= self.dicke_fidelity <= 1.0 + 1e-9:
            raise RegisterError(f"fidelity {self.dicke_fidelity} outside [0, 1]")
