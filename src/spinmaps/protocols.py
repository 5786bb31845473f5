"""QND excitation-number detection, post-selection and the active
excitation-number stabilization protocol.

The stabilization register convention is ion 0 = ancilla (a qutrit whose
third level parks the ancilla outside the computational space), ions
1..N = system spins.  The protocol is open-loop: every gate is applied in
every run, and the halting branches are realized physically by incoherent
parking of the ancilla.

A half-round is one :func:`~spinmaps.register.relabel` of basis states on
the stored form of the state.  This is exact: each of its gates (the pi
pulse, the detector ``exp(-i pi/2 X)`` on flagged states, the swap
``|0,1> <-> -i |1,0>``) sends a basis state to one basis state times a
phase, and each park ``{|2><p|, |o><o|, |2><2|}``, like the pump
``{|1><a|}``, picks its Kraus operator by the ancilla level alone.  So each
basis state ``|a, s>`` follows one Kraus path to ``w |1, t>``, and the
half-round maps ``|a, s><a', s'|`` to ``w conj(w') |1, t><1, t'|`` when the
two follow the same path, to zero otherwise (:func:`_kraus_paths`).  A path
moves the same number of excitations from every state it carries, so it
takes a sector into one sector and a blocked system state stays blocked.
The excitation-number projector is diagonal and is stored as its diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np

from .register import (
    DensityOperator,
    RegisterError,
    RegisterLayout,
    basis_bits,
    excitation_numbers,
    relabel,
    sector_buffer,
    sector_views,
    system_with_ancilla,
)


@dataclass(frozen=True)
class SubspaceProjector:
    """Projector onto the m-excitation subspace as a polynomial in S_z.

    ``alphas`` are the coefficients of sum_k alpha_k S_z^k with
    S_z = sum_i sigma_i^z; ``diagonal`` is the projector's diagonal in the
    computational basis, 1 on states carrying exactly m up-spins, 0 elsewhere.
    """

    n: int
    m: int
    alphas: tuple[float, ...]
    diagonal: np.ndarray

    def __post_init__(self) -> None:
        diag = np.asarray(self.diagonal)
        if diag.shape != (2**self.n,):
            raise RegisterError(f"projector diagonal has shape {diag.shape}, need ({2**self.n},)")
        if np.max(np.abs(diag * diag - diag)) > 1e-12:
            raise RegisterError("projector not idempotent")
        if np.max(np.abs(diag - diag.conj())) > 1e-12:
            raise RegisterError("projector not Hermitian")
        if abs(np.sum(diag).real - comb(self.n, self.m)) > 1e-12:
            raise RegisterError("projector rank differs from C(N, m)")

    @property
    def matrix(self) -> np.ndarray:
        """The projector as a dense ``2^n x 2^n`` matrix."""
        return np.diag(self.diagonal)


def _lagrange_coefficients(m: int, n: int) -> list[Fraction]:
    """Exact coefficients of the polynomial that is 1 at S_z = 2m - N and 0
    at every other S_z eigenvalue 2k - N, solving the (N+1)-node linear
    system in exact rational arithmetic."""
    nodes = [Fraction(2 * k - n) for k in range(n + 1)]
    target = nodes[m]
    coeffs = [Fraction(1)]
    denom = Fraction(1)
    for node in nodes:
        if node == target:
            continue
        # multiply polynomial by (x - node)
        nxt = [Fraction(0)] * (len(coeffs) + 1)
        for p, c in enumerate(coeffs):
            nxt[p + 1] += c
            nxt[p] -= c * node
        coeffs = nxt
        denom *= target - node
    return [c / denom for c in coeffs]


def build_projector(m: int, n: int) -> SubspaceProjector:
    """Excitation-number projector P_m on N qubits.

    The coefficient vector solves the Vandermonde system over the S_z
    eigenvalues exactly; the diagonal is 1 exactly on the basis states with
    m up-spins, so the matrix equals the brute-force sum of |b><b| over them.
    """
    if not 0 <= m <= n:
        raise RegisterError(f"need 0 <= m <= N, got m={m}, N={n}")
    alphas = _lagrange_coefficients(m, n)
    diag = (excitation_numbers(n) == m).astype(float)
    return SubspaceProjector(n, m, tuple(float(a) for a in alphas), diag)


def qnd_unitary(m0: int, n: int) -> np.ndarray:
    """exp(-i pi/2 P_{m0} (x) sigma_0^x) on (qubit ancilla, N system spins).

    Flips the ancilla (times -i) exactly on the m = m0 sector and acts as
    the identity elsewhere, so only the total excitation number is read out.
    """
    p = build_projector(m0, n).diagonal
    dim = 2**n
    u = np.diag(np.tile(1 - p, 2).astype(complex))
    idx = np.arange(dim)
    u[idx, dim + idx] = u[dim + idx, idx] = -1j * p  # exp(-i pi/2 X) on the sector
    return u


def stabilization_register(n: int) -> RegisterLayout:
    """Qutrit ancilla at index 0 followed by N system spins."""
    return system_with_ancilla(n)


def postselect(rho: DensityOperator, m0: int) -> tuple[DensityOperator | None, float]:
    """Project onto the m0-excitation subspace of a system register.

    Returns the renormalized post-measurement state, blocked since it lies in
    one sector, and the success probability Tr(P rho); zero support is
    signaled as ``(None, 0.0)``.
    """
    n = rho.layout.n_ions
    if rho.layout.ion_dims != (2,) * n:
        raise RegisterError("postselect expects a system-only qubit register")
    if not 0 <= m0 <= n:
        return None, 0.0
    block = rho.sector_block(m0)
    p = float(np.real(np.trace(block)))
    if p < 1e-12:
        return None, 0.0
    flat = sector_buffer(n)
    sector_views(flat, n)[m0][...] = block / p
    return DensityOperator.from_sectors(rho.layout, flat), p


# --- stabilization internals -------------------------------------------------

def _cascade_sites(n: int, m0: int, removing: bool) -> list[int]:
    """Swap-cascade site order: 1, 2, ..., N-1, extended to N only in the
    edge cases (removal with m0 = 0, injection with m0 = N) where the last
    site can carry the only transferable excitation/hole."""
    sites = list(range(1, n))
    if (removing and m0 == 0) or (not removing and m0 == n):
        sites.append(n)
    return sites


_PATHS: dict[tuple[int, int, bool], tuple[np.ndarray, np.ndarray, np.ndarray]] = {}


def _kraus_paths(n: int, m0: int, removing: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(path, target, phase)`` of a half-round for every register basis state
    ``|a, s>`` (index ``a * 2**n + s``): it goes to ``phase |1, target>`` along
    the Kraus path numbered ``path``, the base-3 digits of the ancilla level
    at each park and at the pump.  Cached per ``(n, m0, removing)``, read-only."""
    if (n, m0, removing) in _PATHS:
        return _PATHS[n, m0, removing]
    if not 0 <= m0 <= n:
        raise RegisterError(f"m0 {m0} out of range for N={n}")
    d = 2**n
    level = np.repeat([0, 1, 2] if removing else [1, 0, 2], d)  # injection: the pi pulse
    bits = np.tile(basis_bits(n), (3, 1))
    counts = np.tile(excitation_numbers(n), 3)
    flip = (level < 2) & (counts > m0 if removing else counts < m0)  # the detector
    level[flip] ^= 1
    phase = np.where(flip, -1j, 1)
    parking = 1 if removing else 0
    path = np.zeros(3 * d, dtype=np.int64)
    for site in [0] + _cascade_sites(n, m0, removing):
        if site:
            swap = level + bits[:, site - 1] == 1  # |0,1> <-> -i |1,0>
            level[swap] ^= 1
            bits[swap, site - 1] ^= 1
            phase[swap] *= -1j
        path = 3 * path + level
        level[level == parking] = 2
    path = 3 * path + level  # the pump |1><a|
    paths = (path, bits @ (1 << np.arange(n - 1, -1, -1)), phase)
    for a in paths:
        a.flags.writeable = False
    return _PATHS.setdefault((n, m0, removing), paths)


def _half_round(rho: DensityOperator, m0: int, removing: bool) -> DensityOperator:
    layout, n = rho.layout, rho.layout.n_ions - 1
    if layout.ancilla_index != 0 or layout.ion_dims[0] != 3:
        raise RegisterError("stabilization requires a qutrit ancilla at index 0")
    if layout.ion_dims[1:] != (2,) * n:
        raise RegisterError("system ions must be qubits")
    path, target, phase = _kraus_paths(n, m0, removing)
    return relabel(rho, path, 2**n + target, phase)


def stabilize_remove(rho: DensityOperator, m0: int) -> DensityOperator:
    """Open-loop removal of one excitation from every branch with m > m0.

    Ancilla must start in |1>.  Steps: excitation-number detector, parking
    of the no-error branch, swap cascade over sites 1, 2, ... with parking
    of successful extractions, final ancilla reset to |1>.  Branches with
    m <= m0, and in particular the full m0 block including its coherences,
    are left untouched.
    """
    return _half_round(rho, m0, removing=True)


def stabilize_inject(rho: DensityOperator, m0: int) -> DensityOperator:
    """Open-loop injection of one excitation into every branch with m < m0.

    Mirror image of :func:`stabilize_remove` under exchange of the ancilla's
    computational states; deposits at the first empty site reached by the
    swap cascade.
    """
    return _half_round(rho, m0, removing=False)


def stabilize(rho: DensityOperator, m0: int) -> DensityOperator:
    """Full stabilization round: removal, then injection (each resets the ancilla)."""
    return stabilize_inject(stabilize_remove(rho, m0), m0)


def stabilize_system(rho: DensityOperator, m0: int, removing: bool) -> DensityOperator:
    """Removal (``removing``) or injection half-round on a system state with
    the ancilla prepared in |1>, returning the validated system state.

    Equals ``partial_trace(stabilize_remove(kron(|1><1|, rho), m0), [0])``
    (or the injection), but relabels ``rho``'s stored form along the Kraus
    paths of the states ``|1, s>``, so it never builds the register state.
    """
    n = rho.layout.n_ions
    if rho.layout.ion_dims != (2,) * n:
        raise RegisterError("stabilize_system expects a system-only qubit register")
    rows = slice(2**n, 2 ** (n + 1))  # the basis states |1, s>
    return relabel(rho, *(a[rows] for a in _kraus_paths(n, m0, removing)))
