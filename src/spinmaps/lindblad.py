"""Continuum-limit master-equation integrator used to cross-validate the
stroboscopic maps.

The stroboscopic sequence with small pumping angle theta and competition
angle phi approaches d rho/dt = -i [U H, rho] + kappa L[rho] with one map
step per unit time, U = phi and kappa = theta^2; the dimensionless
competition ratio g = U/kappa = phi/theta^2 stays finite in the limit.  H, c_i
and c_i^dag c_i are pair-local, so the Liouvillian is one 16x16 bond superoperator
built once per integration and applied on every bond through the maps' local path
(:func:`~spinmaps.register.apply_local_superop`); no register-sized operator is formed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .channels import trace_distance
from .maps import (
    composite_dissipative_sweep,
    apply_hamiltonian_map,
    pair_hamiltonian,
    pair_jump_operator,
    singlet_projector,
)
from .register import DensityOperator, RegisterError, apply_local_superop, hermitize, kraus_superop

STABILITY_BOUND = 0.05
TRACE_DRIFT_LIMIT = 1e-6


class IntegrationUnstableError(RuntimeError):
    """Trace drift exceeded the guard threshold during integration."""


@dataclass(frozen=True)
class MasterEqSpec:
    """N spins with Hamiltonian energy scale U and dissipative rate kappa."""

    n: int
    u: float = 0.0
    kappa: float = 1.0

    def __post_init__(self) -> None:
        if self.n < 2:
            raise RegisterError("master equation needs at least two spins")
        if self.kappa < 0:
            raise RegisterError("kappa must be non-negative")


def _bond_rhs(spec: MasterEqSpec):
    """rho -> sum over the open bonds b of L_b rho, with the row-major 16x16
    L_b = -i U (h (x) 1 - 1 (x) h^T) + kappa (c (x) conj(c) - P (x) 1/2 - 1 (x) P^T/2),
    h = |11><11| and P = c^dag c."""
    h, c, p, one = pair_hamiltonian(), pair_jump_operator(), singlet_projector(), np.eye(4)
    gen = -1j * spec.u * (np.kron(h, one) - np.kron(one, h.T)) + spec.kappa * (
        kraus_superop((c,)) - 0.5 * np.kron(p, one) - 0.5 * np.kron(one, p.T))
    bonds, dims = [(i - 1, i) for i in range(1, spec.n)], (2,) * spec.n
    return lambda mat: sum(apply_local_superop(mat, gen, bond, dims) for bond in bonds)


def liouvillian_apply(rho: DensityOperator, spec: MasterEqSpec) -> np.ndarray:
    """Right-hand side -i U [H, rho] + kappa sum_i (c rho c^dag - {c^dag c, rho}/2).

    Traceless for any input; vanishes on Dicke dark states when U = 0.
    """
    return _bond_rhs(spec)(rho.matrix)


def _rk4_steps(
    rho0: DensityOperator, spec: MasterEqSpec, t_final: float, dt: float
) -> Iterator[np.ndarray]:
    """The matrices after each step of :func:`integrate`, not validated; the
    trace-drift guard runs on every step.  Each yielded array is fresh."""
    if rho0.layout.ion_dims != (2,) * spec.n:
        raise RegisterError("state register does not match the master-equation spec")
    if dt <= 0:
        raise RegisterError("dt must be positive")
    if dt * (abs(spec.u) + spec.kappa) > STABILITY_BOUND + 1e-12:
        raise RegisterError(
            f"dt ({dt}) violates the stability bound dt*(U+kappa) <= {STABILITY_BOUND}"
        )
    steps = max(1, int(np.ceil(t_final / dt - 1e-9))) if t_final > 0 else 0
    if steps:
        dt = t_final / steps
    rhs = _bond_rhs(spec)
    mat = rho0.matrix
    for _ in range(steps):
        k1 = rhs(mat)
        k2 = rhs(mat + 0.5 * dt * k1)
        k3 = rhs(mat + 0.5 * dt * k2)
        k4 = rhs(mat + dt * k3)
        mat = hermitize(mat + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4))
        tr = float(np.real(np.trace(mat)))
        if abs(tr - 1.0) > TRACE_DRIFT_LIMIT:
            raise IntegrationUnstableError(f"trace drifted to {tr}")
        mat = mat / tr
        yield mat


def integrate(
    rho0: DensityOperator, spec: MasterEqSpec, t_final: float, dt: float
) -> list[DensityOperator]:
    """Fixed-step RK4 trajectory from 0 to t_final, endpoint included.

    Requires dt (U + kappa) <= 0.05; the step is shrunk to divide t_final
    exactly.  Each step renormalizes the trace and aborts if the
    pre-normalization drift exceeds 1e-6.  Every state is validated.
    """
    return [rho0, *(DensityOperator(rho0.layout, m) for m in _rk4_steps(rho0, spec, t_final, dt))]


def compare_stroboscopic(
    rho0: DensityOperator, theta: float, phi: float, n_steps: int
) -> float:
    """Maximum trace distance between the stroboscopic alternation and the
    matched master equation over n_steps map steps.

    One stroboscopic step is a dissipative sweep at angle theta followed by
    the Hamiltonian map at angle phi; the continuum comparison uses U = phi
    and kappa = theta^2 per unit step time.
    """
    if theta > 0.2 + 1e-12:
        raise RegisterError("continuum comparison expects theta <= 0.2")
    n = rho0.layout.n_ions
    spec = MasterEqSpec(n, u=phi, kappa=theta**2)
    rates = abs(spec.u) + spec.kappa
    substeps = max(4, int(np.ceil(rates / STABILITY_BOUND)))
    dt = 1.0 / substeps
    strobe = rho0
    cont = rho0
    worst = 0.0
    for _ in range(n_steps):
        strobe = composite_dissipative_sweep(strobe, theta)
        if phi != 0.0:
            strobe = apply_hamiltonian_map(strobe, phi)
        for mat in _rk4_steps(cont, spec, 1.0, dt):
            pass  # only the state at the compared unit time is validated
        cont = DensityOperator(rho0.layout, mat)
        worst = max(worst, trace_distance(strobe, cont))
    return worst
