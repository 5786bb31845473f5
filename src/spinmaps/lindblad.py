"""Continuum-limit master-equation integrator used to cross-validate the
stroboscopic maps.

The stroboscopic sequence with small pumping angle theta and competition
angle phi approaches d rho/dt = -i [U H, rho] + kappa L[rho] with one map
step per unit time, U = phi and kappa = theta^2; the dimensionless
competition ratio g = U/kappa = phi/theta^2 stays finite in the limit.  The
right-hand side is taken in effective-Hamiltonian form, -i (H_eff rho - rho H_eff^dag)
+ kappa sum_i c_i rho c_i^dag with H_eff = U H - (i kappa/2) sum_i c_i^dag c_i built
once per integration and each jump applied pair-locally.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import trace_distance
from .maps import (
    composite_dissipative_sweep,
    apply_hamiltonian_map,
    interaction_hamiltonian,
    pair_jump_operator,
    singlet_projector,
)
from .register import DensityOperator, RegisterError, apply_local_kraus, embed_operator

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


def _generators(spec: MasterEqSpec):
    """H_eff = U H - (i kappa/2) sum_i c_i^dag c_i, the jump sqrt(kappa) c, the
    bonds it acts on (none when kappa = 0) and the register dims."""
    dims = (2,) * spec.n
    bonds = [(i - 1, i) for i in range(1, spec.n)] if spec.kappa != 0.0 else []
    h_eff = spec.u * interaction_hamiltonian(spec.n) - 0.5j * spec.kappa * sum(
        embed_operator(singlet_projector(), bond, dims) for bond in bonds)  # c^dag c
    return h_eff, np.sqrt(spec.kappa) * pair_jump_operator(), bonds, dims


def liouvillian_apply(rho: DensityOperator, spec: MasterEqSpec) -> np.ndarray:
    """Right-hand side -i U [H, rho] + kappa sum_i (c rho c^dag - {c^dag c, rho}/2).

    Traceless for any input; vanishes on Dicke dark states when U = 0.
    """
    return _rhs(rho.matrix, *_generators(spec))


def _rhs(mat, h_eff, jump, bonds, dims) -> np.ndarray:
    out = -1j * (h_eff @ mat - mat @ h_eff.conj().T)
    for bond in bonds:
        out += apply_local_kraus(mat, (jump,), bond, dims)
    return out


def integrate(
    rho0: DensityOperator, spec: MasterEqSpec, t_final: float, dt: float
) -> list[DensityOperator]:
    """Fixed-step RK4 trajectory from 0 to t_final, endpoint included.

    Requires dt (U + kappa) <= 0.05; the step is shrunk to divide t_final
    exactly.  Each step renormalizes the trace and aborts if the
    pre-normalization drift exceeds 1e-6.
    """
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
    gens = _generators(spec)
    mat = rho0.matrix.copy()
    traj = [rho0]
    for _ in range(steps):
        k1 = _rhs(mat, *gens)
        k2 = _rhs(mat + 0.5 * dt * k1, *gens)
        k3 = _rhs(mat + 0.5 * dt * k2, *gens)
        k4 = _rhs(mat + dt * k3, *gens)
        mat = mat + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        mat = 0.5 * (mat + mat.conj().T)
        tr = float(np.real(np.trace(mat)))
        if abs(tr - 1.0) > TRACE_DRIFT_LIMIT:
            raise IntegrationUnstableError(f"trace drifted to {tr}")
        mat = mat / tr
        traj.append(DensityOperator(rho0.layout, mat))
    return traj


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
        cont = integrate(cont, spec, 1.0, dt)[-1]
        worst = max(worst, trace_distance(strobe, cont))
    return worst
