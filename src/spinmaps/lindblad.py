"""Continuum-limit master-equation integrator used to cross-validate the
stroboscopic maps.

The stroboscopic sequence with small pumping angle theta and competition
angle phi approaches d rho/dt = -i [U H, rho] + kappa L[rho] with one map
step per unit time, U = phi and kappa = theta^2; the dimensionless
competition ratio g = U/kappa = phi/theta^2 stays finite in the limit.  H, c_i
and c_i^dag c_i are pair-local, so the Liouvillian is one 16x16 bond superoperator
built once per integration and summed over the bonds on the state's stored form
by :func:`~spinmaps.register.local_sum`; no register-sized operator is formed.
The generator moves no excitation charge, so a blocked state is integrated on
its sector blocks and stays blocked, and the trace distance of two blocked
states is taken per block; a dense start keeps the tiled kernel.  One RK4 step
on a random blocked state takes 0.10 s at N = 10 and 3.4 s at N = 12, with
0.75 and 0.68 dense states above its input under ``tracemalloc`` (dense
kernel: 0.69 s and 15 s, 7.0 dense states), fresh process, one BLAS thread.
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
from .register import (
    DensityOperator, RegisterError, hermitize, kraus_superop, local_sum, sector_rows, sector_views)

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


def _generator(rho: DensityOperator, spec: MasterEqSpec):
    """:func:`~spinmaps.register.local_sum` on ``rho`` of the row-major 16x16
    L_b = -i U (h (x) 1 - 1 (x) h^T) + kappa (c (x) conj(c) - P (x) 1/2 - 1 (x) P^T/2)
    over the open bonds b, h = |11><11| and P = c^dag c."""
    if rho.layout.ion_dims != (2,) * spec.n:
        raise RegisterError("state register does not match the master-equation spec")
    h, c, p, one = pair_hamiltonian(), pair_jump_operator(), singlet_projector(), np.eye(4)
    gen = -1j * spec.u * (np.kron(h, one) - np.kron(one, h.T)) + spec.kappa * (
        kraus_superop((c,)) - 0.5 * np.kron(p, one) - 0.5 * np.kron(one, p.T))
    return local_sum(rho, gen, [(i - 1, i) for i in range(1, spec.n)])


def liouvillian_apply(rho: DensityOperator, spec: MasterEqSpec) -> np.ndarray:
    """Right-hand side -i U [H, rho] + kappa sum_i (c rho c^dag - {c^dag c, rho}/2),
    as a dense matrix.

    Traceless for any input; vanishes on Dicke dark states when U = 0.
    """
    start, add = _generator(rho, spec)
    out = np.zeros_like(start)
    add(start, out)
    return out if out.ndim == 2 else sector_rows(out, spec.n, 0, rho.layout.dim)


def _state(layout, arr: np.ndarray) -> DensityOperator:
    """The validated state of a stored sector buffer (1-D) or matrix."""
    return DensityOperator.from_sectors(layout, arr) if arr.ndim == 1 else DensityOperator(layout, arr)


def _rk4_steps(
    rho0: DensityOperator, spec: MasterEqSpec, t_final: float, dt: float
) -> Iterator[np.ndarray]:
    """The stored arrays (sector buffer or matrix, as ``rho0`` is held) after
    each step of :func:`integrate`, not validated; the trace-drift guard runs
    on every step.  Each yielded array is fresh and not written again.  Four
    state-sized arrays are live in a step: the last state, the stage input,
    the stage derivative and the running increment, which becomes the next state."""
    mat, add = _generator(rho0, spec)
    if dt <= 0:
        raise RegisterError("dt must be positive")
    if dt * (abs(spec.u) + spec.kappa) > STABILITY_BOUND + 1e-12:
        raise RegisterError(
            f"dt ({dt}) violates the stability bound dt*(U+kappa) <= {STABILITY_BOUND}"
        )
    steps = max(1, int(np.ceil(t_final / dt - 1e-9))) if t_final > 0 else 0
    if steps:
        dt = t_final / steps
    y, k = np.empty_like(mat), np.empty_like(mat)
    for _ in range(steps):
        inc = np.zeros_like(mat)
        add(mat, inc)  # k1
        # stage inputs mat + dt k1 / 2, mat + dt k2 / 2 and mat + dt k3 from
        # k1, 2 k2 and 2 k3; the increment sums k1 + 2 k2 + 2 k3 + k4
        for src, scale, weight in ((inc, 0.5 * dt, 2.0), (k, 0.25 * dt, 2.0), (k, 0.5 * dt, 1.0)):
            np.multiply(src, scale, out=y)
            y += mat
            k.fill(0)
            add(y, k)
            k *= weight
            inc += k
        inc *= dt / 6.0
        inc += mat
        blocks = sector_views(inc, spec.n) if inc.ndim == 1 else [inc]
        for block in blocks:
            hermitize(block)
        tr = float(np.real(sum(np.trace(block) for block in blocks)))
        if abs(tr - 1.0) > TRACE_DRIFT_LIMIT:
            raise IntegrationUnstableError(f"trace drifted to {tr}")
        inc /= tr
        yield inc
        mat = inc


def integrate(
    rho0: DensityOperator, spec: MasterEqSpec, t_final: float, dt: float
) -> list[DensityOperator]:
    """Fixed-step RK4 trajectory from 0 to t_final, endpoint included.

    Requires dt (U + kappa) <= 0.05; the step is shrunk to divide t_final
    exactly.  Each step renormalizes the trace and aborts if the
    pre-normalization drift exceeds 1e-6.  Every state is validated.
    """
    return [rho0, *(_state(rho0.layout, m) for m in _rk4_steps(rho0, spec, t_final, dt))]


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
    spec = MasterEqSpec(rho0.layout.n_ions, u=phi, kappa=theta**2)
    dt = 1.0 / max(4, int(np.ceil((abs(spec.u) + spec.kappa) / STABILITY_BOUND)))
    strobe, cont, worst = rho0, rho0, 0.0
    for _ in range(n_steps):
        strobe = composite_dissipative_sweep(strobe, theta)
        if phi != 0.0:
            strobe = apply_hamiltonian_map(strobe, phi)
        for arr in _rk4_steps(cont, spec, 1.0, dt):
            pass  # only the state at the compared unit time is validated
        cont = _state(rho0.layout, arr)
        worst = max(worst, trace_distance(strobe, cont))
    return worst
