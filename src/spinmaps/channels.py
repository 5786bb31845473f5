"""Generic CPTP machinery: Kraus channels, depolarizing noise, ancilla reset
and parking channels, Choi matrices and fidelity measures.

Life cycle of a local operation: it is built once as a validated
:class:`Channel` on its own ions, multiplied out only by :func:`compose`, and
applied through :func:`apply_embedded`, which checks its sites and hands its
cached superoperator to :func:`~spinmaps.register.apply_local`; the register
picks the kernel for the state's form and re-Hermitizes the output."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product

import numpy as np

from .register import (
    DensityOperator,
    RegisterLayout,
    apply_local,
    check_sites,
    embed_operator,
    kraus_superop,
    kron_product,
    qubit_operator,
    sector_views,
)

COMPLETENESS_TOL = 1e-10
CHOI_PSD_FLOOR = -1e-8


class ChannelError(ValueError):
    """Raised for invalid Kraus sets or mismatched dimensions."""


@dataclass(frozen=True)
class Channel:
    """Completely positive trace-preserving map given by a finite Kraus set."""

    layout: RegisterLayout
    kraus_ops: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        d = self.layout.dim
        ops = tuple(np.asarray(k, dtype=complex) for k in self.kraus_ops)
        object.__setattr__(self, "kraus_ops", ops)
        if not ops:
            raise ChannelError("channel needs at least one Kraus operator")
        for k in ops:
            if k.shape != (d, d):
                raise ChannelError(f"Kraus shape {k.shape} does not match dim {d}")
        total = sum(k.conj().T @ k for k in ops)
        err = np.max(np.abs(total - np.eye(d)))
        if not err <= COMPLETENESS_TOL:
            raise ChannelError(f"Kraus completeness violated by {err}")

    @property
    def dim(self) -> int:
        return self.layout.dim

    @cached_property
    def superop(self) -> np.ndarray:
        """Row-major superoperator of the channel, folded once per instance."""
        return kraus_superop(self.kraus_ops)


@dataclass(frozen=True)
class ChoiMatrix:
    """Unit-trace Choi state of a channel (state normalization)."""

    matrix: np.ndarray
    input_dim: int

    def __post_init__(self) -> None:
        mat = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", mat)
        d2 = self.input_dim**2
        if mat.shape != (d2, d2):
            raise ChannelError(f"Choi shape {mat.shape}, expected {(d2, d2)}")
        if not np.max(np.abs(mat - mat.conj().T)) <= 1e-9:
            raise ChannelError("Choi matrix not Hermitian")
        if not abs(np.trace(mat) - 1.0) <= 1e-9:
            raise ChannelError("Choi matrix not unit trace")
        lo = float(np.min(np.linalg.eigvalsh(mat)))
        if not lo >= CHOI_PSD_FLOOR:
            raise ChannelError(f"Choi matrix not PSD: min eigenvalue {lo}")


def apply(channel: Channel, rho: DensityOperator) -> DensityOperator:
    """rho -> sum_k K rho K^dag on matching layouts."""
    if rho.layout.dim != channel.dim:
        raise ChannelError(
            f"channel dim {channel.dim} does not match state dim {rho.layout.dim}"
        )
    mat = rho.matrix
    out = sum(k @ mat @ k.conj().T for k in channel.kraus_ops)
    return DensityOperator(rho.layout, out)


def apply_embedded(
    channel: Channel, rho: DensityOperator, sites: tuple[int, ...]
) -> DensityOperator:
    """Apply a channel supported on a sub-register at the given ion indices,
    then re-Hermitize; a blocked state stays blocked when the channel moves
    no excitation charge."""
    check_sites(sites, rho.layout.n_ions)
    dims = tuple(channel.layout.ion_dims)
    target = tuple(rho.layout.ion_dims[s] for s in sites)
    if target != dims:
        raise ChannelError(f"channel ions {dims} do not fit register sites {target}")
    return apply_local(rho, channel.superop, [sites])


def unitary_channel(layout: RegisterLayout, u: np.ndarray) -> Channel:
    return Channel(layout, (np.asarray(u, dtype=complex),))


def mix(channels: list[Channel], weights: list[float]) -> Channel:
    """Convex mixture: Kraus sets scaled by sqrt(weight) and concatenated.

    The Choi matrix of the result is the weighted sum of the inputs' Choi
    matrices.
    """
    if len(channels) != len(weights):
        raise ChannelError("need one weight per channel")
    if any(w < 0 for w in weights):
        raise ChannelError("mixture weights must be non-negative")
    if abs(sum(weights) - 1.0) > 1e-12:
        raise ChannelError(f"weights sum to {sum(weights)}, expected 1")
    layout = channels[0].layout
    if any(c.layout.ion_dims != layout.ion_dims for c in channels):
        raise ChannelError("mixture requires identical layouts")
    ops: list[np.ndarray] = []
    for c, w in zip(channels, weights):
        if w == 0.0:
            continue
        ops.extend(np.sqrt(w) * k for k in c.kraus_ops)
    return Channel(layout, tuple(ops))


def compose(first: Channel, second: Channel) -> Channel:
    """Channel applying ``first`` then ``second`` (Kraus products expanded)."""
    if first.layout.ion_dims != second.layout.ion_dims:
        raise ChannelError("composition requires identical layouts")
    ops = tuple(b @ a for b in second.kraus_ops for a in first.kraus_ops)
    return Channel(first.layout, ops)


def depolarizing_channel(layout: RegisterLayout, ions: tuple[int, ...]) -> Channel:
    """Fully depolarizing channel on each listed qubit ion.

    Single-ion Kraus set {1, X, Y, Z}/2; multiple ions concatenate (the
    two-ion case is the double-depolarizing map used by the noise model).
    """
    check_sites(ions, layout.n_ions)
    for i in ions:
        if layout.ion_dims[i] != 2:
            raise ChannelError("depolarizing channel defined on qubit ions only")
    paulis = [np.eye(2, dtype=complex)] + [qubit_operator(ax) for ax in "xyz"]
    ops = []
    for combo in product(paulis, repeat=len(ions)):
        local = kron_product(combo, 0.5 ** len(ions))
        ops.append(embed_operator(local, ions, layout.ion_dims))
    return Channel(layout, tuple(ops))


def pump_kraus_ops(dim: int, target: int) -> tuple[np.ndarray, ...]:
    """Kraus set pumping every level of a ``dim``-level ion into ``target``."""
    if not 0 <= target < dim:
        raise ChannelError(f"target level {target} out of range")
    ops = []
    for k in range(dim):
        op = np.zeros((dim, dim), dtype=complex)
        op[target, k] = 1.0
        ops.append(op)
    return tuple(ops)


def reset_channel(
    layout: RegisterLayout, ion: int, target_level: int = 1
) -> Channel:
    """Optical-pumping reset of one ion into ``target_level``.

    For a qubit this is the Kraus set {|1><1|, |1><0|}; for a qutrit ancilla
    the parking level is pumped back as well so the reset leaves the ion in a
    known pure state regardless of prior branching.
    """
    check_sites((ion,), layout.n_ions)
    ops = tuple(
        embed_operator(local, (ion,), layout.ion_dims)
        for local in pump_kraus_ops(layout.ion_dims[ion], target_level)
    )
    return Channel(layout, ops)


def park_kraus_ops(source_level: int) -> tuple[np.ndarray, ...]:
    """Qutrit Kraus set moving computational ``source_level`` into parking |2>."""
    if source_level not in (0, 1):
        raise ChannelError("source level must be a computational level (0 or 1)")
    other = 1 - source_level
    k_move = np.zeros((3, 3), dtype=complex)
    k_move[2, source_level] = 1.0
    k_keep = np.zeros((3, 3), dtype=complex)
    k_keep[other, other] = 1.0
    k_parked = np.zeros((3, 3), dtype=complex)
    k_parked[2, 2] = 1.0
    return (k_move, k_keep, k_parked)


def park_channel(layout: RegisterLayout, ion: int, source_level: int) -> Channel:
    """Uni-directional pump of a qutrit ion's ``source_level`` into parking |2>.

    Population already parked stays parked (the channel is idempotent); the
    other computational level is untouched.
    """
    check_sites((ion,), layout.n_ions)
    if layout.ion_dims[ion] != 3:
        raise ChannelError("parking requires a qutrit ancilla")
    ops = tuple(
        embed_operator(local, (ion,), layout.ion_dims)
        for local in park_kraus_ops(source_level)
    )
    return Channel(layout, ops)


def choi(channel: Channel) -> ChoiMatrix:
    """Unit-trace Choi state (E (x) id on the maximally entangled state), a reshuffled superop."""
    d = channel.dim
    mat = channel.superop.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)
    return ChoiMatrix(mat / d, d)


def _sqrtm_psd(mat: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(mat)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def _uhlmann(a: np.ndarray, b: np.ndarray) -> float:
    """(Tr sqrt(sqrt(a) b sqrt(a)))^2, clipped into [0, 1].

    Eigenvalues below 1e-12 of the spectral maximum are treated as exact
    zeros; square roots would otherwise amplify rank-deficiency noise.
    """
    sa = _sqrtm_psd(a)
    inner = sa @ b @ sa
    vals = np.linalg.eigvalsh(0.5 * (inner + inner.conj().T))
    floor = max(float(vals.max()), 0.0) * 1e-12
    vals = np.where(vals > floor, vals, 0.0)
    f = float(np.sum(np.sqrt(vals)) ** 2)
    return min(max(f, 0.0), 1.0)


def uhlmann_fidelity(rho1: DensityOperator, rho2: DensityOperator) -> float:
    if rho1.layout.dim != rho2.layout.dim:
        raise ChannelError("fidelity requires matching dimensions")
    return _uhlmann(rho1.matrix, rho2.matrix)


def process_fidelity(a: ChoiMatrix, b: ChoiMatrix) -> float:
    """Uhlmann fidelity of the two normalized Choi states."""
    if a.input_dim != b.input_dim:
        raise ChannelError("process fidelity requires matching dimensions")
    return _uhlmann(a.matrix, b.matrix)


def choi_distance(a: ChoiMatrix, b: ChoiMatrix) -> float:
    """Frobenius distance between normalized Choi matrices."""
    if a.input_dim != b.input_dim:
        raise ChannelError("Choi distance requires matching dimensions")
    return float(np.linalg.norm(a.matrix - b.matrix))


def trace_distance(rho1: DensityOperator, rho2: DensityOperator) -> float:
    """(1/2) || rho1 - rho2 ||_1.  Of two blocked states it is the sum over the
    sector blocks of their difference, which is block-diagonal, so no dense
    matrix is built; any other pair is compared densely."""
    if rho1.sectors is not None and rho2.sectors is not None:
        blocks = sector_views(rho1.sectors - rho2.sectors, rho1.layout.n_ions)
    else:
        blocks = [rho1.matrix - rho2.matrix]
    vals = np.concatenate([np.linalg.eigvalsh(0.5 * (b + b.conj().T)) for b in blocks])
    return 0.5 * float(np.sum(np.abs(vals)))


def mean_state_fidelity(
    channel: Channel, reference_channel: Channel, input_set: list[DensityOperator]
) -> float:
    """Average output-state Uhlmann fidelity over a set of probe inputs."""
    if not input_set:
        raise ChannelError("input set must be non-empty")
    total = 0.0
    for rho in input_set:
        total += uhlmann_fidelity(apply(channel, rho), apply(reference_channel, rho))
    return total / len(input_set)
