"""The trap's universal gate set and the pulse-table interpreter.

All pulse angles are dimensionless multiples of pi, exactly as written in
the hardware tables: ``R(theta, phi)`` rotates by ``theta*pi`` around the
equatorial axis at angle ``phi*pi``, ``S_z(theta, ion)`` is an addressed
AC-Stark z rotation, and ``MS(theta, phi)`` is the collective
Moelmer-Soerensen interaction ``exp(-i theta pi/4 * S_phi^2)`` with
``theta = 0.5`` the fully entangling gate.  Each gate is given as its
register unitary; a state takes it by ``apply(unitary_channel(layout, u), rho)``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import cos, isfinite, pi, sin

import numpy as np

from .channels import Channel, apply, compose, reset_channel, unitary_channel
from .register import (
    DensityOperator,
    PauliString,
    RegisterError,
    RegisterLayout,
    embed,
    embed_operator,
    kron_product,
    lift_qubit_operator,
    qubit_operator,
)


class SequenceSyntaxError(ValueError):
    """Pulse-table text that does not match the grammar."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class UnitaryModeError(ValueError):
    """A dissipative pulse (RESET/REPUMP) appeared where a unitary is required."""


PULSE_KINDS = ("R", "Sz", "MS", "Reset", "Repump")


@dataclass(frozen=True)
class Pulse:
    """One line of a pulse table; angles stored exactly as parsed."""

    kind: str
    theta: float = 0.0
    phi: float | None = None
    ion: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in PULSE_KINDS:
            raise SequenceSyntaxError(0, f"unknown pulse kind {self.kind!r}")
        if not isfinite(self.theta):
            raise SequenceSyntaxError(0, "pulse angle must be finite")


@dataclass(frozen=True)
class PulseSequence:
    """Ordered pulses plus the set of ions participating in global gates.

    ``active_mask = None`` means all ions are active; spectroscopically
    decoupled ions are modeled by leaving them out of the mask.
    """

    pulses: tuple[Pulse, ...]
    active_mask: frozenset[int] | None = None

    def __len__(self) -> int:
        return len(self.pulses)


def _axis_matrix(phi: float) -> np.ndarray:
    """sigma^phi = sigma^x cos(phi*pi) + sigma^y sin(phi*pi)."""
    return cos(phi * pi) * qubit_operator("x") + sin(phi * pi) * qubit_operator("y")


def _resolve_mask(layout: RegisterLayout, mask: frozenset[int] | None) -> list[int]:
    ions = sorted(mask) if mask is not None else list(range(layout.n_ions))
    for i in ions:
        if not 0 <= i < layout.n_ions:
            raise RegisterError(f"masked ion {i} out of range")
    return ions


def rotation_unitary(
    layout: RegisterLayout,
    theta: float,
    phi: float,
    active_mask: frozenset[int] | None = None,
) -> np.ndarray:
    """Collective rotation exp(-i theta pi/2 sum_i sigma_i^phi) over the mask."""
    ions = _resolve_mask(layout, active_mask)
    half = theta * pi / 2.0
    u2 = cos(half) * np.eye(2) - 1j * sin(half) * _axis_matrix(phi)
    dims = layout.ion_dims
    local = kron_product([lift_qubit_operator(u2, dims[i], keep_parking=True) for i in ions])
    return embed_operator(local, ions, dims)


def sz_unitary(layout: RegisterLayout, theta: float, ion: int) -> np.ndarray:
    """Addressed AC-Stark rotation exp(-i theta pi/2 sigma_ion^z)."""
    if not 0 <= ion < layout.n_ions:
        raise RegisterError(f"ion {ion} out of range")
    half = theta * pi / 2.0
    u2 = np.diag([np.exp(1j * half), np.exp(-1j * half)])
    local = lift_qubit_operator(u2, layout.ion_dims[ion], keep_parking=True)
    return embed_operator(local, (ion,), layout.ion_dims)


def collective_spin(
    layout: RegisterLayout, phi: float, active_mask: frozenset[int] | None = None
) -> np.ndarray:
    """S_phi = sum over active ions of the embedded sigma^phi."""
    ions = _resolve_mask(layout, active_mask)
    d = layout.dim
    total = np.zeros((d, d), dtype=complex)
    axis = _axis_matrix(phi)
    for ion in ions:
        local = lift_qubit_operator(axis, layout.ion_dims[ion])
        total += embed_operator(local, (ion,), layout.ion_dims)
    return total


def ms_unitary(
    layout: RegisterLayout,
    theta: float,
    phi: float,
    active_mask: frozenset[int] | None = None,
) -> np.ndarray:
    """Moelmer-Soerensen gate exp(-i theta pi/4 S_phi^2), constant term included."""
    s = collective_spin(layout, phi, active_mask)
    vals, vecs = np.linalg.eigh(s)
    phases = np.exp(-1j * theta * pi / 4.0 * vals**2)
    return (vecs * phases) @ vecs.conj().T


def pauli_exp(rho: DensityOperator, string: PauliString, angle: float) -> DensityOperator:
    """Conjugation by exp(-i * angle * string); the exponent is literal here
    (not in units of pi) since these are math-level generators, not table
    pulses."""
    gen = embed(string, rho.layout)
    if np.max(np.abs(gen - gen.conj().T)) > 1e-12:
        raise RegisterError("pauli_exp requires a Hermitian string")
    vals, vecs = np.linalg.eigh(gen)
    u = (vecs * np.exp(-1j * angle * vals)) @ vecs.conj().T
    return apply(unitary_channel(rho.layout, u), rho)


_PULSE_RE = re.compile(
    r"^(?P<kind>R|S_z|MS|RESET|REPUMP)\s*\(\s*(?P<args>[^()]*)\)$"
)


def _parse_number(text: str, line_no: int) -> float:
    try:
        return float(text)
    except ValueError:
        raise SequenceSyntaxError(line_no, f"bad angle {text!r}") from None


def _parse_ion(text: str, line_no: int) -> int:
    try:
        ion = int(text)
    except ValueError:
        raise SequenceSyntaxError(line_no, f"bad ion index {text!r}") from None
    if ion < 0:
        raise SequenceSyntaxError(line_no, f"negative ion index {ion}")
    return ion


def parse_sequence(text: str) -> PulseSequence:
    """Parse pulse-table text: one pulse per line, '#' comments.

    Grammar: ``R(theta, phi)``, ``S_z(theta, ion)``, ``MS(theta, phi)``,
    ``RESET(ion)``, ``REPUMP(ion)``; decimal angles in units of pi.
    """
    pulses: list[Pulse] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _PULSE_RE.match(line)
        if m is None:
            raise SequenceSyntaxError(line_no, f"unrecognized pulse {line!r}")
        kind = m.group("kind")
        args = [a.strip() for a in m.group("args").split(",")] if m.group("args").strip() else []
        if kind in ("R", "MS"):
            if len(args) != 2:
                raise SequenceSyntaxError(line_no, f"{kind} takes (theta, phi)")
            pulses.append(
                Pulse(kind, _parse_number(args[0], line_no), phi=_parse_number(args[1], line_no))
            )
        elif kind == "S_z":
            if len(args) != 2:
                raise SequenceSyntaxError(line_no, "S_z takes (theta, ion)")
            pulses.append(
                Pulse("Sz", _parse_number(args[0], line_no), ion=_parse_ion(args[1], line_no))
            )
        else:  # RESET / REPUMP
            if len(args) != 1:
                raise SequenceSyntaxError(line_no, f"{kind} takes (ion)")
            pulses.append(Pulse(kind.capitalize(), ion=_parse_ion(args[0], line_no)))
    return PulseSequence(tuple(pulses))


def serialize_sequence(seq: PulseSequence) -> str:
    """Inverse of :func:`parse_sequence`, one pulse per line."""
    lines = []
    for p in seq.pulses:
        if p.kind == "R":
            lines.append(f"R({p.theta!r}, {p.phi!r})")
        elif p.kind == "MS":
            lines.append(f"MS({p.theta!r}, {p.phi!r})")
        elif p.kind == "Sz":
            lines.append(f"S_z({p.theta!r}, {p.ion})")
        else:
            lines.append(f"{p.kind.upper()}({p.ion})")
    return "\n".join(lines) + ("\n" if lines else "")


def min_register_size(seq: PulseSequence) -> int:
    """Smallest ion count that can host every addressed pulse (at least 2)."""
    addressed = [p.ion for p in seq.pulses if p.ion is not None]
    top = max(addressed) + 1 if addressed else 0
    return max(2, top)


def _pulse_unitary(pulse: Pulse, layout: RegisterLayout, mask: frozenset[int] | None) -> np.ndarray:
    if pulse.kind == "R":
        return rotation_unitary(layout, pulse.theta, pulse.phi, mask)
    if pulse.kind == "MS":
        return ms_unitary(layout, pulse.theta, pulse.phi, mask)
    if pulse.kind == "Sz":
        return sz_unitary(layout, pulse.theta, pulse.ion)
    raise UnitaryModeError(f"{pulse.kind} pulse has no unitary representation")


def sequence_unitary(seq: PulseSequence, layout: RegisterLayout) -> np.ndarray:
    """Product of the pulse unitaries, first pulse applied first.

    Raises :class:`UnitaryModeError` if the sequence contains RESET/REPUMP.
    """
    u = np.eye(layout.dim, dtype=complex)
    for pulse in seq.pulses:
        u = _pulse_unitary(pulse, layout, seq.active_mask) @ u
    return u


def sequence_channel(seq: PulseSequence, layout: RegisterLayout) -> Channel:
    """Interpret a sequence (unitaries plus incoherent resets) as a channel.

    REPUMP is the optical-pumping component of the reset and carries the
    same channel semantics here: an incoherent pump of the addressed ion
    into |1>.
    """
    channel = unitary_channel(layout, np.eye(layout.dim))
    for pulse in seq.pulses:
        if pulse.kind in ("Reset", "Repump"):
            stage = reset_channel(layout, pulse.ion, target_level=1)
        else:
            stage = unitary_channel(layout, _pulse_unitary(pulse, layout, seq.active_mask))
        channel = compose(channel, stage)
    return channel
