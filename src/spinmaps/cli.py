"""Batch experiment runner: parse a config plus schedule, execute the token
stream, and emit per-step observable reports as CSV/JSON (plus optional
state dumps).  Also hosts the pulse-table verifier and the closed-form
analytics printer.

Config format: plain ``key = value`` lines with ``#`` comments and one
``schedule { ... }`` block.  All angles in configs and schedules are in
units of pi (``U 0.5`` is the competition map at phi = pi/2), matching the
pulse tables; they are converted to radians at the library boundary.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import re
import sys
from contextlib import suppress
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import permutations
from math import pi
from pathlib import Path
from typing import Iterator

import numpy as np

from . import __version__
from .channels import Channel
from .gateset import (
    PulseSequence,
    SequenceSyntaxError,
    UnitaryModeError,
    min_register_size,
    parse_sequence,
    sequence_channel,
    sequence_unitary,
    serialize_sequence,
)
from .maps import (
    DissipativeMapSpec,
    HamiltonianMapSpec,
    apply_dissipative_map,
    apply_hamiltonian_map,
    composite_dissipative_sweep,
    elementary_dissipative_map,
    hamiltonian_map,
)
from .observables import (
    ObservableReport,
    analytic_dicke_order,
    dicke_fidelity,
    dicke_state,
    offdiag_order,
    purity,
    subspace_populations,
)
from .protocols import postselect, stabilize_system
from .register import (
    DensityOperator,
    PureState,
    RegisterError,
    RegisterLayout,
    basis_bits,
    basis_state,
    qubit_register,
    sector_rows,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INVARIANT = 3


class ConfigError(ValueError):
    """Malformed configuration or schedule."""


class InvariantViolation(RuntimeError):
    """A numerical state invariant failed during a run."""


# --- schedule ----------------------------------------------------------------

# Longest flattened schedule.  REPEAT blocks are expanded eagerly into one
# tuple of tokens, checked before each block is multiplied out; a run holds
# one state at a time, so this tuple and its reports are all that grow with
# the schedule length.
MAX_SCHEDULE_STEPS = 1_000_000

# Largest register: one N = 14 state is 4.3 GB, and a run holds a few of them
# at once.  A larger N is a configuration error before anything is allocated.
MAX_N = 14

# Schedule token -> parser of its argument: none, an optional angle in units
# of pi (a bare ``U`` takes the config's phi) or a required integer.
_TOKEN_ARGS = {"SWEEP": None, "U": float, "D": int, "QND": int,
               "REMOVE": int, "INJECT": int, "STAB": int}


def _tokenize_schedule(text: str) -> list[str]:
    padded = text.replace("{", " { ").replace("}", " } ").replace(";", "\n")
    return [w for line in padded.splitlines() for w in line.split("#", 1)[0].split()]


def parse_schedule(text: str) -> tuple[tuple, ...]:
    """Parse and flatten a schedule block into executable tokens; open REPEAT
    blocks sit on an explicit ``(count, items)`` stack, not on the call stack."""
    words = _tokenize_schedule(text)
    blocks: list[tuple[int, list[tuple]]] = [(1, [])]
    pos = 0
    while pos < len(words):
        w = words[pos]
        if w == "}":
            if len(blocks) == 1:
                raise ConfigError(f"schedule token {pos}: unmatched '}}'")
            count, body = blocks.pop()
            outer = blocks[-1][1]
            if len(outer) + len(body) * count > MAX_SCHEDULE_STEPS:
                raise ConfigError(f"schedule exceeds {MAX_SCHEDULE_STEPS} steps")
            outer.extend(body * count)
            pos += 1
            continue
        if w == "REPEAT":
            if pos + 2 >= len(words) or words[pos + 2] != "{":
                raise ConfigError(f"schedule token {pos}: REPEAT k {{ ... }} expected")
            try:
                count = int(words[pos + 1])
            except ValueError:
                raise ConfigError(
                    f"schedule token {pos + 1}: bad repeat count {words[pos + 1]!r}"
                ) from None
            if count < 1:
                raise ConfigError(f"schedule token {pos + 1}: REPEAT count must be >= 1")
            blocks.append((count, []))
            pos += 3
            continue
        if w not in _TOKEN_ARGS:
            raise ConfigError(f"schedule token {pos}: unknown token {w!r}")
        parse, arg = _TOKEN_ARGS[w], None
        if parse is not None and pos + 1 < len(words):
            with suppress(ValueError):
                arg = parse(words[pos + 1])
        if parse is int and arg is None:
            if pos + 1 == len(words):
                raise ConfigError(f"schedule token {pos}: {w} needs an integer argument")
            raise ConfigError(f"schedule token {pos + 1}: bad argument {words[pos + 1]!r} for {w}")
        blocks[-1][1].append((w, arg))
        pos += 1 if arg is None else 2
    if len(blocks) != 1:
        raise ConfigError("schedule ended inside a REPEAT block")
    return tuple(blocks[0][1])


# --- config ------------------------------------------------------------------


@dataclass(frozen=True)
class RunConfig:
    n: int
    m0: int
    initial: str
    theta: float = 0.5  # units of pi
    phi: float = 0.0  # units of pi
    epsilon_diss: float = 0.0
    epsilon_coh: float | None = None  # defaults to epsilon_diss / 5
    boundary: str = "open"
    dump_states: bool = False
    out: str | None = None
    schedule: tuple[tuple, ...] = field(default_factory=tuple)

    @property
    def periodic(self) -> bool:
        return self.boundary == "periodic"

    @property
    def eps_coh(self) -> float:
        return self.epsilon_diss / 5.0 if self.epsilon_coh is None else self.epsilon_coh


def _parse_bool(value: str, key: str) -> bool:
    low = value.lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ConfigError(f"key {key}: expected a boolean, got {value!r}")


def _parse_boundary(value: str) -> str:
    if value not in ("open", "periodic"):
        raise ConfigError(f"boundary must be open|periodic, got {value!r}")
    return value


# Config key -> its RunConfig field and the parser of its text.  Values are parsed
# in this order, whatever the order of their lines; an absent key takes the default.
_KEYS = {
    "N": ("n", int),
    "m0": ("m0", int),
    "initial": ("initial", str),
    "theta": ("theta", float),
    "phi": ("phi", float),
    "epsilon_diss": ("epsilon_diss", float),
    "epsilon_coh": ("epsilon_coh", float),
    "boundary": ("boundary", _parse_boundary),
    "dump_states": ("dump_states", partial(_parse_bool, key="dump_states")),
    "out": ("out", str),
}


def parse_config(path: str | Path, strict: bool = False) -> RunConfig:
    """Read and validate a UTF-8 run configuration file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config file {path}: {exc}") from None
    return parse_config_text(text, strict=strict)


# ``schedule`` as a whole word; ``schedule_x = 3`` is an unknown key.
_SCHEDULE_OPEN = re.compile(r"schedule(?=[\s{]|$)")


def parse_config_text(text: str, strict: bool = False) -> RunConfig:
    values: dict[str, str] = {}
    schedule_text: str | None = None
    lines = text.splitlines()
    i = 0
    while i < len(lines):
        raw = lines[i]
        line = raw.split("#", 1)[0].strip()
        i += 1
        if not line:
            continue
        if _SCHEDULE_OPEN.match(line):
            if schedule_text is not None:
                raise ConfigError(f"line {i}: duplicate schedule block")
            rest = line[len("schedule") :].strip()
            if not rest.startswith("{"):
                raise ConfigError(f"line {i}: schedule block must open with '{{'")
            body = [rest[1:]]
            depth = rest.count("{") - rest.count("}")
            while depth > 0:
                if i >= len(lines):
                    raise ConfigError("unterminated schedule block")
                nxt = lines[i].split("#", 1)[0]
                depth += nxt.count("{") - nxt.count("}")
                body.append(nxt)
                i += 1
            joined = "\n".join(body)
            # strip the final closing brace of the block itself
            schedule_text, _, tail = joined.rpartition("}")
            if tail.strip():
                raise ConfigError(f"line {i}: unexpected {tail.strip()!r} after the schedule block")
            continue
        if "=" not in line:
            raise ConfigError(f"line {i}: expected 'key = value', got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key in values:
            raise ConfigError(f"line {i}: duplicate key {key!r}")
        if key not in _KEYS:
            if strict:
                raise ConfigError(f"line {i}: unknown key {key!r}")
            print(f"warning: ignoring unknown config key {key!r}", file=sys.stderr)
            continue
        values[key] = value

    for required in ("N", "m0", "initial"):
        if required not in values:
            raise ConfigError(f"missing required key {required!r}")
    if schedule_text is None:
        raise ConfigError("missing schedule block")

    try:
        fields = {name: parse(values[key]) for key, (name, parse) in _KEYS.items() if key in values}
    except ConfigError:  # the boundary and boolean parsers say what is wrong
        raise
    except ValueError as exc:  # int or float could not read the text
        raise ConfigError(f"bad numeric value: {exc}") from None
    config = RunConfig(**fields, schedule=parse_schedule(schedule_text))
    _validate_config(config)
    return config


def _validate_config(config: RunConfig) -> None:
    if config.n < 2:
        raise ConfigError("N must be at least 2")
    if config.n > MAX_N:
        raise ConfigError(f"N = {config.n} exceeds the largest supported register, N = {MAX_N}")
    if not 0 <= config.m0 <= config.n:
        raise ConfigError(f"m0 {config.m0} out of range for N={config.n}")
    if not 0.0 <= config.theta <= 0.5 + 1e-12:
        raise ConfigError("theta must lie in [0, 0.5] (units of pi)")
    if not 0.0 <= config.phi <= 0.5 + 1e-12:
        raise ConfigError("phi must lie in [0, 0.5] (units of pi)")
    if not 0.0 <= config.epsilon_diss <= 1.0:
        raise ConfigError("epsilon_diss must lie in [0, 1]")
    if config.epsilon_coh is not None and not 0.0 <= config.epsilon_coh <= 1.0:
        raise ConfigError("epsilon_coh must lie in [0, 1]")
    limit = config.n if config.periodic else config.n - 1
    for kind, arg in config.schedule:
        if kind == "D" and not 1 <= arg <= limit:
            raise ConfigError(f"schedule: D {arg} out of range for N={config.n}")
        if kind in ("QND", "REMOVE", "INJECT", "STAB") and not 0 <= arg <= config.n:
            raise ConfigError(f"schedule: {kind} {arg} out of range for N={config.n}")
        if kind == "U" and arg is not None and not 0.0 <= arg <= 0.5 + 1e-12:
            raise ConfigError("schedule: U angle must lie in [0, 0.5] (units of pi)")
    try:
        initial_state(config)
    except (RegisterError, ConfigError) as exc:
        raise ConfigError(f"initial state: {exc}") from None


def initial_state(config: RunConfig) -> DensityOperator:
    """Build the configured initial state on the N-qubit system register."""
    layout = qubit_register(config.n)
    spec = config.initial.strip()
    if spec.startswith("file:"):
        rho = load_state(Path(spec[5:]))
        if rho.layout != layout:
            raise ConfigError(f"state file holds {rho.layout}, expected {layout}")
        return rho
    if spec in ("equal", "equal-superposition"):
        vec = np.full(layout.dim, 1.0 / np.sqrt(layout.dim), dtype=complex)
        return PureState(layout, vec).density()
    if spec.startswith("dicke"):
        parts = spec.split()
        if len(parts) != 2:
            raise ConfigError("dicke initial state needs an excitation count: 'dicke m'")
        try:
            m = int(parts[1])
        except ValueError:
            raise ConfigError(f"bad dicke excitation count {parts[1]!r}") from None
        return dicke_state(m, config.n).density()
    if set(spec) <= {"0", "1"} and spec:
        if len(spec) != config.n:
            raise ConfigError(
                f"basis string {spec!r} has {len(spec)} spins, expected {config.n}"
            )
        return basis_state(layout, [int(c) for c in spec]).density()
    raise ConfigError(f"unrecognized initial state {spec!r}")


# --- state dumps -------------------------------------------------------------


# Complex entries per row band of a streamed state dump.
_DUMP_BAND = 1 << 14
# Longest JSON spelling of a float magnitude: "2.2250738585072014e-308".
_FLOAT_TEXT = 23


def _entry_slots(entries: int) -> np.ndarray:
    """Byte slots of ``entries`` dumped entries, one row per float:
    ``[`` sign text ``, `` for the real part and sign text ``], `` for the
    imaginary one.  Sign and text are filled in per band, and the NUL bytes
    of the slots are dropped on writing."""
    text = 2 + _FLOAT_TEXT
    slots = np.zeros((entries, 2, text + 3), dtype=np.uint8)
    slots[:, 0, 0] = ord("[")
    slots[:, 0, text : text + 2] = np.frombuffer(b", ", np.uint8)
    slots[:, 1, text:] = np.frombuffer(b"], ", np.uint8)
    return slots.reshape(2 * entries, text + 3)


def _magnitude_texts(mags: np.ndarray) -> np.ndarray:
    """``(len(mags), _FLOAT_TEXT)`` NUL-padded bytes of each magnitude as
    ``json.dumps`` spells it, formatted by it in chunks."""
    texts = np.empty(len(mags), dtype=f"S{_FLOAT_TEXT}")
    for a in range(0, len(mags), _DUMP_BAND):
        texts[a : a + _DUMP_BAND] = json.dumps(mags[a : a + _DUMP_BAND].tolist())[1:-1].split(", ")
    return texts.view(np.uint8).reshape(len(mags), _FLOAT_TEXT)


def _ranks(table: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Position of each of ``values`` in the sorted ``table`` that holds them.
    The values are searched in sorted order, in which ``searchsorted`` starts
    each search from the previous one (about 2.5x faster on a dump's band)."""
    order = np.argsort(values)
    ranks = np.empty(len(values), dtype=np.intp)
    ranks[order] = np.searchsorted(table, values[order])
    return ranks


def dump_state(rho: DensityOperator, path: Path) -> None:
    """Write a state as JSON: layout header plus row-major [re, im] entries.

    The bytes are ``json.dumps(payload) + "\\n"`` with ``payload["matrix"]``
    the list of ``[re, im]`` floats, so every float has its shortest
    round-trip spelling (``NaN``, ``Infinity`` and ``-Infinity`` too).  Each
    distinct magnitude of the stored values is spelled once by ``json.dumps``
    and an entry takes its magnitude's text, with a ``-`` where the sign bit
    is set (never on ``NaN``).  The body is streamed in row bands; a blocked
    state's bands are scattered from its blocks, so it never builds the
    dense matrix.
    """
    layout = {"ion_dims": list(rho.layout.ion_dims), "ancilla_index": rho.layout.ancilla_index}
    head, tail = json.dumps({"layout": layout, "matrix": []}).rsplit("[]", 1)
    d = rho.layout.dim
    sectors = getattr(rho, "sectors", None)
    if sectors is None:
        stored = np.ascontiguousarray(rho.matrix, dtype=complex)

        def rows(a: int, b: int) -> np.ndarray:
            return stored[a:b]

    else:
        stored = sectors

        def rows(a: int, b: int) -> np.ndarray:
            return sector_rows(sectors, rho.layout.n_ions, a, b)

    mags = np.unique(np.abs(stored.view(float)))
    if sectors is not None and mags[0] != 0.0:
        mags = np.insert(mags, 0, 0.0)  # the value of every entry outside the blocks
    texts = _magnitude_texts(mags)
    band = min(d, max(1, _DUMP_BAND // d))
    slots = _entry_slots(band * d)
    with open(path, "wb") as out:
        out.write(f"{head}[".encode())
        for a in range(0, d, band):
            values = rows(a, min(a + band, d)).view(float).reshape(-1)
            used = slots[: len(values)]
            used[:, 1] = (np.signbit(values) & ~np.isnan(values)) * ord("-")
            used[:, 2 : 2 + _FLOAT_TEXT] = texts[_ranks(mags, np.abs(values))]
            body = used[used != 0]
            out.write(body if a + band < d else body[:-2])  # no ", " after the last entry
        out.write(f"]{tail}\n".encode())


def load_state(path: Path) -> DensityOperator:
    """Read a :func:`dump_state` file; any defect in it raises :class:`ConfigError`."""
    try:
        payload = json.loads(path.read_text())
        layout = RegisterLayout(
            tuple(payload["layout"]["ion_dims"]), payload["layout"]["ancilla_index"]
        )
        entries = np.array(
            [complex(re, im) for re, im in payload["matrix"]], dtype=complex
        )
        d = layout.dim
        if entries.size != d * d:
            raise ValueError(f"{entries.size} matrix entries for a {d} x {d} state")
        return DensityOperator(layout, entries.reshape(d, d))
    except KeyError as exc:
        raise ConfigError(f"state file {path}: missing key {exc}") from None
    except (OSError, TypeError, ValueError, OverflowError, RecursionError) as exc:
        raise ConfigError(f"state file {path}: {exc}") from None


# --- run ---------------------------------------------------------------------


def _token_label(kind: str, arg, config: RunConfig) -> str:
    if kind == "SWEEP":
        return "SWEEP"
    if kind == "U":
        return f"U {config.phi if arg is None else arg}"
    return f"{kind} {arg}"


def _observe(
    rho: DensityOperator,
    step: int,
    label: str,
    config: RunConfig,
    success: float | None,
) -> ObservableReport:
    try:
        off = offdiag_order(rho, config.m0)
    except RegisterError:
        off = None
    return ObservableReport(
        step=step,
        label=label,
        dicke_fidelity=dicke_fidelity(rho, config.m0, config.n),
        purity=purity(rho),
        populations=tuple(float(p) for p in subspace_populations(rho)),
        offdiag=off,
        success_prob=success,
    )


def run_steps(config: RunConfig) -> Iterator[tuple[ObservableReport, DensityOperator]]:
    """Run the schedule lazily, yielding ``(report, state)`` once per token.

    Only the current state is held: a consumer that drops each state before
    asking for the next keeps the run's memory bounded by the state size,
    not by the schedule length.  Raises :class:`InvariantViolation` with the
    offending step and invariant if a state check fails.
    """
    rho = initial_state(config)
    theta = config.theta * pi
    for step, (kind, arg) in enumerate(config.schedule, start=1):
        label = _token_label(kind, arg, config)
        success: float | None = None
        try:
            if kind == "SWEEP":
                rho = composite_dissipative_sweep(
                    rho, theta, config.epsilon_diss, config.periodic
                )
            elif kind == "D":
                spec = DissipativeMapSpec(arg, theta, config.epsilon_diss)
                rho = apply_dissipative_map(rho, spec, config.periodic)
            elif kind == "U":
                phi = (config.phi if arg is None else arg) * pi
                rho = apply_hamiltonian_map(rho, phi, config.eps_coh, config.periodic)
            elif kind == "QND":
                rho_post, success = postselect(rho, arg)
                if rho_post is None:
                    raise InvariantViolation(
                        f"step {step} ({label}): post-selection left no population"
                    )
                rho = rho_post
            elif kind in ("REMOVE", "INJECT", "STAB"):
                # STAB is removal then injection; each half's output is validated
                halves = {"REMOVE": (True,), "INJECT": (False,), "STAB": (True, False)}
                for removing in halves[kind]:
                    rho = stabilize_system(rho, arg, removing)
            else:  # pragma: no cover - parse_schedule rejects unknown tokens
                raise ConfigError(f"unknown schedule token {kind!r}")
            report = _observe(rho, step, label, config, success)
        except RegisterError as exc:
            raise InvariantViolation(f"step {step} ({label}): {exc}") from exc
        yield report, rho


CSV_BASE_COLUMNS = ("step", "token", "fidelity", "purity", "p_m0")


def _fmt(value: float | None) -> str:
    return "" if value is None else repr(float(value))


def reports_to_csv(reports: list[ObservableReport], config: RunConfig) -> str:
    """Render reports with the fixed column set:
    step, token, fidelity, purity, p_m0, p_0..p_N, offdiag, success_prob."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header = list(CSV_BASE_COLUMNS) + [f"p_{m}" for m in range(config.n + 1)]
    header += ["offdiag", "success_prob"]
    writer.writerow(header)
    for r in reports:
        row = [str(r.step), r.label, _fmt(r.dicke_fidelity), _fmt(r.purity)]
        row.append(_fmt(r.populations[config.m0]))
        row.extend(_fmt(p) for p in r.populations)
        row.append(_fmt(r.offdiag))
        row.append(_fmt(r.success_prob))
        writer.writerow(row)
    return buf.getvalue()


def _config_echo(config: RunConfig) -> dict:
    return {
        "N": config.n,
        "m0": config.m0,
        "initial": config.initial,
        "theta": config.theta,
        "phi": config.phi,
        "epsilon_diss": config.epsilon_diss,
        "epsilon_coh": config.eps_coh,
        "boundary": config.boundary,
        "schedule": [[k, a] for k, a in config.schedule],
    }


def run_to_files(
    config: RunConfig, out_dir: Path, stem: str, dump_states: bool = False
) -> tuple[list[ObservableReport], Path]:
    """Execute a config and write <stem>.csv / <stem>.json (and state dumps).

    The run streams: each state dump is written as soon as its step is done
    and the state is dropped, so one live state is held whatever the schedule
    length.  The CSV and JSON are written from the kept reports once the run
    ends.  If a step raises :class:`InvariantViolation`, the dumps of the
    completed steps stay on disk and no CSV or JSON is written.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    dump = dump_states or config.dump_states
    reports: list[ObservableReport] = []
    for report, rho in run_steps(config):
        if dump:
            name = f"{stem}_state_{report.step:04d}.json"
            dump_state(rho, out_dir / name)
            report = replace(report, state_dump=name)
        reports.append(report)
    csv_path = out_dir / f"{stem}.csv"
    csv_path.write_text(reports_to_csv(reports, config))
    payload = {
        "config": _config_echo(config),
        "reports": [
            {
                "step": r.step,
                "token": r.label,
                "fidelity": r.dicke_fidelity,
                "purity": r.purity,
                "populations": list(r.populations),
                "offdiag": r.offdiag,
                "success_prob": r.success_prob,
                "state_dump": r.state_dump,
            }
            for r in reports
        ],
    }
    (out_dir / f"{stem}.json").write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n")
    return reports, csv_path


# --- sequence verification ---------------------------------------------------

# Most ions a pulse table may address: checking one holds a few 2^n x 2^n
# complex arrays (0.27 GB each at 12 ions, 1.1 GB at 13) plus an MS ``eigh``.
MAX_TABLE_IONS = 12

# Most complex entries the channel of a reset table may hold: k RESET/REPUMP
# pulses on n ions multiply out to 2^k Kraus operators of 4^n entries each.
# 2^26 entries are 1 GiB, and composing holds about twice that at once.
MAX_RESET_TABLE_ENTRIES = 2**26


def _permute_ions(u: np.ndarray, perm) -> np.ndarray:
    """``P u P^T`` for the qubit basis permutation P sending ion i to slot perm[i]."""
    n, axes = len(perm), list(np.argsort(perm))
    return u.reshape((2,) * (2 * n)).transpose(axes + [n + a for a in axes]).reshape(u.shape)


def _frame_objective(ideal, candidate, n_ions: int):
    """x -> (||M||_* / d)^2, the score of the Kraus set ``candidate`` (K_b) in the
    per-ion z frames x = (in angles, out angles) against ``ideal`` (T_a), with
    M[a, b] = sum_ij conj(T_a)_ij w_ij (K_b)_ij and w = z_out (x) z_in.
    This is the Uhlmann fidelity of the two Choi states, F(X X^dag, Y Y^dag) =
    ||X^dag Y||_*^2 (Jozsa 1994), so no Choi matrix is built; for one operator
    on each side it is |z_out . (conj(T) * K) . z_in|^2 / d^2.

    The phase table and the half-swap index are built once per fit, here, so
    one evaluation is a gather, a matmul and a norm: w = exp(phase @ x[order])
    is the diagonal of prod_i exp(-i a_i/2 sigma^z_i) over the angles (out, in),
    ion 0 most significant."""
    ideal, candidate = np.asarray(ideal), np.asarray(candidate)
    d = ideal.shape[-1]
    form = (ideal.conj()[:, None] * candidate[None]).reshape(len(ideal), len(candidate), d * d)
    phase = 0.5j * (1 - 2 * basis_bits(2 * n_ions))
    order = np.roll(np.arange(2 * n_ions), n_ions)
    return lambda x: (np.linalg.svd(form @ np.exp(phase @ x[order]),
                                    compute_uv=False).sum() / d) ** 2


def minimize(*args, **kwargs):
    """``scipy.optimize.minimize``, imported on the first frame fit: the import
    pulls in scipy.sparse, scipy.special and scipy.spatial, which no
    ``spinmaps run`` needs.  It stays a module-level name so that the
    benchmark's frame-fit span (``perfbench/tracing.py``) can wrap it."""
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(*args, **kwargs)


def _frame_fit(ideal, candidate, n_ions: int, options: dict) -> float:
    """Largest :func:`_frame_objective` score over the zero frame and Nelder-Mead
    runs from two seeded random starts, capped at 1."""
    score = _frame_objective(ideal, candidate, n_ions)
    best = score(np.zeros(2 * n_ions))
    for seed in range(2):
        if best > 1.0 - 1e-12:
            break
        x0 = np.random.default_rng(seed).uniform(-pi, pi, 2 * n_ions)
        res = minimize(lambda x: -score(x), x0, method="Nelder-Mead", options=options)
        best = max(best, -res.fun)
    return float(min(best, 1.0))


def _best_over_roles(fits) -> tuple[float, object]:
    """First ``(fidelity, detail)`` among ``fits(perm)`` over the ion roles of a
    3-ion table whose fidelity lies within 1e-12 of the largest, so roles that
    symmetry ties pick the same detail whatever their last bits; table ion
    ``perm[k]`` plays role ``k``.  Scoring stops once the chosen fidelity is
    within 1e-12 of 1, the cap of :func:`_frame_fit`: no later role displaces it."""
    scored = []
    for fit in (f for perm in permutations(range(3)) for f in fits(perm)):
        scored.append(fit)
        best = max(f[0] for f in scored)
        chosen = next(f for f in scored if f[0] >= best - 1e-12)
        if chosen[0] >= 1.0 - 1e-12:
            break
    return chosen


def _flip_flop_target() -> np.ndarray:
    """Flip-flop swap |01> <-> -i|10> on ions (0, 1) of a 3-qubit register."""
    u = np.eye(8, dtype=complex)
    for c in range(2):
        i01, i10 = 0b010 + c, 0b100 + c
        u[i01, i01] = u[i10, i10] = 0.0
        u[i01, i10] = u[i10, i01] = -1j
    return u


def _verify_unitary(seq: PulseSequence, target: np.ndarray, label: str) -> dict:
    """Best frame fidelity of a 3-qubit table against ``target`` over ion roles."""
    u_seq = sequence_unitary(seq, qubit_register(3))
    options = {"maxiter": 3000, "xatol": 1e-12, "fatol": 1e-15}
    fidelity, perm = _best_over_roles(lambda perm: [(_frame_fit(
        (target,), (_permute_ions(u_seq, np.argsort(perm)),), 3, options), list(perm))])
    return {"target": label, "fidelity": fidelity, "ion_permutation": perm}


def _reduced_channel(
    u: np.ndarray, ancilla: int, prep: int, pair_order: tuple[int, int]
) -> Channel:
    """System-pair channel of a 3-qubit unitary with the ancilla prepared,
    then reset/traced."""
    v = _permute_ions(u, np.argsort((ancilla, *pair_order)))  # ancilla now ion 0
    kraus = tuple(v[4 * k : 4 * (k + 1), 4 * prep : 4 * (prep + 1)] for k in range(2))
    return Channel(qubit_register(2), kraus)


def _verify_single_map(seq: PulseSequence) -> dict:
    """Diagnostic: best process fidelity of the optimized 19-pulse table
    against the ideal elementary map over ion roles, ancilla preparation and
    z frames (the table's frame conventions are not published); each
    :func:`_reduced_channel` is scored by :func:`_frame_objective`."""
    u_seq = sequence_unitary(seq, qubit_register(3))
    ideal = elementary_dissipative_map(DissipativeMapSpec(1)).kraus_ops
    options = {"maxiter": 1200, "xatol": 1e-10, "fatol": 1e-12}

    def fits(perm):
        ancilla, *pair_order = perm
        for prep in (1, 0):
            kraus = _reduced_channel(u_seq, ancilla, prep, pair_order).kraus_ops
            yield (_frame_fit(ideal, kraus, 2, options),
                   {"ancilla": ancilla, "prep": prep, "pair_order": pair_order})

    fidelity, assignment = _best_over_roles(fits)
    return {"target": "elementary dissipative map (diagnostic)",
            "fidelity": fidelity, "assignment": assignment}


_TARGET_CHECKS = {
    "swap": partial(
        _verify_unitary, target=_flip_flop_target(), label="flip-flop swap on (ancilla, site 1)"
    ),
    "hamiltonian_3spin": partial(
        _verify_unitary,
        target=hamiltonian_map(HamiltonianMapSpec(pi / 2), 3).kraus_ops[0],
        label="composite Hamiltonian map, phi = pi/2",
    ),
    "single_dissipative_map": _verify_single_map,
}


def verify_sequences(directory: str | Path) -> dict:
    """Parse, round-trip and check every pulse table in a directory.

    Per file: parse status, serialization round-trip, unitarity of the
    interpreted sequence (or CPTP status when resets are present), and the
    best fidelity against a nominal target where one is registered.
    Unreadable or non-UTF-8 files, parse failures and tables the target check
    cannot interpret are reported per file and are non-fatal.
    """
    directory = Path(directory)
    entries = []
    for path in sorted(directory.glob("*.txt")):
        entry: dict = {"file": path.name}
        try:
            seq = parse_sequence(path.read_text(encoding="utf-8"))
        except (OSError, SequenceSyntaxError, UnicodeDecodeError) as exc:
            entry["parse_ok"] = False
            entry["error"] = str(exc)
            entries.append(entry)
            continue
        entry["parse_ok"] = True
        entry["pulses"] = len(seq)
        reparsed = parse_sequence(serialize_sequence(seq))
        entry["roundtrip_ok"] = reparsed == seq
        n_ions = min_register_size(seq)
        if n_ions > MAX_TABLE_IONS:
            entry["error"] = f"table addresses {n_ions} ions; at most {MAX_TABLE_IONS} are checked"
            entries.append(entry)
            continue
        resets = sum(p.kind in ("Reset", "Repump") for p in seq.pulses)
        if 2**resets * 4**n_ions > MAX_RESET_TABLE_ENTRIES:
            entry["error"] = (
                f"table has {resets} resets on {n_ions} ions: its channel holds "
                f"2^{resets} Kraus operators of 4^{n_ions} entries, more than the "
                f"{MAX_RESET_TABLE_ENTRIES} entries that are checked"
            )
            entries.append(entry)
            continue
        layout = qubit_register(n_ions)
        if resets:
            try:
                sequence_channel(seq, layout)
                entry["channel_ok"] = True
            except Exception as exc:  # completeness failure
                entry["channel_ok"] = False
                entry["error"] = str(exc)
        else:
            u = sequence_unitary(seq, layout)
            err = float(np.max(np.abs(u.conj().T @ u - np.eye(layout.dim))))
            entry["unitarity_error"] = err
            entry["unitary_ok"] = err <= 1e-12
        check = _TARGET_CHECKS.get(path.stem)
        if check is not None:
            try:
                entry["reference"] = check(seq)
            except (RegisterError, UnitaryModeError) as exc:
                entry["error"] = str(exc)
        entries.append(entry)
    return {"directory": str(directory), "files": entries}


# --- analytics ---------------------------------------------------------------


def analytics_order_table(max_n: int) -> str:
    """Closed-form off-diagonal order table for N = 2..max_n, all m."""
    lines = ["  N   m   dicke_order      mixture_order    s_plus_s_minus"]
    for n in range(2, max_n + 1):
        for m in range(n + 1):
            order = analytic_dicke_order(m, n)
            lines.append(
                f"{n:3d} {m:3d}   {order:<16.12g} {0.25:<16.12g} {m * (n + 1 - m):<16.12g}"
            )
    return "\n".join(lines) + "\n"


# --- entry point -------------------------------------------------------------


def _cmd_run(args: argparse.Namespace) -> int:
    config = parse_config(args.config, strict=args.strict)
    out_dir = Path(args.out if args.out is not None else config.out or ".")
    reports, csv_path = run_to_files(config, out_dir, Path(args.config).stem, args.dump_states)
    final = reports[-1] if reports else None
    if final is not None:
        print(
            f"{len(reports)} steps -> {csv_path} "
            f"(final fidelity {final.dicke_fidelity:.6f}, purity {final.purity:.6f})"
        )
    else:
        print(f"0 steps -> {csv_path}")
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    directory = Path(args.directory)
    if not directory.is_dir():
        raise ConfigError(f"{directory} is not a directory")
    out_path = Path(args.out) / "sequence_report.json"
    out_path.parent.mkdir(parents=True, exist_ok=True)
    report = verify_sequences(directory)
    out_path.write_text(json.dumps(report, sort_keys=True, indent=1) + "\n")
    for entry in report["files"]:
        status = "ok" if entry.get("parse_ok") else f"PARSE ERROR: {entry.get('error')}"
        extra = ""
        if "reference" in entry:
            extra = f" reference fidelity {entry['reference']['fidelity']:.9f}"
        elif entry.get("parse_ok") and "error" in entry:
            extra = f" error: {entry['error']}"
        print(f"{entry['file']}: {status}{extra}")
    print(f"report -> {out_path}")
    return EXIT_OK


def _cmd_analytics(args: argparse.Namespace) -> int:
    if args.command != "order":
        raise ConfigError(f"unknown analytics command {args.command!r}")
    sys.stdout.write(analytics_order_table(args.max_n))
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="spinmaps",
        description="Stroboscopic open-system dynamical maps on ion-register spin chains.",
    )
    parser.add_argument("--version", action="version", version=f"spinmaps {__version__}")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_run = sub.add_parser("run", help="execute a config file's schedule")
    p_run.add_argument("config")
    p_run.add_argument("--out", default=None, help="output directory (overrides the config's 'out' key)")
    p_run.add_argument("--dump-states", action="store_true")
    p_run.add_argument("--strict", action="store_true", help="reject unknown config keys")
    p_run.set_defaults(func=_cmd_run)

    p_ver = sub.add_parser("verify-sequences", help="check a directory of pulse tables")
    p_ver.add_argument("directory")
    p_ver.add_argument("--out", default=".", help="output directory")
    p_ver.set_defaults(func=_cmd_verify)

    p_ana = sub.add_parser("analytics", help="print closed-form observable tables")
    p_ana.add_argument("command", help="'order'")
    p_ana.add_argument("--max-n", type=int, default=8)
    p_ana.set_defaults(func=_cmd_analytics)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, OSError) as exc:  # OSError: a path the file system refuses
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except MemoryError as exc:  # a register too large for the memory at hand
        print(f"out of memory: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
