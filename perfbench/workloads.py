"""The four benchmark workloads.

Each workload turns a seed into input files (standard library only, so the
inputs do not depend on the numpy version), sets up from those files, makes
one timed call into a public spinmaps entry point, and extracts the outputs
that the correctness gate compares against the stored references.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
from itertools import combinations
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TABLES = ROOT / "src" / "spinmaps" / "data" / "pulse_tables"

# BLAS threads are held at one in every process that runs spinmaps: the
# thread count moves wall time by ~30% on two cores, and one thread is the
# steadiest choice on a shared host.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# Absolute tolerance of the reference comparison.
REFERENCE_TOL = 1e-9
# The flip-flop swap table must reproduce its target to this fidelity.
SWAP_FIDELITY_FLOOR = 1.0 - 1e-9


def _basis_strings(n: int, m: int) -> list[str]:
    """All n-spin basis strings with m excitations, in a fixed order."""
    out = []
    for ones in combinations(range(n), m):
        out.append("".join("1" if i in ones else "0" for i in range(n)))
    return out


def _report_rows(path: Path) -> list[dict]:
    """Per-step observables from a ``spinmaps run`` JSON output file."""
    payload = json.loads(path.read_text())
    keys = ("step", "token", "fidelity", "purity", "populations", "offdiag", "success_prob")
    return [{k: r[k] for k in keys} for r in payload["reports"]]


def _digest(paths: list[Path]) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()


class ChainN10:
    """``run_to_files`` on the shipped noisy 10-spin pumping config with
    competing Hamiltonian maps and a final QND; the seed picks the basis start."""

    name = "chain-n10"
    scales = {"full": dict(n=10, m0=3, k=2), "tiny": dict(n=4, m0=2, k=1)}

    def keys(self, p: dict) -> list[str]:
        return _basis_strings(p["n"], p["m0"])

    def units(self, p: dict) -> int:
        return 2 * p["k"] + 1

    def config_text(self, p: dict, initial: str) -> str:
        return (
            f"N = {p['n']}\nm0 = {p['m0']}\ninitial = {initial}\ntheta = 0.5\n"
            "epsilon_diss = 0.02\nepsilon_coh = 0.004\n"
            f"schedule {{\n  REPEAT {p['k']} {{ SWEEP; U 0.25 }}\n  QND {p['m0']}\n}}\n"
        )

    def write_inputs(self, key: str, p: dict, in_dir: Path) -> None:
        (in_dir / "run.cfg").write_text(self.config_text(p, key))

    def setup(self, sm, in_dir: Path):
        return sm.cli.parse_config(in_dir / "run.cfg")

    def call(self, sm, ctx, out_dir: Path):
        return sm.cli.run_to_files(ctx, out_dir, "run")

    def outputs(self, result, out_dir: Path) -> tuple[object, str]:
        files = sorted(out_dir.iterdir())
        return _report_rows(out_dir / "run.json"), _digest(files)

    def extra_check(self, values) -> str | None:
        return None


class StabilizeN8(ChainN10):
    """``run_to_files`` with state dumps on an 8-spin register with a qutrit
    ancilla: sweeps, Hamiltonian maps and full stabilization rounds, from a
    seed-drawn random pure state given as an ``initial = file:`` state file."""

    name = "stabilize-n8"
    scales = {"full": dict(n=8, m0=4, k=2, pool=24), "tiny": dict(n=3, m0=1, k=1, pool=3)}

    def keys(self, p: dict) -> list[str]:
        # A fixed pool of random states, so that every seed has a reference.
        return [str(i) for i in range(p["pool"])]

    def units(self, p: dict) -> int:
        return 3 * p["k"]

    def write_inputs(self, key: str, p: dict, in_dir: Path) -> None:
        rng = random.Random(1000 + int(key))
        dim = 2 ** p["n"]
        vec = [complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) for _ in range(dim)]
        norm = sum(abs(z) ** 2 for z in vec) ** 0.5
        vec = [z / norm for z in vec]
        matrix = [[(a * b.conjugate()).real, (a * b.conjugate()).imag] for a in vec for b in vec]
        state = {"layout": {"ion_dims": [2] * p["n"], "ancilla_index": None}, "matrix": matrix}
        state_path = in_dir / "initial_state.json"
        state_path.write_text(json.dumps(state) + "\n")
        (in_dir / "run.cfg").write_text(
            f"N = {p['n']}\nm0 = {p['m0']}\ninitial = file:{state_path}\ntheta = 0.5\n"
            "epsilon_diss = 0.02\n"
            f"schedule {{\n  REPEAT {p['k']} {{ SWEEP; U 0.25; STAB {p['m0']} }}\n}}\n"
        )

    def call(self, sm, ctx, out_dir: Path):
        return sm.cli.run_to_files(ctx, out_dir, "run", dump_states=True)


class VerifyTables:
    """``verify_sequences`` on the shipped pulse tables (the seed is unused)."""

    name = "verify-tables"
    scales = {"full": dict(tables=None), "tiny": dict(tables=["decoupling.txt", "swap.txt"])}

    def _tables(self, p: dict) -> list[Path]:
        names = p["tables"]
        return sorted(TABLES.glob("*.txt")) if names is None else [TABLES / t for t in names]

    def keys(self, p: dict) -> list[str]:
        return ["tables"]

    def units(self, p: dict) -> int:
        return len(self._tables(p))

    def write_inputs(self, key: str, p: dict, in_dir: Path) -> None:
        tables = in_dir / "tables"
        tables.mkdir()
        for path in self._tables(p):
            shutil.copyfile(path, tables / path.name)

    def setup(self, sm, in_dir: Path):
        return in_dir / "tables"

    def call(self, sm, ctx, out_dir: Path):
        return sm.cli.verify_sequences(ctx)

    def outputs(self, result, out_dir: Path) -> tuple[object, str]:
        text = json.dumps(result, sort_keys=True, indent=1) + "\n"
        # The ion roles and frame assignment of a fit are left out: symmetric
        # targets tie, and which tied assignment wins depends on rounding.
        entries = [
            dict(e, reference={k: v for k, v in e["reference"].items()
                               if k not in ("ion_permutation", "assignment")})
            if "reference" in e else e
            for e in result["files"]
        ]
        return entries, hashlib.sha256(text.encode()).hexdigest()

    def extra_check(self, values) -> str | None:
        for entry in values:
            if entry["file"] == "swap.txt":
                fid = entry["reference"]["fidelity"]
                if not fid >= SWAP_FIDELITY_FLOOR:
                    return f"swap table fidelity {fid!r} below {SWAP_FIDELITY_FLOOR!r}"
        return None


class ContinuumN7:
    """``compare_stroboscopic`` at theta = 0.2, phi = g theta^2 with g = 1;
    the seed picks the basis start."""

    name = "continuum-n7"
    scales = {"full": dict(n=7, m=3, steps=10), "tiny": dict(n=3, m=1, steps=2)}
    theta = 0.2
    g = 1.0

    def keys(self, p: dict) -> list[str]:
        return _basis_strings(p["n"], p["m"])

    def units(self, p: dict) -> int:
        return p["steps"]

    def write_inputs(self, key: str, p: dict, in_dir: Path) -> None:
        spec = {"start": key, "theta": self.theta, "phi": self.g * self.theta**2,
                "steps": p["steps"]}
        (in_dir / "continuum.json").write_text(json.dumps(spec) + "\n")

    def setup(self, sm, in_dir: Path):
        spec = json.loads((in_dir / "continuum.json").read_text())
        occupation = [int(c) for c in spec["start"]]
        rho0 = sm.basis_state(sm.qubit_register(len(occupation)), occupation).density()
        return rho0, spec

    def call(self, sm, ctx, out_dir: Path):
        rho0, spec = ctx
        return sm.compare_stroboscopic(rho0, spec["theta"], spec["phi"], spec["steps"])

    def outputs(self, result, out_dir: Path) -> tuple[object, str]:
        value = {"worst_trace_distance": float(result)}
        return value, hashlib.sha256(repr(value).encode()).hexdigest()

    def extra_check(self, values) -> str | None:
        return None


WORKLOADS = {w.name: w for w in (ChainN10(), StabilizeN8(), VerifyTables(), ContinuumN7())}


def pick_key(workload, seed: int, p: dict) -> str:
    """The input the seed selects; the same seed always selects the same input."""
    keys = workload.keys(p)
    return keys[random.Random(f"{workload.name}:{seed}").randrange(len(keys))]


def compare(ref, got, path: str = "") -> str | None:
    """First difference between a reference and an output, or None.

    Numbers agree within REFERENCE_TOL; everything else must be equal.
    """
    if isinstance(ref, dict) and isinstance(got, dict):
        if sorted(ref) != sorted(got):
            return f"{path}: keys {sorted(got)} != {sorted(ref)}"
        for k in ref:
            diff = compare(ref[k], got[k], f"{path}.{k}")
            if diff:
                return diff
        return None
    if isinstance(ref, list) and isinstance(got, list):
        if len(ref) != len(got):
            return f"{path}: length {len(got)} != {len(ref)}"
        for i, (r, g) in enumerate(zip(ref, got)):
            diff = compare(r, g, f"{path}[{i}]")
            if diff:
                return diff
        return None
    numbers = (int, float)
    if (isinstance(ref, numbers) and isinstance(got, numbers)
            and not isinstance(ref, bool) and not isinstance(got, bool)):
        if abs(ref - got) <= REFERENCE_TOL:
            return None
        return f"{path}: {got!r} differs from reference {ref!r} by more than {REFERENCE_TOL}"
    if ref != got:
        return f"{path}: {got!r} != reference {ref!r}"
    return None
