"""Spans around the public functions of each spinmaps module, for the traced run.

Every wrapper is bound wherever a spinmaps module looks the name up: a
function imported with ``from .register import apply_local_kraus`` lives
on in ``maps``, ``channels`` and ``protocols``, so patching ``register``
alone would miss those calls.  ``DensityOperator.__post_init__`` is wrapped
on the class.  Spans stay in memory until the run ends.

The byte counts are computed from array sizes and file sizes; they ignore
cache effects.
"""

from __future__ import annotations

import functools
import json
import pathlib
import sys
import time
from collections import defaultdict


class Recorder:
    """In-memory span log: (name, phase, parent index, start, end)."""

    def __init__(self) -> None:
        self.phase = "setup"
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.open_names: dict[str, int] = defaultdict(int)
        self.sums: dict[tuple[str, str], float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)

    def add(self, name: str, value: float) -> None:
        self.sums[(self.phase, name)] += value

    def peak(self, name: str, value: float) -> None:
        self.maxima[name] = max(self.maxima[name], float(value))

    def wrap(self, name: str, fn, after=None):
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if rec.open_names[name]:  # re-entry into the same layer is one span
                result = fn(*args, **kwargs)
                if after is not None:
                    after(rec, args, result)
                return result
            parent = rec.stack[-1] if rec.stack else -1
            index = len(rec.spans)
            span = [name, rec.phase, parent, time.perf_counter(), None]
            rec.spans.append(span)
            rec.stack.append(index)
            rec.open_names[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                rec.stack.pop()
                rec.open_names[name] -= 1
            if after is not None:
                after(rec, args, result)
            return result

        return traced

    def write(self, path: pathlib.Path) -> None:
        with open(path, "w") as fh:
            for name, phase, parent, start, end in self.spans:
                fh.write(json.dumps({"name": name, "phase": phase, "parent": parent,
                                     "start": start, "end": end}) + "\n")

    def layer_metrics(self, n_calls: int) -> dict[str, float]:
        """Per-layer values for one set-up plus one workload call.

        Set-up spans count once; spans and counts of the timed calls are
        divided by the number of calls.  Maxima are taken over the run.
        """
        child_time: dict[int, float] = defaultdict(float)
        for name, phase, parent, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = {}
        for span_name in SPAN_NAMES:
            out[f"{span_name}.calls"] = 0.0
            out[f"{span_name}.busy_s"] = 0.0
            out[f"{span_name}.self_s"] = 0.0
        for index, (name, phase, parent, start, end) in enumerate(self.spans):
            weight = 1.0 if phase == "setup" else 1.0 / n_calls
            out[f"{name}.calls"] += weight
            out[f"{name}.busy_s"] += weight * (end - start)
            out[f"{name}.self_s"] += weight * (end - start - child_time[index])
        for count in SUM_COUNTS:
            out[count] = (self.sums[("setup", count)]
                          + self.sums[("calls", count)] / n_calls)
        for count in MAX_COUNTS:
            out[count] = self.maxima[count]
        nfev = out["cli.frame_fit.nfev"]
        out["cli.frame_fit.us_per_eval"] = (
            1e6 * out["cli.frame_fit.busy_s"] / nfev if nfev else 0.0)
        return out


def _validated(rec, args, result):
    state = args[0]
    rec.peak("register.validate.dim_max", state.layout.dim)
    rec.peak("register.state_bytes", state.matrix.nbytes)


def _kraus_bytes(rec, args, result):
    # one read and one write of the full state per application
    rec.add("register.apply_local_kraus.bytes_computed", 2 * args[0].nbytes)


def _states_held(rec, args, result):
    rec.peak("cli.states_held", len(result[1]))


def _rk4_steps(rec, args, result):
    rec.add("lindblad.rk4_steps", len(result) - 1)


def _written(rec, args, result):
    rec.add("cli.write.bytes", args[0].stat().st_size)


def _frame_fit(rec, args, result):
    rec.add("cli.frame_fit.nfev", result.nfev)


# (span, module that defines the name, name, count hook)
TARGETS = [
    ("register.apply_local_kraus", "spinmaps.register", "apply_local_kraus", _kraus_bytes),
    ("register.apply_local_operator", "spinmaps.register", "apply_local_operator", None),
    ("register.partial_trace", "spinmaps.register", "partial_trace", None),
    ("maps.sweep", "spinmaps.maps", "composite_dissipative_sweep", None),
    ("maps.hamiltonian", "spinmaps.maps", "apply_hamiltonian_map", None),
    ("observables.fidelity", "spinmaps.observables", "dicke_fidelity", None),
    ("observables.purity", "spinmaps.observables", "purity", None),
    ("observables.populations", "spinmaps.observables", "subspace_populations", None),
    ("observables.offdiag", "spinmaps.observables", "offdiag_order", None),
    ("protocols.stabilize", "spinmaps.protocols", "stabilize", None),
    ("protocols.postselect", "spinmaps.protocols", "postselect", None),
    ("channels.choi", "spinmaps.channels", "choi", None),
    ("channels.process_fidelity", "spinmaps.channels", "process_fidelity", None),
    ("channels.trace_distance", "spinmaps.channels", "trace_distance", None),
    ("lindblad.integrate", "spinmaps.lindblad", "integrate", _rk4_steps),
    ("gateset.parse_sequence", "spinmaps.gateset", "parse_sequence", None),
    ("gateset.sequence_unitary", "spinmaps.gateset", "sequence_unitary", None),
    ("gateset.sequence_channel", "spinmaps.gateset", "sequence_channel", None),
    ("cli.parse", "spinmaps.cli", "parse_config", None),
    ("cli.execute", "spinmaps.cli", "execute", _states_held),
    ("cli.write", "spinmaps.cli", "dump_state", None),
    ("cli.frame_fit", "spinmaps.cli", "minimize", _frame_fit),
]
SPAN_NAMES = ["register.validate"] + [t[0] for t in TARGETS]
SUM_COUNTS = ["register.apply_local_kraus.bytes_computed", "lindblad.rk4_steps",
              "cli.write.bytes", "cli.frame_fit.nfev"]
MAX_COUNTS = ["register.validate.dim_max", "register.state_bytes", "cli.states_held"]


def layer_units() -> dict[str, str]:
    """Name and unit of every per-layer metric of a traced run."""
    units = {}
    for span in SPAN_NAMES:
        units.update({f"{span}.calls": "count", f"{span}.busy_s": "s", f"{span}.self_s": "s"})
    units.update({
        "register.validate.dim_max": "count",
        "register.state_bytes": "B",
        "register.apply_local_kraus.bytes_computed": "B",
        "cli.states_held": "count",
        "cli.write.bytes": "B",
        "cli.frame_fit.nfev": "count",
        "cli.frame_fit.us_per_eval": "us",
        "lindblad.rk4_steps": "count",
        "trace_overhead_frac": "frac",
    })
    return units


def install(rec: Recorder) -> list[str]:
    """Wrap every target; returns the targets this version of spinmaps lacks."""
    import spinmaps.cli  # noqa: F401  (loads every spinmaps module)
    from spinmaps.register import DensityOperator

    modules = [m for name, m in sys.modules.items()
               if name == "spinmaps" or name.startswith("spinmaps.")]
    missing = []
    for span, module_name, attr, after in TARGETS:
        original = getattr(sys.modules.get(module_name), attr, None)
        if original is None:
            missing.append(f"{module_name}.{attr}")
            continue
        wrapper = rec.wrap(span, original, after)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
    DensityOperator.__post_init__ = rec.wrap(
        "register.validate", DensityOperator.__post_init__, _validated)
    # Every output file spinmaps writes goes through Path.write_text.
    pathlib.Path.write_text = rec.wrap("cli.write", pathlib.Path.write_text, _written)
    return missing
