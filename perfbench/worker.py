"""One benchmark process: set up a workload, then time calls into spinmaps.

Started by ``run.py`` as a fresh interpreter with spinmaps' sources on
PYTHONPATH and a fixed BLAS thread count.  It prints ``READY`` once set-up
is done (the parent times set-up up to that line), and, unless
``--setup-only``, calls the workload until ``--seconds`` is used up, checks
every call's outputs, and prints one JSON line with the results.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
from pathlib import Path

import workloads


def _environment(sm) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"spinmaps_file": sm.__file__, "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}"}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--scale", required=True)
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--outputs", type=Path, required=True)
    parser.add_argument("--reference", type=Path)
    parser.add_argument("--key")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=Path, help="write spans here and report per-layer numbers")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    wl = workloads.WORKLOADS[args.workload]

    import spinmaps
    import spinmaps.cli

    recorder = None
    if args.trace is not None:
        import tracing

        recorder = tracing.Recorder()
        missing = tracing.install(recorder)
        if missing:
            print(f"note: not traced (absent): {', '.join(missing)}", file=sys.stderr)
    ctx = wl.setup(spinmaps, args.inputs)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    reference = json.loads(args.reference.read_text())["workloads"][args.workload][args.key]
    if recorder is not None:
        recorder.phase = "calls"
    calls = []
    first_digest = None
    start = time.perf_counter()
    while True:
        gc.collect()
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            result = wl.call(spinmaps, ctx, args.outputs)
            error = None
        except Exception as exc:  # a failed call is counted, and the run goes on
            error = f"{type(exc).__name__}: {exc}"
        t1, c1 = time.perf_counter(), time.process_time()
        if error is None:
            try:
                values, digest = wl.outputs(result, args.outputs)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                error = f"unreadable outputs: {type(exc).__name__}: {exc}"
        if error is None:
            first_digest = first_digest or digest
            error = workloads.compare(reference, values, args.workload) or wl.extra_check(values)
            if error is None and digest != first_digest:
                error = "outputs are not byte-identical to the first call's"
        if error is not None:
            print(f"call {len(calls) + 1} failed: {error}", file=sys.stderr)
        calls.append({"wall_s": t1 - t0, "cpu_s": c1 - c0, "ok": error is None})
        if len(calls) >= 2 and (t1 - start) + (t1 - t0) > args.seconds:
            break

    out = {
        "calls": calls,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "environment": _environment(spinmaps),
    }
    if recorder is not None:
        recorder.write(args.trace)
        out["layers"] = recorder.layer_metrics(len(calls))
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
