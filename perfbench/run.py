"""spinmaps benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; spinmaps is imported from its
``src/`` directory, nothing is installed.  With ``--trace 0`` the last
line of standard output holds the end-to-end metrics, with ``--trace 1``
the per-layer metrics (see ``BENCHMARK.json`` and ``perfbench/README.md``).
Every timed call is checked against the stored reference outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracing
import workloads

ROOT = workloads.ROOT
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench"
# Set-up is timed in this many fresh processes per run; the median is reported.
SETUP_SAMPLES = 5
# Every worker is killed this long after the run started.
RUN_DEADLINE_S = 170.0


class BenchmarkError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.update(workloads.BLAS_ENV)
    return env


def _worker(args: list[str], deadline: float) -> tuple[float, dict | None]:
    """Run a worker process; return its set-up time and its final JSON line."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=_child_env(), cwd=ROOT)
    timer = threading.Timer(max(0.0, deadline - t0), proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        lines = proc.stdout.read().splitlines()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if ready.strip() != "READY" or code != 0:
        raise BenchmarkError(f"worker for {args[1]} exited with code {code}")
    if "--setup-only" in args:
        return setup_s, None
    if not lines:
        raise BenchmarkError(f"worker for {args[1]} printed no result")
    return setup_s, json.loads(lines[-1])


def _quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, round(q * len(ordered)) - 1))]


def _environment(worker_env: dict, load: tuple) -> dict:
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas_threads = int(workloads.BLAS_ENV["OPENBLAS_NUM_THREADS"])
    return {"nproc": os.cpu_count(), "cpu_model": model, "python": platform.python_version(),
            **worker_env, "blas_threads": blas_threads, "loadavg_at_start": list(load)}


def run(workload: str, seed: int, seconds: float, trace: bool, scale: str,
        reference: Path) -> tuple[dict, list[str]]:
    """One measurement; returns the result and the report lines before it."""
    deadline = time.perf_counter() + RUN_DEADLINE_S
    if not (ROOT / "src" / "spinmaps" / "__init__.py").is_file():
        raise BenchmarkError(f"no spinmaps sources under {ROOT / 'src'}")
    if not reference.is_file():
        raise BenchmarkError(f"reference file {reference} is missing")
    load = os.getloadavg()
    wl = workloads.WORKLOADS[workload]
    params = wl.scales[scale]
    key = workloads.pick_key(wl, seed, params)
    run_dir = WORK / f"{workload}-{seed}-{os.getpid()}"
    in_dir, out_dir = run_dir / "inputs", run_dir / "outputs"
    shutil.rmtree(run_dir, ignore_errors=True)
    in_dir.mkdir(parents=True)
    out_dir.mkdir()
    try:
        wl.write_inputs(key, params, in_dir)
        base = ["--workload", workload, "--scale", scale, "--inputs", str(in_dir),
                "--outputs", str(out_dir)]
        timed = base + ["--reference", str(reference), "--key", key]
        if trace:
            # half the time untraced, half traced: the ratio is the tracing overhead
            half = ["--seconds", str(seconds / 2)]
            _, plain = _worker(timed + half, deadline)
            spans = ["--trace", str(WORK / f"trace-{workload}.jsonl")]
            _, traced = _worker(timed + half + spans, deadline)
            results = [plain, traced]
        else:
            setups = [_worker(base + ["--setup-only"], deadline)[0]
                      for _ in range(SETUP_SAMPLES - 1)]
            setup_s, main = _worker(timed + ["--seconds", str(seconds)], deadline)
            setups.append(setup_s)
            results = [main]
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    calls = [c for r in results for c in r["calls"]]
    failed = sum(not c["ok"] for c in calls)
    walls = [c["wall_s"] for c in results[0]["calls"]]
    env = _environment(results[0]["environment"], load)
    lines = [json.dumps({"workload": workload, "seed": seed, "input": key, "scale": scale,
                         "environment": env})]
    lines.append(f"fail_frac: {failed / len(calls):.4f} ({failed} of {len(calls)} calls)")
    if trace:
        values = dict(results[1]["layers"])
        traced_walls = [c["wall_s"] for c in results[1]["calls"]]
        values["trace_overhead_frac"] = (statistics.median(traced_walls)
                                         / statistics.median(walls) - 1.0)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in tracing.layer_units().items()}
    else:
        cpus = [c["cpu_s"] for c in calls]
        for name, samples in (("setup_s", setups), ("run_s", walls), ("cpu_s", cpus)):
            lines.append(f"{name}: median {statistics.median(samples):.4f} s, "
                         f"p90 {_quantile(samples, 0.9):.4f} s, max {max(samples):.4f} s, "
                         f"n = {len(samples)}")
        units = wl.units(params)
        steps_per_s = units * len(walls) / sum(walls)
        rss_mb = results[0]["peak_rss_kb"] / 1024.0
        lines.append(f"steps_per_s: {steps_per_s:.4f} 1/s ({units} units per call, "
                     f"{len(walls)} calls)")
        lines.append(f"peak_rss_mb: {rss_mb:.1f} MB")
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "run_s": {"value": statistics.median(walls), "unit": "s"},
            "cpu_s": {"value": statistics.median(cpus), "unit": "s"},
            "steps_per_s": {"value": steps_per_s, "unit": "1/s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        }
    result = {"correct": failed == 0, "attempted": len(calls), "failed": failed,
              "metrics": metrics}
    return result, lines


def main() -> int:
    parser = argparse.ArgumentParser(description="spinmaps benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="input sizes; 'tiny' is for the smoke test")
    parser.add_argument("--reference", type=Path, default=HERE / "reference.json")
    args = parser.parse_args()
    try:
        result, lines = run(args.workload, args.seed, args.seconds, bool(args.trace),
                            args.scale, args.reference)
    except (BenchmarkError, OSError, ValueError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
