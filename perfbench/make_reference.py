"""Regenerate the stored reference outputs of every workload input.

    python3 perfbench/make_reference.py [--scale full|tiny] [--out FILE]

Runs each workload once on every input a seed can select and stores the
outputs the correctness gate compares against.  The committed
``reference.json`` was made this way from the commit that introduced the
benchmark; regenerate it only when a change is meant to alter the outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

from workloads import BLAS_ENV, ROOT, WORKLOADS


def make_reference(scale: str) -> dict:
    os.environ.update(BLAS_ENV)  # before numpy loads, as in the timed runs
    sys.path.insert(0, str(ROOT / "src"))
    import spinmaps
    import spinmaps.cli

    work = ROOT / ".perfbench"
    work.mkdir(exist_ok=True)
    reference: dict = {}
    for wl in WORKLOADS.values():
        params = wl.scales[scale]
        entries = {}
        for key in wl.keys(params):
            with tempfile.TemporaryDirectory(dir=work) as tmp:
                in_dir, out_dir = Path(tmp, "in"), Path(tmp, "out")
                in_dir.mkdir()
                out_dir.mkdir()
                wl.write_inputs(key, params, in_dir)
                result = wl.call(spinmaps, wl.setup(spinmaps, in_dir), out_dir)
                entries[key], _ = wl.outputs(result, out_dir)
            print(f"{wl.name} {key}", file=sys.stderr, flush=True)
        reference[wl.name] = entries
    return reference


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--out", type=Path, default=Path(__file__).with_name("reference.json"))
    args = parser.parse_args()
    reference = make_reference(args.scale)
    args.out.write_text(json.dumps({"scale": args.scale, "workloads": reference},
                                   sort_keys=True, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
