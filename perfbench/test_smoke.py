"""Smoke test of the benchmark at tiny register sizes.

    python3 -m pytest perfbench/test_smoke.py

Checks that every metric of BENCHMARK.json is printed with its unit, in
both the untraced and the traced run, and that the correctness gate trips
on a corrupted reference.  No timing is asserted.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture(scope="module")
def reference(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("reference") / "reference.json"
    subprocess.run([sys.executable, str(HERE / "make_reference.py"), "--scale", "tiny",
                    "--out", str(out)], check=True, capture_output=True, timeout=300)
    return out


def _run(workload: str, trace: int, reference: Path) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--scale", "tiny",
         "--reference", str(reference)],
        capture_output=True, text=True, timeout=180)
    return proc.returncode, proc.stdout.splitlines()


@pytest.mark.parametrize("workload", NAMES)
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_printed(workload, trace, section, reference):
    code, lines = _run(workload, trace, reference)
    assert code == 0
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 2
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in SPEC[section]}
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    assert any(line.startswith("fail_frac: 0.0000") for line in lines)
    assert "loadavg_at_start" in json.loads(lines[0])["environment"]


def _corrupt(node) -> bool:
    """Shift the first float in a nested structure by 1e-6."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if isinstance(value, float):
            node[key] = value + 1e-6
            return True
        if isinstance(value, (dict, list)) and _corrupt(value):
            return True
    return False


@pytest.mark.parametrize("workload", NAMES)
def test_gate_trips_on_corrupted_reference(workload, reference, tmp_path):
    data = json.loads(reference.read_text())
    for entry in data["workloads"][workload].values():
        assert _corrupt(entry)
    corrupted = tmp_path / "corrupted.json"
    corrupted.write_text(json.dumps(data))
    code, lines = _run(workload, 0, corrupted)
    assert code == 1
    result = json.loads(lines[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 2


def test_layer_map_names_every_per_layer_metric():
    groups = json.loads((HERE / "layers.json").read_text())["groups"]
    mapped = set()
    for group in groups:
        mapped |= {f"{s}.{part}" for s in group["spans"] for part in ("calls", "busy_s", "self_s")}
        mapped |= set(group["counts"])
    assert mapped == {m["name"] for m in SPEC["per_layer"]}


def test_stored_reference_covers_every_input():
    stored = json.loads((HERE / "reference.json").read_text())
    assert stored["scale"] == "full"
    for name, wl in workloads.WORKLOADS.items():
        assert sorted(stored["workloads"][name]) == sorted(wl.keys(wl.scales["full"]))
