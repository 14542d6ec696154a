"""Smoke test of the benchmark itself (not of the package).

Run from the repository root::

    python3 -m pytest -q benchmarks/test_smoke.py

A tiny run of every workload in both modes must print each metric with its
unit and pass its checks; the window-mc gate must trip on a wrong reference.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
#: cli-verbs is not in BENCHMARK.json (too unsteady on a shared 2-vCPU
#: machine to gate) but stays runnable by hand, so it is smoke-tested too.
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + ["cli-verbs"]

#: End-to-end metrics every untraced run prints, with their units.
COMMON_E2E = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
              "op_tail_ms": "ms", "ops_failed_frac": "frac", "peak_rss_mb": "MB"}
WORKLOAD_E2E = {
    "window-mc": {"mc_samples_per_s": "1/s"},
    "cli-verbs": {f"cli_{verb}_ms": "ms" for verb in
                  ("simulate", "synthesize", "classify", "pyramid", "fidelity")},
}


def run_bench(workload: str, trace: int, cwd: Path = ROOT, seconds: str = "0.5"):
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", "3",
         "--seconds", seconds, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def printed_metrics(stdout: str) -> dict[str, str]:
    """``name -> unit`` from the human-readable metric lines."""
    out = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) >= 3 and not line.startswith(("#", "{")):
            out[parts[0]] = parts[2]
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_prints_every_metric(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    printed = printed_metrics(proc.stdout)
    expected = {m["name"]: m["unit"] for m in listed}
    if not trace:
        expected.update(COMMON_E2E)
        expected.update(WORKLOAD_E2E.get(workload, {}))
    for name, unit in expected.items():
        assert printed.get(name) == unit, f"{name} not printed in {unit}"


def test_gate_trips_on_wrong_reference():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import run
    import workloads

    reference = run.load_reference()
    wrong = copy.deepcopy(reference)
    wrong["ghz3"]["mean"] -= 0.05
    dk = run.fresh_import()
    lib = workloads.make_lib(dk)
    right_run = run.measure(workloads.make_workload(
        "window-mc", lib, 3, ROOT / ".bench_out", ROOT / "src", reference), lib, 0.1)
    wrong_run = run.measure(workloads.make_workload(
        "window-mc", lib, 3, ROOT / ".bench_out", ROOT / "src", wrong), lib, 0.1)
    assert right_run.failures == {}
    assert wrong_run.failures
    assert all("ghz3" in message for message in wrong_run.failures.values())


def test_cli_check_rejects_nan_record():
    sys.path[:0] = [str(HERE)]
    import workloads

    record = b'{"fidelity_estimate": {"mean_fidelity": NaN}}'
    assert "strict JSON" in workloads.check_cli_record("fidelity", record)


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("design-verify", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
