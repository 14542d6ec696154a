"""Regenerate ``reference.json``, the Monte Carlo means window-mc is checked against.

Run from the repository root::

    python3 benchmarks/make_reference.py

Each case of ``workloads.WINDOW_CASES`` (except the exact control) gets one
long ``estimate_fidelity`` run at a seed above 2**40, which the workload's
op seeds (below 2**31) never reach.  Only rerun this when the physics of a
case changes: a change of random stream alone leaves the means where they
are, and the stored values keep such a change checkable.
"""

from __future__ import annotations

import json
import math
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_SEED = 2 ** 40
#: Samples per reference entry; n=8 costs about ten times more per sample.
SAMPLES = 20000
SAMPLES_N8 = 4000


def main() -> int:
    os.environ.update({"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"})
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
    import dickesim
    import workloads

    lib = workloads.make_lib(dickesim)
    cases = {}
    for index, (label, state, n, _) in enumerate(workloads.WINDOW_CASES):
        if label == "control4":
            continue
        config, geometries = workloads.window_case_inputs(lib, label, state, n)
        for key, geometry in zip(workloads.reference_keys(label), geometries):
            seed = REFERENCE_SEED + index
            samples = SAMPLES_N8 if n == 8 else SAMPLES
            est = lib.estimate_fidelity(config, geometry, samples=samples, seed=seed)
            cases[key] = {"mean": est.mean_fidelity, "se": est.standard_error,
                          "sd": est.standard_error * math.sqrt(est.sample_count),
                          "samples": est.sample_count, "seed": seed}
            print(f"{key:14s} {est.mean_fidelity:.6f} +- {est.standard_error:.6f} "
                  f"({est.sample_count} samples)")
    out = {"about": "estimate_fidelity reference means for window-mc, "
                    "from benchmarks/make_reference.py",
           "cases": cases}
    (HERE / "reference.json").write_text(json.dumps(out, indent=1) + "\n",
                                         encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
