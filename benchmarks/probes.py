"""Untimed probes: machine and source facts, known-defect counts, CLI costs.

None of these run inside the timed op loop.  The defect probes keep the
inputs that trigger the defects, so a fix shows up as a count falling to 0
rather than as a change in wall time.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

import numpy as np

from workloads import CLI_VERBS, cli_argv, cli_env

#: Orientation count of each named n=3 recipe's class.
RECIPE_ORIENTATIONS = {"ghz": 3, "w": 2, "s": 1}
#: System sizes at which ``dicke_coefficients`` is probed for a typed error.
LARGE_N_PROBES = (68, 96)
CLI_REPEATS = 5


def machine_info(pinned: dict[str, str]) -> dict:
    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "pinned_threads": pinned,
    }


def git_commit(root: Path) -> str | None:
    """Commit of the checkout read from ``.git``, or None outside a repository."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def source_info(dk, src: Path) -> dict:
    package = src / "dickesim"
    loc = sum(len(p.read_text(encoding="utf-8").splitlines())
              for p in sorted(package.glob("*.py")))
    exported = [name for name, value in vars(dk).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)]
    return {"src.loc": loc, "api.exported_names": len(exported)}


def class_mismatch(dk, rng: np.random.Generator) -> int:
    """Named n=3 recipes whose synthesized orientation count misses their class."""
    count = 0
    for recipe, orientations in RECIPE_ORIENTATIONS.items():
        phi = float(rng.uniform(0.0, 2.0 * math.pi))
        target = dk.dicke_coefficients(getattr(dk, f"{recipe}_config")(3, phi))
        found = dk.classify_from_config(dk.synthesize(target)).distinct_orientations
        count += found != orientations
    return count


def untyped_errors(dk, cli, rng: np.random.Generator, workdir: Path) -> int:
    """Probes that escape as an exception outside the ``DickesimError`` family."""
    def escapes(call) -> bool:
        try:
            call()
        except dk.DickesimError:
            return False
        except Exception:  # noqa: BLE001 - counting exactly these is the probe
            return True
        return False

    count = 0
    for n in LARGE_N_PROBES:
        config = dk.PolarizerConfig.from_angles(rng.uniform(0.0, math.pi, n))
        count += escapes(lambda: dk.dicke_coefficients(config))
    nan_config = workdir / "probe_nan_theta.json"
    nan_config.write_text(json.dumps(
        {"n": 3, "polarizers": [{"theta": float("nan")}, {"theta": 1.0},
                                {"theta": 2.0}]}), encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        count += escapes(lambda: cli.main(["simulate", "--config", str(nan_config)]))
    return count


def _median_ms(samples: list[float]) -> float:
    return statistics.median(samples) * 1e3


def cli_costs(cli, configs: dict[str, Path], workdir: Path, src: Path) -> dict[str, float]:
    """Interpreter start, ``import dickesim`` and in-process verb times (ms)."""
    env = cli_env(src)
    bare, imports = [], []
    timer = ("import time; t = time.perf_counter(); import dickesim; "
             "print(time.perf_counter() - t)")
    for _ in range(CLI_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)
        bare.append(time.perf_counter() - t0)
        out = subprocess.run([sys.executable, "-c", timer], env=env, check=True,
                             capture_output=True, text=True).stdout
        imports.append(float(out))
    costs = {"cli.interpreter_ms": _median_ms(bare),
             "cli.import_ms": _median_ms(imports)}
    for verb in CLI_VERBS:
        argv = cli_argv(verb, configs[verb], workdir)
        times = []
        for _ in range(CLI_REPEATS):
            with contextlib.redirect_stdout(io.StringIO()):
                t0 = time.perf_counter()
                code = cli.main(argv)
                times.append(time.perf_counter() - t0)
            if code != 0:
                raise RuntimeError(f"in-process {verb} exited with {code}")
        costs[f"cli.{verb}.inproc_ms"] = _median_ms(times)
    return costs
