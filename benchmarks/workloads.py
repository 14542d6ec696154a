"""The four benchmark workloads: seeded inputs, ops and correctness checks.

Every workload is a closed loop with one caller at concurrency 1.  An op is
one unit of caller work; a workload repeats a fixed cycle of op kinds and
only the input values (random coefficients, angles, Monte Carlo seeds) come
from the seed.  The sizes and the mix never depend on the seed, so runs on
different seeds measure the same amount of work.

* ``window-mc``: detection-window Monte Carlo (``estimate_fidelity``), the
  hot path where ``window`` and the ``core`` detection kernel do the work.
* ``design-verify``: inverse design and round trip at n = 3..64, many small
  calls and no ``3**n`` register.
* ``oracle-check``: the dense register oracle and the string-keyed pyramid
  at n = 3..9 against the closed form.
* ``cli-verbs``: one ``python -m dickesim <verb>`` subprocess per op; run
  by hand, as ``BENCHMARK.json`` does not gate it.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable

import numpy as np

#: Round-trip fidelity below ``1 - ROUND_TRIP_TOL`` fails a design op.
ROUND_TRIP_TOL = 1e-9
#: Allowed gap between the closed-form and hyperdeterminant tangles.
TANGLE_TOL = 1e-8
#: Allowed gap between oracle, pyramid and closed-form coefficients.
ORACLE_TOL = 1e-10
#: The zero-window, zero-jitter control must return fidelity 1 this closely.
CONTROL_TOL = 1e-12
#: Pooled Monte Carlo means must lie within this many combined standard
#: errors of the stored reference.
MC_Z_LIMIT = 5.0

# Public library entry points the workloads call, with the span name and the
# system size recorded for each call.
_N_CONFIG = lambda a, k: len(a[0])  # noqa: E731
_N_STATE = lambda a, k: a[0].n  # noqa: E731
_N3 = lambda a, k: 3  # noqa: E731
TRACED_CALLS = {
    "estimate_fidelity": ("window.estimate_fidelity", _N_CONFIG),
    "apply_detection": ("core.apply_detection", _N_STATE),
    "project_symmetric": ("core.project_symmetric", _N_STATE),
    "fidelity": ("core.fidelity", _N_STATE),
    "dicke_coefficients": ("cascade.dicke_coefficients", _N_CONFIG),
    "build_pyramid": ("cascade.build_pyramid", _N_CONFIG),
    "pyramid_edges": ("cascade.pyramid_edges", _N_CONFIG),
    "synthesize": ("synthesis.synthesize", _N_STATE),
    "entanglement_report": ("entanglement.entanglement_report", _N3),
    "classify_from_config": ("entanglement.classify_from_config", _N3),
    "tangle_closed_form": ("entanglement.tangle_closed_form", _N3),
    "tangle_hyperdeterminant": ("entanglement.tangle_hyperdeterminant", _N3),
}
_HELPERS = ("DetectionGeometry", "EmitterRegister", "SymmetricState",
            "Polarizer", "PolarizerConfig", "ghz_config", "w_config", "s_config")


def make_lib(dk, tracer=None) -> SimpleNamespace:
    """The library surface the ops use, with spans around it when ``tracer``."""
    lib = SimpleNamespace(**{name: getattr(dk, name) for name in _HELPERS})
    for attr, (span, size) in TRACED_CALLS.items():
        fn = getattr(dk, attr)
        if tracer is not None:
            samples = ((lambda a, k: k["samples"])
                       if attr == "estimate_fidelity" else None)
            fn = tracer.wrap(span, fn, size, samples)
        setattr(lib, attr, fn)
    return lib


@dataclass
class Op:
    """One unit of caller work: ``run(lib)`` is timed, ``check`` is not.

    ``check(result, op_id)`` returns ``None`` when the result is right, else
    a message.
    """

    kind: str
    run: Callable[[SimpleNamespace], Any]
    check: Callable[[Any, int], str | None]
    samples: int = 0


class Workload:
    """A fixed cycle of op kinds with fresh seeded inputs in every cycle.

    Cycle ``c`` draws its inputs from ``default_rng([seed, c])``, so no input
    repeats within a run and a run never depends on how far an earlier one
    got.
    """

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def cycle(self, c: int) -> list[Op]:
        return self.ops(np.random.default_rng([self.seed, c]))

    def ops(self, rng: np.random.Generator) -> list[Op]:
        raise NotImplementedError

    def finish(self) -> dict[int, str]:
        """Checks that need the whole run: failing op ids mapped to a message."""
        return {}

    def counters(self) -> dict[str, float]:
        """Counts the workload keeps while it runs (reported by the trace)."""
        return {}


def _pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


# ---------------------------------------------------------------------------
# window-mc
# ---------------------------------------------------------------------------

#: Window halfangles (degrees) of the paired n=4 sweep.
SWEEP_HALFANGLES_DEG = (0.0, 0.25, 0.5, 1.0)

#: ``(label, state, n, samples per call)`` in cycle order.  The sample
#: counts put every op except n=8 and the sweep near the same duration, so
#: the median op sits inside that cluster.  They also keep ops short: a
#: 30-second run has about two thousand, so op_tail_ms is p99 even on a
#: slow stretch of the machine.  ``sweep4`` makes one call per halfangle
#: with a shared seed, the pattern of ``fidelity --sweep``; ``control4`` has
#: zero window and zero jitter.
WINDOW_CASES = (
    ("ghz3", "ghz", 3, 48),
    ("ghz4", "ghz", 4, 36),
    ("ghz5", "ghz", 5, 26),
    ("ghz6", "ghz", 6, 18),
    ("ghz8", "ghz", 8, 16),
    ("w5", "w", 5, 26),
    ("sweep4", "ghz", 4, 12),
    ("control4", "ghz", 4, 36),
)


def window_case_inputs(lib, label: str, state: str, n: int):
    """Configuration and one geometry per call for a ``WINDOW_CASES`` entry."""
    config = (lib.ghz_config if state == "ghz" else lib.w_config)(n, 0.0)
    chain = lib.DetectionGeometry.linear_chain
    if label == "sweep4":
        geometries = [chain(n, window_halfangle=math.radians(h))
                      for h in SWEEP_HALFANGLES_DEG]
    elif label == "control4":
        geometries = [chain(n, transverse_sigma=0.0, window_halfangle=0.0)]
    else:
        geometries = [chain(n)]
    return config, geometries


def reference_keys(label: str) -> list[str]:
    """Reference entries checked for one case, one per call."""
    if label == "sweep4":
        return [f"sweep4@{h}" for h in SWEEP_HALFANGLES_DEG]
    return [label]


class WindowMC(Workload):
    def __init__(self, lib, seed: int, reference: dict) -> None:
        super().__init__(seed)
        self.reference = reference
        self.cases = []
        for label, state, n, samples in WINDOW_CASES:
            config, geometries = window_case_inputs(lib, label, state, n)
            self.cases.append((label, n, samples, config, geometries))
        self.estimates: dict[str, list] = defaultdict(list)
        self.samples = 0
        self.excluded = 0

    def ops(self, rng):
        # Op seeds stay below 2**31; the reference was drawn at a seed above.
        seeds = rng.integers(0, 2 ** 31, size=len(self.cases))
        return [self._op(case, int(seed)) for case, seed in zip(self.cases, seeds)]

    def _op(self, case, seed: int) -> Op:
        label, n, samples, config, geometries = case

        def run(lib):
            return [lib.estimate_fidelity(config, geo, samples=samples, seed=seed)
                    for geo in geometries]

        def check(estimates, op_id):
            for key, est in zip(reference_keys(label), estimates):
                self.samples += est.sample_count + est.excluded_count
                self.excluded += est.excluded_count
                if est.sample_count + est.excluded_count != samples:
                    return f"{key}: {est.sample_count}+{est.excluded_count} != {samples} samples"
                if not 0.0 <= est.mean_fidelity <= 1.0 + CONTROL_TOL:
                    return f"{key}: mean fidelity {est.mean_fidelity!r} outside [0, 1]"
                if label == "control4":
                    if abs(est.mean_fidelity - 1.0) > CONTROL_TOL:
                        return f"control: mean fidelity {est.mean_fidelity!r} != 1"
                else:
                    self.estimates[key].append((op_id, est))
            return None

        return Op(label, run, check, samples * len(geometries))

    def finish(self) -> dict[int, str]:
        """Pool each case over the run and compare it with the reference."""
        failures = {}
        for key, entries in self.estimates.items():
            z, mean = pooled_z(entries, self.reference[key])
            if abs(z) > MC_Z_LIMIT:
                for op_id, _ in entries:
                    failures[op_id] = (f"{key}: pooled mean {mean:.6f} is {z:+.2f} "
                                       f"combined standard errors from the reference "
                                       f"{self.reference[key]['mean']:.6f}")
        return failures

    def counters(self) -> dict[str, float]:
        return {"window.samples": self.samples,
                "window.excluded_samples": self.excluded}


def pooled_z(entries, ref: dict) -> tuple[float, float]:
    """Distance of the pooled run mean from ``ref`` in combined standard errors.

    The run's own sample spread is floored at the reference spread: a few
    dozen samples of a skewed fidelity distribution often underestimate it.
    """
    counts = np.array([e.sample_count for _, e in entries], dtype=float)
    means = np.array([e.mean_fidelity for _, e in entries])
    variances = np.array([(e.standard_error ** 2) * e.sample_count for _, e in entries])
    total = counts.sum()
    mean = float((counts * means).sum() / total)
    within = ((counts - 1) * variances).sum()
    between = (counts * (means - mean) ** 2).sum()
    sd = math.sqrt((within + between) / max(total - 1, 1))
    se = max(sd, ref["sd"]) / math.sqrt(total)
    return (mean - ref["mean"]) / math.hypot(se, ref["se"]), mean


# ---------------------------------------------------------------------------
# design-verify
# ---------------------------------------------------------------------------

#: Sizes of the random targets in one cycle: n=3 is the majority (and the
#: named GHZ/W/S recipes add three more), the rest spread up to 64.
DESIGN_SIZES = (3,) * 12 + (4, 5, 6, 8, 10, 12, 16, 20, 24, 32, 40, 48, 64)
NAMED_RECIPES = ("ghz", "w", "s")


class DesignVerify(Workload):
    def __init__(self, lib, seed: int) -> None:
        super().__init__(seed)
        self.lib = lib

    def ops(self, rng):
        ops = []
        for n in DESIGN_SIZES:
            raw = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
            ops.append(self._op("random", self.lib.SymmetricState.from_raw(n, raw)))
        for recipe in NAMED_RECIPES:
            phi = float(rng.uniform(0.0, 2.0 * math.pi))
            config = getattr(self.lib, f"{recipe}_config")(3, phi)
            ops.append(self._op(recipe, self.lib.dicke_coefficients(config)))
        return ops

    @staticmethod
    def _op(kind: str, target) -> Op:
        n = target.n

        def run(lib):
            config = lib.synthesize(target)
            achieved = lib.dicke_coefficients(config)
            round_trip = lib.fidelity(achieved, target)
            if n != 3:
                return round_trip, None, None
            lib.entanglement_report(achieved)
            lib.classify_from_config(config)
            return (round_trip, lib.tangle_closed_form(config),
                    lib.tangle_hyperdeterminant(target))

        def check(result, op_id):
            round_trip, closed, hyper = result
            if not round_trip >= 1.0 - ROUND_TRIP_TOL:
                return f"n={n} {kind}: round-trip fidelity {round_trip!r}"
            if closed is not None and not abs(closed - hyper) <= TANGLE_TOL:
                return f"n=3 {kind}: closed-form tangle {closed!r} != hyperdeterminant {hyper!r}"
            return None

        return Op(f"{kind}{n}", run, check)


# ---------------------------------------------------------------------------
# oracle-check
# ---------------------------------------------------------------------------

ORACLE_SIZES = (3, 4, 5, 6, 7, 8, 9)
#: The pyramid keeps every intermediate ket as a string; above n=8 it is
#: left out of the op.
PYRAMID_MAX_N = 8


def symmetric_from_kets(n: int, terms: dict) -> np.ndarray:
    """Normalized symmetric coefficients of a fully de-excited ket dict."""
    raw = np.zeros(n + 1, dtype=complex)
    for ket, amp in terms.items():
        raw[ket.count("-")] += amp
    raw /= np.sqrt([math.comb(n, k) for k in range(n + 1)])
    return raw / np.linalg.norm(raw)


class OracleCheck(Workload):
    def __init__(self, lib, seed: int) -> None:
        super().__init__(seed)
        self.lib = lib

    def ops(self, rng):
        ops = []
        for n in ORACLE_SIZES:
            comps = rng.normal(size=(n, 4))
            ops.append(self._op(self.lib.PolarizerConfig(tuple(
                self.lib.Polarizer(complex(a, b), complex(c, d))
                for a, b, c, d in comps))))
        return ops

    @staticmethod
    def _op(config) -> Op:
        n = len(config)

        def run(lib):
            register = lib.EmitterRegister.ground(n)
            for polarizer in config:
                register = lib.apply_detection(register, polarizer)
            oracle = lib.project_symmetric(register)
            closed = lib.dicke_coefficients(config)
            if n > PYRAMID_MAX_N:
                return oracle, closed, None, None
            levels = lib.build_pyramid(config)
            return oracle, closed, levels, lib.pyramid_edges(config, levels)

        def check(result, op_id):
            oracle, closed, levels, edges = result
            gap = float(np.abs(oracle.coeffs - closed.coeffs).max())
            if not gap <= ORACLE_TOL:
                return f"n={n}: oracle differs from closed form by {gap:.3e}"
            if levels is None:
                return None
            gap = float(np.abs(symmetric_from_kets(n, levels[-1].terms)
                               - closed.coeffs).max())
            if not gap <= ORACLE_TOL:
                return f"n={n}: last pyramid level differs from closed form by {gap:.3e}"
            expected = sum(2 * len(levels[m].terms) * (n - m) for m in range(n))
            if len(edges) != expected:
                return f"n={n}: {len(edges)} pyramid edges, expected {expected}"
            return None

        return Op(f"n{n}", run, check)


# ---------------------------------------------------------------------------
# cli-verbs
# ---------------------------------------------------------------------------

CLI_VERBS = ("simulate", "synthesize", "classify", "pyramid", "fidelity")


def write_cli_configs(lib, rng: np.random.Generator, workdir: Path) -> dict[str, Path]:
    """One seeded JSON config per verb, written under ``workdir``.

    The fidelity geometry spells out every parameter, so the record does not
    depend on the CLI's geometry defaults.
    """
    def ghz(phi):
        return [{"alpha": _pair(p.alpha), "beta": _pair(p.beta)}
                for p in lib.ghz_config(3, phi)]

    target = rng.normal(size=5) + 1j * rng.normal(size=5)
    configs = {
        "simulate": {"n": 3, "polarizers": [
            {"theta": float(t)} for t in rng.uniform(0.0, math.pi, 3)]},
        "synthesize": {"n": 4, "target": [_pair(z) for z in target]},
        "classify": {"n": 3, "polarizers": ghz(float(rng.uniform(0.0, 2 * math.pi)))},
        "pyramid": {"n": 4, "polarizers": [
            {"theta": float(t)} for t in rng.uniform(0.0, math.pi, 4)]},
        "fidelity": {"n": 3, "polarizers": ghz(float(rng.uniform(0.0, 2 * math.pi))),
                     "samples": 100, "seed": int(rng.integers(0, 2 ** 31)),
                     "geometry": {"spacing": 5e-6, "transverse_sigma": 5e-9,
                                  "wavelength": 4.93e-7,
                                  "window_halfangle": math.radians(0.5)}},
    }
    workdir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for verb, cfg in configs.items():
        paths[verb] = workdir / f"{verb}.json"
        paths[verb].write_text(json.dumps(cfg, indent=1), encoding="utf-8")
    return paths


def cli_record_path(verb: str, workdir: Path) -> Path | None:
    """Where a verb's record goes; None for stdout.

    ``pyramid`` prints text to stdout and writes its JSON record only with
    ``--out``.
    """
    return workdir / "pyramid.out.json" if verb == "pyramid" else None


def cli_argv(verb: str, config: Path, workdir: Path) -> list[str]:
    argv = [verb, "--config", str(config)]
    out = cli_record_path(verb, workdir)
    return argv + ["--out", str(out)] if out else argv


def cli_env(src: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    return env


class CliVerbs(Workload):
    def __init__(self, lib, seed: int, workdir: Path, src: Path) -> None:
        super().__init__(seed)
        self.workdir = workdir
        self.configs = write_cli_configs(lib, np.random.default_rng(seed), workdir)
        self.env = cli_env(src)
        self.first_output: dict[str, bytes] = {}

    def ops(self, rng):
        return [self._op(verb) for verb in CLI_VERBS]

    def _op(self, verb: str) -> Op:
        argv = [sys.executable, "-m", "dickesim"] + cli_argv(
            verb, self.configs[verb], self.workdir)
        out_path = cli_record_path(verb, self.workdir)

        def run(lib):
            proc = subprocess.run(argv, env=self.env, capture_output=True)
            output = out_path.read_bytes() if out_path and proc.returncode == 0 else proc.stdout
            return proc.returncode, output, proc.stderr

        def check(result, op_id):
            code, output, stderr = result
            if code != 0:
                return f"{verb}: exit code {code}: {stderr.decode(errors='replace')[-300:]}"
            error = check_cli_record(verb, output)
            if error:
                return error
            first = self.first_output.setdefault(verb, output)
            if output != first:
                return f"{verb}: output differs from the first run of the same config"
            return None

        return Op(verb, run, check)


def check_cli_record(verb: str, output: bytes) -> str | None:
    """Strict-JSON and content checks on one verb's record."""
    try:
        record = json.loads(output)
        json.dumps(record, allow_nan=False)
    except ValueError as exc:
        return f"{verb}: record is not strict JSON: {exc}"
    if verb == "synthesize":
        fid = record["verification"]["round_trip_fidelity"]
        if not fid >= 1.0 - ROUND_TRIP_TOL:
            return f"synthesize: round-trip fidelity {fid!r}"
    elif verb == "classify" and record["agreement"] is not True:
        return "classify: config and state classes disagree"
    elif verb == "fidelity":
        mean = record["fidelity_estimate"]["mean_fidelity"]
        if not 0.0 < mean <= 1.0:
            return f"fidelity: mean fidelity {mean!r} outside (0, 1]"
    return None


def make_workload(name: str, lib, seed: int, workdir: Path, src: Path,
                  reference: dict) -> Workload:
    if name == "window-mc":
        return WindowMC(lib, seed, reference)
    if name == "design-verify":
        return DesignVerify(lib, seed)
    if name == "oracle-check":
        return OracleCheck(lib, seed)
    if name == "cli-verbs":
        return CliVerbs(lib, seed, workdir, src)
    raise ValueError(f"unknown workload {name!r}")
