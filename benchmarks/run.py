"""Benchmark of the dickesim package, one workload per process.

Run from the repository root::

    python3 benchmarks/run.py --workload window-mc --seed 1 --seconds 30 --trace 0

Workloads: ``window-mc``, ``design-verify``, ``oracle-check`` and, run by
hand only, ``cli-verbs`` (see ``workloads.py`` for what each op does and
why; ``BENCHMARK.json`` leaves cli-verbs out because one python start-up per
op was too unsteady on a shared 2-vCPU machine to gate).  Each run imports the
package from ``src/`` of this checkout, sets up, then runs whole cycles of
ops at concurrency 1 until ``--seconds`` have passed, checking every op's
result.

``--trace 0`` measures the end-to-end metrics with nothing in the way.  Six
more set-ups, each in a fresh interpreter, are timed at even intervals while
the run's clock is paused.  Every op and set-up time is calibrated against a
fixed kernel timed next to it, which cancels the drifting speed of a shared
machine (see ``calibration.py``); the metrics are medians and a tail
percentile of the calibrated times over the whole run, and the notes give
the raw wall-clock figures beside them.
``--trace 1`` puts spans around every library call the ops make and reports
the per-layer metrics, plus untimed probes: known-defect counts, CLI start-up
costs and the tracing overhead.  Spans go to ``.bench_out/`` when the run
ends, together with a record of every metric and the machine it ran on.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and the metrics named in ``BENCHMARK.json`` for the chosen mode.
The exit code is 0 only when every op passed its checks.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: One BLAS/OpenMP thread: the benchmark measures one caller on one core.
PINNED_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                  "MKL_NUM_THREADS": "1"}
#: Extra set-ups per untraced run, each in a fresh process, spread evenly
#: over the measured window.  A process keeps its speed for imports for its
#: whole life, so set-ups in one process do not sample that variation.
CHILD_SETUPS = 6
#: Candidate percentiles for op_tail_ms, highest first.  The ladder stops at
#: p99: on a small shared machine the samples beyond it are scheduler
#: hiccups more than the program.
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10
#: Seconds of alternating plain and traced ops used to estimate the overhead.
OVERHEAD_BUDGET_S = 2.0
#: Cycle indices for probe and overhead inputs, far above any measured cycle.
PROBE_CYCLE = 10 ** 9
OVERHEAD_CYCLE = 10 ** 9 + 1


def unit_of(name: str) -> str:
    """Unit of a metric, from its name."""
    last = name.rsplit(".", 2)
    if name.endswith(".calls") or name in ("window.samples", "window.excluded_samples",
                                           "synthesis.class_mismatch",
                                           "robustness.untyped_errors"):
        return "count"
    if name.endswith("_frac"):
        return "frac"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_ms") or (len(last) == 3 and last[1] == "ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if ".us" in name or "us_per_sample" in name:
        return "us"
    raise ValueError(f"no unit for metric {name!r}")


def fresh_import():
    """Import dickesim from this checkout's src/, dropping any earlier copy."""
    for name in [m for m in sys.modules if m == "dickesim" or m.startswith("dickesim.")]:
        del sys.modules[name]
    dk = importlib.import_module("dickesim")
    if Path(dk.__file__).resolve().parent != (SRC / "dickesim").resolve():
        raise RuntimeError(f"imported dickesim from {dk.__file__}, not {SRC}")
    return dk


def load_reference() -> dict:
    return json.loads((HERE / "reference.json").read_text(encoding="utf-8"))["cases"]


def timed_setup(name: str, seed: int):
    """Fresh import, the run's inputs and one warm-up cycle, timed.

    Returns ``(seconds, dickesim module, lib, workload)``.
    """
    import workloads

    t0 = time.perf_counter()
    dk = fresh_import()
    lib = workloads.make_lib(dk)
    workload = workloads.make_workload(name, lib, seed, OUT / "work" / name, SRC,
                                       load_reference())
    for op in workload.cycle(0):
        op.run(lib)
    return time.perf_counter() - t0, dk, lib, workload


def child_setup(name: str, seed: int) -> tuple[float, float]:
    """Wall and calibrated seconds ``timed_setup`` takes in a fresh interpreter.

    numpy is loaded before the clock starts, as in the measuring process.
    """
    code = (f"import sys; sys.path[:0] = [{str(SRC)!r}, {str(HERE)!r}]; "
            f"import numpy, calibration, run; t = run.timed_setup({name!r}, {seed})[0]; "
            f"print(t, calibration.calibrated_setup(t))")
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                         capture_output=True, text=True).stdout
    wall, calibrated = map(float, out.split())
    return wall, calibrated


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, child) / 1024.0


@dataclass
class Loop:
    """Timings and failures of one measured run.

    ``durations`` and ``setup_times`` are calibrated seconds (see
    ``calibration.py``); ``wall`` and ``setup_wall`` are the same in raw
    wall-clock seconds.
    """

    durations: list[float] = field(default_factory=list)
    wall: list[float] = field(default_factory=list)
    kinds: list[str] = field(default_factory=list)
    cycle_times: list[float] = field(default_factory=list)
    setup_times: list[float] = field(default_factory=list)
    setup_wall: list[float] = field(default_factory=list)
    failures: dict[int, str] = field(default_factory=dict)
    cycle_len: int = 0
    samples_per_cycle: int = 0


def measure(workload, lib, seconds: float, tracer=None, setup=None, setups: int = 0) -> Loop:
    """Run whole cycles (from cycle 1; cycle 0 warmed up) until ``seconds`` pass.

    An op's time covers its library calls and nothing of its checks; the
    calibration kernel runs between ops, outside their time.  When ``setup``
    (returning wall and calibrated seconds) is given it is run ``setups``
    times at evenly spaced cycle boundaries; the clock of the measured window
    stops meanwhile.
    """
    import calibration

    loop = Loop()
    before = calibration.kernel()
    start = time.perf_counter()
    paused = 0.0
    marks = [seconds * (k + 1) / (setups + 1) for k in range(setups)]
    op_id = 0
    c = 1
    while True:
        ops = workload.cycle(c)
        loop.cycle_len = len(ops)
        loop.samples_per_cycle = sum(op.samples for op in ops)
        spent = 0.0
        for op in ops:
            span = tracer.op(op_id, op.kind) if tracer else contextlib.nullcontext()
            error = None
            with span:
                t0 = time.perf_counter()
                try:
                    result = op.run(lib)
                except Exception as exc:  # noqa: BLE001 - a failed op is counted
                    error = f"{type(exc).__name__}: {exc}"
                elapsed = time.perf_counter() - t0
            after = calibration.kernel()
            if error is None:
                try:
                    error = op.check(result, op_id)
                except Exception as exc:  # noqa: BLE001 - a failed check is counted
                    error = f"check raised {type(exc).__name__}: {exc}"
            if error is not None:
                loop.failures[op_id] = f"{op.kind}: {error}"
            loop.durations.append(calibration.scale(elapsed, before, after))
            loop.wall.append(elapsed)
            loop.kinds.append(op.kind)
            before = after
            spent += elapsed
            op_id += 1
        loop.cycle_times.append(spent)
        c += 1
        elapsed = time.perf_counter() - start - paused
        if marks and elapsed >= marks[0]:
            marks.pop(0)
            t0 = time.perf_counter()
            wall, calibrated = setup()
            loop.setup_wall.append(wall)
            loop.setup_times.append(calibrated)
            paused += time.perf_counter() - t0
            before = calibration.kernel()
        elif elapsed >= seconds:
            break
    loop.failures.update(workload.finish())
    return loop


def tail(durations: list[float]) -> tuple[float, float, int]:
    """Highest ladder percentile with at least ``TAIL_MIN_BEYOND`` samples above it.

    Returns ``(percentile, value, samples beyond)``; falls back to the
    maximum when the run is too short for any rung.
    """
    for pct in TAIL_LADDER:
        if len(durations) * (1.0 - pct / 100.0) >= TAIL_MIN_BEYOND:
            cut = statistics.quantiles(durations, n=100, method="inclusive")[int(pct) - 1]
            return pct, cut, sum(d > cut for d in durations)
    return 100.0, max(durations), 0


def by_kind(kinds: list[str], times: list[float]) -> dict[str, list[float]]:
    """Times grouped by op kind, in cycle order."""
    out: dict[str, list[float]] = {}
    for kind, elapsed in zip(kinds, times):
        out.setdefault(kind, []).append(elapsed)
    return out


def end_to_end(workload_name: str, loop: Loop) -> tuple[dict, dict]:
    """End-to-end metrics of one untraced run, and notes on how they were taken.

    Every timing is taken from calibrated times (see ``calibration.py``);
    each note ends with the same figure from raw wall-clock times.
    Throughput is the op mix of one cycle over the sum of each op kind's
    median time.
    """
    durations = loop.durations
    kinds, kinds_wall = by_kind(loop.kinds, durations), by_kind(loop.kinds, loop.wall)
    cycle_s = sum(statistics.median(times) for times in kinds.values())
    cycle_wall = sum(statistics.median(times) for times in kinds_wall.values())
    pct, tail_s, beyond = tail(durations)
    of_all = f"of {len(durations)} ops in {len(loop.cycle_times)} cycles"
    metrics = {
        "setup_s": statistics.median(loop.setup_times),
        "ops_per_s": loop.cycle_len / cycle_s,
        "op_p50_ms": statistics.median(durations) * 1e3,
        "op_tail_ms": tail_s * 1e3,
        "ops_failed_frac": len(loop.failures) / len(durations),
        "peak_rss_mb": peak_rss_mb(),
    }
    notes = {
        "setup_s": f"median of {len(loop.setup_times)} set-ups; "
                   f"wall {statistics.median(loop.setup_wall):.4g} s",
        "ops_per_s": f"{loop.cycle_len} ops per cycle over the sum of the median "
                     f"times of its op kinds, {of_all}; wall {loop.cycle_len / cycle_wall:.4g}",
        "op_p50_ms": f"median {of_all}; wall {statistics.median(loop.wall) * 1e3:.4g} ms",
        "op_tail_ms": f"p{pct:g} {of_all}, {beyond} beyond it; "
                      f"wall {tail(loop.wall)[1] * 1e3:.4g} ms",
        "ops_failed_frac": f"{len(loop.failures)} of {len(durations)} ops failed",
    }
    if workload_name == "window-mc":
        metrics["mc_samples_per_s"] = loop.samples_per_cycle / cycle_s
        notes["mc_samples_per_s"] = (f"{loop.samples_per_cycle} samples per cycle; "
                                     f"wall {loop.samples_per_cycle / cycle_wall:.4g}")
    if workload_name == "cli-verbs":
        from workloads import CLI_VERBS

        for verb in CLI_VERBS:
            metrics[f"cli_{verb}_ms"] = statistics.median(kinds[verb]) * 1e3
            notes[f"cli_{verb}_ms"] = (f"median of {len(kinds[verb])} runs; wall "
                                       f"{statistics.median(kinds_wall[verb]) * 1e3:.4g} ms")
    return metrics, notes


def per_layer(summary: dict, extra: dict) -> dict:
    """Per-layer metrics from ``Tracer.summary()`` plus counts and probe results.

    A layer the workload never calls reports 0 calls, 0 s and 0 per-call time.
    """
    def median(times, scale):
        return statistics.median(times) * scale if times else 0.0

    m = {}
    ef = summary["window.estimate_fidelity"]
    m["window.estimate_fidelity.calls"] = ef["calls"]
    m["window.estimate_fidelity.busy_s"] = ef["busy_s"]
    for n in (3, 4, 5, 6, 8):
        samples = ef["samples_by_n"][n]
        m[f"window.us_per_sample.n{n}"] = (sum(ef["by_n"][n]) / samples * 1e6
                                           if samples else 0.0)
    m["window.samples"] = extra.pop("window.samples", 0)
    m["window.excluded_samples"] = extra.pop("window.excluded_samples", 0)
    for span, unit, sizes, with_calls in (
            ("core.apply_detection", "us", (5, 7, 9), True),
            ("core.project_symmetric", "us", (9,), True),
            ("cascade.dicke_coefficients", "us", (3, 20, 64), True),
            ("synthesis.synthesize", "us", (3, 20, 64), True),
            ("core.fidelity", "us", (), False),
            ("cascade.build_pyramid", "ms", (6, 8), True),
            ("cascade.pyramid_edges", "ms", (8,), False)):
        if with_calls:
            m[f"{span}.calls"] = summary[span]["calls"]
        m[f"{span}.busy_s"] = summary[span]["busy_s"]
        for n in sizes:
            m[f"{span}.{unit}.n{n}"] = median(summary[span]["by_n"][n],
                                              1e6 if unit == "us" else 1e3)
    er = "entanglement.entanglement_report"
    m[f"{er}.calls"] = summary[er]["calls"]
    m[f"{er}.busy_s"] = summary[er]["busy_s"]
    for span in (er, "entanglement.classify_from_config",
                 "entanglement.tangle_closed_form", "entanglement.tangle_hyperdeterminant"):
        m[f"{span}.us"] = median([t for ts in summary[span]["by_n"].values() for t in ts], 1e6)
    m["bench.op.self_s"] = summary["bench.op"]["busy_s"]
    m.update(extra)
    return m


def tracing_overhead(workload, plain_lib, dk, budget_s: float) -> float:
    """Traced over plain wall time of the same ops, minus 1.

    Ops alternate plain/traced (the order flips each time) over one fresh
    cycle of inputs, for at least one whole cycle and ``budget_s`` seconds.
    """
    import tracing
    import workloads

    tracer = tracing.Tracer()
    traced_lib = workloads.make_lib(dk, tracer)
    ops = workload.cycle(OVERHEAD_CYCLE)
    plain = traced = 0.0
    deadline = time.perf_counter() + budget_s
    i = 0
    while i < len(ops) or time.perf_counter() < deadline:
        op = ops[i % len(ops)]
        for mode in ((0, 1) if i % 2 == 0 else (1, 0)):
            t0 = time.perf_counter()
            if mode:
                with tracer.op(i, op.kind):
                    op.run(traced_lib)
                traced += time.perf_counter() - t0
            else:
                op.run(plain_lib)
                plain += time.perf_counter() - t0
        i += 1
    return traced / plain - 1.0


def layer_probes(dk, lib, seed: int, workdir: Path) -> dict:
    """Defect counts and CLI costs, none of it inside the timed loop."""
    import numpy as np
    import probes
    import workloads

    cli = importlib.import_module("dickesim.cli")
    rng = np.random.default_rng([seed, PROBE_CYCLE])
    configs = workloads.write_cli_configs(lib, np.random.default_rng(seed), workdir)
    out = {"synthesis.class_mismatch": probes.class_mismatch(dk, rng),
           "robustness.untyped_errors": probes.untyped_errors(dk, cli, rng, workdir)}
    out.update(probes.cli_costs(cli, configs, workdir, SRC))
    return out


def op_kinds(loop: Loop) -> dict:
    """Count and median calibrated and wall time of each op kind, in cycle order."""
    walls = by_kind(loop.kinds, loop.wall)
    return {kind: {"ops": len(times), "p50_ms": statistics.median(times) * 1e3,
                   "wall_p50_ms": statistics.median(walls[kind]) * 1e3}
            for kind, times in by_kind(loop.kinds, loop.durations).items()}


def format_value(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("window-mc", "design-verify", "oracle-check", "cli-verbs"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "dickesim" / "__init__.py").is_file():
        print(f"benchmark: no dickesim package under {SRC}", file=sys.stderr)
        return 2
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        print(f"benchmark: {spec_path} is missing", file=sys.stderr)
        return 2

    # Before numpy loads BLAS; subprocesses inherit the same pins.
    os.environ.update(PINNED_THREADS)
    # Cache compiled bytecode as a normal install does, so set-up and CLI
    # times never include compiling the package (compiling dominated the
    # run-to-run spread of setup_s where PYTHONDONTWRITEBYTECODE was set).
    os.environ.pop("PYTHONDONTWRITEBYTECODE", None)
    sys.dont_write_bytecode = False
    sys.path[:0] = [str(SRC), str(HERE)]
    import calibration
    import probes
    import tracing
    import workloads

    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    first_setup, dk, lib, workload = timed_setup(args.workload, args.seed)
    first_setup = (first_setup, calibration.calibrated_setup(first_setup))
    if args.trace:
        tracer = tracing.Tracer()
        loop = measure(workload, workloads.make_lib(dk, tracer), args.seconds, tracer)
        loop.setup_wall.append(first_setup[0])
        loop.setup_times.append(first_setup[1])
        extra = dict(workload.counters())
        extra["trace.overhead_frac"] = tracing_overhead(workload, lib, dk,
                                                        OVERHEAD_BUDGET_S)
        extra.update(layer_probes(dk, lib, args.seed, OUT / "work" / args.workload))
        metrics = per_layer(tracer.summary(), extra)
        notes = {}
        tracer.write(OUT / f"spans-{args.workload}.jsonl")
        reported = spec["per_layer"]
    else:
        loop = measure(workload, lib, args.seconds,
                       setup=lambda: child_setup(args.workload, args.seed),
                       setups=CHILD_SETUPS)
        loop.setup_wall.insert(0, first_setup[0])
        loop.setup_times.insert(0, first_setup[1])
        metrics, notes = end_to_end(args.workload, loop)
        reported = spec["end_to_end"]

    attempted, failed = len(loop.durations), len(loop.failures)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": probes.git_commit(ROOT),
        "machine": probes.machine_info(PINNED_THREADS),
        "source": probes.source_info(dk, SRC),
        "attempted": attempted, "failed": failed,
        "failures": [loop.failures[k] for k in sorted(loop.failures)[:20]],
        "op_kinds": op_kinds(loop),
        "setup_times_s": loop.setup_times,
        "setup_wall_s": loop.setup_wall,
        "metrics": {name: {"value": v, "unit": unit_of(name), "note": notes.get(name)}
                    for name, v in metrics.items()},
    }
    OUT.mkdir(parents=True, exist_ok=True)
    record_path = OUT / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"# dickesim benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} commit={record['commit']}")
    print("# machine: " + " ".join(f"{k}={v}" for k, v in record["machine"].items()))
    print("# source: " + " ".join(f"{k}={v}" for k, v in record["source"].items()))
    print("# op kinds: " + " ".join(f"{k}={v['p50_ms']:.4g}ms/{v['ops']}"
                                     for k, v in record["op_kinds"].items()))
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:44s} {format_value(value):>14s} {unit_of(name)}{note}")
    for message in record["failures"]:
        print(f"FAILED {message}", file=sys.stderr)

    result_metrics = {}
    for entry in reported:
        name, unit = entry["name"], entry["unit"]
        if unit != unit_of(name):
            raise RuntimeError(f"BENCHMARK.json gives {name} in {unit}, "
                               f"the benchmark measures {unit_of(name)}")
        result_metrics[name] = {"value": metrics[name], "unit": unit}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": result_metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
