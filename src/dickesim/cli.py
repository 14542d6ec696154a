"""Command-line interface over JSON configuration files.

Verbs: ``simulate | synthesize | classify | pyramid | fidelity``.
Exit codes: 0 success, 2 configuration error, 3 computation error,
4 internal concordance violation.  All angles are radians unless
``--degrees`` is given, which converts on input only.  Complex numbers in
configuration and result files are explicit ``[re, im]`` pairs; computed
floats are printed with 15 significant digits.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict
from typing import Iterable, Iterator

import numpy as np

from . import __version__
from .cascade import PolarizerConfig, build_pyramid, dicke_coefficients, pyramid_edges
from .core import Polarizer, SymmetricState, _number, _system_size, fidelity
from .entanglement import classify_from_config, entanglement_report
from .errors import ConfigError, DickesimError, DimensionMismatchError, TooLargeError
from .synthesis import synthesize
from .window import (_CHAIN_SIGMA, _CHAIN_SPACING, _CHAIN_WAVELENGTH, _CHAIN_WINDOW,
                     DetectionGeometry, _at_window, _chain_arrays, estimate_fidelity)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_COMPUTE = 3
EXIT_DISAGREE = 4

PYRAMID_SIZE_LIMIT = 6


# ---------------------------------------------------------------------------
# configuration parsing
# ---------------------------------------------------------------------------

def _finite(text: str) -> float:
    """A JSON float literal, finite: records echo the config as strict JSON."""
    x = float(text)
    if not math.isfinite(x):
        raise ConfigError(f"config numbers must be finite, got {text}")
    return x


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh, parse_float=_finite, parse_constant=_finite)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except ConfigError:  # _finite's, which is a ValueError too
        raise
    except (ValueError, RecursionError) as exc:  # undecodable bytes, huge ints, deep nesting too
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


def _parse_complex(value, what: str) -> complex:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ConfigError(f"{what} must be a [re, im] pair, got {value!r}")
    return complex(_number(value[0], f"{what} re"), _number(value[1], f"{what} im"))


def _angle(value, what: str, degrees: bool) -> float:
    angle = _number(value, what)
    return float(np.deg2rad(angle)) if degrees else angle


def _parse_polarizers(cfg: dict, n: int, degrees: bool) -> PolarizerConfig:
    entries = cfg.get("polarizers")
    if not isinstance(entries, list) or len(entries) != n:
        raise ConfigError(f"'polarizers' must be a list of length n={n}")
    pols = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ConfigError(f"polarizer {i} must be an object")
        if entry.keys() == {"theta"}:
            pols.append(Polarizer.linear(_angle(entry["theta"], f"polarizer {i} theta",
                                                degrees)))
        elif entry.keys() == {"alpha", "beta"}:
            alpha = _parse_complex(entry["alpha"], f"polarizer {i} alpha")
            beta = _parse_complex(entry["beta"], f"polarizer {i} beta")
            pols.append(Polarizer(alpha, beta))
        else:
            raise ConfigError(f"polarizer {i} needs either 'theta' or 'alpha'+'beta', "
                              f"got keys {sorted(entry)}")
    return PolarizerConfig(tuple(pols))


def _parse_target(cfg: dict, n: int) -> SymmetricState:
    entries = cfg.get("target")
    if not isinstance(entries, list) or len(entries) != n + 1:
        raise ConfigError(f"'target' must be a list of n+1={n + 1} [re, im] pairs")
    raw = np.array([_parse_complex(v, f"target[{k}]") for k, v in enumerate(entries)])
    return SymmetricState.from_raw(n, raw)


def _parse_geometry(cfg: dict, n: int, degrees: bool) -> DetectionGeometry:
    """``DetectionGeometry.linear_chain`` with the given keys replacing its defaults.

    The chain's arrays stand in for any the config leaves out, and the
    geometry is built once.
    """
    geo = cfg.get("geometry")
    if not isinstance(geo, dict):
        raise ConfigError("'geometry' section is required for this command")
    known = {"spacing", "emitter_positions", "transverse_sigma", "wavelength",
             "detector_directions", "window_halfangle"}
    unknown = set(geo) - known
    if unknown:
        raise ConfigError(f"unknown geometry keys: {sorted(unknown)}")

    window = (_angle(geo["window_halfangle"], "window_halfangle", degrees)
              if "window_halfangle" in geo else _CHAIN_WINDOW)
    positions, directions = _chain_arrays(n, geo.get("spacing", _CHAIN_SPACING))
    # the geometry itself checks that both arrays are (m, 3)
    geometry = DetectionGeometry(
        geo.get("emitter_positions", positions), geo.get("transverse_sigma", _CHAIN_SIGMA),
        geo.get("wavelength", _CHAIN_WAVELENGTH), geo.get("detector_directions", directions),
        window)
    if geometry.n != n:
        raise ConfigError(f"geometry arrays must be {n} [x,y,z] triples")
    return geometry


# ---------------------------------------------------------------------------
# record emission
# ---------------------------------------------------------------------------

def _round15(obj):
    """Round every float to 15 significant digits, recursively."""
    if isinstance(obj, float):
        return float(f"{obj:.15g}")
    if isinstance(obj, dict):
        return {k: _round15(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round15(v) for v in obj]
    return obj


def _pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _write_record(fields: dict, cfg: dict, args) -> None:
    """The record ``tool, version, command, <fields>, input``; only fields are rounded.

    ``input`` reruns it: the config, ``--degrees``, and ``--samples``/``--seed`` if given.
    """
    given = {k: v for k, v in vars(args).items() if k in ("samples", "seed") and v is not None}
    record = {"tool": "dickesim", "version": __version__, "command": args.command,
              **_round15(fields),
              "input": {"config": cfg, "flags": {"degrees": bool(args.degrees), **given}}}
    _write([json.dumps(record, indent=2) + "\n"], args)


def _write(pieces: Iterable[str], args) -> None:
    """Each of ``pieces`` to ``--out``, else stdout, as soon as it is made.

    ``--out`` is opened at the first piece, so a run that fails before it
    leaves no output and one that fails later leaves the pieces made so
    far.  An unwritable ``--out`` is ``ConfigError``.
    """
    fh = None
    try:
        for piece in pieces:
            if args.out is None:
                sys.stdout.write(piece)
                sys.stdout.flush()
                continue
            try:
                if fh is None:
                    fh = open(args.out, "w", encoding="utf-8")
                fh.write(piece)
                fh.flush()
            except OSError as exc:
                raise ConfigError(f"cannot write {args.out}: {exc}") from exc
    finally:
        if fh is not None:
            fh.close()


def _report_dict(report) -> dict:
    return {
        "tangle": report.tangle,
        "entropies": list(report.entropies),
        "pair_concurrences": {f"{i}-{j}": c
                              for (i, j), c in report.pair_concurrences.items()},
        "class": report.inferred_class,
    }


# ---------------------------------------------------------------------------
# command handlers
# ---------------------------------------------------------------------------

def _cmd_simulate(cfg: dict, n: int, args) -> int:
    state = dicke_coefficients(_parse_polarizers(cfg, n, args.degrees)).canonicalized()
    fields = {"system_size": n, "dicke_coefficients": [_pair(c) for c in state.coeffs]}
    if n == 3:
        fields["entanglement"] = _report_dict(entanglement_report(state))
    _write_record(fields, cfg, args)
    return EXIT_OK


def _cmd_synthesize(cfg: dict, n: int, args) -> int:
    target = _parse_target(cfg, n)
    config = synthesize(target)
    achieved = dicke_coefficients(config)
    _write_record({
        "system_size": n,
        "polarizers": [{"alpha": _pair(p.alpha), "beta": _pair(p.beta)} for p in config],
        "achieved_coefficients": [_pair(c) for c in achieved.canonicalized().coeffs],
        "verification": {"round_trip_fidelity": fidelity(achieved, target)},
    }, cfg, args)
    return EXIT_OK


def _cmd_classify(cfg: dict, n: int, args) -> int:
    config = _parse_polarizers(cfg, n, args.degrees)
    prediction = classify_from_config(config)
    report = entanglement_report(dicke_coefficients(config))
    agreement = prediction.predicted_class == report.inferred_class
    _write_record({
        "distinct_orientations": prediction.distinct_orientations,
        "config_class": prediction.predicted_class,
        "state_class": report.inferred_class,
        "tangle": report.tangle,
        "entropies": list(report.entropies),
        "agreement": agreement,
    }, cfg, args)
    if agreement:
        return EXIT_OK
    print(f"dickesim: concordance violation: config predicts "
          f"{prediction.predicted_class}, state measures {report.inferred_class}",
          file=sys.stderr)
    return EXIT_DISAGREE


def _cmd_pyramid(cfg: dict, n: int, args) -> int:
    config = _parse_polarizers(cfg, n, args.degrees)
    if n > PYRAMID_SIZE_LIMIT:
        raise TooLargeError(f"pyramid output limited to n <= {PYRAMID_SIZE_LIMIT}, got {n}")
    levels = build_pyramid(config)
    lines = []
    for level in levels:
        lines.append(f"step {level.step}:")
        lines.extend(f"  |{ket}>  {amp.real:+.12g}{amp.imag:+.12g}j"
                     for ket, amp in sorted(level.terms.items()))
    text = "\n".join(lines)
    csv_lines = ["level,parent_ket,child_ket,amp_re,amp_im"]
    for level, parent, child, amp in pyramid_edges(config, levels):
        csv_lines.append(f"{level},{parent},{child},{amp.real:.15g},{amp.imag:.15g}")
    edges_csv = "\n".join(csv_lines)
    if args.out is None:
        _write([text + "\n\n" + edges_csv + "\n"], args)
    else:
        _write_record({"system_size": n, "pyramid_text": text,
                       "pyramid_edges_csv": edges_csv}, cfg, args)
    return EXIT_OK


def _parse_sweep(spec: str, degrees: bool) -> Iterator[float]:
    """The points of ``START:STOP:COUNT``, one at a time, by ``np.linspace``'s arithmetic."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise ConfigError(f"--sweep expects START:STOP:COUNT, got {spec!r}")
    try:
        start, stop = float(parts[0]), float(parts[1])
        count = int(parts[2])
    except ValueError as exc:
        raise ConfigError(f"cannot parse sweep {spec!r}: {exc}") from exc
    if count < 2 or not 0.0 <= start <= stop < np.inf:
        raise ConfigError(f"sweep needs 0 <= START <= STOP and COUNT >= 2, got {spec!r}")
    div, delta = count - 1, stop - start
    try:
        step = delta / div
    except OverflowError:  # a COUNT beyond the float range, whose step rounds to 0
        step = 0.0
    for k in range(div):
        # linspace divides first when the step is 0 (START == STOP, or an underflow)
        value = k * step + start if step else k / div * delta + start
        yield np.deg2rad(value) if degrees else value
    yield np.deg2rad(stop) if degrees else stop


def _cmd_fidelity(cfg: dict, n: int, args) -> int:
    config = _parse_polarizers(cfg, n, args.degrees)
    geometry = _parse_geometry(cfg, n, args.degrees)
    target = _parse_target(cfg, n) if "target" in cfg else None
    samples = args.samples if args.samples is not None else cfg.get("samples")
    if samples is None:
        raise ConfigError("'samples' must be given in the config or via --samples")
    seed = args.seed if args.seed is not None else cfg.get("seed", 0)

    if args.sweep is not None:
        # one CSV row per point as it finishes, the header with the first
        def rows():
            header = "window_halfangle,mean_fidelity,standard_error,sample_count,excluded_count\n"
            for k, window in enumerate(_parse_sweep(args.sweep, args.degrees)):
                est = estimate_fidelity(config, _at_window(geometry, window), target=target,
                                        samples=samples, seed=seed)
                yield ("" if k else header) + (
                    f"{window:.15g},{est.mean_fidelity:.15g},{est.standard_error:.15g},"
                    f"{est.sample_count},{est.excluded_count}\n")
        _write(rows(), args)
        return EXIT_OK

    est = estimate_fidelity(config, geometry, target=target, samples=samples, seed=seed)
    _write_record({
        "system_size": n,
        "fidelity_estimate": asdict(est),
        "parameters": {
            "samples": samples, "seed": seed,
            "wavelength": geometry.wavelength,
            "transverse_sigma": geometry.transverse_sigma,
            "window_halfangle": geometry.window_halfangle,
            "emitter_positions": geometry.emitter_positions.tolist(),
            "detector_directions": geometry.detector_directions.tolist(),
        },
    }, cfg, args)
    return EXIT_OK


#: verb -> (handler, help); each handler gets the loaded config and its checked ``n``
VERBS = {
    "simulate": (_cmd_simulate, "forward-map a polarizer configuration"),
    "synthesize": (_cmd_synthesize, "design polarizers for a target state"),
    "classify": (_cmd_classify, "orientation-count vs state classification (n=3)"),
    "pyramid": (_cmd_pyramid, "dump the cascade's intermediate states"),
    "fidelity": (_cmd_fidelity, "Monte-Carlo detection-window fidelity"),
}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dickesim",
        description="Simulate, design and classify heralded symmetric "
                    "multi-qubit states from polarized photodetection.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, text) in VERBS.items():
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", required=True, help="path to JSON config")
        p.add_argument("--out", default=None, help="write output here instead of stdout")
        p.add_argument("--degrees", action="store_true",
                       help="interpret input angles as degrees")
    p = sub.choices["fidelity"]
    p.add_argument("--samples", type=int, default=None,
                   help="override the sample count from the config")
    p.add_argument("--seed", type=int, default=None,
                   help="override the random seed from the config")
    p.add_argument("--sweep", default=None, metavar="START:STOP:COUNT",
                   help="emit a CSV over window halfangles instead of a record")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler = VERBS[args.command][0]
    try:
        cfg = _load_config(args.config)
        return handler(cfg, _system_size(cfg.get("n")), args)
    except (ConfigError, DimensionMismatchError, TooLargeError) as exc:
        print(f"dickesim: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DickesimError as exc:
        print(f"dickesim: {exc}", file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
