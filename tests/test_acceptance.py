"""Acceptance suite: one test per release criterion, each printing PASS/FAIL.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  Every tolerance is pinned here; nothing is left to calibration.
"""

import time
from itertools import permutations, product

import numpy as np
import pytest

import dickesim as ds
from conftest import (
    MINUS,
    PLUS,
    ghz_qubit,
    oracle_forward,
    qubit_fidelity,
    random_config,
    random_polarizer,
    register_amps,
    separated_config,
    s_qubit,
    w_qubit,
)


def _criterion(num, label, failures):
    ok = not failures
    print(f"\n[acceptance] criterion {num} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({label}): " + "; ".join(failures[:5])


def test_criterion_1_closed_form_matches_brute_force_oracle():
    failures = []
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    for trial in range(200):
        n = int(rng.integers(2, 7))
        config = random_config(rng, n)
        f = ds.fidelity(ds.dicke_coefficients(config), oracle_forward(config))
        if f < 1 - 1e-10:
            failures.append(f"trial {trial}: fidelity {f}")
    elapsed = time.perf_counter() - start
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.1f}s >= 10s")
    _criterion(1, "closed form vs brute-force cascade, 200 configs", failures)


def test_criterion_2_named_state_recipes():
    failures = []
    references = {"ghz": (ds.ghz_config, ghz_qubit),
                  "product": (ds.s_config, s_qubit),
                  "single-excitation": (ds.w_config, w_qubit)}
    for n in range(2, 7):
        for phi in (0.0, np.pi / 4, np.pi):
            for name, (recipe, reference) in references.items():
                psi = ds.dicke_coefficients(recipe(n, phi)).to_qubit_amplitudes()
                f = qubit_fidelity(psi, reference(n, phi))
                if f < 1 - 1e-10:
                    failures.append(f"{name} n={n} phi={phi:.3f}: fidelity {f}")
    _criterion(2, "named recipes reproduce their targets", failures)


def test_criterion_3_synthesis_round_trip():
    failures = []
    rng = np.random.default_rng(103)
    start = time.perf_counter()
    for trial in range(500):
        n = int(rng.integers(2, 9))
        target = ds.SymmetricState.from_raw(
            n, rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1))
        f = ds.fidelity(ds.dicke_coefficients(ds.synthesize(target)), target)
        if f < 1 - 1e-8:
            failures.append(f"trial {trial} n={n}: fidelity {f}")
    elapsed = time.perf_counter() - start
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f}s >= 30s")
    _criterion(3, "500 random synthesis round trips", failures)


def test_criterion_4_tangle_closed_form_cross_check():
    failures = []
    rng = np.random.default_rng(104)
    for trial in range(1000):
        config = random_config(rng, 3)
        closed = ds.tangle_closed_form(config)
        oracle = ds.tangle_hyperdeterminant(ds.dicke_coefficients(config))
        if abs(closed - oracle) > 1e-8:
            failures.append(f"trial {trial}: |{closed} - {oracle}|")
    anchor = ds.tangle_closed_form(ds.ghz_config(3, 0.0))
    if abs(anchor - 1.0) > 1e-9:
        failures.append(f"uniform-angle anchor {anchor} != 1")
    for trial in range(100):
        p, q = random_polarizer(rng), random_polarizer(rng)
        phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
        doubled = ds.Polarizer(phase * p.alpha, phase * p.beta)
        order = rng.permutation(3)
        pols = [p, doubled, q]
        config = ds.PolarizerConfig(tuple(pols[i] for i in order))
        tau = ds.tangle_closed_form(config)
        if tau > 1e-12:
            failures.append(f"coincident trial {trial}: tau {tau}")
    _criterion(4, "tangle closed form vs hyperdeterminant", failures)


def test_criterion_5_operational_classification():
    failures = []
    rng = np.random.default_rng(105)
    for trial in range(1000):
        config = separated_config(rng, min_sep=1e-3)
        predicted = ds.classify_from_config(config).predicted_class
        measured = ds.entanglement_report(ds.dicke_coefficients(config)).inferred_class
        if predicted != measured:
            failures.append(f"trial {trial}: {predicted} != {measured}")
    canonical = [(ds.ghz_config(3, 0.0), ds.GHZ_CLASS),
                 (ds.w_config(3, 0.0), ds.W_CLASS),
                 (ds.s_config(3, 0.0), ds.S_CLASS)]
    for config, expected in canonical:
        predicted = ds.classify_from_config(config).predicted_class
        measured = ds.entanglement_report(ds.dicke_coefficients(config)).inferred_class
        if not predicted == measured == expected:
            failures.append(f"{expected}: got {predicted}/{measured}")
    _criterion(5, "orientation count vs state classification", failures)


def test_criterion_6_measure_anchors():
    failures = []
    w_entropy = np.log2(3) - 2.0 / 3.0
    w_report = ds.entanglement_report(w_qubit(3, 0.0))
    ghz_report = ds.entanglement_report(ghz_qubit(3, 0.0))
    for q in range(3):
        s = w_report.entropies[q]
        if abs(s - w_entropy) > 1e-10:
            failures.append(f"single-excitation entropy qubit {q}: {s}")
        s = ghz_report.entropies[q]
        if abs(s - 1.0) > 1e-12:
            failures.append(f"maximally-entangled entropy qubit {q}: {s}")
    for pair in ((0, 1), (0, 2), (1, 2)):
        c = w_report.pair_concurrences[pair]
        if abs(c - 2.0 / 3.0) > 1e-10:
            failures.append(f"single-excitation concurrence {pair}: {c}")
        c = ghz_report.pair_concurrences[pair]
        if c > 1e-10:
            failures.append(f"maximally-entangled concurrence {pair}: {c}")
    _criterion(6, "entropy and concurrence anchors", failures)


def test_criterion_7_pyramid_consistency():
    failures = []
    rng = np.random.default_rng(107)
    for trial in range(20):
        config = random_config(rng, 3)
        levels = ds.build_pyramid(config)
        projected = ds.project_symmetric(ds.EmitterRegister(3, register_amps(3, levels[-1].terms)))
        f = ds.fidelity(projected, ds.dicke_coefficients(config))
        if f < 1 - 1e-10:
            failures.append(f"trial {trial}: final level fidelity {f}")
    # each of the 3! detector-to-emitter orderings interferes with the others
    # that send the same detectors to "-": C(3, k) classes for k minuses
    orderings = list(permutations(range(3)))
    for ket in ("".join(p) for p in product("+-", repeat=3)):
        expected = 1 if ket in ("+++", "---") else 3
        got = len({frozenset(d for d, e in enumerate(order) if ket[e] == "-")
                   for order in orderings})
        if len(orderings) != 6 or got != expected:
            failures.append(f"ket {ket}: {got} path classes, expected {expected}")
    _criterion(7, "pyramid final level and path classes", failures)


def test_criterion_8_window_fidelity():
    failures = []
    config = ds.ghz_config(4, 0.0)
    geometry = ds.DetectionGeometry.linear_chain(
        4, spacing=5e-6, transverse_sigma=5e-9, wavelength=493e-9,
        window_halfangle=np.deg2rad(0.5))
    start = time.perf_counter()
    est = ds.estimate_fidelity(config, geometry, samples=10_000, seed=2026)
    repeat = ds.estimate_fidelity(config, geometry, samples=10_000, seed=2026)
    elapsed = time.perf_counter() - start
    if est.mean_fidelity - 0.5 < 5 * est.standard_error:
        failures.append(f"mean {est.mean_fidelity} not 5 sigma above 0.5")
    if not 0.7 <= est.mean_fidelity <= 0.98:
        failures.append(f"mean {est.mean_fidelity} outside the expected band")
    if est != repeat:
        failures.append("identical seed produced different estimates")
    ideal = ds.estimate_fidelity(
        config,
        ds.DetectionGeometry.linear_chain(4, transverse_sigma=0.0,
                                          window_halfangle=0.0),
        samples=100, seed=2026)
    if ideal.mean_fidelity < 1 - 1e-10:
        failures.append(f"ideal limit {ideal.mean_fidelity} below 1 - 1e-10")
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s >= 60s")
    print(f"\n[acceptance]   window fidelity mean={est.mean_fidelity:.4f} "
          f"+- {est.standard_error:.4f} (n={est.sample_count}, "
          f"excluded={est.excluded_count}, {elapsed:.1f}s)")
    _criterion(8, "detection-window Monte Carlo", failures)


def test_criterion_9_property_suites():
    failures = []
    rng = np.random.default_rng(109)

    # polarizer order is irrelevant
    for trial in range(100):
        n = int(rng.integers(2, 7))
        config = random_config(rng, n)
        shuffled = ds.PolarizerConfig(tuple(config[i] for i in rng.permutation(n)))
        f = ds.fidelity(ds.dicke_coefficients(config), ds.dicke_coefficients(shuffled))
        if f < 1 - 1e-12:
            failures.append(f"permutation trial {trial}: fidelity {f}")

    # the detection operator is linear
    n = 3
    for trial in range(100):
        p = random_polarizer(rng)
        u = rng.normal(size=27) + 1j * rng.normal(size=27)
        v = rng.normal(size=27) + 1j * rng.normal(size=27)
        x, y = complex(*rng.normal(size=2)), complex(*rng.normal(size=2))
        lhs = ds.apply_detection(ds.EmitterRegister(n, x * u + y * v), p).amps
        rhs = (x * ds.apply_detection(ds.EmitterRegister(n, u), p).amps
               + y * ds.apply_detection(ds.EmitterRegister(n, v), p).amps)
        if not np.allclose(lhs, rhs, atol=1e-10):
            failures.append(f"linearity trial {trial}")

    # cascades stay in the permutation-symmetric subspace
    for trial in range(100):
        n = int(rng.integers(2, 6))
        config = random_config(rng, n)
        reg = ds.EmitterRegister.ground(n)
        for p in config:
            reg = ds.apply_detection(reg, p)
        i, j = rng.choice(n, size=2, replace=False)
        # emitter j is axis n-1-j of the register read as a (3,)*n tensor
        swapped = reg.amps.reshape((3,) * n).swapaxes(n - 1 - i, n - 1 - j).reshape(-1)
        if not np.allclose(swapped, reg.amps, atol=1e-10):
            failures.append(f"symmetry trial {trial}")
        try:
            ds.project_symmetric(reg)
        except ds.DickesimError as exc:
            failures.append(f"projection trial {trial}: {exc}")

    # coefficients vanish beyond the component multiplicities
    for trial in range(100):
        n = int(rng.integers(3, 7))
        n_plus = int(rng.integers(0, n))
        n_minus = int(rng.integers(0, n - n_plus))
        pols = ([PLUS] * n_plus
                + [MINUS] * n_minus
                + [random_polarizer(rng) for _ in range(n - n_plus - n_minus)])
        order = rng.permutation(n)
        config = ds.PolarizerConfig(tuple(pols[i] for i in order))
        coeffs = ds.dicke_coefficients(config).coeffs
        beta_count = sum(1 for p in config if p.beta != 0)
        alpha_count = sum(1 for p in config if p.alpha != 0)
        for k in range(n + 1):
            if (k > beta_count or n - k > alpha_count) and coeffs[k] != 0.0:
                failures.append(f"vanishing trial {trial}: d_{k} = {coeffs[k]}")

    _criterion(9, "randomized property suites", failures)
