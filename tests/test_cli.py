import json
import warnings

import numpy as np
import pytest

import dickesim as ds
from conftest import ket_amplitudes, random_config, reference_pyramid
from dickesim import cli, window
from dickesim.cli import _parse_sweep, _round15, main


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def _run_record(capsys, argv):
    code, out = _run(capsys, argv)
    assert code == 0
    return json.loads(out)


def _as_complex(pairs):
    return np.array([complex(re, im) for re, im in pairs])


GHZ_THETAS = [0.0, np.pi / 3, 2 * np.pi / 3]


def _theta_config(thetas, **extra):
    return {"n": len(thetas),
            "polarizers": [{"theta": t} for t in thetas], **extra}


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_maximally_entangled(tmp_path, capsys):
    cfg = _write(tmp_path, "c.json", _theta_config(GHZ_THETAS))
    record = _run_record(capsys, ["simulate", "--config", cfg])
    coeffs = _as_complex(record["dicke_coefficients"])
    np.testing.assert_allclose(coeffs, [1 / np.sqrt(2), 0, 0, 1 / np.sqrt(2)],
                               atol=1e-12)
    assert record["entanglement"]["class"] == "GHZ"
    assert record["entanglement"]["tangle"] == pytest.approx(1.0, abs=1e-9)


def test_simulate_identical_angles_yield_product_state(tmp_path, capsys):
    cfg = _write(tmp_path, "c.json", _theta_config([0.0, 0.0, 0.0]))
    record = _run_record(capsys, ["simulate", "--config", cfg])
    coeffs = _as_complex(record["dicke_coefficients"])
    expected = np.sqrt([1.0, 3.0, 3.0, 1.0]) / np.sqrt(8)
    np.testing.assert_allclose(coeffs, expected, atol=1e-12)
    assert record["entanglement"]["class"] == "S"


def test_simulate_single_polarizer(tmp_path, capsys):
    cfg = _write(tmp_path, "c.json", _theta_config([0.0]))
    record = _run_record(capsys, ["simulate", "--config", cfg])
    coeffs = _as_complex(record["dicke_coefficients"])
    np.testing.assert_allclose(coeffs, [1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-12)
    assert "entanglement" not in record


def test_simulate_accepts_component_polarizers_and_degrees(tmp_path, capsys):
    by_angle = _write(tmp_path, "a.json", _theta_config([60.0, 0.0, 120.0]))
    by_parts = _write(tmp_path, "b.json", {
        "n": 3,
        "polarizers": [
            {"alpha": [np.cos(np.pi / 3), -np.sin(np.pi / 3)],
             "beta": [np.cos(np.pi / 3), np.sin(np.pi / 3)]},
            {"alpha": [1.0, 0.0], "beta": [1.0, 0.0]},
            {"alpha": [np.cos(2 * np.pi / 3), -np.sin(2 * np.pi / 3)],
             "beta": [np.cos(2 * np.pi / 3), np.sin(2 * np.pi / 3)]},
        ],
    })
    rec_deg = _run_record(capsys, ["simulate", "--config", by_angle, "--degrees"])
    rec_parts = _run_record(capsys, ["simulate", "--config", by_parts])
    np.testing.assert_allclose(_as_complex(rec_deg["dicke_coefficients"]),
                               _as_complex(rec_parts["dicke_coefficients"]),
                               atol=1e-12)


def test_record_reruns_identically_from_its_own_echo(tmp_path, capsys):
    cfg = _write(tmp_path, "c.json", _theta_config([0.1, 0.9, 2.2]))
    first = _run_record(capsys, ["simulate", "--config", cfg])
    echoed = _write(tmp_path, "echo.json", first["input"]["config"])
    second = _run_record(capsys, ["simulate", "--config", echoed])
    assert first["dicke_coefficients"] == second["dicke_coefficients"]
    assert first["entanglement"] == second["entanglement"]


def test_out_flag_writes_file(tmp_path, capsys):
    cfg = _write(tmp_path, "c.json", _theta_config([0.0]))
    out = tmp_path / "record.json"
    code, printed = _run(capsys, ["simulate", "--config", cfg, "--out", str(out)])
    assert code == 0 and printed == ""
    assert json.loads(out.read_text())["command"] == "simulate"


@pytest.mark.parametrize("where", ["directory", "missing-parent"])
def test_unwritable_out_is_a_config_error(tmp_path, capsys, where):
    cfg = _write(tmp_path, "c.json", _theta_config([0.0]))
    out = tmp_path if where == "directory" else tmp_path / "missing" / "record.json"
    code, printed = _run(capsys, ["simulate", "--config", cfg, "--out", str(out)])
    assert code == 2 and printed == ""


# ---------------------------------------------------------------------------
# synthesize
# ---------------------------------------------------------------------------

def test_synthesize_maximally_entangled_target(tmp_path, capsys):
    amp = 1 / np.sqrt(2)
    cfg = _write(tmp_path, "t.json", {
        "n": 3, "target": [[amp, 0.0], [0.0, 0.0], [0.0, 0.0], [amp, 0.0]]})
    record = _run_record(capsys, ["synthesize", "--config", cfg])
    assert len(record["polarizers"]) == 3
    assert record["verification"]["round_trip_fidelity"] >= 1 - 1e-8


def test_synthesize_trivial_target_uses_plus_polarizers(tmp_path, capsys):
    cfg = _write(tmp_path, "t.json", {
        "n": 3, "target": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]})
    record = _run_record(capsys, ["synthesize", "--config", cfg])
    for entry in record["polarizers"]:
        assert entry["beta"] == [0.0, 0.0]


def test_synthesize_random_target(tmp_path, capsys):
    rng = np.random.default_rng(61)
    raw = rng.normal(size=6) + 1j * rng.normal(size=6)
    raw /= np.linalg.norm(raw)
    cfg = _write(tmp_path, "t.json", {
        "n": 5, "target": [[z.real, z.imag] for z in raw]})
    record = _run_record(capsys, ["synthesize", "--config", cfg])
    assert record["verification"]["round_trip_fidelity"] >= 1 - 1e-8


def test_synthesize_zero_target_is_a_computation_error(tmp_path, capsys):
    cfg = _write(tmp_path, "t.json", {
        "n": 2, "target": [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]})
    code, _ = _run(capsys, ["synthesize", "--config", cfg])
    assert code == 3


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

def test_classify_two_orientations(tmp_path, capsys):
    cfg = _write(tmp_path, "c.json", _theta_config([0.0, 0.0, np.pi / 2]))
    record = _run_record(capsys, ["classify", "--config", cfg])
    assert record["distinct_orientations"] == 2
    assert record["config_class"] == "W"
    assert record["state_class"] == "W"
    assert record["agreement"] is True


def test_classify_three_orientations(tmp_path, capsys):
    cfg = _write(tmp_path, "c.json", _theta_config([0.1, 1.0, 2.0]))
    record = _run_record(capsys, ["classify", "--config", cfg])
    assert record["config_class"] == "GHZ" and record["state_class"] == "GHZ"
    assert record["tangle"] > 0


def test_classify_single_orientation(tmp_path, capsys):
    cfg = _write(tmp_path, "c.json", _theta_config([0.7, 0.7, 0.7]))
    record = _run_record(capsys, ["classify", "--config", cfg])
    assert record["config_class"] == "S" and record["state_class"] == "S"


def test_classify_requires_three_polarizers(tmp_path, capsys):
    cfg = _write(tmp_path, "c.json", _theta_config([0.0, 1.0]))
    code, _ = _run(capsys, ["classify", "--config", cfg])
    assert code == 2


def test_classify_flags_borderline_disagreement(tmp_path, capsys):
    # orientations distinct but nearly coincident: the settings promise the
    # maximally-entangled class while the state measures as zero-tangle
    cfg = _write(tmp_path, "c.json", _theta_config([0.0, 1e-5, 1.0]))
    code, out = _run(capsys, ["classify", "--config", cfg])
    assert code == 4
    record = json.loads(out)
    assert record["agreement"] is False
    assert record["config_class"] == "GHZ"
    assert record["state_class"] != "GHZ"


# ---------------------------------------------------------------------------
# pyramid
# ---------------------------------------------------------------------------

def test_pyramid_text_and_edges(tmp_path, capsys):
    cfg = _write(tmp_path, "c.json", _theta_config(GHZ_THETAS))
    code, out = _run(capsys, ["pyramid", "--config", cfg])
    assert code == 0
    text, csv_part = out.split("\n\n", 1)
    assert text.count("step ") == 4
    final_kets = [line for line in text.splitlines()[-8:]]
    assert len(final_kets) == 8
    lines = csv_part.strip().splitlines()
    assert lines[0] == "level,parent_ket,child_ket,amp_re,amp_im"
    assert all(len(line.split(",")) == 5 for line in lines[1:])


def test_pyramid_dump_matches_the_string_slicing_reference(tmp_path, capsys):
    rng = np.random.default_rng(61)
    for n in range(1, 5):
        config = random_config(rng, n)
        cfg = _write(tmp_path, "c.json", {"n": n, "polarizers": [
            {"alpha": [p.alpha.real, p.alpha.imag], "beta": [p.beta.real, p.beta.imag]}
            for p in config]})
        code, out = _run(capsys, ["pyramid", "--config", cfg])
        assert code == 0
        blocks = out.split("\n\n", 1)[0].split("step ")[1:]
        assert [block.split(":", 1)[0] for block in blocks] == [str(m) for m in range(n + 1)]
        for block, want in zip(blocks, reference_pyramid(config)):
            rows = [line.split() for line in block.splitlines()[1:]]
            kets = [ket.strip("|>") for ket, _ in rows]
            assert kets == sorted(want)
            for ket, (_, amp) in zip(kets, rows):
                # 12 significant digits are printed
                assert complex(amp) == pytest.approx(want[ket], rel=1e-11, abs=1e-12)


def test_pyramid_two_levels_for_single_emitter(tmp_path, capsys):
    cfg = _write(tmp_path, "c.json", _theta_config([0.4]))
    code, out = _run(capsys, ["pyramid", "--config", cfg])
    assert code == 0
    assert out.count("step ") == 2


def test_pyramid_edges_match_brute_force(tmp_path, capsys):
    thetas = [0.3, 1.4]
    cfg = _write(tmp_path, "c.json", _theta_config(thetas))
    code, out = _run(capsys, ["pyramid", "--config", cfg])
    assert code == 0
    rows = [line.split(",") for line in out.split("\n\n", 1)[1].strip().splitlines()[1:]]
    amps = {"ee": 1.0 + 0.0j}
    for level in ("1", "2"):
        nxt: dict = {}
        for lvl, parent, child, re, im in rows:
            if lvl == level and parent in amps:
                nxt[child] = nxt.get(child, 0.0) + amps[parent] * complex(float(re), float(im))
        amps = nxt
    config = ds.PolarizerConfig.from_angles(thetas)
    reg = ds.EmitterRegister.ground(2)
    for p in config:
        reg = ds.apply_detection(reg, p)
    dense = ket_amplitudes(reg)
    for ket, amp in amps.items():
        assert amp == pytest.approx(dense[ket], abs=1e-12)


def test_pyramid_size_guard(tmp_path, capsys):
    cfg = _write(tmp_path, "c.json", _theta_config([0.1] * 7))
    code, _ = _run(capsys, ["pyramid", "--config", cfg])
    assert code == 2


def test_pyramid_out_flag_wraps_record(tmp_path, capsys):
    cfg = _write(tmp_path, "c.json", _theta_config([0.2, 1.1]))
    out = tmp_path / "pyr.json"
    code, printed = _run(capsys, ["pyramid", "--config", cfg, "--out", str(out)])
    assert code == 0 and printed == ""
    record = json.loads(out.read_text())
    assert record["pyramid_text"].startswith("step 0:")
    assert record["pyramid_edges_csv"].splitlines()[0] == \
        "level,parent_ket,child_ket,amp_re,amp_im"


# ---------------------------------------------------------------------------
# fidelity
# ---------------------------------------------------------------------------

def _fidelity_config(window_halfangle=0.0, sigma=0.0, samples=50, seed=9):
    thetas = [np.pi / 8 + k * np.pi / 4 for k in range(4)]
    return {
        "n": 4,
        "polarizers": [{"theta": t} for t in thetas],
        "geometry": {"spacing": 5e-6, "transverse_sigma": sigma,
                     "wavelength": 493e-9, "window_halfangle": window_halfangle},
        "samples": samples,
        "seed": seed,
    }


def test_fidelity_ideal_limit(tmp_path, capsys):
    cfg = _write(tmp_path, "f.json", _fidelity_config())
    record = _run_record(capsys, ["fidelity", "--config", cfg])
    est = record["fidelity_estimate"]
    assert est["mean_fidelity"] == pytest.approx(1.0, abs=1e-12)
    assert est["excluded_count"] == 0
    assert record["parameters"]["seed"] == 9


def test_fidelity_seeded_record_reruns_identically(tmp_path, capsys):
    cfg = _write(tmp_path, "f.json",
                 _fidelity_config(np.deg2rad(0.5), 5e-9, samples=300))
    first = _run_record(capsys, ["fidelity", "--config", cfg])
    echoed = _write(tmp_path, "echo.json", first["input"]["config"])
    second = _run_record(capsys, ["fidelity", "--config", echoed])
    assert first["fidelity_estimate"] == second["fidelity_estimate"]


def test_fidelity_flag_overrides(tmp_path, capsys):
    cfg = _write(tmp_path, "f.json", _fidelity_config(samples=10, seed=1))
    record = _run_record(capsys, ["fidelity", "--config", cfg,
                                  "--samples", "25", "--seed", "4"])
    assert record["fidelity_estimate"]["sample_count"] == 25
    assert record["parameters"]["seed"] == 4


def test_fidelity_record_with_flag_overrides_reruns_from_its_own_input(tmp_path, capsys):
    cfg = _write(tmp_path, "f.json",
                 _fidelity_config(np.deg2rad(0.5), 5e-9, samples=10, seed=1))
    first = _run_record(capsys, ["fidelity", "--config", cfg,
                                 "--samples", "25", "--seed", "4"])
    flags = first["input"]["flags"]
    assert flags == {"degrees": False, "samples": 25, "seed": 4}
    echoed = _write(tmp_path, "echo.json", first["input"]["config"])
    argv = ["fidelity", "--config", echoed, "--samples", str(flags["samples"]),
            "--seed", str(flags["seed"])]
    assert _run_record(capsys, argv) == first


def test_fidelity_requires_samples(tmp_path, capsys):
    payload = _fidelity_config()
    del payload["samples"]
    cfg = _write(tmp_path, "f.json", payload)
    code, _ = _run(capsys, ["fidelity", "--config", cfg])
    assert code == 2


def test_fidelity_sweep_is_monotone_with_paired_seeds(tmp_path, capsys):
    cfg = _write(tmp_path, "f.json",
                 _fidelity_config(sigma=5e-9, samples=400, seed=11))
    code, out = _run(capsys, ["fidelity", "--config", cfg, "--degrees",
                              "--sweep", "0:1:3"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("window_halfangle,mean_fidelity")
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 3
    windows = [float(r[0]) for r in rows]
    means = [float(r[1]) for r in rows]
    np.testing.assert_allclose(windows, np.deg2rad([0.0, 0.5, 1.0]), atol=1e-12)
    assert means[0] >= means[1] >= means[2]


def test_a_sweep_row_is_the_record_at_its_window(tmp_path, capsys):
    # non-unit directions, whose unit vectors a second normalization would move
    rng = np.random.default_rng(24)
    for k in range(20):
        payload = _fidelity_config(0.01, 5e-9, samples=50, seed=1)
        payload["geometry"]["detector_directions"] = rng.standard_normal((4, 3)).tolist()
        cfg = _write(tmp_path, "f.json", payload)
        est = _run_record(capsys, ["fidelity", "--config", cfg])["fidelity_estimate"]
        code, out = _run(capsys, ["fidelity", "--config", cfg, "--sweep", "0.01:0.01:2"])
        assert code == 0
        for row in out.splitlines()[1:]:
            assert row.split(",")[1:] == [
                f"{est['mean_fidelity']:.15g}", f"{est['standard_error']:.15g}",
                str(est["sample_count"]), str(est["excluded_count"])], k


def test_a_sweep_builds_its_geometry_once(tmp_path, capsys, monkeypatch):
    calls = []
    basis = window._transverse_basis

    def counted(positions):
        calls.append(None)
        return basis(positions)

    monkeypatch.setattr(window, "_transverse_basis", counted)
    cfg = _write(tmp_path, "f.json", _fidelity_config(sigma=5e-9, samples=5))
    code, out = _run(capsys, ["fidelity", "--config", cfg, "--sweep", "0:0.02:6"])
    assert code == 0
    assert len(out.splitlines()) == 7
    assert len(calls) == 1


def _failing_after(monkeypatch, finished, seen=None, error=ds.ZeroStateError):
    """Patch the CLI's estimate so that the point after ``finished`` raises ``error``.

    Before each point, ``seen`` (a callable) records what has been written so far.
    """
    calls = []
    estimate = ds.estimate_fidelity

    def patched(*args, **kwargs):
        if seen is not None:
            seen()
        calls.append(None)
        if len(calls) > finished:
            raise error("patched failure")
        return estimate(*args, **kwargs)

    monkeypatch.setattr(cli, "estimate_fidelity", patched)


def test_sweep_writes_each_row_as_its_point_finishes(tmp_path, capsys, monkeypatch):
    cfg = _write(tmp_path, "f.json", _fidelity_config(sigma=5e-9, samples=20))
    code, want = _run(capsys, ["fidelity", "--config", cfg, "--sweep", "0:0.02:4"])
    assert code == 0
    out = tmp_path / "sweep.csv"
    written = []
    _failing_after(monkeypatch, 4, lambda: written.append(
        out.read_text() if out.exists() else None))
    code, printed = _run(capsys, ["fidelity", "--config", cfg, "--sweep", "0:0.02:4",
                                  "--out", str(out)])
    assert code == 0 and printed == ""
    lines = want.splitlines(keepends=True)
    # nothing before the first point, then the header with the first row
    assert written == [None] + ["".join(lines[:k + 1]) for k in range(1, 4)]
    assert out.read_text() == want
    printed = []
    _failing_after(monkeypatch, 4, lambda: printed.append(capsys.readouterr().out))
    code, rest = _run(capsys, ["fidelity", "--config", cfg, "--sweep", "0:0.02:4"])
    assert code == 0
    assert printed == ["", lines[0] + lines[1], lines[2], lines[3]]
    assert "".join(printed) + rest == want


@pytest.mark.parametrize("finished", [0, 2])
@pytest.mark.parametrize("error, exit_code", [(ds.ZeroStateError, 3), (ds.ConfigError, 2)],
                         ids=["compute", "config"])
def test_a_sweep_that_fails_keeps_the_rows_it_finished(tmp_path, capsys, monkeypatch,
                                                       finished, error, exit_code):
    cfg = _write(tmp_path, "f.json", _fidelity_config(sigma=5e-9, samples=20))
    code, want = _run(capsys, ["fidelity", "--config", cfg, "--sweep", "0:0.02:4"])
    assert code == 0
    kept = "".join(want.splitlines(keepends=True)[:finished + 1]) if finished else ""
    _failing_after(monkeypatch, finished, error=error)
    code, printed = _run(capsys, ["fidelity", "--config", cfg, "--sweep", "0:0.02:4"])
    assert (code, printed) == (exit_code, kept)
    # the same rows in an --out file, which is not created before the first row
    _failing_after(monkeypatch, finished, error=error)
    out = tmp_path / "sweep.csv"
    code, printed = _run(capsys, ["fidelity", "--config", cfg, "--sweep", "0:0.02:4",
                                  "--out", str(out)])
    assert (code, printed) == (exit_code, "")
    assert (out.read_text() if out.exists() else None) == (kept or None)


def test_an_unwritable_sweep_out_is_a_config_error(tmp_path, capsys):
    cfg = _write(tmp_path, "f.json", _fidelity_config(samples=5))
    code, printed = _run(capsys, ["fidelity", "--config", cfg, "--sweep", "0:1:3",
                                  "--out", str(tmp_path)])
    assert (code, printed) == (2, "")


@pytest.mark.parametrize("arrays", [(), ("emitter_positions",), ("detector_directions",),
                                    ("emitter_positions", "detector_directions")],
                         ids=["none", "positions", "directions", "both"])
def test_the_geometry_is_built_once(tmp_path, capsys, monkeypatch, arrays):
    payload = _fidelity_config(np.deg2rad(0.5), 5e-9, samples=5)
    chain = ds.DetectionGeometry.linear_chain(4)
    for key in arrays:
        payload["geometry"][key] = getattr(chain, key).tolist()
    bases = []
    basis = window._transverse_basis
    monkeypatch.setattr(window, "_transverse_basis",
                        lambda positions: bases.append(None) or basis(positions))
    record = _run_record(capsys, ["fidelity", "--config", _write(tmp_path, "f.json", payload)])
    assert len(bases) == 1
    assert record["parameters"]["detector_directions"] == _round15(
        chain.detector_directions.tolist())


def test_chain_scalars_are_checked_before_the_arrays(tmp_path, capsys):
    # as when the chain was built first and its arrays replaced afterwards
    payload = _fidelity_config()
    payload["geometry"].update(wavelength=-1.0, emitter_positions=[["x", 0, 0]] * 4)
    code, _ = _run(capsys, ["fidelity", "--config", _write(tmp_path, "f.json", payload)])
    assert code == 2
    assert capsys.readouterr().err == ""  # _run already took it
    main(["fidelity", "--config", _write(tmp_path, "f.json", payload)])
    assert "wavelength must be positive" in capsys.readouterr().err


def test_empty_geometry_is_the_default_linear_chain(tmp_path, capsys):
    from dickesim.cli import _round15

    payload = _fidelity_config()
    payload["geometry"] = {}
    record = _run_record(capsys, ["fidelity", "--config",
                                  _write(tmp_path, "f.json", payload)])
    chain = ds.DetectionGeometry.linear_chain(4)
    assert record["parameters"] == _round15({
        "samples": 50, "seed": 9,
        "wavelength": chain.wavelength,
        "transverse_sigma": chain.transverse_sigma,
        "window_halfangle": chain.window_halfangle,
        "emitter_positions": chain.emitter_positions.tolist(),
        "detector_directions": chain.detector_directions.tolist(),
    })


def test_explicit_chain_arrays_match_the_spacing_shorthand(tmp_path, capsys):
    payload = _fidelity_config(np.deg2rad(0.5), 5e-9, samples=40)
    shorthand = _run_record(capsys, ["fidelity", "--config",
                                     _write(tmp_path, "a.json", payload)])
    chain = ds.DetectionGeometry.linear_chain(4, spacing=5e-6)
    geometry = payload["geometry"]
    del geometry["spacing"]
    geometry["emitter_positions"] = chain.emitter_positions.tolist()
    geometry["detector_directions"] = chain.detector_directions.tolist()
    explicit = _run_record(capsys, ["fidelity", "--config",
                                    _write(tmp_path, "b.json", payload)])
    assert explicit["input"] != shorthand["input"]
    del explicit["input"], shorthand["input"]
    assert explicit == shorthand
    # both arrays consistent with each other but not with n
    geometry["emitter_positions"] = geometry["emitter_positions"][:3]
    geometry["detector_directions"] = geometry["detector_directions"][:3]
    code, out = _run(capsys, ["fidelity", "--config", _write(tmp_path, "c.json", payload)])
    assert code == 2 and out == ""


@pytest.mark.parametrize("seed", [-1, True, "x"], ids=["negative", "bool", "str"])
def test_invalid_config_seed_is_a_config_error(tmp_path, capsys, seed):
    cfg = _write(tmp_path, "f.json", _fidelity_config(seed=seed))
    for extra in ([], ["--sweep", "0:1:2"]):
        code, out = _run(capsys, ["fidelity", "--config", cfg, *extra])
        assert code == 2, extra
        assert out == ""


def test_negative_seed_flag_is_a_config_error(tmp_path, capsys):
    cfg = _write(tmp_path, "f.json", _fidelity_config())
    code, out = _run(capsys, ["fidelity", "--config", cfg, "--seed", "-1"])
    assert code == 2
    assert out == ""


# ---------------------------------------------------------------------------
# record layout
# ---------------------------------------------------------------------------

_RECORD_FIELDS = {
    "simulate": ["system_size", "dicke_coefficients", "entanglement"],
    "synthesize": ["system_size", "polarizers", "achieved_coefficients", "verification"],
    "classify": ["distinct_orientations", "config_class", "state_class", "tangle",
                 "entropies", "agreement"],
    "pyramid": ["system_size", "pyramid_text", "pyramid_edges_csv"],
    "fidelity": ["system_size", "fidelity_estimate", "parameters"],
}

_VERB_CONFIGS = {
    "simulate": _theta_config(GHZ_THETAS),
    "synthesize": {"n": 2, "target": [[0.6, 0.0], [0.0, 0.0], [0.0, 0.8]]},
    "classify": _theta_config([0.1, 1.0, 2.0]),
    "pyramid": _theta_config([0.2, 1.1]),
    "fidelity": _fidelity_config(np.deg2rad(0.5), 5e-9, samples=20),
}


@pytest.mark.parametrize("verb", list(_RECORD_FIELDS))
def test_record_layout_and_out_file_match_stdout(tmp_path, capsys, verb):
    cfg = _write(tmp_path, "c.json", _VERB_CONFIGS[verb])
    code, printed = _run(capsys, [verb, "--config", cfg])
    assert code == 0
    out = tmp_path / "record.json"
    code, nothing = _run(capsys, [verb, "--config", cfg, "--out", str(out)])
    assert code == 0 and nothing == ""
    written = out.read_bytes()
    record = json.loads(written)
    assert list(record) == ["tool", "version", "command", *_RECORD_FIELDS[verb], "input"]
    assert record["command"] == verb
    assert list(record["input"]) == ["config", "flags"]
    if verb == "pyramid":  # stdout holds the record's text and CSV, not the record
        assert printed == record["pyramid_text"] + "\n\n" + record["pyramid_edges_csv"] + "\n"
    else:
        assert written == printed.encode("utf-8")


# ---------------------------------------------------------------------------
# exit codes and validation
# ---------------------------------------------------------------------------

def test_missing_config_file(capsys):
    code, _ = _run(capsys, ["simulate", "--config", "/nonexistent.json"])
    assert code == 2


def test_malformed_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    # not JSON, then JSON whose root is not an object
    for text in ("{not json", "[1, 2]", "3", '"n"', "null"):
        path.write_text(text)
        code, out = _run(capsys, ["simulate", "--config", str(path)])
        assert (code, out) == (2, ""), text


@pytest.mark.parametrize("data", [
    b'{"n": 1, "polarizers": [{"theta": 0.5}], "note": "\xff"}',
    b'{"n": ' + b"9" * 4301 + b'}',  # past the digit limit, or else past any size limit
    b'{"n": 1, "note": ' + b"[" * 100_000 + b"]" * 100_000 + b"}",
], ids=["not-utf-8", "long-integer", "deep-nesting"])
def test_undecodable_long_or_deep_json_is_a_config_error(tmp_path, capsys, data):
    path = tmp_path / "bad.json"
    path.write_bytes(data)
    code, out = _run(capsys, ["simulate", "--config", str(path)])
    assert (code, out) == (2, "")


def test_polarizer_count_mismatch(tmp_path, capsys):
    cfg = _write(tmp_path, "c.json", {"n": 3, "polarizers": [{"theta": 0.0}]})
    code, _ = _run(capsys, ["simulate", "--config", cfg])
    assert code == 2


def test_complex_entries_must_be_pairs(tmp_path, capsys):
    cfg = _write(tmp_path, "c.json", {
        "n": 1, "polarizers": [{"alpha": 1.0, "beta": [0.0, 0.0]}]})
    code, _ = _run(capsys, ["simulate", "--config", cfg])
    assert code == 2


def test_zero_polarizer_is_a_config_error(tmp_path, capsys):
    cfg = _write(tmp_path, "c.json", {
        "n": 1, "polarizers": [{"alpha": [0.0, 0.0], "beta": [0.0, 0.0]}]})
    code, _ = _run(capsys, ["simulate", "--config", cfg])
    assert code == 2


@pytest.mark.parametrize("entry", [
    {"theta": 0.0, "alpha": [0.0, 0.0], "beta": [1.0, 0.0]},
    {"theta": 0.0, "thetta": 1.0},
    {"alpha": [1.0, 0.0], "beta": [0.0, 0.0], "gamma": [0.0, 0.0]},
    {"alpha": [1.0, 0.0]},
    {},
], ids=["theta-and-components", "unknown-key", "extra-component", "alpha-only", "empty"])
def test_polarizer_entry_needs_exactly_theta_or_alpha_and_beta(tmp_path, capsys, entry):
    for verb in ("simulate", "pyramid"):
        cfg = _write(tmp_path, "c.json", {"n": 1, "polarizers": [entry]})
        code, out = _run(capsys, [verb, "--config", cfg])
        assert code == 2 and out == ""


def test_unknown_geometry_key(tmp_path, capsys):
    payload = _fidelity_config()
    payload["geometry"]["typo"] = 1
    cfg = _write(tmp_path, "f.json", payload)
    code, _ = _run(capsys, ["fidelity", "--config", cfg])
    assert code == 2


def test_malformed_geometry_values(tmp_path, capsys):
    chain = ds.DetectionGeometry.linear_chain(4)
    # numbers spelled as strings, which numpy would parse
    spelled = [{key: [[str(x) for x in row] for row in getattr(chain, key).tolist()]}
               for key in ("emitter_positions", "detector_directions")]
    for patch in ({"transverse_sigma": "tiny"},
                  {"wavelength": None},
                  {"emitter_positions": [[0.0, 0.0], [1.0, 0.0]]},
                  {"spacing": [5e-6]},
                  *spelled):
        payload = _fidelity_config()
        payload["geometry"].update(patch)
        cfg = _write(tmp_path, "f.json", payload)
        code, out = _run(capsys, ["fidelity", "--config", cfg])
        assert code == 2, patch
        assert out == ""


def test_non_finite_geometry_is_a_config_error(tmp_path, capsys):
    for key in ("window_halfangle", "transverse_sigma"):
        for bad in (float("nan"), float("inf")):
            payload = _fidelity_config()
            payload["geometry"][key] = bad
            cfg = _write(tmp_path, "f.json", payload)
            code, out = _run(capsys, ["fidelity", "--config", cfg])
            assert code == 2, (key, bad)
            assert "NaN" not in out
    cfg = _write(tmp_path, "f.json", _fidelity_config())
    for spec in ("nan:1:3", "0:nan:3", "0:inf:3"):
        code, out = _run(capsys, ["fidelity", "--config", cfg, "--sweep", spec])
        assert code == 2, spec
        assert "nan" not in out.lower()


@pytest.mark.parametrize("patch", [
    {"wavelength": 10 ** 400}, {"transverse_sigma": 10 ** 400},
    {"spacing": 10 ** 400}, {"wavelength": True}, {"transverse_sigma": False},
    {"emitter_positions": [[10 ** 400, 0, 0]] + [[k * 1e-6, 0, 0] for k in range(3)]},
    {"detector_directions": [[0, 10 ** 400, 0]] + [[0, 1, 0]] * 3},
], ids=["huge-wavelength", "huge-sigma", "huge-spacing", "bool-wavelength",
        "bool-sigma", "huge-position", "huge-direction"])
def test_out_of_range_or_boolean_geometry_is_a_config_error(tmp_path, capsys, patch):
    payload = _fidelity_config()
    payload["geometry"].update(patch)
    code, out = _run(capsys, ["fidelity", "--config", _write(tmp_path, "f.json", payload)])
    assert code == 2, patch
    assert out == ""


@pytest.mark.parametrize("sigma", [1e301, 2e301], ids=["sample-phases", "phase-table"])
def test_overflowing_phases_are_a_config_error(tmp_path, capsys, sigma):
    # once a record with most samples excluded as annihilated (1e301), or exit 3
    payload = _fidelity_config(np.deg2rad(0.5), sigma, samples=200)
    cfg = _write(tmp_path, "f.json", payload)
    code = main(["fidelity", "--config", cfg])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "config error" in captured.err and "overflow" in captured.err


@pytest.mark.parametrize("flags", [[], ["--sweep", "0:0.01:3"]], ids=["record", "sweep"])
def test_overflowing_sample_phases_print_only_the_error(tmp_path, capsys, flags):
    # numpy's warnings about the overflow must not reach stderr ahead of the message
    cfg = _write(tmp_path, "f.json", _fidelity_config(np.deg2rad(0.5), 1e301, samples=200))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["fidelity", "--config", cfg, *flags])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == "" and caught == []
    assert captured.err.startswith("dickesim: config error: ")
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")


@pytest.mark.parametrize("pair", [[10 ** 400, 0], [True, 0], [0, float("nan")]],
                         ids=["huge-int", "bool", "nan"])
def test_out_of_range_boolean_or_non_finite_alpha_is_a_config_error(tmp_path, capsys, pair):
    cfg = _write(tmp_path, "c.json", {
        "n": 1, "polarizers": [{"alpha": pair, "beta": [0.0, 1.0]}]})
    code, out = _run(capsys, ["simulate", "--config", cfg])
    assert code == 2
    assert out == ""


@pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity", "1e999"])
def test_non_finite_number_anywhere_in_config_is_a_config_error(tmp_path, capsys, text):
    # unused keys too: the record echoes the config, and must stay strict JSON
    path = tmp_path / "c.json"
    path.write_text('{"n": 1, "polarizers": [{"theta": 0.5}], "seed": %s}' % text)
    code, out = _run(capsys, ["simulate", "--config", str(path)])
    assert code == 2
    assert out == ""


def test_boolean_system_size_is_a_config_error(tmp_path, capsys):
    for flag in (True, False):
        cfg = _write(tmp_path, "c.json", {"n": flag, "polarizers": [{"theta": 0.0}]})
        code, _ = _run(capsys, ["simulate", "--config", cfg])
        assert code == 2


def test_fidelity_above_size_limit_is_a_config_error(tmp_path, capsys):
    from dickesim.core import REGISTER_SIZE_LIMIT

    n = REGISTER_SIZE_LIMIT + 1
    payload = _theta_config([0.0] * n, samples=1)
    payload["geometry"] = {}
    cfg = _write(tmp_path, "f.json", payload)
    code, out = _run(capsys, ["fidelity", "--config", cfg])
    assert code == 2
    assert out == ""


def test_bad_sweep_spec(tmp_path, capsys):
    cfg = _write(tmp_path, "f.json", _fidelity_config())
    for spec in ("oops", "a:1:3", "0:1:x"):  # not three parts, or parts that are not numbers
        code, out = _run(capsys, ["fidelity", "--config", cfg, "--sweep", spec])
        assert (code, out) == (2, ""), spec


@pytest.mark.parametrize("count", [10 ** 12, 10 ** 20, 10 ** 400], ids=["1e12", "1e20", "1e400"])
def test_a_huge_sweep_count_allocates_nothing_up_front(tmp_path, capsys, count):
    # the points are made one at a time, so the first one meets the sample check
    cfg = _write(tmp_path, "f.json", _fidelity_config(samples=0))
    code, out = _run(capsys, ["fidelity", "--config", cfg, "--sweep", f"0:1:{count}"])
    assert code == 2
    assert out == ""


@pytest.mark.parametrize("spec", ["0:1:3", "0:0.02:2", "0.5:0.5:4", "0:0:2", "1e-5:0.3:33",
                                  "3:7.25:17", "0:5e-324:7", "1e-300:1e-300:5"])
@pytest.mark.parametrize("degrees", [False, True], ids=["radians", "degrees"])
def test_sweep_points_are_those_of_linspace_bit_for_bit(spec, degrees):
    start, stop, count = spec.split(":")
    want = np.linspace(float(start), float(stop), int(count))
    if degrees:
        want = np.deg2rad(want)
    assert [float(x).hex() for x in _parse_sweep(spec, degrees)] == list(map(float.hex, want))


@pytest.mark.parametrize("theta", [float("nan"), float("inf"), float("-inf"),
                                   True, 10 ** 400],
                         ids=["nan", "inf", "-inf", "true", "huge-int"])
def test_non_finite_or_boolean_theta_is_a_config_error(tmp_path, capsys, theta):
    cfg = _write(tmp_path, "c.json", {"n": 3, "polarizers": [
        {"theta": theta}, {"theta": 1.0}, {"theta": 2.0}]})
    for verb in ("simulate", "classify", "pyramid"):
        code, out = _run(capsys, [verb, "--config", cfg])
        assert code == 2, verb
        assert out == ""


def test_boolean_window_halfangle_is_a_config_error(tmp_path, capsys):
    payload = _fidelity_config()
    payload["geometry"]["window_halfangle"] = True
    code, out = _run(capsys, ["fidelity", "--config", _write(tmp_path, "f.json", payload)])
    assert code == 2
    assert out == ""
