"""Property test of the CLI over generated configuration files.

Whatever the configuration says, every verb must exit with a documented
code (0, 2, 3 or 4), raise nothing past ``main``, print nothing on a
configuration or computation error, and print only strict JSON records;
``fidelity`` must reject a geometry holding a string, and every verb that
reads polarizers an entry with an extra key, with exit 2.
"""

import contextlib
import io
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dickesim.cli import main

_numbers = st.one_of(st.floats(), st.integers(-3, 3), st.booleans(), st.just(10 ** 400))
_junk = st.one_of(st.none(), st.text(max_size=3), _numbers,
                  st.lists(_numbers, max_size=3))
_pairs = st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=2)
_polarizers = st.one_of(st.fixed_dictionaries({"theta": st.floats(-10.0, 10.0)}),
                        st.fixed_dictionaries({"alpha": _pairs, "beta": _pairs}))
_coordinates = st.floats(-1e-5, 1e-5)
# numpy would parse a numeric string such as "1e-06"; the CLI must reject it
_triples = (st.lists(_coordinates, min_size=3, max_size=3)
            | st.lists(_coordinates | _coordinates.map(str), min_size=3, max_size=3))


@st.composite
def _configs(draw):
    """A valid configuration, in some examples with one value replaced by junk."""
    n = draw(st.integers(1, 4))
    cfg = {"n": n,
           "polarizers": draw(st.lists(_polarizers, min_size=n, max_size=n)),
           "samples": draw(st.integers(1, 20)),
           "seed": draw(st.integers(0, 2 ** 40))}
    if draw(st.booleans()):
        cfg["target"] = draw(st.lists(_pairs, min_size=n + 1, max_size=n + 1))
    if draw(st.sampled_from([True, True, True, False])):
        cfg["geometry"] = draw(st.fixed_dictionaries({}, optional={
            "spacing": st.floats(1e-7, 1e-4),
            "transverse_sigma": st.floats(0.0, 1e-7),
            "wavelength": st.floats(1e-7, 1e-6),
            "window_halfangle": st.floats(0.0, 0.1),
            "emitter_positions": st.lists(_triples, min_size=n, max_size=n),
            "detector_directions": st.lists(_triples, min_size=n, max_size=n),
        }))
    section = draw(st.sampled_from([None, None, None, cfg, cfg["polarizers"],
                                    cfg["polarizers"][0], cfg.get("geometry")]))
    if section:
        key = draw(st.sampled_from(sorted(section) if isinstance(section, dict)
                                   else range(len(section))) | st.just("extra"))
        if isinstance(section, dict) or key != "extra":
            section[key] = draw(_junk)
    return cfg


def _holds_a_string(value) -> bool:
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return any(_holds_a_string(v) for v in value)
    return isinstance(value, str)


def _has_an_extra_polarizer_key(cfg) -> bool:
    polarizers = cfg.get("polarizers")
    return isinstance(polarizers, list) and any(
        isinstance(entry, dict) and "extra" in entry for entry in polarizers)


def _check_strict_output(out: str) -> None:
    if out.startswith("{"):
        json.dumps(json.loads(out), allow_nan=False)
    else:  # pyramid text or sweep CSV, whose headers spell neither word
        assert not re.search("nan|inf", out, re.IGNORECASE), out


@pytest.mark.parametrize("verb", ["simulate", "synthesize", "classify", "pyramid",
                                  "fidelity"])
@settings(max_examples=20)
@given(cfg=_configs(),
       flags=st.lists(st.sampled_from([["--degrees"], ["--samples", "7"],
                                       ["--seed", "-1"], ["--sweep", "0:0.02:2"],
                                       ["--sweep", "oops"]]),
                      max_size=2, unique_by=lambda f: f[0]))
def test_every_config_exits_with_a_documented_code(tmp_path_factory, verb, cfg, flags):
    path = tmp_path_factory.getbasetemp() / f"fuzz-{verb}.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    argv = [verb, "--config", str(path)]
    for flag in flags:
        if verb == "fidelity" or flag == ["--degrees"]:
            argv += flag
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    out = stdout.getvalue()
    assert code in (0, 2, 3, 4), (code, stderr.getvalue())
    if verb == "fidelity" and _holds_a_string(cfg.get("geometry")):
        assert code == 2, stderr.getvalue()  # strings are not numbers
    if verb != "synthesize" and _has_an_extra_polarizer_key(cfg):
        assert code == 2, stderr.getvalue()  # only 'theta' or 'alpha'+'beta'
    if code in (2, 3):
        assert out == ""
    else:
        _check_strict_output(out)
