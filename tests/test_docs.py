"""The README's examples run: its configuration file through every verb, and its quick tour."""

import json
import re
from pathlib import Path

import pytest

from dickesim.cli import VERBS, main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _block(heading, language):
    """The first ``language`` code block after the line ``heading``."""
    match = re.search(rf"^{re.escape(heading)}\n.*?^```{language}\n(.*?)^```", README,
                      re.MULTILINE | re.DOTALL)
    assert match, f"no {language} block under {heading!r}"
    return match.group(1)


@pytest.mark.parametrize("verb", VERBS)
def test_the_readme_configuration_runs_through_every_verb(verb, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(_block("### Configuration file", "json"), encoding="utf-8")
    out = tmp_path / "record.json"
    extra = ["--samples", "100"] if verb == "fidelity" else []
    assert main([verb, "--config", str(path), "--out", str(out), *extra]) == 0
    record = json.loads(out.read_text(encoding="utf-8"))
    assert record["command"] == verb
    assert capsys.readouterr().err == ""


def test_the_readme_quick_tour_runs(capsys):
    tour = {}
    exec(compile(_block("## Library quick tour", "python"), "README quick tour", "exec"), tour)
    assert capsys.readouterr().out
    ds = tour["ds"]
    assert ds.classify_from_config(tour["config"]).predicted_class == "GHZ"
    achieved = ds.dicke_coefficients(tour["recovered"])
    assert ds.fidelity(achieved, tour["target"]) == pytest.approx(1.0)
    assert tour["estimate"].sample_count == 10_000
