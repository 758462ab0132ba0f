"""Every example script must run cleanly end to end."""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = sorted(
    (Path(__file__).resolve().parents[2] / "examples").glob("*.py")
)


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.stem)
def test_example_runs(script, capsys, monkeypatch):
    # Examples print a lot; capture and sanity-check rather than assert
    # exact text (data-dependent).
    monkeypatch.setattr(sys, "argv", [str(script)])
    runpy.run_path(str(script), run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip(), f"{script.name} produced no output"


def test_examples_present():
    names = {p.stem for p in EXAMPLES}
    assert {
        "quickstart",
        "figure4_walkthrough",
        "dblp_queries",
        "imdb_queries",
        "patents_queries",
    } <= names
