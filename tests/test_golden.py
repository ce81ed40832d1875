"""Byte-level regression gate on the CLI's ``--output-json`` documents.

``tests/golden/`` holds the recommendation, windows, profile and
monitor documents the CLI writes for the bundled demos.  Each test
regenerates its document in-process, checks the exit code and compares
bytes, so any change to planning, pricing, solver tie resolution or
execution that alters a document shows up here.
Regenerate a golden file deliberately with the command in its
parametrization, e.g.
``PYTHONPATH=src python -m repro.cli --demo hotel --output-json
tests/golden/hotel.json``.
"""

import warnings
from pathlib import Path

import pytest

from repro.cli import main

GOLDEN = Path(__file__).parent / "golden"

#: ``(golden file, CLI arguments, expected exit code)``; the drift
#: demo's verdict is "drift detected", which exits 3
CASES = [
    ("hotel.json", ["--demo", "hotel"], 0),
    ("rubis-bidding.json", ["--demo", "rubis", "--mix", "bidding"], 0),
    ("rubis-browsing.json", ["--demo", "rubis", "--mix", "browsing"], 0),
    ("windows-rubis-drift.json", ["windows", "--demo", "rubis-drift"], 0),
    ("profile-hotel.json",
     ["profile", "--demo", "hotel", "--requests", "200"], 0),
    ("monitor-drift.json", ["monitor", "--demo", "drift"], 3),
]


@pytest.mark.parametrize("name, argv, status", CASES,
                         ids=[name for name, _, _ in CASES])
def test_document_matches_golden(tmp_path, capsys, name, argv, status):
    target = tmp_path / name
    with warnings.catch_warnings():
        # the RuBiS demos hit the planner's plan cap by design
        warnings.simplefilter("ignore")
        assert main(argv + ["--output-json", str(target)]) == status
    capsys.readouterr()
    assert target.read_bytes() == (GOLDEN / name).read_bytes(), (
        f"{name} differs from tests/golden/{name}")
