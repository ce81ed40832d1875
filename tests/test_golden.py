"""Byte-level regression gate on the CLI's ``--output-json`` documents.

``tests/golden/`` holds the recommendation and windows documents the
CLI writes for the bundled demos.  Each test regenerates its document
in-process and compares bytes, so any change to planning, pricing or
solver tie resolution that alters a recommendation shows up here.
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

CASES = [
    ("hotel.json", ["--demo", "hotel"]),
    ("rubis-bidding.json", ["--demo", "rubis", "--mix", "bidding"]),
    ("rubis-browsing.json", ["--demo", "rubis", "--mix", "browsing"]),
    ("windows-rubis-drift.json", ["windows", "--demo", "rubis-drift"]),
]


@pytest.mark.parametrize("name, argv", CASES,
                         ids=[name for name, _ in CASES])
def test_document_matches_golden(tmp_path, capsys, name, argv):
    target = tmp_path / name
    with warnings.catch_warnings():
        # the RuBiS demos hit the planner's plan cap by design
        warnings.simplefilter("ignore")
        assert main(argv + ["--output-json", str(target)]) == 0
    capsys.readouterr()
    assert target.read_bytes() == (GOLDEN / name).read_bytes(), (
        f"{name} differs from tests/golden/{name}")
