"""Tests for the ``nose-advisor windows`` subcommand and monitor bridge."""

import pytest

from repro.cli import main
from repro.io import load_document
from repro.windows import WINDOWS_FORMAT

MODULE_SOURCE = """\
from repro.demo import hotel_model, hotel_workload

def build():
    model = hotel_model(scale=0.02)
    workload = hotel_workload(model, include_updates=True)
    workload.scale_weights(50, mix="writes")
    return model, workload
"""


@pytest.fixture()
def workload_module(tmp_path):
    module = tmp_path / "phased_workload.py"
    module.write_text(MODULE_SOURCE)
    return str(module)


def test_windows_subcommand_on_module(workload_module, tmp_path,
                                      capsys):
    target = tmp_path / "windows.json"
    assert main(["windows", "--model", workload_module,
                 "--windows", "default:400,writes:400",
                 "--timing", "--output-json", str(target)]) == 0
    output = capsys.readouterr().out
    assert "windowed schema schedule" in output
    assert "baselines (same evaluator)" in output
    assert "Stage timing" in output
    document = load_document(target, WINDOWS_FORMAT)
    assert document["format"] == "nose-windows/1"
    assert [entry["mix"] for entry in document["schedule"]] \
        == ["default", "writes"]
    best = min(entry["total_cost"]
               for entry in document["baselines"].values())
    assert document["totals"]["total_cost"] <= best + 1e-6


def test_windows_requires_a_spec_with_model(workload_module, capsys):
    assert main(["windows", "--model", workload_module]) == 1
    assert "--windows" in capsys.readouterr().err


def test_windows_rejects_unknown_mix(workload_module, capsys):
    assert main(["windows", "--model", workload_module,
                 "--windows", "nightly:100"]) == 1
    assert "known mixes" in capsys.readouterr().err


def test_windows_demo_smoke(tmp_path, capsys):
    # tiny RUBiS scale so the smoke stays fast; CI runs the full one
    target = tmp_path / "windows-rubis.json"
    assert main(["windows", "--demo", "rubis-drift", "--users", "300",
                 "--windows", "browsing:300,bidding:300",
                 "--output-json", str(target)]) == 0
    document = load_document(target, WINDOWS_FORMAT)
    assert document["meta"]["source"] == "rubis-drift"
    assert len(document["windows"]) == 2


def test_monitor_replan_bridge(tmp_path, capsys):
    target = tmp_path / "replan.json"
    code = main(["monitor", "--demo", "drift", "--requests", "160",
                 "--users", "300", "--replan-requests", "2000",
                 "--replan-out", str(target)])
    assert code in (0, 3)  # drift detection is the demo's point
    output = capsys.readouterr().out
    assert "windowed schema schedule" in output
    document = load_document(target, WINDOWS_FORMAT)
    assert document["meta"]["source"] == "monitor-replan"
    assert len(document["windows"]) == 1


def test_monitor_replan_out_requires_requests(capsys):
    assert main(["monitor", "--demo", "drift",
                 "--replan-out", "x.json"]) == 1
    assert "--replan-requests" in capsys.readouterr().err
