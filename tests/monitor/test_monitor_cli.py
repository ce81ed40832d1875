"""The ``nose-advisor monitor`` subcommand."""

import json

import pytest

from repro.cli import main

DEMO_ARGS = ["monitor", "--demo", "drift", "--requests", "160",
             "--users", "400"]


@pytest.fixture(scope="module")
def demo_run(tmp_path_factory):
    """One shared demo run: (exit_code, stdout, document)."""
    out = tmp_path_factory.mktemp("monitor") / "monitor-rubis.json"
    import contextlib
    import io

    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(DEMO_ARGS + ["--output-json", str(out)])
    document = json.loads(out.read_text())
    return code, stdout.getvalue(), document


def test_demo_exits_3_on_drift(demo_run):
    code, _output, document = demo_run
    assert code == 3
    assert document["drift"]["weight_alert"]


def test_demo_prints_monitor_report(demo_run):
    _code, output, _document = demo_run
    assert "workload drift monitor" in output
    assert "drift timeline" in output
    assert "regret under observed mix" in output


def test_demo_output_json_is_a_monitor_document(demo_run, tmp_path):
    _code, output, document = demo_run
    assert "monitor document written to" in output
    assert document["format"] == "nose-monitor/1"
    from repro.io import dump_document, load_document
    from repro.monitor import MONITOR_FORMAT

    path = tmp_path / "round.json"
    dump_document(document, str(path))
    assert load_document(str(path), MONITOR_FORMAT) == document


def test_monitor_requires_a_source(capsys):
    assert main(["monitor"]) == 1
    assert "pass --demo drift or --trace-in" in capsys.readouterr().err


def test_trace_in_requires_advised_workload(tmp_path, capsys):
    trace = tmp_path / "trace.json"
    trace.write_text("[]")
    assert main(["monitor", "--trace-in", str(trace)]) == 1
    assert "--model or" in capsys.readouterr().err


def _hotel_module(tmp_path):
    module = tmp_path / "app.py"
    module.write_text(
        "from repro.demo import hotel_model, hotel_workload\n"
        "def build():\n"
        "    model = hotel_model()\n"
        "    return model, hotel_workload(model, "
        "include_updates=True)\n")
    return str(module)


def test_trace_in_unknown_label_is_an_error(tmp_path, capsys):
    trace = tmp_path / "trace.json"
    trace.write_text(json.dumps([{"label": "no_such_statement"}]))
    code = main(["monitor", "--trace-in", str(trace),
                 "--model", _hotel_module(tmp_path)])
    assert code == 1
    assert "no_such_statement" in capsys.readouterr().err


def test_trace_in_malformed_trace_is_an_error(tmp_path, capsys):
    trace = tmp_path / "trace.json"
    trace.write_text(json.dumps({"not_events": 1}))
    code = main(["monitor", "--trace-in", str(trace),
                 "--model", _hotel_module(tmp_path)])
    assert code == 1
    assert "not a trace" in capsys.readouterr().err


def test_trace_in_detects_skewed_trace(tmp_path, capsys):
    # all traffic on one statement: weight drift vs the advised mix
    trace = tmp_path / "trace.json"
    trace.write_text(json.dumps(
        {"events": [{"label": "guest_by_id", "count": 60}]}))
    out = tmp_path / "monitor.json"
    code = main(["monitor", "--trace-in", str(trace),
                 "--model", _hotel_module(tmp_path),
                 "--output-json", str(out)])
    captured = capsys.readouterr()
    assert code == 3
    assert "drift detected" in captured.err
    document = json.loads(out.read_text())
    assert document["drift"]["weight_alert"]
    assert document["meta"]["events"] == 1


def test_trace_in_balanced_trace_exits_0(tmp_path, capsys):
    from repro.demo import hotel_model, hotel_workload

    workload = hotel_workload(hotel_model(), include_updates=True)
    events = [{"label": statement.label,
               "count": max(round(weight * 1000), 1)}
              for statement, weight in workload.weighted_statements]
    trace = tmp_path / "trace.json"
    trace.write_text(json.dumps(events))
    # the trace replays each statement as one burst; a huge half-life
    # keeps the early bursts from decaying below their advised share
    code = main(["monitor", "--trace-in", str(trace),
                 "--model", _hotel_module(tmp_path),
                 "--half-life", "1000000"])
    capsys.readouterr()
    assert code == 0


def test_monitor_trace_flag_prints_run_report(tmp_path, capsys,
                                              monkeypatch):
    monkeypatch.delenv("NOSE_TELEMETRY", raising=False)
    trace = tmp_path / "trace.json"
    trace.write_text(json.dumps(
        [{"label": "guest_by_id", "count": 60}]))
    code = main(["monitor", "--trace-in", str(trace),
                 "--model", _hotel_module(tmp_path), "--trace"])
    output = capsys.readouterr().out
    assert code == 3
    assert "run report" in output
    assert "monitor.checks" in output
    assert "monitor.weight_alert" in output


def test_model_and_json_are_exclusive(tmp_path):
    # --json used to win silently over --model
    with pytest.raises(SystemExit):
        main(["monitor", "--trace-in", "t.json",
              "--model", _hotel_module(tmp_path), "--json", "app.json"])


def test_trace_in_is_not_allowed_with_demo(tmp_path):
    with pytest.raises(SystemExit):
        main(["monitor", "--demo", "drift", "--trace-in", "t.json"])


def test_trace_in_missing_file_names_the_path(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    code = main(["monitor", "--trace-in", str(missing),
                 "--model", _hotel_module(tmp_path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error:")
    assert str(missing) in captured.err
    assert "Traceback" not in captured.err
