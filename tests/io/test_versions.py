"""Format-tag checks on the one document reader."""

import json

import pytest

from repro.exceptions import ParseError
from repro.explain import EXPLAIN_FORMAT
from repro.io import dump_document, load_document
from repro.monitor import MONITOR_FORMAT
from repro.profile import PROFILE_FORMAT
from repro.telemetry import RUN_REPORT_FORMAT, RunReport
from repro.windows import WINDOWS_FORMAT

# formats whose files predate the tag and so may be untagged
UNTAGGED = {EXPLAIN_FORMAT, PROFILE_FORMAT, RUN_REPORT_FORMAT}


def _write(path, document):
    path.write_text(json.dumps(document))
    return str(path)


@pytest.mark.parametrize("fmt", [EXPLAIN_FORMAT, PROFILE_FORMAT,
                                 RUN_REPORT_FORMAT, WINDOWS_FORMAT,
                                 MONITOR_FORMAT])
def test_document_format_contract(fmt, tmp_path):
    # the round trip is byte-stable
    document = {"format": fmt, "b": [1, 2.5], "a": {"z": None, "y": 1}}
    first = dump_document(document, tmp_path / "first.json")
    reloaded = load_document(first, fmt)
    assert reloaded == document
    second = dump_document(reloaded, tmp_path / "second.json")
    assert (tmp_path / "first.json").read_bytes() \
        == (tmp_path / "second.json").read_bytes()

    # a wrong tag is rejected, naming both tags
    name, version = fmt.split("/")
    wrong = f"{name}/{int(version) + 1}"
    path = _write(tmp_path / "wrong.json", {"format": wrong})
    with pytest.raises(ParseError) as caught:
        load_document(path, fmt)
    assert wrong in str(caught.value)
    assert fmt in str(caught.value)
    assert path in str(caught.value)

    # an untagged document loads only for formats predating the tag
    path = _write(tmp_path / "untagged.json", {"a": 1})
    if fmt in UNTAGGED:
        assert load_document(path, fmt) == {"a": 1}
    else:
        with pytest.raises(ParseError, match="missing 'format'") as caught:
            load_document(path, fmt)
        assert fmt in str(caught.value)


def test_load_explain_rejects_unknown_version(tmp_path):
    path = _write(tmp_path / "bad.json",
                  {"format": "nose-explain/99", "indexes": []})
    with pytest.raises(ParseError) as caught:
        load_document(path, EXPLAIN_FORMAT)
    message = str(caught.value)
    assert "nose-explain/99" in message
    assert "nose-explain/1" in message


def test_load_explain_accepts_current_and_legacy(tmp_path):
    current = _write(tmp_path / "current.json",
                     {"format": "nose-explain/1", "indexes": []})
    assert load_document(current, EXPLAIN_FORMAT)["format"] \
        == "nose-explain/1"
    # documents written before the tag existed still load
    legacy = _write(tmp_path / "legacy.json", {"indexes": []})
    assert load_document(legacy, EXPLAIN_FORMAT) == {"indexes": []}


def test_load_profile_rejects_unknown_version(tmp_path):
    path = _write(tmp_path / "bad.json",
                  {"format": "nose-profile/7", "statements": {}})
    with pytest.raises(ParseError) as caught:
        load_document(path, PROFILE_FORMAT)
    assert "nose-profile/7" in str(caught.value)
    assert "nose-profile/1" in str(caught.value)


def test_load_run_report_rejects_unknown_version(tmp_path):
    path = _write(tmp_path / "bad.json",
                  {"format": "nose-run-report/2", "meta": {},
                   "spans": [], "metrics": {}})
    with pytest.raises(ParseError) as caught:
        load_document(path, RUN_REPORT_FORMAT)
    assert "nose-run-report/2" in str(caught.value)
    assert "nose-run-report/1" in str(caught.value)


def test_load_run_report_accepts_legacy_untagged(tmp_path):
    path = _write(tmp_path / "legacy.json",
                  {"meta": {"enabled": True}, "spans": [],
                   "metrics": {}})
    report = RunReport.from_dict(load_document(path, RUN_REPORT_FORMAT))
    assert report.meta["enabled"] is True


def test_load_monitor_requires_format(tmp_path):
    path = _write(tmp_path / "untagged.json", {"ingest": {}})
    with pytest.raises(ParseError) as caught:
        load_document(path, MONITOR_FORMAT)
    assert "nose-monitor/1" in str(caught.value)


def test_load_monitor_rejects_unknown_version(tmp_path):
    path = _write(tmp_path / "bad.json",
                  {"format": "nose-monitor/3"})
    with pytest.raises(ParseError) as caught:
        load_document(path, MONITOR_FORMAT)
    assert "nose-monitor/3" in str(caught.value)
    assert "nose-monitor/1" in str(caught.value)


def test_monitor_round_trip_is_byte_stable(tmp_path):
    document = {"format": "nose-monitor/1",
                "ingest": {"requests": 3, "clock": 3.0},
                "estimates": {"q1": {"weight": 1.5}}}
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    dump_document(document, str(first))
    reloaded = load_document(str(first), MONITOR_FORMAT)
    assert reloaded == document
    dump_document(reloaded, str(second))
    assert first.read_bytes() == second.read_bytes()


def test_non_object_document_is_rejected(tmp_path):
    path = _write(tmp_path / "list.json", [1, 2])
    with pytest.raises(ParseError, match="expected a JSON object") \
            as caught:
        load_document(path, WINDOWS_FORMAT)
    assert path in str(caught.value)
