"""Tests for the ``repro trace`` subcommand and the run observability flags."""

import hashlib
import json

import pytest

from repro.cli import main

RUN_ARGS = [
    "run", "--n", "4", "--hops", "15",
    "--detection-delay", "0.5", "--state-bytes", "100000",
    "--crash", "2@0.03",
]


@pytest.fixture()
def trace_path(tmp_path, capsys):
    """A recorded crash-run trace on disk (spans implied by --trace-out)."""
    path = tmp_path / "run.jsonl"
    assert main(RUN_ARGS + ["--trace-out", str(path)]) == 0
    capsys.readouterr()  # swallow the run summary
    return str(path)


class TestRunFlags:
    def test_profile_flag_prints_host_costs(self, capsys):
        assert main(RUN_ARGS + ["--profile"]) == 0
        out = capsys.readouterr().out
        assert "events/s" in out
        assert "peak RSS" in out

    def test_metrics_flag_prints_registry(self, capsys):
        assert main(RUN_ARGS + ["--metrics"]) == 0
        out = capsys.readouterr().out
        assert "net.messages_sent" in out
        assert "recovery.episode_duration" in out

    def test_trace_out_writes_jsonl(self, trace_path):
        with open(trace_path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
        assert len(lines) > 100
        record = json.loads(lines[0])
        assert {"time", "category", "node", "action"} <= set(record)
        # --trace-out implies spans, so span events must be present
        assert any(json.loads(l)["category"] == "span" for l in lines)


class TestTraceCommand:
    def test_default_summary(self, trace_path, capsys):
        assert main(["trace", trace_path]) == 0
        out = capsys.readouterr().out
        assert "events" in out
        assert "node.crash" in out
        assert "spans" in out

    def test_filters_restrict_events(self, trace_path, capsys):
        assert main(["trace", trace_path, "--node", "2",
                     "--category", "node", "--summary"]) == 0
        out = capsys.readouterr().out
        assert "node.crash" in out
        assert "net.send" not in out

    def test_tail_prints_last_events(self, trace_path, capsys):
        assert main(["trace", trace_path, "--tail", "5"]) == 0
        out = capsys.readouterr().out
        assert len([l for l in out.splitlines() if l and l[0].isdigit()]) == 5

    def test_span_tree(self, trace_path, capsys):
        assert main(["trace", trace_path, "--spans", "--node", "2"]) == 0
        out = capsys.readouterr().out
        assert "recovery.episode" in out
        assert "recovery.detect" in out

    def test_critical_path_attributes_recovery(self, trace_path, capsys):
        assert main(["trace", trace_path, "--critical-path"]) == 0
        out = capsys.readouterr().out
        assert "node 2: recovery" in out
        assert "detection" in out
        assert "bounded by:" in out

    def test_timeline_rendered_from_file(self, trace_path, capsys):
        assert main(["trace", trace_path, "--timeline"]) == 0
        assert "legend:" in capsys.readouterr().out

    def test_chrome_export_is_valid_trace_event_json(self, trace_path, tmp_path, capsys):
        out_path = tmp_path / "run.chrome.json"
        assert main(["trace", trace_path, "--chrome-out", str(out_path)]) == 0
        capsys.readouterr()
        with open(out_path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
        events = doc["traceEvents"]
        assert events
        phases = {e["ph"] for e in events}
        assert "X" in phases  # closed spans
        assert "M" in phases  # metadata (named node tracks)
        assert "i" in phases  # crash/recovered instants
        complete = [e for e in events if e["ph"] == "X"]
        assert all(e["dur"] >= 0 for e in complete)
        names = {e["args"]["name"] for e in events if e["ph"] == "M"}
        assert "node 2" in names

    def test_missing_file_is_an_error(self, capsys):
        assert main(["trace", "/nonexistent/trace.jsonl"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_malformed_trace_names_the_line(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"time": 0.0, "category": "node", "node": 0, "action": "start"}\n'
            '{"time": "soon", "category": "node", "node": 0, "action": "tick"}\n'
        )
        assert main(["trace", str(path)]) == 1
        err = capsys.readouterr().err
        assert "line 2" in err

    def test_critical_path_without_spans_explains(self, tmp_path, capsys):
        path = tmp_path / "plain.jsonl"
        path.write_text(
            '{"time": 0.0, "category": "node", "node": 0, "action": "start"}\n'
        )
        assert main(["trace", str(path), "--critical-path"]) == 0
        assert "--spans" in capsys.readouterr().out


#: sha256 of ``repro trace`` output on the ``trace_path`` run, per flag
#: set, as printed when the kept trace was a list of events.  Reading the
#: trace builds its events, so these pin that the readers still print
#: the same bytes (``--chrome-out``: the printed line, then the file).
TRACE_OUTPUT_SHA256 = {
    "": "95cea60f26de72742d47a480fe067c4f5d5342e7ad90a88bd739418c4d214b92",
    "--tail 20": "d54b63c98f3838714a8a08c9e32502b0d1a7ddb76f34b3794b8a3511a2c57d3b",
    "--timeline": "5a0e8f502083f01cf008a51cb5819a881e0805c006828eb9a6639f099e828f54",
    "--spans": "7579d77b20c939d0c214acaec5b0303463832b5b098b7139cba9dcf39819cb50",
    "--critical-path": "3d7c4feedd03834b5d6d35eda72be5f7877a08f6c8126c7577f9d742f60b2ef4",
    "--chrome-out": "d6b7c8d18878fb04c2d97d7b4b434e60663fca3212b44ff26ff1a4aa42244bbb",
}


@pytest.mark.parametrize("flags", sorted(TRACE_OUTPUT_SHA256))
def test_trace_output_is_byte_identical(flags, trace_path, tmp_path, capsys):
    args = flags.split()
    chrome = tmp_path / "chrome.json"
    if flags == "--chrome-out":
        args.append(str(chrome))
    assert main(["trace", trace_path] + args) == 0
    out = capsys.readouterr().out.replace(str(tmp_path), "<tmp>")
    if flags == "--chrome-out":
        out += chrome.read_text(encoding="utf-8")
    assert hashlib.sha256(out.encode()).hexdigest() == TRACE_OUTPUT_SHA256[flags]
