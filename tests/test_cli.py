"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import WORKLOADS, _config_from_args, _parse_crash, build_parser, main


class TestParsing:
    def test_parse_crash(self):
        plan = _parse_crash("3@0.05")
        assert plan.node == 3
        assert plan.at_time == 0.05

    def test_parse_crash_rejects_garbage(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            _parse_crash("banana")
        with pytest.raises(argparse.ArgumentTypeError):
            _parse_crash("3:0.05")

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_default_recovery_covers_all_protocols(self):
        from repro.protocols import PROTOCOLS

        # with --recovery unset a protocol runs its first supported one
        natural = {
            "fbl": "nonblocking",
            "sender_based": "nonblocking",
            "manetho": "nonblocking",
            "pessimistic": "local",
            "optimistic": "optimistic",
            "coordinated": "coordinated",
            "adaptive": "nonblocking",
        }
        assert set(natural) == set(PROTOCOLS)
        for protocol, recovery in natural.items():
            args = build_parser().parse_args(["run", "--protocol", protocol])
            assert _config_from_args(args).recovery == recovery


class TestRunCommand:
    @pytest.mark.parametrize("workload", WORKLOADS)
    def test_run_every_workload(self, workload, capsys):
        """``--hops`` reaches each workload as the parameter it takes."""
        code = main([
            "run", "--n", "4", "--hops", "3", "--workload", workload,
            "--detection-delay", "0.5", "--state-bytes", "100000",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "consistent: True" in out

    def test_run_failure_free(self, capsys):
        code = main([
            "run", "--n", "4", "--hops", "10",
            "--detection-delay", "0.5", "--state-bytes", "100000",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "deliveries" in out
        assert "consistent: True" in out

    def test_run_with_crash(self, capsys):
        code = main([
            "run", "--n", "4", "--hops", "15", "--crash", "2@0.03",
            "--detection-delay", "0.5", "--state-bytes", "100000",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "recovery durations" in out

    def test_run_with_outputs(self, capsys):
        code = main([
            "run", "--n", "4", "--hops", "15", "--output-every", "4",
            "--detection-delay", "0.5", "--state-bytes", "100000",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "output commits" in out

    @pytest.mark.parametrize("protocol", [
        "sender_based", "manetho", "pessimistic", "optimistic", "coordinated",
    ])
    def test_run_every_protocol(self, capsys, protocol):
        code = main([
            "run", "--n", "4", "--hops", "10", "--protocol", protocol,
            "--detection-delay", "0.5", "--state-bytes", "100000",
        ])
        assert code == 0


class TestCompareCommand:
    def test_compare_two_algorithms(self, capsys):
        code = main([
            "compare", "--n", "4", "--hops", "15", "--crash", "2@0.03",
            "--detection-delay", "0.5", "--state-bytes", "100000",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "fbl+nonblocking" in out
        assert "fbl+blocking" in out
        assert "pessimistic" not in out

    def test_compare_all_protocols(self, capsys):
        code = main([
            "compare", "--all-protocols", "--n", "4", "--hops", "10",
            "--crash", "2@0.03",
            "--detection-delay", "0.5", "--state-bytes", "100000",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "pessimistic" in out
        assert "coordinated" in out


class TestGridCommand:
    def test_sweep_n(self, capsys):
        code = main([
            "grid", "--knob", "n=4,6", "--hops", "10",
            "--crash", "1@0.03",
            "--detection-delay", "0.5", "--state-bytes", "100000",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "grid over n x 1 seed(s) (fbl + nonblocking)" in out
        assert [row[0] for row in _table_rows(out)] == ["n=4", "n=6"]

    def test_sweep_detection(self, capsys):
        code = main([
            "grid", "--knob", "detection=0.3,0.6",
            "--n", "4", "--hops", "10", "--crash", "1@0.03",
            "--state-bytes", "100000",
        ])
        assert code == 0
        rows = _table_rows(capsys.readouterr().out)
        assert [row[0] for row in rows] == ["detection=0.3", "detection=0.6"]

    def test_sweep_rejects_unknown_knob(self):
        with pytest.raises(SystemExit):
            main(["grid", "--knob", "bogus=1,2"])


SMALL = ["--n", "4", "--hops", "10", "--detection-delay", "0.5",
         "--state-bytes", "100000"]


def _table_rows(out):
    """The data rows of the first table in ``out``, split into cells."""
    lines = out.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("-"))
    rows = []
    for line in lines[start + 1:]:
        if "|" not in line:
            break
        rows.append([cell.strip() for cell in line.split("|")])
    return rows


class TestRunObservers:
    def test_run_sanitize_cost_timeline(self, capsys):
        code = main(["run", *SMALL, "--crash", "2@0.03",
                     "--sanitize", "--cost", "--timeline"])
        out = capsys.readouterr().out
        assert code == 0
        assert "legend: = live" in out
        assert "n2  |" in out
        assert "cost ledger (by purpose)" in out
        assert "cost-conserved: yes" in out
        assert "sanitizer: " in out and "events checked" in out
        assert "SANITIZER VIOLATIONS" not in out


class TestReportCommand:
    def test_report_cost_json_and_flame(self, capsys, tmp_path):
        json_out = tmp_path / "cost.json"
        flame_out = tmp_path / "cost.folded"
        code = main(["report", "cost", *SMALL, "--json-out", str(json_out),
                     "--flame-out", str(flame_out)])
        out = capsys.readouterr().out
        assert code == 0
        assert "cost report -- fbl+nonblocking" in out
        assert "cost-conserved: yes" in out
        payload = json.loads(json_out.read_text())
        assert list(payload) == ["fbl+nonblocking"]
        assert payload["fbl+nonblocking"]["conserved"] is True
        lines = flame_out.read_text().splitlines()
        assert lines and all(l.startswith("fbl+nonblocking;") for l in lines)
