"""Command-line interface: exit codes, output shapes, diagnostics."""

import json

import pytest

from conftest import EXAMPLES

from locpar.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def diags(err: str):
    return [json.loads(line) for line in err.splitlines() if line.strip()]


class TestCheck:
    def test_ok(self, capsys):
        code, out, _ = run_cli(capsys, "check", str(EXAMPLES / "constfold.lcp"))
        assert code == 0 and out.strip() == "ok"

    def test_type_error_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "check", str(EXAMPLES / "bad_alias.lcp"))
        assert code == 1
        assert diags(err)[0]["code"] == "RegionAliasing"

    def test_missing_file_exits_3(self, capsys):
        code, _, err = run_cli(capsys, "check", "/no/such/file.lcp")
        assert code == 3
        assert diags(err)[0]["code"] == "Usage"

    def test_parse_error_exits_1(self, capsys, tmp_path):
        bad = tmp_path / "broken.lcp"
        bad.write_text("fun ( = in\n")
        code, _, err = run_cli(capsys, "check", str(bad))
        assert code == 1


class TestRunSeq:
    def test_located_value_output(self, capsys):
        code, out, _ = run_cli(capsys, "run", str(EXAMPLES / "constfold.lcp"))
        assert code == 0
        assert out.startswith("value at (")

    def test_dump_heap(self, capsys):
        code, out, _ = run_cli(capsys, "run", str(EXAMPLES / "constfold.lcp"),
                               "--dump-heap")
        assert code == 0
        assert "[Plus, Lit, 20, Lit, 22]" in out

    def test_metrics_to_stdout(self, capsys):
        code, out, _ = run_cli(capsys, "run", str(EXAMPLES / "constfold.lcp"),
                               "--metrics", "-")
        assert code == 0
        payload = json.loads(out.splitlines()[-1])
        assert payload["steps"] == 36 and payload["extra_regions"] == 0


class TestRunPar:
    def test_always_schedule_metrics(self, capsys):
        code, out, _ = run_cli(capsys, "run", str(EXAMPLES / "constfold.lcp"),
                               "--mode", "par", "--schedule", "always",
                               "--metrics", "-")
        assert code == 0
        payload = json.loads(out.splitlines()[-1])
        assert payload["forks"] == 1 and payload["extra_regions"] == 1

    def test_trace_round_trip(self, capsys, tmp_path):
        trace = tmp_path / "sched.jsonl"
        code, _, _ = run_cli(capsys, "run", str(EXAMPLES / "constfold.lcp"),
                             "--mode", "par", "--schedule", "random:9",
                             "--trace", str(trace), "--dump-heap")
        assert code == 0
        code2, out2, _ = run_cli(capsys, "run", str(EXAMPLES / "constfold.lcp"),
                                 "--mode", "par",
                                 "--schedule", f"trace:{trace}",
                                 "--dump-heap")
        assert code2 == 0
        # replaying the recorded schedule reproduces the run
        code3, out3, _ = run_cli(capsys, "run", str(EXAMPLES / "constfold.lcp"),
                                 "--mode", "par",
                                 "--schedule", f"trace:{trace}",
                                 "--dump-heap")
        assert out2 == out3

    def test_wf_checks_enabled(self, capsys):
        code, _, _ = run_cli(capsys, "run", str(EXAMPLES / "constfold.lcp"),
                             "--mode", "par", "--schedule", "always",
                             "--check-wf-every-step")
        assert code == 0

    def test_threads(self, capsys):
        code, out, _ = run_cli(capsys, "run", str(EXAMPLES / "constfold.lcp"),
                               "--mode", "par", "--threads", "2")
        assert code == 0 and out.startswith("value at (")

    def test_threads_trace_replays(self, capsys, tmp_path):
        trace = tmp_path / "threads.jsonl"
        prog = str(EXAMPLES / "buildtree.lcp")
        code, out, _ = run_cli(capsys, "run", prog, "--mode", "par",
                               "--threads", "2", "--trace", str(trace),
                               "--dump-heap")
        assert code == 0 and trace.read_text()
        code2, out2, _ = run_cli(capsys, "run", prog, "--mode", "par",
                                 "--schedule", f"trace:{trace}", "--dump-heap")
        assert code2 == 0 and out2 == out

    def test_bad_schedule_exits_3(self, capsys):
        code, _, err = run_cli(capsys, "run", str(EXAMPLES / "constfold.lcp"),
                               "--mode", "par", "--schedule", "sometimes")
        assert code == 3


class TestExplore:
    def test_terminals_agree(self, capsys):
        code, out, _ = run_cli(capsys, "run", str(EXAMPLES / "constfold.lcp"),
                               "--mode", "explore", "--fork-bound", "2")
        assert code == 0
        payload = json.loads(out.splitlines()[-1])
        assert payload["terminals"] >= 2
        assert payload["distinct_values"] == 1


class TestBench:
    def test_small_bench_report(self, capsys):
        code, out, _ = run_cli(capsys, "run", str(EXAMPLES / "constfold.lcp"),
                               "--mode", "bench", "--bench-depth", "8")
        assert code == 0
        payload = json.loads(out.splitlines()[-1])
        assert payload["aggregates_agree"] is True
        assert payload["fragmented_bytes"] > payload["packed_bytes"]


class TestUsage:
    def test_no_subcommand_exits_3(self, capsys):
        with pytest.raises(SystemExit) as ei:
            main([])
        assert ei.value.code == 3

    def test_unknown_mode_exits_3(self, capsys):
        with pytest.raises(SystemExit) as ei:
            main(["run", str(EXAMPLES / "constfold.lcp"), "--mode", "warp"])
        assert ei.value.code == 3
