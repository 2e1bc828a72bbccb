"""Command-line interface: exit codes, output shapes, diagnostics."""

import functools
import json

import pytest

from conftest import BAD_DECLS, EXAMPLES, bench_source

from locpar import eval_par as P
from locpar import syntax as S
from locpar.cli import main
from locpar.store import Concrete, ConcreteLoc, Store


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

    @pytest.mark.parametrize("name", sorted(BAD_DECLS))
    def test_declaration_error_exits_1(self, capsys, tmp_path, name):
        src, message = BAD_DECLS[name]
        bad = tmp_path / f"{name}.lcp"
        bad.write_text(src)
        code, _, err = run_cli(capsys, "check", str(bad))
        assert code == 1
        [d] = diags(err)
        assert d["code"] == "TypeMismatch" and message in d["message"]


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

    def test_deep_spine_under_default_recursion_limit(self, capsys, tmp_path,
                                                      default_recursion_limit):
        n = 10_000
        prog = tmp_path / "spine.lcp"
        prog.write_text(bench_source("spine", n))
        code, out, _ = run_cli(capsys, "run", str(prog), "--dump-heap")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "value at (r%0, 0)"
        assert lines[1] == "r%0: [" + "Su, " * n + "Z]"

    def test_nesting_past_the_recursion_limit_exits_2(self, capsys, tmp_path,
                                                      default_recursion_limit):
        prog = tmp_path / "deep.lcp"
        prog.write_text("main = " + "(1 + " * 300 + "1" + ")" * 300 + "\n")
        code, _, err = run_cli(capsys, "run", str(prog))
        assert code == 2
        assert diags(err)[0]["code"] == "ResourceExhausted"

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
        code, out, _ = run_cli(capsys, "run", str(EXAMPLES / "constfold.lcp"),
                               "--mode", "par", "--schedule", "random:9",
                               "--trace", str(trace), "--dump-heap")
        assert code == 0
        code2, out2, _ = run_cli(capsys, "run", str(EXAMPLES / "constfold.lcp"),
                                 "--mode", "par",
                                 "--schedule", f"trace:{trace}",
                                 "--dump-heap")
        assert code2 == 0
        # replaying the recorded schedule reproduces the recorded run's value
        # and heap dump
        assert "→" in out and out2 == out

    def test_wf_checks_enabled(self, capsys):
        code, _, _ = run_cli(capsys, "run", str(EXAMPLES / "constfold.lcp"),
                             "--mode", "par", "--schedule", "always",
                             "--check-wf-every-step")
        assert code == 0

    def test_threads(self, capsys):
        code, out, _ = run_cli(capsys, "run", str(EXAMPLES / "constfold.lcp"),
                               "--mode", "par", "--threads", "2")
        assert code == 0 and out.startswith("value at (")

    def test_threads_check_wf_every_step(self, capsys, monkeypatch):
        # threads mode calls the check after every action, like a schedule
        calls = [0]
        check = P.check_wellformed

        def counted(tts, ts, ctx):
            calls[0] += 1
            return check(tts, ts, ctx)

        monkeypatch.setattr(P, "check_wellformed", counted)
        argv = ("run", str(EXAMPLES / "buildtree.lcp"), "--mode", "par",
                "--threads", "2", "--check-wf-every-step")
        code, _, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "") and calls[0] > 0
        monkeypatch.setattr(P, "check_wellformed",
                            lambda tts, ts, ctx: ["planted violation"])
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert diags(err) == [{"severity": "error", "code": "WellFormedness",
                               "message": "planted violation"}]

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

    def test_let_bound_main(self, capsys, tmp_path):
        # main's value is flattened at the type the checker gave main, here
        # through a let that binds the call's result
        src = (EXAMPLES / "buildtree.lcp").read_text().replace(
            "  (buildtree [l@r] 4)",
            "  let t : Tree@l@r = (buildtree [l@r] 2) in t")
        assert "let t" in src
        path = tmp_path / "letmain.lcp"
        path.write_text(src)
        code, out, err = run_cli(capsys, "run", str(path), "--mode", "explore",
                                 "--fork-bound", "1")
        assert (code, err) == (0, "")
        assert json.loads(out) == {"terminals": 5, "distinct_values": 1}

    def test_state_budget_exits_2(self, capsys, monkeypatch):
        monkeypatch.setattr(P, "enumerate_schedules",
                            functools.partial(P.enumerate_schedules,
                                              state_cap=10))
        code, out, err = run_cli(capsys, "run", str(EXAMPLES / "buildtree.lcp"),
                                 "--mode", "explore", "--fork-bound", "1")
        assert (code, out) == (2, "")
        assert diags(err) == [{"severity": "error",
                               "code": "ResourceExhausted",
                               "message": "more than 10 states"}]

    def test_incomplete_terminal_exits_2(self, capsys, monkeypatch):
        # a terminal whose value cannot be read back is a runtime fault,
        # reported as one JSON line, not a traceback
        def incomplete(tp, bound, wf_callback=None):
            root = ConcreteLoc("r%0", Concrete(0))
            yield P.Terminal([], S.ConcreteLocVal(root), Store())

        monkeypatch.setattr(P, "enumerate_schedules", incomplete)
        code, out, err = run_cli(capsys, "run", str(EXAMPLES / "buildtree.lcp"),
                                 "--mode", "explore", "--fork-bound", "1")
        assert (code, out) == (2, "")
        assert diags(err) == [{"severity": "error", "code": "IncompleteValue",
                               "message": "missing cell at (r%0, 0)"}]


class TestBench:
    def test_small_bench_report(self, capsys):
        code, out, _ = run_cli(capsys, "run", str(EXAMPLES / "constfold.lcp"),
                               "--mode", "bench", "--bench-depth", "8")
        assert code == 0
        payload = json.loads(out.splitlines()[-1])
        assert payload["aggregates_agree"] is True
        # tag 1 byte, scalar 8, link 9: a leaf is 9 bytes and an inner node
        # 1 packed or 19 per-node (a tag and two pointers); packed adds one
        # link per chunk boundary, per-node gives every constructor a chunk
        leaves = payload["leaves"]
        nodes = leaves - 1
        assert leaves == 2**8
        assert payload["packed_bytes"] == (
            nodes + 9 * leaves + 9 * (payload["packed_chunks"] - 1))
        assert payload["fragmented_bytes"] == 19 * nodes + 9 * leaves
        assert payload["fragmented_chunks"] == 2 * leaves - 1


class TestUsage:
    @pytest.mark.parametrize("flag, value", [("--chunk-bytes", "0"),
                                             ("--chunk-cap", "8")])
    def test_invalid_chunk_option_exits_3(self, capsys, flag, value):
        code, out, err = run_cli(capsys, "run", str(EXAMPLES / "constfold.lcp"),
                                 "--mode", "bench", "--bench-depth", "4",
                                 flag, value)
        assert code == 3 and out == ""
        assert "Traceback" not in err
        (d,) = diags(err)
        assert d["code"] == "Usage"

    def test_chunk_cap_below_a_node_exits_3(self, capsys):
        # a valid policy whose cap cannot hold a leaf and a link
        code, _, err = run_cli(capsys, "run", str(EXAMPLES / "constfold.lcp"),
                               "--mode", "bench", "--bench-depth", "4",
                               "--chunk-bytes", "8", "--chunk-cap", "8")
        assert code == 3
        (d,) = diags(err)
        assert d["code"] == "Usage" and "exceeds chunk cap" in d["message"]

    def test_no_subcommand_exits_3(self, capsys):
        with pytest.raises(SystemExit) as ei:
            main([])
        assert ei.value.code == 3

    def test_unknown_mode_exits_3(self, capsys):
        with pytest.raises(SystemExit) as ei:
            main(["run", str(EXAMPLES / "constfold.lcp"), "--mode", "warp"])
        assert ei.value.code == 3
