"""Command-line entry point: parse, typecheck, evaluate, explore, bench.

Exit codes: 0 success, 1 static (parse/type) error, 2 semantics violation
(stuck state, well-formedness failure, merge conflict), 3 usage error.
Diagnostics go to standard error as JSON lines.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import syntax as S
from . import eval_par as P
from . import layout as L
from .typecheck import LocTypeError, typecheck_program
from .eval_seq import run_seq, verify_frontier_notes, SemanticsError
from .store import StoreError


def _diag(severity: str, code: str, message: str) -> None:
    sys.stderr.write(json.dumps({"severity": severity, "code": code,
                                 "message": message}) + "\n")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 3, not argparse's 2
        _diag("error", "Usage", message)
        raise SystemExit(3)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="locpar",
                 description="Location-calculus interpreter with parallel "
                             "schedules and a byte-layout analyzer.")
    sub = ap.add_subparsers(dest="cmd", required=True)

    chk = sub.add_parser("check", help="parse and typecheck a program")
    chk.add_argument("file")

    run = sub.add_parser("run", help="evaluate a program")
    run.add_argument("file")
    run.add_argument("--mode", choices=["seq", "par", "explore", "bench"],
                     default="seq")
    run.add_argument("--schedule", default="never",
                     help="never | always | random:SEED | trace:PATH")
    run.add_argument("--implicit-par", action="store_true",
                     help="treat every located let as a fork point")
    run.add_argument("--check-wf-every-step", action="store_true")
    run.add_argument("--dump-heap", action="store_true")
    run.add_argument("--trace", metavar="PATH",
                     help="write schedule decisions as JSON lines")
    run.add_argument("--metrics", metavar="PATH",
                     help="write run metrics as JSON ('-' for stdout)")
    run.add_argument("--threads", type=int, default=0,
                     help="run tasks on a real thread pool of this size")
    run.add_argument("--fork-bound", type=int, default=2,
                     help="explore mode: maximum forks per schedule")
    run.add_argument("--bench-depth", type=int, default=20)
    run.add_argument("--chunk-bytes", type=int, default=64)
    run.add_argument("--chunk-cap", type=int, default=1 << 30)
    return ap


def _parse_schedule(spec: str) -> P.Schedule:
    if spec == "never":
        return P.never_fork()
    if spec == "always":
        return P.always_fork()
    if spec.startswith("random:"):
        return P.random_schedule(int(spec.split(":", 1)[1]))
    if spec.startswith("trace:"):
        path = spec.split(":", 1)[1]
        with open(path) as fp:
            decisions = [json.loads(line) for line in fp if line.strip()]
        return P.trace_schedule(decisions)
    raise ValueError(f"unknown schedule {spec!r}")


def _load(path: str):
    with open(path) as fp:
        return typecheck_program(S.parse_program(fp.read()))


def _emit_metrics(args, metrics: dict) -> None:
    if not args.metrics:
        return
    payload = json.dumps({k: v for k, v in metrics.items() if k != "decisions"})
    if args.metrics == "-":
        print(payload)
    else:
        with open(args.metrics, "w") as fp:
            fp.write(payload + "\n")


def _emit_trace(args, metrics: dict) -> None:
    if args.trace and "decisions" in metrics:
        with open(args.trace, "w") as fp:
            for d in metrics["decisions"]:
                fp.write(json.dumps(d) + "\n")


def _finish_run(args, res, decls) -> int:
    mismatches = verify_frontier_notes(decls, res.state)
    if mismatches:
        for m in mismatches:
            _diag("error", "EndWitnessMismatch", str(m))
        return 2
    if isinstance(res.value, S.IntLit):
        print(res.value.value)
    else:
        cl = res.value.loc
        print(f"value at ({cl.region}, {cl.ext.index})")
    if args.dump_heap:
        print(res.store.dump())
    _emit_metrics(args, res.metrics)
    _emit_trace(args, res.metrics)
    return 0


def _cmd_run(args) -> int:
    tp = _load(args.file)
    if args.mode == "seq":
        return _finish_run(args, run_seq(tp), tp.decls)
    if args.mode == "par":
        if args.threads > 0:
            res = P.run_threads(tp, args.threads,
                                {"implicit_par": args.implicit_par})
            return _finish_run(args, res, tp.decls)
        sched = _parse_schedule(args.schedule)
        opts = {"implicit_par": args.implicit_par}
        if args.check_wf_every_step:
            def wf_cb(ctx, ts):
                bad = P.check_wellformed(None, ts, ctx)
                if bad:
                    raise SemanticsError("WellFormedness", "; ".join(bad))
            opts["wf_callback"] = wf_cb
        res = P.run_par(tp, sched, opts)
        return _finish_run(args, res, tp.decls)
    if args.mode == "explore":
        return _cmd_explore(args, tp)
    if args.mode == "bench":
        return _cmd_bench(args)
    raise ValueError(args.mode)


def _cmd_explore(args, tp) -> int:
    wf_cb = None
    if args.check_wf_every_step:
        def wf_cb(ctx, ts):
            bad = P.check_wellformed(None, ts, ctx)
            if bad:
                raise SemanticsError("WellFormedness", "; ".join(bad))
    flats = set()
    terminals = 0
    for term in P.enumerate_schedules(tp, args.fork_bound, wf_callback=wf_cb):
        terminals += 1
        v = term.value
        if isinstance(v, S.IntLit):
            flats.add(("int", v.value))
        else:
            flats.add(("tree", L.flatten_value(v.loc, _main_tycon(tp),
                                               term.store, tp.decls)))
    print(json.dumps({"terminals": terminals, "distinct_values": len(flats)}))
    return 0 if len(flats) <= 1 else 2


def _main_tycon(tp) -> str:
    e = tp.program.main
    while isinstance(e, (S.LetRegion, S.LetLoc, S.Let)):
        e = e.body
    if isinstance(e, S.App):
        return tp.program.fundecl(e.func).ret.tycon
    if isinstance(e, S.DataCon):
        return tp.decls.tycon_of(e.tag)
    raise ValueError("cannot infer the main expression's result type")


def _cmd_bench(args) -> int:
    policy = L.ChunkPolicy(initial=args.chunk_bytes, cap=args.chunk_cap)
    tree = L.full_tree(args.bench_depth)
    schema = L.tree_schema()
    packed = L.byte_serialize(tree, schema, policy, mode="packed")
    frag = L.byte_serialize(tree, schema, policy, mode="per-node-fragmented")
    (agg_p, t_p) = L.traverse_bytes(packed)
    (agg_f, t_f) = L.traverse_bytes(frag)
    report = {
        "depth": args.bench_depth,
        "leaves": agg_p[1],
        "packed_bytes": len(packed.data),
        "fragmented_bytes": len(frag.data),
        "packed_chunks": packed.chunk_count(),
        "fragmented_chunks": frag.chunk_count(),
        "packed_median_ns": t_p,
        "fragmented_median_ns": t_f,
        "slowdown": t_f / t_p,
        "aggregates_agree": agg_p == agg_f,
    }
    print(json.dumps(report))
    return 0 if agg_p == agg_f else 2


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.cmd == "check":
            _load(args.file)
            print("ok")
            return 0
        return _cmd_run(args)
    except FileNotFoundError as err:
        _diag("error", "Usage", str(err))
        return 3
    except (S.SyntaxErrorLC, LocTypeError) as err:
        code = getattr(err, "code", "Parse")
        _diag("error", code, str(err))
        return 1
    except (SemanticsError, StoreError) as err:
        _diag("error", err.code, err.message)
        return 2
    except ValueError as err:
        _diag("error", "Usage", str(err))
        return 3


if __name__ == "__main__":
    sys.exit(main())
