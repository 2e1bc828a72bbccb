#!/usr/bin/env python3
"""Closed-loop benchmark for locpar: one process, one client.

    python3 benchmarks/run.py --workload seq-deep --seed 1 --seconds 25 --trace 0

Workloads: seq-deep, par-fork, explore, layout-traverse (see README.md).
The client sends each request only after the previous one finished, in rounds
of a fixed mix shuffled by the seed, and stops at the first round boundary
after --seconds that is also past a minimum number of rounds (MIN_ROUNDS).
Every result is checked against a reference computed by the benchmark.  A
full garbage collection runs between requests, outside the timed region.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced and
traced rounds, records spans around each library call in the traced ones,
and reports per-layer self times, exact counters and the tracing overhead.
Human-readable rows go first; the last stdout line is one JSON object.
"""

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
from types import SimpleNamespace
from typing import NamedTuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
STATE = os.path.join(ROOT, ".bench_state")
sys.path.insert(0, HERE)
sys.path.insert(0, SRC)

import workloads as W  # noqa: E402

SETUP_REPEATS = 9
TAIL_BEYOND = 10  # the tail is the highest percentile with this many samples above


### set-up

def load_library():
    """Import the library from this checkout's src/ and nowhere else."""
    from locpar import syntax as S, eval_par as P, layout as L
    from locpar import typecheck, eval_seq, store
    if not os.path.abspath(S.__file__).startswith(SRC + os.sep):
        raise ImportError(f"locpar imported from {S.__file__}, not {SRC}")
    return SimpleNamespace(S=S, P=P, L=L,
                           typecheck_program=typecheck.typecheck_program,
                           run_seq=eval_seq.run_seq,
                           verify_frontier_notes=eval_seq.verify_frontier_notes,
                           IndirectionCell=store.IndirectionCell)


def set_up(workload, seed, tiny):
    """Import the library and build the round, several times; keep the last.

    Returns (library, round, median set-up seconds).  Each repetition drops
    the library from the module cache first, so every one pays its import.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        for name in [m for m in sys.modules if m.split(".")[0] == "locpar"]:
            del sys.modules[name]
        t0 = time.perf_counter()
        lib = load_library()
        reqs = W.build_round(workload, seed, lib, tiny)
        times.append(time.perf_counter() - t0)
    return lib, reqs, statistics.median(times)


### tracing

class Tracer:
    """Spans kept in memory: [id, parent id, request number, name, start, end]."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.request = 0

    @contextlib.contextmanager
    def span(self, name):
        rec = [len(self.spans), self._stack[-1] if self._stack else None,
               self.request, name, time.perf_counter(), 0.0]
        self.spans.append(rec)
        self._stack.append(rec[0])
        try:
            yield
        finally:
            rec[5] = time.perf_counter()
            self._stack.pop()

    def self_times(self):
        """{request: {span name: summed self seconds}}."""
        child = [0.0] * len(self.spans)
        for sid, parent, _, _, t0, t1 in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        out = {}
        for sid, _, req, name, t0, t1 in self.spans:
            per = out.setdefault(req, {})
            per[name] = per.get(name, 0.0) + (t1 - t0) - child[sid]
        return out

    def write(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fp:
            for sid, parent, req, name, t0, t1 in self.spans:
                fp.write(json.dumps({"id": sid, "parent": parent, "request": req,
                                     "name": name, "start": t0, "end": t1}) + "\n")


_NULL = contextlib.nullcontext()


def no_span(name):
    return _NULL


### exact counters: every repeat of a request, in this run and in earlier
### runs with the same seed in this checkout, must agree

class CounterLedger:
    def __init__(self, path):
        self.path = path
        self.seen = {}
        self.earlier = {}
        self.mismatches = []
        if os.path.exists(path):
            with open(path) as fp:
                self.earlier = json.load(fp)

    def record(self, req, counters):
        key = req.rid
        spec = hashlib.sha256(repr((tuple(req.spec), req.text, req.schedule_seed,
                                    req.leaf)).encode()).hexdigest()
        first = self.seen.setdefault(key, counters)
        if first != counters:
            self.mismatches.append(f"{key}: {first} then {counters}")
        old = self.earlier.get(key)
        if old is not None and old["spec"] == spec and old["counters"] != counters:
            self.mismatches.append(f"{key}: earlier run {old['counters']}, "
                                   f"now {counters}")
        self.earlier[key] = {"spec": spec, "counters": counters}

    def save(self):
        os.makedirs(os.path.dirname(self.path), exist_ok=True)
        tmp = self.path + ".tmp"
        with open(tmp, "w") as fp:
            json.dump(self.earlier, fp, sort_keys=True)
        os.replace(tmp, self.path)


### the closed loop

class Sample(NamedTuple):
    req: W.Request
    out: W.Outcome
    traced: bool
    number: int      # request number, shared by its spans when traced
    seconds: float


def run_loop(reqs, lib, seed, seconds, min_rounds, trace, ledger):
    """Send rounds of requests, each round shuffled, until `seconds` have
    passed and `min_rounds` are done.  Returns (samples, rounds, tracer,
    requests per second of each untraced round)."""
    rng = random.Random(seed)
    tracer = Tracer()
    samples = []
    round_rates = []
    rounds = 0
    deadline = time.perf_counter() + seconds
    while rounds < min_rounds or time.perf_counter() < deadline:
        traced = trace and rounds % 2 == 1
        t_round = time.perf_counter()
        for req in rng.sample(reqs, len(reqs)):
            if traced:
                tracer.request += 1
                t0 = time.perf_counter()
                with tracer.span("request"):
                    out = W.execute(req, lib, tracer.span)
            else:
                t0 = time.perf_counter()
                out = W.execute(req, lib, no_span)
            dt = time.perf_counter() - t0
            gc.collect()  # this request's cyclic garbage is not the next one's cost
            samples.append(Sample(req, out, traced, tracer.request, dt))
            if out.counters:
                ledger.record(req, out.counters)
        if not traced:
            round_rates.append(len(reqs) / (time.perf_counter() - t_round))
        rounds += 1
    return samples, rounds, tracer, round_rates


def tail(xs):
    """(value, percentile, samples beyond) at the highest percentile that
    still has TAIL_BEYOND samples above it."""
    xs = sorted(xs)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0, 0
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def median0(xs):
    return statistics.median(xs) if xs else 0.0


### metrics

def end_to_end(samples, setup_s, round_rates):
    """End-to-end metrics over untraced requests, and (percentile, samples
    beyond, sample count) of the tail."""
    xs = [s.seconds for s in samples if not s.traced]
    value, pct, beyond = tail(xs)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "setup_s": (setup_s, "s"),
        "request_s.p50": (statistics.median(xs), "s"),
        "request_s.tail": (value, "s"),
        "requests_per_s": (statistics.median(round_rates), "1/s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }, (pct, beyond, len(xs))


def traverse_rows(samples):
    """Traversal cost per layout and size, from the library's own timing of
    one pass, over untraced requests."""
    per = {}
    for s in samples:
        if s.req.spec.kind == "layout" and not s.traced:
            per.setdefault(s.req.spec.klass, []).append(
                s.out.traverse_ns / (1 << s.req.spec.size))
    return {f"traverse_ns_per_leaf.{k}": (statistics.median(v), "ns")
            for k, v in sorted(per.items())}


def per_layer_names():
    """Every per-layer metric name and unit, for all workloads."""
    def classes(workload):
        return sorted({s.klass for s in W.ROUNDS[workload]})

    names = [("syntax.parse_s", "s"), ("typecheck.check_s", "s"),
             ("eval_seq.run_s", "s"), ("eval_seq.steps", "count"),
             ("eval_seq.us_per_step", "us")]
    for k in classes("seq-deep"):
        names += [(f"eval_seq.run_s.{k}", "s"), (f"eval_seq.steps.{k}", "count"),
                  (f"eval_seq.us_per_step.{k}", "us")]
    names += [("eval_par.run_s", "s"), ("eval_par.actions", "count"),
              ("eval_par.us_per_action", "us"), ("eval_par.forks", "count"),
              ("eval_par.joins", "count"), ("eval_par.peak_tasks", "count")]
    names += [(f"eval_par.us_per_action.{k}", "us") for k in classes("par-fork")]
    names += [("explore.run_s", "s"), ("explore.states", "count"),
              ("explore.terminals", "count"), ("explore.states_per_s", "1/s"),
              ("explore.wf_check_s", "s"), ("explore.wf_violations", "count"),
              ("store.verify_s", "s"), ("store.cells_written", "count"),
              ("store.regions_created", "count"), ("store.extra_regions", "count"),
              ("store.indirections", "count"), ("layout.flatten_s", "s")]
    for k in classes("layout-traverse"):
        names += [(f"layout.serialize_s.{k}", "s"),
                  (f"layout.traverse_ns_per_leaf.{k}", "ns"),
                  (f"layout.bytes_per_leaf.{k}", "B"),
                  (f"layout.chunks.{k}", "count")]
    names.append(("tracing_overhead_ratio", "ratio"))
    return names


# per-layer self time: metric name -> span name
SELF_TIMES = {"syntax.parse_s": "syntax.parse",
              "typecheck.check_s": "typecheck.check",
              "eval_seq.run_s": "eval_seq.run",
              "eval_par.run_s": "eval_par.run",
              "explore.run_s": "explore.run",
              "explore.wf_check_s": "explore.wf_check",
              "store.verify_s": "store.verify",
              "layout.flatten_s": "layout.flatten"}


def per_layer(samples, tracer):
    """Per-layer metrics from the traced requests' spans and every request's
    counters.  A layer the workload does not reach reads 0."""
    self_s = tracer.self_times()
    traced = [(s.req, s.out.counters, self_s.get(s.number, {}))
              for s in samples if s.traced]
    got = {metric: median0([t[span] for _, _, t in traced if span in t])
           for metric, span in SELF_TIMES.items()}

    # exact counters: totals over one round, since every round repeats it
    once = {}
    for s in samples:
        once.setdefault(s.req.rid, (s.req.spec.kind, s.out.counters))

    def total(kinds, key):
        return sum(c.get(key, 0) for kind, c in once.values() if kind in kinds)

    for key in ("actions", "forks", "joins"):
        got[f"eval_par.{key}"] = total(("par",), key)
    got["eval_seq.steps"] = total(("seq",), "steps")
    got["eval_par.peak_tasks"] = max(c.get("peak_tasks", 0) for _, c in once.values())
    for key in ("cells_written", "regions_created", "extra_regions", "indirections"):
        got[f"store.{key}"] = total(("seq", "par"), key)
    for key in ("states", "terminals", "wf_violations"):
        got[f"explore.{key}"] = total(("explore",), key)

    def busy(kind, *spans):
        return sum(t.get(span, 0.0) for r, _, t in traced if r.spec.kind == kind
                   for span in spans)

    def work(kind, key):
        return sum(c.get(key, 0) for r, c, _ in traced if r.spec.kind == kind)

    def ratio(a, b):
        return a / b if b else 0.0

    got["eval_seq.us_per_step"] = 1e6 * ratio(busy("seq", "eval_seq.run"),
                                              work("seq", "steps"))
    got["eval_par.us_per_action"] = 1e6 * ratio(busy("par", "eval_par.run"),
                                                work("par", "actions"))
    got["explore.states_per_s"] = ratio(
        work("explore", "states"),
        busy("explore", "explore.run", "explore.wf_check"))

    by_class = {}
    for r, c, t in traced:
        by_class.setdefault(r.spec.klass, []).append((r, c, t))
    for k, rows in by_class.items():
        spec, counters = rows[0][0].spec, rows[0][1]
        if spec.kind == "seq":
            run_s = median0([t.get("eval_seq.run", 0.0) for _, _, t in rows])
            got[f"eval_seq.run_s.{k}"] = run_s
            got[f"eval_seq.steps.{k}"] = counters.get("steps", 0)
            got[f"eval_seq.us_per_step.{k}"] = 1e6 * ratio(run_s, counters.get("steps", 0))
        elif spec.kind == "par":
            got[f"eval_par.us_per_action.{k}"] = median0(
                [1e6 * ratio(t.get("eval_par.run", 0.0), c.get("actions", 0))
                 for _, c, t in rows])
        elif spec.kind == "layout":
            leaves = 1 << spec.size
            got[f"layout.serialize_s.{k}"] = median0(
                [t.get("layout.serialize", 0.0) for _, _, t in rows])
            got[f"layout.traverse_ns_per_leaf.{k}"] = median0(
                [t.get("layout.traverse", 0.0) * 1e9 / leaves for _, _, t in rows])
            got[f"layout.bytes_per_leaf.{k}"] = counters.get("bytes", 0) / leaves
            got[f"layout.chunks.{k}"] = counters.get("chunks", 0)

    got["tracing_overhead_ratio"] = ratio(
        median0([s.seconds for s in samples if s.traced]),
        median0([s.seconds for s in samples if not s.traced]))
    return {name: (got.get(name, 0), unit) for name, unit in per_layer_names()}


### output

def environment_line(args):
    return (f"# env: seed={args.seed} python={platform.python_version()} "
            f"nproc={os.cpu_count()} machine={platform.machine()} "
            "clients=1 closed-loop")


def fmt(metrics):
    return "  ".join(f"{k}={v:.6g} {u}" for k, (v, u) in metrics.items())


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(W.ROUNDS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smoke-test sizes: every workload in milliseconds")
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    try:
        lib, reqs, setup_s = set_up(args.workload, args.seed, args.tiny)
    except ImportError as err:
        print(f"cannot import the locpar library from {SRC}: {err}",
              file=sys.stderr)
        return 2
    tag = f"{args.workload}-seed{args.seed}{'-tiny' if args.tiny else ''}"
    ledger = CounterLedger(os.path.join(STATE, f"counters-{tag}.json"))
    samples, rounds, tracer, round_rates = run_loop(
        reqs, lib, args.seed, args.seconds, 2 if args.tiny else W.MIN_ROUNDS,
        bool(args.trace), ledger)
    ledger.save()

    failures = sorted({(s.req.rid, s.out.failure) for s in samples if s.out.failure})
    failed = sum(1 for s in samples if s.out.failure)
    wrong = sum(s.out.wrong for s in samples)
    e2e, (pct, beyond, n) = end_to_end(samples, setup_s, round_rates)

    print(environment_line(args))
    print(f"# {args.workload}: {rounds} rounds of {len(reqs)} requests "
          f"({len(round_rates)} untraced); tail is p{pct:.1f} with {beyond} "
          f"of {n} samples beyond")
    row = dict(e2e)
    row["failed_ratio"] = (failed / len(samples), "ratio")
    row.update(traverse_rows(samples))
    print(f"row {args.workload}: {fmt(row)}")
    by_class = {}
    for s in samples:
        if not s.traced:
            by_class.setdefault(s.req.spec.klass, []).append(s.seconds)
    for k, xs in sorted(by_class.items(), key=lambda kv: statistics.median(kv[1])):
        print(f"# class {k}: n={len(xs)} p50={statistics.median(xs):.4g} s "
              f"max={max(xs):.4g} s")
    for rid, why in failures[:8]:
        print(f"# failed {rid}: {why}")
    for m in ledger.mismatches[:8]:
        print(f"# counter mismatch {m}")

    metrics = e2e
    if args.trace:
        metrics = per_layer(samples, tracer)
        tracer.write(os.path.join(STATE, f"spans-{tag}.jsonl"))
        for name, (v, u) in metrics.items():
            print(f"layer {args.workload} {name} = {v:.6g} {u}")
    correct = wrong == 0 and not ledger.mismatches
    print(json.dumps({"correct": correct, "attempted": len(samples),
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
