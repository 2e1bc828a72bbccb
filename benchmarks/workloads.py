"""Request streams for the locpar benchmark.

A workload is a fixed round of request specs.  The seed fills the corpus
templates (leaf labels, random-schedule seeds, layout leaf values) and
shuffles the order of each round; the sizes in a round never depend on the
seed, so every seed exercises the same mix.  Each request carries a reference
result computed here in plain Python, independently of the library.

`execute` runs one request through the library's public functions in the
order `locpar run` calls them and reports exact counters, a failure reason
and whether the value was wrong.
"""

from __future__ import annotations

import os
import random
import string
from dataclasses import dataclass
from typing import NamedTuple

CORPUS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "corpus")

# result type of each template's main expression (sumtree returns an Int)
MAIN_TYCON = {"buildtree": "Tree", "add1tree": "Tree", "spine": "Nat"}


class Spec(NamedTuple):
    kind: str          # seq | par | explore | layout
    program: str       # corpus template, or the byte layout for kind layout
    size: int          # tree depth or spine length
    schedule: str = ""  # par: always | random
    bound: int = 0     # explore: fork bound

    @property
    def klass(self) -> str:
        if self.kind == "layout":
            return f"{self.program}.d{self.size}"
        label = f"{self.program}-{self.size}"
        if self.kind == "par":
            return f"{label}.{self.schedule}"
        if self.kind == "explore":
            return f"{label}.b{self.bound}"
        return label


def _specs(kind, rows):
    return [Spec(kind, *row) for row in rows]


# One round per workload.  The median request falls in the middle of a block
# of like requests, and the slowest requests come at least twice a round, so
# in a run of MIN_ROUNDS or more rounds the median and the tail (the eleventh
# slowest request) stay in the same class whatever the seed or round count.
ROUNDS = {
    "seq-deep": _specs("seq", [
        ("spine", 50), ("buildtree", 6), ("sumtree", 6), ("buildtree", 7),
        ("spine", 100),
        ("sumtree", 7), ("sumtree", 7), ("sumtree", 7),
        ("spine", 150), ("buildtree", 8), ("sumtree", 8),
        ("spine", 200), ("spine", 200)]),
    "par-fork": _specs("par", [
        ("buildtree", 5, "always"), ("buildtree", 5, "random"),
        ("add1tree", 6, "always"), ("add1tree", 6, "random"),
        ("buildtree", 7, "always"), ("buildtree", 7, "always"),
        ("buildtree", 7, "always"), ("buildtree", 7, "random"),
        ("add1tree", 7, "always"), ("add1tree", 7, "always"),
        ("add1tree", 7, "random"), ("add1tree", 7, "random")]),
    "explore": _specs("explore", [
        ("sumtree", 3, "", 2), ("add1tree", 1, "", 2),
        ("buildtree", 2, "", 1), ("buildtree", 2, "", 1), ("buildtree", 2, "", 1),
        ("add1tree", 2, "", 1), ("add1tree", 2, "", 1)]),
    "layout-traverse": _specs("layout", [
        ("packed", 14), ("packed", 14), ("packed", 14),
        ("fragmented", 14), ("fragmented", 14),
        ("packed", 17), ("fragmented", 17)]),
}

# the same shapes at a size that finishes in milliseconds, for the smoke test
TINY_ROUNDS = {
    "seq-deep": _specs("seq", [("spine", 3), ("buildtree", 2), ("sumtree", 2)]),
    "par-fork": _specs("par", [("buildtree", 2, "always"),
                               ("add1tree", 2, "always"),
                               ("buildtree", 2, "random")]),
    "explore": _specs("explore", [("sumtree", 1, "", 2),
                                  ("buildtree", 1, "", 1)]),
    "layout-traverse": _specs("layout", [("packed", 3), ("fragmented", 3)]),
}

# rounds a run makes at least, so the slowest class has >= 14 samples
MIN_ROUNDS = 7

LAYOUT_MODES = {"packed": "packed", "fragmented": "per-node-fragmented"}


@dataclass(frozen=True)
class Request:
    rid: str
    spec: Spec
    text: str = ""            # filled program text
    schedule_seed: int = 0    # par, random schedule
    tree: object = None       # layout input value
    leaf: int = 0             # layout leaf value
    expect: object = None     # reference: token list, or an Int result


### references, in plain Python

def full_tree_tokens(depth: int, leaves) -> list:
    """Preorder tokens of a full binary tree: tags, then each leaf's scalar."""
    it = iter(leaves)
    out: list = []
    stack = [depth]
    while stack:
        n = stack.pop()
        if n == 0:
            out += ["Leaf", next(it)]
        else:
            out.append("Node")
            stack += [n - 1, n - 1]
    return out


def spine_tokens(length: int) -> list:
    return ["Su"] * length + ["Z"]


def value_tokens(v) -> list:
    """Preorder tokens of a flattened value, without recursion."""
    out: list = []
    stack = [v]
    while stack:
        x = stack.pop()
        if hasattr(x, "tag"):
            out.append(x.tag)
            stack.extend(reversed(x.children))
        else:
            out.append(x.value)
    return out


def _reference(spec: Spec, base: int):
    d = spec.size
    labels = range(base << d, (base << d) + (1 << d))
    if spec.program == "spine":
        return spine_tokens(d)
    if spec.program == "buildtree":
        return full_tree_tokens(d, labels)
    if spec.program == "add1tree":
        return full_tree_tokens(d, (x + 1 for x in labels))
    if spec.program == "sumtree":
        return sum(labels)
    raise ValueError(spec.program)


### building a round

def _template(name: str) -> string.Template:
    with open(os.path.join(CORPUS, name + ".lcp")) as fp:
        return string.Template(fp.read())


def build_round(workload: str, seed: int, lib, tiny: bool = False) -> list[Request]:
    """Fill one round of requests from the seed."""
    rng = random.Random(seed)
    specs = (TINY_ROUNDS if tiny else ROUNDS)[workload]
    templates: dict[str, string.Template] = {}
    reqs = []
    for n, spec in enumerate(specs):
        rid = f"{spec.klass}#{n}"
        if spec.kind == "layout":
            leaf = rng.randint(1, 1 << 40)
            # shared subtrees: O(depth) objects, a full tree once serialized
            t = lib.L.Node("Leaf", (lib.L.Leaf(leaf),))
            for _ in range(spec.size):
                t = lib.L.Node("Node", (t, t))
            reqs.append(Request(rid, spec, tree=t, leaf=leaf))
            continue
        if spec.program not in templates:
            templates[spec.program] = _template(spec.program)
        base = rng.randint(1, 999)
        text = templates[spec.program].substitute(
            depth=spec.size, length=spec.size, base=base)
        sched_seed = rng.randrange(1 << 31) if spec.schedule == "random" else 0
        reqs.append(Request(rid, spec, text, sched_seed,
                            expect=_reference(spec, base)))
    return reqs


### executing one request

class Outcome(NamedTuple):
    counters: dict
    failure: str | None   # exception, invariant violation or wrong value
    wrong: bool           # the result differs from the reference
    traverse_ns: int = 0  # layout: the library's own pass time


def execute(req: Request, lib, span) -> Outcome:
    try:
        if req.spec.kind == "layout":
            return _run_layout(req, lib, span)
        if req.spec.kind == "explore":
            return _run_explore(req, lib, span)
        return _run_machine(req, lib, span)
    except Exception as err:  # any escape counts as a failed request
        return Outcome({}, f"{type(err).__name__}: {err}", False)


def _load(req: Request, lib, span):
    with span("syntax.parse"):
        prog = lib.S.parse_program(req.text)
    with span("typecheck.check"):
        return lib.typecheck_program(prog)


def _check_value(req: Request, value, store, tp, lib, span) -> bool:
    """True when the result equals the reference."""
    if isinstance(value, lib.S.IntLit):
        return value.value == req.expect
    with span("layout.flatten"):
        flat = lib.L.flatten_value(value.loc, MAIN_TYCON[req.spec.program],
                                   store, tp.decls)
    return value_tokens(flat) == req.expect


def _run_machine(req: Request, lib, span) -> Outcome:
    spec = req.spec
    tp = _load(req, lib, span)
    if spec.kind == "seq":
        with span("eval_seq.run"):
            res = lib.run_seq(tp)
    else:
        sched = (lib.P.always_fork() if spec.schedule == "always"
                 else lib.P.random_schedule(req.schedule_seed))
        with span("eval_par.run"):
            res = lib.P.run_par(tp, sched)
    with span("store.verify"):
        mismatches = lib.verify_frontier_notes(tp.decls, res.state)
    m = res.metrics
    c = {k: m[k] for k in ("steps", "cells_written", "regions_created",
                           "extra_regions", "indirections", "forks", "joins")}
    c["indirection_cells"] = sum(
        isinstance(cell, lib.IndirectionCell)
        for heap in res.store.regions.values() for cell in heap.values())
    if spec.kind == "par":
        c["actions"] = len(m["decisions"])
        c["peak_tasks"] = m["peak_tasks"]
    right = _check_value(req, res.value, res.store, tp, lib, span)
    failure = None
    if mismatches:
        failure = f"end-witness mismatch: {mismatches[0]}"
    elif c["extra_regions"] != c["indirections"] or \
            c["indirections"] != c["indirection_cells"]:
        failure = ("fragmentation accounting: extra_regions, indirections, "
                   "indirection cells = "
                   f"{c['extra_regions']}, {c['indirections']}, "
                   f"{c['indirection_cells']}")
    elif spec.kind == "seq" and c["forks"]:
        failure = f"sequential run forked {c['forks']} times"
    elif spec.schedule == "always" and spec.program == "buildtree" \
            and c["forks"] != (1 << spec.size) - 1:
        failure = (f"always-fork buildtree depth {spec.size}: "
                   f"{c['forks']} forks, expected {(1 << spec.size) - 1}")
    if not right:
        failure = "wrong value"
    return Outcome(c, failure, not right)


def _run_explore(req: Request, lib, span) -> Outcome:
    tp = _load(req, lib, span)
    states = 0
    violations: list[str] = []

    def check(ctx, ts):
        nonlocal states
        states += 1
        with span("explore.wf_check"):
            bad = lib.P.check_wellformed(None, ts, ctx)
        if bad:
            violations.append(bad[0])

    with span("explore.run"):
        terms = list(lib.P.enumerate_schedules(tp, req.spec.bound,
                                               wf_callback=check))
    right = all(_check_value(req, t.value, t.store, tp, lib, span)
                for t in terms)
    c = {"states": states, "terminals": len(terms),
         "wf_violations": len(violations)}
    failure = None
    if violations:
        failure = f"{len(violations)} ill-formed states, first: {violations[0]}"
    if not right:
        failure = "wrong value"
    return Outcome(c, failure, not right)


def _run_layout(req: Request, lib, span) -> Outcome:
    d, leaf = req.spec.size, req.leaf
    schema = lib.L.tree_schema()
    with span("layout.serialize"):
        chunks = lib.L.byte_serialize(req.tree, schema, lib.L.ChunkPolicy(),
                                      mode=LAYOUT_MODES[req.spec.program])
    with span("layout.traverse"):
        agg, ns = lib.L.traverse_bytes(chunks, repeats=1)
    nbytes, nchunks = len(chunks.data), chunks.chunk_count()
    leaves, nodes = 1 << d, (1 << d) - 1
    # tag 1 byte, scalar 8, link 9: packed is tags + scalars + one link per
    # chunk boundary; per-node gives each node a chunk and each edge a link
    if req.spec.program == "packed":
        want = (nodes + leaves * 9 + 9 * (nchunks - 1), nchunks)
    else:
        want = (nodes * 19 + leaves * 9, 2 * leaves - 1)
    right = agg == (leaf * leaves, leaves)
    failure = None
    if (nbytes, nchunks) != want:
        failure = f"{nbytes} bytes in {nchunks} chunks, expected {want}"
    if not right:
        failure = f"traversal gave {agg}, expected {(leaf * leaves, leaves)}"
    return Outcome({"bytes": nbytes, "chunks": nchunks}, failure, not right, ns)
