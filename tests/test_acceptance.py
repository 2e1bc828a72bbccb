"""Acceptance suite: one test per release criterion.

Each test records a PASS/FAIL line on the shared scoreboard; the conftest
terminal-summary hook prints one line per criterion at the end of the run.
Every test makes its own runs, so the criteria pass or fail the same way
in any order and in any selection.
"""

import functools
import time

import pytest

from _acceptance_log import record
from conftest import GOOD_EXAMPLES
from oracles import bottom_two_pack_stats

from locpar import eval_par as P
from locpar import layout as L
from locpar import syntax as S
from locpar.eval_seq import run_seq, verify_frontier_notes
from locpar.store import IndirectionCell, Scalar, Tag
from locpar.typecheck import LocTypeError, typecheck_program

DETERMINISM_SEEDS = 1000
DETERMINISM_PROGRAMS = sorted(GOOD_EXAMPLES)
EXHAUSTIVE_PROGRAMS = ["constfold.lcp", "constfold-deep.lcp", "interp.lcp"]

def criterion(num):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                note = fn(*args, **kwargs)
            except BaseException as err:
                record(num, "FAIL", str(err).splitlines()[0][:160])
                raise
            record(num, "PASS", note or "")
        return wrapper
    return deco


def heap_cells(store, region):
    heap = store.regions[region]
    out = []
    for i in sorted(heap):
        c = heap[i]
        if isinstance(c, Tag):
            out.append(c.name)
        elif isinstance(c, Scalar):
            out.append(c.value)
        else:
            out.append(("IND", c.region, c.index))
    return out


@criterion(1)
def test_criterion_1_sequential_golden(load_program):
    t0 = time.perf_counter()
    tp = load_program("constfold.lcp")
    res = run_seq(tp)
    out_r = res.value.loc.region
    assert heap_cells(res.store, out_r) == ["Plus", "Lit", 20, "Lit", 22]
    in_r = next(r for r in res.store.regions if r != out_r)
    assert heap_cells(res.store, in_r) == \
        ["Plus", "Lit", 20, "Plus", "Lit", 10, "Lit", 12]
    # the fold allocates its output region, writes the first-field tag at
    # index 1, recurses, fixes the second field at index 3 with an
    # after-constraint, recurses, then writes the parent tag at index 0
    assert res.rules[:2] == ["D-LetRegion", "D-LetLoc-Start"]
    tail = iter(res.rules[16:])
    for want in ["D-LetRegion", "D-LetLoc-Start", "D-App", "D-LetLoc-Tag",
                 "D-App", "D-LetLoc-After", "D-App", "D-DataConstructor"]:
        assert any(r == want for r in tail), f"missing {want} in rule trace"
    assert len(res.rules) == 36
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    return f"36 rules, heap exact, {elapsed:.2f}s"


@criterion(2)
def test_criterion_2_parallel_golden(load_program):
    t0 = time.perf_counter()
    tp = load_program("constfold.lcp")
    res = P.run_par(tp, P.always_fork())
    out_r = res.value.loc.region
    cells = heap_cells(res.store, out_r)
    assert cells[:3] == ["Plus", "Lit", 20]
    assert isinstance(cells[3], tuple) and cells[3][0] == "IND"
    cont_r = cells[3][1]
    assert heap_cells(res.store, cont_r) == ["Lit", 22]
    m = res.metrics
    assert m["extra_regions"] == 1 and m["indirections"] == 1
    assert m["forks"] == 1 and m["joins"] == 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    return f"indirection to {cont_r}, {elapsed:.2f}s"


@criterion(3)
def test_criterion_3_determinism(load_program, canonical):
    assert len(DETERMINISM_PROGRAMS) >= 10
    t0 = time.perf_counter()
    checked = 0
    for name in DETERMINISM_PROGRAMS:
        tp = load_program(name)
        seq = run_seq(tp)
        ref = canonical(tp, seq.value, seq.store)
        scheds = [P.never_fork(), P.always_fork()] + \
            [P.random_schedule(s) for s in range(DETERMINISM_SEEDS)]
        for sched in scheds:
            res = P.run_par(tp, sched)
            got = canonical(tp, res.value, res.store)
            assert got == ref, (name, sched.__qualname__)
            checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    return (f"{len(DETERMINISM_PROGRAMS)} programs x "
            f"{DETERMINISM_SEEDS}+2 schedules, {elapsed:.0f}s")


@criterion(4)
def test_criterion_4_bounded_exhaustive(load_program, canonical):
    t0 = time.perf_counter()
    total_terminals = 0
    total_states = 0
    for name in EXHAUSTIVE_PROGRAMS:
        tp = load_program(name)
        seq = run_seq(tp)
        ref = canonical(tp, seq.value, seq.store)

        states = [0]

        def wf_cb(ctx, ts):
            errs = P.check_wellformed(tp, ts, ctx)
            assert errs == [], (name, errs)
            states[0] += 1

        terminals = list(P.enumerate_schedules(tp, 3, wf_callback=wf_cb))
        assert terminals, name
        for term in terminals:
            assert canonical(tp, term.value, term.store) == ref, name
        total_terminals += len(terminals)
        total_states += states[0]
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    return (f"{len(EXHAUSTIVE_PROGRAMS)} programs, {total_terminals} "
            f"terminals, {total_states} well-formed states, {elapsed:.0f}s")


@criterion(5)
def test_criterion_5_end_witness_oracle(load_program):
    # the sequential run and four schedules of every corpus program, plus a
    # replay of each distinct terminal of the bounded-exhaustive search
    runs = 0
    mismatches: list[tuple[str, str]] = []

    def observe(name, tp, state):
        nonlocal runs
        runs += 1
        mismatches.extend((name, m)
                          for m in verify_frontier_notes(tp.decls, state))

    for name in DETERMINISM_PROGRAMS:
        tp = load_program(name)
        observe(name, tp, run_seq(tp).state)
        for sched in [P.never_fork(), P.always_fork(),
                      P.random_schedule(0), P.random_schedule(1)]:
            observe(name, tp, P.run_par(tp, sched).state)
    for name in EXHAUSTIVE_PROGRAMS:
        tp = load_program(name)
        for term in P.enumerate_schedules(tp, 3):
            res = P.run_par(tp, P.trace_schedule(term.decisions))
            observe(name, tp, res.state)
    assert runs >= 60, "oracle saw too few runs"
    assert len(mismatches) == 0, mismatches[:3]
    return f"{runs} runs, 0 mismatches"


@criterion(6)
def test_criterion_6_fragmentation_accounting(load_program):
    # NeverFork never needs a continuation region
    for name in DETERMINISM_PROGRAMS:
        res = P.run_par(load_program(name), P.never_fork())
        assert res.metrics["extra_regions"] == 0, name
        assert res.metrics["indirections"] == 0, name
    # AlwaysFork on a depth-d tree builder whose recursive calls write into
    # the shared output region: every fork displaces the continuation into
    # a fresh region, so 2^d - 1 extra regions for 2^d - 1 forks
    depth = 4
    res = P.run_par(load_program("buildtree.lcp"), P.always_fork())
    m = res.metrics
    assert m["forks"] == 2**depth - 1
    assert m["extra_regions"] == m["forks"]
    assert m["indirections"] == m["extra_regions"]
    # forks whose callee allocates into its own fresh region displace
    # nothing: no continuation regions, no indirections
    res2 = P.run_par(load_program("countnodes.lcp"), P.always_fork())
    assert res2.metrics["forks"] == 7
    assert res2.metrics["extra_regions"] == 0
    assert res2.metrics["indirections"] == 0
    return f"buildtree depth {depth}: {m['forks']} forks == extra regions"


@criterion(7)
def test_criterion_7_directional_layout():
    t0 = time.perf_counter()
    depth = 20
    tree = L.full_tree(depth)
    schema = L.tree_schema()
    packed = L.byte_serialize(tree, schema, mode="packed")
    frag = L.byte_serialize(tree, schema, mode="per-node-fragmented")
    (agg_p, _), (agg_f, _), slowdown = L.paired_slowdown(packed, frag, pairs=9)
    assert agg_p == agg_f == (2**depth, 2**depth)
    assert slowdown >= 1.5, f"fragmented only {slowdown:.2f}x slower"
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    return f"2^{depth} leaves, {slowdown:.2f}x slower fragmented, {elapsed:.0f}s"


@criterion(8)
def test_criterion_8_pointer_fraction():
    stats = bottom_two_pack_stats(20, leaf_scalars=4)
    n_leaves = stats.leaves
    assert n_leaves == 2**20
    # per-node layout: one link per child edge
    assert stats.per_node_links == 2 * n_leaves - 2
    # packing each bottom subtree of 4 leaves removes its 6 internal links
    assert stats.eliminated == 6 * (n_leaves // 4)
    assert stats.remaining == stats.per_node_links - stats.eliminated
    ratio = 0.75 * n_leaves / (n_leaves - 1)
    assert abs(stats.eliminated_ratio - ratio) < 1e-6
    assert 0.09 <= stats.link_byte_share <= 0.13
    return (f"eliminated {stats.eliminated_ratio:.4%} of links, "
            f"byte share {stats.link_byte_share:.2%}")


@criterion(9)
def test_criterion_9_rejection_corpus():
    from conftest import BAD_EXAMPLES, EXAMPLES
    expected = {
        "bad_alias.lcp": "RegionAliasing",
        "bad_double_write.lcp": "DoubleWrite",
        "bad_field_order.lcp": "FieldConstraintMismatch",
    }
    assert set(BAD_EXAMPLES) == set(expected)
    for name, code in expected.items():
        with pytest.raises(LocTypeError) as ei:
            typecheck_program(
                S.parse_program((EXAMPLES / name).read_text()))
        assert ei.value.code == code, name
    return f"{len(expected)}/{len(expected)} rejected with designated classes"
