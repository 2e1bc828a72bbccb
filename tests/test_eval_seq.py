"""Sequential evaluator: golden heaps, rule traces, end tracking."""

from types import SimpleNamespace

import pytest

from conftest import GOOD_EXAMPLES, bench_source
from locpar import eval_par as P
from locpar import eval_seq as E
from locpar import store as ST
from locpar import syntax as S
from locpar.eval_seq import (RunContext, SemanticsError, SeqState,
                             run_seq, step_seq, verify_frontier_notes)
from locpar.store import Decls, IndirectionCell, Scalar, Store, Tag
from locpar.typecheck import typecheck_program


def flat(store, r):
    heap = store.regions[r]
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


class TestConstFold:
    def test_output_heap(self, load_program):
        res = run_seq(load_program("constfold.lcp"))
        out_r = res.value.loc.region
        assert flat(res.store, out_r) == ["Plus", "Lit", 20, "Lit", 22]

    def test_input_heap_untouched(self, load_program):
        res = run_seq(load_program("constfold.lcp"))
        in_r = next(r for r in res.store.regions
                    if r != res.value.loc.region)
        assert flat(res.store, in_r) == \
            ["Plus", "Lit", 20, "Plus", "Lit", 10, "Lit", 12]

    def test_no_extra_regions_or_indirections(self, load_program):
        res = run_seq(load_program("constfold.lcp"))
        assert res.metrics["extra_regions"] == 0
        assert res.metrics["indirections"] == 0
        assert res.metrics["regions_created"] == 2

    def test_rule_trace_shape(self, load_program):
        res = run_seq(load_program("constfold.lcp"))
        assert len(res.rules) == res.metrics["steps"] == 36
        # evaluation of the fold itself: allocate the output region, place
        # the first field tag, recurse, fix the second field with an
        # after-constraint, recurse, then write the parent constructor
        tail = res.rules[16:]
        expected_order = ["D-LetRegion", "D-LetLoc-Start", "D-App",
                          "D-LetLoc-Tag", "D-App", "D-LetLoc-After",
                          "D-App", "D-DataConstructor"]
        it = iter(tail)
        assert all(any(r == want for r in it) for want in expected_order)

    def test_end_tracking_consistent(self, load_program):
        tp = load_program("constfold.lcp")
        res = run_seq(tp)
        assert verify_frontier_notes(tp.decls, res.state) == []

    def test_tampered_notes_are_flagged(self, load_program):
        # the output Plus (Lit 20) (Lit 22) sits at cells 0-4 of its region
        tp = load_program("constfold.lcp")
        out_r = run_seq(tp).value.loc.region
        for key in [(out_r, 1), (out_r, 0)]:
            st = run_seq(tp).state
            st.frontier_notes[key] = (out_r, 4)
            bad = verify_frontier_notes(tp.decls, st)
            assert len(bad) == 1 and bad[0].startswith(f"({out_r},{key[1]})")


class TestScalarResults:
    def test_sum_and_count(self, load_program, canonical):
        for name in ["sumtree.lcp", "countnodes.lcp", "fib.lcp"]:
            tp = load_program(name)
            res = run_seq(tp)
            key = canonical(tp, res.value, res.store)
            assert key[0] in ("int", "tree")

    def test_fib_value(self, load_program, canonical):
        tp = load_program("fib.lcp")
        res = run_seq(tp)
        key = canonical(tp, res.value, res.store)
        # fib 8 boxed in a one-field record
        assert key[1].children[0].value == 21


class TestPrimOps:
    def run_main(self, body: str):
        src = f"data D = MkD Int\n\nmain = {body}\n"
        return run_seq(typecheck_program(S.parse_program(src)))

    def test_arithmetic(self):
        assert self.run_main("((2 + 3) * (10 - 4))").value == S.IntLit(30)

    def test_comparisons(self):
        assert self.run_main("(2 <= 3)").value == S.IntLit(1)
        assert self.run_main("(3 == 4)").value == S.IntLit(0)

    def test_case_on_int(self):
        assert self.run_main(
            "case (1 + 1) of { 0 -> 10 ; _ -> 20 }").value == S.IntLit(20)


class TestStuckStates:
    def test_unknown_function_is_stuck(self):
        src = """
data D = MkD Int

fun f [l@r] (n : Int) : D@l@r = (MkD l@r n)

main = (g [l@r] 3)
"""
        prog = S.parse_program(src)
        with pytest.raises(Exception):
            run_seq(typecheck_program(prog))

    def test_unbound_variable_is_stuck(self):
        # a lookup is not a step: the unbound variable becomes the focus,
        # and the step from it is stuck
        prog = S.parse_program("data D = MkD Int\n\nmain = (1 + (x * 2))\n")
        tp = SimpleNamespace(program=prog, decls=Decls({"MkD": ("D", ["Int"])}))
        with pytest.raises(SemanticsError, match="Stuck: free variable x"):
            run_seq(tp)


class TestEnvironments:
    def test_shadowing_binder_hides_the_outer_binding(self):
        # the inner let's variable stands for its own value in its body
        # only, and the outer binding is back after it
        src = ("data D = MkD Int\n\nmain = let x : Int = 9 in "
               "((let x : Int = 1 in (x + 10)) + x)\n")
        assert run_seq(typecheck_program(S.parse_program(src))).value \
            == S.IntLit(20)

    def test_a_call_rebuilds_no_code(self, monkeypatch):
        # the machine runs the program's own terms under environments, so
        # no call, fork or join builds a binding or case node
        spine = typecheck_program(S.parse_program(bench_source("spine", 200)))
        tree = typecheck_program(S.parse_program(bench_source("buildtree", 5)))
        built = [0]
        for cls in (S.LetLoc, S.LetRegion, S.Case):
            init = cls.__init__

            def counted(self, *args, init=init, **kwargs):
                built[0] += 1
                init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counted)
        assert run_seq(spine).metrics["steps"] > 1_000
        assert P.run_par(tree, P.always_fork()).metrics["forks"] == 31
        assert built[0] == 0
        S.LetRegion("r", S.IntLit(0))
        assert built[0] == 1  # the count sees the node classes


def assert_decomposed(st):
    """Descending again from the focus and from every frame stops where the
    state did.  A value focus has no frames.  Each frame's hole is at its
    first child left unevaluated, which is not a value under the frame's
    environment, and the focus's children are all evaluated.  An evaluated
    child that is a literal or a bound variable evaluated to that value."""
    if S.is_value(st.focus):
        assert st.frames == [] and st.args == ()
        return
    frames = st.frames + [(st.focus, st.env, st.args)]
    for n, (node, env, vals) in enumerate(frames):
        kids = E._EVAL_CHILDREN.get(type(node), lambda e: ())(node)
        hole = kids[len(vals):len(vals) + 1]
        if n + 1 == len(frames):
            assert hole == ()
        else:
            assert len(hole) == 1 and E._value(hole[0], env) is None
        for c, v in zip(kids, vals):
            assert E._value(c, env) in (None, v)


def count_calls(monkeypatch, module, name, when=lambda *a: True):
    calls = [0]
    fn = getattr(module, name)

    def counted(*args):
        calls[0] += when(*args)
        return fn(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


class TestRefocusing:
    @pytest.mark.parametrize("name", GOOD_EXAMPLES)
    def test_every_state_redecomposes_alike(self, load_program, name):
        tp = load_program(name)
        ctx, st = RunContext(tp), SeqState(Store(), {}, tp.program.main)
        assert_decomposed(st)
        while not st.complete():
            step_seq(ctx, st)
            assert_decomposed(st)
        for implicit in (False, True):
            for sched in [P.always_fork()] + [P.random_schedule(k) for k in range(5)]:
                m = P.Machine(tp, implicit_par=implicit)
                while (act := sched(m)) is not None:
                    m.apply(act)
                    for task in m.ts.tasks.values():
                        assert_decomposed(task.state)

    @pytest.mark.parametrize("name,size", [("spine", 200), ("buildtree", 8),
                                           ("sumtree", 7)])
    def test_value_ends_come_from_notes(self, monkeypatch, name, size):
        tp = typecheck_program(S.parse_program(bench_source(name, size)))
        packed = count_calls(monkeypatch, E, "end_witness",
                             lambda decls, tau, *rest: tau != "Int")
        res = run_seq(tp)
        assert packed[0] == 0
        assert verify_frontier_notes(tp.decls, res.state) == []
        assert packed[0] > 0  # the count sees the module's scans

    @pytest.mark.parametrize("name", ["buildtree", "add1tree"])
    def test_joins_read_value_ends_from_notes(self, monkeypatch, name):
        # a join links a field to its successor one past the field's end,
        # which the field's frontier note tells without a scan
        tp = typecheck_program(S.parse_program(bench_source(name, 6)))
        seq, par, store = [count_calls(monkeypatch, mod, "end_witness",
                                       lambda decls, tau, *rest: tau != "Int")
                           for mod in (E, P, ST)]
        for sched in (P.always_fork(), P.random_schedule(3)):
            res = P.run_par(tp, sched)
            assert res.metrics["indirections"] > 0
            assert seq[0] == par[0] == store[0] == 0
            assert verify_frontier_notes(tp.decls, res.state) == []
            assert seq[0] > 0  # the count sees the module's scans
            seq[0] = 0

    def test_plugs_per_step_do_not_grow_with_depth(self, monkeypatch):
        plugs = count_calls(monkeypatch, E, "_plug")
        per_step = []
        for n in (100, 1000):
            tp = typecheck_program(S.parse_program(bench_source("spine", n)))
            plugs[0] = 0
            steps = run_seq(tp).metrics["steps"]
            per_step.append(plugs[0] / steps)
        assert per_step[0] < 1 and abs(per_step[1] - per_step[0]) < 0.01

    def test_deep_spine_under_default_recursion_limit(self,
                                                      default_recursion_limit):
        n = 10_000
        tp = typecheck_program(S.parse_program(bench_source("spine", n)))
        res = run_seq(tp)
        assert verify_frontier_notes(tp.decls, res.state) == []
        heap = res.store.regions[res.value.loc.region]
        assert res.value.loc.ext.index == 0
        assert heap == {**{i: Tag("Su") for i in range(n)}, n: Tag("Z")}


class TestHeapOwnership:
    def test_sequential_run_keeps_one_heap_per_region(self):
        # a state that is never copied owns every heap and writes it in place
        tp = typecheck_program(S.parse_program(bench_source("spine", 500)))
        ctx, st = RunContext(tp), SeqState(Store(), {}, tp.program.main)
        heaps = {}
        while not st.complete():
            step_seq(ctx, st)
            for r, heap in st.store.regions.items():
                assert heaps.setdefault(r, heap) is heap, r
        assert sum(map(len, heaps.values())) == ctx.metrics["cells_written"] > 500
