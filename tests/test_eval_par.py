"""Parallel machine: schedules, determinism, joins, well-formedness."""

import sys
import threading
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from conftest import GOOD_EXAMPLES, bench_source
from locpar import eval_par as P
from locpar import syntax as S
from locpar.eval_seq import (Env, SemanticsError, SeqState, blocked_on,
                             run_seq, step_seq, verify_frontier_notes)
from locpar.store import (Concrete, ConcreteLoc, Indirection, IndirectionCell,
                          Ivar, Scalar, Store, Tag)
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


def metrics_of(res):
    return {k: v for k, v in res.metrics.items() if k != "decisions"}


class TestNeverFork:
    def test_matches_sequential_heap(self, load_program):
        tp = load_program("constfold.lcp")
        seq = run_seq(tp)
        par = P.run_par(tp, P.never_fork())
        assert par.store.dump() == seq.store.dump()

    def test_no_parallel_artifacts(self, load_program):
        par = P.run_par(load_program("constfold.lcp"), P.never_fork())
        m = metrics_of(par)
        assert m["forks"] == m["joins"] == 0
        assert m["extra_regions"] == m["indirections"] == 0
        assert m["peak_tasks"] == 1


class TestAlwaysFork:
    def test_indirection_golden(self, load_program):
        res = P.run_par(load_program("constfold.lcp"), P.always_fork())
        out_r = res.value.loc.region
        cells = flat(res.store, out_r)
        assert cells[:3] == ["Plus", "Lit", 20]
        assert isinstance(cells[3], tuple) and cells[3][0] == "IND"
        link_r = cells[3][1]
        assert flat(res.store, link_r) == ["Lit", 22]

    def test_metrics(self, load_program):
        res = P.run_par(load_program("constfold.lcp"), P.always_fork())
        m = metrics_of(res)
        assert m["forks"] == m["joins"] == 1
        assert m["extra_regions"] == m["indirections"] == 1
        assert m["peak_tasks"] == 2

    def test_fresh_region_forks_leave_no_indirections(self, load_program):
        # recursive calls allocating into their own fresh regions need no
        # continuation region when forked
        res = P.run_par(load_program("countnodes.lcp"), P.always_fork())
        m = metrics_of(res)
        assert m["forks"] == 7 and m["joins"] == 7
        assert m["extra_regions"] == 0 and m["indirections"] == 0


class TestDeterminism:
    @given(seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=25, deadline=None)
    def test_any_seed_matches_sequential(self, load_program, canonical, seed):
        tp = load_program("constfold.lcp")
        ref = canonical(tp, *(lambda r: (r.value, r.store))(run_seq(tp)))
        res = P.run_par(tp, P.random_schedule(seed))
        assert canonical(tp, res.value, res.store) == ref

    def test_corpus_samples(self, load_program, canonical):
        for name in ["copytree.lcp", "mirror.lcp", "interp.lcp"]:
            tp = load_program(name)
            seq = run_seq(tp)
            ref = canonical(tp, seq.value, seq.store)
            for sched in [P.never_fork(), P.always_fork(),
                          P.random_schedule(0), P.random_schedule(1)]:
                res = P.run_par(tp, sched)
                assert canonical(tp, res.value, res.store) == ref


class TestTraceReplay:
    @pytest.mark.parametrize("name", ["constfold.lcp", "copytree.lcp"])
    def test_replay_is_byte_identical(self, load_program, name):
        tp = load_program(name)
        first = P.run_par(tp, P.random_schedule(7))
        replay = P.run_par(tp, P.trace_schedule(first.metrics["decisions"]))
        assert first.store.dump() == replay.store.dump()
        assert metrics_of(first) == metrics_of(replay)

    def test_refusals(self, load_program):
        # a trace that runs out, or names an action that is not enabled,
        # stops the run at that step
        tp = load_program("constfold.lcp")
        decisions = P.run_par(tp, P.random_schedule(7)).metrics["decisions"]
        with pytest.raises(SemanticsError) as ei:
            P.run_par(tp, P.trace_schedule(decisions[:5]))
        assert (ei.value.code, ei.value.message) == \
            ("Stuck", "trace exhausted at step 5")
        bad = [*decisions[:3], {"step": 3, "task": 99, "action": "step"}]
        with pytest.raises(SemanticsError) as ei:
            P.run_par(tp, P.trace_schedule(bad))
        assert ei.value.code == "Stuck"
        assert ei.value.message.startswith(
            "trace step 3 wants ('step', 99), enabled [")


class TestWellFormedness:
    def test_holds_at_every_state(self, load_program):
        tp = load_program("constfold.lcp")

        def wf_cb(ctx, ts):
            errs = P.check_wellformed(tp, ts, ctx)
            assert errs == []

        P.run_par(tp, P.always_fork(), {"wf_callback": wf_cb})

    def test_join_keeps_producer_allocation_site(self, load_program):
        # under this schedule the consumer runs a spawned call past the
        # call's letregion and forks it later; the producer allocates into
        # the region, so after the join the region must have its site
        tp = load_program("countnodes.lcp")
        flagged = []

        def wf_cb(ctx, ts):
            flagged.extend(P.check_wellformed(tp, ts, ctx))

        P.run_par(tp, P.random_schedule(0), {"wf_callback": wf_cb})
        assert flagged == []


class TestEnumeration:
    def test_terminal_count_and_agreement(self, load_program, canonical):
        tp = load_program("constfold.lcp")
        terms = list(P.enumerate_schedules(tp, 3))
        assert len(terms) == 3  # no fork; fork early; fork late
        keys = {canonical(tp, t.value, t.store) for t in terms}
        assert len(keys) == 1

    def test_state_budget(self, load_program):
        tp = load_program("buildtree.lcp")
        with pytest.raises(SemanticsError) as ei:
            list(P.enumerate_schedules(tp, 1, state_cap=10))
        assert (ei.value.code, ei.value.message) == \
            ("ResourceExhausted", "more than 10 states")

    def test_canonical_hash_stable_and_sensitive(self, load_program):
        tp = load_program("constfold.lcp")
        m = P.Machine(tp)
        h0 = P.canonical_hash(m.ts)
        assert P.canonical_hash(m.copy().ts) == h0
        m.apply(m.enabled()[0])
        assert P.canonical_hash(m.ts) != h0

    def test_canonical_hash_of_a_deep_chain(self, default_recursion_limit):
        # the hash keeps no recursion: a focus under 10,000 frames hashes
        # under the default recursion limit, and its innermost literal counts
        e = S.IntLit(1)
        for _ in range(10_000):
            e = S.PrimOp("+", e, S.IntLit(1))
        ts = P.TaskSet({0: P.Task(0, None, None, SeqState(Store(), {}, e))})
        st = ts.root().state
        assert len(st.frames) == 9_999
        assert st.args == (S.IntLit(1), S.IntLit(1))
        other = ts.copy()
        assert P.canonical_hash(other) == P.canonical_hash(ts)
        other.root().state.args = (S.IntLit(2), S.IntLit(1))
        assert P.canonical_hash(other) != P.canonical_hash(ts)

    def test_canonical_hash_tells_minus_one_from_minus_two(self):
        # Python hashes the integers -1 and -2 alike
        def finished(v):
            return P.TaskSet({0: P.Task(0, None, None,
                                        SeqState(Store(), {}, S.IntLit(v)))})

        assert P.canonical_hash(finished(-1)) != P.canonical_hash(finished(-2))

    def test_canonical_hash_ignores_fresh_name_counters(self, load_program):
        # two machines whose fresh-name counters start at different offsets
        # walk through alpha-equivalent states with equal hashes
        tp = load_program("constfold.lcp")
        a, b = P.Machine(tp), P.Machine(tp)
        for _ in range(5):
            b.ctx.supply.fresh("skew")
        for _ in range(12):
            a.apply(a.enabled()[0])
            b.apply(b.enabled()[0])
        assert P.canonical_hash(a.ts) == P.canonical_hash(b.ts)


def buildtree_mid_run():
    """Always-fork buildtree-2 after 30 actions: four live tasks, two
    leaf cells in the root's store, and two continuation regions."""
    m = P.Machine(bench_program("buildtree", 2))
    for _ in range(30):
        m.apply(P.always_fork()(m))
    return m


def renamed_region(m, old, new):
    """A copy of `m` with region `old` called `new` in every task's store,
    location map, target, values and environments."""
    def name(r):
        return new if r == old else r

    def loc(cl):
        if cl is None:
            return None
        ext = cl.ext
        if isinstance(ext, Indirection):
            ext = Indirection(name(ext.region), ext.index)
        return ConcreteLoc(name(cl.region), ext, cl.origin)

    def val(v):
        return S.ConcreteLocVal(loc(v.loc)) if isinstance(v, S.ConcreteLocVal) else v

    def env(e):
        return Env({x: val(v) for x, v in e.vars.items()}, e.locs,
                   {x: name(r) for x, r in e.regs.items()}, e.n0, e.binders)

    c = m.copy()
    for task in c.ts.tasks.values():
        st = task.state
        task.target = loc(task.target)
        st.store = Store({name(r): {i: IndirectionCell(name(hv.region), hv.index)
                                    if isinstance(hv, IndirectionCell) else hv
                                    for i, hv in heap.items()}
                          for r, heap in st.store.regions.items()})
        st.locmap = {l: loc(cl) for l, cl in st.locmap.items()}
        st.frames = [(node, env(e), tuple(map(val, vals)))
                     for node, e, vals in st.frames]
        st.focus, st.env, st.args = val(st.focus), env(st.env), tuple(map(val, st.args))
    return c


class TestCanonicalHashCoverage:
    """Every part of a task's state that decides its future changes the
    hash; a consistent renaming of a fresh name does not."""

    @pytest.fixture(scope="class")
    def m(self):
        m = buildtree_mid_run()
        assert len(m.ts.tasks) == 4 and not m.ts.joined
        return m

    def edited(self, m, edit):
        c = m.copy()
        edit(c.ts.tasks)
        return P.canonical_hash(c.ts)

    def test_a_store_cell(self, m):
        assert m.ts.tasks[0].state.store.regions["r%12"] == \
            {0: Tag("Leaf"), 1: Scalar(31)}

        def edit(tasks):
            store = tasks[0].state.store
            store.regions["r%12"] = {0: Tag("Leaf"), 1: Scalar(32)}
        assert self.edited(m, edit) != P.canonical_hash(m.ts)

    def test_a_location_map_entry(self, m):
        assert m.ts.tasks[0].state.locmap["l"] == ConcreteLoc("r%0", Concrete(0), "l")

        def edit(tasks):
            tasks[0].state.locmap["l"] = ConcreteLoc("r%0", Concrete(1), "l")
        assert self.edited(m, edit) != P.canonical_hash(m.ts)

    def test_a_target(self, m):
        assert m.ts.tasks[2].target == ConcreteLoc("r%6", Ivar("iv%11"), "la%7")

        def edit(tasks):
            tasks[2].target = ConcreteLoc("r%0", Ivar("iv%11"), "la%7")
        assert self.edited(m, edit) != P.canonical_hash(m.ts)

    def test_a_frames_evaluated_child(self, m):
        node, env, vals = m.ts.tasks[1].state.frames[1]
        assert isinstance(node, S.App) and vals == (S.IntLit(0),)

        def edit(tasks):
            tasks[1].state.frames[1] = (node, env, (S.IntLit(1),))
        assert self.edited(m, edit) != P.canonical_hash(m.ts)

    def test_a_binding_the_frames_code_reads(self, m):
        # the frame's call still has to evaluate its argument (2 * k)
        node, env, vals = m.ts.tasks[2].state.frames[0]
        assert isinstance(node, S.App) and vals == ()
        assert env.vars["k"] == S.IntLit(15)

        def edit(tasks):
            tasks[2].state.frames[0] = (node, env.bind(vars={"k": S.IntLit(16)}), vals)
        assert self.edited(m, edit) != P.canonical_hash(m.ts)

    def test_a_consistently_renamed_region(self, m):
        # r%6 is in two tasks' stores and location maps, in a target, and
        # in a value that the root's frames and environments hold
        st = m.ts.tasks[0].state
        assert "r%6" in st.store.regions and "r%6" in m.ts.tasks[2].state.store.regions
        assert st.env.vars["left"].loc.region == st.args[0].loc.region == "r%6"
        c = renamed_region(m, "r%6", "r%99")
        assert c.ts.tasks[2].target.region == "r%99"
        assert c.ts.tasks[0].state.env.vars["left"].loc.region == "r%99"
        assert P.canonical_hash(c.ts) == P.canonical_hash(m.ts)


# Two tasks wait on one ivar: main cases on t while the spawned copy reads t.
# Whichever joins t first, the other must still be able to join it.
TWO_WAITERS = """
data Tree = Leaf Int | Node Tree Tree

fun mk [l@r] (k : Int) : Tree@l@r = (Leaf l@r k)

fun copy [li@ri, lo@ro] (t : Tree@li@ri) : Tree@lo@ro =
  case t of {
    Leaf (x : Int@lx@ri) -> (Leaf lo@ro x)
  ; Node (a : Tree@la@ri) (b : Tree@lb@ri) -> (Leaf lo@ro 0)
  }

fun sum [l@r] (t : Tree@l@r) : Int =
  case t of {
    Leaf (x : Int@lx@r) -> x
  ; Node (a : Tree@la@r) (b : Tree@lb@r) -> 0
  }

main =
  letregion r in
  letloc l@r = start r in
  let t : Tree@l@r = spawn (mk [l@r] 5) in
  letregion r2 in
  letloc l2@r2 = start r2 in
  let u : Tree@l2@r2 = spawn (copy [l@r, l2@r2] t) in
  (sum [l@r] t) + (sum [l2@r2] u)
"""

SCHEDULES = [P.never_fork, P.always_fork] + \
    [lambda k=k: P.random_schedule(k) for k in range(5)]


def two_waiters():
    return typecheck_program(S.parse_program(TWO_WAITERS))


def assert_ready_set_matches_rescan(tp, make_schedule):
    """The machine keeps its action list incrementally; before every action
    it must equal a rescan of every task, and the run must finish as
    run_par does."""
    m = P.Machine(tp)
    sched = make_schedule()
    while True:
        actions = m.enabled()
        assert actions == m.rescan()
        # each task holds exactly the ivars in its location map, and a joined
        # producer is kept exactly while a live task holds its ivar
        held = set()
        for task in m.ts.tasks.values():
            assert task.holds == {cl.ext.name for cl in task.state.locmap.values()
                                  if isinstance(cl.ext, Ivar)}
            held |= task.holds
        assert set(m.ts.joined) == held - set(m.ts.registry)
        # the holder counts the join prunes `joined` by are a recount of
        # the live tasks' holds
        assert m.ts.holders == Counter(iv for task in m.ts.tasks.values()
                                       for iv in task.holds)
        if not actions:
            break
        m.apply(sched(m))
    assert m.finished()
    res = P.run_par(tp, make_schedule())
    assert res.metrics["decisions"] == m.decisions
    return res


class TestIncrementalReadySet:
    @pytest.mark.parametrize("name", GOOD_EXAMPLES)
    def test_run_par_chooses_as_a_full_rescan(self, load_program, name):
        tp = load_program(name)
        for mk in SCHEDULES:
            assert_ready_set_matches_rescan(tp, mk)

    def test_joined_away_ivar_leaves_its_other_waiters(self):
        tp = two_waiters()
        assert run_seq(tp).value.value == 10
        for mk in SCHEDULES:
            assert assert_ready_set_matches_rescan(tp, mk).value.value == 10


class TestMachine:
    @pytest.mark.parametrize("name", ["constfold.lcp", "countnodes.lcp"])
    def test_copies_at_every_state_finish_alike(self, load_program,
                                                canonical, name):
        # a copy made at any state and run to the end must leave its source
        # able to finish the same way: copies share no state a step, fork or
        # join mutates in place, and a copy continues its source's name
        # supply, so it draws the same fresh names
        tp = load_program(name)
        ref = P.run_par(tp, P.always_fork())
        want = canonical(tp, ref.value, ref.store)
        m = P.Machine(tp)
        for d in ref.metrics["decisions"]:
            c = m.copy()
            for d2 in ref.metrics["decisions"][len(c.decisions):]:
                c.apply((d2["action"], d2["task"]))
            res = c.result()
            assert canonical(tp, res.value, res.store) == want
            assert res.store.dump() == ref.store.dump()
            m.apply((d["action"], d["task"]))
        assert m.result().store.dump() == ref.store.dump()

    def test_disabled_action_is_refused(self, load_program):
        m = P.Machine(load_program("constfold.lcp"))
        with pytest.raises(SemanticsError):
            m.apply(("join", 0))
        assert m.decisions == []


class TestImplicitPar:
    @pytest.mark.parametrize("name", GOOD_EXAMPLES)
    def test_every_schedule_gives_the_sequential_value(self, load_program,
                                                       canonical, name):
        tp = load_program(name)
        seq = run_seq(tp)
        want = canonical(tp, seq.value, seq.store)
        opts = {"implicit_par": True}
        runs = [P.run_par(tp, mk(), opts) for mk in SCHEDULES]
        runs.append(run_threads_bounded(tp, 2, opts=opts))
        for res in runs:
            assert canonical(tp, res.value, res.store) == want

    def test_forks_unmarked_lets(self, load_program):
        # sumtree marks no let spawn; implicit parallelism forks its calls
        tp = load_program("sumtree.lcp")
        assert P.run_par(tp, P.always_fork()).metrics["forks"] == 0
        res = P.run_par(tp, P.always_fork(), {"implicit_par": True})
        assert res.metrics["forks"] == 15


class TestBlockedOn:
    @pytest.mark.parametrize("name", GOOD_EXAMPLES)
    def test_guards_every_rule(self, load_program, name):
        # at every state, a task the check lets through takes a step, and a
        # task it holds back waits on an ivar it holds that has a producer
        tp = load_program(name)
        for implicit in (False, True):
            for mk in [P.always_fork] + SCHEDULES[2:]:
                m = P.Machine(tp, implicit_par=implicit)
                sched = mk()
                while actions := m.enabled():
                    for task in m.ts.tasks.values():
                        if task.complete():
                            continue
                        wait = blocked_on(task.state)
                        if wait is None:
                            step_seq(m.ctx.copy(), task.state.copy())
                        else:
                            assert wait[0] in task.holds
                            assert m.ts.producer(wait[0]) is not None
                    m.apply(sched(m))
                assert m.finished()

    def test_states_are_copied_only_where_futures_split(self, load_program,
                                                        monkeypatch):
        copies = [0]
        copy = SeqState.copy

        def counted(st):
            copies[0] += 1
            return copy(st)

        monkeypatch.setattr(SeqState, "copy", counted)
        tp = load_program("buildtree.lcp")
        assert run_seq(tp).metrics["steps"] > 0
        assert copies[0] == 0
        # one copy per forked child, and one for the finished result
        res = P.run_par(tp, P.always_fork())
        assert copies[0] == res.metrics["forks"] + 1 == 16

    def test_a_split_copies_each_shared_heap_at_most_once(self, load_program):
        # (task, region) -> the heap dicts the task has held for the region
        # since its last fork, when parent and child start sharing them
        held: dict = {}
        m = P.Machine(load_program("buildtree.lcp"))
        sched = P.always_fork()
        while (act := sched(m)) is not None:
            child = m.apply(act)
            for task in m.ts.tasks.values():
                split = child is not None and task.tid in (act[1], child.tid)
                for r, heap in task.state.store.regions.items():
                    hs = held.setdefault((task.tid, r), [heap])
                    if split:
                        hs[:] = [heap]
                    elif hs[-1] is not heap:
                        hs.append(heap)
        assert m.ctx.metrics["forks"] > 0
        assert max(map(len, held.values())) == 2


class TestTwoWaiters:
    def test_every_explored_terminal_gives_the_sum(self):
        tp = two_waiters()
        bad = []

        def wf_cb(ctx, ts):
            bad.extend(P.check_wellformed(tp, ts, ctx))

        terms = list(P.enumerate_schedules(tp, 2, wf_callback=wf_cb))
        assert terms and all(t.value.value == 10 for t in terms)
        assert bad == []

    def test_hash_sees_a_joined_producer(self):
        # after the first join on t, its producer is kept for the other
        # waiter, and a state without it is a different state
        m = P.Machine(two_waiters())
        while not m.ts.joined:
            m.apply(P.always_fork()(m))
        c = m.copy()
        c.ts.joined.clear()
        assert P.canonical_hash(c.ts) != P.canonical_hash(m.ts)
        assert P.check_wellformed(None, m.ts, m.ctx) == []
        assert any("unknown ivar" in v
                   for v in P.check_wellformed(None, c.ts, c.ctx))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_threads_give_the_sum(self, workers):
        assert run_threads_bounded(two_waiters(), workers).value.value == 10


def _explore_full(tp, bound, wf_callback):
    """The unreduced search: pop, hash, dedupe, callback, and push a child
    for every enabled action.  The reference the sleep-set search in
    `enumerate_schedules` must agree with."""
    seen = set()
    stack = [P.Machine(tp)]
    while stack:
        m = stack.pop()
        h = P.canonical_hash(m.ts)
        if h in seen:
            continue
        seen.add(h)
        wf_callback(m.ctx, m.ts)
        actions = m.enabled()
        if m.ctx.metrics["forks"] >= bound:
            actions = [a for a in actions if a[0] != "fork"]
        if not actions:
            res = m.result()
            yield P.Terminal(m.decisions, res.value, res.store)
            continue
        for act in actions:
            child = m.copy()
            child.apply(act)
            stack.append(child)


def explored(search, tp, bound):
    """The states a search checks, in order, as (hash, violations), and the
    decision lists of its terminals."""
    visits = []

    def wf_cb(ctx, ts):
        visits.append((P.canonical_hash(ts), P.check_wellformed(None, ts, ctx)))

    terms = [t.decisions for t in search(tp, bound, wf_callback=wf_cb)]
    return visits, terms


def bench_program(name, size):
    return typecheck_program(S.parse_program(bench_source(name, size)))


class TestSleepSets:
    @pytest.mark.parametrize("name,bound", [
        ("constfold.lcp", 3), ("constfold-deep.lcp", 3), ("interp.lcp", 3),
        ("add1tree.lcp", 1), ("copytree.lcp", 1), ("mirror.lcp", 1)])
    def test_corpus_explores_as_the_full_search(self, load_program, name,
                                                bound):
        tp = load_program(name)
        assert explored(P.enumerate_schedules, tp, bound) == \
            explored(_explore_full, tp, bound)

    @pytest.mark.parametrize("make,bound", [
        pytest.param(two_waiters, 2, id="two-waiters"),
        # buildtree-2 at bound 2 revisits states with smaller sleep sets
        pytest.param(lambda: bench_program("buildtree", 2), 2, id="buildtree-2"),
        pytest.param(lambda: bench_program("add1tree", 1), 2, id="add1tree-1")])
    def test_explores_as_the_full_search(self, make, bound):
        tp = make()
        visits, terms = explored(P.enumerate_schedules, tp, bound)
        assert visits and terms
        assert (visits, terms) == explored(_explore_full, tp, bound)

    def test_skips_commuting_transitions(self, monkeypatch):
        # the full search applies 2,880 actions to reach these 1,555 states
        tp = bench_program("buildtree", 2)
        applied = [0]
        apply = P.Machine.apply

        def counted(m, act):
            applied[0] += 1
            return apply(m, act)

        monkeypatch.setattr(P.Machine, "apply", counted)
        states = [0]

        def wf_cb(ctx, ts):
            states[0] += 1

        terms = list(P.enumerate_schedules(tp, 1, wf_callback=wf_cb))
        assert (states[0], len(terms)) == (1_555, 5)
        assert applied[0] <= 1_600

    def test_independence(self):
        ind = P._independent
        assert ind(("step", 1), ("step", 2))
        assert ind(("step", 1), ("fork", 2)) and ind(("fork", 2), ("step", 1))
        # one task's actions, forks of two tasks, and joins are dependent
        assert not ind(("step", 1), ("step", 1))
        assert not ind(("step", 1), ("fork", 1))
        assert not ind(("fork", 1), ("fork", 2))
        for other in [("step", 2), ("fork", 2), ("join", 2)]:
            assert not ind(("join", 1), other)
            assert not ind(other, ("join", 1))


# The spawn let sits under a `+` operand rather than among the leading let
# frames, so no task can split there: always-fork runs it inline.
SPAWN_UNDER_OPERAND = """
data Tree = Leaf Int | Node Tree Tree

fun mk [l@r] (k : Int) : Tree@l@r = (Leaf l@r k)

fun sum [l@r] (t : Tree@l@r) : Int =
  case t of {
    Leaf (x : Int@lx@r) -> x
  ; Node (a : Tree@la@r) (b : Tree@lb@r) -> 0
  }

main =
  letregion r in
  letloc l@r = start r in
  1 + (let t : Tree@l@r = spawn (mk [l@r] 5) in (sum [l@r] t))
"""


class TestJoin:
    def test_ivar_resolves_into_another_region(self):
        # a producer may have written its value behind an indirection in a
        # region other than the one the ivar was minted in; every hole takes
        # that region and index and keeps its own origin, wherever the
        # consumer holds it: an environment's binding, a frame's evaluated
        # child, the focus's arguments
        def hole(origin, iv="iv%0"):
            return S.ConcreteLocVal(ConcreteLoc("r", Ivar(iv), origin))
        body = S.PrimOp("+", S.Var("x"), S.PrimOp("*", hole("lb"), hole("lc", "iv%1")))
        st = SeqState(Store(), {}, S.Let("x", S.INT, hole("la"), body))
        st.refocus(body, st.env.bind(vars={"x": st.args[0]}))  # D-Let-Val
        (node, env, vals), = st.frames
        copy = st.copy()
        to = ConcreteLoc("r2", Indirection("r3", 4), "lp")
        P._resolve_ivar(st, "iv%0", to)
        got = ConcreteLoc("r2", Indirection("r3", 4), "la")
        assert st.frames[0][1].vars["x"].loc == st.frames[0][2][0].loc == got
        assert st.args[0].loc == ConcreteLoc("r2", Indirection("r3", 4), "lb")
        assert st.args[1] == hole("lc", "iv%1")
        # environments are shared, never changed: the copy keeps the ivar
        assert env.vars["x"] == copy.frames[0][1].vars["x"] == hole("la")
        assert copy.args == (hole("lb"), hole("lc", "iv%1"))
        P._resolve_ivar(st, "iv%1", ConcreteLoc("q", Concrete(7)))
        assert st.args[1].loc == ConcreteLoc("q", Concrete(7), "lc")


class TestSpawnRedex:
    def test_spawn_let_under_an_operand_runs_inline(self):
        tp = typecheck_program(S.parse_program(SPAWN_UNDER_OPERAND))
        res = P.run_par(tp, P.always_fork())
        assert res.metrics["forks"] == 0
        assert res.value == run_seq(tp).value == S.IntLit(6)


def run_threads_bounded(tp, workers, seconds=60, opts=None):
    """run_threads in a daemon thread, so that a deadlock fails the test.
    Frequent thread switches make a lost update to shared state likely to
    show."""
    box = {}
    th = threading.Thread(
        target=lambda: box.update(res=P.run_threads(tp, workers, opts)),
        daemon=True)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        th.start()
        th.join(seconds)
    finally:
        sys.setswitchinterval(interval)
    assert not th.is_alive(), f"run_threads with {workers} workers hung"
    return box["res"]


class TestThreads:
    def test_thread_pool_matches_schedule_semantics(self, load_program,
                                                    canonical):
        tp = load_program("constfold.lcp")
        ref_res = P.run_par(tp, P.always_fork())
        ref = canonical(tp, ref_res.value, ref_res.store)
        res = P.run_threads(tp, 4)
        assert canonical(tp, res.value, res.store) == ref
        assert metrics_of(res)["extra_regions"] == \
            metrics_of(ref_res)["extra_regions"]

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_fewer_workers_than_live_tasks_finish(self, load_program,
                                                  canonical, workers):
        # buildtree forks 15 times; a pool thread blocked on a child that is
        # still queued behind it must not stall the run
        tp = load_program("buildtree.lcp")
        ref = P.run_par(tp, P.always_fork())
        res = run_threads_bounded(tp, workers)
        assert canonical(tp, res.value, res.store) == \
            canonical(tp, ref.value, ref.store)
        m = res.metrics
        assert m["forks"] == m["joins"] == m["extra_regions"] == 15

    def test_peak_tasks_counts_the_root_once(self, load_program):
        tp = load_program("constfold.lcp")
        assert P.run_par(tp, P.always_fork()).metrics["peak_tasks"] == 2
        assert run_threads_bounded(tp, 2).metrics["peak_tasks"] == 2

    @pytest.mark.parametrize("name", ["buildtree.lcp", "constfold.lcp"])
    def test_threads_run_replays_as_a_trace(self, load_program, name):
        # one machine: the threads run's decisions are a valid schedule that
        # reproduces its heap byte for byte
        tp = load_program(name)
        res = run_threads_bounded(tp, 2)
        replay = P.run_par(tp, P.trace_schedule(res.metrics["decisions"]))
        assert replay.store.dump() == res.store.dump()
        for k in ("forks", "joins", "extra_regions"):
            assert replay.metrics[k] == res.metrics[k]


class TestEndTracking:
    @pytest.mark.parametrize("name", ["constfold.lcp", "buildtree.lcp"])
    def test_parallel_runs_keep_ends_consistent(self, load_program, name):
        tp = load_program(name)
        for sched in [P.never_fork(), P.always_fork(), P.random_schedule(5)]:
            res = P.run_par(tp, sched)
            assert verify_frontier_notes(tp.decls, res.state) == []
