"""Parallel machine: schedules, determinism, joins, well-formedness."""

import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from conftest import GOOD_EXAMPLES
from locpar import eval_par as P
from locpar import syntax as S
from locpar.eval_seq import SemanticsError, run_seq, verify_frontier_notes
from locpar.store import IndirectionCell, Scalar, Tag
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

    def test_canonical_hash_stable_and_sensitive(self, load_program):
        tp = load_program("constfold.lcp")
        ctx, ts = P.initial_taskset(tp)
        h0 = P.canonical_hash(ts)
        assert P.canonical_hash(ts.copy()) == h0
        act = P.enabled_actions(ctx, ts)[0]
        ts2 = P.apply_action(ctx, ts, act)
        assert P.canonical_hash(ts2) != h0

    def test_canonical_hash_ignores_fresh_name_counters(self, load_program):
        # two machines whose fresh-name counters start at different offsets
        # walk through alpha-equivalent states with equal hashes
        tp = load_program("constfold.lcp")
        ctx_a, ts_a = P.initial_taskset(tp)
        ctx_b, ts_b = P.initial_taskset(tp)
        for _ in range(5):
            ctx_b.supply.fresh("skew")
        for _ in range(12):
            ts_a = P.apply_action(ctx_a, ts_a,
                                  P.enabled_actions(ctx_a, ts_a)[0])
            ts_b = P.apply_action(ctx_b, ts_b,
                                  P.enabled_actions(ctx_b, ts_b)[0])
        assert P.canonical_hash(ts_a) == P.canonical_hash(ts_b)


# Two tasks wait on one ivar: main cases on t while the spawned copy reads t.
# The first join removes t's producer, so the other waiter's join must drop
# out of the action list.
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


def assert_run_par_matches_rescan(tp, make_schedule):
    """run_par keeps its action list incrementally; a driver that rescans
    every task before each action must make the same decisions and stop in
    the same way."""
    ctx, ts = P.initial_taskset(tp)
    sched = make_schedule()
    rescan = []
    while actions := P.enabled_actions(ctx, ts):
        kind, tid = P.choose_action(sched, actions, len(rescan))
        rescan.append({"step": len(rescan), "task": tid, "action": kind})
        ts = P.apply_action(ctx, ts, (kind, tid))
    if all(t.complete() for t in ts.tasks.values()) \
            and P._value_ivar(ts.root()) is None:
        assert P.run_par(tp, make_schedule()).metrics["decisions"] == rescan
    else:
        with pytest.raises(SemanticsError) as err:
            P.run_par(tp, P.trace_schedule(rescan))
        assert err.value.code == "NoEnabledTransition"


class TestIncrementalReadySet:
    @pytest.mark.parametrize("name", GOOD_EXAMPLES)
    def test_run_par_chooses_as_a_full_rescan(self, load_program, name):
        tp = load_program(name)
        for mk in SCHEDULES:
            assert_run_par_matches_rescan(tp, mk)

    def test_joined_away_ivar_leaves_its_other_waiters(self):
        tp = typecheck_program(S.parse_program(TWO_WAITERS))
        for mk in SCHEDULES:
            assert_run_par_matches_rescan(tp, mk)


def run_threads_bounded(tp, workers, seconds=60):
    """run_threads in a daemon thread, so that a deadlock fails the test."""
    box = {}
    th = threading.Thread(target=lambda: box.update(res=P.run_threads(tp, workers)),
                          daemon=True)
    th.start()
    th.join(seconds)
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
        # still queued behind it must not stall the run.  Frequent thread
        # switches make a lost update to the unstarted set likely to show.
        tp = load_program("buildtree.lcp")
        ref = P.run_par(tp, P.always_fork())
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            res = run_threads_bounded(tp, workers)
        finally:
            sys.setswitchinterval(interval)
        assert canonical(tp, res.value, res.store) == \
            canonical(tp, ref.value, ref.store)
        m = res.metrics
        assert m["forks"] == m["joins"] == m["extra_regions"] == 15

    def test_peak_tasks_counts_the_root_once(self, load_program):
        tp = load_program("constfold.lcp")
        assert P.run_par(tp, P.always_fork()).metrics["peak_tasks"] == 2
        assert run_threads_bounded(tp, 2).metrics["peak_tasks"] == 2


class TestEndTracking:
    @pytest.mark.parametrize("name", ["constfold.lcp", "buildtree.lcp"])
    def test_parallel_runs_keep_ends_consistent(self, load_program, name):
        tp = load_program(name)
        for sched in [P.never_fork(), P.always_fork(), P.random_schedule(5)]:
            res = P.run_par(tp, sched)
            assert verify_frontier_notes(tp.decls, res.state) == []
