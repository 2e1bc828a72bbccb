"""Parallel task-set evaluator: forking lets, lazy joins, schedule control.

A task owns a private snapshot of the store and location map.  Forking a
spawn-flagged let mints a fresh ivar: the child inherits the concrete address
of the bound location and produces the value there, while the parent sees the
location (and the let-bound variable) as the ivar until a join.  Joins are
lazy: they fire only when a consumer is blocked on an ivar (or holds one in
its finished value) and the producing task has run to completion.  A join
merges the producer's store and location map into the consumer, replaces the
ivar with the producer's concrete result address, and, for a constructor
join, stitches the next field in with an indirection cell when it was
allocated into a fresh region.  A joined producer stays available while
another task holds its ivar, so every waiter on one ivar can join it.

One `Machine` owns a run's task set and applies fork, step and join actions
to it in place.  Three loops choose its actions: `run_par` follows a
schedule, `enumerate_schedules` walks every choice depth-first over machine
copies, and `run_threads` lets each pool thread drive its own task.
"""

from __future__ import annotations

import random
from collections import defaultdict
from dataclasses import dataclass, field as dcfield

from . import syntax as S
from .store import (Store, ConcreteLoc, Concrete, Ivar, Indirection,
                    Tag, Scalar, IndirectionCell, StoreError,
                    deref_concrete, end_witness, alloc_frontier,
                    merge_store, merge_locmap, link_fields)
from .eval_seq import (SeqState, RunContext, step_seq, Stepped, Blocked,
                       Stuck, SemanticsError, RunResult)


### tasks

@dataclass
class Task:
    tid: int
    rtype: S.Type | None  # located result type; None for the root scalar case
    target: ConcreteLoc | None
    state: SeqState
    # the ivars in the task's location map; every ivar in its expression is
    # also there, under the location it was minted for
    holds: set[str] = dcfield(default_factory=set)

    def complete(self) -> bool:
        return S.is_value(self.state.expr)

    def copy(self) -> "Task":
        return Task(self.tid, self.rtype, self.target, self.state.copy(),
                    set(self.holds))


@dataclass
class TaskSet:
    tasks: dict[int, Task] = dcfield(default_factory=dict)
    registry: dict[str, int] = dcfield(default_factory=dict)  # ivar -> producer tid
    next_tid: int = 1
    # ivar -> producer already joined once, kept while a live task holds the
    # ivar, so that every other waiter on it can join it too
    joined: dict[str, Task] = dcfield(default_factory=dict)

    def ordered(self) -> list[Task]:
        return [self.tasks[k] for k in sorted(self.tasks)]

    def root(self) -> Task:
        return self.tasks[0]

    def producer(self, ivar: str) -> Task | None:
        tid = self.registry.get(ivar)
        if tid is None:
            return self.joined.get(ivar)
        return self.tasks.get(tid)

    def copy(self) -> "TaskSet":
        return TaskSet({k: t.copy() for k, t in self.tasks.items()},
                       dict(self.registry), self.next_tid,
                       {iv: t.copy() for iv, t in self.joined.items()})


### schedules

@dataclass
class Schedule:
    policy: str  # 'never' | 'always' | 'random' | 'trace'
    seed: int | None = None
    decisions: list[dict] | None = None  # for 'trace': {step, task, action}

    def __post_init__(self):
        if self.policy == "random":
            self._rng = random.Random(self.seed)


def never_fork() -> Schedule:
    return Schedule("never")


def always_fork() -> Schedule:
    return Schedule("always")


def random_schedule(seed: int) -> Schedule:
    return Schedule("random", seed=seed)


def trace_schedule(decisions: list[dict]) -> Schedule:
    return Schedule("trace", decisions=decisions)


### transitions

Action = tuple[str, int]  # ('step' | 'fork' | 'join', task id)


def _spawn_redex(ctx: RunContext, task: Task):
    """Outermost forkable let on the evaluation spine, with its context.

    Returns (enclosing lets outermost-first, the forkable let) or None.  A
    let is forkable when it is marked spawn (or implicit parallelism is on),
    binds a located value, and its target location is already concrete.
    """
    e = task.state.expr
    outer: list[S.Let] = []
    while isinstance(e, S.Let) and not S.is_value(e.bound):
        if (e.spawn or ctx.implicit_par) \
                and isinstance(e.ty, S.PackedType) and e.ty.tycon != "Int":
            cl = task.state.locmap.get(e.ty.loc)
            if cl is not None and not isinstance(cl.ext, Ivar):
                return outer, e
        outer.append(e)
        e = e.bound
    return None


def _value_ivar(task: Task) -> str | None:
    e = task.state.expr
    if isinstance(e, S.ConcreteLocVal) and isinstance(e.loc.ext, Ivar):
        return e.loc.ext.name
    return None


def _task_actions(ctx: RunContext, ts: TaskSet, task: Task,
                  probe) -> tuple[list[Action], tuple[str, str] | None]:
    """One task's enabled actions (fork, step, join order) and its wait.

    The wait is the (ivar, why) the task needs joined: the ivar its probe is
    blocked on, or the ivar that is its finished value ('value').  The join
    is enabled once that ivar's producer has completed.  `probe(task)` runs
    the task's trial step.
    """
    acts: list[Action] = []
    wait = None
    if task.complete():
        iv = _value_ivar(task)
        if iv is not None:
            wait = (iv, "value")
    else:
        if _spawn_redex(ctx, task) is not None:
            acts.append(("fork", task.tid))
        res = probe(task)
        if isinstance(res, Stepped):
            acts.append(("step", task.tid))
        elif isinstance(res, Blocked):
            wait = (res.ivar, res.why)
        elif isinstance(res, Stuck):
            raise SemanticsError("Stuck", f"task {task.tid}: {res.reason}")
    if wait is not None and _join_ready(ts, wait[0]):
        acts.append(("join", task.tid))
    return acts, wait


def _join_ready(ts: TaskSet, ivar: str) -> bool:
    prod = ts.producer(ivar)
    if prod is None or not prod.complete():
        return False
    v = prod.state.expr
    return isinstance(v, S.ConcreteLocVal) and isinstance(v.loc.ext, Concrete)


def _fork(ctx: RunContext, ts: TaskSet, parent: Task) -> Task:
    """Split the parent at its spawn redex; register and return the child.

    The child produces the let's bound expression at the bound location,
    from a snapshot of the parent's state; the parent continues with the
    location and the let-bound variable replaced by a fresh ivar.
    """
    outer, e = _spawn_redex(ctx, parent)
    lt = e.ty
    iv = ctx.supply.fresh("iv")
    pst = parent.state
    child_state = SeqState(pst.store.copy(), dict(pst.locmap), e.bound,
                           dict(pst.frontier_notes), dict(pst.sigma),
                           set(pst.nursery), dict(pst.constraints),
                           dict(pst.allocsites))
    region = pst.locmap[lt.loc].region
    child = Task(ts.next_tid, lt, ConcreteLoc(region, Ivar(iv), lt.loc),
                 child_state, set(parent.holds))
    # the parent now sees the bound location (and variable) through the ivar
    pst.locmap[lt.loc] = ConcreteLoc(region, Ivar(iv), lt.loc)
    parent.holds.add(iv)
    pst.sigma[lt.loc] = lt
    pst.nursery.discard(lt.loc)
    hole = S.ConcreteLocVal(ConcreteLoc(region, Ivar(iv), lt.loc))
    inner = S.substitute(e.body, var_map={e.var: hole})
    for enc in reversed(outer):
        inner = S.Let(enc.var, enc.ty, inner, enc.body, enc.spawn)
    pst.expr = inner
    ts.next_tid += 1
    ts.tasks[child.tid] = child
    ts.registry[iv] = child.tid
    ctx.metrics["forks"] += 1
    return child


def _apply_join(ctx: RunContext, ts: TaskSet, consumer: Task,
                need: tuple[str, str]) -> None:
    """Merge the producer of the needed ivar into the consumer.

    The first join moves the producer from the live tasks to `joined`; a
    joined producer is dropped once no live task holds its ivar.
    """
    iv, why = need
    prod = ts.producer(iv)
    ploc = prod.state.expr.loc
    assert isinstance(ploc.ext, Concrete)
    pst, cst = prod.state, consumer.state
    cst.store = merge_store(cst.store, pst.store)
    cst.locmap = merge_locmap(cst.locmap, pst.locmap)
    cst.sigma.update(pst.sigma)
    cst.constraints.update(pst.constraints)
    for r, l in pst.allocsites.items():
        # a region the consumer created but the producer allocated into
        # takes the producer's site
        if cst.allocsites.get(r) is None:
            cst.allocsites[r] = l
    cst.frontier_notes.update(pst.frontier_notes)
    cst.nursery = (cst.nursery | pst.nursery) - set(cst.sigma)
    # replace the ivar with the producer's concrete result address
    cst.expr = S.substitute(cst.expr, ivar_map={iv: ploc})
    consumer.holds = set()
    for l, cl in list(cst.locmap.items()):
        if isinstance(cl.ext, Ivar):
            if cl.ext.name == iv:
                cst.locmap[l] = ConcreteLoc(ploc.region, ploc.ext, cl.origin)
            else:
                consumer.holds.add(cl.ext.name)
    if why == "datacon":
        _join_link_fields(ctx, cst, iv)
    if ts.registry.get(iv) == prod.tid:
        del ts.tasks[prod.tid]
        del ts.registry[iv]
        ts.joined[iv] = prod
    for j in list(ts.joined):
        if not any(j in t.holds for t in ts.tasks.values()):
            del ts.joined[j]
    ctx.metrics["joins"] += 1


def _join_link_fields(ctx: RunContext, cst: SeqState, iv: str) -> None:
    """After a constructor join, stitch each resolved field to its successor."""
    e = _find_datacon(cst.expr)
    if e is None:
        return
    ftys = ctx.decls.fields(e.tag)
    for k, (fty, fv) in enumerate(zip(ftys, e.fields)):
        if fty == "Int" or k + 1 >= len(e.fields):
            continue
        if not isinstance(fv, S.ConcreteLocVal) or isinstance(fv.loc.ext, Ivar):
            continue
        nxt = e.fields[k + 1]
        if not isinstance(nxt, S.ConcreteLocVal) or nxt.loc.origin is None:
            continue
        before = cst.store
        cst.store = link_fields(cst.store, cst.locmap, ctx.decls, fty,
                                fv.loc, nxt.loc.origin)
        if cst.store is not before:
            ctx.metrics["indirections"] += 1
            ctx.metrics["cells_written"] += 1


def _find_datacon(e: S.Expr) -> S.DataCon | None:
    while isinstance(e, S.Let):
        e = e.bound
    return e if isinstance(e, S.DataCon) else None


### choosing

def choose_action(sched: Schedule, actions: list[Action], stepno: int) -> Action:
    if sched.policy == "never":
        for a in actions:
            if a[0] != "fork":
                return a
        raise SemanticsError("Stuck", "only fork transitions enabled under NeverFork")
    if sched.policy == "always":
        for kind in ("fork", "step", "join"):
            for a in actions:
                if a[0] == kind:
                    return a
        raise SemanticsError("Stuck", "no enabled transition")
    if sched.policy == "random":
        return sched._rng.choice(actions)
    if sched.policy == "trace":
        if stepno >= len(sched.decisions or []):
            raise SemanticsError("Stuck", f"trace exhausted at step {stepno}")
        d = sched.decisions[stepno]
        want = (d["action"], d["task"])
        if want not in actions:
            raise SemanticsError("Stuck",
                                 f"trace step {stepno} wants {want}, "
                                 f"enabled {actions}")
        return want
    raise SemanticsError("Stuck", f"schedule policy {sched.policy} cannot drive a run")


### the task machine

class Machine:
    """A run's task set with an incremental ready set.

    Each live task's enabled actions and wait (see `_task_actions`) are
    cached, along with its next-step probe, so one semantic step is computed
    once.  After an action only these entries are recomputed: the task that
    acted, a newly forked child, and the tasks waiting on an ivar whose
    producer has just completed or been joined (waiters are indexed by
    ivar).  `enabled()` is the cached entries in task order, the same list a
    rescan of every task builds, so an action costs no more as the number
    of live tasks grows.  Every applied action is logged in `decisions`.
    """

    def __init__(self, tp, implicit_par: bool = False):
        self.ctx = RunContext(tp, implicit_par=implicit_par)
        root = Task(0, None, None, SeqState(Store(), {}, tp.program.main))
        self.ts = TaskSet(tasks={0: root})
        self.decisions: list[dict] = []
        self.peak = 1
        self._probes: dict[int, tuple] = {}  # tid -> (StepResult, metrics delta)
        # tid -> enabled actions; tids only grow, so insertion order is task order
        self.actions: dict[int, list[Action]] = {}
        self.waits: dict[int, tuple[str, str]] = {}  # tid -> (ivar, why) it needs
        self._waiters: dict[str, set[int]] = {}  # ivar -> tids whose wait is on it
        self._refresh(root)

    def copy(self) -> "Machine":
        """An independent machine in the same state.

        It drops the cached probes: a probed step's state becomes the task's
        state when the step is applied, so it is recomputed on demand.
        """
        m = Machine.__new__(Machine)
        m.ctx = self.ctx.copy()
        m.ts = self.ts.copy()
        m.decisions = list(self.decisions)
        m.peak = self.peak
        m._probes = {}
        m.actions = dict(self.actions)
        m.waits = dict(self.waits)
        m._waiters = {iv: set(tids) for iv, tids in self._waiters.items()}
        return m

    def enabled(self) -> list[Action]:
        return [a for acts in self.actions.values() for a in acts]

    def rescan(self) -> list[Action]:
        """`enabled()` recomputed from a trial step of every task, without
        the cache and without disturbing metrics or the name supply: the
        reference the incremental ready set must agree with."""
        ctx = self.ctx

        def probe(task: Task):
            saved_m, saved_n = dict(ctx.metrics), ctx.supply.n
            try:
                return step_seq(ctx, task.state)
            finally:
                ctx.metrics.clear()
                ctx.metrics.update(saved_m)
                ctx.supply.n = saved_n

        return [a for task in self.ts.ordered()
                for a in _task_actions(ctx, self.ts, task, probe)[0]]

    def finished(self) -> bool:
        return all(t.complete() for t in self.ts.tasks.values()) \
            and _value_ivar(self.ts.root()) is None

    def apply(self, act: Action) -> Task | None:
        """Apply one enabled action in place; return the forked child, if any."""
        kind, tid = act
        if act not in self.actions.get(tid, ()):
            raise SemanticsError("Stuck", f"{act} is not enabled")
        self.decisions.append({"step": len(self.decisions), "task": tid,
                               "action": kind})
        ts = self.ts
        task = ts.tasks[tid]
        child = None
        if kind == "step":
            if tid not in self._probes:  # dropped by copy()
                self._probe(task)
            res, delta = self._probes.pop(tid)
            task.state = res.state
            metrics = self.ctx.metrics
            for k, n in delta.items():
                metrics[k] = metrics.get(k, 0) + n
            self._refresh(task)
        elif kind == "fork":
            self._probes.pop(tid, None)
            child = _fork(self.ctx, ts, task)
            self._refresh(task)
            self._refresh(child)
        else:
            self._probes.pop(tid, None)
            need = self.waits[tid]
            ptid = ts.registry.get(need[0])
            _apply_join(self.ctx, ts, task, need)
            if ptid is not None:  # the first join on this ivar
                del self.actions[ptid]
                self._forget(ptid)
            self._refresh(task)
            self._wake(need[0])
        if task.complete() and task.target is not None \
                and isinstance(task.target.ext, Ivar):
            self._wake(task.target.ext.name)
        self.peak = max(self.peak, len(ts.tasks))
        return child

    def result(self) -> RunResult:
        """The finished run: the root's value over every task's merged store."""
        if not self.finished():
            raise SemanticsError("NoEnabledTransition",
                                 "tasks remain but nothing can step")
        store = None
        locmap: dict = {}
        for task in self.ts.ordered():
            store = task.state.store if store is None \
                else merge_store(store, task.state.store)
            locmap = merge_locmap(locmap, task.state.locmap)
        root = self.ts.root()
        metrics = dict(self.ctx.metrics)
        metrics["peak_tasks"] = self.peak
        metrics["decisions"] = self.decisions
        final_state = root.state.copy()
        final_state.store = store
        final_state.locmap = locmap
        return RunResult(root.state.expr, store, locmap, metrics,
                         final_state, [])

    def _probe(self, task: Task):
        ent = self._probes.get(task.tid)
        if ent is None:
            # the trial step counts into its own metrics, added on apply
            ctx = self.ctx
            metrics, ctx.metrics = ctx.metrics, defaultdict(int)
            try:
                res = step_seq(ctx, task.state)
            finally:
                delta, ctx.metrics = ctx.metrics, metrics
            ent = (res, delta)
            self._probes[task.tid] = ent
        return ent[0]

    def _forget(self, tid: int) -> None:
        old = self.waits.pop(tid, None)
        if old is not None:
            self._waiters[old[0]].discard(tid)

    def _refresh(self, task: Task) -> None:
        self._forget(task.tid)
        self.actions[task.tid], wait = _task_actions(self.ctx, self.ts, task,
                                                     self._probe)
        if wait is not None:
            self.waits[task.tid] = wait
            self._waiters.setdefault(wait[0], set()).add(task.tid)

    def _wake(self, iv: str) -> None:
        for tid in sorted(self._waiters.get(iv, ())):
            self._refresh(self.ts.tasks[tid])


def run_par(tp, sched: Schedule, opts: dict | None = None) -> RunResult:
    """Drive the machine by `sched` until every task is complete and the
    root resolved."""
    opts = opts or {}
    m = Machine(tp, implicit_par=bool(opts.get("implicit_par")))
    wf_cb = opts.get("wf_callback")
    while actions := m.enabled():
        m.apply(choose_action(sched, actions, len(m.decisions)))
        if wf_cb is not None:
            wf_cb(m.ctx, m.ts)
    return m.result()


### well-formedness

def check_wellformed(tts, ts: TaskSet, ctx: RunContext) -> list[str]:
    """Executable well-formedness: every clause returns violations as data."""
    v: list[str] = []
    # each ivar has exactly one producing task
    producers: dict[str, list[int]] = {}
    for task in ts.ordered():
        if task.target is not None and isinstance(task.target.ext, Ivar):
            producers.setdefault(task.target.ext.name, []).append(task.tid)
    for iv, tids in producers.items():
        if len(tids) != 1:
            v.append(f"singlewriter: ivar {iv} has producers {tids}")
        if ts.registry.get(iv) not in tids:
            v.append(f"singlewriter: registry for {iv} disagrees with tasks")
    for iv, tid in ts.registry.items():
        if tid not in ts.tasks:
            v.append(f"singlewriter: registry names dead task {tid} for {iv}")
    for task in ts.ordered():
        st = task.state
        label = f"task {task.tid}"
        # dom(sigma) and the nursery stay disjoint
        both = set(st.sigma) & st.nursery
        if both:
            v.append(f"{label}: locations {sorted(both)} both materialized and in nursery")
        for l, cl in st.locmap.items():
            if isinstance(cl.ext, Ivar):
                # the ivar side of the exclusive-or: a unique producer must
                # exist, live or joined
                if cl.ext.name not in ts.registry \
                        and cl.ext.name not in ts.joined:
                    v.append(f"{label}: {l} maps to unknown ivar {cl.ext.name}")
                continue
            dcl = deref_concrete(cl)
            if l in st.nursery and l not in st.sigma:
                # allocated but unwritten: the cell must still be absent
                if st.store.cell(dcl.region, dcl.ext.index) is not None:
                    v.append(f"{label}: nursery location {l} already has a cell")
            if l in st.sigma and st.sigma[l] is not None:
                try:
                    end_witness(ctx.decls, st.sigma[l].tycon,
                                dcl.region, dcl.ext.index, st.store)
                except StoreError as err:
                    v.append(f"{label}: materialized {l} incomplete: {err}")
        v.extend(_check_constraints(ctx, task))
        v.extend(_check_allocation(ctx, task))
    v.extend(_check_region_exclusivity(ctx, ts))
    return v


def _check_constraints(ctx: RunContext, task: Task) -> list[str]:
    st = task.state
    label = f"task {task.tid}"
    v: list[str] = []
    for l, le in st.constraints.items():
        cl = st.locmap.get(l)
        if cl is None:
            continue
        if isinstance(le, S.StartOfRegion):
            if isinstance(cl.ext, Concrete) and cl.ext.index != 0:
                v.append(f"{label}: {l} constrained to start but at {cl.ext.index}")
        elif isinstance(le, S.AfterTag):
            src = st.locmap.get(le.loc)
            if src is None or isinstance(cl.ext, Ivar) or isinstance(src.ext, Ivar):
                continue
            d, ds = deref_concrete(cl), deref_concrete(src)
            if d.region != ds.region or d.ext.index != ds.ext.index + 1:
                v.append(f"{label}: {l} is not one past {le.loc}")
        else:
            v.extend(_check_after_constraint(ctx, task, l, le))
    return v


def _check_after_constraint(ctx: RunContext, task: Task, l: str,
                            le: S.AfterValue) -> list[str]:
    # exactly one of three must hold: the location is still an ivar, it is an
    # indirection to the start of a fresh region, or it sits exactly at the
    # end witness of the value it follows
    st = task.state
    label = f"task {task.tid}"
    cl = st.locmap.get(l)
    holds = []
    if isinstance(cl.ext, Ivar):
        holds.append("ivar")
    if isinstance(cl.ext, Indirection) and cl.ext.index == 0:
        holds.append("indirection")
    src = st.locmap.get(le.ty.loc)
    if src is not None and not isinstance(src.ext, Ivar) \
            and isinstance(cl.ext, Concrete) and le.ty.loc in st.sigma:
        ds = deref_concrete(src)
        try:
            r_end, end = end_witness(ctx.decls, le.ty.tycon,
                                     ds.region, ds.ext.index, st.store)
            if (cl.region, cl.ext.index) == (r_end, end):
                holds.append("end-witness")
        except StoreError:
            pass
    if isinstance(cl.ext, Concrete) and (le.ty.loc not in st.sigma
                                         or src is None
                                         or isinstance(src.ext, Ivar)):
        # concrete address one past a value still under construction: counts
        # as satisfying the constraint pending completion, checked when the
        # source materializes
        holds.append("end-witness")
    if len(holds) != 1:
        v = [f"{label}: after-constraint on {l} holds as {holds or 'nothing'}"]
        return v
    return []


def _check_allocation(ctx: RunContext, task: Task) -> list[str]:
    st = task.state
    label = f"task {task.tid}"
    v: list[str] = []
    for r, l in st.allocsites.items():
        if l is None:
            continue
        cl = st.locmap.get(l)
        if cl is None:
            v.append(f"{label}: allocation site {l} of {r} unmapped")
            continue
        if isinstance(cl.ext, Ivar):
            continue  # being produced by another task
        dcl = deref_concrete(cl)
        if l in st.nursery:
            # in-flight site: its cell sits past the last written cell, and
            # any gap below it is exactly the cells reserved for the tags of
            # enclosing constructors that are written after their fields
            ap = alloc_frontier(dcl.region, st.store)
            if dcl.ext.index <= ap:
                v.append(f"{label}: in-flight site {l} at {dcl.ext.index} is "
                         f"at or below frontier {ap} of {dcl.region}")
            else:
                reserved = set()
                for l2 in st.nursery:
                    cl2 = st.locmap.get(l2)
                    if cl2 is not None and not isinstance(cl2.ext, Ivar):
                        d2 = deref_concrete(cl2)
                        if d2.region == dcl.region:
                            reserved.add(d2.ext.index)
                for j in range(ap + 1, dcl.ext.index):
                    if j not in reserved:
                        v.append(f"{label}: unreserved gap cell {j} below "
                                 f"in-flight site {l} in {dcl.region}")
        elif l in st.sigma and st.sigma[l] is not None:
            # most recent completed allocation must end exactly at the frontier
            try:
                r_end, end = end_witness(ctx.decls, st.sigma[l].tycon,
                                         dcl.region, dcl.ext.index, st.store)
                ap = alloc_frontier(r_end, st.store)
                # cells past the value's end may only be links stitched in by
                # joins on behalf of successor fields
                for j in range(end, ap + 1):
                    if not isinstance(st.store.cell(r_end, j), IndirectionCell):
                        v.append(f"{label}: last allocation {l} ends at {end} "
                                 f"but {r_end} holds a non-link cell at {j}")
                        break
            except StoreError as err:
                v.append(f"{label}: allocation site {l} unreadable: {err}")
    if task.complete() and isinstance(task.state.expr, S.ConcreteLocVal):
        cl = task.state.expr.loc
        if isinstance(cl.ext, Concrete) and task.rtype is not None:
            try:
                r_end, end = end_witness(ctx.decls, task.rtype.tycon,
                                         cl.region, cl.ext.index, st.store)
                if end <= alloc_frontier(r_end, st.store):
                    v.append(f"{label}: completed value ends at {end} but "
                             f"{r_end} is allocated past it")
            except StoreError as err:
                v.append(f"{label}: completed value unreadable: {err}")
    for r, site in st.allocsites.items():
        if site is None and st.store.regions.get(r):
            v.append(f"{label}: region {r} has cells but no allocation site")
    return v


def _check_region_exclusivity(ctx: RunContext, ts: TaskSet) -> list[str]:
    claimed: dict[str, int] = {}
    v: list[str] = []
    for task in ts.ordered():
        r = _pending_write_region(ctx, task)
        if r is None:
            continue
        if r in claimed:
            v.append(f"region-exclusivity: tasks {claimed[r]} and {task.tid} "
                     f"both about to write {r}")
        else:
            claimed[r] = task.tid
    return v


def _pending_write_region(ctx: RunContext, task: Task) -> str | None:
    """The region a task's immediately enabled constructor write targets."""
    e = task.state.expr
    while isinstance(e, S.Let):
        e = e.bound
    if not isinstance(e, S.DataCon):
        return None
    for f in e.fields:
        if not S.is_value(f):
            return None
        if isinstance(f, S.ConcreteLocVal) and isinstance(f.loc.ext, Ivar):
            return None
    cl = task.state.locmap.get(e.loc)
    if cl is None or isinstance(cl.ext, Ivar):
        return None
    return deref_concrete(cl).region


### bounded-exhaustive exploration

@dataclass
class Terminal:
    decisions: list[dict]
    value: S.Expr
    store: Store


class BudgetExceeded(Exception):
    pass


def enumerate_schedules(tp, bound: int, state_cap: int = 200_000,
                        wf_callback=None):
    """Depth-first enumeration of every interleaving and fork decision.

    Forks beyond `bound` are pruned (the fork action is simply not offered).
    States are deduplicated by a canonical hash that renames fresh regions,
    ivars, and locations by first appearance.  Yields a Terminal per distinct
    final configuration reached.
    """
    seen: set[int] = set()
    stack = [Machine(tp)]
    while stack:
        m = stack.pop()
        h = canonical_hash(m.ts)
        if h in seen:
            continue
        seen.add(h)
        if len(seen) > state_cap:
            raise BudgetExceeded(f"more than {state_cap} states")
        if wf_callback is not None:
            wf_callback(m.ctx, m.ts)
        actions = m.enabled()
        if m.ctx.metrics["forks"] >= bound:
            actions = [a for a in actions if a[0] != "fork"]
        if not actions:
            res = m.result()  # a deadlock raises NoEnabledTransition
            yield Terminal(m.decisions, res.value, res.store)
            continue
        # the last action is popped first; it takes `m` itself, once the
        # other actions have taken their copies
        for act in actions[:-1]:
            m2 = m.copy()
            m2.apply(act)
            stack.append(m2)
        m.apply(actions[-1])
        stack.append(m)


### canonical hashing

def canonical_hash(ts: TaskSet) -> int:
    renames: dict[str, str] = {}

    def name(x: str | None) -> str:
        if x is None:
            return "·"
        if "%" not in x:
            return x
        if x not in renames:
            renames[x] = f"#{len(renames)}"
        return renames[x]

    parts: list[str] = []

    def cl_repr(cl: ConcreteLoc | None) -> str:
        if cl is None:
            return "·"
        ext = cl.ext
        if isinstance(ext, Concrete):
            es = str(ext.index)
        elif isinstance(ext, Ivar):
            es = "iv:" + name(ext.name)
        else:
            es = f"ind:{name(ext.region)}:{ext.index}"
        return f"{name(cl.region)}|{es}|{name(cl.origin)}"

    def expr_repr(e: S.Expr) -> str:
        if isinstance(e, S.ConcreteLocVal):
            return f"<{cl_repr(e.loc)}>"
        if isinstance(e, S.Var):
            return name(e.name)
        if isinstance(e, S.IntLit):
            return str(e.value)
        if isinstance(e, S.PrimOp):
            return f"({expr_repr(e.lhs)}{e.op}{expr_repr(e.rhs)})"
        if isinstance(e, S.App):
            locs = ",".join(f"{name(l)}@{name(r)}" for l, r in e.locargs)
            return f"{e.func}[{locs}](" + ",".join(map(expr_repr, e.args)) + ")"
        if isinstance(e, S.DataCon):
            return (f"{e.tag}@{name(e.loc)}@{name(e.region)}("
                    + ",".join(map(expr_repr, e.fields)) + ")")
        if isinstance(e, S.Let):
            return (f"let{'!' if e.spawn else ''} {name(e.var)}:{_ty_repr(e.ty)}"
                    f"={expr_repr(e.bound)};{expr_repr(e.body)}")
        if isinstance(e, S.LetLoc):
            le = e.locexpr
            if isinstance(le, S.StartOfRegion):
                les = f"start {name(le.region)}"
            elif isinstance(le, S.AfterTag):
                les = f"{name(le.loc)}+1"
            else:
                les = f"after {_ty_repr(le.ty)}"
            return f"letloc {name(e.loc)}@{name(e.region)}={les};{expr_repr(e.body)}"
        if isinstance(e, S.LetRegion):
            return f"letreg {name(e.region)};{expr_repr(e.body)}"
        if isinstance(e, S.Case):
            bs = []
            for b in e.branches:
                if isinstance(b, S.ConBranch):
                    pats = ",".join(f"{name(x)}:{_ty_repr(t)}" for x, t in b.fields)
                    bs.append(f"{b.tag}({pats})->{expr_repr(b.body)}")
                elif isinstance(b, S.IntBranch):
                    bs.append(f"{b.value}->{expr_repr(b.body)}")
                else:
                    bs.append(f"_->{expr_repr(b.body)}")
            return f"case {expr_repr(e.scrut)}{{{';'.join(bs)}}}"
        return repr(e)

    def _ty_repr(ty: S.Type) -> str:
        if isinstance(ty, S.PackedType):
            return f"{ty.tycon}@{name(ty.loc)}@{name(ty.region)}"
        return "Int"

    def hv_repr(hv) -> str:
        if isinstance(hv, Tag):
            return hv.name
        if isinstance(hv, Scalar):
            return str(hv.value)
        return f"→{name(hv.region)}:{hv.index}"

    def append_task(task: Task) -> None:
        st = task.state
        parts.append(f"T{expr_repr(st.expr)}")
        parts.append("G" + cl_repr(task.target))
        for r in st.store.regions:
            heap = st.store.regions[r]
            cells = ",".join(f"{i}:{hv_repr(heap[i])}" for i in sorted(heap))
            parts.append(f"R{name(r)}[{cells}]")
        for l in sorted(st.locmap, key=name):
            parts.append(f"M{name(l)}={cl_repr(st.locmap[l])}")

    for task in ts.ordered():
        append_task(task)
    # a live task holds every joined ivar, so each already has its name
    for iv in sorted(ts.joined, key=name):
        parts.append(f"J{name(iv)}")
        append_task(ts.joined[iv])
    return hash("\n".join(parts))


### real-threads mode

def run_threads(tp, max_workers: int, opts: dict | None = None) -> RunResult:
    """Run tasks on an OS thread pool; spawn-flagged lets always fork.

    Every pool thread drives its own task through the shared machine under
    one lock, by the always-fork policy restricted to that task: fork, then
    step, then join.  The machine logs each action, so the run can be
    replayed with `trace_schedule`.  Scheduling is work-first, as in Cilk: a
    forked child is queued as unstarted, a task that has nothing left but a
    wait runs an unstarted producer inline, and a pool thread that finds its
    task already taken returns at once.  So no thread waits on a child that
    is still queued, and any pool size finishes.
    """
    import threading
    from concurrent.futures import ThreadPoolExecutor

    opts = opts or {}
    m = Machine(tp, implicit_par=bool(opts.get("implicit_par")))
    lock = threading.Lock()
    done: dict[int, threading.Event] = {}  # tid -> set when its thread stops
    unstarted: set[int] = set()  # forked tids no thread has taken
    failed: set[int] = set()
    errors: list[Exception] = []
    pool = ThreadPoolExecutor(max_workers=max(1, max_workers))

    def drive(tid: int) -> None:
        while True:
            with lock:
                acts = m.actions.get(tid)
                if acts is None:
                    return  # complete, and already joined
                if acts:
                    child = m.apply(acts[0])
                    if child is not None:
                        done[child.tid] = threading.Event()
                        unstarted.add(child.tid)
                        pool.submit(take, child.tid)
                    continue
                wait = m.waits.get(tid)
                if wait is None:
                    return  # complete
                ptid = m.ts.registry.get(wait[0])
            if ptid is None:
                raise SemanticsError("Stuck", f"no producer for ivar {wait[0]}")
            take(ptid)
            done[ptid].wait()
            if ptid in failed:
                raise SemanticsError("Stuck", f"producer of ivar {wait[0]} failed")

    def take(tid: int) -> None:
        with lock:
            if tid not in unstarted:
                return  # another thread runs it
            unstarted.discard(tid)
        try:
            drive(tid)
        except Exception as exc:
            failed.add(tid)
            errors.append(exc)
        finally:
            done[tid].set()

    try:
        drive(0)
    except Exception as exc:
        errors.append(exc)
    finally:
        pool.shutdown(wait=True)
    if errors:
        raise errors[0]  # the first failure, in whichever thread it ran
    return m.result()
