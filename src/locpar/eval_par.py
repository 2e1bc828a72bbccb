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
allocated into a fresh region.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dcfield

from . import syntax as S
from .store import (Store, ConcreteLoc, Concrete, Ivar, Indirection,
                    Tag, Scalar, IndirectionCell, StoreError,
                    deref_concrete, deref_location, end_witness, alloc_frontier,
                    merge_store, merge_locmap, link_fields)
from .eval_seq import (SeqState, RunContext, step_seq, Stepped, Value, Blocked,
                       Stuck, SemanticsError, RunResult)


### tasks

@dataclass
class Task:
    tid: int
    rtype: S.Type | None  # located result type; None for the root scalar case
    target: ConcreteLoc | None
    state: SeqState

    def complete(self) -> bool:
        return S.is_value(self.state.expr)

    def copy(self) -> "Task":
        return Task(self.tid, self.rtype, self.target, self.state.copy())


@dataclass
class TaskSet:
    tasks: dict[int, Task] = dcfield(default_factory=dict)
    registry: dict[str, int] = dcfield(default_factory=dict)  # ivar -> producer tid
    next_tid: int = 1

    def ordered(self) -> list[Task]:
        return [self.tasks[k] for k in sorted(self.tasks)]

    def root(self) -> Task:
        return self.tasks[0]

    def copy(self) -> "TaskSet":
        return TaskSet({k: t.copy() for k, t in self.tasks.items()},
                       dict(self.registry), self.next_tid)


### schedules

@dataclass
class Schedule:
    policy: str  # 'never' | 'always' | 'random' | 'trace' | 'exhaustive'
    seed: int | None = None
    decisions: list[dict] | None = None  # for 'trace': {step, task, action}
    bound: int = 0  # for 'exhaustive': max forks

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


def _probe_step(ctx: RunContext, state: SeqState):
    """Run one trial step without disturbing metrics or the name supply."""
    saved_m = dict(ctx.metrics)
    saved_n = ctx.supply.n
    try:
        return step_seq(ctx, state)
    finally:
        ctx.metrics.clear()
        ctx.metrics.update(saved_m)
        ctx.supply.n = saved_n


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


def enabled_actions(ctx: RunContext, ts: TaskSet) -> list[Action]:
    """All transitions the schedule may choose from, in task order."""
    def probe(task):
        return _probe_step(ctx, task.state)
    return [a for task in ts.ordered()
            for a in _task_actions(ctx, ts, task, probe)[0]]


def _join_ready(ts: TaskSet, ivar: str) -> bool:
    tid = ts.registry.get(ivar)
    if tid is None or tid not in ts.tasks:
        return False
    prod = ts.tasks[tid]
    if not prod.complete():
        return False
    v = prod.state.expr
    return isinstance(v, S.ConcreteLocVal) and isinstance(v.loc.ext, Concrete)


def apply_action(ctx: RunContext, ts: TaskSet, action: Action) -> TaskSet:
    kind, tid = action
    out = ts.copy()
    task = out.tasks[tid]
    if kind == "step":
        res = step_seq(ctx, task.state)
        if not isinstance(res, Stepped):
            raise SemanticsError("Stuck", f"task {tid}: step not enabled ({res})")
        task.state = res.state
        return out
    if kind == "fork":
        _apply_fork(ctx, out, task)
        return out
    if kind == "join":
        _, need = _task_actions(ctx, out, task,
                                lambda t: _probe_step(ctx, t.state))
        if need is None:
            raise SemanticsError("Stuck", f"task {tid} is not blocked")
        _apply_join(ctx, out, task, need)
        return out
    raise SemanticsError("Stuck", f"unknown action {kind}")


def _apply_fork(ctx: RunContext, ts: TaskSet, parent: Task) -> Task:
    found = _spawn_redex(ctx, parent)
    assert found is not None
    child = _fork(ctx, parent, found, ts.next_tid)
    ts.next_tid += 1
    ts.tasks[child.tid] = child
    ts.registry[child.target.ext.name] = child.tid
    return child


def _fork(ctx: RunContext, parent: Task, found: tuple[list[S.Let], S.Let],
          tid: int) -> Task:
    """Split the parent at its spawn redex `found`; return the child task.

    The child produces the let's bound expression at the bound location,
    from a snapshot of the parent's state; the parent continues with the
    location and the let-bound variable replaced by a fresh ivar.
    """
    outer, e = found
    lt = e.ty
    iv = ctx.supply.fresh("iv")
    pst = parent.state
    child_state = SeqState(pst.store.copy(), dict(pst.locmap), e.bound,
                           dict(pst.frontier_notes), dict(pst.sigma),
                           set(pst.nursery), dict(pst.constraints),
                           dict(pst.allocsites))
    region = pst.locmap[lt.loc].region
    child = Task(tid, lt, ConcreteLoc(region, Ivar(iv), lt.loc), child_state)
    # the parent now sees the bound location (and variable) through the ivar
    pst.locmap[lt.loc] = ConcreteLoc(region, Ivar(iv), lt.loc)
    pst.sigma[lt.loc] = lt
    pst.nursery.discard(lt.loc)
    hole = S.ConcreteLocVal(ConcreteLoc(region, Ivar(iv), lt.loc))
    inner = S.substitute(e.body, var_map={e.var: hole})
    for enc in reversed(outer):
        inner = S.Let(enc.var, enc.ty, inner, enc.body, enc.spawn)
    pst.expr = inner
    ctx.metrics["forks"] += 1
    return child


def _apply_join(ctx: RunContext, ts: TaskSet, consumer: Task,
                need: tuple[str, str]) -> None:
    iv, why = need
    prod = ts.tasks[ts.registry[iv]]
    pv = prod.state.expr
    assert isinstance(pv, S.ConcreteLocVal) and isinstance(pv.loc.ext, Concrete)
    _merge_join(ctx, consumer.state, prod.state, iv, pv.loc, why)
    del ts.tasks[prod.tid]
    del ts.registry[iv]
    ctx.metrics["joins"] += 1


def _merge_join(ctx: RunContext, cst: SeqState, pst: SeqState,
                iv: str, ploc: ConcreteLoc, why: str) -> None:
    pv = S.ConcreteLocVal(ploc)
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
    cst.expr = _resolve_ivar_expr(cst.expr, iv, pv.loc)
    for l, cl in list(cst.locmap.items()):
        if isinstance(cl.ext, Ivar) and cl.ext.name == iv:
            cst.locmap[l] = ConcreteLoc(pv.loc.region, pv.loc.ext, cl.origin)
    if why == "datacon":
        _join_link_fields(ctx, cst, iv)


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


def _resolve_ivar_expr(e: S.Expr, iv: str, cl: ConcreteLoc) -> S.Expr:
    if isinstance(e, S.ConcreteLocVal):
        if isinstance(e.loc.ext, Ivar) and e.loc.ext.name == iv:
            return S.ConcreteLocVal(ConcreteLoc(cl.region, cl.ext, e.loc.origin))
        return e
    if isinstance(e, S.PrimOp):
        return S.PrimOp(e.op, _resolve_ivar_expr(e.lhs, iv, cl),
                        _resolve_ivar_expr(e.rhs, iv, cl))
    if isinstance(e, S.App):
        return S.App(e.func, e.locargs,
                     tuple(_resolve_ivar_expr(a, iv, cl) for a in e.args))
    if isinstance(e, S.DataCon):
        return S.DataCon(e.tag, e.loc, e.region,
                         tuple(_resolve_ivar_expr(f, iv, cl) for f in e.fields))
    if isinstance(e, S.Let):
        return S.Let(e.var, e.ty, _resolve_ivar_expr(e.bound, iv, cl),
                     _resolve_ivar_expr(e.body, iv, cl), e.spawn)
    if isinstance(e, S.LetLoc):
        return S.LetLoc(e.loc, e.region, e.locexpr,
                        _resolve_ivar_expr(e.body, iv, cl))
    if isinstance(e, S.LetRegion):
        return S.LetRegion(e.region, _resolve_ivar_expr(e.body, iv, cl))
    if isinstance(e, S.Case):
        branches = []
        for b in e.branches:
            if isinstance(b, S.ConBranch):
                branches.append(S.ConBranch(b.tag, b.fields,
                                            _resolve_ivar_expr(b.body, iv, cl)))
            elif isinstance(b, S.IntBranch):
                branches.append(S.IntBranch(b.value,
                                            _resolve_ivar_expr(b.body, iv, cl)))
            else:
                branches.append(S.DefaultBranch(_resolve_ivar_expr(b.body, iv, cl)))
        return S.Case(_resolve_ivar_expr(e.scrut, iv, cl), tuple(branches))
    return e


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


### driving

def initial_taskset(tp) -> tuple[RunContext, TaskSet]:
    ctx = RunContext(tp)
    root = Task(0, None, None, SeqState(Store(), {}, tp.program.main))
    return ctx, TaskSet(tasks={0: root})


def run_par(tp, sched: Schedule, opts: dict | None = None) -> RunResult:
    """Drive the task set until every task is complete and the root resolved.

    Applies actions in place over an incremental ready set.  Each live
    task's enabled actions and wait (see `_task_actions`) are cached, along
    with its next-step probe, so one semantic step is computed once.  After
    an action only these entries are recomputed: the task that acted, a
    newly forked child, and the tasks waiting on an ivar whose producer has
    just completed or been joined away (waiters are indexed by ivar).  The
    action list is the cached entries concatenated in task order, the same
    list `enabled_actions` builds by rescanning every task, so an action
    costs no more as the number of live tasks grows.
    """
    opts = opts or {}
    ctx = RunContext(tp, implicit_par=bool(opts.get("implicit_par")))
    root = Task(0, None, None, SeqState(Store(), {}, tp.program.main))
    ts = TaskSet(tasks={0: root})
    decisions: list[dict] = []
    wf_cb = opts.get("wf_callback")
    peak = 1
    stepno = 0
    cache: dict[int, tuple] = {}  # tid -> (StepResult, metrics delta)
    # tid -> enabled actions; tids only grow, so insertion order is task order
    entries: dict[int, list[Action]] = {}
    waits: dict[int, tuple[str, str]] = {}  # tid -> (ivar, why) it needs
    waiters: dict[str, set[int]] = {}  # ivar -> tids whose wait is on it

    def probe(task: Task):
        ent = cache.get(task.tid)
        if ent is None:
            before = dict(ctx.metrics)
            res = step_seq(ctx, task.state)
            delta = {k: ctx.metrics[k] - before.get(k, 0) for k in ctx.metrics}
            ctx.metrics.clear()
            ctx.metrics.update(before)
            ent = (res, delta)
            cache[task.tid] = ent
        return ent[0]

    def forget(tid: int) -> None:
        old = waits.pop(tid, None)
        if old is not None:
            waiters[old[0]].discard(tid)

    def refresh(task: Task) -> None:
        forget(task.tid)
        entries[task.tid], wait = _task_actions(ctx, ts, task, probe)
        if wait is not None:
            waits[task.tid] = wait
            waiters.setdefault(wait[0], set()).add(task.tid)

    def wake(iv: str) -> None:
        for tid in sorted(waiters.get(iv, ())):
            refresh(ts.tasks[tid])

    refresh(root)
    while True:
        actions = [a for acts in entries.values() for a in acts]
        if not actions:
            if all(t.complete() for t in ts.tasks.values()) \
                    and _value_ivar(ts.root()) is None:
                break
            raise SemanticsError("NoEnabledTransition",
                                 "tasks remain but nothing can step")
        act = choose_action(sched, actions, stepno)
        decisions.append({"step": stepno, "task": act[1], "action": act[0]})
        kind, tid = act
        task = ts.tasks[tid]
        if kind == "step":
            res, delta = cache.pop(tid)
            task.state = res.state
            for k, n in delta.items():
                ctx.metrics[k] = ctx.metrics.get(k, 0) + n
            refresh(task)
        elif kind == "fork":
            cache.pop(tid, None)
            child = _apply_fork(ctx, ts, task)
            refresh(task)
            refresh(child)
        else:
            cache.pop(tid, None)
            need = waits[tid]
            ptid = ts.registry[need[0]]
            _apply_join(ctx, ts, task, need)
            del entries[ptid]
            forget(ptid)
            refresh(task)
            wake(need[0])
        if task.complete() and task.target is not None \
                and isinstance(task.target.ext, Ivar):
            wake(task.target.ext.name)
        peak = max(peak, len(ts.tasks))
        stepno += 1
        if wf_cb is not None:
            wf_cb(ctx, ts)
    store = None
    locmap: dict = {}
    for task in ts.ordered():
        store = task.state.store if store is None else merge_store(store, task.state.store)
        locmap = merge_locmap(locmap, task.state.locmap)
    root = ts.root()
    metrics = dict(ctx.metrics)
    metrics["peak_tasks"] = peak
    metrics["decisions"] = decisions
    final_state = root.state.copy()
    final_state.store = store or Store()
    final_state.locmap = locmap
    return RunResult(root.state.expr, final_state.store, locmap, metrics,
                     final_state, [])


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
                # the ivar side of the exclusive-or: a unique producer must exist
                if cl.ext.name not in ts.registry:
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
    ctx0 = RunContext(tp)
    root = Task(0, None, None, SeqState(Store(), {}, tp.program.main))
    start = TaskSet(tasks={0: root})
    seen: set[int] = set()
    stack: list[tuple[TaskSet, int, list[dict]]] = [(start, ctx0.supply.n, [])]
    visited = 0
    while stack:
        ts, supply_n, path = stack.pop()
        h = canonical_hash(ts)
        if h in seen:
            continue
        seen.add(h)
        visited += 1
        if visited > state_cap:
            raise BudgetExceeded(f"more than {state_cap} states")
        ctx = RunContext(tp)
        ctx.supply.n = supply_n
        ctx.metrics["forks"] = sum(1 for d in path if d["action"] == "fork")
        if wf_callback is not None:
            wf_callback(ctx, ts)
        actions = enabled_actions(ctx, ts)
        if ctx.metrics["forks"] >= bound:
            actions = [a for a in actions if a[0] != "fork"]
        if not actions:
            if all(t.complete() for t in ts.tasks.values()) \
                    and _value_ivar(ts.root()) is None:
                store = None
                for task in ts.ordered():
                    store = task.state.store if store is None \
                        else merge_store(store, task.state.store)
                yield Terminal(path, ts.root().state.expr, store or Store())
                continue
            raise SemanticsError("NoEnabledTransition",
                                 f"deadlock after {path}")
        for act in actions:
            ctx2 = RunContext(tp)
            ctx2.supply.n = supply_n
            ts2 = apply_action(ctx2, ts, act)
            step = {"step": len(path), "task": act[1], "action": act[0]}
            stack.append((ts2, ctx2.supply.n, path + [step]))


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

    for task in ts.ordered():
        st = task.state
        parts.append(f"T{expr_repr(st.expr)}")
        parts.append("G" + cl_repr(task.target))
        for r in st.store.regions:
            heap = st.store.regions[r]
            cells = ",".join(f"{i}:{hv_repr(heap[i])}" for i in sorted(heap))
            parts.append(f"R{name(r)}[{cells}]")
        for l in sorted(st.locmap, key=name):
            parts.append(f"M{name(l)}={cl_repr(st.locmap[l])}")
    return hash("\n".join(parts))


### real-threads mode

def run_threads(tp, max_workers: int, opts: dict | None = None) -> RunResult:
    """Run tasks on an OS thread pool; spawn-flagged lets always fork.

    Tasks exchange only immutable snapshots at joins, so interleaving order
    is unconstrained; the final flattened value and the extra-region count
    match the simulated always-fork schedule.  Scheduling is work-first, as
    in Cilk: a forked child is queued as unstarted, a join on a child that
    no thread has taken yet runs it inline, and a pool thread that finds its
    child already taken returns at once.  So no thread waits on a child that
    is still queued, and any pool size finishes.
    """
    import threading
    from concurrent.futures import ThreadPoolExecutor

    opts = opts or {}
    ctx = RunContext(tp, implicit_par=bool(opts.get("implicit_par")))
    lock = threading.Lock()
    results: dict[str, tuple[SeqState, ConcreteLoc]] = {}
    events: dict[str, threading.Event] = {}
    unstarted: dict[str, Task] = {}  # ivar -> forked child no thread has taken
    errors: list[BaseException] = []
    peak = [1]
    live = [1]

    pool = ThreadPoolExecutor(max_workers=max(1, max_workers))

    def run_task(task: Task):
        try:
            while True:
                found = _spawn_redex(ctx, task)
                if found is not None:
                    with lock:
                        child = _fork(ctx, task, found, -1)
                        iv = child.target.ext.name
                        events[iv] = threading.Event()
                        unstarted[iv] = child
                        live[0] += 1
                        peak[0] = max(peak[0], live[0])
                    pool.submit(take_and_run, iv)
                    continue
                with lock:
                    res = step_seq(ctx, task.state)
                if isinstance(res, Stepped):
                    task.state = res.state
                    continue
                if isinstance(res, Blocked):
                    join(task, res.ivar, res.why)
                    continue
                if isinstance(res, Stuck):
                    raise SemanticsError("Stuck", res.reason)
                iv = _value_ivar(task)
                if iv is not None:
                    join(task, iv, "value")
                    continue
                return task
        except BaseException as exc:  # surfaced by the caller
            errors.append(exc)
            raise
        finally:
            with lock:
                live[0] -= 1

    def take_and_run(iv: str) -> None:
        with lock:
            child = unstarted.pop(iv, None)
        if child is None:
            return  # a join already ran it inline
        try:
            done = run_task(child)
            with lock:
                results[iv] = (done.state, done.state.expr.loc)
        finally:
            events[iv].set()

    def join(task: Task, iv: str, why: str) -> None:
        ev = events.get(iv)
        if ev is None:
            raise SemanticsError("Stuck", f"no producer for ivar {iv}")
        take_and_run(iv)
        ev.wait()
        with lock:
            if iv not in results:
                raise SemanticsError("Stuck", f"producer of ivar {iv} failed")
            pst, ploc = results[iv]
            _merge_join(ctx, task.state, pst, iv, ploc, why)
            ctx.metrics["joins"] += 1

    root = Task(0, None, None, SeqState(Store(), {}, tp.program.main))
    try:
        final = run_task(root)
    finally:
        pool.shutdown(wait=True)
    if errors:
        raise errors[0]
    metrics = dict(ctx.metrics)
    metrics["peak_tasks"] = peak[0]
    return RunResult(final.state.expr, final.state.store, final.state.locmap,
                     metrics, final.state, [])
