"""Parallel task-set evaluator: forking lets, lazy joins, schedule control.

A task owns a private state (store, location map, and code under
environments), which its steps and joins rewrite in place; a fork gives the
child a copy, which shares the program's code and the environments.  Forking
a spawn-flagged let mints a fresh ivar: the child takes the frames above the
let and produces the bound value at the bound location's concrete address,
while the parent runs the let's body with the location (and the let-bound
variable) bound to the ivar until a join.  Joins are lazy: they fire only
when a consumer is blocked on an ivar (or holds one in its finished value)
and the producing task has run to completion.  A join merges the producer's
store and location map into the consumer, replaces the ivar with the
producer's concrete result address in the consumer's values (the focus, the
frames' evaluated children, the environments' bindings; no code is
rewritten), and, for a constructor join, stitches the next field in with an
indirection cell when it was allocated into a fresh region.  A joined
producer stays available while a live task holds its ivar, so every waiter
on one ivar can join it; per-ivar holder counts tell when none does.

One `Machine` owns a run's task set and applies fork, step and join actions
to it in place.  Three loops choose its actions: `run_par` follows a
schedule, `enumerate_schedules` walks every choice depth-first over machine
copies, and `run_threads` lets each pool thread drive its own task.  The
explorer still visits and checks every reachable state, but skips the
transitions that commute into states it has already visited (sleep sets):
actions of different tasks commute unless one is a join or both are forks,
because tasks own private stores and the canonical hash renames fresh names
by first appearance.  The hash reads the machine's state as it is: each
frame and the focus as the program node it runs (copies share the code),
its evaluated children and its environment's bindings, then each task's
target, store and location map.  It walks them in one loop, so any depth
can be hashed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dcfield

from . import syntax as S
from .store import (Store, ConcreteLoc, Concrete, Ivar, Indirection,
                    Tag, Scalar, IndirectionCell, SemanticsError,
                    deref_concrete, end_witness, alloc_frontier,
                    merge_store, merge_locmap, write_cell)
from .eval_seq import (SeqState, Env, RunContext, step_seq, value_end,
                       RunResult, blocked_on)


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
        return self.state.complete()

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
    holders: dict[str, int] = dcfield(default_factory=dict)  # ivar -> live tasks holding it

    def ordered(self) -> list[Task]:
        """The live tasks in task order: tids only grow, so that is the
        order they were inserted in."""
        return list(self.tasks.values())

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
                       {iv: t.copy() for iv, t in self.joined.items()},
                       dict(self.holders))

    def hold(self, ivars, by: int) -> None:
        """Count `by` more (or fewer) live holders of each of `ivars`."""
        for iv in ivars:
            n = self.holders.get(iv, 0) + by
            if n:
                self.holders[iv] = n
            else:
                del self.holders[iv]


### transitions

Action = tuple[str, int]  # ('step' | 'fork' | 'join', task id)


def _spawn_redex(ctx: RunContext, task: Task) -> int | None:
    """The frame index of the outermost forkable let among the leading let
    frames.  A let is forkable when it is marked spawn (or implicit
    parallelism is on), binds a located value, and its target location is
    already concrete."""
    for n, (e, env, _) in enumerate(task.state.frames):
        if not isinstance(e, S.Let):
            return None
        if (e.spawn or ctx.implicit_par) \
                and isinstance(e.ty, S.PackedType) and e.ty.tycon != "Int":
            cl = task.state.locmap.get(env.loc(e.ty.loc))
            if cl is not None and not isinstance(cl.ext, Ivar):
                return n
    return None


def _value_ivar(task: Task) -> str | None:
    e = task.state.focus
    if isinstance(e, S.ConcreteLocVal) and isinstance(e.loc.ext, Ivar):
        return e.loc.ext.name
    return None


def _task_actions(ctx: RunContext, ts: TaskSet,
                  task: Task) -> tuple[list[Action], tuple[str, str] | None]:
    """One task's enabled actions (fork, step, join order) and its wait.

    The wait is the (ivar, why) the task needs joined: the ivar its redex is
    blocked on, or the ivar that is its finished value ('value').  The join
    is enabled once that ivar's producer has completed.
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
        wait = blocked_on(task.state)
        if wait is None:
            acts.append(("step", task.tid))
    if wait is not None and _join_ready(ts, wait[0]):
        acts.append(("join", task.tid))
    return acts, wait


def _join_ready(ts: TaskSet, ivar: str) -> bool:
    prod = ts.producer(ivar)
    if prod is None or not prod.complete():
        return False
    v = prod.state.focus
    return isinstance(v, S.ConcreteLocVal) and isinstance(v.loc.ext, Concrete)


def _fork(ctx: RunContext, ts: TaskSet, parent: Task) -> Task:
    """Split the parent at its spawn redex; register and return the child.

    The child produces the let's bound expression at the bound location,
    from a snapshot of the parent's state: the frames above the let, and
    the focus, each with its environment.  The parent keeps the frames
    below the let and continues with its body under the let's environment,
    the location and the let-bound variable now a fresh ivar.
    """
    n = _spawn_redex(ctx, parent)
    pst = parent.state
    e, env, _ = pst.frames[n]
    lt = env.ty(e.ty)
    iv = ctx.supply.fresh("iv")
    child_state = pst.copy()
    del child_state.frames[:n + 1]
    region = pst.locmap[lt.loc].region
    child = Task(ts.next_tid, lt, ConcreteLoc(region, Ivar(iv), lt.loc),
                 child_state, set(parent.holds))
    ts.hold(child.holds, 1)
    # the parent now sees the bound location (and variable) through the ivar
    pst.locmap[lt.loc] = ConcreteLoc(region, Ivar(iv), lt.loc)
    parent.holds.add(iv)
    ts.hold([iv], 1)
    pst.sigma[lt.loc] = lt
    pst.nursery.discard(lt.loc)
    hole = S.ConcreteLocVal(ConcreteLoc(region, Ivar(iv), lt.loc))
    del pst.frames[n:]
    pst.refocus(e.body, env.bind(vars={e.var: hole}))
    ts.next_tid += 1
    ts.tasks[child.tid] = child
    ts.registry[iv] = child.tid
    ctx.metrics["forks"] += 1
    return child


def _apply_join(ctx: RunContext, ts: TaskSet, consumer: Task,
                need: tuple[str, str]) -> None:
    """Merge the producer of the needed ivar into the consumer, in place;
    the producer's state is not written, so every other waiter can join it.

    The first join moves the producer from the live tasks to `joined`; a
    joined producer is dropped once no live task holds its ivar, which the
    per-ivar holder counts tell without a scan of the tasks.
    """
    iv, why = need
    prod = ts.producer(iv)
    ploc = prod.state.focus.loc
    assert isinstance(ploc.ext, Concrete)
    pst, cst = prod.state, consumer.state
    merge_store(cst.store, pst.store)
    merge_locmap(cst.locmap, pst.locmap)
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
    _resolve_ivar(cst, iv, ploc)
    holds = set()
    for l, cl in list(cst.locmap.items()):
        if isinstance(cl.ext, Ivar):
            if cl.ext.name == iv:
                cst.locmap[l] = ConcreteLoc(ploc.region, ploc.ext, cl.origin)
            else:
                holds.add(cl.ext.name)
    dropped = consumer.holds - holds
    ts.hold(dropped, -1)
    ts.hold(holds - consumer.holds, 1)
    consumer.holds = holds
    if why == "datacon":
        _join_link_fields(ctx, cst)
    if ts.registry.get(iv) == prod.tid:
        del ts.tasks[prod.tid]
        del ts.registry[iv]
        ts.joined[iv] = prod
        ts.hold(prod.holds, -1)
        dropped |= prod.holds
    # only an ivar that just lost a holder can have lost its last one
    for j in dropped:
        if j in ts.joined and not ts.holders.get(j):
            del ts.joined[j]
    ctx.metrics["joins"] += 1


def _resolve_ivar(st: SeqState, iv: str, to: ConcreteLoc) -> None:
    """Replace the ivar `iv` in the state's values with the address `to`:
    in the focus, the frames' evaluated children and every environment's
    bindings.  Each hole keeps its own origin.  Environments are shared, so
    one that binds the ivar is rebuilt, once however many frames hold it."""
    def val(v):
        if isinstance(v, S.ConcreteLocVal) and v.loc.ext == Ivar(iv):
            return S.ConcreteLocVal(ConcreteLoc(to.region, to.ext, v.loc.origin))
        return v

    envs: dict[int, Env] = {}  # id -> the environment that replaces it

    def env(e: Env) -> Env:
        if id(e) not in envs:
            vs = {x: val(v) for x, v in e.vars.items()}
            envs[id(e)] = e if vs == e.vars else Env(vs, e.locs, e.regs, e.n0, e.binders)
        return envs[id(e)]

    st.focus = val(st.focus)
    st.env = env(st.env)
    st.args = tuple(map(val, st.args))
    st.frames = [(node, env(fenv), tuple(map(val, vals)))
                 for node, fenv, vals in st.frames]


def _join_link_fields(ctx: RunContext, cst: SeqState) -> None:
    """After a constructor join, stitch each resolved field to its successor:
    when field k+1 was allocated into a fresh region, write an indirection
    to it one past the end of field k, which its frontier note tells."""
    e, fields = cst.focus, cst.args
    if not isinstance(e, S.DataCon):
        return
    ftys = ctx.decls.fields(e.tag)
    for k, (fty, fv) in enumerate(zip(ftys, fields)):
        if fty == "Int" or k + 1 >= len(fields):
            continue
        if not isinstance(fv, S.ConcreteLocVal) or isinstance(fv.loc.ext, Ivar):
            continue
        nxt = fields[k + 1]
        if not isinstance(nxt, S.ConcreteLocVal) or nxt.loc.origin is None:
            continue
        link = cst.locmap.get(nxt.loc.origin)
        if link is None or not isinstance(link.ext, Indirection):
            continue
        cl = deref_concrete(fv.loc)
        r, end = value_end(ctx, cst, fty, cl.region, cl.ext.index)
        if write_cell(cst.store, r, end,
                      IndirectionCell(link.ext.region, link.ext.index)):
            ctx.metrics["indirections"] += 1
            ctx.metrics["cells_written"] += 1


### schedules
#
# A schedule is a function of the machine: the action to apply next, or
# None when no action is enabled.

def never_fork():
    """Never fork: the first enabled step or join, in task order."""
    def choose(m: Machine) -> Action | None:
        actions = m.enabled()
        for a in actions:
            if a[0] != "fork":
                return a
        if actions:
            raise SemanticsError("Stuck", "only fork transitions enabled under NeverFork")
        return None
    return choose


def always_fork():
    """Fork whenever a task can, else step, else join; lowest task first."""
    def choose(m: Machine) -> Action | None:
        actions = m.enabled()
        for kind in ("fork", "step", "join"):
            for a in actions:
                if a[0] == kind:
                    return a
        return None
    return choose


def random_schedule(seed: int):
    """A uniform draw from the enabled actions, from a generator seeded once."""
    rng = random.Random(seed)

    def choose(m: Machine) -> Action | None:
        actions = m.enabled()
        return rng.choice(actions) if actions else None
    return choose


def trace_schedule(decisions: list[dict]):
    """Replay logged decisions ({step, task, action}) one per action."""
    def choose(m: Machine) -> Action | None:
        actions = m.enabled()
        if not actions:
            return None
        stepno = len(m.decisions)
        if stepno >= len(decisions):
            raise SemanticsError("Stuck", f"trace exhausted at step {stepno}")
        d = decisions[stepno]
        want = (d["action"], d["task"])
        if want not in actions:
            raise SemanticsError("Stuck",
                                 f"trace step {stepno} wants {want}, "
                                 f"enabled {actions}")
        return want
    return choose


### the task machine

class Machine:
    """A run's task set with an incremental ready set.

    Each live task's enabled actions and wait (see `_task_actions`) are
    cached.  After an action only these entries are recomputed: the task that
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
        # tid -> enabled actions; tids only grow, so insertion order is task order
        self.actions: dict[int, list[Action]] = {}
        self.waits: dict[int, tuple[str, str]] = {}  # tid -> (ivar, why) it needs
        self._waiters: dict[str, set[int]] = {}  # ivar -> tids whose wait is on it
        self._refresh(root)

    def copy(self) -> "Machine":
        """An independent machine in the same state."""
        m = Machine.__new__(Machine)
        m.ctx = self.ctx.copy()
        m.ts = self.ts.copy()
        m.decisions = list(self.decisions)
        m.peak = self.peak
        m.actions = dict(self.actions)
        m.waits = dict(self.waits)
        m._waiters = {iv: set(tids) for iv, tids in self._waiters.items()}
        return m

    def enabled(self) -> list[Action]:
        return [a for acts in self.actions.values() for a in acts]

    def rescan(self) -> list[Action]:
        """`enabled()` recomputed from every task without the cache: the
        reference the incremental ready set must agree with."""
        return [a for task in self.ts.ordered()
                for a in _task_actions(self.ctx, self.ts, task)[0]]

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
            try:
                step_seq(self.ctx, task.state)
            except SemanticsError as err:
                raise SemanticsError("Stuck", f"task {tid}: {err.message}") from None
            self._refresh(task)
        elif kind == "fork":
            child = _fork(self.ctx, ts, task)
            self._refresh(task)
            self._refresh(child)
        else:
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
        root = self.ts.root()
        # merged into a fresh store and map, so no task's state changes
        final = root.state.copy()
        final.store, final.locmap = Store(), {}
        for task in self.ts.ordered():
            merge_store(final.store, task.state.store)
            merge_locmap(final.locmap, task.state.locmap)
        metrics = dict(self.ctx.metrics)
        metrics["peak_tasks"] = self.peak
        metrics["decisions"] = self.decisions
        return RunResult(root.state.focus, final.store, final.locmap, metrics,
                         final, [])

    def _forget(self, tid: int) -> None:
        old = self.waits.pop(tid, None)
        if old is not None:
            self._waiters[old[0]].discard(tid)

    def _refresh(self, task: Task) -> None:
        self._forget(task.tid)
        self.actions[task.tid], wait = _task_actions(self.ctx, self.ts, task)
        if wait is not None:
            self.waits[task.tid] = wait
            self._waiters.setdefault(wait[0], set()).add(task.tid)

    def _wake(self, iv: str) -> None:
        for tid in sorted(self._waiters.get(iv, ())):
            self._refresh(self.ts.tasks[tid])


def run_par(tp, sched, opts: dict | None = None) -> RunResult:
    """Drive the machine by the schedule `sched` until it has no action to
    take; then every task must be complete and the root resolved."""
    opts = opts or {}
    m = Machine(tp, implicit_par=bool(opts.get("implicit_par")))
    wf_cb = opts.get("wf_callback")
    while (act := sched(m)) is not None:
        m.apply(act)
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
        # the store does not change during the check, so the task's scans
        # share one table of value ends
        ends: dict = {}
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
                                dcl.region, dcl.ext.index, st.store, ends)
                except SemanticsError as err:
                    v.append(f"{label}: materialized {l} incomplete: {err}")
        v.extend(_check_constraints(ctx, task, ends))
        v.extend(_check_allocation(ctx, task, ends))
    v.extend(_check_region_exclusivity(ts))
    return v


def _check_constraints(ctx: RunContext, task: Task, ends: dict) -> list[str]:
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
            v.extend(_check_after_constraint(ctx, task, l, le, ends))
    return v


def _check_after_constraint(ctx: RunContext, task: Task, l: str,
                            le: S.AfterValue, ends: dict) -> list[str]:
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
                                     ds.region, ds.ext.index, st.store, ends)
            if (cl.region, cl.ext.index) == (r_end, end):
                holds.append("end-witness")
        except SemanticsError:
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


def _check_allocation(ctx: RunContext, task: Task, ends: dict) -> list[str]:
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
                                         dcl.region, dcl.ext.index, st.store,
                                         ends)
                ap = alloc_frontier(r_end, st.store)
                # cells past the value's end may only be links stitched in by
                # joins on behalf of successor fields
                for j in range(end, ap + 1):
                    if not isinstance(st.store.cell(r_end, j), IndirectionCell):
                        v.append(f"{label}: last allocation {l} ends at {end} "
                                 f"but {r_end} holds a non-link cell at {j}")
                        break
            except SemanticsError as err:
                v.append(f"{label}: allocation site {l} unreadable: {err}")
    if isinstance(task.state.focus, S.ConcreteLocVal):
        cl = task.state.focus.loc
        if isinstance(cl.ext, Concrete) and task.rtype is not None:
            try:
                r_end, end = end_witness(ctx.decls, task.rtype.tycon,
                                         cl.region, cl.ext.index, st.store,
                                         ends)
                if end <= alloc_frontier(r_end, st.store):
                    v.append(f"{label}: completed value ends at {end} but "
                             f"{r_end} is allocated past it")
            except SemanticsError as err:
                v.append(f"{label}: completed value unreadable: {err}")
    for r, site in st.allocsites.items():
        if site is None and st.store.regions.get(r):
            v.append(f"{label}: region {r} has cells but no allocation site")
    return v


def _check_region_exclusivity(ts: TaskSet) -> list[str]:
    claimed: dict[str, int] = {}
    v: list[str] = []
    for task in ts.ordered():
        r = _pending_write_region(task)
        if r is None:
            continue
        if r in claimed:
            v.append(f"region-exclusivity: tasks {claimed[r]} and {task.tid} "
                     f"both about to write {r}")
        else:
            claimed[r] = task.tid
    return v


def _pending_write_region(task: Task) -> str | None:
    """The region a task's immediately enabled constructor write targets."""
    e = task.state.focus
    if not isinstance(e, S.DataCon) or blocked_on(task.state) is not None:
        return None
    cl = task.state.locmap.get(task.state.env.loc(e.loc))
    return None if cl is None else deref_concrete(cl).region


### bounded-exhaustive exploration

@dataclass
class Terminal:
    decisions: list[dict]
    value: S.Expr
    store: Store


def _independent(a: Action, b: Action) -> bool:
    """Whether two actions commute and neither disables the other.

    Only actions of different tasks, neither a join and not both forks,
    count as independent:
    - tasks own private stores, and `canonical_hash` renames fresh names
      (and call name bases) by first appearance, so steps (and a step and
      a fork) of different tasks reach the same state in either order,
      whichever numbers the name supply hands out first;
    - two forks decide which child gets which `next_tid`, and they share
      the fork bound;
    - a join moves a producer out of the live tasks and rewrites the
      consumer's store and ivars;
    - whether a step or a fork is enabled depends on its task's own state
      (and, for a fork, on the bound, which only forks move), so another
      task's step or fork cannot disable it.
    """
    return a[1] != b[1] and a[0] != "join" and b[0] != "join" \
        and not (a[0] == b[0] == "fork")


def enumerate_schedules(tp, bound: int, state_cap: int = 200_000,
                        wf_callback=None):
    """Depth-first enumeration of every interleaving and fork decision.

    Forks beyond `bound` are pruned (the fork action is simply not offered).
    States are deduplicated by `canonical_hash`, which reads each task's
    frames, focus, target, store and location map, and renames fresh
    regions, ivars, locations and call name bases by first appearance.
    Every reachable state is visited, passed to `wf_callback` once, and
    counted against `state_cap` (one more raises `SemanticsError` with code
    `ResourceExhausted`); a Terminal is yielded per distinct final
    configuration reached.

    Transitions that can only lead back to a visited state are skipped with
    sleep sets (Godefroid 1996).  Actions of different tasks are independent
    unless one is a join or both are forks: tasks own private stores, and
    the hash renames fresh names, so such actions commute (see
    `_independent`).  Each stacked state carries a sleep set: the actions,
    independent of the one that reached it, whose orders from here a sibling
    explored earlier already covers.  A first visit explores the enabled
    actions outside its sleep set and stores the set under the state's hash.
    A revisit explores only the stored actions its own sleep set lacks, and
    stores the intersection; it checks and yields nothing.  Sleep sets drop
    transitions, never states, so every reachable state is still visited
    and checked; the tests also hold the order of first visits and the
    terminals' decision lists to those of a search that applies every
    enabled action.
    """
    seen: dict[int, frozenset[Action]] = {}  # hash -> sleep set stored
    stack: list[tuple[Machine, frozenset[Action]]] = [(Machine(tp), frozenset())]
    while stack:
        m, sleep = stack.pop()
        h = canonical_hash(m.ts)
        stored = seen.get(h)
        if stored is not None and stored <= sleep:
            continue
        actions = m.enabled()
        if m.ctx.metrics["forks"] >= bound:
            actions = [a for a in actions if a[0] != "fork"]
        if stored is None:
            seen[h] = sleep
            if len(seen) > state_cap:
                raise SemanticsError("ResourceExhausted",
                                     f"more than {state_cap} states")
            if wf_callback is not None:
                wf_callback(m.ctx, m.ts)
            if not actions:
                res = m.result()  # a deadlock raises NoEnabledTransition
                yield Terminal(m.decisions, res.value, res.store)
                continue
            todo = [a for a in actions if a not in sleep]
        else:
            todo = [a for a in actions if a in stored and a not in sleep]
            sleep = seen[h] = stored & sleep
        # the last action is popped first, so each child sleeps on the
        # actions after its own; it takes `m` itself, once the other actions
        # have taken their copies
        for i, act in enumerate(todo):
            child = m if i == len(todo) - 1 else m.copy()
            child.apply(act)
            stack.append((child, frozenset(
                b for b in (*sleep, *todo[i + 1:]) if _independent(act, b))))


### canonical hashing

def canonical_hash(ts: TaskSet) -> int:
    """The hash of the machine's state, read from the state itself: every
    live task in tid order, then every joined producer, each as its frames
    and focus, its target, its store and its location map.  A frame (and
    the focus) is its node of the program, which copies share, its
    evaluated children and its environment.  Every fresh name, and each
    call's name base, is renamed by its first appearance, so states that
    differ only in how the name supply numbered them hash alike."""
    renames: dict = {}
    out: list = []
    add = out.extend

    def name(x):
        if x is None or type(x) is str and "%" not in x:
            return x  # no name, or a name of main's code
        r = renames.get(x)
        if r is None:
            r = renames[x] = f"%{len(renames)}"
        return r

    def loc(cl: ConcreteLoc | None):
        if cl is None:
            return None
        ext = cl.ext
        if type(ext) is Concrete:
            e = ext.index
        elif type(ext) is Ivar:
            e = (name(ext.name),)
        else:
            e = (name(ext.region), ext.index)
        return name(cl.region), e, name(cl.origin)

    def num(n: int):
        return n if n != -1 else "-1"  # hash(-1) == hash(-2)

    def val(v: S.Expr):
        return num(v.value) if type(v) is S.IntLit else loc(v.loc)

    def task(t: Task) -> None:
        st = t.state
        out.append(len(st.frames))
        for node, env, vals in (*st.frames, (st.focus, st.env, st.args)):
            if S.is_value(node):  # a finished task's focus
                add((None, val(node)))
                break
            add((id(node), len(vals), *map(val, vals), len(env.vars)))
            for x in sorted(env.vars):
                add((x, val(env.vars[x])))
            for names in (env.locs, env.regs):
                out.append(len(names))
                for x in sorted(names):
                    add((x, name(names[x])))
            out.append(name(env.n0))
        out.append(loc(t.target))
        out.append(len(st.store.regions))
        for r, heap in st.store.regions.items():
            add((name(r), len(heap)))
            for i in sorted(heap):
                hv = heap[i]
                if type(hv) is Tag:
                    add((i, hv.name))
                elif type(hv) is Scalar:
                    add((i, num(hv.value)))
                else:
                    add((i, (name(hv.region), hv.index)))
        out.append(len(st.locmap))
        for l in sorted(st.locmap, key=name):
            add((name(l), loc(st.locmap[l])))

    out.append(len(ts.tasks))
    for t in ts.ordered():
        task(t)
    # a live task holds every joined ivar, so each already has its name
    for iv in sorted(ts.joined, key=name):
        out.append(name(iv))
        task(ts.joined[iv])
    return hash(tuple(out))


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
    is still queued, and any pool size finishes.  `opts["wf_callback"]`, if
    given, is called after each applied action, under the lock.
    """
    import threading
    from concurrent.futures import ThreadPoolExecutor

    opts = opts or {}
    m = Machine(tp, implicit_par=bool(opts.get("implicit_par")))
    wf_cb = opts.get("wf_callback")
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
                    if wf_cb is not None:
                        wf_cb(m.ctx, m.ts)
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
