"""Small-step sequential evaluator over region stores.

A state carries a private store, a location map, and the code under
evaluation, plus runtime bookkeeping the well-formedness checker consumes:
which locations are materialized (sigma), which are allocated-but-unwritten
(nursery), the letloc constraint each location was introduced with, the
current allocation site per region, and the incrementally tracked end of
every completed value (frontier notes).

The machine is a CEK machine (Ager, Biernacki, Danvy and Midtgaard 2003).
The code is the program's own terms, which evaluation never rebuilds: the
focus, the redex the next step contracts, and each frame of the stack it
sits in (a node, the values of its children before its hole) carry an
environment that maps variables to values and symbolic locations and
regions to runtime names.  A step contracts the focus and refocuses locally
(Danvy and Nielsen's refocusing), so it never walks from the root;
packed-value ends come from frontier notes.  A call binds the callee's
formals in a new environment and reserves one fresh-name number for each
binder of its body, so a binder's runtime name is fixed by the call's name
base and the binder's number (`syntax.number_binders`).

`step_seq` rewrites a state in place.  Whether a state can step at all is
decided beforehand, without side effects, by `blocked_on`, which looks only
at the focus: the task machine calls it to tell a step from a wait on an
ivar.  A state is copied only where two futures split: a forked child, a
copy of the whole task machine (the explorer) and a finished parallel run's
result.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dcfield

from . import syntax as S
from .store import (Store, LocationMap, ConcreteLoc, Concrete, Ivar, Indirection,
                    Tag, Scalar, Decls, SemanticsError,
                    deref_location, deref_concrete, end_witness,
                    resolve_links, write_cell)


class Env:
    """What the names of a piece of code stand for: variables map to values
    (`IntLit` or `ConcreteLocVal`), symbolic locations and regions to
    runtime names, and the call's name base `n0` numbers its binders (None
    in main, whose binders keep their source names).  Frames and copies of
    a state share environments, so an environment is never changed: binding
    builds a new one."""

    __slots__ = ("vars", "locs", "regs", "n0", "binders")

    def __init__(self, vars: dict[str, S.Expr], locs: dict[str, str],
                 regs: dict[str, str], n0: int | None = None,
                 binders: dict[int, int] | None = None):
        self.vars = vars
        self.locs = locs
        self.regs = regs
        self.n0 = n0
        self.binders = binders  # binding node id -> its first binder number

    def loc(self, l: str) -> str:
        return self.locs.get(l, l)

    def reg(self, r: str) -> str:
        return self.regs.get(r, r)

    def ty(self, ty: S.Type) -> S.Type:
        """A located type with runtime names."""
        if isinstance(ty, S.PackedType):
            return S.PackedType(ty.tycon, self.loc(ty.loc), self.reg(ty.region))
        return ty

    def binder(self, node, name: str, offset: int = 0) -> str:
        """The runtime name of `node`'s binder `name`, the `offset`-th of its
        binders: number n0 + its number in the body, or in main the name."""
        if self.n0 is None:
            return name
        return f"{name.split('%', 1)[0]}%{self.n0 + self.binders[id(node)] + offset}"

    def bind(self, vars=None, locs=None, regs=None) -> "Env":
        return Env({**self.vars, **vars} if vars else self.vars,
                   {**self.locs, **locs} if locs else self.locs,
                   {**self.regs, **regs} if regs else self.regs,
                   self.n0, self.binders)


@dataclass
class SeqState:
    """A state built from a whole expression, held as a `focus` under its
    environment `env` inside `frames`, outermost first.  The focus is a
    value, with no frames, or a node of the program whose children in
    evaluation position are the values `args`.  A frame is (node,
    environment, values): the node's children before its hole evaluated to
    these values, and the child at the hole is the code evaluation
    descended into."""
    store: Store
    locmap: LocationMap
    focus: S.Expr
    frontier_notes: dict[tuple[str, int], tuple[str, int]] = dcfield(default_factory=dict)
    sigma: dict[str, S.PackedType] = dcfield(default_factory=dict)
    nursery: set[str] = dcfield(default_factory=set)
    constraints: dict[str, S.LocExpr] = dcfield(default_factory=dict)
    allocsites: dict[str, str | None] = dcfield(default_factory=dict)
    frames: list[tuple] = dcfield(default_factory=list)
    env: Env | None = None
    args: tuple[S.Expr, ...] = ()

    def __post_init__(self) -> None:
        if self.env is None:  # a copy's focus is already decomposed
            self.refocus(self.focus, Env({}, {}, {}))

    def refocus(self, e: S.Expr, env: Env) -> None:
        """Put code `e` under `env` in the focus's place.  A value (a
        variable is looked up, which is not a step) is plugged into the
        innermost frame; then evaluation descends to the first child in
        evaluation position that is not a value while there is one."""
        frames = self.frames
        vals: tuple = ()
        v = _value(e, env)
        if v is not None:
            if not frames:
                self.focus, self.env, self.args = v, env, ()
                return
            e, env, vals = _plug(frames.pop(), v)
        while (children := _EVAL_CHILDREN.get(type(e))) is not None:
            kids = children(e)
            for c in kids[len(vals):]:
                v = _value(c, env)
                if v is None:
                    break
                vals += (v,)
            else:
                break
            frames.append((e, env, vals))
            e, vals = c, ()
        self.focus, self.env, self.args = e, env, vals

    def complete(self) -> bool:
        return S.is_value(self.focus)

    def copy(self) -> "SeqState":
        return SeqState(self.store.copy(), dict(self.locmap), self.focus,
                        dict(self.frontier_notes), dict(self.sigma),
                        set(self.nursery), dict(self.constraints),
                        dict(self.allocsites), list(self.frames), self.env,
                        self.args)


# per node type: its children in evaluation position, in evaluation order
_EVAL_CHILDREN = {S.Let: lambda e: (e.bound,), S.App: lambda e: e.args,
                  S.DataCon: lambda e: e.fields, S.PrimOp: lambda e: (e.lhs, e.rhs),
                  S.Case: lambda e: (e.scrut,)}


def _value(e: S.Expr, env: Env) -> S.Expr | None:
    """The value of `e` under `env` without a step: a literal, or a bound
    variable's value; None for anything else."""
    if type(e) is S.Var:
        return env.vars.get(e.name)
    return e if type(e) is S.IntLit or type(e) is S.ConcreteLocVal else None


def _plug(frame: tuple, v: S.Expr) -> tuple:
    """`frame` with the value `v` at its hole."""
    node, env, vals = frame
    return node, env, vals + (v,)


class RunContext:
    """Shared per-run machinery: program, declarations, fresh names, metrics,
    and each function with its body's binder count."""

    def __init__(self, tp, implicit_par: bool = False):
        self.program: S.Program = tp.program
        self.decls: Decls = tp.decls
        self.supply = S.NameSupply()
        self.implicit_par = implicit_par
        self.metrics = {"steps": 0, "cells_written": 0, "regions_created": 0,
                        "extra_regions": 0, "indirections": 0,
                        "forks": 0, "joins": 0}
        self.binders: dict[int, int] = {}
        self.functions: dict[str, tuple[S.FunDecl, int]] = {}
        for fd in self.program.fundecls:
            first, count = S.number_binders(fd.body)
            self.binders.update(first)
            self.functions[fd.name] = (fd, count)

    def copy(self) -> "RunContext":
        """The same program and options, with its own supply and metrics."""
        out = RunContext.__new__(RunContext)
        out.__dict__.update(self.__dict__)
        out.supply = S.NameSupply()
        out.supply.n = self.supply.n
        out.metrics = dict(self.metrics)
        return out


def step_seq(ctx: RunContext, st: SeqState) -> str:
    """Take one step of the incomplete state `st` in place; return the
    rule's name.

    The caller makes sure `blocked_on(st)` is None first; the rules do not
    test for ivars.  A stuck step raises `SemanticsError` with code `Stuck`
    and may leave `st` half rewritten.
    """
    try:
        e, env, rule = _contract(ctx, st, st.focus)
    except SemanticsError as err:
        raise SemanticsError("Stuck", str(err)) from None
    st.refocus(e, env)
    ctx.metrics["steps"] += 1
    return rule


def blocked_on(st: SeqState) -> tuple[str, str] | None:
    """The (ivar, why) whose producer must be joined before `st` can step.

    `why` names the rule that needs the ivar's address: 'letloc' for
    `l + 1` where l maps to an ivar, 'datacon' for an ivar target or field,
    'case' for an ivar scrutinee.  None when the step can be taken (or is
    stuck for another reason, which the step reports).
    """
    e, env = st.focus, st.env
    if isinstance(e, S.LetLoc) and isinstance(e.locexpr, S.AfterTag):
        locs, why = [st.locmap.get(env.loc(e.locexpr.loc))], "letloc"
    elif isinstance(e, S.DataCon):
        locs = [st.locmap.get(env.loc(e.loc))] + [
            f.loc for f in st.args if isinstance(f, S.ConcreteLocVal)]
        why = "datacon"
    elif isinstance(e, S.Case) and isinstance(st.args[0], S.ConcreteLocVal):
        locs, why = [st.args[0].loc], "case"
    else:
        return None
    for cl in locs:
        if cl is not None and isinstance(cl.ext, Ivar):
            return cl.ext.name, why
    return None


### the transition rules
#
# Each rule rewrites the focus `e`, whose children in evaluation position
# are the values `st.args`, and returns the code to run next with its
# environment (or a value), and the rule's name.

Next = tuple[S.Expr, Env, str]


def _contract(ctx: RunContext, st: SeqState, e: S.Expr) -> Next:
    env = st.env
    if isinstance(e, S.LetRegion):
        return _rule_letregion(ctx, st, e, env)
    if isinstance(e, S.LetLoc):
        return _rule_letloc(ctx, st, e, env)
    if isinstance(e, S.Let):
        return e.body, env.bind(vars={e.var: st.args[0]}), "D-Let-Val"
    if isinstance(e, S.App):
        return _rule_app(ctx, st, e, env)
    if isinstance(e, S.DataCon):
        return _rule_datacon(ctx, st, e, env)
    if isinstance(e, S.PrimOp):
        return _rule_primop(e, st.args, env)
    if isinstance(e, S.Case):
        return _rule_case(ctx, st, e, env)
    if isinstance(e, S.Var):
        raise SemanticsError("Stuck", f"free variable {e.name}")
    raise SemanticsError("Stuck", f"no rule for {e!r}")


def _rule_letregion(ctx: RunContext, st: SeqState, e: S.LetRegion,
                    env: Env) -> Next:
    r = ctx.supply.fresh(e.region)
    st.store.add_region(r)
    st.allocsites[r] = None
    ctx.metrics["regions_created"] += 1
    return e.body, env.bind(regs={e.region: r}), "D-LetRegion"


def _rule_letloc(ctx: RunContext, st: SeqState, e: S.LetLoc, env: Env) -> Next:
    l = env.binder(e, e.loc)
    body_env = env.bind(locs={e.loc: l})
    le = e.locexpr
    if isinstance(le, S.StartOfRegion):
        region = env.reg(le.region)
        le = S.StartOfRegion(region)
        cl = ConcreteLoc(region, Concrete(0), l)
        alloc_region = region
        rule = "D-LetLoc-Start"
    elif isinstance(le, S.AfterTag):
        le = S.AfterTag(env.loc(le.loc), env.reg(le.region))
        src = deref_location(st.locmap, le.loc)
        cl = ConcreteLoc(src.region, Concrete(src.ext.index + 1), l)
        alloc_region = src.region
        rule = "D-LetLoc-Tag"
    else:
        le = S.AfterValue(env.ty(le.ty))
        src_cl = st.locmap.get(le.ty.loc)
        if src_cl is None:
            raise SemanticsError("UnboundLocation", f"letloc after: {le.ty.loc} unbound")
        if isinstance(src_cl.ext, Ivar):
            # the value this location must follow is still being produced
            # elsewhere; continue in a fresh region behind an indirection
            region = env.reg(e.region)
            r_new = ctx.supply.fresh(region)
            st.store.add_region(r_new)
            st.allocsites[r_new] = l
            st.locmap[l] = ConcreteLoc(region, Indirection(r_new, 0), l)
            st.nursery.add(l)
            st.constraints[l] = le
            ctx.metrics["regions_created"] += 1
            ctx.metrics["extra_regions"] += 1
            return e.body, body_env, "D-LetLoc-After-NewReg"
        src = deref_concrete(src_cl)
        r_end, end = value_end(ctx, st, le.ty.tycon, src.region, src.ext.index)
        cl = ConcreteLoc(r_end, Concrete(end), l)
        alloc_region = r_end
        rule = "D-LetLoc-After"
    st.locmap[l] = cl
    st.nursery.add(l)
    st.constraints[l] = le
    st.allocsites[alloc_region] = l
    return e.body, body_env, rule


def _rule_app(ctx: RunContext, st: SeqState, e: S.App, env: Env) -> Next:
    """Run the callee's body under its formals, and reserve one fresh-name
    number for each of the body's binders."""
    try:
        fd, count = ctx.functions[e.func]
    except KeyError:
        raise SemanticsError("Stuck", f"unknown function {e.func}") from None
    if len(fd.locparams) != len(e.locargs) or len(fd.params) != len(e.args):
        raise SemanticsError("Stuck", f"arity mismatch calling {e.func}")
    n0 = ctx.supply.n
    ctx.supply.n += count
    callee = Env({x: a for (x, _), a in zip(fd.params, st.args)},
                 {fl: env.loc(al) for (fl, _), (al, _) in zip(fd.locparams, e.locargs)},
                 {fr: env.reg(ar) for (_, fr), (_, ar) in zip(fd.locparams, e.locargs)},
                 n0, ctx.binders)
    return fd.body, callee, "D-App"


def _rule_primop(e: S.PrimOp, args: tuple, env: Env) -> Next:
    lhs, rhs = args
    if not isinstance(lhs, S.IntLit) or not isinstance(rhs, S.IntLit):
        raise SemanticsError("Stuck", f"primop {e.op} on non-scalar operands")
    a, b = lhs.value, rhs.value
    if e.op == "+":
        v = a + b
    elif e.op == "-":
        v = a - b
    elif e.op == "*":
        v = a * b
    elif e.op == "<=":
        v = 1 if a <= b else 0
    elif e.op == "==":
        v = 1 if a == b else 0
    else:
        raise SemanticsError("Stuck", f"unknown primop {e.op}")
    return S.IntLit(v), env, "D-PrimOp"


def value_end(ctx: RunContext, st: SeqState, tau: str, r: str,
              i: int) -> tuple[str, int]:
    """One past the packed value of type tau at (r, i), after its links:
    its frontier note, or a fresh scan when there is none (or no tag of tau).
    Steps and the task machine's joins both find value ends here."""
    r, i, hv = resolve_links(st.store, r, i)
    note = st.frontier_notes.get((r, i))
    if note is not None and isinstance(hv, Tag) and ctx.decls.tycon_of(hv.name) == tau:
        return note
    return end_witness(ctx.decls, tau, r, i, st.store)


def _rule_datacon(ctx: RunContext, st: SeqState, e: S.DataCon, env: Env) -> Next:
    l = env.loc(e.loc)
    target = deref_location(st.locmap, l)
    ftys = ctx.decls.fields(e.tag)
    if len(ftys) != len(st.args):
        raise SemanticsError("Stuck", f"arity mismatch constructing {e.tag}")
    r, i = target.region, target.ext.index
    write_cell(st.store, r, i, Tag(e.tag))
    ctx.metrics["cells_written"] += 1
    cur_r, cur = r, i + 1
    for fty, fv in zip(ftys, st.args):
        if fty == "Int":
            if not isinstance(fv, S.IntLit):
                raise SemanticsError("Stuck", f"scalar field of {e.tag} not an integer")
            write_cell(st.store, cur_r, cur, Scalar(fv.value))
            ctx.metrics["cells_written"] += 1
            cur += 1
        else:
            # the field value was written earlier; the cell at the cursor is
            # either its first cell or an indirection stitched in by a join
            cur_r, cur = value_end(ctx, st, fty, cur_r, cur)
    st.sigma[l] = S.PackedType(ctx.decls.tycon_of(e.tag), l, env.reg(e.region))
    st.nursery.discard(l)
    st.allocsites[r] = l
    st.frontier_notes[(r, i)] = (cur_r, cur)
    return S.ConcreteLocVal(ConcreteLoc(r, Concrete(i), l)), env, "D-DataConstructor"


def _rule_case(ctx: RunContext, st: SeqState, e: S.Case, env: Env) -> Next:
    scrut = st.args[0]
    if isinstance(scrut, S.IntLit):
        default = None
        for b in e.branches:
            if isinstance(b, S.IntBranch) and b.value == scrut.value:
                return b.body, env, "D-Case"
            if isinstance(b, S.DefaultBranch):
                default = b
        if default is not None:
            return default.body, env, "D-Case"
        raise SemanticsError("Stuck", f"no branch for scalar {scrut.value}")
    assert isinstance(scrut, S.ConcreteLocVal)
    cl = deref_concrete(scrut.loc)
    r, i, hv = resolve_links(st.store, cl.region, cl.ext.index)
    if hv is None:
        raise SemanticsError("IncompleteValue", f"no cell at ({r},{i})")
    if not isinstance(hv, Tag):
        raise SemanticsError("Stuck", f"case scrutinee cell ({r},{i}) holds {hv}")
    chosen: S.Branch | None = None
    for b in e.branches:
        if isinstance(b, S.ConBranch) and b.tag == hv.name:
            chosen = b
            break
        if isinstance(b, S.DefaultBranch) and chosen is None:
            chosen = b
    if chosen is None:
        raise SemanticsError("Stuck", f"no branch for constructor {hv.name}")
    if isinstance(chosen, S.DefaultBranch):
        return chosen.body, env, "D-Case"
    ftys = ctx.decls.fields(hv.name)
    if len(ftys) != len(chosen.fields):
        raise SemanticsError("Stuck", f"pattern arity mismatch for {hv.name}")
    vm: dict[str, S.Expr] = {}
    lm: dict[str, str] = {}
    cur_r, cur = r, i + 1
    prev: tuple[str, str] | None = None
    origin = scrut.loc.origin
    k = 0  # the field's first binder among the pattern's
    for fty, (x, xty) in zip(ftys, chosen.fields):
        ploc = None
        if isinstance(xty, S.PackedType):
            ploc = lm[xty.loc] = env.binder(chosen, xty.loc, k + 1)
        k += 1 + (ploc is not None)
        fr, fi, hv_f = resolve_links(st.store, cur_r, cur)
        if fty == "Int":
            if not isinstance(hv_f, Scalar):
                raise SemanticsError("IncompleteValue",
                                     f"expected scalar at ({fr},{fi})")
            vm[x] = S.IntLit(hv_f.value)
        else:
            vm[x] = S.ConcreteLocVal(ConcreteLoc(fr, Concrete(fi), ploc))
        if ploc is not None:
            st.locmap[ploc] = ConcreteLoc(fr, Concrete(fi), ploc)
            if fty != "Int":
                st.sigma[ploc] = S.PackedType(xty.tycon, ploc, env.reg(xty.region))
            if origin is not None:
                if prev is None:
                    st.constraints[ploc] = S.AfterTag(origin, cl.region)
                else:
                    st.constraints[ploc] = S.AfterValue(
                        S.PackedType(prev[0], prev[1], cl.region))
            prev = (fty, ploc)
        cur_r, cur = (fr, fi + 1) if fty == "Int" \
            else value_end(ctx, st, fty, fr, fi)
    return chosen.body, env.bind(vars=vm, locs=lm), "D-Case"


### driving

@dataclass
class RunResult:
    value: S.Expr
    store: Store
    locmap: LocationMap
    metrics: dict
    state: SeqState
    rules: list[str]


def run_seq(tp) -> RunResult:
    """Drive the sequential machine from main to a value; never forks."""
    ctx = RunContext(tp)
    st = SeqState(Store(), {}, tp.program.main)
    rules: list[str] = []
    while not st.complete():
        # nothing forks, so no ivar exists and every state is unblocked
        rules.append(step_seq(ctx, st))
    return RunResult(st.focus, st.store, st.locmap, ctx.metrics, st, rules)


def verify_frontier_notes(decls: Decls, st: SeqState) -> list[str]:
    """Compare every cached value end against a fresh end-witness scan; the
    scans share one table of the ends they find, so each cell is read once."""
    bad = []
    ends: dict[tuple[str, int], tuple[str, int]] = {}
    for (r, i), cached in st.frontier_notes.items():
        hv = st.store.cell(r, i)
        if not isinstance(hv, Tag):
            bad.append(f"({r},{i}): no tag under cached end")
            continue
        fresh = end_witness(decls, decls.tycon_of(hv.name), r, i, st.store, ends)
        if fresh != cached:
            bad.append(f"({r},{i}): cached {cached}, scanned {fresh}")
    return bad
