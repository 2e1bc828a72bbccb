"""Small-step sequential evaluator over region stores.

A state carries a private store, a location map, and the expression under
evaluation, plus runtime bookkeeping the well-formedness checker consumes:
which locations are materialized (sigma), which are allocated-but-unwritten
(nursery), the letloc constraint each location was introduced with, the
current allocation site per region, and the incrementally tracked end of
every completed value (frontier notes).

The expression is kept as a focus, the redex the next step rewrites, inside a
stack of frames (node, index of the child the focus sits under).  A step
contracts the focus and refocuses locally (Danvy and Nielsen's refocusing),
so it never walks from the root; packed-value ends come from frontier notes.

`step_seq` rewrites a state in place.  Whether a state can step at all is
decided beforehand, without side effects, by `blocked_on`, which looks only
at the focus: the task machine calls it to tell a step from a wait on an
ivar.  A state is copied only where two futures split: a forked child, a
copy of the whole task machine (the explorer), a finished parallel run's
result, and the before-image of a traced sequential step.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dcfield

from . import syntax as S
from .store import (Store, LocationMap, ConcreteLoc, Concrete, Ivar, Indirection,
                    Tag, Scalar, Decls, StoreError,
                    deref_location, deref_concrete, end_witness,
                    fmt_cell, resolve_links, write_cell)


class SemanticsError(Exception):
    """A stuck state or store violation: a bug in the program or evaluator."""

    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message


@dataclass
class SeqState:
    """A state built from a whole expression, held as `focus` in `frames`:
    (node, hole index) pairs, empty whenever the focus is a value.  The focus
    has no non-value child in evaluation position.  A frame's node keeps a
    stale child at its hole; only `expr` plugs them."""
    store: Store
    locmap: LocationMap
    focus: S.Expr
    frontier_notes: dict[tuple[str, int], tuple[str, int]] = dcfield(default_factory=dict)
    sigma: dict[str, S.PackedType] = dcfield(default_factory=dict)
    nursery: set[str] = dcfield(default_factory=set)
    constraints: dict[str, S.LocExpr] = dcfield(default_factory=dict)
    allocsites: dict[str, str | None] = dcfield(default_factory=dict)
    frames: list[tuple[S.Expr, int]] = dcfield(default_factory=list)

    def __post_init__(self) -> None:
        if not self.frames:  # given frames (a copy) already decompose it
            self.refocus(self.focus)

    @property
    def expr(self) -> S.Expr:
        """The whole expression: the focus plugged back into every frame."""
        e = self.focus
        for node, k in reversed(self.frames):
            e = _plug(node, k, e)
        return e

    @expr.setter
    def expr(self, e: S.Expr) -> None:
        self.frames = []
        self.refocus(e)

    def refocus(self, e: S.Expr) -> None:
        """Put `e` in the focus's place: plug a value into the innermost frame,
        then descend to the first non-value child while there is one."""
        frames = self.frames
        if frames and S.is_value(e):
            node, k = frames.pop()
            e = _plug(node, k, e)
        while (hole := _open_hole(e)) is not None:
            frames.append((e, hole[0]))
            e = hole[1]
        self.focus = e

    def complete(self) -> bool:
        return S.is_value(self.focus)

    def copy(self) -> "SeqState":
        return SeqState(self.store.copy(), dict(self.locmap), self.focus,
                        dict(self.frontier_notes), dict(self.sigma),
                        set(self.nursery), dict(self.constraints),
                        dict(self.allocsites), list(self.frames))


# per node type: its children in evaluation position, in evaluation order
_EVAL_CHILDREN = {S.Let: lambda e: (e.bound,), S.App: lambda e: e.args,
                  S.DataCon: lambda e: e.fields, S.PrimOp: lambda e: (e.lhs, e.rhs),
                  S.Case: lambda e: (e.scrut,)}


def _open_hole(e: S.Expr) -> tuple[int, S.Expr] | None:
    """The position and child of `e`'s first non-value child in evaluation position."""
    children = _EVAL_CHILDREN.get(type(e))
    for k, x in enumerate(children(e) if children else ()):
        if not S.is_value(x):
            return k, x
    return None


def _plug(node: S.Expr, k: int, v: S.Expr) -> S.Expr:
    """`node` with its child in evaluation position k replaced by `v`."""
    if isinstance(node, S.Let):
        return S.Let(node.var, node.ty, v, node.body, node.spawn)
    if isinstance(node, S.App):
        return S.App(node.func, node.locargs,
                     node.args[:k] + (v,) + node.args[k + 1:])
    if isinstance(node, S.DataCon):
        return S.DataCon(node.tag, node.loc, node.region,
                         node.fields[:k] + (v,) + node.fields[k + 1:])
    if isinstance(node, S.PrimOp):
        return S.PrimOp(node.op, v, node.rhs) if k == 0 \
            else S.PrimOp(node.op, node.lhs, v)
    return S.Case(v, node.branches)


### step results

@dataclass
class Stepped:
    rule: str


@dataclass
class Value:
    value: S.Expr  # IntLit or ConcreteLocVal


@dataclass
class Stuck:
    reason: str


StepResult = Stepped | Value | Stuck


class RunContext:
    """Shared per-run machinery: program, declarations, fresh names, metrics."""

    def __init__(self, tp, implicit_par: bool = False):
        self.program: S.Program = tp.program
        self.decls: Decls = tp.decls
        self.supply = S.NameSupply()
        self.implicit_par = implicit_par
        self.metrics = {"steps": 0, "cells_written": 0, "regions_created": 0,
                        "extra_regions": 0, "indirections": 0,
                        "forks": 0, "joins": 0}

    def copy(self) -> "RunContext":
        """The same program and options, with its own supply and metrics."""
        out = RunContext.__new__(RunContext)
        out.__dict__.update(self.__dict__)
        out.supply = S.NameSupply()
        out.supply.n = self.supply.n
        out.metrics = dict(self.metrics)
        return out


def step_seq(ctx: RunContext, st: SeqState) -> StepResult:
    """Take one step of `st` in place.

    The caller makes sure `blocked_on(st)` is None first; the rules do not
    test for ivars.  A stuck step may leave `st` half rewritten.
    """
    e = st.focus
    if S.is_value(e):
        return Value(e)
    try:
        e, rule = _contract(ctx, st, e)
    except (StoreError, SemanticsError) as err:
        return Stuck(str(err))
    st.refocus(e)
    ctx.metrics["steps"] += 1
    return Stepped(rule)


def blocked_on(st: SeqState) -> tuple[str, str] | None:
    """The (ivar, why) whose producer must be joined before `st` can step.

    `why` names the rule that needs the ivar's address: 'letloc' for
    `l + 1` where l maps to an ivar, 'datacon' for an ivar target or field,
    'case' for an ivar scrutinee.  None when the step can be taken (or is
    stuck for another reason, which the step reports).
    """
    e = st.focus
    if isinstance(e, S.LetLoc) and isinstance(e.locexpr, S.AfterTag):
        locs, why = [st.locmap.get(e.locexpr.loc)], "letloc"
    elif isinstance(e, S.DataCon):
        locs = [st.locmap.get(e.loc)] + [f.loc for f in e.fields
                                         if isinstance(f, S.ConcreteLocVal)]
        why = "datacon"
    elif isinstance(e, S.Case) and isinstance(e.scrut, S.ConcreteLocVal):
        locs, why = [e.scrut.loc], "case"
    else:
        return None
    for cl in locs:
        if cl is not None and isinstance(cl.ext, Ivar):
            return cl.ext.name, why
    return None


### the transition rules

def _contract(ctx: RunContext, st: SeqState, e: S.Expr) -> tuple[S.Expr, str]:
    """Rewrite the focus `e`, whose children in evaluation position are values."""
    if isinstance(e, S.LetRegion):
        return _rule_letregion(ctx, st, e)
    if isinstance(e, S.LetLoc):
        return _rule_letloc(ctx, st, e)
    if isinstance(e, S.Let):
        return S.substitute(e.body, var_map={e.var: e.bound}), "D-Let-Val"
    if isinstance(e, S.App):
        return _rule_app(ctx, st, e)
    if isinstance(e, S.DataCon):
        return _rule_datacon(ctx, st, e)
    if isinstance(e, S.PrimOp):
        return _rule_primop(e)
    if isinstance(e, S.Case):
        return _rule_case(ctx, st, e)
    if isinstance(e, S.Var):
        raise SemanticsError("Stuck", f"free variable {e.name}")
    raise SemanticsError("Stuck", f"no rule for {e!r}")


def _rule_letregion(ctx: RunContext, st: SeqState, e: S.LetRegion) -> tuple[S.Expr, str]:
    r = ctx.supply.fresh(e.region)
    st.store.add_region(r)
    st.allocsites[r] = None
    ctx.metrics["regions_created"] += 1
    return S.substitute(e.body, reg_map={e.region: r}), "D-LetRegion"


def _rule_letloc(ctx: RunContext, st: SeqState, e: S.LetLoc) -> tuple[S.Expr, str]:
    le = e.locexpr
    if isinstance(le, S.StartOfRegion):
        cl = ConcreteLoc(le.region, Concrete(0), e.loc)
        alloc_region = le.region
        rule = "D-LetLoc-Start"
    elif isinstance(le, S.AfterTag):
        src = deref_location(st.locmap, le.loc)
        cl = ConcreteLoc(src.region, Concrete(src.ext.index + 1), e.loc)
        alloc_region = src.region
        rule = "D-LetLoc-Tag"
    else:
        src_cl = st.locmap.get(le.ty.loc)
        if src_cl is None:
            raise SemanticsError("UnboundLocation", f"letloc after: {le.ty.loc} unbound")
        if isinstance(src_cl.ext, Ivar):
            # the value this location must follow is still being produced
            # elsewhere; continue in a fresh region behind an indirection
            r_new = ctx.supply.fresh(e.region)
            st.store.add_region(r_new)
            st.allocsites[r_new] = e.loc
            st.locmap[e.loc] = ConcreteLoc(e.region, Indirection(r_new, 0), e.loc)
            st.nursery.add(e.loc)
            st.constraints[e.loc] = le
            ctx.metrics["regions_created"] += 1
            ctx.metrics["extra_regions"] += 1
            return e.body, "D-LetLoc-After-NewReg"
        src = deref_concrete(src_cl)
        r_end, end = _value_end(ctx, st, le.ty.tycon, src.region, src.ext.index)
        cl = ConcreteLoc(r_end, Concrete(end), e.loc)
        alloc_region = r_end
        rule = "D-LetLoc-After"
    st.locmap[e.loc] = cl
    st.nursery.add(e.loc)
    st.constraints[e.loc] = le
    st.allocsites[alloc_region] = e.loc
    return e.body, rule


def _rule_app(ctx: RunContext, st: SeqState, e: S.App) -> tuple[S.Expr, str]:
    try:
        fd = ctx.program.fundecl(e.func)
    except KeyError:
        raise SemanticsError("Stuck", f"unknown function {e.func}") from None
    if len(fd.locparams) != len(e.locargs) or len(fd.params) != len(e.args):
        raise SemanticsError("Stuck", f"arity mismatch calling {e.func}")
    return S.instantiate(fd, e.locargs, e.args, ctx.supply), "D-App"


def _rule_primop(e: S.PrimOp) -> tuple[S.Expr, str]:
    if not isinstance(e.lhs, S.IntLit) or not isinstance(e.rhs, S.IntLit):
        raise SemanticsError("Stuck", f"primop {e.op} on non-scalar operands")
    a, b = e.lhs.value, e.rhs.value
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
    return S.IntLit(v), "D-PrimOp"


def _value_end(ctx: RunContext, st: SeqState, tau: str, r: str,
               i: int) -> tuple[str, int]:
    """One past the packed value of type tau at (r, i), after its links:
    its frontier note, or a fresh scan when there is none (or no tag of tau)."""
    r, i, hv = resolve_links(st.store, r, i)
    note = st.frontier_notes.get((r, i))
    if note is not None and isinstance(hv, Tag) and ctx.decls.tycon_of(hv.name) == tau:
        return note
    return end_witness(ctx.decls, tau, r, i, st.store)


def _rule_datacon(ctx: RunContext, st: SeqState, e: S.DataCon) -> tuple[S.Expr, str]:
    target = deref_location(st.locmap, e.loc)
    ftys = ctx.decls.fields(e.tag)
    if len(ftys) != len(e.fields):
        raise SemanticsError("Stuck", f"arity mismatch constructing {e.tag}")
    r, i = target.region, target.ext.index
    write_cell(st.store, r, i, Tag(e.tag))
    ctx.metrics["cells_written"] += 1
    cur_r, cur = r, i + 1
    for fty, fv in zip(ftys, e.fields):
        if fty == "Int":
            if not isinstance(fv, S.IntLit):
                raise SemanticsError("Stuck", f"scalar field of {e.tag} not an integer")
            write_cell(st.store, cur_r, cur, Scalar(fv.value))
            ctx.metrics["cells_written"] += 1
            cur += 1
        else:
            # the field value was written earlier; the cell at the cursor is
            # either its first cell or an indirection stitched in by a join
            cur_r, cur = _value_end(ctx, st, fty, cur_r, cur)
    st.sigma[e.loc] = S.PackedType(ctx.decls.tycon_of(e.tag), e.loc, e.region)
    st.nursery.discard(e.loc)
    st.allocsites[r] = e.loc
    st.frontier_notes[(r, i)] = (cur_r, cur)
    return S.ConcreteLocVal(ConcreteLoc(r, Concrete(i), e.loc)), "D-DataConstructor"


def _rule_case(ctx: RunContext, st: SeqState, e: S.Case) -> tuple[S.Expr, str]:
    scrut = e.scrut
    if isinstance(scrut, S.IntLit):
        default = None
        for b in e.branches:
            if isinstance(b, S.IntBranch) and b.value == scrut.value:
                return b.body, "D-Case"
            if isinstance(b, S.DefaultBranch):
                default = b
        if default is not None:
            return default.body, "D-Case"
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
        return chosen.body, "D-Case"
    ftys = ctx.decls.fields(hv.name)
    if len(ftys) != len(chosen.fields):
        raise SemanticsError("Stuck", f"pattern arity mismatch for {hv.name}")
    vm: dict[str, S.Expr] = {}
    cur_r, cur = r, i + 1
    prev: tuple[str, str] | None = None
    origin = scrut.loc.origin
    for fty, (x, xty) in zip(ftys, chosen.fields):
        fr, fi, hv_f = resolve_links(st.store, cur_r, cur)
        if fty == "Int":
            if not isinstance(hv_f, Scalar):
                raise SemanticsError("IncompleteValue",
                                     f"expected scalar at ({fr},{fi})")
            vm[x] = S.IntLit(hv_f.value)
        else:
            vm[x] = S.ConcreteLocVal(ConcreteLoc(fr, Concrete(fi), _pat_loc(xty)))
        ploc = _pat_loc(xty)
        if ploc is not None:
            st.locmap[ploc] = ConcreteLoc(fr, Concrete(fi), ploc)
            if fty != "Int":
                st.sigma[ploc] = xty if isinstance(xty, S.PackedType) else None
            if origin is not None:
                if prev is None:
                    st.constraints[ploc] = S.AfterTag(origin, cl.region)
                else:
                    st.constraints[ploc] = S.AfterValue(
                        S.PackedType(prev[0], prev[1], cl.region))
            prev = (fty, ploc)
        cur_r, cur = (fr, fi + 1) if fty == "Int" \
            else _value_end(ctx, st, fty, fr, fi)
    return S.substitute(chosen.body, var_map=vm), "D-Case"


def _pat_loc(xty: S.Type) -> str | None:
    return xty.loc if isinstance(xty, S.PackedType) else None


### driving

@dataclass
class RunResult:
    value: S.Expr
    store: Store
    locmap: LocationMap
    metrics: dict
    state: SeqState
    rules: list[str]


def run_seq(tp, opts: dict | None = None,
            trace: list[str] | None = None) -> RunResult:
    """Drive the sequential machine from main to a value; never forks."""
    ctx = RunContext(tp)
    st = SeqState(Store(), {}, tp.program.main)
    rules: list[str] = []
    while True:
        # nothing forks, so no ivar exists and every state is unblocked
        before = st.copy() if trace is not None else None
        res = step_seq(ctx, st)
        if isinstance(res, Value):
            return RunResult(res.value, st.store, st.locmap, ctx.metrics, st, rules)
        if isinstance(res, Stuck):
            raise SemanticsError("Stuck", res.reason)
        rules.append(res.rule)
        if trace is not None:
            trace.append(_trace_line(len(rules), res.rule, before, st))


def _trace_line(n: int, rule: str, before: SeqState, after: SeqState) -> str:
    deltas = []
    for r, heap in after.store.regions.items():
        old = before.store.regions.get(r)
        if old is None:
            deltas.append(f"+region {r}")
            old = {}
        for i in sorted(set(heap) - set(old)):
            deltas.append(f"{r}[{i}]={fmt_cell(heap[i])}")
    for l, cl in after.locmap.items():
        if before.locmap.get(l) != cl:
            deltas.append(f"{l}↦({cl.region},{_fmt_ext(cl)})")
    suffix = f"  {' '.join(deltas)}" if deltas else ""
    return f"step {n}: rule={rule}{suffix}"


def _fmt_ext(cl: ConcreteLoc) -> str:
    if isinstance(cl.ext, Concrete):
        return str(cl.ext.index)
    if isinstance(cl.ext, Ivar):
        return f"ivar {cl.ext.name}"
    return f"ind({cl.ext.region},{cl.ext.index})"


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
