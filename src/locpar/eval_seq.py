"""Small-step sequential evaluator over region stores.

A state carries a private store, a location map, and the expression under
evaluation, plus runtime bookkeeping the well-formedness checker consumes:
which locations are materialized (sigma), which are allocated-but-unwritten
(nursery), the letloc constraint each location was introduced with, the
current allocation site per region, and the incrementally tracked end of
every completed value (frontier notes).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dcfield

from . import syntax as S
from .store import (Store, LocationMap, ConcreteLoc, Concrete, Ivar, Indirection,
                    Tag, Scalar, IndirectionCell, Decls, StoreError,
                    deref_location, deref_concrete, end_witness, write_cell)


class SemanticsError(Exception):
    """A stuck state or store violation: a bug in the program or evaluator."""

    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message


class _Blocked(Exception):
    """Internal signal: evaluation touched an unfilled ivar."""

    def __init__(self, ivar: str, why: str):
        super().__init__(ivar)
        self.ivar = ivar
        self.why = why


@dataclass
class SeqState:
    store: Store
    locmap: LocationMap
    expr: S.Expr
    frontier_notes: dict[tuple[str, int], tuple[str, int]] = dcfield(default_factory=dict)
    sigma: dict[str, S.PackedType] = dcfield(default_factory=dict)
    nursery: set[str] = dcfield(default_factory=set)
    constraints: dict[str, S.LocExpr] = dcfield(default_factory=dict)
    allocsites: dict[str, str | None] = dcfield(default_factory=dict)

    def copy(self) -> "SeqState":
        return SeqState(self.store.copy(), dict(self.locmap), self.expr,
                        dict(self.frontier_notes), dict(self.sigma),
                        set(self.nursery), dict(self.constraints),
                        dict(self.allocsites))


### step results

@dataclass
class Stepped:
    state: SeqState
    rule: str


@dataclass
class Value:
    value: S.Expr  # IntLit or ConcreteLocVal


@dataclass
class Blocked:
    ivar: str
    why: str  # 'case' | 'datacon' | 'letloc' | 'value'


@dataclass
class Stuck:
    reason: str


StepResult = Stepped | Value | Blocked | Stuck


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
    if S.is_value(st.expr):
        return Value(st.expr)
    st2 = st.copy()
    try:
        expr2, rule = _reduce(ctx, st2, st2.expr)
    except _Blocked as b:
        return Blocked(b.ivar, b.why)
    except (StoreError, SemanticsError) as err:
        return Stuck(str(err))
    st2.expr = expr2
    ctx.metrics["steps"] += 1
    return Stepped(st2, rule)


### the transition rules

def _reduce(ctx: RunContext, st: SeqState, e: S.Expr) -> tuple[S.Expr, str]:
    if isinstance(e, S.LetRegion):
        return _rule_letregion(ctx, st, e)
    if isinstance(e, S.LetLoc):
        return _rule_letloc(ctx, st, e)
    if isinstance(e, S.Let):
        if S.is_value(e.bound):
            body = S.substitute(e.body, var_map={e.var: e.bound})
            return body, "D-Let-Val"
        bound2, rule = _reduce(ctx, st, e.bound)
        return S.Let(e.var, e.ty, bound2, e.body, e.spawn), rule
    if isinstance(e, S.App):
        for k, a in enumerate(e.args):
            if not S.is_value(a):
                a2, rule = _reduce(ctx, st, a)
                args = e.args[:k] + (a2,) + e.args[k + 1:]
                return S.App(e.func, e.locargs, args), rule
        return _rule_app(ctx, st, e)
    if isinstance(e, S.DataCon):
        for k, f in enumerate(e.fields):
            if not S.is_value(f):
                f2, rule = _reduce(ctx, st, f)
                fields = e.fields[:k] + (f2,) + e.fields[k + 1:]
                return S.DataCon(e.tag, e.loc, e.region, fields), rule
        return _rule_datacon(ctx, st, e)
    if isinstance(e, S.PrimOp):
        if not S.is_value(e.lhs):
            l2, rule = _reduce(ctx, st, e.lhs)
            return S.PrimOp(e.op, l2, e.rhs), rule
        if not S.is_value(e.rhs):
            r2, rule = _reduce(ctx, st, e.rhs)
            return S.PrimOp(e.op, e.lhs, r2), rule
        return _rule_primop(e)
    if isinstance(e, S.Case):
        if not S.is_value(e.scrut):
            s2, rule = _reduce(ctx, st, e.scrut)
            return S.Case(s2, e.branches), rule
        return _rule_case(ctx, st, e)
    if isinstance(e, S.Var):
        raise SemanticsError("Stuck", f"free variable {e.name}")
    raise SemanticsError("Stuck", f"no rule for {e!r}")


def _rule_letregion(ctx: RunContext, st: SeqState, e: S.LetRegion) -> tuple[S.Expr, str]:
    r = ctx.supply.fresh(e.region)
    st.store = st.store.add_region(r)
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
        if isinstance(src.ext, Ivar):
            raise _Blocked(src.ext.name, "letloc")
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
            st.store = st.store.add_region(r_new)
            st.allocsites[r_new] = e.loc
            st.locmap[e.loc] = ConcreteLoc(e.region, Indirection(r_new, 0), e.loc)
            st.nursery.add(e.loc)
            st.constraints[e.loc] = le
            ctx.metrics["regions_created"] += 1
            ctx.metrics["extra_regions"] += 1
            return e.body, "D-LetLoc-After-NewReg"
        src = deref_concrete(src_cl)
        r_end, end = end_witness(ctx.decls, le.ty.tycon, src.region,
                                 src.ext.index, st.store)
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


def _resolve_links(st: SeqState, region: str, index: int) -> tuple[str, int]:
    """Follow indirection cells to where a value actually starts."""
    seen = set()
    while True:
        hv = st.store.cell(region, index)
        if not isinstance(hv, IndirectionCell):
            return region, index
        if (region, index) in seen:
            raise SemanticsError("Stuck", f"indirection cycle at ({region},{index})")
        seen.add((region, index))
        region, index = hv.region, hv.index


def _rule_datacon(ctx: RunContext, st: SeqState, e: S.DataCon) -> tuple[S.Expr, str]:
    target = deref_location(st.locmap, e.loc)
    if isinstance(target.ext, Ivar):
        raise _Blocked(target.ext.name, "datacon")
    for f in e.fields:
        if isinstance(f, S.ConcreteLocVal) and isinstance(f.loc.ext, Ivar):
            raise _Blocked(f.loc.ext.name, "datacon")
    ftys = ctx.decls.fields(e.tag)
    if len(ftys) != len(e.fields):
        raise SemanticsError("Stuck", f"arity mismatch constructing {e.tag}")
    r, i = target.region, target.ext.index
    st.store = write_cell(st.store, r, i, Tag(e.tag))
    ctx.metrics["cells_written"] += 1
    cur_r, cur = r, i + 1
    for fty, fv in zip(ftys, e.fields):
        if fty == "Int":
            if not isinstance(fv, S.IntLit):
                raise SemanticsError("Stuck", f"scalar field of {e.tag} not an integer")
            st.store = write_cell(st.store, cur_r, cur, Scalar(fv.value))
            ctx.metrics["cells_written"] += 1
            cur += 1
        else:
            # the field value was written earlier; the cell at the cursor is
            # either its first cell or an indirection stitched in by a join
            cur_r, cur = end_witness(ctx.decls, fty, cur_r, cur, st.store)
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
    if isinstance(cl.ext, Ivar):
        raise _Blocked(cl.ext.name, "case")
    r, i = _resolve_links(st, cl.region, cl.ext.index)
    hv = st.store.cell(r, i)
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
        fr, fi = _resolve_links(st, cur_r, cur)
        if fty == "Int":
            hv_f = st.store.cell(fr, fi)
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
        cur_r, cur = end_witness(ctx.decls, fty, cur_r, cur, st.store)
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
        res = step_seq(ctx, st)
        if isinstance(res, Value):
            return RunResult(res.value, st.store, st.locmap, ctx.metrics, st, rules)
        if isinstance(res, Blocked):
            raise SemanticsError("Stuck",
                                 f"sequential evaluation blocked on ivar {res.ivar}")
        if isinstance(res, Stuck):
            raise SemanticsError("Stuck", res.reason)
        rules.append(res.rule)
        if trace is not None:
            trace.append(_trace_line(len(rules), res.rule, st, res.state))
        st = res.state


def _trace_line(n: int, rule: str, before: SeqState, after: SeqState) -> str:
    deltas = []
    for r, heap in after.store.regions.items():
        old = before.store.regions.get(r)
        if old is None:
            deltas.append(f"+region {r}")
            old = {}
        for i in sorted(set(heap) - set(old)):
            hv = heap[i]
            if isinstance(hv, Tag):
                txt = hv.name
            elif isinstance(hv, Scalar):
                txt = str(hv.value)
            else:
                txt = f"→({hv.region},{hv.index})"
            deltas.append(f"{r}[{i}]={txt}")
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
    """Compare every cached value end against a fresh end-witness scan."""
    bad = []
    for (r, i), cached in st.frontier_notes.items():
        hv = st.store.cell(r, i)
        if not isinstance(hv, Tag):
            bad.append(f"({r},{i}): no tag under cached end")
            continue
        fresh = end_witness(decls, decls.tycon_of(hv.name), r, i, st.store)
        if fresh != cached:
            bad.append(f"({r},{i}): cached {cached}, scanned {fresh}")
    return bad
