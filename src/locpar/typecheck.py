"""Static semantics: expression and program typing.

The expression judgment threads two effect environments, the allocation sites
A (region -> location the next value in that region must be written at) and
the nursery N (locations allocated by letloc but not yet written).  Writing a
constructor or calling a function that writes its output location removes that
location from N and materializes it in Sigma; write-once cells fall out of the
requirement that every write target still be in N.

`typecheck_program` is the only static pass: it also builds the constructor
and function tables, with their declaration checks, and records main's type.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dcfield

from . import syntax as S
from .store import Decls


class LocTypeError(Exception):
    """A rejected program, tagged with an error class.

    codes: DoubleWrite, RegionAliasing, UnboundLocation,
    FieldConstraintMismatch, ArityMismatch, TypeMismatch.  The declaration
    checks (a duplicate datatype, constructor or function, a field,
    parameter or return type that names no datatype) use TypeMismatch, with
    no context.
    """

    def __init__(self, code: str, message: str, context: str = ""):
        where = f" [{context}]" if context else ""
        super().__init__(f"{code}: {message}{where}")
        self.code = code
        self.message = message
        self.context = context


@dataclass
class TypeState:
    """The five environments of one typing derivation."""

    gamma: dict[str, S.Type] = dcfield(default_factory=dict)
    sigma: dict[str, S.PackedType] = dcfield(default_factory=dict)
    constraints: dict[str, S.LocExpr] = dcfield(default_factory=dict)
    allocsites: dict[str, str | None] = dcfield(default_factory=dict)
    nursery: set[str] = dcfield(default_factory=set)

    def child(self, gamma=None, sigma=None, constraints=None) -> "TypeState":
        """Scoped extension: Gamma/Sigma/C are local, A and N keep threading."""
        return TypeState(gamma if gamma is not None else self.gamma,
                         sigma if sigma is not None else self.sigma,
                         constraints if constraints is not None else self.constraints,
                         self.allocsites, self.nursery)


Funs = dict[str, S.FunDecl]


@dataclass
class TypedProgram:
    program: S.Program
    decls: Decls
    main_type: S.Type


### helpers

def _located(ty: S.Type) -> S.PackedType | None:
    return ty if isinstance(ty, S.PackedType) and ty.tycon != "Int" else None


def _is_int(ty: S.Type) -> bool:
    return isinstance(ty, S.IntType) or (isinstance(ty, S.PackedType) and ty.tycon == "Int")


### expression typing

def _check(ts: TypeState, e: S.Expr, funs: Funs, decls: Decls, ctx: str) -> S.Type:
    if isinstance(e, S.IntLit):
        return S.INT
    if isinstance(e, S.Var):
        if e.name not in ts.gamma:
            raise LocTypeError("TypeMismatch", f"unbound variable {e.name}", ctx)
        return ts.gamma[e.name]
    if isinstance(e, S.PrimOp):
        for side in (e.lhs, e.rhs):
            t = _check(ts, side, funs, decls, ctx)
            if not _is_int(t):
                raise LocTypeError("TypeMismatch",
                                   f"operand of {e.op} has type {t}, expected Int", ctx)
        return S.INT
    if isinstance(e, S.App):
        return _check_app(ts, e, funs, decls, ctx)
    if isinstance(e, S.DataCon):
        return _check_datacon(ts, e, funs, decls, ctx)
    if isinstance(e, S.Let):
        t_bound = _check(ts, e.bound, funs, decls, ctx)
        if not _types_agree(e.ty, t_bound):
            raise LocTypeError("TypeMismatch",
                               f"let {e.var} declared {e.ty} but bound {t_bound}", ctx)
        gamma2 = dict(ts.gamma)
        gamma2[e.var] = e.ty
        sigma2 = ts.sigma
        lt = _located(e.ty)
        if lt is not None:
            sigma2 = dict(ts.sigma)
            sigma2[lt.loc] = lt
        return _check(ts.child(gamma=gamma2, sigma=sigma2), e.body, funs, decls, ctx)
    if isinstance(e, S.LetLoc):
        return _check_letloc(ts, e, funs, decls, ctx)
    if isinstance(e, S.LetRegion):
        if e.region in ts.allocsites:
            raise LocTypeError("TypeMismatch", f"region {e.region} already bound", ctx)
        ts.allocsites[e.region] = None
        ty = _check(ts, e.body, funs, decls, ctx)
        ts.allocsites.pop(e.region, None)
        return ty
    if isinstance(e, S.Case):
        return _check_case(ts, e, funs, decls, ctx)
    raise LocTypeError("TypeMismatch", f"unexpected expression {e!r}", ctx)


def _types_agree(declared: S.Type, actual: S.Type) -> bool:
    if _is_int(declared) and _is_int(actual):
        return True
    if isinstance(declared, S.PackedType) and isinstance(actual, S.PackedType):
        return (declared.tycon == actual.tycon and declared.loc == actual.loc
                and declared.region == actual.region)
    return False


def _check_letloc(ts: TypeState, e: S.LetLoc, funs: Funs, decls: Decls,
                  ctx: str) -> S.Type:
    if e.region not in ts.allocsites:
        raise LocTypeError("UnboundLocation",
                           f"letloc {e.loc}: region {e.region} is not allocatable here", ctx)
    if e.loc in ts.sigma or e.loc in ts.nursery:
        raise LocTypeError("TypeMismatch", f"location {e.loc} already introduced", ctx)
    le = e.locexpr
    site = ts.allocsites[e.region]
    if isinstance(le, S.StartOfRegion):
        if le.region != e.region:
            raise LocTypeError("FieldConstraintMismatch",
                               f"start {le.region} used for a location in {e.region}", ctx)
        if site is not None:
            raise LocTypeError("FieldConstraintMismatch",
                               f"region {e.region} already has allocations", ctx)
    elif isinstance(le, S.AfterTag):
        if le.region != e.region or site != le.loc:
            raise LocTypeError("FieldConstraintMismatch",
                               f"{le.loc}@{le.region} + 1 does not extend the "
                               f"allocation site of {e.region}", ctx)
        if le.loc not in ts.nursery and le.loc not in ts.sigma:
            raise LocTypeError("UnboundLocation", f"location {le.loc} unknown", ctx)
    else:
        src = le.ty
        if src.region != e.region or site != src.loc:
            raise LocTypeError("FieldConstraintMismatch",
                               f"after({src}) does not extend the allocation "
                               f"site of {e.region}", ctx)
        known = ts.sigma.get(src.loc)
        if known is None:
            raise LocTypeError("UnboundLocation",
                               f"after() source {src.loc} not materialized", ctx)
        if known.tycon != src.tycon:
            raise LocTypeError("TypeMismatch",
                               f"after() expects {src.tycon} at {src.loc}, "
                               f"found {known.tycon}", ctx)
    constraints2 = dict(ts.constraints)
    constraints2[e.loc] = le
    ts.allocsites[e.region] = e.loc
    ts.nursery.add(e.loc)
    return _check(ts.child(constraints=constraints2), e.body, funs, decls, ctx)


def _value_location(ts: TypeState, v: S.Expr, ctx: str) -> S.PackedType:
    """The located type of a value expression used as a field or argument."""
    if isinstance(v, S.Var):
        t = ts.gamma.get(v.name)
        if t is None:
            raise LocTypeError("TypeMismatch", f"unbound variable {v.name}", ctx)
        lt = _located(t)
        if lt is None:
            raise LocTypeError("TypeMismatch", f"{v.name} is not a packed value", ctx)
        return lt
    raise LocTypeError("TypeMismatch", f"expected a packed value, got {v!r}", ctx)


def _check_datacon(ts: TypeState, e: S.DataCon, funs: Funs, decls: Decls,
                   ctx: str) -> S.Type:
    if e.tag not in decls.constructors:
        raise LocTypeError("TypeMismatch", f"unknown constructor {e.tag}", ctx)
    tycon = decls.tycon_of(e.tag)
    ftys = decls.fields(e.tag)
    if len(ftys) != len(e.fields):
        raise LocTypeError("ArityMismatch",
                           f"{e.tag} takes {len(ftys)} fields, given {len(e.fields)}", ctx)
    if e.loc not in ts.nursery:
        if e.loc in ts.sigma:
            raise LocTypeError("DoubleWrite", f"location {e.loc} already written", ctx)
        raise LocTypeError("UnboundLocation", f"location {e.loc} was never allocated", ctx)
    prev: tuple[str, str] | None = None  # (field type, loc) of previous located field
    seen_scalar = False
    for k, (fty, fv) in enumerate(zip(ftys, e.fields)):
        if fty == "Int":
            t = _check(ts, fv, funs, decls, ctx)
            if not _is_int(t):
                raise LocTypeError("TypeMismatch",
                                   f"field {k + 1} of {e.tag} must be Int, got {t}", ctx)
            seen_scalar = True
            continue
        if seen_scalar:
            raise LocTypeError("FieldConstraintMismatch",
                               f"packed field after scalar field in {e.tag} "
                               "is not supported", ctx)
        lt = _value_location(ts, fv, ctx)
        if lt.tycon != fty:
            raise LocTypeError("TypeMismatch",
                               f"field {k + 1} of {e.tag} must be {fty}, got {lt.tycon}", ctx)
        con = ts.constraints.get(lt.loc)
        if prev is None:
            want: S.LocExpr = S.AfterTag(e.loc, e.region)
        else:
            want = S.AfterValue(S.PackedType(prev[0], prev[1], e.region))
        if con != want:
            raise LocTypeError("FieldConstraintMismatch",
                               f"field {k + 1} of {e.tag} at {lt.loc} must satisfy "
                               f"{S._fmt_locexpr(want)}, found "
                               f"{S._fmt_locexpr(con) if con else 'no constraint'}", ctx)
        prev = (fty, lt.loc)
    ts.nursery.discard(e.loc)
    ts.allocsites[e.region] = e.loc
    return S.PackedType(tycon, e.loc, e.region)


def _check_app(ts: TypeState, e: S.App, funs: Funs, decls: Decls, ctx: str) -> S.Type:
    fd = funs.get(e.func)
    if fd is None:
        raise LocTypeError("TypeMismatch", f"unknown function {e.func}", ctx)
    if len(e.locargs) != len(fd.locparams):
        raise LocTypeError("ArityMismatch",
                           f"{e.func} takes {len(fd.locparams)} location arguments, "
                           f"given {len(e.locargs)}", ctx)
    if len(e.args) != len(fd.params):
        raise LocTypeError("ArityMismatch",
                           f"{e.func} takes {len(fd.params)} arguments, "
                           f"given {len(e.args)}", ctx)
    lm = {l: al for (l, _), (al, _) in zip(fd.locparams, e.locargs)}
    rm = {r: ar for (_, r), (_, ar) in zip(fd.locparams, e.locargs)}
    in_regions = {rm[lt.region] for _, pty in fd.params
                  if (lt := _located(pty)) is not None}
    ret = _located(fd.ret)
    out_regions = {rm[ret.region]} if ret is not None else set()
    overlap = in_regions & out_regions
    if overlap:
        raise LocTypeError("RegionAliasing",
                           f"{e.func} called with input and output in the same "
                           f"region {sorted(overlap)[0]}", ctx)
    for (pname, pty), arg in zip(fd.params, e.args):
        lt = _located(pty)
        if lt is None:
            t = _check(ts, arg, funs, decls, ctx)
            if not _is_int(t):
                raise LocTypeError("TypeMismatch",
                                   f"argument {pname} of {e.func} must be Int, got {t}", ctx)
            continue
        want_loc, want_reg = lm[lt.loc], rm[lt.region]
        alt = _value_location(ts, arg, ctx)
        if alt.tycon != lt.tycon or alt.loc != want_loc or alt.region != want_reg:
            raise LocTypeError("TypeMismatch",
                               f"argument {pname} of {e.func} must be "
                               f"{lt.tycon}@{want_loc}@{want_reg}, got {alt}", ctx)
    if ret is None:
        return S.INT
    out_loc, out_reg = lm[ret.loc], rm[ret.region]
    if out_reg not in ts.allocsites:
        raise LocTypeError("UnboundLocation",
                           f"output region {out_reg} is not allocatable here", ctx)
    if out_loc not in ts.nursery:
        if out_loc in ts.sigma:
            raise LocTypeError("DoubleWrite", f"location {out_loc} already written", ctx)
        raise LocTypeError("UnboundLocation", f"location {out_loc} was never allocated", ctx)
    if ts.allocsites[out_reg] != out_loc:
        raise LocTypeError("FieldConstraintMismatch",
                           f"{e.func} writes {out_loc} but the allocation site of "
                           f"{out_reg} is {ts.allocsites[out_reg]}", ctx)
    ts.nursery.discard(out_loc)
    ts.allocsites[out_reg] = out_loc
    return S.PackedType(ret.tycon, out_loc, out_reg)


def _check_case(ts: TypeState, e: S.Case, funs: Funs, decls: Decls, ctx: str) -> S.Type:
    t_scrut = _check(ts, e.scrut, funs, decls, ctx)
    base_sites = dict(ts.allocsites)
    base_nursery = set(ts.nursery)
    results: list[tuple[S.Type, dict, set]] = []

    def run_branch(ts_b: TypeState, body: S.Expr) -> None:
        ty = _check(ts_b, body, funs, decls, ctx)
        results.append((ty, ts_b.allocsites, ts_b.nursery))

    if _is_int(t_scrut) and not isinstance(t_scrut, S.PackedType):
        for b in e.branches:
            if isinstance(b, S.ConBranch):
                raise LocTypeError("TypeMismatch",
                                   "constructor pattern on a scalar scrutinee", ctx)
            ts_b = TypeState(ts.gamma, ts.sigma, ts.constraints,
                             dict(base_sites), set(base_nursery))
            run_branch(ts_b, b.body)
    else:
        if not isinstance(t_scrut, S.PackedType):
            raise LocTypeError("TypeMismatch", f"cannot case on {t_scrut}", ctx)
        scrut_tycon, scrut_loc, scrut_reg = t_scrut.tycon, t_scrut.loc, t_scrut.region
        for b in e.branches:
            gamma2 = dict(ts.gamma)
            sigma2 = dict(ts.sigma)
            cons2 = dict(ts.constraints)
            if isinstance(b, S.IntBranch):
                raise LocTypeError("TypeMismatch",
                                   "integer pattern on a packed scrutinee", ctx)
            if isinstance(b, S.ConBranch):
                if b.tag not in decls.constructors \
                        or decls.tycon_of(b.tag) != scrut_tycon:
                    raise LocTypeError("TypeMismatch",
                                       f"{b.tag} is not a constructor of {scrut_tycon}", ctx)
                ftys = decls.fields(b.tag)
                if len(ftys) != len(b.fields):
                    raise LocTypeError("ArityMismatch",
                                       f"{b.tag} has {len(ftys)} fields, pattern "
                                       f"binds {len(b.fields)}", ctx)
                prev: tuple[str, str] | None = None
                for k, (fty, (x, xty)) in enumerate(zip(ftys, b.fields)):
                    if not isinstance(xty, S.PackedType) or xty.tycon != fty:
                        raise LocTypeError("TypeMismatch",
                                           f"pattern field {k + 1} of {b.tag} must be "
                                           f"{fty}, annotated {xty}", ctx)
                    gamma2[x] = S.INT if fty == "Int" else xty
                    sigma2[xty.loc] = xty
                    if prev is None:
                        cons2[xty.loc] = S.AfterTag(scrut_loc, scrut_reg)
                    else:
                        cons2[xty.loc] = S.AfterValue(
                            S.PackedType(prev[0], prev[1], scrut_reg))
                    prev = (fty, xty.loc)
            ts_b = TypeState(gamma2, sigma2, cons2, dict(base_sites), set(base_nursery))
            run_branch(ts_b, b.body)

    if not results:
        raise LocTypeError("TypeMismatch", "case with no branches", ctx)
    ty0, sites0, nur0 = results[0]
    for ty, sites, nur in results[1:]:
        if not _types_agree(ty0, ty) or sites != sites0 or nur != nur0:
            raise LocTypeError("TypeMismatch",
                               "case branches disagree on type or allocation effects", ctx)
    ts.allocsites.clear()
    ts.allocsites.update(sites0)
    ts.nursery.clear()
    ts.nursery.update(nur0)
    return ty0


### program typing

def typecheck_program(p: S.Program) -> TypedProgram:
    decls, funs = _tables(p)
    for fd in p.fundecls:
        _check_fundecl(fd, funs, decls)
    ts = TypeState(allocsites={"r%main": None}, nursery={"l%main"},
                   constraints={"l%main": S.StartOfRegion("r%main")})
    return TypedProgram(p, decls, _check(ts, p.main, funs, decls, "main"))


def _tables(p: S.Program) -> tuple[Decls, Funs]:
    """The constructor and function tables, with every name declared once
    and every field, parameter and return type an `Int` or a declared
    datatype."""
    cons: dict[str, tuple[str, list[str]]] = {}
    tycons: set[str] = set()
    for dd in p.datadecls:
        if dd.tycon in tycons:
            raise LocTypeError("TypeMismatch", f"duplicate datatype {dd.tycon}")
        tycons.add(dd.tycon)
        for tag, ftys in dd.constructors:
            if tag in cons:
                raise LocTypeError("TypeMismatch", f"duplicate constructor {tag}")
            cons[tag] = (dd.tycon, list(ftys))
    named = [(fty, f"constructor {tag}") for tag, (_, ftys) in cons.items()
             for fty in ftys]
    named += [(ty.tycon, f"function {fd.name}") for fd in p.fundecls
              for ty in (*(ty for _, ty in fd.params), fd.ret)
              if isinstance(ty, S.PackedType)]
    for tycon, where in named:
        if tycon != "Int" and tycon not in tycons:
            raise LocTypeError("TypeMismatch", f"unknown type {tycon} in {where}")
    funs: Funs = {}
    for fd in p.fundecls:
        if fd.name in funs:
            raise LocTypeError("TypeMismatch", f"duplicate function {fd.name}")
        funs[fd.name] = fd
    return Decls(cons), funs


def _check_fundecl(fd: S.FunDecl, funs: Funs, decls: Decls) -> None:
    ctx = f"function {fd.name}"
    gamma: dict[str, S.Type] = {}
    sigma: dict[str, S.PackedType] = {}
    declared_locs = {l for l, _ in fd.locparams}
    for x, ty in fd.params:
        gamma[x] = ty
        lt = _located(ty)
        if lt is not None:
            if lt.loc not in declared_locs:
                raise LocTypeError("UnboundLocation",
                                   f"argument location {lt.loc} not in location "
                                   f"parameters", ctx)
            sigma[lt.loc] = lt
    allocsites: dict[str, str | None] = {}
    nursery: set[str] = set()
    ret = _located(fd.ret)
    if ret is not None:
        if ret.loc not in declared_locs:
            raise LocTypeError("UnboundLocation",
                               f"return location {ret.loc} not in location parameters", ctx)
        allocsites[ret.region] = ret.loc
        nursery.add(ret.loc)
    ts = TypeState(gamma, sigma, {}, allocsites, nursery)
    ty = _check(ts, fd.body, funs, decls, ctx)
    if not _types_agree(fd.ret, ty):
        raise LocTypeError("TypeMismatch",
                           f"{fd.name} declared to return {fd.ret}, body has {ty}", ctx)
    if ret is not None and ret.loc in ts.nursery:
        raise LocTypeError("TypeMismatch",
                           f"{fd.name} never writes its output location {ret.loc}", ctx)

