"""Abstract syntax, concrete `.lcp` format, printing, freshening, substitution.

Programs are fully location-annotated: every allocating expression names the
location and region it writes to, and locations are introduced relative to
existing ones (start of region, one past a tag, after a whole value).
Constructor names start with an upper-case letter; variables, functions,
locations, and regions start lower-case.  `--` begins a line comment.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .store import ConcreteLoc, Ivar, Decls


### types

@dataclass(frozen=True)
class IntType:
    def __str__(self) -> str:
        return "Int"


@dataclass(frozen=True)
class PackedType:
    tycon: str
    loc: str
    region: str

    def __str__(self) -> str:
        return f"{self.tycon}@{self.loc}@{self.region}"


Type = IntType | PackedType

INT = IntType()


### location expressions

@dataclass(frozen=True)
class StartOfRegion:
    region: str


@dataclass(frozen=True)
class AfterTag:
    loc: str
    region: str


@dataclass(frozen=True)
class AfterValue:
    ty: PackedType


LocExpr = StartOfRegion | AfterTag | AfterValue


### expressions

@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class IntLit:
    value: int


@dataclass(frozen=True)
class ConcreteLocVal:
    loc: ConcreteLoc


@dataclass(frozen=True)
class PrimOp:
    op: str  # one of + - * <= ==
    lhs: "Expr"
    rhs: "Expr"


@dataclass(frozen=True)
class App:
    func: str
    locargs: tuple[tuple[str, str], ...]  # (loc, region) pairs
    args: tuple["Expr", ...]


@dataclass(frozen=True)
class DataCon:
    tag: str
    loc: str
    region: str
    fields: tuple["Expr", ...]


@dataclass(frozen=True)
class Let:
    var: str
    ty: Type
    bound: "Expr"
    body: "Expr"
    spawn: bool = False


@dataclass(frozen=True)
class LetLoc:
    loc: str
    region: str
    locexpr: LocExpr
    body: "Expr"


@dataclass(frozen=True)
class LetRegion:
    region: str
    body: "Expr"


@dataclass(frozen=True)
class ConBranch:
    tag: str
    fields: tuple[tuple[str, Type], ...]  # (var, located type) per field
    body: "Expr"


@dataclass(frozen=True)
class IntBranch:
    value: int
    body: "Expr"


@dataclass(frozen=True)
class DefaultBranch:
    body: "Expr"


Branch = ConBranch | IntBranch | DefaultBranch


@dataclass(frozen=True)
class Case:
    scrut: "Expr"
    branches: tuple[Branch, ...]


Expr = (Var | IntLit | ConcreteLocVal | PrimOp | App | DataCon
        | Let | LetLoc | LetRegion | Case)


def is_value(e: Expr) -> bool:
    return isinstance(e, (IntLit, ConcreteLocVal))


### declarations

@dataclass(frozen=True)
class DataDecl:
    tycon: str
    constructors: tuple[tuple[str, tuple[str, ...]], ...]  # (tag, field type names)


@dataclass(frozen=True)
class FunDecl:
    name: str
    locparams: tuple[tuple[str, str], ...]  # (loc, region) pairs
    params: tuple[tuple[str, Type], ...]
    ret: Type
    body: Expr


@dataclass(frozen=True)
class Program:
    datadecls: tuple[DataDecl, ...]
    fundecls: tuple[FunDecl, ...]
    main: Expr

    def decls(self) -> Decls:
        cons: dict[str, tuple[str, list[str]]] = {}
        for dd in self.datadecls:
            for tag, ftys in dd.constructors:
                cons[tag] = (dd.tycon, list(ftys))
        return Decls(cons)

    def fundecl(self, name: str) -> FunDecl:
        for fd in self.fundecls:
            if fd.name == name:
                return fd
        raise KeyError(name)


### errors

class SyntaxErrorLC(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.msg = message
        self.line = line
        self.col = col


### lexer

@dataclass
class Token:
    kind: str  # 'id' | 'conid' | 'int' | 'sym' | 'eof'
    text: str
    line: int
    col: int


_SYMBOLS = ["->", "<=", "==", "(", ")", "{", "}", "[", "]",
            "@", "=", ":", ";", ",", "+", "-", "*", "_", "|"]

_KEYWORDS = {"data", "fun", "main", "let", "letloc", "letregion", "in",
             "case", "of", "spawn", "start", "after", "Int"}


def _lex(text: str) -> list[Token]:
    toks: list[Token] = []
    line, col, i, n = 1, 1, 0, len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if text.startswith("--", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c.isdigit() or (c == "-" and i + 1 < n and text[i + 1].isdigit()):
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            toks.append(Token("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_" and i + 1 < n and (text[i + 1].isalnum() or text[i + 1] == "_"):
            j = i
            while j < n and (text[j].isalnum() or text[j] in "_%'"):
                j += 1
            word = text[i:j]
            kind = "conid" if word[0].isupper() else "id"
            toks.append(Token(kind, word, line, col))
            col += j - i
            i = j
            continue
        matched = None
        for sym in _SYMBOLS:
            if text.startswith(sym, i):
                matched = sym
                break
        if matched is None:
            raise SyntaxErrorLC(f"unexpected character {c!r}", line, col)
        toks.append(Token("sym", matched, line, col))
        i += len(matched)
        col += len(matched)
    toks.append(Token("eof", "", line, col))
    return toks


### parser

class _Parser:
    def __init__(self, text: str):
        self.toks = _lex(text)
        self.pos = 0

    def peek(self) -> Token:
        return self.toks[self.pos]

    def next(self) -> Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def err(self, msg: str) -> SyntaxErrorLC:
        t = self.peek()
        return SyntaxErrorLC(msg + (f", got {t.text!r}" if t.text else ", got end of input"),
                             t.line, t.col)

    def expect(self, text: str) -> Token:
        t = self.peek()
        if t.text != text:
            raise self.err(f"expected {text!r}")
        return self.next()

    def ident(self) -> str:
        t = self.peek()
        if t.kind != "id" or t.text in _KEYWORDS:
            raise self.err("expected identifier")
        return self.next().text

    def conid(self) -> str:
        t = self.peek()
        if t.kind != "conid":
            raise self.err("expected constructor name")
        return self.next().text

    ### top level

    def program(self) -> Program:
        datadecls: list[DataDecl] = []
        fundecls: list[FunDecl] = []
        main: Expr | None = None
        while self.peek().kind != "eof":
            t = self.peek()
            if t.text == "data":
                datadecls.append(self.datadecl())
            elif t.text == "fun":
                fundecls.append(self.fundecl())
            elif t.text == "main":
                self.next()
                self.expect("=")
                main = self.expr()
            else:
                raise self.err("expected 'data', 'fun' or 'main'")
        if main is None:
            raise self.err("program has no main")
        p = Program(tuple(datadecls), tuple(fundecls), main)
        _check_decls(p)
        return p

    def datadecl(self) -> DataDecl:
        self.expect("data")
        tycon = self.conid()
        self.expect("=")
        cons = [self.condef()]
        while self.peek().text == "|":
            self.next()
            cons.append(self.condef())
        return DataDecl(tycon, tuple(cons))

    def condef(self) -> tuple[str, tuple[str, ...]]:
        tag = self.conid()
        ftys: list[str] = []
        while self.peek().kind == "conid" or self.peek().text == "Int":
            t = self.next()
            ftys.append("Int" if t.text == "Int" else t.text)
        return tag, tuple(ftys)

    def fundecl(self) -> FunDecl:
        self.expect("fun")
        name = self.ident()
        self.expect("[")
        locparams = []
        while self.peek().text != "]":
            if self.peek().text == ",":
                self.next()
                continue
            locparams.append(self.locreg())
        self.expect("]")
        self.expect("(")
        params = []
        while self.peek().text != ")":
            if self.peek().text == ",":
                self.next()
                continue
            pname = self.ident()
            self.expect(":")
            params.append((pname, self.type_()))
        self.expect(")")
        self.expect(":")
        ret = self.type_()
        self.expect("=")
        body = self.expr()
        return FunDecl(name, tuple(locparams), tuple(params), ret, body)

    def locreg(self) -> tuple[str, str]:
        l = self.ident()
        self.expect("@")
        r = self.ident()
        return l, r

    def type_(self) -> Type:
        t = self.peek()
        if t.text == "Int":
            self.next()
            # scalars in patterns carry a location too: Int@l@r
            if self.peek().text == "@":
                self.next()
                l = self.ident()
                self.expect("@")
                return PackedType("Int", l, self.ident())
            return INT
        tycon = self.conid()
        self.expect("@")
        l = self.ident()
        self.expect("@")
        r = self.ident()
        return PackedType(tycon, l, r)

    ### expressions

    def expr(self) -> Expr:
        t = self.peek()
        if t.text == "letregion":
            self.next()
            r = self.ident()
            self.expect("in")
            return LetRegion(r, self.expr())
        if t.text == "letloc":
            self.next()
            l, r = self.locreg()
            self.expect("=")
            le = self.locexpr()
            self.expect("in")
            return LetLoc(l, r, le, self.expr())
        if t.text == "let":
            self.next()
            x = self.ident()
            self.expect(":")
            ty = self.type_()
            self.expect("=")
            spawn = False
            if self.peek().text == "spawn":
                self.next()
                spawn = True
            bound = self.expr()
            self.expect("in")
            return Let(x, ty, bound, self.expr(), spawn)
        if t.text == "case":
            return self.case_()
        return self.cmpexpr()

    def locexpr(self) -> LocExpr:
        t = self.peek()
        if t.text == "start":
            self.next()
            return StartOfRegion(self.ident())
        if t.text == "after":
            self.next()
            self.expect("(")
            ty = self.type_()
            self.expect(")")
            if not isinstance(ty, PackedType):
                raise self.err("after() needs a located type")
            return AfterValue(ty)
        l, r = self.locreg()
        self.expect("+")
        one = self.next()
        if one.text != "1":
            raise SyntaxErrorLC("only l@r + 1 is a valid location expression",
                                one.line, one.col)
        return AfterTag(l, r)

    def case_(self) -> Case:
        self.expect("case")
        scrut = self.cmpexpr()
        self.expect("of")
        self.expect("{")
        branches = [self.branch()]
        while self.peek().text == ";":
            self.next()
            branches.append(self.branch())
        self.expect("}")
        return Case(scrut, tuple(branches))

    def branch(self) -> Branch:
        t = self.peek()
        if t.kind == "int":
            v = int(self.next().text)
            self.expect("->")
            return IntBranch(v, self.expr())
        if t.text == "_":
            self.next()
            self.expect("->")
            return DefaultBranch(self.expr())
        tag = self.conid()
        fields: list[tuple[str, Type]] = []
        while self.peek().text == "(":
            self.next()
            x = self.ident()
            self.expect(":")
            ty = self.type_()
            self.expect(")")
            fields.append((x, ty))
        self.expect("->")
        return ConBranch(tag, tuple(fields), self.expr())

    def cmpexpr(self) -> Expr:
        e = self.addexpr()
        if self.peek().text in ("<=", "=="):
            op = self.next().text
            return PrimOp(op, e, self.addexpr())
        return e

    def addexpr(self) -> Expr:
        e = self.mulexpr()
        while self.peek().text in ("+", "-"):
            op = self.next().text
            e = PrimOp(op, e, self.mulexpr())
        return e

    def mulexpr(self) -> Expr:
        e = self.atom()
        while self.peek().text == "*":
            self.next()
            e = PrimOp("*", e, self.atom())
        return e

    def atom(self) -> Expr:
        t = self.peek()
        if t.kind == "int":
            return IntLit(int(self.next().text))
        if t.kind == "id" and t.text not in _KEYWORDS:
            return Var(self.next().text)
        if t.text == "(":
            self.next()
            inner = self.paren_body()
            self.expect(")")
            return inner
        raise self.err("expected an expression")

    def paren_body(self) -> Expr:
        t = self.peek()
        if t.kind == "conid":
            # constructor application: (Tag l@r field ...)
            tag = self.conid()
            l, r = self.locreg()
            fields: list[Expr] = []
            while self.peek().text != ")":
                fields.append(self.atom())
            return DataCon(tag, l, r, tuple(fields))
        if t.kind == "id" and t.text not in _KEYWORDS and self.toks[self.pos + 1].text == "[":
            # function application: (f [l@r, ...] arg ...)
            fname = self.ident()
            self.expect("[")
            locargs = []
            while self.peek().text != "]":
                if self.peek().text == ",":
                    self.next()
                    continue
                locargs.append(self.locreg())
            self.expect("]")
            args: list[Expr] = []
            while self.peek().text != ")":
                args.append(self.atom())
            return App(fname, tuple(locargs), tuple(args))
        return self.expr()


def _check_decls(p: Program) -> None:
    """Name hygiene over declarations; reported as syntax-level errors."""
    tycons: set[str] = set()
    tags: dict[str, str] = {}
    for dd in p.datadecls:
        if dd.tycon in tycons:
            raise SyntaxErrorLC(f"duplicate datatype {dd.tycon}", 0, 0)
        tycons.add(dd.tycon)
        for tag, _ in dd.constructors:
            if tag in tags:
                raise SyntaxErrorLC(f"duplicate constructor {tag}", 0, 0)
            tags[tag] = dd.tycon
    for dd in p.datadecls:
        for tag, ftys in dd.constructors:
            for fty in ftys:
                if fty != "Int" and fty not in tycons:
                    raise SyntaxErrorLC(f"unknown type {fty} in constructor {tag}", 0, 0)
    fnames: set[str] = set()
    for fd in p.fundecls:
        if fd.name in fnames:
            raise SyntaxErrorLC(f"duplicate function {fd.name}", 0, 0)
        fnames.add(fd.name)

    def walk(e: Expr) -> None:
        if isinstance(e, DataCon):
            if e.tag not in tags:
                raise SyntaxErrorLC(f"unknown constructor {e.tag}", 0, 0)
            for f in e.fields:
                walk(f)
        elif isinstance(e, Case):
            walk(e.scrut)
            for b in e.branches:
                if isinstance(b, ConBranch) and b.tag not in tags:
                    raise SyntaxErrorLC(f"unknown constructor {b.tag}", 0, 0)
                walk(b.body)
        elif isinstance(e, PrimOp):
            walk(e.lhs)
            walk(e.rhs)
        elif isinstance(e, App):
            for a in e.args:
                walk(a)
        elif isinstance(e, Let):
            walk(e.bound)
            walk(e.body)
        elif isinstance(e, (LetLoc, LetRegion)):
            walk(e.body)

    for fd in p.fundecls:
        walk(fd.body)
    walk(p.main)


def parse_program(text: str) -> Program:
    return _Parser(text).program()


def parse_expr(text: str) -> Expr:
    p = _Parser(text)
    e = p.expr()
    if p.peek().kind != "eof":
        raise p.err("trailing input")
    return e


### printing

def _fmt_locexpr(le: LocExpr) -> str:
    if isinstance(le, StartOfRegion):
        return f"start {le.region}"
    if isinstance(le, AfterTag):
        return f"{le.loc}@{le.region} + 1"
    return f"after({le.ty})"


def print_expr(e: Expr, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(e, LetRegion):
        return f"{pad}letregion {e.region} in\n{print_expr(e.body, indent)}"
    if isinstance(e, LetLoc):
        return (f"{pad}letloc {e.loc}@{e.region} = {_fmt_locexpr(e.locexpr)} in\n"
                f"{print_expr(e.body, indent)}")
    if isinstance(e, Let):
        spawn = "spawn " if e.spawn else ""
        return (f"{pad}let {e.var} : {e.ty} = {spawn}{_inline(e.bound)} in\n"
                f"{print_expr(e.body, indent)}")
    if isinstance(e, Case):
        lines = [f"{pad}case {_inline(e.scrut)} of {{"]
        for k, b in enumerate(e.branches):
            sep = "  " if k == 0 else "; "
            if isinstance(b, ConBranch):
                pats = "".join(f" ({x} : {ty})" for x, ty in b.fields)
                head = f"{b.tag}{pats}"
            elif isinstance(b, IntBranch):
                head = str(b.value)
            else:
                head = "_"
            lines.append(f"{pad}{sep}{head} ->\n{print_expr(b.body, indent + 2)}")
        lines.append(f"{pad}}}")
        return "\n".join(lines)
    return pad + _inline(e)


def _inline(e: Expr) -> str:
    if isinstance(e, Var):
        return e.name
    if isinstance(e, IntLit):
        return str(e.value)
    if isinstance(e, ConcreteLocVal):
        return f"<{e.loc.region},{e.loc.ext}>"
    if isinstance(e, PrimOp):
        return f"({_inline(e.lhs)} {e.op} {_inline(e.rhs)})"
    if isinstance(e, DataCon):
        parts = [e.tag, f"{e.loc}@{e.region}"] + [_inline(f) for f in e.fields]
        return "(" + " ".join(parts) + ")"
    if isinstance(e, App):
        locs = ", ".join(f"{l}@{r}" for l, r in e.locargs)
        parts = [e.func, f"[{locs}]"] + [_inline(a) for a in e.args]
        return "(" + " ".join(parts) + ")"
    # let-forms nested in an expression position print on one line via parens
    return "(" + " ".join(print_expr(e).split()) + ")"


def print_program(p: Program) -> str:
    lines: list[str] = []
    for dd in p.datadecls:
        rhs = " | ".join(" ".join([tag] + list(ftys)) for tag, ftys in dd.constructors)
        lines.append(f"data {dd.tycon} = {rhs}")
        lines.append("")
    for fd in p.fundecls:
        locs = ", ".join(f"{l}@{r}" for l, r in fd.locparams)
        params = ", ".join(f"{x} : {ty}" for x, ty in fd.params)
        lines.append(f"fun {fd.name} [{locs}] ({params}) : {fd.ret} =")
        lines.append(print_expr(fd.body, 1))
        lines.append("")
    lines.append("main =")
    lines.append(print_expr(p.main, 1))
    lines.append("")
    return "\n".join(lines)


### fresh names

class NameSupply:
    """Deterministic fresh-name source; evaluation runs carry their own."""

    def __init__(self) -> None:
        self.n = 0

    def fresh(self, base: str) -> str:
        base = base.split("%", 1)[0]
        name = f"{base}%{self.n}"
        self.n += 1
        return name


### substitution

def substitute(e: Expr,
               var_map: dict[str, Expr] | None = None,
               loc_map: dict[str, str] | None = None,
               reg_map: dict[str, str] | None = None,
               ivar_map: dict[str, ConcreteLoc] | None = None) -> Expr:
    """Simultaneous capture-avoiding substitution.

    var_map sends variables to value expressions, loc_map and reg_map rename
    symbolic locations and regions, and ivar_map resolves ivars inside
    concrete-location values: each takes the region and extended index of
    the address its ivar maps to, and keeps its own origin.
    """
    vm = dict(var_map or {})
    lm = dict(loc_map or {})
    rm = dict(reg_map or {})
    im = dict(ivar_map or {})
    if not (vm or lm or rm or im):
        return e
    return _subst(e, vm, lm, rm, im)


def _subst_ty(ty: Type, lm: dict[str, str], rm: dict[str, str]) -> Type:
    if isinstance(ty, PackedType) and (ty.loc in lm or ty.region in rm):
        return PackedType(ty.tycon, lm.get(ty.loc, ty.loc), rm.get(ty.region, ty.region))
    return ty


def _subst_cl(cl: ConcreteLoc, im: dict[str, ConcreteLoc]) -> ConcreteLoc:
    if isinstance(cl.ext, Ivar) and cl.ext.name in im:
        to = im[cl.ext.name]
        return ConcreteLoc(to.region, to.ext, cl.origin)
    return cl


def _subst(e: Expr, vm: dict[str, Expr], lm: dict[str, str],
           rm: dict[str, str], im: dict[str, ConcreteLoc]) -> Expr:
    if isinstance(e, Var):
        return vm.get(e.name, e)
    if isinstance(e, IntLit):
        return e
    if isinstance(e, ConcreteLocVal):
        return ConcreteLocVal(_subst_cl(e.loc, im))
    if isinstance(e, PrimOp):
        return PrimOp(e.op, _subst(e.lhs, vm, lm, rm, im), _subst(e.rhs, vm, lm, rm, im))
    if isinstance(e, App):
        locargs = tuple((lm.get(l, l), rm.get(r, r)) for l, r in e.locargs)
        return App(e.func, locargs, tuple(_subst(a, vm, lm, rm, im) for a in e.args))
    if isinstance(e, DataCon):
        return DataCon(e.tag, lm.get(e.loc, e.loc), rm.get(e.region, e.region),
                       tuple(_subst(f, vm, lm, rm, im) for f in e.fields))
    if isinstance(e, Let):
        bound = _subst(e.bound, vm, lm, rm, im)
        vm2 = {k: v for k, v in vm.items() if k != e.var}
        return Let(e.var, _subst_ty(e.ty, lm, rm), bound,
                   _subst(e.body, vm2, lm, rm, im), e.spawn)
    if isinstance(e, LetLoc):
        le = e.locexpr
        if isinstance(le, StartOfRegion):
            le = StartOfRegion(rm.get(le.region, le.region))
        elif isinstance(le, AfterTag):
            le = AfterTag(lm.get(le.loc, le.loc), rm.get(le.region, le.region))
        else:
            le = AfterValue(_subst_ty(le.ty, lm, rm))  # type: ignore[arg-type]
        lm2 = {k: v for k, v in lm.items() if k != e.loc}
        return LetLoc(e.loc, rm.get(e.region, e.region), le,
                      _subst(e.body, vm, lm2, rm, im))
    if isinstance(e, LetRegion):
        rm2 = {k: v for k, v in rm.items() if k != e.region}
        return LetRegion(e.region, _subst(e.body, vm, lm, rm2, im))
    if isinstance(e, Case):
        scrut = _subst(e.scrut, vm, lm, rm, im)
        branches: list[Branch] = []
        for b in e.branches:
            if isinstance(b, ConBranch):
                shadowed_vars = {x for x, _ in b.fields}
                shadowed_locs = {ty.loc for _, ty in b.fields if isinstance(ty, PackedType)}
                vm2 = {k: v for k, v in vm.items() if k not in shadowed_vars}
                lm2 = {k: v for k, v in lm.items() if k not in shadowed_locs}
                fields = tuple((x, _subst_ty(ty, lm, rm)) for x, ty in b.fields)
                branches.append(ConBranch(b.tag, fields, _subst(b.body, vm2, lm2, rm, im)))
            elif isinstance(b, IntBranch):
                branches.append(IntBranch(b.value, _subst(b.body, vm, lm, rm, im)))
            else:
                branches.append(DefaultBranch(_subst(b.body, vm, lm, rm, im)))
        return Case(scrut, tuple(branches))
    raise TypeError(f"not an expression: {e!r}")


### freshening

def freshen(fd: FunDecl, supply: NameSupply) -> FunDecl:
    """Rename every bound variable, location, and region to a fresh name."""
    lm = {}
    rm = {}
    for l, r in fd.locparams:
        lm.setdefault(l, supply.fresh(l))
        rm.setdefault(r, supply.fresh(r))
    vm: dict[str, Expr] = {}
    for x, _ in fd.params:
        vm[x] = Var(supply.fresh(x))
    locparams = tuple((lm[l], rm[r]) for l, r in fd.locparams)
    params = tuple((vm[x].name, _subst_ty(ty, lm, rm))  # type: ignore[union-attr]
                   for x, ty in fd.params)
    body = _freshen_expr(fd.body, vm, lm, rm, supply)
    return FunDecl(fd.name, locparams, params, _subst_ty(fd.ret, lm, rm), body)


def _freshen_expr(e: Expr, vm: dict[str, Expr], lm: dict[str, str],
                  rm: dict[str, str], ns: NameSupply) -> Expr:
    if isinstance(e, (Var, IntLit, ConcreteLocVal)):
        return _subst(e, vm, lm, rm, {})
    if isinstance(e, PrimOp):
        return PrimOp(e.op, _freshen_expr(e.lhs, vm, lm, rm, ns),
                      _freshen_expr(e.rhs, vm, lm, rm, ns))
    if isinstance(e, App):
        locargs = tuple((lm.get(l, l), rm.get(r, r)) for l, r in e.locargs)
        return App(e.func, locargs,
                   tuple(_freshen_expr(a, vm, lm, rm, ns) for a in e.args))
    if isinstance(e, DataCon):
        return DataCon(e.tag, lm.get(e.loc, e.loc), rm.get(e.region, e.region),
                       tuple(_freshen_expr(f, vm, lm, rm, ns) for f in e.fields))
    if isinstance(e, Let):
        bound = _freshen_expr(e.bound, vm, lm, rm, ns)
        x2 = ns.fresh(e.var)
        vm2 = dict(vm)
        vm2[e.var] = Var(x2)
        return Let(x2, _subst_ty(e.ty, lm, rm), bound,
                   _freshen_expr(e.body, vm2, lm, rm, ns), e.spawn)
    if isinstance(e, LetLoc):
        le = e.locexpr
        if isinstance(le, StartOfRegion):
            le2: LocExpr = StartOfRegion(rm.get(le.region, le.region))
        elif isinstance(le, AfterTag):
            le2 = AfterTag(lm.get(le.loc, le.loc), rm.get(le.region, le.region))
        else:
            le2 = AfterValue(_subst_ty(le.ty, lm, rm))  # type: ignore[arg-type]
        l2 = ns.fresh(e.loc)
        lm2 = dict(lm)
        lm2[e.loc] = l2
        return LetLoc(l2, rm.get(e.region, e.region), le2,
                      _freshen_expr(e.body, vm, lm2, rm, ns))
    if isinstance(e, LetRegion):
        r2 = ns.fresh(e.region)
        rm2 = dict(rm)
        rm2[e.region] = r2
        return LetRegion(r2, _freshen_expr(e.body, vm, rm=rm2, lm=lm, ns=ns))
    if isinstance(e, Case):
        scrut = _freshen_expr(e.scrut, vm, lm, rm, ns)
        branches: list[Branch] = []
        for b in e.branches:
            if isinstance(b, ConBranch):
                vm2 = dict(vm)
                lm2 = dict(lm)
                fields = []
                for x, ty in b.fields:
                    x2 = ns.fresh(x)
                    vm2[x] = Var(x2)
                    if isinstance(ty, PackedType):
                        lnew = ns.fresh(ty.loc)
                        lm2[ty.loc] = lnew
                        fields.append((x2, PackedType(ty.tycon, lnew, rm.get(ty.region, ty.region))))
                    else:
                        fields.append((x2, ty))
                branches.append(ConBranch(b.tag, tuple(fields),
                                          _freshen_expr(b.body, vm2, lm2, rm, ns)))
            elif isinstance(b, IntBranch):
                branches.append(IntBranch(b.value, _freshen_expr(b.body, vm, lm, rm, ns)))
            else:
                branches.append(DefaultBranch(_freshen_expr(b.body, vm, lm, rm, ns)))
        return Case(scrut, tuple(branches))
    raise TypeError(f"not an expression: {e!r}")


def instantiate(fd: FunDecl, locargs, args, supply: NameSupply) -> Expr:
    """Instantiate a function body in one pass: formals map to the actual
    locations/regions/arguments while every local binder gets a fresh name."""
    lm: dict[str, str] = {}
    rm: dict[str, str] = {}
    for (fl, fr), (al, ar) in zip(fd.locparams, locargs):
        lm[fl] = al
        rm[fr] = ar
    vm: dict[str, Expr] = {x: arg for (x, _), arg in zip(fd.params, args)}
    return _freshen_expr(fd.body, vm, lm, rm, supply)


### alpha equivalence

def alpha_equivalent(a: FunDecl | Expr, b: FunDecl | Expr) -> bool:
    """Structural equality up to consistent renaming of bound names."""
    if isinstance(a, FunDecl) != isinstance(b, FunDecl):
        return False
    if isinstance(a, FunDecl):
        if len(a.locparams) != len(b.locparams) or len(a.params) != len(b.params):
            return False
        env = _AlphaEnv()
        for (l1, r1), (l2, r2) in zip(a.locparams, b.locparams):
            env.bind_loc(l1, l2)
            env.bind_reg(r1, r2)
        for (x1, t1), (x2, t2) in zip(a.params, b.params):
            env.bind_var(x1, x2)
            if not env.ty_eq(t1, t2):
                return False
        return env.ty_eq(a.ret, b.ret) and _alpha(a.body, b.body, env)
    return _alpha(a, b, _AlphaEnv())


class _AlphaEnv:
    def __init__(self) -> None:
        self.vars: dict[str, str] = {}
        self.locs: dict[str, str] = {}
        self.regs: dict[str, str] = {}

    def snapshot(self):
        return dict(self.vars), dict(self.locs), dict(self.regs)

    def restore(self, snap) -> None:
        self.vars, self.locs, self.regs = snap

    def bind_var(self, a: str, b: str) -> None:
        self.vars[a] = b

    def bind_loc(self, a: str, b: str) -> None:
        self.locs[a] = b

    def bind_reg(self, a: str, b: str) -> None:
        self.regs[a] = b

    def var_eq(self, a: str, b: str) -> bool:
        return self.vars.get(a, a) == b

    def loc_eq(self, a: str, b: str) -> bool:
        return self.locs.get(a, a) == b

    def reg_eq(self, a: str, b: str) -> bool:
        return self.regs.get(a, a) == b

    def ty_eq(self, a: Type, b: Type) -> bool:
        if isinstance(a, IntType) and isinstance(b, IntType):
            return True
        if isinstance(a, PackedType) and isinstance(b, PackedType):
            return (a.tycon == b.tycon and self.loc_eq(a.loc, b.loc)
                    and self.reg_eq(a.region, b.region))
        return False


def _alpha(a: Expr, b: Expr, env: _AlphaEnv) -> bool:
    if type(a) is not type(b):
        return False
    if isinstance(a, Var):
        return env.var_eq(a.name, b.name)
    if isinstance(a, IntLit):
        return a.value == b.value
    if isinstance(a, ConcreteLocVal):
        return a == b
    if isinstance(a, PrimOp):
        return a.op == b.op and _alpha(a.lhs, b.lhs, env) and _alpha(a.rhs, b.rhs, env)
    if isinstance(a, App):
        if a.func != b.func or len(a.locargs) != len(b.locargs) or len(a.args) != len(b.args):
            return False
        for (l1, r1), (l2, r2) in zip(a.locargs, b.locargs):
            if not (env.loc_eq(l1, l2) and env.reg_eq(r1, r2)):
                return False
        return all(_alpha(x, y, env) for x, y in zip(a.args, b.args))
    if isinstance(a, DataCon):
        return (a.tag == b.tag and env.loc_eq(a.loc, b.loc)
                and env.reg_eq(a.region, b.region)
                and len(a.fields) == len(b.fields)
                and all(_alpha(x, y, env) for x, y in zip(a.fields, b.fields)))
    if isinstance(a, Let):
        if a.spawn != b.spawn or not _alpha(a.bound, b.bound, env):
            return False
        snap = env.snapshot()
        env.bind_var(a.var, b.var)
        ok = env.ty_eq(a.ty, b.ty) and _alpha(a.body, b.body, env)
        env.restore(snap)
        return ok
    if isinstance(a, LetLoc):
        if not env.reg_eq(a.region, b.region):
            return False
        le1, le2 = a.locexpr, b.locexpr
        if type(le1) is not type(le2):
            return False
        if isinstance(le1, StartOfRegion):
            if not env.reg_eq(le1.region, le2.region):
                return False
        elif isinstance(le1, AfterTag):
            if not (env.loc_eq(le1.loc, le2.loc) and env.reg_eq(le1.region, le2.region)):
                return False
        else:
            if not env.ty_eq(le1.ty, le2.ty):
                return False
        snap = env.snapshot()
        env.bind_loc(a.loc, b.loc)
        ok = _alpha(a.body, b.body, env)
        env.restore(snap)
        return ok
    if isinstance(a, LetRegion):
        snap = env.snapshot()
        env.bind_reg(a.region, b.region)
        ok = _alpha(a.body, b.body, env)
        env.restore(snap)
        return ok
    if isinstance(a, Case):
        if not _alpha(a.scrut, b.scrut, env) or len(a.branches) != len(b.branches):
            return False
        for b1, b2 in zip(a.branches, b.branches):
            if type(b1) is not type(b2):
                return False
            snap = env.snapshot()
            if isinstance(b1, ConBranch):
                if b1.tag != b2.tag or len(b1.fields) != len(b2.fields):
                    env.restore(snap)
                    return False
                for (x1, t1), (x2, t2) in zip(b1.fields, b2.fields):
                    env.bind_var(x1, x2)
                    if isinstance(t1, PackedType) and isinstance(t2, PackedType):
                        env.bind_loc(t1.loc, t2.loc)
                    if not env.ty_eq(t1, t2):
                        env.restore(snap)
                        return False
            elif isinstance(b1, IntBranch) and b1.value != b2.value:
                env.restore(snap)
                return False
            ok = _alpha(b1.body, b2.body, env)
            env.restore(snap)
            if not ok:
                return False
        return True
    return False
