"""Abstract syntax, concrete `.lcp` format, fresh names, binder numbering.

Programs are fully location-annotated: every allocating expression names the
location and region it writes to, and locations are introduced relative to
existing ones (start of region, one past a tag, after a whole value).
Constructor names start with an upper-case letter; variables, functions,
locations, and regions start lower-case.  `--` begins a line comment.

Evaluation never rewrites a program's terms: the machines run them under
environments, and a call names its body's binders by their numbers from
`number_binders`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .store import ConcreteLoc


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
        return Program(tuple(datadecls), tuple(fundecls), main)

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


def parse_program(text: str) -> Program:
    return _Parser(text).program()


### printing (error messages)

def _fmt_locexpr(le: LocExpr) -> str:
    if isinstance(le, StartOfRegion):
        return f"start {le.region}"
    if isinstance(le, AfterTag):
        return f"{le.loc}@{le.region} + 1"
    return f"after({le.ty})"


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


### binders

def number_binders(body: Expr) -> tuple[dict[int, int], int]:
    """Number a function body's binders in the order a call names them.

    Preorder: a let's bound expression, then its variable, then its body; a
    letloc's or letregion's binder, then its body; a case's scrutinee, then
    each branch in turn, where a constructor pattern numbers each field's
    variable and then, for a located field type, its location.  Returns
    each binding node's first number, keyed by node identity (equal
    subterms in different places bind different names), and the count.
    The walk keeps its own stack, so any depth can be numbered.
    """
    first: dict[int, int] = {}
    n = 0
    todo: list = [body]
    while todo:
        e = todo.pop()
        if isinstance(e, tuple):  # a let whose bound expression is numbered
            first[id(e[0])] = n
            n += 1
        elif isinstance(e, Let):
            todo += [e.body, (e,), e.bound]
        elif isinstance(e, (LetLoc, LetRegion)):
            first[id(e)] = n
            n += 1
            todo.append(e.body)
        elif isinstance(e, ConBranch):
            first[id(e)] = n
            n += sum(1 + isinstance(ty, PackedType) for _, ty in e.fields)
            todo.append(e.body)
        elif isinstance(e, (IntBranch, DefaultBranch)):
            todo.append(e.body)
        elif isinstance(e, Case):
            todo += reversed(e.branches)
            todo.append(e.scrut)
        elif isinstance(e, PrimOp):
            todo += [e.rhs, e.lhs]
        elif isinstance(e, App):
            todo += reversed(e.args)
        elif isinstance(e, DataCon):
            todo += reversed(e.fields)
    return first, n
