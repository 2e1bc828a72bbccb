"""Parser, printer, and substitution machinery."""

import re

import pytest
from hypothesis import given, strategies as st

from conftest import BAD_EXAMPLES, EXAMPLES, GOOD_EXAMPLES

from locpar import syntax as S
from locpar.store import Concrete, ConcreteLoc, Indirection, Ivar


def parse_expr(text):
    return S.parse_program("main = " + text).main


def corpus_fundecls():
    return [fd for name in sorted(GOOD_EXAMPLES + BAD_EXAMPLES)
            for fd in S.parse_program((EXAMPLES / name).read_text()).fundecls]


def renamed_binders(out, src, env=None):
    """Check that `out` is `src` with its binders renamed, each bound
    occurrence following its own binder, and return out's binders in
    preorder.  `env` maps (namespace, name bound in src) to out's name."""
    env = env or {}
    found = []

    def use(space, o, s):
        assert o == env.get((space, s), s), (space, o, s)

    def ty(o, s):
        assert type(o) is type(s)
        if isinstance(s, S.PackedType):
            assert o.tycon == s.tycon
            use("l", o.loc, s.loc)
            use("r", o.region, s.region)

    def sub(o, s, binds):
        found.extend(x for _, x in binds)
        found.extend(renamed_binders(o, s, {**env, **dict(binds)}))

    assert type(out) is type(src)
    if isinstance(src, S.Var):
        use("v", out.name, src.name)
    elif isinstance(src, S.IntLit):
        assert out == src
    elif isinstance(src, S.PrimOp):
        assert out.op == src.op
        sub(out.lhs, src.lhs, [])
        sub(out.rhs, src.rhs, [])
    elif isinstance(src, S.App):
        assert out.func == src.func and len(out.args) == len(src.args)
        assert len(out.locargs) == len(src.locargs)
        for (ol, orr), (sl, sr) in zip(out.locargs, src.locargs):
            use("l", ol, sl)
            use("r", orr, sr)
        for o, s in zip(out.args, src.args):
            sub(o, s, [])
    elif isinstance(src, S.DataCon):
        assert out.tag == src.tag and len(out.fields) == len(src.fields)
        use("l", out.loc, src.loc)
        use("r", out.region, src.region)
        for o, s in zip(out.fields, src.fields):
            sub(o, s, [])
    elif isinstance(src, S.Let):
        assert out.spawn == src.spawn
        ty(out.ty, src.ty)
        sub(out.bound, src.bound, [])
        sub(out.body, src.body, [(("v", src.var), out.var)])
    elif isinstance(src, S.LetLoc):
        use("r", out.region, src.region)
        ol, sl = out.locexpr, src.locexpr
        assert type(ol) is type(sl)
        if isinstance(sl, S.AfterValue):
            ty(ol.ty, sl.ty)
        else:
            use("r", ol.region, sl.region)
            if isinstance(sl, S.AfterTag):
                use("l", ol.loc, sl.loc)
        sub(out.body, src.body, [(("l", src.loc), out.loc)])
    elif isinstance(src, S.LetRegion):
        sub(out.body, src.body, [(("r", src.region), out.region)])
    else:
        sub(out.scrut, src.scrut, [])
        assert len(out.branches) == len(src.branches)
        for ob, sb in zip(out.branches, src.branches):
            assert type(ob) is type(sb)
            binds = []
            if isinstance(sb, S.ConBranch):
                assert ob.tag == sb.tag and len(ob.fields) == len(sb.fields)
                for (ox, oty), (sx, sty) in zip(ob.fields, sb.fields):
                    binds.append((("v", sx), ox))
                    assert type(oty) is type(sty)
                    if isinstance(sty, S.PackedType):
                        assert oty.tycon == sty.tycon
                        use("r", oty.region, sty.region)
                        binds.append((("l", sty.loc), oty.loc))
            elif isinstance(sb, S.IntBranch):
                assert ob.value == sb.value
            sub(ob.body, sb.body, binds)
    return found


class TestParsePrintRoundTrip:
    @pytest.mark.parametrize("name", sorted(GOOD_EXAMPLES + BAD_EXAMPLES))
    def test_example_round_trips(self, name):
        prog = S.parse_program((EXAMPLES / name).read_text())
        assert S.parse_program(S.print_program(prog)) == prog

    def test_readme_example_is_corpus_buildtree(self):
        # the README's language example is checked by the corpus tests only
        # while it stays identical to the corpus file
        readme = (EXAMPLES.parents[1] / "README.md").read_text()
        blocks = [b.split("\n", 1)[1] for b in readme.split("```")[1::2]]
        example = next(b for b in blocks if "fun buildtree" in b)
        assert example == (EXAMPLES / "buildtree.lcp").read_text()

    def test_expr_round_trip(self):
        e = parse_expr("let x : Int = (1 + 2) in (x * x)")
        assert parse_expr(S.print_expr(e)) == e

    @given(st.integers(min_value=-(2**40), max_value=2**40))
    def test_int_literals_round_trip(self, n):
        e = parse_expr(str(n))
        assert isinstance(e, S.IntLit) and e.value == n
        assert parse_expr(S.print_expr(e)) == e

    def test_syntax_error_raised(self):
        with pytest.raises(S.SyntaxErrorLC):
            parse_expr("let x = in")
        with pytest.raises(S.SyntaxErrorLC):
            S.parse_program("fun f ( : Int = 3")


class TestSubstitution:
    def test_var_substitution(self):
        e = parse_expr("(x + y)")
        out = S.substitute(e, var_map={"x": S.IntLit(5)})
        assert out == parse_expr("(5 + y)")

    def test_shadowing_binder_stops_substitution(self):
        e = parse_expr("let x : Int = 1 in (x + y)")
        out = S.substitute(e, var_map={"x": S.IntLit(9)})
        # the bound occurrence of x refers to the let binder, not the
        # substituted variable, so the body must be untouched
        assert out == e

    def test_ivar_resolves_into_another_region(self):
        # a producer may have written its value behind an indirection in a
        # region other than the one the ivar was minted in; every hole takes
        # that region and index and keeps its own origin
        def hole(origin):
            return S.ConcreteLocVal(ConcreteLoc("r", Ivar("iv%0"), origin))
        e = S.Let("x", S.PackedType("T", "la", "r"), hole("la"),
                  S.PrimOp("+", hole("lb"), S.ConcreteLocVal(
                      ConcreteLoc("r", Ivar("iv%1"), "lc"))))
        to = ConcreteLoc("r2", Indirection("r3", 4), "lp")
        out = S.substitute(e, ivar_map={"iv%0": to})
        assert out.bound.loc == ConcreteLoc("r2", Indirection("r3", 4), "la")
        assert out.body.lhs.loc == ConcreteLoc("r2", Indirection("r3", 4), "lb")
        assert out.body.rhs == e.body.rhs
        out2 = S.substitute(e, ivar_map={"iv%1": ConcreteLoc("q", Concrete(7))})
        assert out2.body.rhs.loc == ConcreteLoc("q", Concrete(7), "lc")
        assert out2.bound == e.bound

    def test_instantiate_is_substitute_with_fresh_binders(self):
        # instantiate maps the formals to the actuals exactly as substitute
        # does, and renames every local binder to a distinct fresh name
        fds = corpus_fundecls()
        assert len(fds) == 20
        for fd in fds:
            locargs = [(f"la{k}", f"ra{k}") for k in range(len(fd.locparams))]
            args = [S.IntLit(7 + k) for k in range(len(fd.params))]
            out = S.instantiate(fd, locargs, args, S.NameSupply())
            expect = S.substitute(
                fd.body, var_map={x: a for (x, _), a in zip(fd.params, args)},
                loc_map={l: al for (l, _), (al, _) in zip(fd.locparams, locargs)},
                reg_map={r: ar for (_, r), (_, ar) in zip(fd.locparams, locargs)})
            assert re.sub(r"%\d+", "", S.print_expr(out)) == S.print_expr(expect), fd.name
            names = renamed_binders(out, expect)
            assert all("%" in x for x in names), fd.name
            assert len(set(names)) == len(names), fd.name


class TestNameSupply:
    def test_fresh_names_distinct(self):
        ns = S.NameSupply()
        seen = {ns.fresh("x") for _ in range(100)}
        assert len(seen) == 100

    def test_fresh_reuses_base(self):
        ns = S.NameSupply()
        n = ns.fresh("loc%3")
        assert n.split("%", 1)[0] == "loc"
