"""Parser, printer, and substitution machinery."""

import pytest
from hypothesis import given, strategies as st

from conftest import EXAMPLES, GOOD_EXAMPLES

from locpar import syntax as S
from locpar.store import Concrete, ConcreteLoc, Indirection, Ivar


class TestParsePrintRoundTrip:
    @pytest.mark.parametrize("name", GOOD_EXAMPLES)
    def test_example_round_trips(self, name):
        src = (EXAMPLES / name).read_text()
        prog = S.parse_program(src)
        reprinted = S.parse_program(S.print_program(prog))
        assert len(reprinted.fundecls) == len(prog.fundecls)
        for a, b in zip(prog.fundecls, reprinted.fundecls):
            assert S.alpha_equivalent(a, b)
        assert S.alpha_equivalent(prog.main, reprinted.main)

    def test_readme_example_is_corpus_buildtree(self):
        # the README's language example is checked by the corpus tests only
        # while it stays identical to the corpus file
        readme = (EXAMPLES.parents[1] / "README.md").read_text()
        blocks = [b.split("\n", 1)[1] for b in readme.split("```")[1::2]]
        example = next(b for b in blocks if "fun buildtree" in b)
        assert example == (EXAMPLES / "buildtree.lcp").read_text()

    def test_expr_round_trip(self):
        e = S.parse_expr("let x : Int = (1 + 2) in (x * x)")
        assert S.alpha_equivalent(e, S.parse_expr(S.print_expr(e)))

    @given(st.integers(min_value=-(2**40), max_value=2**40))
    def test_int_literals_round_trip(self, n):
        e = S.parse_expr(str(n))
        assert isinstance(e, S.IntLit) and e.value == n
        assert S.parse_expr(S.print_expr(e)) == e

    def test_syntax_error_raised(self):
        with pytest.raises(S.SyntaxErrorLC):
            S.parse_expr("let x = in")
        with pytest.raises(S.SyntaxErrorLC):
            S.parse_program("fun f ( : Int = 3")


class TestAlphaEquivalence:
    def test_renamed_binder_is_equivalent(self):
        a = S.parse_expr("let x : Int = 1 in (x + 2)")
        b = S.parse_expr("let y : Int = 1 in (y + 2)")
        assert S.alpha_equivalent(a, b)

    def test_different_body_not_equivalent(self):
        a = S.parse_expr("let x : Int = 1 in (x + 2)")
        b = S.parse_expr("let x : Int = 1 in (x + 3)")
        assert not S.alpha_equivalent(a, b)

    def test_free_variable_identity_matters(self):
        a = S.parse_expr("(x + 1)")
        b = S.parse_expr("(y + 1)")
        assert not S.alpha_equivalent(a, b)


class TestSubstitution:
    def test_var_substitution(self):
        e = S.parse_expr("(x + y)")
        out = S.substitute(e, var_map={"x": S.IntLit(5)})
        assert S.alpha_equivalent(out, S.parse_expr("(5 + y)"))

    def test_shadowing_binder_stops_substitution(self):
        e = S.parse_expr("let x : Int = 1 in (x + y)")
        out = S.substitute(e, var_map={"x": S.IntLit(9)})
        # the bound occurrence of x refers to the let binder, not the
        # substituted variable, so the body must be untouched
        assert S.alpha_equivalent(out, e)

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

    def test_freshen_is_alpha_equivalent(self):
        prog = S.parse_program((EXAMPLES / "constfold.lcp").read_text())
        fd = prog.fundecls[0]
        supply = S.NameSupply()
        fresh = S.freshen(fd, supply)
        assert S.alpha_equivalent(fd, fresh)
        assert fresh.body is not fd.body or fresh.body == fd.body

    def test_instantiate_matches_freshen_then_substitute(self):
        prog = S.parse_program((EXAMPLES / "constfold.lcp").read_text())
        fd = prog.fundecls[0]
        locargs = [("lc", "rc")] * len(fd.locparams)
        args = [S.IntLit(7)] * len(fd.params)

        fresh = S.freshen(fd, S.NameSupply())
        lm = {l: al for (l, _), (al, _) in zip(fresh.locparams, locargs)}
        rm = {r: ar for (_, r), (_, ar) in zip(fresh.locparams, locargs)}
        vm = {x: v for (x, _), v in zip(fresh.params, args)}
        slow = S.substitute(fresh.body, var_map=vm, loc_map=lm, reg_map=rm)

        fast = S.instantiate(fd, locargs, args, S.NameSupply())
        assert S.alpha_equivalent(slow, fast)


class TestNameSupply:
    def test_fresh_names_distinct(self):
        ns = S.NameSupply()
        seen = {ns.fresh("x") for _ in range(100)}
        assert len(seen) == 100

    def test_fresh_reuses_base(self):
        ns = S.NameSupply()
        n = ns.fresh("loc%3")
        assert n.split("%", 1)[0] == "loc"
