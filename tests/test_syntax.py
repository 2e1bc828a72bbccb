"""Parser, printer, fresh names and binder numbering."""

import pytest
from hypothesis import given, strategies as st

from conftest import BAD_EXAMPLES, EXAMPLES, GOOD_EXAMPLES

from locpar import syntax as S


def parse_expr(text):
    return S.parse_program("main = " + text).main


def corpus_fundecls():
    return [fd for name in sorted(GOOD_EXAMPLES + BAD_EXAMPLES)
            for fd in S.parse_program((EXAMPLES / name).read_text()).fundecls]


def reference_numbers(body):
    """The binder numbering written as the recursive walk that drew fresh
    names when calls still copied their bodies: (node id, number) pairs."""
    out, n = [], [0]

    def draw(node):
        out.append((id(node), n[0]))

    def walk(e):
        if isinstance(e, S.Let):
            walk(e.bound)
            draw(e)
            n[0] += 1
            walk(e.body)
        elif isinstance(e, (S.LetLoc, S.LetRegion)):
            draw(e)
            n[0] += 1
            walk(e.body)
        elif isinstance(e, S.Case):
            walk(e.scrut)
            for b in e.branches:
                if isinstance(b, S.ConBranch):
                    draw(b)
                    for _, ty in b.fields:
                        n[0] += 1 + isinstance(ty, S.PackedType)
                walk(b.body)
        elif isinstance(e, S.PrimOp):
            walk(e.lhs)
            walk(e.rhs)
        elif isinstance(e, (S.App, S.DataCon)):
            for x in (e.args if isinstance(e, S.App) else e.fields):
                walk(x)

    walk(body)
    return dict(out), n[0]


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


class TestBinderNumbers:
    def test_binders_are_numbered_in_preorder(self):
        # a call names binder j of its callee's body base%(n0 + j), in the
        # order the old instantiation drew fresh names
        fds = corpus_fundecls()
        assert len(fds) == 21
        for fd in fds:
            first, count = S.number_binders(fd.body)
            assert (first, count) == reference_numbers(fd.body), fd.name
            assert len(set(first.values())) == len(first), fd.name

    def test_equal_subterms_are_numbered_apart(self):
        # frozen nodes compare by value, so the table is keyed by identity
        body = parse_expr("case n of { 0 -> letregion r in 1 ; _ -> letregion r in 1 }")
        a, b = (br.body for br in body.branches)
        assert a == b and a is not b
        first, count = S.number_binders(body)
        assert (first[id(a)], first[id(b)], count) == (0, 1, 2)

    def test_deep_body_under_default_recursion_limit(self,
                                                      default_recursion_limit):
        body = S.IntLit(0)
        for k in range(10_000):
            body = S.Let(f"x{k}", S.INT, S.IntLit(k), body)
        first, count = S.number_binders(body)
        assert count == 10_000 and first[id(body)] == 0


class TestNameSupply:
    def test_fresh_names_distinct(self):
        ns = S.NameSupply()
        seen = {ns.fresh("x") for _ in range(100)}
        assert len(seen) == 100

    def test_fresh_reuses_base(self):
        ns = S.NameSupply()
        n = ns.fresh("loc%3")
        assert n.split("%", 1)[0] == "loc"
