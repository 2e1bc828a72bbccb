"""Location type checker: positive corpus and designated rejections."""

import pytest

from conftest import BAD_DECLS, EXAMPLES, GOOD_EXAMPLES

from locpar import syntax as S
from locpar.typecheck import LocTypeError, typecheck_program


def check(name: str):
    return typecheck_program(S.parse_program((EXAMPLES / name).read_text()))


class TestPositive:
    @pytest.mark.parametrize("name", GOOD_EXAMPLES)
    def test_example_typechecks(self, name):
        tp = check(name)
        assert tp.decls.constructors


class TestRejections:
    def test_same_region_aliasing(self):
        with pytest.raises(LocTypeError) as ei:
            check("bad_alias.lcp")
        assert ei.value.code == "RegionAliasing"

    def test_double_write(self):
        with pytest.raises(LocTypeError) as ei:
            check("bad_double_write.lcp")
        assert ei.value.code == "DoubleWrite"

    def test_out_of_order_fields(self):
        with pytest.raises(LocTypeError) as ei:
            check("bad_field_order.lcp")
        assert ei.value.code == "FieldConstraintMismatch"

    def test_unknown_constructor(self):
        src = """
data Exp = Lit Int

main =
  letregion r in
  letloc l@r = start r in
  (Quux l@r 1)
"""
        with pytest.raises(LocTypeError, match="unknown constructor Quux"):
            typecheck_program(S.parse_program(src))

    @pytest.mark.parametrize("name", sorted(BAD_DECLS))
    def test_declarations(self, name):
        # the parser only parses: every declaration check is the checker's
        src, message = BAD_DECLS[name]
        prog = S.parse_program(src)
        with pytest.raises(LocTypeError, match=message) as ei:
            typecheck_program(prog)
        assert ei.value.code == "TypeMismatch"

    def test_unknown_function(self):
        src = """
data Exp = Lit Int

main =
  letregion r in
  letloc l@r = start r in
  (missing [l@r] 1)
"""
        with pytest.raises(LocTypeError):
            typecheck_program(S.parse_program(src))
