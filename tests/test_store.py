"""Region store: write-once cells, dereference, end witness, merging."""

import pytest
from hypothesis import given, strategies as st

from locpar import store as ST
from locpar.store import (
    Concrete, ConcreteLoc, Decls, Indirection, IndirectionCell, Ivar,
    Scalar, Store, StoreError, Tag,
)

TREE_DECLS = Decls({
    "Leaf": ("Tree", ["Int"]),
    "Node": ("Tree", ["Tree", "Tree"]),
})

EXP_DECLS = Decls({
    "Lit": ("Exp", ["Int"]),
    "Plus": ("Exp", ["Exp", "Exp"]),
})


def exp_store():
    """r holds Plus (Lit 20) (Lit 22) fully serialized."""
    s = Store().add_region("r")
    for i, hv in enumerate([Tag("Plus"), Tag("Lit"), Scalar(20),
                            Tag("Lit"), Scalar(22)]):
        s = ST.write_cell(s, "r", i, hv)
    return s


class TestWriteOnce:
    def test_conflicting_rewrite_rejected(self):
        s = Store().add_region("r")
        s = ST.write_cell(s, "r", 0, Tag("Lit"))
        with pytest.raises(StoreError):
            ST.write_cell(s, "r", 0, Tag("Plus"))

    def test_identical_rewrite_is_noop(self):
        s = Store().add_region("r")
        s = ST.write_cell(s, "r", 0, Tag("Lit"))
        s2 = ST.write_cell(s, "r", 0, Tag("Lit"))
        assert s2.cell("r", 0) == Tag("Lit")

    def test_write_to_missing_region_rejected(self):
        with pytest.raises(StoreError):
            ST.write_cell(Store(), "nope", 0, Scalar(1))

    @given(st.lists(st.integers(min_value=0, max_value=30),
                    min_size=2, max_size=30))
    def test_any_repeated_index_rejected(self, idxs):
        s = Store().add_region("r")
        seen = set()
        for i in idxs:
            if i in seen:
                with pytest.raises(StoreError):
                    ST.write_cell(s, "r", i, Scalar(i + 1))
            else:
                s = ST.write_cell(s, "r", i, Scalar(i))
                seen.add(i)


class TestDeref:
    def test_concrete_deref(self):
        m = {"l": ConcreteLoc("r", Concrete(3), "l")}
        cl = ST.deref_location(m, "l")
        assert cl.region == "r" and cl.ext == Concrete(3)

    def test_frontier_tracks_highest_write(self):
        s = exp_store()
        assert ST.alloc_frontier("r", s) == 4

    def test_frontier_of_empty_region(self):
        s = Store().add_region("r")
        assert ST.alloc_frontier("r", s) == -1


class TestEndWitness:
    def test_scalar_value(self):
        s = Store().add_region("r")
        s = ST.write_cell(s, "r", 0, Tag("Lit"))
        s = ST.write_cell(s, "r", 1, Scalar(7))
        assert ST.end_witness(EXP_DECLS, "Exp", "r", 0, s) == ("r", 2)

    def test_nested_value(self):
        s = exp_store()
        # ends are exclusive: one past the last cell of the serialization
        assert ST.end_witness(EXP_DECLS, "Exp", "r", 0, s) == ("r", 5)
        assert ST.end_witness(EXP_DECLS, "Exp", "r", 1, s) == ("r", 3)
        assert ST.end_witness(EXP_DECLS, "Exp", "r", 3, s) == ("r", 5)

    def test_indirection_delegates_to_target_region(self):
        s = Store().add_region("r").add_region("r2")
        s = ST.write_cell(s, "r", 0, Tag("Plus"))
        s = ST.write_cell(s, "r", 1, Tag("Lit"))
        s = ST.write_cell(s, "r", 2, Scalar(20))
        s = ST.write_cell(s, "r", 3, IndirectionCell("r2", 0))
        s = ST.write_cell(s, "r2", 0, Tag("Lit"))
        s = ST.write_cell(s, "r2", 1, Scalar(22))
        # the value continues (and ends) in the target region
        assert ST.end_witness(EXP_DECLS, "Exp", "r", 0, s) == ("r2", 2)

    def test_incomplete_value_raises(self):
        s = Store().add_region("r")
        s = ST.write_cell(s, "r", 0, Tag("Plus"))
        with pytest.raises(StoreError):
            ST.end_witness(EXP_DECLS, "Exp", "r", 0, s)

    def test_indirection_cycle_raises(self):
        s = Store().add_region("r").add_region("r2")
        s = ST.write_cell(s, "r", 0, IndirectionCell("r2", 0))
        s = ST.write_cell(s, "r2", 0, IndirectionCell("r", 0))
        with pytest.raises(StoreError) as ei:
            ST.end_witness(EXP_DECLS, "Exp", "r", 0, s)
        assert ei.value.code == "IndirectionCycle"

    def test_deep_value_needs_no_recursion(self):
        nat = Decls({"Z": ("Nat", []), "Su": ("Nat", ["Nat"])})
        n = 20_000
        s = Store().add_region("r")
        s.regions["r"] = {i: Tag("Su") for i in range(n)}
        s.regions["r"][n] = Tag("Z")
        assert ST.end_witness(nat, "Nat", "r", 0, s) == ("r", n + 1)

    def test_ends_records_every_tag_and_is_reused(self):
        s = exp_store()
        ends = {}
        assert ST.end_witness(EXP_DECLS, "Exp", "r", 0, s, ends) == ("r", 5)
        assert ends == {("r", 0): ("r", 5), ("r", 1): ("r", 3),
                        ("r", 3): ("r", 5)}
        # an entry stands for its whole sub-value, which is not read again:
        # a wrong one sends the scan past the value's last cell
        with pytest.raises(StoreError):
            ST.end_witness(EXP_DECLS, "Exp", "r", 0, s, {("r", 1): ("r", 9)})


class TestMerge:
    def test_disjoint_regions_merge(self):
        a = ST.write_cell(Store().add_region("a"), "a", 0, Scalar(1))
        b = ST.write_cell(Store().add_region("b"), "b", 0, Scalar(2))
        m = ST.merge_store(a, b)
        assert m.cell("a", 0) == Scalar(1) and m.cell("b", 0) == Scalar(2)

    def test_same_region_disjoint_cells_merge(self):
        a = ST.write_cell(Store().add_region("r"), "r", 0, Scalar(1))
        b = ST.write_cell(Store().add_region("r"), "r", 1, Scalar(2))
        m = ST.merge_store(a, b)
        assert m.cell("r", 0) == Scalar(1) and m.cell("r", 1) == Scalar(2)

    def test_agreeing_overlap_allowed(self):
        a = ST.write_cell(Store().add_region("r"), "r", 0, Scalar(1))
        m = ST.merge_store(a, a.copy())
        assert m.cell("r", 0) == Scalar(1)

    def test_conflicting_overlap_rejected(self):
        a = ST.write_cell(Store().add_region("r"), "r", 0, Scalar(1))
        b = ST.write_cell(Store().add_region("r"), "r", 0, Scalar(2))
        with pytest.raises(StoreError):
            ST.merge_store(a, b)

    def test_copies_share_no_writes(self):
        # copies share heap dicts, so a write or merge must replace a heap,
        # never change one another store can see
        a = exp_store()
        b = ST.write_cell(a.copy(), "r", 5, Tag("Lit"))
        c = ST.merge_store(a, ST.write_cell(a, "r", 6, Scalar(1)))
        assert a.cell("r", 5) is None and a.cell("r", 6) is None
        assert b.cell("r", 6) is None and c.cell("r", 5) is None
        assert c.cell("r", 6) == Scalar(1)

    def test_locmap_merge_conflict(self):
        m1 = {"l": ConcreteLoc("r", Concrete(0), "l")}
        m2 = {"l": ConcreteLoc("r", Concrete(1), "l")}
        assert ST.merge_locmap(m1, dict(m1))["l"].ext == Concrete(0)
        with pytest.raises(StoreError):
            ST.merge_locmap(m1, m2)


class TestDump:
    def test_dump_format(self):
        s = Store().add_region("r")
        s = ST.write_cell(s, "r", 0, Tag("Lit"))
        s = ST.write_cell(s, "r", 1, Scalar(7))
        s = ST.write_cell(s, "r", 2, IndirectionCell("r2", 0))
        assert "r: [Lit, 7, →(r2,0)]" in s.dump()


class TestDecls:
    def test_field_lookup(self):
        assert TREE_DECLS.fields("Node") == ["Tree", "Tree"]
        assert TREE_DECLS.tycon_of("Leaf") == "Tree"

    def test_unknown_tag(self):
        with pytest.raises(KeyError):
            TREE_DECLS.fields("Branch")
