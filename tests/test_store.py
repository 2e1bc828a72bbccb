"""Region store: write-once cells, dereference, end witness, merging."""

import copy
from collections import Counter

import pytest
from hypothesis import given, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from locpar import store as ST
from locpar.store import (
    Concrete, ConcreteLoc, Decls, Indirection, IndirectionCell, Ivar,
    Scalar, Store, SemanticsError, Tag,
)

TREE_DECLS = Decls({
    "Leaf": ("Tree", ["Int"]),
    "Node": ("Tree", ["Tree", "Tree"]),
})

EXP_DECLS = Decls({
    "Lit": ("Exp", ["Int"]),
    "Plus": ("Exp", ["Exp", "Exp"]),
})


def new_store(*regions):
    s = Store()
    for r in regions:
        s.add_region(r)
    return s


def write_all(s, r, cells):
    for i, hv in enumerate(cells):
        ST.write_cell(s, r, i, hv)
    return s


def exp_store():
    """r holds Plus (Lit 20) (Lit 22) fully serialized."""
    return write_all(new_store("r"), "r", [Tag("Plus"), Tag("Lit"), Scalar(20),
                                           Tag("Lit"), Scalar(22)])


class TestWriteOnce:
    def test_conflicting_rewrite_rejected(self):
        s = new_store("r")
        ST.write_cell(s, "r", 0, Tag("Lit"))
        with pytest.raises(SemanticsError):
            ST.write_cell(s, "r", 0, Tag("Plus"))
        assert s.cell("r", 0) == Tag("Lit")

    def test_identical_rewrite_is_noop(self):
        s = new_store("r")
        assert ST.write_cell(s, "r", 0, Tag("Lit"))
        assert not ST.write_cell(s, "r", 0, Tag("Lit"))
        assert s.cell("r", 0) == Tag("Lit")

    def test_write_to_missing_region_rejected(self):
        with pytest.raises(SemanticsError):
            ST.write_cell(Store(), "nope", 0, Scalar(1))

    @given(st.lists(st.integers(min_value=0, max_value=30),
                    min_size=2, max_size=30))
    def test_any_repeated_index_rejected(self, idxs):
        s = new_store("r")
        seen = set()
        for i in idxs:
            if i in seen:
                with pytest.raises(SemanticsError):
                    ST.write_cell(s, "r", i, Scalar(i + 1))
            else:
                ST.write_cell(s, "r", i, Scalar(i))
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
        s = new_store("r")
        assert ST.alloc_frontier("r", s) == -1


class TestEndWitness:
    def test_scalar_value(self):
        s = write_all(new_store("r"), "r", [Tag("Lit"), Scalar(7)])
        assert ST.end_witness(EXP_DECLS, "Exp", "r", 0, s) == ("r", 2)

    def test_nested_value(self):
        s = exp_store()
        # ends are exclusive: one past the last cell of the serialization
        assert ST.end_witness(EXP_DECLS, "Exp", "r", 0, s) == ("r", 5)
        assert ST.end_witness(EXP_DECLS, "Exp", "r", 1, s) == ("r", 3)
        assert ST.end_witness(EXP_DECLS, "Exp", "r", 3, s) == ("r", 5)

    def test_indirection_delegates_to_target_region(self):
        s = new_store("r", "r2")
        write_all(s, "r", [Tag("Plus"), Tag("Lit"), Scalar(20),
                           IndirectionCell("r2", 0)])
        write_all(s, "r2", [Tag("Lit"), Scalar(22)])
        # the value continues (and ends) in the target region
        assert ST.end_witness(EXP_DECLS, "Exp", "r", 0, s) == ("r2", 2)

    def test_incomplete_value_raises(self):
        s = write_all(new_store("r"), "r", [Tag("Plus")])
        with pytest.raises(SemanticsError):
            ST.end_witness(EXP_DECLS, "Exp", "r", 0, s)

    def test_indirection_cycle_raises(self):
        s = new_store("r", "r2")
        ST.write_cell(s, "r", 0, IndirectionCell("r2", 0))
        ST.write_cell(s, "r2", 0, IndirectionCell("r", 0))
        with pytest.raises(SemanticsError) as ei:
            ST.end_witness(EXP_DECLS, "Exp", "r", 0, s)
        assert ei.value.code == "IndirectionCycle"

    def test_deep_value_needs_no_recursion(self):
        nat = Decls({"Z": ("Nat", []), "Su": ("Nat", ["Nat"])})
        n = 20_000
        s = Store({"r": {i: Tag("Su") for i in range(n)}})
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
        with pytest.raises(SemanticsError):
            ST.end_witness(EXP_DECLS, "Exp", "r", 0, s, {("r", 1): ("r", 9)})


class TestMerge:
    def test_disjoint_regions_merge(self):
        a = write_all(new_store("a"), "a", [Scalar(1)])
        b = write_all(new_store("b"), "b", [Scalar(2)])
        ST.merge_store(a, b)
        assert a.cell("a", 0) == Scalar(1) and a.cell("b", 0) == Scalar(2)
        # the region a took from b is shared: a's later write stays in a
        ST.write_cell(a, "b", 1, Scalar(3))
        assert b.cell("b", 1) is None and b.cell("a", 0) is None

    def test_same_region_disjoint_cells_merge(self):
        a = write_all(new_store("r"), "r", [Scalar(1)])
        b = new_store("r")
        ST.write_cell(b, "r", 1, Scalar(2))
        ST.merge_store(a, b)
        assert a.cell("r", 0) == Scalar(1) and a.cell("r", 1) == Scalar(2)

    def test_agreeing_overlap_allowed(self):
        a = write_all(new_store("r"), "r", [Scalar(1)])
        ST.merge_store(a, a.copy())
        assert a.cell("r", 0) == Scalar(1)

    def test_conflicting_overlap_rejected(self):
        a = write_all(new_store("r"), "r", [Scalar(1)])
        b = write_all(new_store("r"), "r", [Scalar(2)])
        with pytest.raises(SemanticsError):
            ST.merge_store(a, b)

    def test_copies_share_no_writes(self):
        # copies share heap dicts, so a write or merge must copy a shared
        # heap, never change one another store can see
        a = exp_store()
        b, c, d = a.copy(), a.copy(), a.copy()
        ST.write_cell(b, "r", 5, Tag("Lit"))
        ST.write_cell(d, "r", 6, Scalar(1))
        ST.merge_store(c, d)
        # a copy's writes, and a merge into a copy, stay out of the original
        assert a.cell("r", 5) is None and a.cell("r", 6) is None
        assert b.cell("r", 6) is None and c.cell("r", 5) is None
        assert c.cell("r", 6) == Scalar(1)
        # the original's writes stay out of its copies
        ST.write_cell(a, "r", 7, Scalar(2))
        assert all(x.cell("r", 7) is None for x in (b, c, d))
        # and a merge's destination never writes its source
        ST.write_cell(c, "r", 8, Scalar(3))
        assert d.cell("r", 8) is None

    def test_locmap_merge_conflict(self):
        m1 = {"l": ConcreteLoc("r", Concrete(0), "l")}
        m2 = {"l": ConcreteLoc("r", Concrete(1), "l")}
        m = dict(m1)
        ST.merge_locmap(m, dict(m1))
        assert m["l"].ext == Concrete(0)
        with pytest.raises(SemanticsError):
            ST.merge_locmap(m1, m2)

    def test_locmap_merge_prefers_concrete_to_ivar(self):
        conc = {"l": ConcreteLoc("r", Concrete(0), "l")}
        ivar = {"l": ConcreteLoc("r", Ivar("iv"), "l")}
        for dst, src in ((dict(conc), ivar), (dict(ivar), conc)):
            ST.merge_locmap(dst, src)
            assert dst == conc


class StoreAgainstModel(RuleBasedStateMachine):
    """Several live stores, each against a model of plain dicts that a copy
    deep-copies: every store must read exactly as its model, whatever its
    copies, sources and destinations do afterwards."""

    ANY = st.integers(min_value=0, max_value=7)
    REGION = st.sampled_from("abc")
    INDEX = st.integers(min_value=0, max_value=3)
    VALUE = st.sampled_from([Scalar(0), Scalar(1), Tag("Lit")])

    def __init__(self):
        super().__init__()
        self.live = [(Store(), {})]

    def pick(self, k):
        return self.live[k % len(self.live)]

    @rule()
    def new_store(self):
        self.live.append((Store(), {}))

    @rule(k=ANY, r=REGION)
    def add_region(self, k, r):
        s, model = self.pick(k)
        if r in model:
            with pytest.raises(SemanticsError):
                s.add_region(r)
        else:
            s.add_region(r)
            model[r] = {}

    @rule(k=ANY, r=REGION, i=INDEX, hv=VALUE)
    def write_cell(self, k, r, i, hv):
        s, model = self.pick(k)
        old = model.get(r, {}).get(i)
        if r not in model or old not in (None, hv):
            with pytest.raises(SemanticsError):
                ST.write_cell(s, r, i, hv)
        else:
            assert ST.write_cell(s, r, i, hv) == (old is None)
            model[r][i] = hv

    @rule(k=ANY)
    def copy(self, k):
        s, model = self.pick(k)
        self.live.append((s.copy(), copy.deepcopy(model)))

    @rule(k=ANY, j=ANY)
    def merge_store(self, k, j):
        (dst, dm), (src, sm) = self.pick(k), self.pick(j)
        if dst is src:
            return
        merged, conflict = copy.deepcopy(dm), False
        for r, heap in sm.items():
            mine = merged.setdefault(r, {})
            for i, hv in heap.items():
                conflict |= mine.setdefault(i, hv) != hv
        if conflict:
            with pytest.raises(SemanticsError):
                ST.merge_store(dst, src)
            # a failed merge may leave its destination half merged
            del self.live[k % len(self.live)]
        else:
            ST.merge_store(dst, src)
            dm.clear()
            dm.update(merged)

    @rule(k=ANY, r=REGION, i=INDEX)
    def cell(self, k, r, i):
        s, model = self.pick(k)
        assert s.cell(r, i) == model.get(r, {}).get(i)

    @invariant()
    def every_store_reads_as_its_model(self):
        for s, model in self.live:
            assert list(s.regions) == list(model)
            assert s.regions == model

    @invariant()
    def an_owned_heap_is_in_no_other_store(self):
        holders = Counter(id(h) for s, _ in self.live for h in s.regions.values())
        for s, _ in self.live:
            assert all(holders[id(s.regions[r])] == 1 for r in s.owned)


TestStoreAgainstModel = StoreAgainstModel.TestCase


class TestDump:
    def test_dump_format(self):
        s = write_all(new_store("r"), "r", [Tag("Lit"), Scalar(7),
                                            IndirectionCell("r2", 0)])
        assert "r: [Lit, 7, →(r2,0)]" in s.dump()


class TestDecls:
    def test_field_lookup(self):
        assert TREE_DECLS.fields("Node") == ["Tree", "Tree"]
        assert TREE_DECLS.tycon_of("Leaf") == "Tree"

    def test_unknown_tag(self):
        with pytest.raises(KeyError):
            TREE_DECLS.fields("Branch")
