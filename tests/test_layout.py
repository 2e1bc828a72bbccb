"""Byte layout: serialization modes, chunk policy, traversal, statistics."""

import os
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from locpar import layout as L
from locpar import eval_par as P
from locpar.eval_seq import run_seq
from locpar.store import (Concrete, ConcreteLoc, Decls, IndirectionCell,
                          SemanticsError, Store, Tag)

EXP_SCHEMA = L.Schema({"Lit": ("Int",), "Plus": ("Exp", "Exp")})

GOLDEN = L.Node("Plus", (L.Node("Lit", (L.Leaf(20),)),
                         L.Node("Lit", (L.Leaf(22),))))


def exp_trees(max_depth=5):
    leaf = st.integers(min_value=-(2**31), max_value=2**31).map(
        lambda n: L.Node("Lit", (L.Leaf(n),)))
    return st.recursive(
        leaf,
        lambda sub: st.tuples(sub, sub).map(
            lambda ab: L.Node("Plus", ab)),
        max_leaves=2**max_depth)


class TestFlatten:
    def test_sequential_value_flattens(self, load_program):
        tp = load_program("constfold.lcp")
        res = run_seq(tp)
        got = L.flatten_value(res.value.loc, "Exp", res.store, tp.decls)
        assert got == GOLDEN

    def test_fragmented_value_flattens_identically(self, load_program):
        tp = load_program("constfold.lcp")
        res = P.run_par(tp, P.always_fork())
        got = L.flatten_value(res.value.loc, "Exp", res.store, tp.decls)
        assert got == GOLDEN

    def test_missing_cell_raises(self, load_program):
        tp = load_program("constfold.lcp")
        res = run_seq(tp)
        # a copy shares its heaps, and only the store's own writes copy one
        store = Store({r: dict(heap) for r, heap in res.store.regions.items()})
        out_r = res.value.loc.region
        del store.regions[out_r][4]
        assert res.store.cell(out_r, 4) is not None
        with pytest.raises(SemanticsError, match="IncompleteValue"):
            L.flatten_value(res.value.loc, "Exp", store, tp.decls)

    def test_deep_spine_flattens_under_default_recursion_limit(
            self, default_recursion_limit):
        # a 10,000-deep spine whose second half continues in another region
        # through a link, read back without recursion
        n = 10_000
        half = n // 2
        store = Store({"r": {**{i: Tag("Su") for i in range(half)},
                             half: IndirectionCell("r2", 0)},
                       "r2": {**{i: Tag("Su") for i in range(n - half)},
                              n - half: Tag("Z")}})
        decls = Decls({"Z": ("Nat", []), "Su": ("Nat", ["Nat"])})
        v = L.flatten_value(ConcreteLoc("r", Concrete(0)), "Nat", store, decls)
        depth = 0
        while v.tag == "Su":
            (v,) = v.children
            depth += 1
        assert depth == n and v == L.Node("Z", ())

    def test_link_cycle_is_incomplete(self):
        store = Store({"r": {0: Tag("Su"), 1: IndirectionCell("r", 1)}})
        decls = Decls({"Z": ("Nat", []), "Su": ("Nat", ["Nat"])})
        with pytest.raises(SemanticsError, match="IncompleteValue: .*cycle"):
            L.flatten_value(ConcreteLoc("r", Concrete(0)), "Nat", store, decls)


def _serialize_packed_ref(v, schema, policy):
    """The packed serializer written plainly: one `emit` per piece, each
    node's scalar count read off its field kinds.  The reference the
    single-pass `_serialize_packed` must agree with byte for byte."""
    tag_ids = {t: i for i, t in enumerate(sorted(schema.fields_of))}
    data = bytearray()
    boundaries = [0]
    capacities = [policy.initial]
    links = 0
    capacity = policy.initial
    used = 0

    def emit(piece: bytes):
        nonlocal capacity, used, links
        w = len(piece)
        if w + L.LINK_BYTES > policy.cap:
            raise L.ValueTooLarge(f"cell of {w} bytes exceeds chunk cap")
        if used + w + L.LINK_BYTES > capacity and used > 0:
            data.extend(struct.pack("<BQ", L.LINK_MARKER,
                                    len(data) + L.LINK_BYTES))
            links += 1
            boundaries.append(len(data))
            capacity = min(capacity * policy.growth, policy.cap)
            while w + L.LINK_BYTES > capacity:
                capacity = min(capacity * policy.growth, policy.cap)
            capacities.append(capacity)
            used = 0
        data.extend(piece)
        used += w

    if isinstance(v, L.Leaf):
        emit(struct.pack("<q", v.value))
        return L.Chunks(data, boundaries, links, schema, capacities)
    stack = [v]
    while stack:
        node = stack.pop()
        fks = schema.fields_of[node.tag]
        k = sum(1 for f in fks if f == "Int")
        piece = bytes([tag_ids[node.tag]]) + b"".join(
            struct.pack("<q", c.value) for c in node.children[:k])
        emit(piece)
        stack.extend(reversed(node.children[k:]))
    return L.Chunks(data, boundaries, links, schema, capacities)


def _serialize_per_node_ref(v, schema, policy):
    """The per-node serializer written plainly: a (pointer slot, node) pair
    per node, every pointer patched when its child starts.  The reference
    the single-pass `_serialize_per_node` must agree with byte for byte."""
    tag_ids = {t: i for i, t in enumerate(sorted(schema.fields_of))}
    data = bytearray()
    boundaries = []
    links = 0
    stack = [(None, v)]
    while stack:
        slot, node = stack.pop()
        start = len(data)
        boundaries.append(start)
        if slot is not None:
            struct.pack_into("<BQ", data, slot, L.PTR_MARKER, start)
        if isinstance(node, L.Leaf):
            data.extend(struct.pack("<q", node.value))
            continue
        data.append(tag_ids[node.tag])
        kids = []
        for kind, child in zip(schema.fields_of[node.tag], node.children):
            if kind == "Int":
                data.extend(struct.pack("<q", child.value))
            else:
                kids.append((len(data), child))
                data.extend(bytes(L.LINK_BYTES))
                links += 1
        if len(data) - start > policy.cap:
            raise L.ValueTooLarge("single node exceeds chunk cap")
        stack.extend(reversed(kids))
    return L.Chunks(data, boundaries, links, schema)


SERIALIZERS = {"packed": _serialize_packed_ref,
               "per-node-fragmented": _serialize_per_node_ref}
POLICIES = [L.ChunkPolicy(), L.ChunkPolicy(initial=18),
            L.ChunkPolicy(initial=10, growth=3, cap=200),
            L.ChunkPolicy(initial=18, cap=32), L.ChunkPolicy(initial=1, cap=16)]


def _outcome(serialize):
    """Everything a serialization produces, or the class of its error."""
    try:
        ch = serialize()
    except Exception as err:  # the class is what gets compared
        return type(err)
    return bytes(ch.data), ch.boundaries, ch.links, ch.capacities


def assert_matches_reference(v, schema):
    for mode, ref in SERIALIZERS.items():
        for policy in POLICIES:
            got = _outcome(lambda: L.byte_serialize(v, schema, policy, mode))
            want = _outcome(lambda: ref(v, schema, policy))
            assert got == want, (mode, policy)


class TestSerializerEquivalence:
    @given(tree=exp_trees())
    @settings(max_examples=60, deadline=None)
    def test_any_tree(self, tree):
        assert_matches_reference(tree, EXP_SCHEMA)

    @pytest.mark.parametrize("scalars", [0, 1, 2, 3])
    @pytest.mark.parametrize("depth", [0, 1, 5, 8])
    def test_full_trees(self, depth, scalars):
        assert_matches_reference(L.full_tree(depth, leaf_scalars=scalars),
                                 L.tree_schema(leaf_scalars=scalars))

    def test_deep_chain(self):
        v = L.Node("Z", ())
        for _ in range(12_000):
            v = L.Node("Su", (v,))
        assert_matches_reference(v, L.Schema({"Z": (), "Su": ("Nat",)}))

    def test_mixed_arity(self):
        # scalars before one or three packed fields, shared subtrees
        schema = L.Schema({"T": ("Int", "X", "X", "X"), "U": ("Int", "Int", "X"),
                           "Z": ()})
        v = L.Node("Z", ())
        for d in range(4):
            v = L.Node("T", (L.Leaf(d), v,
                             L.Node("U", (L.Leaf(-1), L.Leaf(2**40), v)), v))
        assert_matches_reference(v, schema)

    def test_bare_leaf(self):
        assert_matches_reference(L.Leaf(-7), EXP_SCHEMA)

    @pytest.mark.parametrize("mode", SERIALIZERS)
    def test_oversized_node_raises_alike(self, mode):
        tree = L.full_tree(2, leaf_scalars=8)
        schema = L.tree_schema(leaf_scalars=8)
        policy = L.ChunkPolicy(initial=18, cap=32)
        assert _outcome(lambda: L.byte_serialize(tree, schema, policy, mode)) \
            is L.ValueTooLarge
        assert_matches_reference(tree, schema)


class TestByteSerialization:
    def test_packed_golden_sizes(self):
        ch = L.byte_serialize(GOLDEN, EXP_SCHEMA, mode="packed")
        # 3 tags + 2 scalars, single chunk, no links
        assert len(ch.data) == 3 * L.TAG_BYTES + 2 * L.SCALAR_BYTES
        assert ch.chunk_count() == 1 and ch.links == 0

    def test_fragmented_golden_sizes(self):
        ch = L.byte_serialize(GOLDEN, EXP_SCHEMA, mode="per-node-fragmented")
        assert ch.chunk_count() == 3 and ch.links == 2

    @pytest.mark.parametrize("mode", ["packed", "per-node-fragmented"])
    def test_golden_round_trip(self, mode):
        ch = L.byte_serialize(GOLDEN, EXP_SCHEMA, mode=mode)
        assert L.byte_parse(ch) == GOLDEN

    @given(tree=exp_trees())
    @settings(max_examples=60, deadline=None)
    def test_round_trip_any_tree_packed(self, tree):
        ch = L.byte_serialize(tree, EXP_SCHEMA, mode="packed")
        assert L.byte_parse(ch) == tree

    @given(tree=exp_trees())
    @settings(max_examples=30, deadline=None)
    def test_round_trip_any_tree_fragmented(self, tree):
        ch = L.byte_serialize(tree, EXP_SCHEMA, mode="per-node-fragmented")
        assert L.byte_parse(ch) == tree

    @given(tree=exp_trees(), initial=st.integers(min_value=18, max_value=96))
    @settings(max_examples=30, deadline=None)
    def test_round_trip_under_any_chunk_policy(self, tree, initial):
        policy = L.ChunkPolicy(initial=initial)
        ch = L.byte_serialize(tree, EXP_SCHEMA, policy, mode="packed")
        assert L.byte_parse(ch) == tree

    def test_chunk_growth_doubles(self):
        tree = L.full_tree(4)
        ch = L.byte_serialize(tree, L.tree_schema(), L.ChunkPolicy(initial=18),
                              mode="packed")
        sizes = ch.chunk_sizes()
        assert len(sizes) > 1
        caps = ch.capacities
        assert all(b == min(a * 2, L.ChunkPolicy().cap) or b == a
                   for a, b in zip(caps, caps[1:]))

    def test_cap_bounds_chunk_sizes(self):
        policy = L.ChunkPolicy(initial=18, cap=32)
        tree = L.full_tree(6)
        ch = L.byte_serialize(tree, L.tree_schema(), policy, mode="packed")
        assert ch.chunk_count() > 1
        assert all(sz <= 32 for sz in ch.chunk_sizes())
        assert L.byte_parse(ch) == tree

    def test_deep_chain_serializes_per_node_without_recursion(self):
        nat = L.Schema({"Z": (), "Su": ("Nat",)})
        v = L.Node("Z", ())
        for _ in range(12_000):
            v = L.Node("Su", (v,))
        limit = sys.getrecursionlimit()
        ch = L.byte_serialize(v, nat, mode="per-node-fragmented")
        assert sys.getrecursionlimit() == limit
        assert ch.chunk_count() == 12_001 and ch.links == 12_000
        (total, leaves), _ = L.traverse_bytes(ch, repeats=1)
        assert (total, leaves) == (0, 1)

    @pytest.mark.parametrize("mode", ["packed", "per-node-fragmented"])
    def test_deep_chain_parses_under_default_recursion_limit(
            self, mode, default_recursion_limit):
        nat = L.Schema({"Z": (), "Su": ("Nat",)})
        v = L.Node("Z", ())
        for _ in range(10_000):
            v = L.Node("Su", (v,))
        ch = L.byte_serialize(v, nat, mode=mode)
        got = L.byte_parse(ch)
        # walked, since == on dataclasses recurses once per level
        depth = 0
        while got.tag == "Su":
            (got,) = got.children
            depth += 1
        assert depth == 10_000 and got == L.Node("Z", ())

    def test_packed_peak_memory_is_the_buffer(self):
        # single pass: no piece or width list per node, only the output
        # buffer (grown in place) and a stack as deep as the tree
        tree, schema = L.full_tree(14), L.tree_schema()
        tracemalloc.start()
        try:
            ch = L.byte_serialize(tree, schema, mode="packed")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * len(ch.data) + 64 * 1024

    def test_scalar_after_packed_field_rejected(self):
        with pytest.raises(ValueError, match="scalar after packed"):
            L.Schema({"C": ("T", "Int"), "N": ()})

    def test_oversized_single_node_rejected(self):
        # one constructor with 8 scalar fields cannot fit a 32-byte chunk
        policy = L.ChunkPolicy(initial=18, cap=32)
        with pytest.raises(L.ValueTooLarge):
            L.byte_serialize(L.full_tree(2, leaf_scalars=8),
                             L.tree_schema(leaf_scalars=8), policy,
                             mode="packed")


class TestChunkPolicy:
    @pytest.mark.parametrize("field, kwargs", [
        ("initial", {"initial": 0}), ("growth", {"growth": 1}),
        ("cap", {"initial": 64, "cap": 8})], ids=["initial", "growth", "cap"])
    def test_invalid_policy_rejected(self, field, kwargs):
        with pytest.raises(ValueError, match=field):
            L.ChunkPolicy(**kwargs)

    def test_validation_survives_optimized_mode(self):
        # the checks are raises, not asserts, so `python -O` keeps them
        src = str(Path(L.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        code = ("from locpar.layout import ChunkPolicy\n"
                "try:\n    ChunkPolicy(initial=0)\nexcept ValueError:\n"
                "    raise SystemExit(0)\nraise SystemExit(1)\n")
        proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr


class TestTraversal:
    def test_aggregates_agree_across_modes(self):
        tree = L.full_tree(6)
        schema = L.tree_schema()
        cp = L.byte_serialize(tree, schema, mode="packed")
        cf = L.byte_serialize(tree, schema, mode="per-node-fragmented")
        (agg_p, _), (agg_f, _) = L.traverse_bytes(cp), L.traverse_bytes(cf)
        assert agg_p == agg_f == (64, 64)

    @given(tree=exp_trees())
    @settings(max_examples=30, deadline=None)
    def test_traversal_matches_tree_sum(self, tree):
        def walk(n):
            if isinstance(n, L.Leaf):
                return (n.value, 0)
            s, c = 0, 1 if not n.children else 0
            for ch in n.children:
                a, b = walk(ch)
                s, c = s + a, c + b
            if all(isinstance(c2, L.Leaf) for c2 in n.children):
                c = 1
            return (s, c)

        expect = walk(tree)
        ch = L.byte_serialize(tree, EXP_SCHEMA, mode="packed")
        (agg, _) = L.traverse_bytes(ch, repeats=1)
        assert agg == expect


class TestMalformedBuffers:
    @pytest.mark.parametrize("marker", [L.LINK_MARKER, L.PTR_MARKER],
                             ids=["link", "pointer"])
    def test_cycle_raises(self, marker):
        # a link or pointer to itself, and a constructor whose field points
        # back at it: neither parsing nor traversal may loop or exhaust the
        # stack
        nat = L.Schema({"Su": ("Nat",), "Z": ()})
        su = nat.table["Su"][0]
        for data in (bytes([marker]) + struct.pack("<Q", 0) + bytes([su]),
                     bytes([su, marker]) + struct.pack("<Q", 0)):
            ch = L.Chunks(bytearray(data), [0], 1, nat)
            for read in (L.byte_parse, lambda ch: L.traverse_bytes(ch, 1)):
                with pytest.raises(L.MalformedBuffer, match="cycle"):
                    read(ch)

    def test_truncated_buffer(self):
        ch = L.byte_serialize(GOLDEN, EXP_SCHEMA, mode="packed")
        ch.data = ch.data[:-3]
        with pytest.raises(L.MalformedBuffer):
            L.byte_parse(ch)

    def test_unknown_tag_byte(self):
        ch = L.byte_serialize(GOLDEN, EXP_SCHEMA, mode="packed")
        ch.data = bytearray(ch.data)
        ch.data[0] = 0xFD
        with pytest.raises(L.MalformedBuffer):
            L.byte_parse(ch)


class TestPointerStats:
    def test_exact_counts_depth_10(self):
        stats = L.bottom_two_pack_stats(10, leaf_scalars=4)
        leaves = stats.leaves
        assert leaves == 2**10
        assert stats.per_node_links == 2 * leaves - 2
        assert stats.eliminated == 6 * (leaves // 4)
        assert stats.remaining == stats.per_node_links - stats.eliminated
        assert abs(stats.eliminated_ratio
                   - 0.75 * leaves / (leaves - 1)) < 1e-12
