"""Canonical value extraction, byte serialization and traversal.

Byte encoding widths: tag 1 byte, scalar 8 bytes little-endian, link 9 bytes
(a marker, then a u64 absolute offset into the concatenated chunks).  Packed
mode lays a value out in preorder, starting a fresh chunk (doubling size up
to a cap) whenever fewer than a link's worth of bytes would remain;
per-node-fragmented mode gives every constructor its own chunk, joined by
pointers.  `Schema` builds the per-tag table that both serializers and the
traversal read, and rejects a scalar field after a packed one.
"""

from __future__ import annotations

import statistics
import struct
import time
from dataclasses import dataclass, field as dcfield

from .store import (Store, ConcreteLoc, Concrete, Tag, Scalar,
                    IndirectionCell, SemanticsError, deref_concrete, resolve_links)

LINK_MARKER = 0xFF   # continuation: the value resumes in another chunk
PTR_MARKER = 0xFE    # subtree pointer: a whole child lives in another chunk
TAG_BYTES = 1
SCALAR_BYTES = 8
LINK_BYTES = 9


### canonical values

@dataclass(frozen=True)
class Node:
    tag: str
    children: tuple  # Node | Leaf, in field order


@dataclass(frozen=True)
class Leaf:
    value: int


class ValueTooLarge(ValueError):
    """A constructor does not fit the chunk policy's cap."""


class MalformedBuffer(Exception):
    pass


def flatten_value(root: ConcreteLoc, tau: str, store: Store, decls):
    """Read a serialized value back as a pure tree, following links.

    The read keeps its own stack of open constructors, so any depth can be
    read."""
    cl = deref_concrete(root)
    if not isinstance(cl.ext, Concrete):
        raise SemanticsError("IncompleteValue",
                             f"root of {tau} is not a concrete address")
    r, i = cl.region, cl.ext.index
    heap = store.regions.get(r, {})
    # open constructors: (tag, field types, the fields read so far)
    stack: list[tuple[str, list[str], list]] = []
    while True:
        cell = heap.get(i)
        if type(cell) is IndirectionCell:
            # the value and everything after it continue in the target region
            try:
                r, i, cell = resolve_links(store, r, i)
            except SemanticsError as err:
                raise SemanticsError("IncompleteValue", err.message) from None
            heap = store.regions.get(r, {})
        if cell is None:
            raise SemanticsError("IncompleteValue", f"missing cell at ({r}, {i})")
        if tau == "Int":
            if type(cell) is not Scalar:
                raise SemanticsError("IncompleteValue", f"expected scalar at ({r}, {i})")
            v = Leaf(cell.value)
        else:
            if type(cell) is not Tag:
                raise SemanticsError("IncompleteValue", f"expected tag at ({r}, {i})")
            tycon, ftys = decls.constructors[cell.name]
            if tycon != tau:
                raise SemanticsError("IncompleteValue",
                                     f"tag {cell.name} is not a {tau} constructor")
            if ftys:
                stack.append((cell.name, ftys, []))
                tau = ftys[0]
                i += 1
                continue
            v = Node(cell.name, ())
        i += 1
        # hand the finished value to the constructors it completes
        while stack:
            tag, ftys, fields = stack[-1]
            fields.append(v)
            if len(fields) < len(ftys):
                tau = ftys[len(fields)]
                break
            stack.pop()
            v = Node(tag, tuple(fields))
        else:
            return v


### byte serialization

@dataclass(frozen=True)
class ChunkPolicy:
    initial: int = 64
    growth: int = 2
    cap: int = 1 << 30

    def __post_init__(self):
        if self.initial < TAG_BYTES:
            raise ValueError(f"initial chunk size {self.initial} is below "
                             f"{TAG_BYTES} byte")
        if self.growth < 2:
            raise ValueError(f"chunk growth {self.growth} is below 2")
        if self.cap < self.initial:
            raise ValueError(f"chunk cap {self.cap} is below the initial "
                             f"size {self.initial}")


@dataclass(frozen=True)
class Schema:
    """Field kinds per constructor tag; scalars must precede packed fields.
    `table` maps a tag to (tag byte, scalar count k, packed field count, a
    packer of (tag byte, *k scalars), that piece's byte width)."""
    fields_of: dict[str, tuple[str, ...]]  # tag -> field type names

    def __post_init__(self):
        if len(self.fields_of) >= PTR_MARKER:
            raise ValueError("too many constructors for one-byte tags")
        table = {}
        for tid, tag in enumerate(sorted(self.fields_of)):
            fks = self.fields_of[tag]
            k = sum(1 for f in fks if f == "Int")
            if "Int" in fks[k:]:
                raise ValueError(f"scalar after packed field in {tag}")
            table[tag] = (tid, k, len(fks) - k,
                          struct.Struct("<B" + "q" * k).pack,
                          TAG_BYTES + SCALAR_BYTES * k)
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "tag_names",
                           {e[0]: t for t, e in table.items()})


@dataclass
class Chunks:
    data: bytearray
    boundaries: list[int]  # start offset of each chunk, ascending
    links: int
    schema: Schema
    capacities: list[int] = dcfield(default_factory=list)  # per-chunk budget

    def chunk_count(self) -> int:
        return len(self.boundaries)

    def chunk_sizes(self) -> list[int]:
        bounds = self.boundaries + [len(self.data)]
        return [bounds[i + 1] - bounds[i] for i in range(len(self.boundaries))]


def byte_serialize(v, schema: Schema, policy: ChunkPolicy = ChunkPolicy(),
                   mode: str = "packed") -> Chunks:
    if mode == "packed":
        return _serialize_packed(v, schema, policy)
    if mode == "per-node-fragmented":
        return _serialize_per_node(v, schema, policy)
    raise ValueError(f"unknown mode {mode!r}")


_SCALAR = struct.Struct("<q").pack
_LINK = struct.Struct("<BQ").pack
_OFFSET = struct.Struct("<Q").pack_into


def _serialize_packed(v, schema: Schema, policy: ChunkPolicy) -> Chunks:
    cap, growth = policy.cap, policy.growth
    capacity = policy.initial
    if isinstance(v, Leaf):
        if SCALAR_BYTES + LINK_BYTES > cap:
            raise ValueTooLarge("scalar exceeds chunk cap")
        return Chunks(bytearray(_SCALAR(v.value)), [0], 0, schema, [capacity])
    # preorder over a tree that may share subtrees.  A tag and its scalars are
    # one piece, so continuation markers sit only at tag positions.
    table = schema.table
    data = bytearray()
    boundaries = [0]
    capacities = [capacity]
    used = 0
    stack = [v]
    while stack:
        node = stack.pop()
        tid, k, nch, pack, w = table[node.tag]
        if w + LINK_BYTES > cap:
            raise ValueTooLarge(f"cell of {w} bytes exceeds chunk cap")
        if used + w + LINK_BYTES > capacity and used > 0:
            # close this chunk with a link to the start of the next one
            data += _LINK(LINK_MARKER, len(data) + LINK_BYTES)
            boundaries.append(len(data))
            capacity = min(capacity * growth, cap)
            while w + LINK_BYTES > capacity:
                capacity = min(capacity * growth, cap)
            capacities.append(capacity)
            used = 0
        used += w
        kids = node.children
        if k == 0:
            data.append(tid)
        elif k == 1:
            data += pack(tid, kids[0].value)
        else:
            data += pack(tid, *[c.value for c in kids[:k]])
        if nch:
            stack += kids[k:][::-1]
    # one continuation link closes every chunk but the last
    return Chunks(data, boundaries, len(boundaries) - 1, schema, capacities)


def _serialize_per_node(v, schema: Schema, policy: ChunkPolicy) -> Chunks:
    if isinstance(v, Leaf):
        return Chunks(bytearray(_SCALAR(v.value)), [0], 0, schema)
    # preorder: each node is a chunk, each packed field a pointer.  The first
    # child's chunk follows its parent's, so that pointer is written at once;
    # a later child is pushed under its pointer's offset, patched at its pop.
    table = schema.table
    cap = policy.cap
    blank = _LINK(PTR_MARKER, 0)
    data = bytearray()
    boundaries = []
    pos = 0
    stack = [v]
    pop = stack.pop
    push = stack.append
    while stack:
        node = pop()
        if type(node) is int:
            _OFFSET(data, node, pos)
            node = pop()
        boundaries.append(pos)
        tid, k, nch, pack, w = table[node.tag]
        start = pos
        pos += w + LINK_BYTES * nch
        if pos - start > cap:
            raise ValueTooLarge("single node exceeds chunk cap")
        kids = node.children
        if k == 0:
            data.append(tid)
        elif k == 1:
            data += pack(tid, kids[0].value)
        else:
            data += pack(tid, *[c.value for c in kids[:k]])
        if nch:
            data += _LINK(PTR_MARKER, pos)
            if nch == 2:  # binary nodes, most of a tree, skip the loop
                data += blank
                push(kids[k + 1])
                push(start + w + LINK_BYTES + 1)
            else:
                for i in range(nch - 1, 0, -1):
                    data += blank
                    push(kids[k + i])
                    push(start + w + LINK_BYTES * i + 1)
            push(kids[k])
    # every chunk but the root's is the target of exactly one pointer
    return Chunks(data, boundaries, len(boundaries) - 1, schema)


def byte_parse(chunks: Chunks):
    """Invert byte_serialize: rebuild the canonical value from bytes, with
    its own stack of open constructors, so any depth can be read.  Markers
    only count at tag positions (scalar bytes sit at fixed offsets and are
    read raw).  A continuation link jumps for good; a subtree pointer is
    followed for one child, then parsing resumes past the pointer's cell."""
    data = bytes(chunks.data)
    tag_names, fields_of = chunks.schema.tag_names, chunks.schema.fields_of
    n = len(data)
    if not data:
        raise MalformedBuffer("empty buffer")
    # a bare scalar value serializes to exactly one 8-byte cell
    kind = "Int" if n == SCALAR_BYTES else "node"
    # open constructors: (tag, field kinds, the fields read so far, where
    # parsing resumes once it is complete if a pointer led to it, else None)
    stack: list[tuple[str, tuple[str, ...], list, int | None]] = []
    pos, resume, hops = 0, None, 0
    while True:
        if kind == "Int":
            if pos + SCALAR_BYTES > n:
                raise MalformedBuffer("truncated scalar")
            (x,) = struct.unpack_from("<q", data, pos)
            v, end = Leaf(x), pos + SCALAR_BYTES
        else:
            b = data[pos] if pos < n else None
            if b == LINK_MARKER or b == PTR_MARKER:
                # without a tag in between, more hops than bytes is a cycle
                hops += 1
                if hops > n:
                    raise MalformedBuffer(f"link cycle through {pos}")
                if pos + LINK_BYTES > n:
                    raise MalformedBuffer("truncated link" if b == LINK_MARKER
                                          else "truncated pointer")
                if b == PTR_MARKER and resume is None:
                    resume = pos + LINK_BYTES
                (pos,) = struct.unpack_from("<Q", data, pos + 1)
                continue
            if b is None:
                raise MalformedBuffer(f"offset {pos} past end of buffer")
            tag = tag_names.get(b)
            if tag is None:
                raise MalformedBuffer(f"unknown tag byte {b} at {pos}")
            hops = 0
            kinds = fields_of[tag]
            if kinds:
                # a well-formed buffer nests no deeper than it has bytes
                if len(stack) >= n:
                    raise MalformedBuffer(f"pointer cycle through {pos}")
                stack.append((tag, kinds, [], resume))
                pos, kind, resume = pos + 1, kinds[0], None
                continue
            v, end = Node(tag, ()), pos + 1
        if resume is not None:
            end, resume = resume, None
        # hand the finished value to the constructors it completes
        while stack:
            tag, kinds, fields, ret = stack[-1]
            fields.append(v)
            if len(fields) < len(kinds):
                pos, kind = end, kinds[len(fields)]
                break
            stack.pop()
            v = Node(tag, tuple(fields))
            if ret is not None:
                end = ret
        else:
            return v


def traverse_bytes(chunks: Chunks, repeats: int = 9):
    """Leaf-sum and leaf-count traversal with a median-of-N timing.

    Returns ((leaf_sum, leaf_count), median_nanoseconds).
    """
    one_pass = _traversal(chunks)
    runs = [one_pass() for _ in range(repeats)]
    return runs[-1][0], statistics.median(ns for _, ns in runs)


def paired_slowdown(packed: Chunks, fragmented: Chunks, pairs: int = 9):
    """Time packed and fragmented passes alternately: ((aggregate, median
    ns) for packed, the same for fragmented, the median per-pair ratio of
    fragmented to packed time).  A pair runs back to back, so a drift in the
    host's speed moves both sides of its ratio alike."""
    pass_p, pass_f = _traversal(packed), _traversal(fragmented)
    runs = [(pass_p(), pass_f()) for _ in range(pairs)]
    (agg_p, _), (agg_f, _) = runs[-1]
    return ((agg_p, statistics.median(p[1] for p, _ in runs)),
            (agg_f, statistics.median(f[1] for _, f in runs)),
            statistics.median(f[1] / p[1] for p, f in runs))


def _traversal(chunks: Chunks):
    """A function making one timed leaf-sum and leaf-count pass over `chunks`:
    ((leaf_sum, leaf_count), nanoseconds)."""
    data = bytes(chunks.data)
    schema = chunks.schema
    n = len(data)
    # per tag byte: (scalar field count, packed child count)
    info: list = [None] * 256
    for tid, k, nch, _, _ in schema.table.values():
        info[tid] = (k, nch)
    unpack = struct.unpack_from

    def one_pass():
        # cursor scan with a worklist: a packed buffer never pushes (pure
        # linear scan); a fragmented one chases one pointer per edge
        t0 = time.perf_counter_ns()
        total = 0
        count = 0
        hops = 0  # one per marker in a valid pass, so more than n is a cycle
        stack = [0]
        pop = stack.pop
        push = stack.append
        try:
            while stack:
                pos = pop()
                todo = 1
                while todo:
                    b = data[pos]
                    if b == 0xFF:
                        (pos,) = unpack("<Q", data, pos + 1)
                        if pos >= n:
                            raise MalformedBuffer("link past end of buffer")
                        if (hops := hops + 1) > n:
                            raise MalformedBuffer(f"link cycle through {pos}")
                        continue
                    if b == 0xFE:
                        (tgt,) = unpack("<Q", data, pos + 1)
                        if tgt >= n:
                            raise MalformedBuffer("pointer past end of buffer")
                        if (hops := hops + 1) > n:
                            raise MalformedBuffer(f"pointer cycle through {pos}")
                        push(tgt)
                        pos += 9
                        todo -= 1
                        continue
                    ti = info[b]
                    if ti is None:
                        raise MalformedBuffer(f"unknown tag byte {b} at {pos}")
                    k, nch = ti
                    pos += 1
                    if k:
                        # scalars sit contiguously after the tag; their bytes
                        # are raw and never hold markers
                        total += sum(unpack(f"<{k}q", data, pos))
                        pos += 8 * k
                    if nch == 0:
                        count += 1
                    todo += nch - 1
        except (struct.error, IndexError) as err:
            raise MalformedBuffer(str(err)) from err
        return (total, count), time.perf_counter_ns() - t0

    if not data:
        raise MalformedBuffer("empty buffer")
    if n == SCALAR_BYTES:  # a bare scalar value
        (x,) = struct.unpack_from("<q", data, 0)
        return lambda: ((x, 1), 0)
    return one_pass


### synthetic trees and pointer-count arithmetic

def full_tree(depth: int, leaf_scalars: int = 1, node_tag: str = "Node",
              leaf_tag: str = "Leaf"):
    """Full binary tree of 2^depth leaves, built with shared subtrees so the
    in-memory object is O(depth) while the serialized form is the full tree."""
    t = Node(leaf_tag, tuple(Leaf(1) for _ in range(leaf_scalars)))
    for _ in range(depth):
        t = Node(node_tag, (t, t))
    return t


def tree_schema(leaf_scalars: int = 1) -> Schema:
    return Schema({"Node": ("Tree", "Tree"),
                   "Leaf": tuple("Int" for _ in range(leaf_scalars))})


@dataclass
class PointerStats:
    leaves: int
    per_node_links: int       # every edge is a pointer in the per-node layout
    eliminated: int           # edges internal to a packed 4-leaf bottom block
    remaining: int
    eliminated_ratio: float
    link_byte_share: float    # remaining link bytes over total bytes


def bottom_two_pack_stats(depth: int, leaf_scalars: int = 1) -> PointerStats:
    """Pointer accounting for packing only the bottom two tree levels.

    A full binary tree with L leaves has 2L-1 constructor nodes and 2L-2
    edges; in the per-node layout each edge is a link.  Packing each 4-leaf
    bottom subtree (7 nodes) into one chunk removes that subtree's 6 internal
    edges: L/4 blocks remove 6L/4 = 1.5L links, i.e. 75% of 2L-2 as L grows.
    """
    if depth < 2:
        raise ValueError("need at least two levels below the root")
    leaves = 1 << depth
    per_node = 2 * leaves - 2
    eliminated = 6 * (leaves // 4)
    remaining = per_node - eliminated
    tag_bytes = (2 * leaves - 1) * TAG_BYTES
    scalar_bytes = leaves * leaf_scalars * SCALAR_BYTES
    link_bytes = remaining * LINK_BYTES
    total = tag_bytes + scalar_bytes + link_bytes
    return PointerStats(leaves=leaves,
                        per_node_links=per_node,
                        eliminated=eliminated,
                        remaining=remaining,
                        eliminated_ratio=eliminated / per_node,
                        link_byte_share=link_bytes / total)
