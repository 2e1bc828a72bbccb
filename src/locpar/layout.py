"""Canonical value extraction, fragmentation reports, byte serialization.

Byte encoding widths: constructor tag 1 byte, scalar 8 bytes little-endian,
link 9 bytes (a 0xFF marker followed by a u64 absolute offset into the
logical concatenation of all chunks).  Packed mode lays a value out in
preorder, starting a fresh chunk (doubling size up to a cap) whenever fewer
than a link's worth of bytes would remain; per-node-fragmented mode gives
every constructor node its own chunk and joins them with links — the fully
fragmented worst case.
"""

from __future__ import annotations

import statistics
import struct
import time
from dataclasses import dataclass, field as dcfield

from .store import (Store, ConcreteLoc, Concrete, Tag, Scalar,
                    IndirectionCell, StoreError, deref_concrete, resolve_links)

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


class IncompleteValue(Exception):
    pass


class ValueTooLarge(Exception):
    pass


class MalformedBuffer(Exception):
    pass


def flatten_value(root: ConcreteLoc, tau: str, store: Store, decls):
    """Read a serialized value back as a pure tree, following links.

    The read keeps its own stack of open constructors, so any depth can be
    read."""
    cl = deref_concrete(root)
    if not isinstance(cl.ext, Concrete):
        raise IncompleteValue(f"root of {tau} is not a concrete address")
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
            except StoreError as err:
                raise IncompleteValue(err.message) from None
            heap = store.regions.get(r, {})
        if cell is None:
            raise IncompleteValue(f"missing cell at ({r}, {i})")
        if tau == "Int":
            if type(cell) is not Scalar:
                raise IncompleteValue(f"expected scalar at ({r}, {i})")
            v = Leaf(cell.value)
        else:
            if type(cell) is not Tag:
                raise IncompleteValue(f"expected tag at ({r}, {i})")
            tycon, ftys = decls.constructors[cell.name]
            if tycon != tau:
                raise IncompleteValue(f"tag {cell.name} is not a {tau} constructor")
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


### fragmentation report

@dataclass
class FragReport:
    total_regions: int
    extra_regions: int
    indirections: int
    total_cells: int
    serialized_fraction: float


def fragmentation_report(store: Store, metrics: dict) -> FragReport:
    total_cells = sum(len(h) for h in store.regions.values())
    inds = sum(1 for h in store.regions.values() for c in h.values()
               if isinstance(c, IndirectionCell))
    frac = 1.0 if total_cells == 0 else 1.0 - inds / total_cells
    return FragReport(total_regions=len(store.regions),
                      extra_regions=metrics.get("extra_regions", 0),
                      indirections=inds,
                      total_cells=total_cells,
                      serialized_fraction=frac)


### byte serialization

@dataclass(frozen=True)
class ChunkPolicy:
    initial: int = 64
    growth: int = 2
    cap: int = 1 << 30

    def __post_init__(self):
        assert self.initial >= TAG_BYTES
        assert self.growth > 1


@dataclass(frozen=True)
class Schema:
    """Tag table for byte encoding: field kinds per constructor tag."""
    fields_of: dict[str, tuple[str, ...]]  # tag -> field type names

    def __post_init__(self):
        object.__setattr__(self, "tag_ids",
                           {t: i for i, t in enumerate(sorted(self.fields_of))})
        object.__setattr__(self, "tag_names",
                           {i: t for t, i in self.tag_ids.items()})
        if len(self.fields_of) >= PTR_MARKER:
            raise ValueError("too many constructors for one-byte tags")

    @classmethod
    def from_decls(cls, decls) -> "Schema":
        return cls({t: tuple(decls.fields(t)) for t in decls.constructors})


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


def _serialize_packed(v, schema: Schema, policy: ChunkPolicy) -> Chunks:
    data = bytearray()
    boundaries = [0]
    capacities = [policy.initial]
    links = 0
    capacity = policy.initial
    used = 0

    def emit(piece: bytes):
        nonlocal capacity, used, links
        w = len(piece)
        if w + LINK_BYTES > policy.cap:
            raise ValueTooLarge(f"cell of {w} bytes exceeds chunk cap")
        if used + w + LINK_BYTES > capacity and used > 0:
            # close this chunk with a link to the start of the next one
            data.extend(struct.pack("<BQ", LINK_MARKER, len(data) + LINK_BYTES))
            links += 1
            boundaries.append(len(data))
            capacity = min(capacity * policy.growth, policy.cap)
            while w + LINK_BYTES > capacity:
                capacity = min(capacity * policy.growth, policy.cap)
            capacities.append(capacity)
            used = 0
        data.extend(piece)
        used += w

    # explicit stack: preorder over a tree that may share subtree objects.
    # A constructor's tag and its (leading) scalar fields are emitted as one
    # atomic piece so that chunk-continuation markers can only ever sit at a
    # tag position — scalar bytes are free to collide with marker values.
    if isinstance(v, Leaf):
        emit(struct.pack("<q", v.value))
        return Chunks(data, boundaries, links, schema, capacities)
    stack = [v]
    while stack:
        node = stack.pop()
        fks = schema.fields_of[node.tag]
        k = sum(1 for f in fks if f == "Int")
        piece = bytes([schema.tag_ids[node.tag]]) + b"".join(
            struct.pack("<q", c.value) for c in node.children[:k])
        emit(piece)
        stack.extend(reversed(node.children[k:]))
    return Chunks(data, boundaries, links, schema, capacities)


def _serialize_per_node(v, schema: Schema, policy: ChunkPolicy) -> Chunks:
    data = bytearray()
    boundaries: list[int] = []
    links = 0
    # explicit stack of (link slot or None, node), popped in preorder: each
    # constructor node becomes its own chunk, and each packed (non-scalar)
    # field a link slot, patched with the child chunk's offset when it starts
    stack: list[tuple[int | None, object]] = [(None, v)]
    while stack:
        slot, node = stack.pop()
        start = len(data)
        boundaries.append(start)
        if slot is not None:
            struct.pack_into("<BQ", data, slot, PTR_MARKER, start)
        if isinstance(node, Leaf):
            data.extend(struct.pack("<q", node.value))
            continue
        data.append(schema.tag_ids[node.tag])
        kids = []
        for kind, child in zip(schema.fields_of[node.tag], node.children):
            if kind == "Int":
                data.extend(struct.pack("<q", child.value))
            else:
                kids.append((len(data), child))
                data.extend(bytes(LINK_BYTES))
                links += 1
        if len(data) - start > policy.cap:
            raise ValueTooLarge("single node exceeds chunk cap")
        stack.extend(reversed(kids))
    return Chunks(data, boundaries, links, schema)


def byte_parse(chunks: Chunks):
    """Invert byte_serialize: rebuild the canonical value from bytes."""
    data = bytes(chunks.data)
    schema = chunks.schema
    n = len(data)

    def read(pos: int, kind: str):
        # marker bytes are only meaningful at tag positions: a scalar field
        # sits at a fixed offset after its constructor's tag, so its bytes
        # are read raw and may collide with the marker values freely
        if kind == "Int":
            if pos + SCALAR_BYTES > n:
                raise MalformedBuffer("truncated scalar")
            (x,) = struct.unpack_from("<q", data, pos)
            return Leaf(x), pos + SCALAR_BYTES
        # continuation links jump and never come back; subtree pointers are
        # followed for one child and parsing resumes after the 9-byte cell
        while pos < n and data[pos] == LINK_MARKER:
            if pos + LINK_BYTES > n:
                raise MalformedBuffer("truncated link")
            (pos,) = struct.unpack_from("<Q", data, pos + 1)
        if pos >= n:
            raise MalformedBuffer(f"offset {pos} past end of buffer")
        b = data[pos]
        if b == PTR_MARKER:
            if pos + LINK_BYTES > n:
                raise MalformedBuffer("truncated pointer")
            (target,) = struct.unpack_from("<Q", data, pos + 1)
            v, _ = read(target, kind)
            return v, pos + LINK_BYTES
        tag = schema.tag_names.get(b)
        if tag is None:
            raise MalformedBuffer(f"unknown tag byte {b} at {pos}")
        children = []
        p = pos + 1
        for fkind in schema.fields_of[tag]:
            child, p = read(p, fkind)
            children.append(child)
        return Node(tag, tuple(children)), p

    if not data:
        raise MalformedBuffer("empty buffer")
    # a bare scalar value serializes to exactly one 8-byte cell
    v, _ = read(0, "Int" if n == SCALAR_BYTES else "node")
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
    # per tag byte: (scalar field count, packed child count); scalar fields
    # always precede packed fields, so each constructor is scalars then kids
    info: list = [None] * 256
    for tid, tag in schema.tag_names.items():
        fks = schema.fields_of[tag]
        k = sum(1 for f in fks if f == "Int")
        if any(f == "Int" for f in fks[k:]):
            raise MalformedBuffer(f"scalar after packed field in {tag}")
        info[tid] = (k, len(fks) - k)
    unpack = struct.unpack_from

    def one_pass():
        # cursor scan with a worklist: a packed buffer never pushes (pure
        # linear scan); a fragmented one chases one pointer per edge
        t0 = time.perf_counter_ns()
        total = 0
        count = 0
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
                        continue
                    if b == 0xFE:
                        (tgt,) = unpack("<Q", data, pos + 1)
                        if tgt >= n:
                            raise MalformedBuffer("pointer past end of buffer")
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


### chunk file format

MAGIC = b"LCP1"


def write_chunks(chunks: Chunks, fp) -> None:
    fp.write(MAGIC)
    fp.write(struct.pack("<I", chunks.chunk_count()))
    for start, size in zip(chunks.boundaries, chunks.chunk_sizes()):
        fp.write(struct.pack("<I", size))
        fp.write(chunks.data[start:start + size])


def read_chunks(fp, schema: Schema) -> Chunks:
    if fp.read(4) != MAGIC:
        raise MalformedBuffer("bad magic")
    (count,) = struct.unpack("<I", fp.read(4))
    data = bytearray()
    boundaries = []
    for _ in range(count):
        (size,) = struct.unpack("<I", fp.read(4))
        boundaries.append(len(data))
        data.extend(fp.read(size))
    return Chunks(data, boundaries, 0, schema)


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
