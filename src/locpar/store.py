"""Region store: heaps of write-once cells, location maps, and the store metafunctions.

A region is an append-only heap mapping cell indices to heap values.  Symbolic
locations are resolved through a per-task LocationMap into concrete locations,
whose index may be a plain cell index, an unfilled ivar, or an indirection to
another region's cell.  All operations treat stores and maps as values: they
return updated copies and never mutate their arguments in place.

Copies are copy-on-write per region: a copy gets its own region dict but
shares every heap dict with the store it came from, so copying costs
O(regions), not O(cells).  A shared heap is therefore never mutated: an
operation that changes a region's cells replaces that region's heap with an
updated copy.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class StoreError(Exception):
    """Raised for store-level contract violations."""

    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message


### extended indices and concrete locations

@dataclass(frozen=True)
class Concrete:
    index: int


@dataclass(frozen=True)
class Ivar:
    name: str


@dataclass(frozen=True)
class Indirection:
    region: str
    index: int


ExtIndex = Concrete | Ivar | Indirection


@dataclass(frozen=True)
class ConcreteLoc:
    """A region paired with an extended index.

    origin remembers which symbolic location produced this address; the
    evaluator uses it to look up field successors when stitching parallel
    allocations together.
    """

    region: str
    ext: ExtIndex
    origin: str | None = None


### heap values

@dataclass(frozen=True)
class Tag:
    name: str


@dataclass(frozen=True)
class Scalar:
    value: int


@dataclass(frozen=True)
class IndirectionCell:
    region: str
    index: int


HeapValue = Tag | Scalar | IndirectionCell


### store and location map

@dataclass
class Store:
    """region -> heap (cell index -> heap value).

    Region dict insertion order is creation order; dumps and merges rely on it.
    """

    regions: dict[str, dict[int, HeapValue]] = field(default_factory=dict)

    def copy(self) -> "Store":
        """A new region dict over the same (shared, never mutated) heaps."""
        return Store(dict(self.regions))

    def add_region(self, r: str) -> "Store":
        if r in self.regions:
            raise StoreError("DuplicateRegion", f"region {r} already exists")
        s = self.copy()
        s.regions[r] = {}
        return s

    def cell(self, r: str, i: int) -> HeapValue | None:
        heap = self.regions.get(r)
        if heap is None:
            return None
        return heap.get(i)

    def dump(self) -> str:
        """Heap dump: one line per region in creation order."""
        lines = []
        for r, heap in self.regions.items():
            cells = []
            for i in sorted(heap):
                hv = heap[i]
                if isinstance(hv, Tag):
                    cells.append(hv.name)
                elif isinstance(hv, Scalar):
                    cells.append(str(hv.value))
                else:
                    cells.append(f"→({hv.region},{hv.index})")
            lines.append(f"{r}: [{', '.join(cells)}]")
        return "\n".join(lines)


LocationMap = dict[str, ConcreteLoc]


### dereference

def deref_location(m: LocationMap, l: str) -> ConcreteLoc:
    """Resolve a symbolic location, collapsing one level of indirection.

    An Indirection(r', i) entry denotes the concrete address (r', i); Concrete
    and Ivar entries pass through unchanged.
    """
    cl = m.get(l)
    if cl is None:
        raise StoreError("UnboundLocation", f"location {l} not in map")
    return deref_concrete(cl)


def deref_concrete(cl: ConcreteLoc) -> ConcreteLoc:
    if isinstance(cl.ext, Indirection):
        return ConcreteLoc(cl.ext.region, Concrete(cl.ext.index), cl.origin)
    return cl


### end witness

class Decls:
    """Constructor signatures: tag -> (tycon, field types), tycon -> tags.

    Field types are 'Int' for scalars or a datatype name for packed fields.
    """

    def __init__(self, constructors: dict[str, tuple[str, list[str]]]):
        self.constructors = constructors
        self.by_tycon: dict[str, list[str]] = {}
        for tag, (tycon, _) in constructors.items():
            self.by_tycon.setdefault(tycon, []).append(tag)

    def fields(self, tag: str) -> list[str]:
        return self.constructors[tag][1]

    def tycon_of(self, tag: str) -> str:
        return self.constructors[tag][0]


def end_witness(decls: Decls, tau: str, region: str, index: int, s: Store) -> tuple[str, int]:
    """One past the last cell of the value of type tau rooted at (region, index).

    Case A reads the tag and folds field extents left to right; scalars occupy
    one cell.  Case B: a cell holding an indirection delegates to the target.
    Returns (region', end) in the region where the value actually lives.
    """
    hv = s.cell(region, index)
    if hv is None:
        raise StoreError("IncompleteValue", f"no cell at ({region},{index})")
    if isinstance(hv, IndirectionCell):
        return end_witness(decls, tau, hv.region, hv.index, s)
    if tau == "Int":
        if not isinstance(hv, Scalar):
            raise StoreError("TagMismatch", f"expected scalar at ({region},{index})")
        return region, index + 1
    if not isinstance(hv, Tag):
        raise StoreError("TagMismatch", f"expected tag at ({region},{index})")
    if decls.tycon_of(hv.name) != tau:
        raise StoreError("TagMismatch", f"tag {hv.name} is not a constructor of {tau}")
    r, cur = region, index + 1
    for fty in decls.fields(hv.name):
        r, cur = end_witness(decls, fty, r, cur, s)
    return r, cur


### writing

def write_cell(s: Store, r: str, i: int, hv: HeapValue) -> Store:
    """Write-once cell update; rewriting an identical value is a no-op."""
    if r not in s.regions:
        raise StoreError("UnknownRegion", f"region {r} does not exist")
    existing = s.regions[r].get(i)
    if existing is not None:
        if existing == hv:
            return s
        raise StoreError("DoubleWrite", f"cell ({r},{i}) holds {existing}, refusing {hv}")
    out = s.copy()
    heap = dict(s.regions[r])
    heap[i] = hv
    out.regions[r] = heap
    return out


### merging

def merge_store(s1: Store, s2: Store) -> Store:
    """Union of two task-private stores; shared cells must agree.

    A region only one side has, or whose heap both sides share, is shared
    with the result; a heap is copied only when the other side adds cells.
    """
    out = s1.copy()
    for r, heap in s2.regions.items():
        mine = out.regions.get(r)
        if mine is None:
            out.regions[r] = heap
            continue
        if mine is heap:
            continue
        merged = None
        for i, hv in heap.items():
            old = mine.get(i)
            if old is None:
                if merged is None:
                    merged = out.regions[r] = dict(mine)
                merged[i] = hv
            elif old != hv:
                raise StoreError("MergeConflict", f"cell ({r},{i}): {old} vs {hv}")
    return out


def merge_locmap(m1: LocationMap, m2: LocationMap) -> LocationMap:
    """Union of location maps; a concrete index wins over an ivar."""
    out = dict(m1)
    for l, cl2 in m2.items():
        cl1 = out.get(l)
        if cl1 is None or cl1 == cl2:
            out[l] = cl2
            continue
        if isinstance(cl1.ext, Ivar) and not isinstance(cl2.ext, Ivar):
            out[l] = cl2
        elif isinstance(cl2.ext, Ivar) and not isinstance(cl1.ext, Ivar):
            out[l] = cl1
        elif cl1.region == cl2.region and cl1.ext == cl2.ext:
            out[l] = cl1
        else:
            raise StoreError("MergeConflict", f"location {l}: {cl1} vs {cl2}")
    return out


### field linking

def link_fields(s: Store, m: LocationMap, decls: Decls, tau_prev: str,
                cl_prev: ConcreteLoc, l_next: str) -> Store:
    """Stitch field k to field k+1 across a region boundary.

    If the successor location resolves to an Indirection(r2, i2), an
    indirection cell is written one past the end of field k; fields that sit
    contiguously need nothing and the store is returned unchanged.
    """
    nxt = m.get(l_next)
    if nxt is None or not isinstance(nxt.ext, Indirection):
        return s
    cl = deref_concrete(cl_prev)
    if not isinstance(cl.ext, Concrete):
        raise StoreError("IncompleteValue", f"field at {cl} not addressable")
    r, end = end_witness(decls, tau_prev, cl.region, cl.ext.index, s)
    return write_cell(s, r, end, IndirectionCell(nxt.ext.region, nxt.ext.index))


### allocation frontier

def alloc_frontier(r: str, s: Store) -> int:
    """Highest allocated index in r, or -1 when nothing has been allocated."""
    heap = s.regions.get(r)
    if not heap:
        return -1
    return max(heap)

