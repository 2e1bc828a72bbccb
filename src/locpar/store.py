"""Region store: heaps of write-once cells, location maps, and the store metafunctions.

A region is an append-only heap mapping cell indices to heap values.  Symbolic
locations are resolved through a per-task LocationMap into concrete locations,
whose index may be a plain cell index, an unfilled ivar, or an indirection to
another region's cell.

A store owns its heaps and writes them in place.  Heaps become shared only
through `Store.copy()`, where two futures split, and through a merge, which
hands the destination the heaps of regions only the source has.  A store
records the regions whose heap no other store shares (`owned`); its first
write to any other region copies that region's heap once and owns the copy.
So a store that is never copied never copies a heap.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class SemanticsError(Exception):
    """A runtime fault, stuck state or store violation, named by its code:
    a bug in the program or the evaluator."""

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
    `owned` names the regions whose heap dict no other store shares.
    """

    regions: dict[str, dict[int, HeapValue]] = field(default_factory=dict)
    owned: set[str] = field(default_factory=set, compare=False, repr=False)

    def copy(self) -> "Store":
        """A new region dict over the same heaps, which neither side owns now."""
        self.owned.clear()
        return Store(dict(self.regions))

    def add_region(self, r: str) -> None:
        if r in self.regions:
            raise SemanticsError("DuplicateRegion", f"region {r} already exists")
        self.regions[r] = {}
        self.owned.add(r)

    def _own(self, r: str) -> dict[int, HeapValue]:
        """r's heap, copied first if another store may share it."""
        if r not in self.owned:
            self.regions[r] = dict(self.regions[r])
            self.owned.add(r)
        return self.regions[r]

    def cell(self, r: str, i: int) -> HeapValue | None:
        heap = self.regions.get(r)
        if heap is None:
            return None
        return heap.get(i)

    def dump(self) -> str:
        """Heap dump: one line per region in creation order."""
        return "\n".join(f"{r}: [{', '.join(fmt_cell(heap[i]) for i in sorted(heap))}]"
                         for r, heap in self.regions.items())


def fmt_cell(hv: HeapValue) -> str:
    """A cell as dumps and traces print it: tag name, integer, or →(region,index)."""
    if isinstance(hv, Tag):
        return hv.name
    if isinstance(hv, Scalar):
        return str(hv.value)
    return f"→({hv.region},{hv.index})"


LocationMap = dict[str, ConcreteLoc]


### dereference

def deref_location(m: LocationMap, l: str) -> ConcreteLoc:
    """Resolve a symbolic location, collapsing one level of indirection.

    An Indirection(r', i) entry denotes the concrete address (r', i); Concrete
    and Ivar entries pass through unchanged.
    """
    cl = m.get(l)
    if cl is None:
        raise SemanticsError("UnboundLocation", f"location {l} not in map")
    return deref_concrete(cl)


def deref_concrete(cl: ConcreteLoc) -> ConcreteLoc:
    if isinstance(cl.ext, Indirection):
        return ConcreteLoc(cl.ext.region, Concrete(cl.ext.index), cl.origin)
    return cl


### end witness

class Decls:
    """Constructor signatures: tag -> (tycon, field types).

    Field types are 'Int' for scalars or a datatype name for packed fields.
    """

    def __init__(self, constructors: dict[str, tuple[str, list[str]]]):
        self.constructors = constructors

    def fields(self, tag: str) -> list[str]:
        return self.constructors[tag][1]

    def tycon_of(self, tag: str) -> str:
        return self.constructors[tag][0]


def resolve_links(s: Store, r: str, i: int) -> tuple[str, int, HeapValue | None]:
    """Follow indirection cells from (r, i): where a value starts, and its cell."""
    hv, seen = s.cell(r, i), ()
    while isinstance(hv, IndirectionCell):
        if (r, i) in seen:
            raise SemanticsError("IndirectionCycle", f"indirection cycle at ({r},{i})")
        seen = {*seen, (r, i)}
        r, i = hv.region, hv.index
        hv = s.cell(r, i)
    return r, i, hv


def end_witness(decls: Decls, tau: str, region: str, index: int, s: Store,
                ends: dict[tuple[str, int], tuple[str, int]] | None = None
                ) -> tuple[str, int]:
    """One past the last cell of the value of type tau rooted at (region, index).

    Case A reads the tag and folds field extents left to right; scalars occupy
    one cell.  Case B: a cell holding an indirection delegates to the target.
    Returns (region', end) in the region where the value actually lives.  The
    scan keeps its own stack, so any depth can be read.  `ends`, if given,
    gets the end of every tag cell read, and a tag cell in it is not rescanned.
    """
    # field types to scan, the next one last, and with `ends` open values' tag cells
    todo: list = [tau]
    r, cur = region, index
    heap = s.regions.get(r, {})
    while todo:
        fty = todo.pop()
        if type(fty) is tuple:
            ends[fty] = (r, cur)
            continue
        hv = heap.get(cur)
        if type(hv) is IndirectionCell:
            r, cur, hv = resolve_links(s, r, cur)
            heap = s.regions.get(r, {})
        if hv is None:
            raise SemanticsError("IncompleteValue", f"no cell at ({r},{cur})")
        if fty == "Int":
            if type(hv) is not Scalar:
                raise SemanticsError("TagMismatch", f"expected scalar at ({r},{cur})")
            cur += 1
            continue
        if type(hv) is not Tag:
            raise SemanticsError("TagMismatch", f"expected tag at ({r},{cur})")
        tycon, ftys = decls.constructors[hv.name]
        if tycon != fty:
            raise SemanticsError("TagMismatch", f"tag {hv.name} is not a constructor of {fty}")
        if ends is not None:
            if (r, cur) in ends:
                r, cur = ends[(r, cur)]
                heap = s.regions.get(r, {})
                continue
            todo.append((r, cur))
        todo += ftys[::-1]
        cur += 1
    return r, cur


### writing

def write_cell(s: Store, r: str, i: int, hv: HeapValue) -> bool:
    """Write-once cell update in place; False if the cell already holds hv."""
    heap = s.regions.get(r)
    if heap is None:
        raise SemanticsError("UnknownRegion", f"region {r} does not exist")
    existing = heap.get(i)
    if existing is not None:
        if existing == hv:
            return False
        raise SemanticsError("DoubleWrite", f"cell ({r},{i}) holds {existing}, refusing {hv}")
    s._own(r)[i] = hv
    return True


### merging

def merge_store(dst: Store, src: Store) -> None:
    """Merge task-private store src into dst in place; shared cells must agree.

    src is never written: a region only src has is shared with dst, and
    neither owns it afterwards.  A conflict may leave dst half merged.
    """
    for r, heap in src.regions.items():
        mine = dst.regions.get(r)
        if mine is None:
            dst.regions[r] = heap
            src.owned.discard(r)
            continue
        if mine is heap:
            continue
        for i, hv in heap.items():
            old = mine.get(i)
            if old is None:
                mine = dst._own(r)
                mine[i] = hv
            elif old != hv:
                raise SemanticsError("MergeConflict", f"cell ({r},{i}): {old} vs {hv}")


def merge_locmap(dst: LocationMap, src: LocationMap) -> None:
    """Merge location map src into dst in place; concrete indices beat ivars."""
    for l, cl2 in src.items():
        cl1 = dst.get(l)
        if cl1 is None or isinstance(cl1.ext, Ivar) and not isinstance(cl2.ext, Ivar):
            dst[l] = cl2
        elif (cl1.region, cl1.ext) != (cl2.region, cl2.ext) \
                and isinstance(cl1.ext, Ivar) == isinstance(cl2.ext, Ivar):
            raise SemanticsError("MergeConflict", f"location {l}: {cl1} vs {cl2}")


### allocation frontier

def alloc_frontier(r: str, s: Store) -> int:
    """Highest allocated index in r, or -1 when nothing has been allocated."""
    heap = s.regions.get(r)
    if not heap:
        return -1
    return max(heap)

