"""Test-only oracles: a program printer for the parse/print round trip, a
byte parser that inverts both serializers, and the closed-form pointer
counts of packing a full tree's bottom two levels."""

import struct
from dataclasses import dataclass

from locpar import layout as L
from locpar import syntax as S


### printing

def print_expr(e: S.Expr, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(e, S.LetRegion):
        return f"{pad}letregion {e.region} in\n{print_expr(e.body, indent)}"
    if isinstance(e, S.LetLoc):
        return (f"{pad}letloc {e.loc}@{e.region} = {S._fmt_locexpr(e.locexpr)} in\n"
                f"{print_expr(e.body, indent)}")
    if isinstance(e, S.Let):
        spawn = "spawn " if e.spawn else ""
        return (f"{pad}let {e.var} : {e.ty} = {spawn}{_inline(e.bound)} in\n"
                f"{print_expr(e.body, indent)}")
    if isinstance(e, S.Case):
        lines = [f"{pad}case {_inline(e.scrut)} of {{"]
        for k, b in enumerate(e.branches):
            sep = "  " if k == 0 else "; "
            if isinstance(b, S.ConBranch):
                pats = "".join(f" ({x} : {ty})" for x, ty in b.fields)
                head = f"{b.tag}{pats}"
            elif isinstance(b, S.IntBranch):
                head = str(b.value)
            else:
                head = "_"
            lines.append(f"{pad}{sep}{head} ->\n{print_expr(b.body, indent + 2)}")
        lines.append(f"{pad}}}")
        return "\n".join(lines)
    return pad + _inline(e)


def _inline(e: S.Expr) -> str:
    if isinstance(e, S.Var):
        return e.name
    if isinstance(e, S.IntLit):
        return str(e.value)
    if isinstance(e, S.ConcreteLocVal):
        return f"<{e.loc.region},{e.loc.ext}>"
    if isinstance(e, S.PrimOp):
        return f"({_inline(e.lhs)} {e.op} {_inline(e.rhs)})"
    if isinstance(e, S.DataCon):
        parts = [e.tag, f"{e.loc}@{e.region}"] + [_inline(f) for f in e.fields]
        return "(" + " ".join(parts) + ")"
    if isinstance(e, S.App):
        locs = ", ".join(f"{l}@{r}" for l, r in e.locargs)
        parts = [e.func, f"[{locs}]"] + [_inline(a) for a in e.args]
        return "(" + " ".join(parts) + ")"
    # let-forms nested in an expression position print on one line via parens
    return "(" + " ".join(print_expr(e).split()) + ")"


def print_program(p: S.Program) -> str:
    lines: list[str] = []
    for dd in p.datadecls:
        rhs = " | ".join(" ".join([tag] + list(ftys)) for tag, ftys in dd.constructors)
        lines.append(f"data {dd.tycon} = {rhs}")
        lines.append("")
    for fd in p.fundecls:
        locs = ", ".join(f"{l}@{r}" for l, r in fd.locparams)
        params = ", ".join(f"{x} : {ty}" for x, ty in fd.params)
        lines.append(f"fun {fd.name} [{locs}] ({params}) : {fd.ret} =")
        lines.append(print_expr(fd.body, 1))
        lines.append("")
    lines.append("main =")
    lines.append(print_expr(p.main, 1))
    lines.append("")
    return "\n".join(lines)


### byte parsing

def byte_parse(chunks: L.Chunks):
    """Invert `layout.byte_serialize`: rebuild the canonical value from bytes, with
    its own stack of open constructors, so any depth can be read.  Markers
    only count at tag positions (scalar bytes sit at fixed offsets and are
    read raw).  A continuation link jumps for good; a subtree pointer is
    followed for one child, then parsing resumes past the pointer's cell."""
    data = bytes(chunks.data)
    tag_names, fields_of = chunks.schema.tag_names, chunks.schema.fields_of
    n = len(data)
    if not data:
        raise L.MalformedBuffer("empty buffer")
    # a bare scalar value serializes to exactly one 8-byte cell
    kind = "Int" if n == L.SCALAR_BYTES else "node"
    # open constructors: (tag, field kinds, the fields read so far, where
    # parsing resumes once it is complete if a pointer led to it, else None)
    stack: list[tuple[str, tuple[str, ...], list, int | None]] = []
    pos, resume, hops = 0, None, 0
    while True:
        if kind == "Int":
            if pos + L.SCALAR_BYTES > n:
                raise L.MalformedBuffer("truncated scalar")
            (x,) = struct.unpack_from("<q", data, pos)
            v, end = L.Leaf(x), pos + L.SCALAR_BYTES
        else:
            b = data[pos] if pos < n else None
            if b == L.LINK_MARKER or b == L.PTR_MARKER:
                # without a tag in between, more hops than bytes is a cycle
                hops += 1
                if hops > n:
                    raise L.MalformedBuffer(f"link cycle through {pos}")
                if pos + L.LINK_BYTES > n:
                    raise L.MalformedBuffer("truncated link" if b == L.LINK_MARKER
                                            else "truncated pointer")
                if b == L.PTR_MARKER and resume is None:
                    resume = pos + L.LINK_BYTES
                (pos,) = struct.unpack_from("<Q", data, pos + 1)
                continue
            if b is None:
                raise L.MalformedBuffer(f"offset {pos} past end of buffer")
            tag = tag_names.get(b)
            if tag is None:
                raise L.MalformedBuffer(f"unknown tag byte {b} at {pos}")
            hops = 0
            kinds = fields_of[tag]
            if kinds:
                # a well-formed buffer nests no deeper than it has bytes
                if len(stack) >= n:
                    raise L.MalformedBuffer(f"pointer cycle through {pos}")
                stack.append((tag, kinds, [], resume))
                pos, kind, resume = pos + 1, kinds[0], None
                continue
            v, end = L.Node(tag, ()), pos + 1
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
            v = L.Node(tag, tuple(fields))
            if ret is not None:
                end = ret
        else:
            return v


### pointer-count arithmetic

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
    tag_bytes = (2 * leaves - 1) * L.TAG_BYTES
    scalar_bytes = leaves * leaf_scalars * L.SCALAR_BYTES
    link_bytes = remaining * L.LINK_BYTES
    total = tag_bytes + scalar_bytes + link_bytes
    return PointerStats(leaves=leaves,
                        per_node_links=per_node,
                        eliminated=eliminated,
                        remaining=remaining,
                        eliminated_ratio=eliminated / per_node,
                        link_byte_share=link_bytes / total)
