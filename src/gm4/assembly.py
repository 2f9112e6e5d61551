"""Whole graph-manifold structures: validation, reduction, invariants and
desk-scale comparison of reduced structures.

A GraphStructure is a labeled set of blocks plus edges pairing boundary
components through pi1 isomorphisms of the boundary torus bundles.  Blocks
present their base surfaces in the fixed generator convention of
``bundles``; the reduction surgeries below re-present bases explicitly
(boundary rotations, moves to the front, mirrors) so that merged
blocks land back in that convention.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from heapq import heapify, heappop, heappush
from typing import Dict, List, Optional, Sequence, Tuple

from . import smith
from .gl2z import GL2Z, I2, Mat2, _ext_gcd, conjugate_in, int_str, product
from .bundles import (
    Block,
    BoundaryIso,
    Pi1Element,
    SurfaceWithBoundary,
    TorusBundleOverCircle,
    UnsupportedOperationError,
    compose_isos,
    fiber_matrix,
    intertwiner_basis,
    is_fiber_preserving,
    iso_inverse,
    validate_block,
    validate_glueing,
)
from .meyer import boundary_psi_sum

End = Tuple[str, str]  # (block label, boundary label)


class StructureError(ValueError):
    """Structure fails validation where a valid one is required."""


class NotReducedError(ValueError):
    """Comparison requires reduced structures."""


class ClosedBaseError(ValueError):
    """Reduction consumed every boundary component: the structure was a
    single torus bundle over a closed surface, not a block presentation."""


@dataclass(frozen=True)
class Edge:
    end1: End
    end2: End
    iso: BoundaryIso


@dataclass(frozen=True)
class GraphStructure:
    blocks: Tuple[Tuple[str, Block], ...]
    edges: Tuple[Edge, ...]

    def block_map(self) -> Dict[str, Block]:
        return dict(self.blocks)

    def block(self, label: str) -> Block:
        return self.block_map()[label]


def structure(blocks: Dict[str, Block], edges: Sequence[Edge]) -> GraphStructure:
    return GraphStructure(tuple(sorted(blocks.items())), tuple(edges))


def validate_structure(gs: GraphStructure) -> List[str]:
    out: List[str] = []
    labels = [lbl for lbl, _ in gs.blocks]
    if not labels:
        out.append("structure has no blocks")
    if len(set(labels)) != len(labels):
        out.append("block labels are not distinct")
        return out
    blocks = gs.block_map()
    for lbl, block in gs.blocks:
        for v in validate_block(block):
            out.append(f"block {lbl}: {v}")
    seen: Dict[End, int] = {}
    for idx, edge in enumerate(gs.edges):
        for end in (edge.end1, edge.end2):
            blk, bd = end
            if blk not in blocks:
                out.append(f"edge {idx}: unknown block label {blk!r}")
                continue
            if bd not in blocks[blk].boundary_labels():
                out.append(f"edge {idx}: unknown boundary label {blk}.{bd}")
                continue
            if end in seen and edge.end1 != edge.end2:
                out.append(
                    f"edge {idx}: boundary {blk}.{bd} already glued by edge {seen[end]}"
                )
            seen[end] = idx
        if edge.end1 == edge.end2:
            out.append(f"edge {idx}: boundary glued to itself")
    for lbl, block in gs.blocks:
        for bd in block.boundary_labels():
            if (lbl, bd) not in seen:
                out.append(f"open boundary: {lbl}.{bd} appears in no edge")
    if out:
        return out
    checked: Dict[BoundaryIso, List[str]] = {}  # each distinct glueing is checked once
    for idx, edge in enumerate(gs.edges):
        m1 = blocks[edge.end1[0]].monodromies[edge.end1[1]]
        m2 = blocks[edge.end2[0]].monodromies[edge.end2[1]]
        if edge.iso.source.phi != m1:
            out.append(
                f"edge {idx}: glueing mismatch: iso source monodromy "
                f"{edge.iso.source.phi} != boundary monodromy {m1}"
            )
        if edge.iso.target.phi != m2:
            out.append(
                f"edge {idx}: glueing mismatch: iso target monodromy "
                f"{edge.iso.target.phi} != boundary monodromy {m2}"
            )
        if edge.iso.source.phi == m1 and edge.iso.target.phi == m2:
            found = checked.get(edge.iso)
            if found is None:
                found = checked[edge.iso] = validate_glueing(edge.iso)
            for v in found:
                out.append(f"edge {idx}: {v}")
    reached = _breadth_first(gs)
    if len(reached) != len(labels):
        missing = sorted(set(labels) - set(reached))
        out.append(f"underlying graph not connected: unreachable blocks {missing}")
    return out


def _breadth_first(gs: GraphStructure) -> List[str]:
    """The labels of the blocks that the first block reaches, in breadth-first
    order of the block graph, each block's neighbours in edge order."""
    adjacent: Dict[str, List[str]] = {lbl: [] for lbl, _ in gs.blocks}
    for edge in gs.edges:
        adjacent[edge.end1[0]].append(edge.end2[0])
        adjacent[edge.end2[0]].append(edge.end1[0])
    order = [gs.blocks[0][0]]
    placed = set(order)
    for lbl in order:
        for other in adjacent[lbl]:
            if other not in placed:
                placed.add(other)
                order.append(other)
    return order


def require_valid(gs: GraphStructure) -> None:
    diags = validate_structure(gs)
    if diags:
        raise StructureError("; ".join(diags))


def is_reduced(gs: GraphStructure) -> Tuple[bool, List[int]]:
    """(decision, indices of fiber-preserving edges)."""
    offending = [i for i, e in enumerate(gs.edges) if is_fiber_preserving(e.iso)]
    return not offending, offending


def euler_characteristic(gs: GraphStructure) -> int:
    """Euler characteristic, always 0: a block over the base F has
    chi = chi(T^2) * chi(F) = 0, and the decomposing manifolds are closed
    3-manifolds with chi = 0."""
    return 0


def manifold_signature(gs: GraphStructure) -> Fraction:
    """Signature: sum of block signatures, blocks oriented compatibly
    (glueings reversing the induced boundary orientations), as one third of
    the sum of their boundary psi-sums."""
    return Fraction(sum(boundary_psi_sum(block) for _, block in gs.blocks), 3)


# ---------------------------------------------------------------------------
# first homology via the abelianized graph-of-groups presentation
# ---------------------------------------------------------------------------


def first_homology(gs: GraphStructure) -> Tuple[int, List[int]]:
    """(rank, torsion coefficients) of H1 of the glued 4-manifold.

    The columns are numbered block by block, in breadth-first order of the
    block graph from the least label, so that a glueing relates two runs of
    columns that the order keeps close, and smith.abelian_invariants
    eliminates them in that order.  Each block's run holds the fiber x,
    then y, then d1, ..., dq over a non-orientable base, then one column
    beta per boundary.  Abelianized, the boundary c_i is beta_i.  The last
    boundary (N c1 ... c{b-1})^-1, as N abelianizes to 2 (d1 + ... + dq) or
    0, would read -(c1 + ... + c{b-1}) - 2 (d1 + ... + dq); a Tietze move
    gives it the column beta_b and the block the one row
    beta_1 + ... + beta_b + 2 (d1 + ... + dq) = 0.  So the handles a_i, b_i
    of an orientable base appear in no relation: they are free summands
    without a column.  A glueing relation t i(g) t^-1 = j(g)
    reads i(g) = j(g) on the x, y and beta columns of its two ends, so the
    stable letters t appear in no relation either: a spanning tree kills
    V - 1 of them and the other E - V + 1 (the cycle rank of the connected
    graph) are free summands (Serre, Trees, 1980, ch. I).

    gs must be valid, as for manifold_signature: this does not check it,
    and on an invalid gs it may raise KeyError or return a meaningless
    group.  invariant_report(gs).h1 is the checked H1; invariant_report and
    isomorphic_reduced validate gs once before they call this."""
    blocks = gs.block_map()
    offsets: Dict[str, int] = {}
    beta: Dict[End, int] = {}  # the column of each boundary
    rows: List[Dict[int, int]] = []
    n_columns = free = 0
    for lbl in _breadth_first(gs):
        block = blocks[lbl]
        x = offsets[lbl] = n_columns
        for m in block.images:
            # gamma x gamma^-1 = x^a y^c ; gamma y gamma^-1 = x^b y^d
            rows.append({x: 1 - m.a, x + 1: -m.c})
            rows.append({x: -m.b, x + 1: 1 - m.d})
        if block.surface.orientable:
            free += len(block.handles)
            n_columns = x + 2
            block_row = {}
        else:
            n_columns = x + 2 + len(block.handles)
            block_row = dict.fromkeys(range(x + 2, n_columns), 2)
        for bd in block.boundary_labels():
            beta[(lbl, bd)] = n_columns
            block_row[n_columns] = 1
            n_columns += 1
        rows.append(block_row)

    for edge in gs.edges:
        x1, x2 = offsets[edge.end1[0]], offsets[edge.end2[0]]
        beta2 = beta[edge.end2]
        for col, img in ((x1, edge.iso.x_img), (x1 + 1, edge.iso.y_img), (beta[edge.end1], edge.iso.t_img)):
            row = {col: 1}
            for target, exp in ((x2, img.a), (x2 + 1, img.b), (beta2, img.k)):
                row[target] = row.get(target, 0) - exp
            rows.append(row)

    rank, torsion = smith.abelian_invariants(rows, n_columns)
    return rank + free + len(gs.edges) - len(gs.blocks) + 1, torsion


# ---------------------------------------------------------------------------
# invariant report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InvariantReport:
    block_count: int
    block_summary: Tuple[Tuple[str, Tuple[str, ...]], ...]
    decomposing_classes: Tuple[str, ...]  # the class at the first end of each glue line
    edge_classes: Tuple[Tuple[str, str], ...]  # the sorted classes at both ends of each edge
    sigma: Optional[Fraction]  # None where unavailable (a non-orientable base)
    euler: int
    # sigma and h1 are both None only in the report that isomorphic_reduced
    # compares before its search, which reads key() and never render()
    h1: Optional[Tuple[int, Tuple[int, ...]]]
    reduced: bool
    findings: Tuple[str, ...]

    def key(self) -> Tuple[Tuple[str, object], ...]:
        """The comparison key as (field name, value) pairs.  An edge is keyed
        by the classes at both of its ends, so the key does not depend on
        which way round a glue line is written.  euler is always 0, and sigma
        is a third of the psi-sum over the boundary classes, which
        block_summary lists with each base (orientable or not, which decides
        "unavailable"), so neither could separate: both are left out."""
        return (
            ("block_count", self.block_count),
            ("block_summary", self.block_summary),
            ("decomposing_classes", self.edge_classes),
            ("h1", self.h1),
        )

    def render(self) -> str:
        lines = [f"blocks: {self.block_count}"]
        for desc, classes in self.block_summary:
            lines.append(f"  block: {desc}; boundary classes: {', '.join(classes)}")
        lines.append(f"decomposing classes: {', '.join(self.decomposing_classes) or '-'}")
        lines.append(f"reduced: {'yes' if self.reduced else 'no'}")
        sig = "unavailable" if self.sigma is None else str(self.sigma)
        lines.append(f"sigma: {sig}")
        lines.append(f"euler: {self.euler}")
        rank, torsion = self.h1
        tor = "".join(f" + Z/{int_str(t)}" for t in torsion)
        lines.append(f"h1: Z^{rank}{tor}")
        for f in self.findings:
            lines.append(f"finding: {f}")
        return "\n".join(lines) + "\n"


def invariant_report(gs: GraphStructure) -> InvariantReport:
    require_valid(gs)
    rank, torsion = first_homology(gs)
    try:
        sigma = manifold_signature(gs)
    except UnsupportedOperationError:
        sigma = None
    return replace(_report(gs), sigma=sigma, h1=(rank, tuple(torsion)))


def _report(gs: GraphStructure) -> InvariantReport:
    """The invariant report of the valid structure gs without sigma and h1."""
    blocks = gs.block_map()
    summary = sorted(_block_key(block) for _, block in gs.blocks)
    decomposing = []
    edge_classes = []
    findings = []
    reduced, _ = is_reduced(gs)
    for edge in gs.edges:
        cls1, cls2 = (blocks[lbl].classes[bd] for lbl, bd in (edge.end1, edge.end2))
        decomposing.append(str(cls1))
        edge_classes.append(tuple(sorted((str(cls1), str(cls2)))))
        if reduced and cls1.kind != "parabolic":
            findings.append(
                f"reduced structure has non-parabolic decomposing class {cls1} "
                f"on edge {edge.end1[0]}.{edge.end1[1]}"
            )
    return InvariantReport(
        block_count=len(gs.blocks),
        block_summary=tuple(summary),
        decomposing_classes=tuple(sorted(decomposing)),
        edge_classes=tuple(sorted(edge_classes)),
        sigma=None,
        euler=euler_characteristic(gs),
        h1=None,
        reduced=reduced,
        findings=tuple(findings),
    )


# ---------------------------------------------------------------------------
# block re-presentation surgeries (used by reduce)
# ---------------------------------------------------------------------------


def _fp_iso(src: TorusBundleOverCircle, dst: TorusBundleOverCircle,
            u: Mat2, t_img: Pi1Element) -> BoundaryIso:
    """Fiber-preserving iso with fiber matrix u (columns = images of x, y)."""
    return BoundaryIso(
        src,
        dst,
        Pi1Element(u.a, u.c, 0),
        Pi1Element(u.b, u.d, 0),
        t_img,
    )


Transport = Tuple[Mat2, int]  # (A, eps)


def _transport(m: Mat2, a: Mat2, eps: int) -> Tuple[BoundaryIso, BoundaryIso]:
    """The transport iso M_m -> M_{A m^eps A^-1}, (x, y) -> A (x, y) and
    t -> t^eps, and its inverse, which is the transport (A^-1, eps)."""
    a_inv = a.inverse()
    src = TorusBundleOverCircle(m)
    dst = TorusBundleOverCircle(a @ m ** eps @ a_inv)
    t_img = Pi1Element(0, 0, eps)
    return _fp_iso(src, dst, a, t_img), _fp_iso(dst, src, a_inv, t_img)


def _then(first: Dict[str, Transport], second: Dict[str, Transport]) -> Dict[str, Transport]:
    """The transports of first followed by those of second: (A2 A1, eps1 eps2)."""
    return {lbl: (second[lbl][0] @ a1, eps1 * second[lbl][1]) for lbl, (a1, eps1) in first.items()}


def _rotate(block: Block, steps: int) -> Tuple[Block, Dict[str, Transport]]:
    """Cycle boundary positions down by steps (0 <= steps < b): old positions
    1..steps go last, in order, their monodromies conjugated by the handle
    product N (from N m_1 ... m_b = I), so their transports are (N, 1).
    Rotation by 0 is the identity re-presentation."""
    surface = block.surface
    if not surface.orientable:
        raise ValueError("rotations re-present orientable bases only")
    labels = block.boundary_labels()
    monos = block.monodromies
    n_mat = block.handle_product
    n_inv = n_mat.inverse()
    moved = {lbl: n_mat @ monos[lbl] @ n_inv for lbl in labels[:steps]}
    new_labels = labels[steps:] + labels[:steps]
    new_cs = tuple(moved.get(lbl, monos[lbl]) for lbl in new_labels[:-1])
    new_block = Block(surface, block.handles + new_cs, new_labels)
    return new_block, {lbl: (n_mat if lbl in moved else I2, 1) for lbl in labels}


def _move_to_front(block: Block, p: int) -> Tuple[Block, Dict[str, Transport]]:
    """Move boundary position p (1-based, below the last) to position 1.

    With P = m_1 ... m_{p-1}, position 1 gets P m_p P^-1, so its transport is
    (P, 1), and positions 2..p get m_1 .. m_{p-1}; the other positions keep
    their monodromies.  Moving position 1 is the identity re-presentation.
    """
    surface = block.surface
    b = surface.boundary_count
    if not 1 <= p <= b - 1:
        raise ValueError(f"boundary position {p} is not below the last of {b}")
    labels = block.boundary_labels()
    cs = block.cs
    p_mat = product(cs[: p - 1])
    moved = p_mat @ cs[p - 1] @ p_mat.inverse()
    new_cs = (moved,) + cs[: p - 1] + cs[p:]
    new_labels = (labels[p - 1],) + labels[: p - 1] + labels[p:]
    new_block = Block(surface, block.handles + new_cs, new_labels)
    return new_block, {lbl: (p_mat if lbl == labels[p - 1] else I2, 1) for lbl in labels}


def _mirror(block: Block) -> Tuple[Block, Dict[str, Transport]]:
    """Orientation-reversing re-presentation of an orientable block.

    Handles reverse (a_i <-> b_{g+1-i}), the c monodromies invert (up to
    conjugation by N) and the boundary order below the last position
    reverses; the transports send t to t^-1.
    """
    surface = block.surface
    if not surface.orientable:
        raise ValueError("mirrors re-present orientable bases only")
    labels = block.boundary_labels()
    n_mat = block.handle_product
    n_inv = n_mat.inverse()
    new_images = tuple(reversed(block.handles)) + tuple(
        n_inv @ m.inverse() @ n_mat for m in reversed(block.cs)
    )
    new_labels = tuple(reversed(labels[:-1])) + labels[-1:]
    new_block = Block(surface, new_images, new_labels)
    transports = {lbl: (n_inv, -1) for lbl in labels[:-1]}
    transports[labels[-1]] = (n_inv @ n_inv, -1)
    return new_block, transports


# (old labels, new label, merged block, mapping), where the mapping sends each
# old end to (new boundary label, A, eps)
Merge = Tuple[set, str, Block, Dict[End, Tuple[str, Mat2, int]]]


def _reglue(
    blocks: Dict[str, Block], edges: List[Optional[Edge]], at: Dict[End, int], merge: Merge
) -> List[int]:
    """Apply a merge in place: the merged block replaces the old blocks under
    the new label, with ' appended until no other block has it, and each
    end in the mapping moves to its new boundary label through its
    transport (A, eps).  at (end -> edge index) finds the one edge at each
    such end, so only those edges are rewritten; their indices are
    returned, one per moved end.

    Raises UnsupportedOperationError when the merged block is invalid, and
    RuntimeError when a transport does not land on the boundary monodromy
    of the merged block: the re-presentation would be wrong."""
    old_labels, new_label, new_block, mapping = merge
    diags = validate_block(new_block)
    if diags:
        raise UnsupportedOperationError(
            "merged block is invalid (orientation-incoherent glueing?): "
            + "; ".join(diags)
        )
    for lbl in old_labels:
        del blocks[lbl]
    while new_label in blocks:
        new_label += "'"
    blocks[new_label] = new_block
    monos = new_block.monodromies
    rewritten = []
    for end, (new_bd, a, eps) in mapping.items():
        i = at.pop(end)
        rewritten.append(i)
        edge = edges[i]
        first = edge.end1 == end
        mu, mu_inv = _transport(edge.iso.source.phi if first else edge.iso.target.phi, a, eps)
        if monos[new_bd] != mu.target.phi:
            raise RuntimeError(
                f"re-presented boundary {new_label}.{new_bd} has monodromy "
                f"{monos[new_bd]}, transport iso targets {mu.target.phi}"
            )
        new_end = (new_label, new_bd)
        at[new_end] = i
        if first:
            edges[i] = Edge(new_end, edge.end2, compose_isos(edge.iso, mu_inv))
        else:
            edges[i] = Edge(edge.end1, new_end, compose_isos(mu, edge.iso))
    return rewritten


def _position(block: Block, lbl: str) -> int:
    return block.boundary_labels().index(lbl) + 1


def _merge_distinct(blocks: Dict[str, Block], edge: Edge) -> Merge:
    """Contract a fiber-preserving edge between two distinct orientable blocks."""
    (l1, bd1), (l2, bd2) = edge.end1, edge.end2
    b1, b2 = blocks[l1], blocks[l2]
    # normalize the base-circle direction of the glueing to t -> t^-1 (the
    # mirror's transports send t to t^-1)
    b2, trans2 = _mirror(b2) if edge.iso.t_img.k == 1 else _rotate(b2, 0)
    # one rotation per block puts the glued boundary last on the end1 side
    # and first on the end2 side; re-presentations keep boundary labels
    b1, trans1 = _rotate(b1, _position(b1, bd1) % b1.surface.boundary_count)
    b2, rotation = _rotate(b2, _position(b2, bd2) - 1)
    trans2 = _then(trans2, rotation)
    s1, s2 = b1.surface, b2.surface
    g1, n1 = s1.genus, s1.boundary_count
    g2, n2 = s2.genus, s2.boundary_count
    if n1 + n2 - 2 == 0:
        raise ClosedBaseError(
            "contracting this glueing closes the base: the structure is a "
            "torus bundle over a closed surface, not a block presentation"
        )
    # fiber matrix of the contracted edge between the re-presented blocks
    c_mat = trans2[bd2][0] @ fiber_matrix(edge.iso) @ trans1[bd1][0].inverse()
    c_inv = c_mat.inverse()
    # images by position: block 2's handles, block 1's handles and c's, then
    # block 2's c's after its (glued) first one, conjugated into block 1's
    # fiber.  When block 2 has one boundary, block 1's last c becomes the
    # merged block's last boundary, which has no generator.
    imgs1 = b1.images if n2 > 1 else b1.images[:-1]
    new_images = (
        tuple(c_inv @ m @ c_mat for m in b2.handles)
        + imgs1
        + tuple(c_inv @ m @ c_mat for m in b2.cs[1:])
    )
    # the merged block's boundaries, in order: block 1's but the last, then
    # block 2's but the first
    mapping = {(l1, lbl): (f"{l1}.{lbl}", *trans1[lbl]) for lbl in b1.boundary_labels()[:-1]}
    for lbl in b2.boundary_labels()[1:]:
        a, eps = trans2[lbl]
        mapping[(l2, lbl)] = (f"{l2}.{lbl}", c_inv @ a, eps)
    merged_surface = SurfaceWithBoundary(True, g1 + g2, n1 + n2 - 2)
    merged = Block(merged_surface, new_images, tuple(new for new, _, _ in mapping.values()))
    return {l1, l2}, f"{l1}+{l2}", merged, mapping


def _merge_self(blocks: Dict[str, Block], edge: Edge) -> Merge:
    """Contract a fiber-preserving self-edge (same orientable block, two boundaries)."""
    lbl = edge.end1[0]
    block = blocks[lbl]
    if edge.iso.t_img.k == 1:
        raise UnsupportedOperationError(
            "self-glueing preserving the base circle direction produces a "
            "non-orientable base; not supported"
        )
    g = block.surface.genus
    b = block.surface.boundary_count
    if b == 2:
        raise ClosedBaseError(
            "contracting this self-glueing closes the base: the structure is "
            "a torus bundle over a closed surface, not a block presentation"
        )
    # rotate the end1 boundary last, then move the end2 boundary to position 1
    bd1, bd2 = edge.end1[1], edge.end2[1]
    block, trans = _rotate(block, _position(block, bd1) % b)
    block, front = _move_to_front(block, _position(block, bd2))
    trans = _then(trans, front)
    labels = block.boundary_labels()
    m_last = block.monodromies[labels[-1]]  # at the contracted source boundary
    m_last_inv = m_last.inverse()
    c_mat = trans[bd2][0] @ fiber_matrix(edge.iso) @ trans[bd1][0].inverse()
    # images by position: the old handles; new handles a_{g+1} = the stable
    # letter and b_{g+1} = the inverse glued word; then c_2 .. c_{b-2}
    new_images = (
        block.handles
        + (c_mat, m_last_inv)
        + tuple(m_last_inv @ m @ m_last for m in block.cs[1:-1])
    )
    mapping = {}
    for old in labels[1 : b - 1]:
        a, eps = trans[old]
        mapping[(lbl, old)] = (f"{lbl}.{old}", m_last_inv @ a, eps)
    merged_surface = SurfaceWithBoundary(True, g + 1, b - 2)
    merged = Block(merged_surface, new_images, tuple(new for new, _, _ in mapping.values()))
    return {lbl}, f"{lbl}*", merged, mapping


def reduce_structure(gs: GraphStructure) -> GraphStructure:
    """Contract fiber-preserving glueings until the structure is reduced.

    One loop owns the block table, the edge list (a contracted edge becomes
    None), the index at (end -> edge index) and the set of fiber-preserving
    edges; each merge returns its data and _reglue rewrites only the edges
    it moves.  Transports are fiber-preserving, so composing with them
    neither makes nor unmakes a fiber-preserving edge: the set only loses
    the contracted edges, and its least edge by (end1, end2) is contracted
    next.  A heap of (end1, end2, index) finds that edge: each edge that
    _reglue rewrites is pushed again under its new ends, and an entry whose
    edge is contracted or whose ends have moved is skipped.

    Raises ClosedBaseError when contraction would consume every boundary
    component (the input presented a torus bundle over a closed surface).
    """
    require_valid(gs)
    blocks = gs.block_map()
    edges: List[Optional[Edge]] = list(gs.edges)
    at = {end: i for i, e in enumerate(gs.edges) for end in (e.end1, e.end2)}
    offending = set(is_reduced(gs)[1])
    heap = [(edges[i].end1, edges[i].end2, i) for i in offending]
    heapify(heap)
    while offending:  # each merge contracts one edge
        end1, end2, idx = heappop(heap)
        edge = edges[idx]
        if idx not in offending or (edge.end1, edge.end2) != (end1, end2):
            continue
        offending.remove(idx)
        edges[idx] = None
        (l1, _), (l2, _) = edge.end1, edge.end2
        if not (blocks[l1].surface.orientable and blocks[l2].surface.orientable):
            raise UnsupportedOperationError(
                "merging blocks with non-orientable bases is not supported"
            )
        merge = _merge_self if l1 == l2 else _merge_distinct
        for i in set(_reglue(blocks, edges, at, merge(blocks, edge))) & offending:
            heappush(heap, (edges[i].end1, edges[i].end2, i))
    return structure(blocks, [e for e in edges if e is not None])


# ---------------------------------------------------------------------------
# comparison of reduced structures
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Comparison:
    """Verdict of isomorphic_reduced; "inconclusive" means that no block
    bijection matched with boundaries matched by position.  The search
    fields say how much of the search ran; they take no part in equality."""

    verdict: str  # "yes" | "no" | "inconclusive"
    witness: Optional[str] = None
    separating: Optional[str] = None
    assignments: int = field(default=0, compare=False)  # blocks mapped, summed over the roots tried
    edge_checks: int = field(default=0, compare=False)  # edge glueings tested on complete bijections


def _conjugator(pairs) -> Optional[Mat2]:
    """A GL(2,Z) solution X of X m1 X^-1 = m2 for all pairs, or None: exact.

    Pivot on the first non-scalar m1 = m.  When every m1 commutes with m,
    each is a rational polynomial a I + b m, so any X carrying m to its m2
    carries them all alike: one conjugacy test decides.  Otherwise the m1
    generate an algebra whose commutant is the scalars, so the rational
    intertwiners form at most a line: a conjugator is +-its generator."""
    if all(m1 == m2 for m1, m2 in pairs):
        return I2
    pivot = next(((m1, m2) for m1, m2 in pairs if m1.b or m1.c or m1.a != m1.d), None)
    if pivot is None:  # scalar images are fixed by every conjugation
        return None
    if all(m1 @ pivot[0] == pivot[0] @ m1 for m1, _ in pairs):
        x = conjugate_in(*pivot, GL2Z)[1]
    else:
        basis = intertwiner_basis(pairs)
        x = basis[0] if len(basis) == 1 and abs(basis[0].det()) == 1 else None
    if x is None or any(x @ m1 != m2 @ x for m1, m2 in pairs):
        return None
    return x


def _winding_form(iso: BoundaryIso) -> Tuple[int, int, int]:
    """(lambda_x, lambda_y, gamma) of v = winding o iso, the homomorphism
    x^a y^b t^k -> lambda_x a + lambda_y b + gamma k of the source group."""
    return iso.x_img.k, iso.y_img.k, iso.t_img.k


def _iso_matches(f_goal: BoundaryIso, f_base: BoundaryIso) -> bool:
    """Whether f_goal = g_t o f_base o g_s for fiber-preserving self-isos
    g_s, g_t of the source and target bundles, decided in closed form.

    A fiber-preserving self-iso g = (A, u, eps) of the source M_phi acts on
    winding forms by v o g = (lambda A, lambda(u) + eps gamma), and f_goal
    matches exactly when v_base o g_s = +-v_goal: then g_t = f_goal o g_s^-1
    o f_base^-1 keeps the winding up to sign, so it keeps the fiber.  lambda
    is phi-invariant: any vector when phi = I, where GL(2,Z) carries each
    primitive vector to any other, and otherwise on a line, so +-lambda;
    lambda(u) runs over c Z for the content c = gcd(lambda).  So the orbit of
    v is given by c and by gamma mod c up to sign (Hillman, Four-manifolds,
    geometries and knots, on torus bundle groups).  On a match the witness
    g_s = (A, u, 1) is built and v_base o g_s = +-v_goal checked by composing."""
    src = f_base.source
    if (f_goal.source.phi, f_goal.target.phi) != (src.phi, f_base.target.phi):
        return False
    lx, ly, gamma = _winding_form(f_base)
    gx, gy, goal_gamma = _winding_form(f_goal)
    c, p, q = _ext_gcd(lx, ly)  # p lx + q ly = c
    if _ext_gcd(gx, gy)[0] != c:
        return False
    for sign in (1, -1):  # v_base o g_s = sign * v_goal
        steps, rest = divmod(sign * goal_gamma - gamma, c) if c else (0, sign * goal_gamma - gamma)
        if rest == 0:
            break
    else:
        return False
    goal = (sign * gx, sign * gy, sign * goal_gamma)
    if src.phi == I2 and c:  # a T^3 edge: lambda A = the goal's, rows completed
        _, p2, q2 = _ext_gcd(goal[0], goal[1])
        a = Mat2(lx // c, ly // c, -q, p).inverse() @ Mat2(goal[0] // c, goal[1] // c, -q2, p2)
    else:  # the two lambdas lie on one line
        a = I2 if (lx, ly) == goal[:2] else -I2
    g_s = _fp_iso(src, src, a, Pi1Element(steps * p, steps * q, 1))
    if _winding_form(compose_isos(f_base, g_s)) != goal:
        raise RuntimeError(f"edge witness g_s = {g_s} does not carry the winding form to {goal}")
    return True


def _block_key(block: Block) -> Tuple[str, Tuple[str, ...]]:
    """The block's block_summary entry: its base and its boundary classes."""
    return block.surface.describe(), block.boundary_classes


def isomorphic_reduced(gs1: GraphStructure, gs2: GraphStructure) -> Comparison:
    """Three-valued comparison of reduced structures.

    "no" when the invariant reports differ; "yes" when a structure-preserving
    matching is found: a block bijection matching surface types, monodromy
    representations related by simultaneous GL(2,Z) conjugation, and edge
    glueings corresponding up to composition with fiber-preserving bundle
    self-maps.  The conjugators (_conjugator) and the edge test
    (_iso_matches) are exact, and "yes" and "no" are final.  Boundaries are
    matched by position, so "inconclusive" means only that no bijection
    matched with that boundary correspondence.

    Order of work: each structure is validated once and checked to be
    reduced (the error that rejects one carries `operand`, 0 for gs1 and 1
    for gs2), the key fields before h1 are compared, and then the search
    runs.  H1, the costly field, is computed only when no root gives a
    witness, and a difference in it gives "no".  The verdicts are those of
    comparing the whole key first: h1 is the last key field, so every other
    separating field is found first as before, and a witness is a
    structure-preserving diffeomorphism, so it implies equal H1.  The price
    is that a pair which only h1 separates pays a failed search before H1.

    The conjugators of a block pair form one coset of the centralizer of
    the block's images, and two of them differ at each boundary by a
    fiber-preserving self-map, which the edge test absorbs: so one
    conjugator per pair of representations decides.

    A matching glues image ends exactly where gs1 glues ends, boundary
    position for boundary position, so the image of gs1's least label (the
    root) forces the image of every block it reaches, and gs1 is validated
    as connected: each root image fixes at most one bijection.  The roots
    are tried in the sorted label order of gs2.  From each, gs1 is walked
    breadth first, each neighbour's image read off the end that gs2 glues
    to the image end, and the root is dropped as soon as a block key or the
    existence of a conjugator fails or the far ends sit at different
    boundary positions.  A walk that completes is a bijection: its image
    holds every end of each image block and the ends glued to them, so it
    is all of gs2, which is connected and has as many blocks.  The edges of
    the bijection then go through the edge test.  The root is the first
    entry of a label permutation, so the witness is the first bijection, in
    the order of itertools.permutations, whose edges all match.
    """
    reports = []
    for operand, gs in enumerate((gs1, gs2)):
        try:
            require_valid(gs)
            report = _report(gs)
            if not report.reduced:
                raise NotReducedError("comparison requires reduced structures; reduce first")
        except (StructureError, NotReducedError) as exc:
            exc.operand = operand
            raise
        reports.append(report)
    r1, r2 = reports
    for (name, v1), (_, v2) in zip(r1.key(), r2.key()):  # h1, the last field, is None on both
        if v1 != v2:
            return Comparison("no", separating=name)
    labels1 = [lbl for lbl, _ in gs1.blocks]
    labels2 = [lbl for lbl, _ in gs2.blocks]
    blocks1, blocks2 = gs1.block_map(), gs2.block_map()
    keys1 = {lbl: _block_key(b) for lbl, b in gs1.blocks}
    keys2 = {lbl: _block_key(b) for lbl, b in gs2.blocks}
    glued1: Dict[End, End] = {}  # each end's partner: a valid structure glues every end once
    glued2: Dict[End, End] = {}
    for glued, gs in ((glued1, gs1), (glued2, gs2)):
        for e in gs.edges:
            glued[e.end1], glued[e.end2] = e.end2, e.end1
    edge_index2 = {(e.end1, e.end2): e.iso for e in gs2.edges}
    counts = {"assignments": 0, "edge_checks": 0}
    # one conjugator (or None) per pair of image tuples, which alone decide it
    conjugators: Dict[Tuple[Tuple[Mat2, ...], Tuple[Mat2, ...]], Optional[Mat2]] = {}

    def conjugator(lbl1: str, lbl2: str) -> Optional[Mat2]:
        pair = (blocks1[lbl1].images, blocks2[lbl2].images)
        if pair not in conjugators:
            conjugators[pair] = _conjugator(list(zip(*pair)))
        return conjugators[pair]

    def image(end: End, mapping: Dict[str, str]) -> End:
        lbl, bd = end
        pos = blocks1[lbl].boundary_labels().index(bd)
        return mapping[lbl], blocks2[mapping[lbl]].boundary_labels()[pos]

    def transport(end: End, new_end: End) -> Tuple[BoundaryIso, BoundaryIso]:
        m1 = blocks1[end[0]].monodromies[end[1]]
        m2 = blocks2[new_end[0]].monodromies[new_end[1]]
        c = conjugator(end[0], new_end[0])
        mu, mu_inv = _transport(m1, c, 1)
        if mu.target.phi != m2:
            raise RuntimeError(f"conjugator {c} does not carry {m1} to {m2}")
        return mu, mu_inv

    def propagate(root: str) -> Optional[Dict[str, str]]:
        """The block bijection forced by labels1[0] -> root, or None."""
        mapping: Dict[str, str] = {}
        order = [labels1[0]]  # breadth first: grows as blocks are mapped

        def assign(lbl1: str, lbl2: str) -> bool:
            counts["assignments"] += 1
            if keys1[lbl1] != keys2[lbl2] or conjugator(lbl1, lbl2) is None:
                return False
            mapping[lbl1] = lbl2
            return True

        if not assign(labels1[0], root):
            return None
        for lbl in order:
            for bd in blocks1[lbl].boundary_labels():
                far1, far2 = glued1[(lbl, bd)], glued2[image((lbl, bd), mapping)]
                if far1[0] not in mapping:
                    if not assign(far1[0], far2[0]):
                        return None
                    order.append(far1[0])
                if image(far1, mapping) != far2:
                    return None
        return mapping

    def edge_matches(e: Edge, mapping: Dict[str, str]) -> bool:
        new1, new2 = image(e.end1, mapping), image(e.end2, mapping)
        counts["edge_checks"] += 1
        mu2, mu1_inv = transport(e.end2, new2)[0], transport(e.end1, new1)[1]
        transported = compose_isos(mu2, compose_isos(e.iso, mu1_inv))
        if (new1, new2) in edge_index2:
            return _iso_matches(edge_index2[(new1, new2)], transported)
        return _iso_matches(edge_index2[(new2, new1)], iso_inverse(transported))

    for root in labels2:
        mapping = propagate(root)
        if mapping is not None and all(edge_matches(e, mapping) for e in gs1.edges):
            desc = ", ".join(f"{a}->{b}" for a, b in sorted(mapping.items()))
            return Comparison("yes", witness=f"block matching {desc}", **counts)
    if first_homology(gs1) != first_homology(gs2):
        return Comparison("no", separating="h1")
    return Comparison("inconclusive", **counts)
