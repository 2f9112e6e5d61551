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

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import smith
from .gl2z import GL2Z, I2, Mat2, _ext_gcd, classify, conjugate_in
from .bundles import (
    Block,
    BoundaryIso,
    MonodromyRep,
    Pi1Element,
    SurfaceWithBoundary,
    TorusBundleOverCircle,
    UnsupportedOperationError,
    Word,
    compose_isos,
    fiber_matrix,
    intertwiner_basis,
    is_fiber_preserving,
    iso_inverse,
    validate_block,
    validate_glueing,
)
from .meyer import signature_sum

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
    for idx, edge in enumerate(gs.edges):
        m1 = blocks[edge.end1[0]].boundary_monodromy(edge.end1[1])
        m2 = blocks[edge.end2[0]].boundary_monodromy(edge.end2[1])
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
            for v in validate_glueing(edge.iso):
                out.append(f"edge {idx}: {v}")
    if len(labels) > 1:
        adjacent: Dict[str, List[str]] = {lbl: [] for lbl in labels}
        for edge in gs.edges:
            adjacent[edge.end1[0]].append(edge.end2[0])
            adjacent[edge.end2[0]].append(edge.end1[0])
        reached = {labels[0]}
        frontier = [labels[0]]
        while frontier:
            for b in adjacent[frontier.pop()]:
                if b not in reached:
                    reached.add(b)
                    frontier.append(b)
        if reached != set(labels):
            missing = sorted(set(labels) - reached)
            out.append(f"underlying graph not connected: unreachable blocks {missing}")
    return out


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
    (glueings reversing the induced boundary orientations)."""
    return signature_sum(block for _, block in gs.blocks)


# ---------------------------------------------------------------------------
# first homology via the abelianized graph-of-groups presentation
# ---------------------------------------------------------------------------


def _word_ab(word: Word) -> Dict[str, int]:
    out: Dict[str, int] = {}
    for gen, exp in word:
        out[gen] = out.get(gen, 0) + exp
    return out


def _spanning_tree(gs: GraphStructure) -> List[bool]:
    """Tree flags per edge; deterministic (edges scanned in sorted order)."""
    parent: Dict[str, str] = {lbl: lbl for lbl, _ in gs.blocks}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    flags = [False] * len(gs.edges)
    order = sorted(range(len(gs.edges)), key=lambda i: (gs.edges[i].end1, gs.edges[i].end2))
    for i in order:
        a, b = find(gs.edges[i].end1[0]), find(gs.edges[i].end2[0])
        if a != b:
            parent[a] = b
            flags[i] = True
    return flags


def first_homology(gs: GraphStructure) -> Tuple[int, List[int]]:
    """(rank, torsion coefficients) of H1 of the glued 4-manifold."""
    require_valid(gs)
    cols: Dict[Tuple, int] = {}

    def col(key: Tuple) -> int:
        if key not in cols:
            cols[key] = len(cols)
        return cols[key]

    for lbl, block in gs.blocks:
        col(("fx", lbl))
        col(("fy", lbl))
        for name in block.rep.surface.generator_names():
            col(("g", lbl, name))
    tree = _spanning_tree(gs)
    for i, flag in enumerate(tree):
        if not flag:
            col(("s", i))

    rows: List[Dict[int, int]] = []

    def add_row(coeffs: Dict[int, int]) -> None:
        if any(v for v in coeffs.values()):
            rows.append(coeffs)

    blocks = gs.block_map()
    for lbl, block in gs.blocks:
        for name, m in zip(block.rep.surface.generator_names(), block.rep.images):
            # gamma x gamma^-1 = x^a y^c ; gamma y gamma^-1 = x^b y^d
            add_row({col(("fx", lbl)): 1 - m.a, col(("fy", lbl)): -m.c})
            add_row({col(("fx", lbl)): -m.b, col(("fy", lbl)): 1 - m.d})

    for edge in gs.edges:
        l1, bd1 = edge.end1
        l2, bd2 = edge.end2
        b1, b2 = blocks[l1], blocks[l2]
        w1 = b1.rep.surface.boundary_words()[b1.boundary_labels().index(bd1)]
        w2 = b2.rep.surface.boundary_words()[b2.boundary_labels().index(bd2)]
        w1_ab, w2_ab = _word_ab(w1), _word_ab(w2)
        sources = (
            {col(("fx", l1)): 1},
            {col(("fy", l1)): 1},
            {col(("g", l1, gen)): exp for gen, exp in w1_ab.items()},
        )
        images = (edge.iso.x_img, edge.iso.y_img, edge.iso.t_img)
        for src_coeffs, img in zip(sources, images):
            coeffs = dict(src_coeffs)

            def bump(key: Tuple, val: int) -> None:
                idx = col(key)
                coeffs[idx] = coeffs.get(idx, 0) + val

            bump(("fx", l2), -img.a)
            bump(("fy", l2), -img.b)
            for gen, exp in w2_ab.items():
                bump(("g", l2, gen), -img.k * exp)
            add_row(coeffs)

    return smith.abelian_invariants(rows, len(cols))


# ---------------------------------------------------------------------------
# invariant report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InvariantReport:
    block_count: int
    block_summary: Tuple[Tuple[str, Tuple[str, ...]], ...]
    decomposing_classes: Tuple[str, ...]
    sigma: Optional[Fraction]
    euler: int
    h1: Tuple[int, Tuple[int, ...]]
    reduced: bool
    findings: Tuple[str, ...]

    def key(self):
        return (
            self.block_count,
            self.block_summary,
            self.decomposing_classes,
            self.sigma,
            self.euler,
            self.h1,
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
        tor = "".join(f" + Z/{t}" for t in torsion)
        lines.append(f"h1: Z^{rank}{tor}")
        for f in self.findings:
            lines.append(f"finding: {f}")
        return "\n".join(lines) + "\n"


def invariant_report(gs: GraphStructure) -> InvariantReport:
    rank, torsion = first_homology(gs)  # first: it validates gs
    blocks = gs.block_map()
    summary = sorted((block.rep.surface.describe(), block.boundary_classes) for _, block in gs.blocks)
    decomposing = []
    findings = []
    reduced, _ = is_reduced(gs)
    for edge in gs.edges:
        m = blocks[edge.end1[0]].boundary_monodromy(edge.end1[1])
        cls = classify(m)
        decomposing.append(str(cls))
        if reduced and cls.kind != "parabolic":
            findings.append(
                f"reduced structure has non-parabolic decomposing class {cls} "
                f"on edge {edge.end1[0]}.{edge.end1[1]}"
            )
    try:
        sigma = manifold_signature(gs)
    except UnsupportedOperationError:
        sigma = None
    return InvariantReport(
        block_count=len(gs.blocks),
        block_summary=tuple(summary),
        decomposing_classes=tuple(sorted(decomposing)),
        sigma=sigma,
        euler=euler_characteristic(gs),
        h1=(rank, tuple(torsion)),
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


Transport = Tuple[str, Mat2, int]  # (new boundary label, A, eps)


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
    out = {}
    for lbl, (mid, a1, eps1) in first.items():
        new, a2, eps2 = second[mid]
        out[lbl] = (new, a2 @ a1, eps1 * eps2)
    return out


def _product(mats) -> Mat2:
    out = I2
    for m in mats:
        out = out @ m
    return out


def _rotate(block: Block, steps: int) -> Tuple[Block, Dict[str, Transport]]:
    """Cycle boundary positions down by steps (0 <= steps < b): old positions
    1..steps go last, in order, their monodromies conjugated by the handle
    product N (from N m_1 ... m_b = I), so their transports are (N, 1).
    Rotation by 0 is the identity re-presentation."""
    surface = block.rep.surface
    if not surface.orientable:
        raise ValueError("rotations re-present orientable bases only")
    labels = block.boundary_labels()
    monos = block.monodromies
    n_inv = _product(monos.values())
    n_mat = n_inv.inverse()
    moved = {lbl: n_mat @ monos[lbl] @ n_inv for lbl in labels[:steps]}
    new_labels = labels[steps:] + labels[:steps]
    handles = block.rep.images[: 2 * surface.genus]
    new_cs = tuple(moved.get(lbl, monos[lbl]) for lbl in new_labels[:-1])
    new_block = Block(MonodromyRep(surface, handles + new_cs), new_labels)
    return new_block, {lbl: (lbl, n_mat if lbl in moved else I2, 1) for lbl in labels}


def _move_to_front(block: Block, p: int) -> Tuple[Block, Dict[str, Transport]]:
    """Move boundary position p (1-based, below the last) to position 1.

    With P = m_1 ... m_{p-1}, position 1 gets P m_p P^-1, so its transport is
    (P, 1), and positions 2..p get m_1 .. m_{p-1}; the other positions keep
    their monodromies.  Moving position 1 is the identity re-presentation.
    """
    surface = block.rep.surface
    b = surface.boundary_count
    if not 1 <= p <= b - 1:
        raise ValueError(f"boundary position {p} is not below the last of {b}")
    labels = block.boundary_labels()
    first_c = len(block.rep.images) - (b - 1)
    head, cs = block.rep.images[:first_c], block.rep.images[first_c:]
    p_mat = _product(cs[: p - 1])
    moved = p_mat @ cs[p - 1] @ p_mat.inverse()
    new_cs = (moved,) + cs[: p - 1] + cs[p:]
    new_labels = (labels[p - 1],) + labels[: p - 1] + labels[p:]
    new_block = Block(MonodromyRep(surface, head + new_cs), new_labels)
    return new_block, {lbl: (lbl, p_mat if lbl == labels[p - 1] else I2, 1) for lbl in labels}


def _mirror(block: Block) -> Tuple[Block, Dict[str, Transport]]:
    """Orientation-reversing re-presentation of an orientable block.

    Handles reverse (a_i <-> b_{g+1-i}), boundary words invert (up to
    conjugation by N) and the boundary order below the last position
    reverses; the transports send t to t^-1.
    """
    surface = block.rep.surface
    if not surface.orientable:
        raise ValueError("mirrors re-present orientable bases only")
    split = 2 * surface.genus
    labels = block.boundary_labels()
    n_inv = _product(block.monodromies.values())
    n_mat = n_inv.inverse()
    new_images = tuple(reversed(block.rep.images[:split])) + tuple(
        n_inv @ m.inverse() @ n_mat for m in reversed(block.rep.images[split:])
    )
    new_labels = tuple(reversed(labels[:-1])) + labels[-1:]
    new_block = Block(MonodromyRep(surface, new_images), new_labels)
    transports = {lbl: (lbl, n_inv, -1) for lbl in labels[:-1]}
    transports[labels[-1]] = (labels[-1], n_inv @ n_inv, -1)
    return new_block, transports


def _reglue(
    gs: GraphStructure,
    old_labels: set,
    new_label: str,
    new_block: Block,
    mapping: Dict[End, Transport],
    drop: Optional[int] = None,
) -> GraphStructure:
    """Replace the blocks old_labels by new_block under new_label, dropping
    edge drop and moving each edge end in mapping to its new boundary label
    through its transport (A, eps), in one rewrite of the edge list.

    Raises UnsupportedOperationError when new_block is invalid, and
    RuntimeError when a transport does not land on the boundary monodromy
    of new_block: the re-presentation would be wrong."""
    diags = validate_block(new_block)
    if diags:
        raise UnsupportedOperationError(
            "merged block is invalid (orientation-incoherent glueing?): "
            + "; ".join(diags)
        )
    monos = new_block.monodromies

    def transport(end: End, m: Mat2) -> Tuple[End, BoundaryIso, BoundaryIso]:
        new_bd, a, eps = mapping[end]
        mu, mu_inv = _transport(m, a, eps)
        if monos[new_bd] != mu.target.phi:
            raise RuntimeError(
                f"re-presented boundary {new_label}.{new_bd} has monodromy "
                f"{monos[new_bd]}, transport iso targets {mu.target.phi}"
            )
        return (new_label, new_bd), mu, mu_inv

    new_blocks = [(lbl, blk) for lbl, blk in gs.blocks if lbl not in old_labels]
    new_blocks.append((new_label, new_block))
    new_edges = []
    for i, edge in enumerate(gs.edges):
        if i == drop:
            continue
        iso, end1, end2 = edge.iso, edge.end1, edge.end2
        if end1 in mapping:
            end1, _, mu_inv = transport(end1, iso.source.phi)
            iso = compose_isos(iso, mu_inv)
        if end2 in mapping:
            end2, mu, _ = transport(end2, iso.target.phi)
            iso = compose_isos(mu, iso)
        new_edges.append(Edge(end1, end2, iso))
    return GraphStructure(tuple(sorted(new_blocks)), tuple(new_edges))


def _position(block: Block, lbl: str) -> int:
    return block.boundary_labels().index(lbl) + 1


def _merge_distinct(gs: GraphStructure, edge_idx: int) -> GraphStructure:
    """Contract a fiber-preserving edge between two distinct blocks."""
    edge = gs.edges[edge_idx]
    (l1, bd1), (l2, bd2) = edge.end1, edge.end2
    blocks = gs.block_map()
    b1, b2 = blocks[l1], blocks[l2]
    if not (b1.rep.surface.orientable and b2.rep.surface.orientable):
        raise UnsupportedOperationError(
            "merging blocks with non-orientable bases is not supported"
        )
    # normalize the base-circle direction of the glueing to t -> t^-1 (the
    # mirror's transports send t to t^-1)
    b2, trans2 = _mirror(b2) if edge.iso.t_img.k == 1 else _rotate(b2, 0)
    # one rotation per block puts the glued boundary last on the end1 side
    # and first on the end2 side; re-presentations keep boundary labels
    b1, trans1 = _rotate(b1, _position(b1, bd1) % b1.rep.surface.boundary_count)
    b2, rotation = _rotate(b2, _position(b2, bd2) - 1)
    trans2 = _then(trans2, rotation)
    s1, s2 = b1.rep.surface, b2.rep.surface
    g1, n1 = s1.genus, s1.boundary_count
    g2, n2 = s2.genus, s2.boundary_count
    if n1 + n2 - 2 == 0:
        raise ClosedBaseError(
            "contracting this glueing closes the base: the structure is a "
            "torus bundle over a closed surface, not a block presentation"
        )
    # fiber matrix of the contracted edge between the re-presented blocks
    c_mat = trans2[bd2][1] @ fiber_matrix(edge.iso) @ trans1[bd1][1].inverse()
    c_inv = c_mat.inverse()
    # images by position: block 2's handles, block 1's handles and c's, then
    # block 2's c's after its (glued) first one, conjugated into block 1's
    # fiber.  When block 2 has one boundary, block 1's last c becomes the
    # merged block's last boundary, which has no generator.
    imgs1 = b1.rep.images if n2 > 1 else b1.rep.images[:-1]
    imgs2 = b2.rep.images
    new_images = (
        tuple(c_inv @ m @ c_mat for m in imgs2[: 2 * g2])
        + imgs1
        + tuple(c_inv @ m @ c_mat for m in imgs2[2 * g2 + 1 :])
    )
    labels1, labels2 = b1.boundary_labels(), b2.boundary_labels()
    new_labels = tuple(
        [f"{l1}.{lbl}" for lbl in labels1[: n1 - 1]]
        + [f"{l2}.{lbl}" for lbl in labels2[1:]]
    )
    merged_surface = SurfaceWithBoundary(True, g1 + g2, n1 + n2 - 2)
    merged = Block(MonodromyRep(merged_surface, new_images), new_labels)
    mapping: Dict[End, Transport] = {}
    for lbl in labels1[: n1 - 1]:
        _, a, eps = trans1[lbl]
        mapping[(l1, lbl)] = (f"{l1}.{lbl}", a, eps)
    for lbl in labels2[1:]:
        _, a, eps = trans2[lbl]
        mapping[(l2, lbl)] = (f"{l2}.{lbl}", c_inv @ a, eps)
    return _reglue(gs, {l1, l2}, f"{l1}+{l2}", merged, mapping, edge_idx)


def _merge_self(gs: GraphStructure, edge_idx: int) -> GraphStructure:
    """Contract a fiber-preserving self-edge (same block, two boundaries)."""
    edge = gs.edges[edge_idx]
    lbl = edge.end1[0]
    block = gs.block(lbl)
    if not block.rep.surface.orientable:
        raise UnsupportedOperationError(
            "merging blocks with non-orientable bases is not supported"
        )
    if edge.iso.t_img.k == 1:
        raise UnsupportedOperationError(
            "self-glueing preserving the base circle direction produces a "
            "non-orientable base; not supported"
        )
    g = block.rep.surface.genus
    b = block.rep.surface.boundary_count
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
    imgs = block.rep.images
    labels = block.boundary_labels()
    m_last = block.monodromies[labels[-1]]  # at the contracted source boundary
    m_last_inv = m_last.inverse()
    c_mat = trans[bd2][1] @ fiber_matrix(edge.iso) @ trans[bd1][1].inverse()
    # images by position: the old handles; new handles a_{g+1} = the stable
    # letter and b_{g+1} = the inverse glued word; then c_2 .. c_{b-2}
    new_images = (
        imgs[: 2 * g]
        + (c_mat, m_last_inv)
        + tuple(m_last_inv @ m @ m_last for m in imgs[2 * g + 1 : -1])
    )
    new_labels = tuple(f"{lbl}.{old}" for old in labels[1 : b - 1])
    merged_surface = SurfaceWithBoundary(True, g + 1, b - 2)
    merged = Block(MonodromyRep(merged_surface, new_images), new_labels)
    mapping: Dict[End, Transport] = {}
    for old in labels[1 : b - 1]:
        _, a, eps = trans[old]
        mapping[(lbl, old)] = (f"{lbl}.{old}", m_last_inv @ a, eps)
    return _reglue(gs, {lbl}, f"{lbl}*", merged, mapping, edge_idx)


def reduce_structure(gs: GraphStructure) -> GraphStructure:
    """Contract fiber-preserving glueings until the structure is reduced.

    Raises ClosedBaseError when contraction would consume every boundary
    component (the input presented a torus bundle over a closed surface).
    """
    require_valid(gs)
    while True:  # each merge removes one edge
        reduced, offending = is_reduced(gs)
        if reduced:
            return gs
        idx = min(offending, key=lambda i: (gs.edges[i].end1, gs.edges[i].end2))
        edge = gs.edges[idx]
        if edge.end1[0] == edge.end2[0]:
            gs = _merge_self(gs, idx)
        else:
            gs = _merge_distinct(gs, idx)


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
    assignments: int = field(default=0, compare=False)  # block assignments tried
    edge_checks: int = field(default=0, compare=False)  # edge glueings tested


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


def _block_key(block: Block) -> Tuple:
    s = block.rep.surface
    return (s.orientable, s.genus, s.boundary_count, block.boundary_classes)


def _first_path(width: int, options: Callable, accept: Callable) -> Optional[list]:
    """The first path x_0 .. x_{width-1}, in lexicographic order of the
    options, with x_i from options(i, path[:i]) and accept(i, path[:i+1])
    true at every i, or None: a depth-first search, without recursion, that
    abandons a prefix as soon as accept fails."""
    path: list = []
    stack = [iter(options(0, path))]
    while stack:
        for x in stack[-1]:
            path.append(x)
            if accept(len(path) - 1, path):
                break
            path.pop()
        else:
            stack.pop()
            if path:
                path.pop()
            continue
        if len(path) == width:
            return path
        stack.append(iter(options(len(path), path)))
    return None


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

    The conjugators of a block pair form one coset of the centralizer of
    the block's images, and two of them differ at each boundary by a
    fiber-preserving self-map, which the edge test absorbs: so one
    conjugator per pair of representations decides.  Block bijections are
    built depth first in the sorted label order of gs1, candidates in that
    of gs2, and a partial bijection is dropped when a block key, a base
    surface or the existence of a conjugator fails, or when an edge between
    assigned blocks maps to ends that gs2 does not glue or fails the edge
    test.  The witness is the first bijection, in the order of
    itertools.permutations, whose edges all match.
    """
    reports = []
    for gs in (gs1, gs2):
        report = invariant_report(gs)  # validates gs
        if not report.reduced:
            raise NotReducedError("comparison requires reduced structures; reduce first")
        reports.append(report)
    r1, r2 = reports
    if r1.key() != r2.key():
        fields = ("block_count", "block_summary", "decomposing_classes", "sigma", "euler", "h1")
        for name, v1, v2 in zip(fields, r1.key(), r2.key()):
            if v1 != v2:
                return Comparison("no", separating=name)
    labels1 = [lbl for lbl, _ in gs1.blocks]
    labels2 = [lbl for lbl, _ in gs2.blocks]
    blocks1, blocks2 = gs1.block_map(), gs2.block_map()
    keys1 = {lbl: _block_key(b) for lbl, b in gs1.blocks}
    keys2 = {lbl: _block_key(b) for lbl, b in gs2.blocks}
    edge_index2: Dict[Tuple[End, End], List[BoundaryIso]] = {}
    for e in gs2.edges:
        edge_index2.setdefault((e.end1, e.end2), []).append(e.iso)
    # the edges of gs1 by the depth at which both of their blocks are assigned
    depth = {lbl: i for i, lbl in enumerate(labels1)}
    closing: List[List[Edge]] = [[] for _ in labels1]
    for e in gs1.edges:
        closing[max(depth[e.end1[0]], depth[e.end2[0]])].append(e)
    counts = {"assignments": 0, "edge_checks": 0}
    # one conjugator (or None) per pair of block representations
    conjugators: Dict[Tuple[MonodromyRep, MonodromyRep], Optional[Mat2]] = {}

    def conjugator(lbl1: str, lbl2: str) -> Optional[Mat2]:
        rep1, rep2 = blocks1[lbl1].rep, blocks2[lbl2].rep  # equal keys: equal surfaces
        if (rep1, rep2) not in conjugators:
            conjugators[(rep1, rep2)] = _conjugator(list(zip(rep1.images, rep2.images)))
        return conjugators[(rep1, rep2)]

    def image(end: End, mapping: Dict[str, str]) -> End:
        lbl, bd = end
        pos = blocks1[lbl].boundary_labels().index(bd)
        return mapping[lbl], blocks2[mapping[lbl]].boundary_labels()[pos]

    def transport(end: End, new_end: End) -> Tuple[BoundaryIso, BoundaryIso]:
        m1 = blocks1[end[0]].boundary_monodromy(end[1])
        m2 = blocks2[new_end[0]].boundary_monodromy(new_end[1])
        c = conjugator(end[0], new_end[0])
        mu, mu_inv = _transport(m1, c, 1)
        if mu.target.phi != m2:
            raise RuntimeError(f"conjugator {c} does not carry {m1} to {m2}")
        return mu, mu_inv

    def edge_matches(e: Edge, mapping: Dict[str, str]) -> bool:
        new1, new2 = image(e.end1, mapping), image(e.end2, mapping)
        forward, backward = edge_index2.get((new1, new2), []), edge_index2.get((new2, new1), [])
        if not forward and not backward:  # conjugators cannot glue ends that gs2 leaves apart
            return False
        counts["edge_checks"] += 1
        mu2, mu1_inv = transport(e.end2, new2)[0], transport(e.end1, new1)[1]
        transported = compose_isos(mu2, compose_isos(e.iso, mu1_inv))
        return any(_iso_matches(iso, transported) for iso in forward) or any(
            _iso_matches(iso, iso_inverse(transported)) for iso in backward
        )

    def admissible(i: int, path: List[str]) -> bool:
        counts["assignments"] += 1
        if keys1[labels1[i]] != keys2[path[i]] or conjugator(labels1[i], path[i]) is None:
            return False
        mapping = dict(zip(labels1, path))
        return all(edge_matches(e, mapping) for e in closing[i])

    def unassigned(i: int, path: List[str]) -> List[str]:
        return [lbl for lbl in labels2 if lbl not in path]

    path = _first_path(len(labels1), unassigned, admissible)
    if path is None:
        return Comparison("inconclusive", **counts)
    desc = ", ".join(f"{a}->{b}" for a, b in sorted(zip(labels1, path)))
    return Comparison("yes", witness=f"block matching {desc}", **counts)
