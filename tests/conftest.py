"""Shared corpus builders: hand-checkable graph structures used across the
test suite and by the acceptance gate."""
import importlib.util
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

import pytest

from gm4 import (
    Block,
    BoundaryIso,
    Edge,
    GraphStructure,
    I2,
    Mat2,
    Pi1Element,
    SurfaceWithBoundary,
    TorusBundleOverCircle,
    compose_isos,
    structure,
)


def bench_gen():
    """bench/gen.py (standard library only), loaded once under its own name."""
    path = Path(__file__).resolve().parent.parent / "bench" / "gen.py"
    spec = importlib.util.spec_from_file_location("bench_gen", path)
    module = sys.modules.get(spec.name)
    if module is None:
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module
        spec.loader.exec_module(module)
    return module


def upper(n: int) -> Mat2:
    return Mat2(1, n, 0, 1)


def pants(m1: Mat2, m2: Mat2, labels=("1", "2", "3")) -> Block:
    surface = SurfaceWithBoundary(True, 0, 3)
    return Block(surface, (m1, m2), tuple(labels))


def holed_sphere(monos, labels=None) -> Block:
    """Planar block with the given first b-1 boundary monodromies."""
    b = len(monos) + 1
    surface = SurfaceWithBoundary(True, 0, b)
    labels = tuple(labels) if labels else tuple(str(i) for i in range(1, b + 1))
    return Block(surface, tuple(monos), labels)


def swap_iso(n: int) -> BoundaryIso:
    """Non-fiber-preserving iso M_[[1,n],[0,1]] -> M_[[1,-n],[0,1]]:
    x -> x, y -> t, t -> y (trades the fiber line y for the base circle)."""
    src = TorusBundleOverCircle(upper(n))
    tgt = TorusBundleOverCircle(upper(-n))
    return BoundaryIso(src, tgt, Pi1Element(1, 0, 0), Pi1Element(0, 0, 1), Pi1Element(0, 1, 0))


def mirror_edge_iso(phi: Mat2, fiber: Mat2 = I2) -> BoundaryIso:
    """Fiber-preserving, boundary-orientation-reversing iso
    M_phi -> M_{fiber phi^-1 fiber^-1}: fiber part given, t -> t^-1."""
    psi_mat = fiber @ phi.inverse() @ fiber.inverse()
    src = TorusBundleOverCircle(phi)
    tgt = TorusBundleOverCircle(psi_mat)
    return BoundaryIso(
        src,
        tgt,
        Pi1Element(fiber.a, fiber.c, 0),
        Pi1Element(fiber.b, fiber.d, 0),
        Pi1Element(0, 0, -1),
    )


def swap_double(n1: int, n2: int) -> GraphStructure:
    """Reduced: two pants blocks with opposite parabolic boundary data,
    glued along fiber-trading isomorphisms."""
    assert n1 and n2 and n1 + n2
    a = pants(upper(n1), upper(n2))
    b = pants(upper(-n1), upper(-n2))
    edges = (
        Edge(("A", "1"), ("B", "1"), swap_iso(n1)),
        Edge(("A", "2"), ("B", "2"), swap_iso(n2)),
        Edge(("A", "3"), ("B", "3"), swap_iso(-n1 - n2)),
    )
    return structure({"A": a, "B": b}, edges)


def swap_double_4holed(n1: int, n2: int, n3: int) -> GraphStructure:
    assert all((n1, n2, n3, n1 + n2 + n3))
    a = holed_sphere([upper(n1), upper(n2), upper(n3)])
    b = holed_sphere([upper(-n1), upper(-n2), upper(-n3)])
    edges = tuple(
        Edge(("A", lbl), ("B", lbl), swap_iso(n))
        for lbl, n in (("1", n1), ("2", n2), ("3", n3), ("4", -n1 - n2 - n3))
    )
    return structure({"A": a, "B": b}, edges)


def genus1_self_swap(n: int) -> GraphStructure:
    """Reduced single block: genus-1 base with two boundaries carrying
    opposite parabolic data, self-glued by the fiber-trading iso."""
    assert n
    surface = SurfaceWithBoundary(True, 1, 2)
    block = Block(surface, (upper(1), upper(2), upper(n)), ("p", "q"))
    edges = (Edge(("D", "p"), ("D", "q"), swap_iso(n)),)
    return structure({"D": block}, edges)


def swap_chain3(n1: int, n2: int, n3: int) -> GraphStructure:
    """Reduced, three blocks: two pants and one 4-holed sphere."""
    assert all((n1, n2, n3, n1 - n3, n1 + n2))
    a = pants(upper(n1), upper(n2))
    b = pants(upper(-n1), upper(n3))
    c = holed_sphere([upper(-n2), upper(-n3), upper(n3 - n1)])
    edges = (
        Edge(("A", "1"), ("B", "1"), swap_iso(n1)),
        Edge(("A", "2"), ("C", "1"), swap_iso(n2)),
        Edge(("B", "2"), ("C", "2"), swap_iso(n3)),
        Edge(("B", "3"), ("C", "3"), swap_iso(n1 - n3)),
        Edge(("A", "3"), ("C", "4"), swap_iso(-n1 - n2)),
    )
    return structure({"A": a, "B": b, "C": c}, edges)


def mirror_double(m1: Mat2, m2: Mat2) -> GraphStructure:
    """Double of a pants block along all three boundary tori: the partner
    block is the mirror presentation, all glueings identity on the fiber
    with t -> t^-1 (orientation-coherent).  Fiber-preserving, not reduced."""
    a = pants(m1, m2)
    b = pants(m2.inverse(), m1.inverse())
    m3 = (m1 @ m2).inverse()
    edges = (
        Edge(("A", "1"), ("B", "2"), mirror_edge_iso(m1)),
        Edge(("A", "2"), ("B", "1"), mirror_edge_iso(m2)),
        Edge(("A", "3"), ("B", "3"), mirror_edge_iso(m3)),
    )
    return structure({"A": a, "B": b}, edges)


def trivial_double() -> GraphStructure:
    """Sigma_2 x T^2 presented as two pants blocks with trivial monodromy."""
    return mirror_double(I2, I2)


def partial_reducible(n1: int, n2: int) -> GraphStructure:
    """Two pants blocks, one fiber-preserving edge and two fiber-trading
    edges; reduces to a single 4-holed-sphere block."""
    assert n1 and n2 and n1 + n2
    a = pants(upper(n1), upper(n2))
    b = pants(upper(-n1), upper(-n2))
    edges = (
        Edge(("A", "3"), ("B", "3"), mirror_edge_iso(upper(-n1 - n2))),
        Edge(("A", "1"), ("B", "1"), swap_iso(n1)),
        Edge(("A", "2"), ("B", "2"), swap_iso(n2)),
    )
    return structure({"A": a, "B": b}, edges)


def twisted_double(c: Mat2) -> GraphStructure:
    """Trivial-monodromy pants double whose glueings twist the fiber by c;
    not reduced; used as a homology oracle case."""
    a = pants(I2, I2)
    b = pants(I2, I2)
    edges = (
        Edge(("A", "1"), ("B", "1"), mirror_edge_iso(I2, c)),
        Edge(("A", "2"), ("B", "2"), mirror_edge_iso(I2)),
        Edge(("A", "3"), ("B", "3"), mirror_edge_iso(I2)),
    )
    return structure({"A": a, "B": b}, edges)


def relabel(gs: GraphStructure, suffix: str = "_r") -> GraphStructure:
    """Rename block and boundary labels, preserving everything else."""
    new_blocks = {}
    bd_map = {}
    for lbl, block in gs.blocks:
        new_labels = tuple(f"{b}{suffix}" for b in block.boundary_labels())
        for old, new in zip(block.boundary_labels(), new_labels):
            bd_map[(lbl, old)] = (f"{lbl}{suffix}", new)
        new_blocks[f"{lbl}{suffix}"] = Block(block.surface, block.images, new_labels)
    new_edges = tuple(
        Edge(bd_map[e.end1], bd_map[e.end2], e.iso) for e in gs.edges
    )
    return structure(new_blocks, new_edges)


def planar_double(ns) -> GraphStructure:
    """Reduced: two planar blocks with first images R^n (n in ns) and R^-n,
    glued boundary by boundary along fiber-trading isomorphisms.  A zero in
    ns gives both blocks an identity image, glued along a T^3 edge."""
    a = holed_sphere([upper(n) for n in ns])
    b = holed_sphere([upper(-n) for n in ns])
    twists = list(ns) + [-sum(ns)]
    edges = tuple(
        Edge(("A", lbl), ("B", lbl), swap_iso(n)) for lbl, n in zip(a.boundary_labels(), twists)
    )
    return structure({"A": a, "B": b}, edges)


def automorphism_partner(gs: GraphStructure, rnd, reach: int = 12) -> GraphStructure:
    """Copy of gs re-glued by one block automorphism Z per block, so the
    blocks stay and each edge f becomes mu_2 f mu_1^-1 for the transports
    mu = (Z, 1) of its ends.  Z commutes with every image of its block: it
    is +-R^j with |j| <= reach when the images are powers of R, and a word
    of up to three such letters R^j, L^j and a flip when they are all I."""
    from gm4.assembly import _transport

    def automorphism(block: Block) -> Mat2:
        if any(m != I2 for m in block.images):
            return rnd.choice((I2, -I2)) @ upper(rnd.randint(-reach, reach))
        z = rnd.choice((I2, Mat2(1, 0, 0, -1)))
        for _ in range(3):
            j = rnd.randint(-reach, reach)
            z = z @ rnd.choice((upper(j), Mat2(1, 0, j, 1)))
        return z

    autos = {lbl: automorphism(block) for lbl, block in gs.blocks}
    for lbl, block in gs.blocks:
        assert all(autos[lbl] @ m == m @ autos[lbl] for m in block.images)
    blocks = gs.block_map()

    def transport(end):
        return _transport(blocks[end[0]].monodromies[end[1]], autos[end[0]], 1)

    edges = tuple(
        Edge(e.end1, e.end2, compose_isos(transport(e.end2)[0], compose_isos(e.iso, transport(e.end1)[1])))
        for e in gs.edges
    )
    return structure(blocks, edges)


def rename_blocks(gs: GraphStructure, names) -> GraphStructure:
    """Copy of gs with block labels renamed by the dict names."""
    edges = tuple(
        Edge((names[e.end1[0]], e.end1[1]), (names[e.end2[0]], e.end2[1]), e.iso) for e in gs.edges
    )
    return structure({names[lbl]: block for lbl, block in gs.blocks}, edges)


def t3_partners(count: int = 15):
    """(name, structure, partner) over T3_CORPUS: count automorphism
    partners of each, every other one renamed so that gs2's sorted block
    order is reversed."""
    out = []
    for name, build in T3_CORPUS.items():
        gs = build()
        rnd = random.Random(name)
        for k in range(count):
            partner = automorphism_partner(gs, rnd)
            if k % 2:
                partner = rename_blocks(partner, {"A": "Q1", "B": "Q0"})
            out.append((f"{name}/{k}", gs, partner))
    return out


# reduced structures with a T^3 edge (an identity edge monodromy)
T3_CORPUS = {
    f"planar_double_{'_'.join(map(str, ns))}": (lambda ns=ns: planar_double(ns))
    for ns in [(0, n) for n in (1, 2, 3, -1, -4)] + [(0, 0), (0, 1, 2), (1, 0, 3), (0, 0, 2), (0, 0, 0)]
}


REDUCED_CORPUS = {
    "swap_double_1_2": lambda: swap_double(1, 2),
    "swap_double_2_3": lambda: swap_double(2, 3),
    "swap_double_1_-3": lambda: swap_double(1, -3),
    "swap_double_4holed_1_2_3": lambda: swap_double_4holed(1, 2, 3),
    "genus1_self_swap_5": lambda: genus1_self_swap(5),
    "swap_chain3_1_2_4": lambda: swap_chain3(1, 2, 4),
}

NONREDUCED_CORPUS = {
    "trivial_double": trivial_double,
    "mirror_double_R_R2": lambda: mirror_double(upper(1), upper(2)),
    "partial_reducible_1_2": lambda: partial_reducible(1, 2),
    "partial_reducible_2_5": lambda: partial_reducible(2, 5),
    "twisted_double_2": lambda: twisted_double(Mat2(1, 2, 0, 1)),
}


@pytest.fixture(scope="session")
def reduced_corpus():
    return {name: build() for name, build in REDUCED_CORPUS.items()}


@pytest.fixture(scope="session")
def full_corpus():
    out = {name: build() for name, build in REDUCED_CORPUS.items()}
    out.update({name: build() for name, build in NONREDUCED_CORPUS.items()})
    return out
