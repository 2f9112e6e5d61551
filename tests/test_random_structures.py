"""Randomized stress tests: seeded random graph structures are validated,
reduced, and compared, with invariants checked across every surgery."""
import random

import pytest

from gm4 import (
    ClosedBaseError,
    Edge,
    Mat2,
    euler_characteristic,
    first_homology,
    invariant_report,
    is_reduced,
    isomorphic_reduced,
    manifold_signature,
    reduce_structure,
    structure,
    validate_structure,
)

from conftest import holed_sphere, mirror_edge_iso, relabel, swap_iso, upper
from test_assembly import _conjugate_structure


def random_structure(rnd: random.Random):
    """Two planar blocks with opposite upper-triangular boundary data, glued
    by a random mix of fiber-trading and fiber-preserving (sheared) isos,
    then disguised by a random global change of fiber basis."""
    b = rnd.randrange(3, 6)
    while True:
        ns = [rnd.choice([n for n in range(-4, 5) if n]) for _ in range(b - 1)]
        if sum(ns) != 0:
            break
    a_block = holed_sphere([upper(n) for n in ns])
    b_block = holed_sphere([upper(-n) for n in ns])
    edges = []
    for i, n in enumerate(ns + [-sum(ns)], start=1):
        if rnd.random() < 0.5:
            iso = swap_iso(n)
        else:
            shear = Mat2(1, rnd.randrange(-3, 4), 0, 1)
            iso = mirror_edge_iso(upper(n), shear)
        edges.append(Edge(("A", str(i)), ("B", str(i)), iso))
    gs = structure({"A": a_block, "B": b_block}, edges)
    conj = Mat2(1, rnd.randrange(-2, 3), 0, 1) @ Mat2(1, 0, rnd.randrange(-2, 3), 1)
    return _conjugate_structure(gs, conj)


@pytest.mark.parametrize("seed", range(25))
def test_random_structure_reduction_invariance(seed):
    rnd = random.Random(1000 + seed)
    gs = random_structure(rnd)
    assert validate_structure(gs) == []
    assert euler_characteristic(gs) == 0
    before = (manifold_signature(gs), first_homology(gs))
    try:
        red = reduce_structure(gs)
    except ClosedBaseError:
        assert all(
            e.iso.x_img.k == 0 and e.iso.y_img.k == 0 for e in gs.edges
        ), "closed base is only possible when every glueing is fiber-preserving"
        return
    assert validate_structure(red) == []
    assert is_reduced(red)[0]
    assert (manifold_signature(red), first_homology(red)) == before
    assert reduce_structure(red) == red


@pytest.mark.parametrize("seed", range(8))
def test_random_reduced_comparison_roundtrip(seed):
    rnd = random.Random(2000 + seed)
    gs = random_structure(rnd)
    try:
        red = reduce_structure(gs)
    except ClosedBaseError:
        return
    disguised = _conjugate_structure(relabel(red), Mat2(1, 1, 0, 1))
    assert validate_structure(disguised) == []
    assert invariant_report(disguised).key() == invariant_report(red).key()
    result = isomorphic_reduced(red, disguised)
    assert result.verdict == "yes"
