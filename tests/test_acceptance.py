"""Acceptance gate: one test per criterion, each printing a PASS line with
the checked quantities (run with -s or -v to see them)."""
import itertools
import random

import pytest

from gm4 import (
    ClosedBaseError,
    I2,
    L,
    Mat2,
    Pi1Element,
    R,
    S,
    TorusBundleOverCircle,
    classify,
    conjugate_in,
    euler_characteristic,
    fibration_unique,
    first_homology,
    invariant_report,
    is_reduced,
    isomorphic_reduced,
    manifold_signature,
    meyer_cocycle,
    psi,
    reduce_structure,
    validate_structure,
)

from conftest import NONREDUCED_CORPUS, REDUCED_CORPUS, partial_reducible, relabel
from oracle_compare import reference_isomorphic_reduced
from oracle_sl2z import conjugacy_orbit, sl2z_entries_up_to


def _seeded_pool(seed: int, count: int, max_entry: int):
    rnd = random.Random(seed)
    pool = set()
    while len(pool) < count:
        m = I2
        for _ in range(rnd.randrange(1, 10)):
            m = m @ rnd.choice([R, L, S, R.inverse(), L.inverse()])
        if max(abs(e) for e in m.entries()) <= max_entry:
            pool.add(m)
    return sorted(pool)


def test_criterion_01_psi_calibration():
    for n in range(-10, 11):
        m = Mat2(1, n, 0, 1)
        assert psi(m) == n, (n, psi(m))
        assert psi(-m) == n, (n, psi(-m))
    assert psi(I2) == 0
    assert psi(-I2) == 0
    print("\nPASS criterion 1: psi(+-[[1,n],[0,1]]) = n for n in [-10,10], psi(+-I) = 0")


def test_criterion_02_signature_vanishing():
    names = []
    for name, build in REDUCED_CORPUS.items():
        gs = build()
        assert validate_structure(gs) == []
        assert is_reduced(gs)[0]
        assert all(b.surface.orientable for _, b in gs.blocks)
        assert manifold_signature(gs) == 0, name
        names.append(name)
    assert len(names) >= 5
    print(f"\nPASS criterion 2: sigma = 0 exactly on {len(names)} reduced "
          f"orientable-base corpus structures: {', '.join(names)}")


def test_criterion_03_euler_characteristic():
    count = 0
    for name, build in {**REDUCED_CORPUS, **NONREDUCED_CORPUS}.items():
        gs = build()
        assert validate_structure(gs) == [], name
        assert euler_characteristic(gs) == 0, name
        count += 1
    print(f"\nPASS criterion 3: euler characteristic 0 on all {count} valid corpus structures")


def test_criterion_04_cocycle_and_coboundary_suite():
    pool = _seeded_pool(seed=401, count=300, max_entry=10)
    rnd = random.Random(402)
    for _ in range(1000):
        a, b, c = (rnd.choice(pool) for _ in range(3))
        assert meyer_cocycle(a, b) + meyer_cocycle(a @ b, c) == meyer_cocycle(
            a, b @ c
        ) + meyer_cocycle(b, c)
    for _ in range(1000):
        a, b = rnd.choice(pool), rnd.choice(pool)
        assert psi(a @ b) == psi(a) + psi(b) - 3 * meyer_cocycle(a, b)
    print("\nPASS criterion 4: 2-cocycle identity and "
          "psi(AB) = psi(A) + psi(B) - 3 tau(A,B) on 1000 random pairs/triples, exact")


def test_criterion_05_conjugacy_oracle_equivalence():
    pool = sl2z_entries_up_to(3)
    mats = [Mat2(*t) for t in pool]
    pairs = 0
    for i, t1 in enumerate(pool):
        orbit = conjugacy_orbit(t1, depth=12)
        for j, t2 in enumerate(pool):
            expected = t2 in orbit
            got, witness = conjugate_in(mats[i], mats[j])
            assert got == expected, (t1, t2, expected, got)
            if got:
                assert witness @ mats[i] @ witness.inverse() == mats[j]
            pairs += 1
    print(f"\nPASS criterion 5: conjugate_in agrees with the brute-force "
          f"oracle (words <= 12 in R,L,S) on all {pairs} ordered pairs with entries in [-3,3]")


def test_criterion_06_fibration_uniqueness():
    count = 0
    for a, b, c, d in itertools.product(range(-5, 6), repeat=4):
        if a * d - b * c != 1:
            continue
        phi = Mat2(a, b, c, d)
        det_phi_minus_one = (a - 1) * (d - 1) - b * c
        assert fibration_unique(TorusBundleOverCircle(phi)) == (det_phi_minus_one != 0)
        count += 1
    print(f"\nPASS criterion 6: fibration_unique(phi) false exactly when "
          f"det(phi - I) = 0, exhaustively on {count} SL(2,Z) matrices with entries in [-5,5]")


def test_criterion_07_reduced_parabolicity():
    total = 0
    for name, build in REDUCED_CORPUS.items():
        gs = build()
        report = invariant_report(gs)
        assert report.findings == (), name
        for cls_str in report.decomposing_classes:
            assert cls_str.startswith("Parabolic"), (name, cls_str)
            total += 1
        for edge in gs.edges:
            for end in (edge.end1, edge.end2):
                mono = gs.block(end[0]).monodromies[end[1]]
                assert classify(mono).kind == "parabolic", (name, end)
    print(f"\nPASS criterion 7: all {total} decomposing monodromy classes of "
          f"reduced corpus structures are Parabolic (both edge sides checked)")


def test_criterion_08_pi1_group_axioms():
    ambients = [
        TorusBundleOverCircle(I2),
        TorusBundleOverCircle(Mat2(1, 1, 0, 1)),
        TorusBundleOverCircle(Mat2(1, -4, 0, 1)),
        TorusBundleOverCircle(Mat2(2, 1, 1, 1)),
        TorusBundleOverCircle(Mat2(0, -1, 1, 0)),
        TorusBundleOverCircle(Mat2(1, 0, 0, -1)),
    ]
    rnd = random.Random(801)
    ident = Pi1Element(0, 0, 0)
    for tb in ambients:
        for _ in range(1000):
            e1, e2, e3 = (
                Pi1Element(rnd.randint(-5, 5), rnd.randint(-5, 5), rnd.randint(-5, 5))
                for _ in range(3)
            )
            assert tb.mul(tb.mul(e1, e2), e3) == tb.mul(e1, tb.mul(e2, e3))
            assert tb.mul(e1, ident) == e1 == tb.mul(ident, e1)
            assert tb.mul(e1, tb.inv(e1)) == ident == tb.mul(tb.inv(e1), e1)
    print(f"\nPASS criterion 8: pi1 normal-form group axioms on 1000 random "
          f"triples for each of {len(ambients)} ambient monodromies, exact")


def test_criterion_09_reduction():
    checked = []
    for name, build in {**REDUCED_CORPUS, **NONREDUCED_CORPUS}.items():
        gs = build()
        try:
            red = reduce_structure(gs)
        except ClosedBaseError:
            continue  # torus bundle over a closed surface: reported, not reduced
        assert reduce_structure(red) == red, name
        assert manifold_signature(red) == manifold_signature(gs), name
        assert euler_characteristic(red) == euler_characteristic(gs), name
        assert first_homology(red) == first_homology(gs), name
        checked.append(name)
    gs = partial_reducible(1, 2)
    red = reduce_structure(gs)
    (_, block), = red.blocks
    surface = block.surface
    assert (surface.orientable, surface.genus, surface.boundary_count) == (True, 0, 4)
    assert surface.euler_characteristic() == -2
    print(f"\nPASS criterion 9: reduce idempotent and sigma/euler/H1-preserving on "
          f"{len(checked)} corpus structures; two-pants merge gives the "
          f"4-holed-sphere block with chi = -2")


def test_criterion_10_comparison_soundness():
    yes = no = 0
    for name, build in REDUCED_CORPUS.items():
        gs = build()
        result = isomorphic_reduced(gs, relabel(gs))
        assert result.verdict == "yes", name
        yes += 1
    separated_pairs = [
        ("swap_double_1_2", "swap_double_2_3"),
        ("swap_double_1_2", "swap_double_4holed_1_2_3"),
        ("genus1_self_swap_5", "swap_double_1_2"),
    ]
    for n1, n2 in separated_pairs:
        gs1, gs2 = REDUCED_CORPUS[n1](), REDUCED_CORPUS[n2]()
        result = isomorphic_reduced(gs1, gs2)
        assert result.verdict == "no", (n1, n2, result)
        no += 1
    # "yes" wherever the coefficient-box reference says so, at any bound,
    # and no decided reference answer contradicted
    stable = 0
    for gs1, gs2 in [
        (REDUCED_CORPUS["swap_double_1_2"](), relabel(REDUCED_CORPUS["swap_double_1_2"]())),
        (REDUCED_CORPUS["swap_double_1_2"](), REDUCED_CORPUS["swap_double_2_3"]()),
    ]:
        got = isomorphic_reduced(gs1, gs2).verdict
        for bound in (2, 4, 6):
            assert reference_isomorphic_reduced(gs1, gs2, bound).verdict in (got, "inconclusive")
        stable += 1
    print(f"\nPASS criterion 10: {yes} relabeled copies Yes, {no} invariant-separated "
          f"pairs No, agreement with the bounded reference at bounds 2, 4, 6 on {stable} pairs")
