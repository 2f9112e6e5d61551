"""The propagating block matching of `isomorphic_reduced` against the
exhaustive reference search of oracle_compare.py: on the manifests, on
small generated match pairs, on structures with a T^3 edge, and with a
stand-in edge test that makes the search try several roots.  A matching
glues image ends where the first structure glues ends, by position, and a
valid structure is connected, so the image of the first structure's least
label forces every other image: the search walks one bijection per root.
Then the pants ring renamed by an odd shift, which the exhaustive search
cannot finish in minutes, the search counters on 192-block rings, and the
search report.  The exact block conjugator `_conjugator` against the
coefficient-box enumeration of oracle_compare.py.  The closed-form edge
test `_iso_matches` against the bounded reference edge test of
oracle_compare.py, against goals built from known self-maps and against a
brute-force box search."""
import hashlib
import itertools
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import gm4.assembly as assembly
from gm4 import I2, L, R, Comparison, Mat2, TorusBundleOverCircle, isomorphic_reduced, load_structure
from gm4.bundles import (
    PI1_X,
    PI1_Y,
    BoundaryIso,
    Pi1Element,
    compose_isos,
    intertwiner_basis,
    is_fiber_preserving,
    iso_inverse,
    validate_glueing,
)

from conftest import (
    REDUCED_CORPUS,
    T3_CORPUS,
    bench_gen,
    relabel,
    swap_chain3,
    swap_double,
    swap_iso,
    t3_partners,
)
from oracle_compare import (
    bounded_conjugators,
    reference_isomorphic_reduced,
    reference_iso_matches,
    self_fiber_maps,
)

ROOT = Path(__file__).resolve().parent.parent
MANIFESTS = sorted((ROOT / "manifests").glob("*.gm"))


def _outcome(search, gs1, gs2):
    try:
        return search(gs1, gs2)
    except ValueError as exc:  # StructureError, NotReducedError
        return type(exc).__name__


@pytest.mark.parametrize("path2", MANIFESTS, ids=lambda p: p.stem)
@pytest.mark.parametrize("path1", MANIFESTS, ids=lambda p: p.stem)
def test_manifest_pairs_match_reference(path1, path2):
    gs1 = load_structure(path1.read_text(encoding="utf-8"))
    gs2 = load_structure(path2.read_text(encoding="utf-8"))
    got = _outcome(isomorphic_reduced, gs1, gs2)
    assert got == _outcome(reference_isomorphic_reduced, gs1, gs2)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_generated_pairs_match_reference(seed):
    items = [it for it in bench_gen().match_items(seed, 1) if it.blocks <= 4]
    assert len(items) >= 20
    for it in items:
        gs1, gs2 = load_structure(it.text1), load_structure(it.text2)
        got = isomorphic_reduced(gs1, gs2)
        assert got == reference_isomorphic_reduced(gs1, gs2), it.id
        assert got.verdict in (it.expect, "inconclusive"), it.id


def _orbit(iso):
    """What the edge test compares: the bundles, the content c of the
    winding form and its gamma mod c up to sign.  Fiber-preserving self-maps
    on either side leave it alone."""
    lx, ly, gamma = assembly._winding_form(iso)
    c = math.gcd(lx, ly)
    return iso.source.phi, iso.target.phi, c, min(gamma % c, -gamma % c) if c else abs(gamma)


def _coin(p):
    """A deterministic stand-in for the edge test that accepts a fraction p
    of the pairs (goal, orbit of the candidate): it makes both searches
    reject bijections whose blocks all fit, and like the edge test it
    cannot tell two conjugators of one block pair apart, since they move
    the candidate within its orbit while the goal is a fixed glueing of
    gs2."""
    answers = {}

    def edge_test(f_goal, f_base):
        if (f_goal, f_base) not in answers:
            key = repr((f_goal, _orbit(f_base))).encode()
            answers[(f_goal, f_base)] = hashlib.sha256(key).digest()[0] < 256 * p
        return answers[(f_goal, f_base)]

    return edge_test


@pytest.mark.parametrize("p", [0.3, 0.6, 0.9])
def test_backtracking_matches_reference_under_any_edge_test(monkeypatch, p):
    gen = bench_gen()
    ring = gen.pants_ring(1, [2, 2], [False, False])
    pairs = [
        (swap_double(1, 2), swap_double(1, 2)),
        (swap_double(1, 2), relabel(swap_double(1, 2))),
        (swap_chain3(1, 2, 3), relabel(swap_chain3(1, 2, 3))),
        (load_structure(ring.text()), load_structure(gen.rename(ring, {
            "P00": "Q01", "P01": "Q02", "P02": "Q03", "P03": "Q00"}).text())),
    ]
    monkeypatch.setattr(assembly, "_iso_matches", _coin(p))
    rerooted = 0
    for gs1, gs2 in pairs:
        got = isomorphic_reduced(gs1, gs2)
        for bound in (1, 2):
            assert got == reference_isomorphic_reduced(gs1, gs2, bound)
        rerooted += got.assignments > len(gs1.blocks)
    assert rerooted


def test_odd_shift_rename_of_a_pants_ring(monkeypatch):
    # the exhaustive search tries up to 18^6 conjugator choices for each
    # labelling that matches block keys before it reaches this witness
    gen = bench_gen()
    ring = gen.pants_ring(2, [-3] * 3, [False] * 3)
    renamed = gen.rename(ring, {f"P{i:02d}": f"Q{(i + 1) % 6:02d}" for i in range(6)})
    calls = []
    real = assembly._iso_matches
    monkeypatch.setattr(assembly, "_iso_matches", lambda *args: calls.append(args) or real(*args))
    result = isomorphic_reduced(load_structure(ring.text()), load_structure(renamed.text()))
    assert result.verdict == "yes"
    assert result.witness == (
        "block matching P00->Q01, P01->Q02, P02->Q03, P03->Q04, P04->Q05, P05->Q00"
    )
    # edges are tested on complete bijections only: one test per edge of
    # the ring (6 trades and 3 rungs)
    assert len(calls) == 9


def test_search_counts_on_192_block_rings():
    # each root fixes one bijection, so the counts grow with the ring: at
    # most two roots for the partners that match, and no edge test where
    # every root fails during the walk.  The depth-first search that came
    # before made 68,130 assignments on the odd rename alone
    gen = bench_gen()
    n = 192
    ring = gen.pants_ring(2, [-3] * (n // 2), [False] * (n // 2))
    gs1 = load_structure(ring.text())
    edges = len(gs1.edges)
    assert edges == 3 * n // 2
    for partner in (ring, gen._renamed(ring, 1), gen.change_fiber_basis(ring, gen.FIBER_BASES[0])):
        result = isomorphic_reduced(gs1, load_structure(partner.text()))
        assert result.verdict == "yes"
        assert result.assignments <= 2 * n and result.edge_checks == edges
    result = isomorphic_reduced(gs1, load_structure(gen.rotate_block(ring, "P00").text()))
    assert result.verdict == "inconclusive"
    assert result.edge_checks == 0 and result.assignments <= n * n // 2


def test_conjugators_are_computed_once_per_pair_of_representations(monkeypatch):
    gen = bench_gen()
    ring = gen.pants_ring(2, [-3] * 3, [False] * 3)
    renamed = gen.rename(ring, {f"P{i:02d}": f"Q{(i + 1) % 6:02d}" for i in range(6)})
    gs1, gs2 = load_structure(ring.text()), load_structure(renamed.text())
    runs = []
    real = assembly._conjugator
    monkeypatch.setattr(assembly, "_conjugator", lambda pairs: runs.append(pairs) or real(pairs))
    assert isomorphic_reduced(gs1, gs2).verdict == "yes"
    reps = {(b1.images, b2.images) for _, b1 in gs1.blocks for _, b2 in gs2.blocks}
    assert len(reps) == 4  # even and odd blocks, on either side
    assert len(runs) == len({tuple(pairs) for pairs in runs}) <= len(reps)


_FLIP = Mat2(1, 0, 0, -1)
_FAR = (R @ L) ** 4 @ R ** 3  # [[34, 123], [21, 76]]


def _random_word(rnd, letters=3, reach=3):
    m = rnd.choice((I2, -I2, _FLIP))
    for _ in range(rnd.randint(1, letters)):
        m = m @ rnd.choice((R, L)) ** rnd.randint(-reach, reach)
    return m


def _random_pairs(rnd):
    """Block images and their images under one conjugation, or, with
    probability 0.3, with one target conjugated once more, which in general
    leaves no simultaneous conjugator: (pairs, whether they are conjugate)."""
    if rnd.random() < 0.5:  # powers of one matrix, as on the corpus blocks
        g = _random_word(rnd)
        images = [rnd.choice((I2, -I2)) @ g ** rnd.randint(-2, 2) for _ in range(rnd.randint(1, 3))]
    else:
        images = [_random_word(rnd) for _ in range(rnd.randint(1, 3))]
    x = _random_word(rnd, 4, 2)
    targets = [x @ m @ x.inverse() for m in images]
    conjugate = rnd.random() < 0.7
    if not conjugate:
        i = rnd.randrange(len(targets))
        y = _random_word(rnd, 2, 1)
        targets[i] = y @ targets[i] @ y.inverse()
    return list(zip(images, targets)), conjugate


def _conjugates(x, pairs):
    return abs(x.det()) == 1 and all(x @ m1 == m2 @ x for m1, m2 in pairs)


class TestConjugator:
    def test_finds_whatever_the_box_finds(self):
        rnd = random.Random(14)
        beyond_box = 0
        for _ in range(2000):
            pairs, conjugate = _random_pairs(rnd)
            got = assembly._conjugator(pairs)
            box = next(bounded_conjugators(pairs, 4), None)
            if got is None:
                assert box is None and not conjugate, pairs
            else:
                assert _conjugates(got, pairs), (pairs, got)
                beyond_box += box is None
        assert beyond_box >= 20

    def test_equal_pairs_give_the_identity(self):
        assert assembly._conjugator([(R, R), (-I2, -I2)]) == I2

    def test_commuting_pair_beyond_the_box(self):
        pairs = [(m, _FAR @ m @ _FAR.inverse()) for m in (R, R ** 3, -R)]
        assert next(bounded_conjugators(pairs, 4), None) is None
        assert _conjugates(assembly._conjugator(pairs), pairs)

    def test_non_commuting_pair_gives_plus_or_minus_the_conjugator(self):
        x = _FAR @ L ** -5 @ _FLIP
        pairs = [(m, x @ m @ x.inverse()) for m in (R, L)]
        assert assembly._conjugator(pairs) in (x, -x)

    def test_intertwiner_of_determinant_two_is_no_conjugator(self):
        pairs = [(Mat2(1, 2, 0, 1), Mat2(1, 4, 0, 1)), (Mat2(1, 0, 2, 1), Mat2(1, 0, 1, 1))]
        assert intertwiner_basis(pairs) in ([Mat2(2, 0, 0, 1)], [Mat2(-2, 0, 0, -1)])
        assert assembly._conjugator(pairs) is None

    def test_unequal_scalar_pairs_give_none(self):
        assert assembly._conjugator([(I2, -I2)]) is None
        assert assembly._conjugator([(-I2, -I2), (I2, -I2)]) is None


class TestSearchReport:
    def test_counters(self):
        gs = swap_double(1, 2)
        result = isomorphic_reduced(gs, relabel(gs))
        assert (result.assignments, result.edge_checks) == (2, 3)

    def test_separated_pair_searches_nothing(self):
        result = isomorphic_reduced(swap_double(1, 2), swap_double(2, 3))
        assert result.verdict == "no"
        assert (result.assignments, result.edge_checks) == (0, 0)

    def test_equality_ignores_the_search(self):
        assert Comparison("yes", "w", assignments=3, edge_checks=2) == Comparison("yes", "w")


def test_edge_test_accepts_whatever_the_reference_accepts(monkeypatch):
    # every edge test that comparing the manifests pairwise and the small
    # generated match pairs makes
    pairs = [
        (load_structure(p1.read_text(encoding="utf-8")), load_structure(p2.read_text(encoding="utf-8")))
        for p1 in MANIFESTS
        for p2 in MANIFESTS
    ]
    pairs += [(load_structure(it.text1), load_structure(it.text2)) for it in bench_gen().match_items(1, 1)]
    calls = []
    real = assembly._iso_matches
    monkeypatch.setattr(assembly, "_iso_matches", lambda *args: calls.append(args) or real(*args))
    for gs1, gs2 in pairs:
        _outcome(isomorphic_reduced, gs1, gs2)
    assert len(calls) >= 50
    missed = [args for args in calls if reference_iso_matches(args[0], args[1], 4) and not real(*args)]
    assert missed == []


@pytest.mark.parametrize(
    "goal, matches",
    [
        # content c = 5 and gamma = -2, which is neither 1 nor -1 mod 5
        (((-2, 0, 5), (0, 1, 0), (1, 0, -2)), False),
        (((-1, 0, 5), (0, 1, 0), (-1, 0, 4)), True),
    ],
)
def test_t3_edge_test_decides_by_gamma_mod_the_content(goal, matches):
    t3 = TorusBundleOverCircle(I2)
    base = BoundaryIso(t3, t3, Pi1Element(1, 0, 5), PI1_Y, Pi1Element(0, 0, 1))
    f_goal = BoundaryIso(t3, t3, *(Pi1Element(*img) for img in goal))
    assert validate_glueing(base) == validate_glueing(f_goal) == []
    assert assembly._iso_matches(f_goal, base) is matches


def test_edge_test_finds_a_translation_the_linearisation_misses():
    base = swap_iso(1)  # M_R -> M_R^-1: x -> x, y -> t, t -> y
    src, tgt = base.source, base.target
    goal = BoundaryIso(src, tgt, Pi1Element(-1, 0, 0), Pi1Element(1, -1, -1), Pi1Element(0, 0, -1))
    assert validate_glueing(base) == validate_glueing(goal) == []
    assert not any(reference_iso_matches(goal, base, bound) for bound in (0, 2, 4, 6))
    assert assembly._iso_matches(goal, base)
    # independently: with g_t = (I, u, 1), some u in a small box
    # makes g_s = base^-1 o g_t^-1 o goal a fiber-preserving self-map
    base_inv = iso_inverse(base)
    for u in itertools.product(range(-3, 4), repeat=2):
        g_t = BoundaryIso(tgt, tgt, PI1_X, PI1_Y, Pi1Element(u[0], u[1], 1))
        g_s = compose_isos(base_inv, compose_isos(iso_inverse(g_t), goal))
        if is_fiber_preserving(g_s):
            break
    else:
        pytest.fail("no translation in the box gives a fiber-preserving g_s")
    assert validate_glueing(g_s) == validate_glueing(g_t) == []
    assert compose_isos(g_t, compose_isos(base, g_s)) == goal


def test_edge_test_is_complete_within_the_bound():
    # goals g_t o f o g_s with fiber parts within a bound, and any
    # translations, always match
    rnd = random.Random(11)
    bound, misses_of_reference = 1, 0
    bases = [e.iso for build in REDUCED_CORPUS.values() for e in build().edges]
    for f_base in bases * 4:
        src, tgt = f_base.source, f_base.target
        a_s, eps_s = rnd.choice(self_fiber_maps(src.phi, 3))
        a_t, eps_t = rnd.choice(self_fiber_maps(tgt.phi, bound))
        u_s, u_t = ([rnd.randint(-6, 6) for _ in range(2)] for _ in range(2))
        g_s = assembly._fp_iso(src, src, a_s, Pi1Element(u_s[0], u_s[1], eps_s))
        g_t = assembly._fp_iso(tgt, tgt, a_t, Pi1Element(u_t[0], u_t[1], eps_t))
        goal = compose_isos(g_t, compose_isos(f_base, g_s))
        assert assembly._iso_matches(goal, f_base), (f_base, goal)
        misses_of_reference += not reference_iso_matches(goal, f_base, bound)
    assert misses_of_reference  # the goals reach past the reference's enumeration


def test_t3_partners_answer_yes_at_every_bound():
    # the block automorphisms reach past every conjugator and self-map box;
    # the reference tries 24 conjugators per block pair where the library
    # takes the first
    partners = t3_partners()
    assert len(partners) == 15 * len(T3_CORPUS)
    for name, gs1, gs2 in partners:
        got = isomorphic_reduced(gs1, gs2)
        assert got.verdict == "yes", name
        for bound in (1, 2, 4):
            assert got == reference_isomorphic_reduced(gs1, gs2, bound), (name, bound)


def _far_self_map(bundle, rnd):
    """A fiber-preserving self-iso (A, u, eps) of M_phi, phi a power of R,
    with A past any coefficient box: +-[[1, j], [0, eps]] with |j| <= 50,
    or any word of four such letters R^j, L^j when phi = I; |u| <= 50."""
    phi, eps = bundle.phi, rnd.choice((1, -1))
    if phi == I2:
        a = rnd.choice((I2, Mat2(1, 0, 0, -1)))
        for _ in range(4):
            j = rnd.randint(-50, 50)
            a = a @ rnd.choice((Mat2(1, j, 0, 1), Mat2(1, 0, j, 1)))
    else:
        a = rnd.choice((I2, -I2)) @ Mat2(1, rnd.randint(-50, 50), 0, eps)
    assert a @ phi @ a.inverse() == phi ** eps
    u = [rnd.randint(-50, 50) for _ in range(2)]
    return assembly._fp_iso(bundle, bundle, a, Pi1Element(u[0], u[1], eps))


def _corpus_glueings():
    builds = [*REDUCED_CORPUS.values(), *T3_CORPUS.values()]
    return [e.iso for build in builds for e in build().edges]


def test_edge_test_accepts_self_maps_past_any_box():
    rnd = random.Random(12)
    t3_goals = 0
    for f_base in _corpus_glueings() * 3:
        g_s, g_t = _far_self_map(f_base.source, rnd), _far_self_map(f_base.target, rnd)
        assert validate_glueing(g_s) == validate_glueing(g_t) == []
        goal = compose_isos(g_t, compose_isos(f_base, g_s))
        assert assembly._iso_matches(goal, f_base), (f_base, goal)
        t3_goals += f_base.target.phi == I2
    assert t3_goals >= 30


def _random_automorphism(bundle, rnd):
    """A product of four small self-isos of M_phi, phi = R^n: each either
    preserves the fiber or is one conjugated by the fiber-trading swap
    M_R^n -> M_R^-n, which in general does not."""
    n = bundle.phi.b
    out = BoundaryIso.identity(bundle)
    for _ in range(4):
        swap = rnd.random() < 0.8
        inner = TorusBundleOverCircle(Mat2(1, -n, 0, 1)) if swap else bundle
        a, eps = rnd.choice(self_fiber_maps(inner.phi, 1))
        u = [rnd.randint(-3, 3) for _ in range(2)]
        g = assembly._fp_iso(inner, inner, a, Pi1Element(u[0], u[1], eps))
        if swap:
            g = compose_isos(swap_iso(-n), compose_isos(g, swap_iso(n)))
        out = compose_isos(g, out)
    return out


def _box_search(f_goal, f_base, bound=1, reach=2):
    """Brute force: a self-iso h = (A, u, eps) of the target, with A from
    the bounded enumeration and u in a box, such that f_base^-1 o h o f_goal
    preserves the fiber; then f_goal = h^-1 o f_base o g_s."""
    tgt = f_base.target
    base_inv = iso_inverse(f_base)
    for a, eps in self_fiber_maps(tgt.phi, bound):
        for u in itertools.product(range(-reach, reach + 1), repeat=2):
            h = assembly._fp_iso(tgt, tgt, a, Pi1Element(u[0], u[1], eps))
            if is_fiber_preserving(compose_isos(base_inv, compose_isos(h, f_goal))):
                return True
    return False


def test_edge_test_false_answers_agree_with_a_box_search():
    rnd = random.Random(13)
    glueings = _corpus_glueings()
    answers = []
    for _ in range(100):
        f_base = rnd.choice(glueings)
        goal = compose_isos(f_base, _random_automorphism(f_base.source, rnd))
        assert validate_glueing(goal) == []
        answers.append(assembly._iso_matches(goal, f_base))
        if not answers[-1]:
            assert not _box_search(goal, f_base), (f_base, goal)
    assert 20 <= answers.count(False) <= 80


# every witness g_s gets its translation moved by (0, 1); the winding form
# of the fiber-trading swap M_R -> M_R^-1 is (0, 1, 0), so the move changes
# the form that g_s carries it to
_BAD_WITNESS = """
import gm4.assembly as assembly
from gm4 import BoundaryIso, Mat2, Pi1Element, TorusBundleOverCircle

real = assembly._fp_iso
assembly._fp_iso = lambda src, dst, u, t: real(src, dst, u, Pi1Element(t.a, t.b + 1, t.k))
swap = BoundaryIso(
    TorusBundleOverCircle(Mat2(1, 1, 0, 1)),
    TorusBundleOverCircle(Mat2(1, -1, 0, 1)),
    Pi1Element(1, 0, 0),
    Pi1Element(0, 0, 1),
    Pi1Element(0, 1, 0),
)
try:
    assembly._iso_matches(swap, swap)
except RuntimeError as exc:
    print("raised:", exc, "debug:", __debug__)
else:
    print("accepted")
"""


def test_bad_witness_raises(monkeypatch):
    # a result check, not an assert: it must also raise under python -O
    real = assembly._fp_iso
    monkeypatch.setattr(
        assembly, "_fp_iso", lambda src, dst, u, t: real(src, dst, u, Pi1Element(t.a, t.b + 1, t.k))
    )
    with pytest.raises(RuntimeError, match="does not carry the winding form"):
        assembly._iso_matches(swap_iso(1), swap_iso(1))
    monkeypatch.undo()
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run([sys.executable, "-O", "-c", _BAD_WITNESS], capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr
    assert run.stdout.startswith("raised:") and run.stdout.rstrip().endswith("debug: False")
