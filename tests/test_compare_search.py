"""The backtracking block matching of `isomorphic_reduced` against the
exhaustive reference search of oracle_compare.py: on the manifests, on
small generated match pairs, and with a stand-in edge test that makes both
searches backtrack; then the pants ring renamed by an odd shift, which the
exhaustive search cannot finish in minutes, and the search report.  The
edge test `_iso_matches` against the linearised reference edge test of
oracle_compare.py and against goals built from known self-maps."""
import hashlib
import importlib.util
import itertools
import random
import sys
from pathlib import Path

import pytest

import gm4.assembly as assembly
from gm4 import Comparison, isomorphic_reduced, load_structure
from gm4.bundles import (
    PI1_X,
    PI1_Y,
    BoundaryIso,
    Pi1Element,
    compose_isos,
    is_fiber_preserving,
    iso_inverse,
    validate_glueing,
)

from conftest import REDUCED_CORPUS, relabel, swap_chain3, swap_double, swap_iso
from oracle_compare import reference_isomorphic_reduced, reference_iso_matches

ROOT = Path(__file__).resolve().parent.parent
MANIFESTS = sorted((ROOT / "manifests").glob("*.gm"))


def _bench_gen():
    """bench/gen.py (standard library only), loaded under its own name."""
    spec = importlib.util.spec_from_file_location("bench_gen", ROOT / "bench" / "gen.py")
    module = sys.modules.get(spec.name)
    if module is None:
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module
        spec.loader.exec_module(module)
    return module


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


def test_generated_pairs_match_reference():
    items = [it for it in _bench_gen().match_items(1, 1) if it.blocks <= 4]
    assert len(items) >= 20
    for it in items:
        gs1, gs2 = load_structure(it.text1), load_structure(it.text2)
        got = isomorphic_reduced(gs1, gs2)
        assert got == reference_isomorphic_reduced(gs1, gs2), it.id
        assert got.verdict in (it.expect, "inconclusive"), it.id


def _coin(p):
    """A deterministic stand-in for the edge test that accepts a fraction p
    of the (goal, candidate) pairs: it makes both searches backtrack."""
    def edge_test(f_goal, f_base, bound):
        return hashlib.sha256(repr((f_goal, f_base)).encode()).digest()[0] < 256 * p

    return edge_test


@pytest.mark.parametrize("p", [0.3, 0.6, 0.9])
def test_backtracking_matches_reference_under_any_edge_test(monkeypatch, p):
    gen = _bench_gen()
    ring = gen.pants_ring(1, [2, 2], [False, False])
    pairs = [
        (swap_double(1, 2), swap_double(1, 2)),
        (swap_double(1, 2), relabel(swap_double(1, 2))),
        (swap_chain3(1, 2, 3), relabel(swap_chain3(1, 2, 3))),
        (load_structure(ring.text()), load_structure(gen.rename(ring, {
            "P00": "Q01", "P01": "Q02", "P02": "Q03", "P03": "Q00"}).text())),
    ]
    monkeypatch.setattr(assembly, "_iso_matches", _coin(p))
    backtracked = 0
    for gs1, gs2 in pairs:
        for bound in (1, 2):
            got = isomorphic_reduced(gs1, gs2, bound)
            assert got == reference_isomorphic_reduced(gs1, gs2, bound)
            backtracked += got.conjugator_nodes > len(gs1.blocks)
    assert backtracked


def test_odd_shift_rename_of_a_pants_ring(monkeypatch):
    # the exhaustive search tries up to 18^6 conjugator choices for each
    # labelling that matches block keys before it reaches this witness
    gen = _bench_gen()
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
    # one test per edge of the ring (6 trades and 3 rungs) was measured;
    # the margin allows one more conjugator tried per block
    assert len(calls) <= 9 + 6


class TestSearchReport:
    def test_counters(self):
        gs = swap_double(1, 2)
        result = isomorphic_reduced(gs, relabel(gs))
        assert (result.bijections, result.conjugator_nodes, result.edge_checks) == (1, 2, 3)
        assert not result.truncated

    def test_separated_pair_searches_nothing(self):
        result = isomorphic_reduced(swap_double(1, 2), swap_double(2, 3))
        assert result.verdict == "no"
        assert (result.bijections, result.conjugator_nodes, result.edge_checks) == (0, 0, 0)

    def test_truncated_conjugator_list(self):
        # the blocks' images commute, so their conjugators are +-[[1,k],[0,1]]:
        # 2 * (2 * bound + 1) of them, more than 24 from bound 6 on
        gs = swap_double(1, 2)
        assert not isomorphic_reduced(gs, gs, search_bound=5).truncated
        result = isomorphic_reduced(gs, gs, search_bound=6)
        assert result.truncated and result.verdict == "yes"

    def test_equality_ignores_the_search(self):
        assert Comparison("yes", "w", bijections=3, truncated=True) == Comparison("yes", "w")


def test_edge_test_accepts_whatever_the_reference_accepts(monkeypatch):
    # every edge test that comparing the manifests pairwise and the small
    # generated match pairs makes
    pairs = [
        (load_structure(p1.read_text(encoding="utf-8")), load_structure(p2.read_text(encoding="utf-8")))
        for p1 in MANIFESTS
        for p2 in MANIFESTS
    ]
    pairs += [(load_structure(it.text1), load_structure(it.text2)) for it in _bench_gen().match_items(1, 1)]
    calls = []
    real = assembly._iso_matches
    monkeypatch.setattr(assembly, "_iso_matches", lambda *args: calls.append(args) or real(*args))
    for gs1, gs2 in pairs:
        _outcome(isomorphic_reduced, gs1, gs2)
    assert len(calls) >= 50
    missed = [args for args in calls if reference_iso_matches(*args) and not real(*args)]
    assert missed == []


def test_edge_test_finds_a_translation_the_linearisation_misses():
    base = swap_iso(1)  # M_R -> M_R^-1: x -> x, y -> t, t -> y
    src, tgt = base.source, base.target
    goal = BoundaryIso(src, tgt, Pi1Element(-1, 0, 0), Pi1Element(1, -1, -1), Pi1Element(0, 0, -1))
    assert validate_glueing(base) == validate_glueing(goal) == []
    assert not any(reference_iso_matches(goal, base, bound) for bound in (0, 2, 4, 6))
    assert assembly._iso_matches(goal, base, 0)
    # independently: at bound 0, g_t = (I, u, 1), and some u in a small box
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
    # goals g_t o f o g_s with g_t's fiber part within the bound, and any
    # translations and source fiber part, always match
    rnd = random.Random(11)
    bound, misses_of_reference = 1, 0
    bases = [e.iso for build in REDUCED_CORPUS.values() for e in build().edges]
    for f_base in bases * 4:
        src, tgt = f_base.source, f_base.target
        a_s, eps_s = rnd.choice(assembly._self_fiber_maps(src.phi, 3))
        a_t, eps_t = rnd.choice(assembly._self_fiber_maps(tgt.phi, bound))
        u_s, u_t = ([rnd.randint(-6, 6) for _ in range(2)] for _ in range(2))
        g_s = assembly._fp_iso(src, src, a_s, Pi1Element(u_s[0], u_s[1], eps_s))
        g_t = assembly._fp_iso(tgt, tgt, a_t, Pi1Element(u_t[0], u_t[1], eps_t))
        goal = compose_isos(g_t, compose_isos(f_base, g_s))
        assert assembly._iso_matches(goal, f_base, bound), (f_base, goal)
        misses_of_reference += not reference_iso_matches(goal, f_base, bound)
    assert misses_of_reference  # the goals reach past the reference's enumeration
