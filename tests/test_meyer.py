import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from gm4 import (
    Block,
    BoundaryIso,
    Edge,
    I2,
    L,
    Mat2,
    NotInSL2ZError,
    R,
    S,
    SurfaceWithBoundary,
    TorusBundleOverCircle,
    UnsupportedOperationError,
    block_signature,
    invariant_report,
    manifold_signature,
    meyer_cocycle,
    psi,
    psi_by_folding,
    structure,
    validate_structure,
)

from gm4 import bundles, gl2z, meyer
from gm4.manifest import load_structure

from conftest import T3_CORPUS, mirror_double, pants, trivial_double, upper


def to_matrix(word):
    m = I2
    for g in word:
        m = m @ g
    return m


sl2z_matrices = st.lists(
    st.sampled_from([R, L, S, R.inverse(), L.inverse()]), max_size=8
).map(to_matrix)


def seeded_pool(seed=11, count=400, max_entry=10):
    rnd = random.Random(seed)
    pool = set()
    while len(pool) < count:
        m = I2
        for _ in range(rnd.randrange(1, 10)):
            m = m @ rnd.choice([R, L, S, R.inverse(), L.inverse()])
        if max(abs(e) for e in m.entries()) <= max_entry:
            pool.add(m)
    return sorted(pool)


class TestPsi:
    def test_translation_values(self):
        assert psi(Mat2(1, 4, 0, 1)) == 4
        for n in range(-10, 11):
            assert psi(Mat2(1, n, 0, 1)) == n
            assert psi(-Mat2(1, n, 0, 1)) == n

    def test_central_values(self):
        assert psi(I2) == 0
        assert psi(-I2) == 0

    def test_negative_diagonal_parabolic(self):
        # (-1 7; 0 -1) = -[[1,-7],[0,1]]: projectively the n = -7 class
        assert psi(Mat2(-1, 7, 0, -1)) == -7
        assert psi(Mat2(-1, 7, 0, -1)) + psi(Mat2(-1, -7, 0, -1)) == 0

    def test_rejects_det_minus_one(self):
        with pytest.raises(NotInSL2ZError):
            psi(Mat2(1, 0, 0, -1))

    @given(sl2z_matrices, sl2z_matrices)
    @settings(max_examples=200, deadline=None)
    def test_conjugation_invariance(self, a, c):
        assert psi(c @ a @ c.inverse()) == psi(a)

    @given(sl2z_matrices)
    @settings(max_examples=200, deadline=None)
    def test_inverse_antisymmetry(self, a):
        assert psi(a.inverse()) == -psi(a)

    @given(sl2z_matrices)
    @settings(max_examples=100, deadline=None)
    def test_folding_decompositions_agree(self, m):
        assert psi_by_folding(m, "floor") == psi_by_folding(m, "round") == psi(m)


class TestCocycle:
    def test_identity_argument_vanishes(self):
        for a in (R, L, S, Mat2(2, 1, 1, 1)):
            assert meyer_cocycle(I2, a) == 0
            assert meyer_cocycle(a, I2) == 0

    def test_spec_values(self):
        assert meyer_cocycle(Mat2(1, 1, 0, 1), Mat2(1, -1, 0, 1)) == 0
        assert meyer_cocycle(Mat2(1, 1, 0, 1), Mat2(1, 1, 0, 1)) == 0

    @given(sl2z_matrices, sl2z_matrices, sl2z_matrices)
    @settings(max_examples=200, deadline=None)
    def test_cocycle_identity(self, a, b, c):
        assert meyer_cocycle(a, b) + meyer_cocycle(a @ b, c) == meyer_cocycle(
            a, b @ c
        ) + meyer_cocycle(b, c)

    @given(sl2z_matrices, sl2z_matrices)
    @settings(max_examples=200, deadline=None)
    def test_integer_and_small(self, a, b):
        v = meyer_cocycle(a, b)
        assert isinstance(v, int)
        assert -2 <= v <= 2

    def test_coboundary_relation_on_seeded_pool(self):
        pool = seeded_pool()
        rnd = random.Random(5)
        for _ in range(500):
            a, b = rnd.choice(pool), rnd.choice(pool)
            assert psi(a @ b) == psi(a) + psi(b) - 3 * meyer_cocycle(a, b)


class TestBlockSignature:
    def test_pants_parabolic(self):
        block = pants(Mat2(1, 1, 0, 1), Mat2(1, 2, 0, 1))
        monos = list(block.monodromies.values())
        assert monos[2] == Mat2(1, -3, 0, 1)
        assert block_signature(block) == 0

    def test_all_identity_boundaries(self):
        assert block_signature(pants(I2, I2)) == 0

    def test_pants_r_l(self):
        block = pants(R, L)
        # cross-check each psi against the folding evaluation
        total = 0
        for m in block.monodromies.values():
            assert psi(m) == psi_by_folding(m)
            total += psi(m)
        assert block_signature(block) == Fraction(total, 3)

    def test_nonzero_block_signature_exists(self):
        block = pants(Mat2(1, 1, 0, 1), Mat2(1, 1, 0, 1))
        assert block_signature(block) == Fraction(1 + 1 - 2, 3)
        block = Block(SurfaceWithBoundary(True, 0, 4), (upper(1), upper(1), upper(1)))
        assert block_signature(block) == 0  # 1+1+1-3
        block = pants(Mat2(2, 1, 1, 1), Mat2(1, 1, 1, 2))
        total = sum(psi(m) for m in block.monodromies.values())
        assert block_signature(block) == Fraction(total, 3)

    def test_each_boundary_classified_once(self, monkeypatch):
        # the signature reads each boundary's class from Block.classes; a
        # cache in psi would make the count depend on what ran before
        getattr(psi, "cache_clear", lambda: None)()
        calls = []
        real = gl2z.classify

        def counting(m):
            calls.append(m)
            return real(m)

        for module in (gl2z, bundles, meyer):
            monkeypatch.setattr(module, "classify", counting)
        paths = sorted((Path(__file__).resolve().parent.parent / "manifests").glob("*.gm"))
        assert paths
        for path in paths:
            gs = load_structure(path.read_text())
            del calls[:]
            report = invariant_report(gs)
            assert report.sigma is not None, path.name
            boundaries = sum(len(block.boundary_labels()) for _, block in gs.blocks)
            assert len(calls) == boundaries, path.name

    def test_non_orientable_base_rejected(self):
        surface = SurfaceWithBoundary(False, 2, 2)
        block = Block(surface, (Mat2(1, 0, 0, -1), Mat2(1, 0, 0, -1), R))
        with pytest.raises(UnsupportedOperationError):
            block_signature(block)


class TestManifoldSignature:
    def test_mirror_double_cancels(self):
        gs = mirror_double(Mat2(1, 3, 0, 1), Mat2(1, -1, 0, 1))
        assert manifold_signature(gs) == 0

    def test_trivial_double(self):
        assert manifold_signature(trivial_double()) == 0

    def test_reduced_corpus_zero(self, reduced_corpus):
        for name, gs in reduced_corpus.items():
            assert manifold_signature(gs) == 0, name

    def test_every_edge_cancels(self, full_corpus):
        # each boundary lies on one edge, so sigma is a third of the sum of
        # the per-edge sums psi(m1) + psi(m2), and a coherent edge cancels
        structures = dict(full_corpus)
        structures.update((name, build()) for name, build in T3_CORPUS.items())
        paths = sorted((Path(__file__).resolve().parent.parent / "manifests").glob("*.gm"))
        structures.update((path.name, load_structure(path.read_text())) for path in paths)
        for name, gs in structures.items():
            assert _edge_psi_sums(gs) == [0] * len(gs.edges), name
            assert manifold_signature(gs) == 0, name

    def test_incoherent_edges_are_flagged(self):
        # two equal pants blocks glued by identities: valid, with sigma 0,
        # but no edge reverses the boundary orientation
        a = pants(upper(1), upper(2))
        edges = [
            Edge(("A", lbl), ("B", lbl), BoundaryIso.identity(TorusBundleOverCircle(m)))
            for lbl, m in a.monodromies.items()
        ]
        gs = structure({"A": a, "B": a}, edges)
        assert validate_structure(gs) == []
        assert manifold_signature(gs) == 0
        assert _edge_psi_sums(gs) == [2, 4, -6]


def _edge_psi_sums(gs):
    return [psi(e.iso.source.phi) + psi(e.iso.target.phi) for e in gs.edges]


class TestSeededInvariantSuites:
    def test_conjugation_invariance_thousand_pairs(self):
        pool = seeded_pool(seed=77, count=300, max_entry=10)
        rnd = random.Random(78)
        for _ in range(1000):
            a, c = rnd.choice(pool), rnd.choice(pool)
            assert psi(c @ a @ c.inverse()) == psi(a)

    def test_parabolic_inverse_pairing_thousand(self):
        rnd = random.Random(79)
        pool = seeded_pool(seed=80, count=200, max_entry=10)
        for _ in range(1000):
            n = rnd.choice([k for k in range(-10, 11) if k])
            c = rnd.choice(pool)
            a = c @ Mat2(1, n, 0, 1) @ c.inverse()
            assert psi(a.inverse()) == -psi(a)


class TestResultChecks:
    """A failed result check raises RuntimeError, also under python -O."""

    def test_kappa_check(self, monkeypatch):
        monkeypatch.setattr(meyer, "abelianization_mod3", lambda m: 1)
        with pytest.raises(RuntimeError, match="abelianization"):
            psi(Mat2(1, 3, 0, 1))

    def test_cocycle_divisibility_check(self, monkeypatch):
        monkeypatch.setattr(meyer, "psi", lambda m: 1)
        with pytest.raises(RuntimeError, match="not divisible by 3"):
            meyer_cocycle(R, L)

    def test_kappa_check_needs_no_generator_word(self, monkeypatch):
        ms = [I2, -I2, Mat2(1, 3, 0, 1), Mat2(-1, 0, 5, -1), S, R @ S, Mat2(2, 1, 1, 1),
              -(R @ L) ** 40]
        folded = [psi_by_folding(m) for m in ms]

        def refuse(*args):
            raise AssertionError("psi called generator_word")

        monkeypatch.setattr(gl2z, "generator_word", refuse)
        monkeypatch.setattr(meyer, "generator_word", refuse)
        assert [psi(m) for m in ms] == folded

    def test_decomposition_check(self, monkeypatch):
        monkeypatch.setattr(meyer, "generator_word", lambda m, pivot: (("S", 1),))
        with pytest.raises(RuntimeError, match="R/S decomposition"):
            psi_by_folding(Mat2(2, 1, 1, 1))
