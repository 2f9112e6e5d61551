import random
import re
from functools import cached_property
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from gm4 import (
    Block,
    BoundaryIso,
    I2,
    L,
    Mat2,
    Pi1Element,
    R,
    S,
    SurfaceWithBoundary,
    TorusBundleOverCircle,
    UnsupportedOperationError,
    compose_isos,
    fiber_covering_exists,
    fiber_matrix,
    fibration_unique,
    is_fiber_preserving,
    iso_inverse,
    orientation_reversing_self_diffeo_exists,
    square_root_closed,
    torus_bundle_homology,
    validate_block,
    validate_glueing,
)
from gm4 import assembly, bundles, load_structure, smith, validate_structure
from gm4.assembly import _fp_iso
from gm4.bundles import PI1_T, PI1_X, PI1_Y

from conftest import bench_gen, mirror_edge_iso, pants, swap_iso, upper
from oracle_glueing import reference_image_data, reference_validate_glueing
import oracle_surface

MANIFESTS = Path(__file__).resolve().parent.parent / "manifests"

AMBIENTS = [
    TorusBundleOverCircle(I2),
    TorusBundleOverCircle(Mat2(1, 1, 0, 1)),
    TorusBundleOverCircle(Mat2(1, -3, 0, 1)),
    TorusBundleOverCircle(Mat2(2, 1, 1, 1)),
    TorusBundleOverCircle(Mat2(0, -1, 1, 0)),
    TorusBundleOverCircle(Mat2(1, 0, 0, -1)),
]

elements = st.builds(
    Pi1Element,
    st.integers(-5, 5),
    st.integers(-5, 5),
    st.integers(-5, 5),
)


class TestSurfaces:
    def test_euler_characteristic(self):
        assert SurfaceWithBoundary(True, 0, 3).euler_characteristic() == -1
        assert SurfaceWithBoundary(True, 1, 1).euler_characteristic() == -1
        assert SurfaceWithBoundary(False, 1, 1).euler_characteristic() == 0
        assert SurfaceWithBoundary(False, 2, 1).euler_characteristic() == -1

    def test_rank(self):
        assert SurfaceWithBoundary(True, 2, 3).pi1_rank() == 6
        assert SurfaceWithBoundary(False, 2, 2).pi1_rank() == 3

    def test_boundary_words_multiply_to_relator(self):
        # the oracle's words: N c1 ... c{b-1} last reduces to the empty word
        for surface in (SurfaceWithBoundary(True, 2, 3), SurfaceWithBoundary(False, 2, 3)):
            words = oracle_surface.boundary_words(surface)
            assert len(words) == 3
            assert words[0] == (("c1", 1),)
            assert _free_reduce(oracle_surface.handle_word(surface) + sum(words, ())) == []


def _free_reduce(word):
    """The freely reduced form of a word of (generator, exponent) pairs."""
    out = []
    for gen, exp in word:
        if out and out[-1][0] == gen:
            exp += out.pop()[1]
        if exp:
            out.append((gen, exp))
    return out


def _random_image(rnd, det=1):
    m = I2
    for _ in range(rnd.randint(1, 5)):
        m = m @ rnd.choice([R, L, S, R.inverse(), L.inverse()])
    return m if det == 1 else m @ Mat2(1, 0, 0, -1)


class TestValidateBlock:
    def test_pants_accepts(self):
        assert validate_block(pants(Mat2(2, 1, 1, 1), S)) == []

    def test_annulus_rejected(self):
        surface = SurfaceWithBoundary(True, 0, 2)
        block = Block(surface, (R,))
        assert any("chi = 0" in v for v in validate_block(block))

    def test_mobius_rejected(self):
        surface = SurfaceWithBoundary(False, 1, 1)
        block = Block(surface, (Mat2(1, 0, 0, -1),))
        assert any("excluded surface" in v for v in validate_block(block))

    def test_disc_rejected(self):
        surface = SurfaceWithBoundary(True, 0, 1)
        block = Block(surface, ())
        assert any("excluded surface" in v for v in validate_block(block))

    def test_orientable_base_needs_det_plus_one(self):
        block = pants(Mat2(1, 0, 0, -1), R)
        assert any("determinant -1" in v for v in validate_block(block))

    def test_non_orientable_determinant_pattern(self):
        surface = SurfaceWithBoundary(False, 1, 2)
        good = Block(surface, (Mat2(1, 0, 0, -1), R))
        assert validate_block(good) == []
        bad = Block(surface, (R, R))
        assert any("orientation" in v for v in validate_block(bad))

    def test_image_count_mismatch(self):
        surface = SurfaceWithBoundary(True, 0, 3)
        block = Block(surface, (R,))
        assert validate_block(block) == ["monodromy image count 1 does not match pi1 rank 2"]

    @pytest.mark.parametrize(
        "surface, images, expected",
        [
            (
                SurfaceWithBoundary(True, 1, 2),
                (Mat2(1, 0, 0, -1), R, Mat2(2, 0, 0, 1)),
                [
                    "image of a1 has determinant -1 over an orientable base: total space would be non-orientable",
                    "image of c1 has determinant 2, not unimodular",
                ],
            ),
            (
                SurfaceWithBoundary(True, 2, 3),
                (R, R, R, Mat2(1, 0, 0, -1), R, Mat2(1, 1, 1, 1)),
                [
                    "image of b2 has determinant -1 over an orientable base: total space would be non-orientable",
                    "image of c2 has determinant 0, not unimodular",
                ],
            ),
            (
                SurfaceWithBoundary(False, 2, 3),
                (R, R, Mat2(1, 0, 0, -1), Mat2(2, 0, 0, 1)),
                [
                    "image of d1 has determinant 1; orientation pattern over a non-orientable base needs -1",
                    "image of d2 has determinant 1; orientation pattern over a non-orientable base needs -1",
                    "image of c1 has determinant -1; orientation pattern over a non-orientable base needs 1",
                    "image of c2 has determinant 2, not unimodular",
                ],
            ),
        ],
    )
    def test_determinant_diagnostics_name_their_generator(self, surface, images, expected):
        assert validate_block(Block(surface, images)) == expected

    def test_valid_ring_builds_no_generator_names(self, monkeypatch):
        gen = bench_gen()
        a, bs = gen._ring_params(48, random.Random(48))
        rnd = random.Random(48)
        gs = load_structure(gen.pants_ring(a, bs, [rnd.random() < 0.5 for _ in bs]).text())
        calls = []
        real = SurfaceWithBoundary.generator_name
        monkeypatch.setattr(SurfaceWithBoundary, "generator_name", lambda *args: calls.append(args) or real(*args))
        assert validate_structure(gs) == []
        assert calls == []


class TestBoundaryMonodromies:
    def test_pants(self):
        m1, m2 = Mat2(2, 1, 1, 1), Mat2(1, -3, 0, 1)
        block = pants(m1, m2)
        monos = list(block.monodromies.values())
        assert monos == [m1, m2, (m1 @ m2).inverse()]

    def test_genus_one_boundary_word(self):
        surface = SurfaceWithBoundary(True, 1, 1)
        block = Block(surface, (R, L))
        (mono,) = block.monodromies.values()
        # last boundary word is ([a,b] c1...)^-1; here ([R,L])^-1
        com = R @ L @ R.inverse() @ L.inverse()
        assert mono == com.inverse() == Mat2(0, 1, -1, 3)

    def test_trivial_images(self):
        block = pants(I2, I2)
        assert all(m == I2 for m in block.monodromies.values())

    def test_relator_product_is_identity(self):
        # [a1,b1]...[ag,bg] c1...c_{b-1} last^-1... evaluated: the boundary
        # words satisfy prod(handles) * c-part * last = 1 in the free group,
        # so the monodromies multiply to I in the same order.
        surface = SurfaceWithBoundary(True, 2, 3)
        images = (R, L, S, Mat2(2, 1, 1, 1), Mat2(1, 4, 0, 1), Mat2(1, 0, -2, 1))
        block = Block(surface, images)
        imgs = oracle_surface.image_map(block)
        handles = I2
        for i in (1, 2):
            a, b = imgs[f"a{i}"], imgs[f"b{i}"]
            handles = handles @ a @ b @ a.inverse() @ b.inverse()
        assert block.handle_product == handles
        monos = list(block.monodromies.values())
        assert handles @ monos[0] @ monos[1] @ monos[2] == I2

    def test_single_lookup_agrees(self):
        surface = SurfaceWithBoundary(True, 1, 4)
        block = Block(surface, (R, L, Mat2(2, 1, 1, 1), upper(3), S), ("p", "q", "r", "s"))
        assert block.monodromies == oracle_surface.monodromies(block)
        assert tuple(block.monodromies) == ("p", "q", "r", "s")
        with pytest.raises(KeyError):
            block.monodromies["t"]

    @pytest.mark.parametrize(
        "orientable, genera, boundaries", [(True, range(4), range(1, 6)), (False, range(1, 4), range(1, 5))]
    )
    def test_positional_layout_matches_the_oracle(self, orientable, genera, boundaries):
        # images are read by position: the handles, then c1, ..., c{b-1};
        # the oracle looks each up by name and evaluates the boundary words
        rnd = random.Random(17)
        for genus in genera:
            for b in boundaries:
                surface = SurfaceWithBoundary(orientable, genus, b)
                names = oracle_surface.generator_names(surface)
                assert tuple(surface.generator_name(i) for i in range(surface.pi1_rank())) == names
                for _ in range(3):
                    dets = [-1 if name[0] == "d" else 1 for name in names]
                    block = Block(surface, tuple(_random_image(rnd, det) for det in dets))
                    imgs = oracle_surface.image_map(block)
                    assert block.handles == tuple(imgs[n] for n in names if n[0] != "c")
                    assert block.cs == tuple(imgs[n] for n in names if n[0] == "c")
                    assert block.handle_product == oracle_surface.handle_product(block)
                    assert block.monodromies == oracle_surface.monodromies(block)
                    assert tuple(block.monodromies) == block.boundary_labels()
                    total = block.handle_product
                    for m in block.monodromies.values():
                        total = total @ m
                    assert total == I2, (orientable, genus, b)

    def test_each_block_monodromies_computed_once(self, monkeypatch):
        # a ring of 48 pants blocks (P_i.2 - P_{i+1}.1 and rungs
        # P_2j.3 - P_2j+1.3, all trading fiber and base), parsed and reported
        from gm4 import invariant_report, structure
        from gm4.assembly import Edge
        from gm4.manifest import dump_structure, load_structure

        a, bs = 2, [1 + j % 5 for j in range(24)]
        blocks, edges = {}, []
        for j, b in enumerate(bs):
            blocks[f"P{2 * j:02d}"] = pants(upper(a), upper(b))
            blocks[f"P{2 * j + 1:02d}"] = pants(upper(-b), upper(-a))
            edges.append(Edge((f"P{2 * j:02d}", "2"), (f"P{2 * j + 1:02d}", "1"), swap_iso(b)))
            edges.append(Edge((f"P{2 * j + 1:02d}", "2"), (f"P{(2 * j + 2) % 48:02d}", "1"), swap_iso(-a)))
            edges.append(Edge((f"P{2 * j:02d}", "3"), (f"P{2 * j + 1:02d}", "3"), swap_iso(-a - b)))
        text = dump_structure(structure(blocks, edges))
        calls = {"monodromies": [], "handle_product": []}
        for name, blocks_seen in calls.items():
            real = Block.__dict__[name].func
            counted = cached_property(lambda block, real=real, seen=blocks_seen: seen.append(block) or real(block))
            counted.__set_name__(Block, name)
            monkeypatch.setattr(Block, name, counted)
        report = invariant_report(load_structure(text))
        assert report.block_count == 48 and not report.findings
        for name, blocks_seen in calls.items():
            assert len(blocks_seen) == len(set(map(id, blocks_seen))) == 48, name


class TestPi1Arithmetic:
    def test_twisted_product(self):
        tb = TorusBundleOverCircle(Mat2(1, 1, 0, 1))
        assert tb.mul(Pi1Element(0, 0, 1), Pi1Element(0, 1, 0)) == Pi1Element(1, 1, 1)

    def test_fiber_commutes(self):
        tb = TorusBundleOverCircle(Mat2(2, 1, 1, 1))
        assert tb.mul(PI1_X, PI1_Y) == tb.mul(PI1_Y, PI1_X) == Pi1Element(1, 1, 0)

    def test_conjugation_relation(self):
        tb = TorusBundleOverCircle(Mat2(1, 1, 0, 1))
        tyt = tb.mul(tb.mul(PI1_T, PI1_Y), tb.inv(PI1_T))
        assert tyt == Pi1Element(1, 1, 0)

    @pytest.mark.parametrize("tb", AMBIENTS, ids=lambda t: str(t.phi))
    @given(e1=elements, e2=elements, e3=elements)
    @settings(max_examples=120, deadline=None)
    def test_group_axioms(self, tb, e1, e2, e3):
        lhs = tb.mul(tb.mul(e1, e2), e3)
        rhs = tb.mul(e1, tb.mul(e2, e3))
        assert lhs == rhs
        ident = Pi1Element(0, 0, 0)
        assert tb.mul(e1, ident) == e1 == tb.mul(ident, e1)
        assert tb.mul(e1, tb.inv(e1)) == ident == tb.mul(tb.inv(e1), e1)

    @pytest.mark.parametrize("tb", AMBIENTS[:3], ids=lambda t: str(t.phi))
    @given(e=elements, n=st.integers(-6, 6))
    @settings(max_examples=60, deadline=None)
    def test_power(self, tb, e, n):
        out = Pi1Element(0, 0, 0)
        for _ in range(abs(n)):
            out = tb.mul(out, e if n > 0 else tb.inv(e))
        assert tb.power(e, n) == out


class TestGlueings:
    def test_identity_accepts(self):
        tb = TorusBundleOverCircle(Mat2(1, 1, 0, 1))
        assert validate_glueing(BoundaryIso.identity(tb)) == []

    def test_three_torus_coordinate_swap_accepts(self):
        tb = TorusBundleOverCircle(I2)
        iso = BoundaryIso(tb, tb, Pi1Element(0, 0, 1), PI1_Y, Pi1Element(1, 0, 0))
        assert validate_glueing(iso) == []
        assert not is_fiber_preserving(iso)

    def test_fiber_swap_rejected(self):
        tb = TorusBundleOverCircle(Mat2(1, 1, 0, 1))
        iso = BoundaryIso(tb, tb, PI1_Y, PI1_X, PI1_T)
        assert any("relation" in v for v in validate_glueing(iso))

    def test_non_surjective_rejected(self):
        tb = TorusBundleOverCircle(I2)
        iso = BoundaryIso(tb, tb, Pi1Element(2, 0, 0), PI1_Y, PI1_T)
        assert any("bijective" in v or "surjective" in v for v in validate_glueing(iso))
        iso = BoundaryIso(tb, tb, PI1_X, PI1_Y, Pi1Element(0, 0, 2))
        assert any("surjective" in v for v in validate_glueing(iso))

    def test_fiber_preserving_examples(self):
        tb = TorusBundleOverCircle(Mat2(1, 1, 0, 1))
        iso = BoundaryIso(tb, tb, PI1_X, PI1_Y, Pi1Element(1, 0, 1))
        assert validate_glueing(iso) == []
        assert is_fiber_preserving(iso)
        tb3 = TorusBundleOverCircle(I2)
        iso = BoundaryIso(tb3, tb3, Pi1Element(0, 0, 1), PI1_Y, Pi1Element(1, 0, 0))
        assert not is_fiber_preserving(iso)
        iso = BoundaryIso(
            tb, tb, Pi1Element(-1, 0, 0), Pi1Element(0, 0, 1), Pi1Element(0, 1, 0)
        )
        assert validate_glueing(iso) == []
        assert not is_fiber_preserving(iso)

    def test_fp_compatibility_property(self):
        # fiber-preserving iso implies C phi1^eps = phi2^... on fiber matrices
        for phi, fiber in ((upper(3), I2), (upper(2), Mat2(1, 1, 0, 1))):
            iso = mirror_edge_iso(phi, fiber)
            assert validate_glueing(iso) == []
            c = fiber_matrix(iso)
            eps = iso.t_img.k
            assert c @ (phi ** eps) == iso.target.phi @ c

    def test_inverse_roundtrip(self):
        examples = [
            swap_iso(3),
            mirror_edge_iso(upper(2)),
            mirror_edge_iso(Mat2(2, 1, 1, 1), Mat2(1, 1, 0, 1)),
        ]
        tb3 = TorusBundleOverCircle(I2)
        examples.append(
            BoundaryIso(tb3, tb3, Pi1Element(0, 0, 1), PI1_Y, Pi1Element(1, 0, 0))
        )
        for iso in examples:
            assert validate_glueing(iso) == []
            inv = iso_inverse(iso)
            assert validate_glueing(inv) == []
            for e in (PI1_X, PI1_Y, PI1_T, Pi1Element(2, -3, 4)):
                assert inv.apply(iso.apply(e)) == e

    def test_compose(self):
        f = swap_iso(2)
        g = iso_inverse(f)
        ident = compose_isos(g, f)
        for e in (PI1_X, PI1_Y, PI1_T):
            assert ident.apply(e) == e


class TestResultChecksRaise:
    """Result checks are exceptions, not asserts, so they hold under python -O."""

    @pytest.mark.parametrize("i", range(3))
    def test_iso_inverse_witness_checks(self, monkeypatch, i):
        # x and y: the i-th solution of smith.solve_integer moves by one along
        # a nonzero fiber vector; t: delta = t f(w0)^-1, read through the
        # target's inv, is off by x
        iso = swap_iso(3)
        if i < 2:
            real, calls = smith.solve_integer, []

            def broken(mat, rhs):
                c = real(mat, rhs)
                if len(calls) == i:
                    c[next(j for j, col in enumerate(zip(*mat)) if any(col))] += 1
                calls.append(rhs)
                return c

            monkeypatch.setattr(smith, "solve_integer", broken)
        else:
            real = TorusBundleOverCircle.inv

            def broken(bundle, e):
                return bundle.mul(real(bundle, e), PI1_X) if bundle is iso.target else real(bundle, e)

            monkeypatch.setattr(TorusBundleOverCircle, "inv", broken)
        gen = (PI1_X, PI1_Y, PI1_T)[i]
        with pytest.raises(RuntimeError, match=re.escape(f"preimage of {gen} maps to")):
            iso_inverse(iso)

    def test_winding_check(self, monkeypatch):
        monkeypatch.setattr(bundles, "_ext_gcd", lambda p, q: (1, 0, 0))
        with pytest.raises(RuntimeError, match="not to winding 1"):
            validate_glueing(swap_iso(3))

    def test_fiber_covering_witness_check(self, monkeypatch):
        monkeypatch.setattr(bundles, "conjugate_in", lambda m1, m2, ambient: (True, I2))
        with pytest.raises(RuntimeError, match="does not intertwine"):
            fiber_covering_exists(R, L)


# Random glueings, built from draws pick(lo, hi) of integers in [lo, hi], such
# as Hypothesis' data.draw of st.integers or random.Random.randint.


def _unimodular(pick) -> Mat2:
    """A GL(2,Z) element: a signed product of elementary matrices."""
    m = I2 if pick(0, 1) else Mat2(0, 1, 1, 0)
    for _ in range(pick(0, 4)):
        n = pick(-3, 3)
        m = m @ (Mat2(1, n, 0, 1) if pick(0, 1) else Mat2(1, 0, n, 1))
    return -m if pick(0, 1) else m


def _fp(pick, phi: Mat2, onto: bool = False) -> BoundaryIso:
    """Fiber-preserving iso (A, u, eps) from M_phi to a random bundle, or
    from a random bundle onto M_phi."""
    a, eps = _unimodular(pick), 1 - 2 * pick(0, 1)
    src = (a.inverse() @ phi @ a) ** eps if onto else phi
    return BoundaryIso(
        TorusBundleOverCircle(src),
        TorusBundleOverCircle(a @ src ** eps @ a.inverse()),
        Pi1Element(a.a, a.c, 0),
        Pi1Element(a.b, a.d, 0),
        Pi1Element(pick(-3, 3), pick(-3, 3), eps),
    )


def _inner(pick, tb: TorusBundleOverCircle) -> BoundaryIso:
    g = Pi1Element(pick(-3, 3), pick(-3, 3), pick(-2, 2))
    return BoundaryIso(tb, tb, *(tb.conjugate(g, e) for e in (PI1_X, PI1_Y, PI1_T)))


def _gl3(pick) -> BoundaryIso:
    """A GL(3,Z) automorphism of pi1(T^3) = Z^3, by column operations."""
    cols = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    for _ in range(pick(1, 6)):
        i, j, n = pick(0, 2), pick(0, 2), pick(-3, 3)
        if i == j:
            cols[i] = [-c for c in cols[i]]
        else:
            cols[i] = [c + n * d for c, d in zip(cols[i], cols[j])]
    tb = TorusBundleOverCircle(I2)
    return BoundaryIso(tb, tb, *(Pi1Element(*c) for c in cols))


def _chain(*isos: BoundaryIso) -> BoundaryIso:
    out = isos[0]
    for iso in isos[1:]:
        out = compose_isos(iso, out)
    return out


def _random_monodromy(pick) -> Mat2:
    """Parabolic, hyperbolic, elliptic, +-I or determinant -1, conjugated."""
    a = _unimodular(pick)
    kinds = [
        I2, upper(pick(-4, 4)), Mat2(2, 1, 1, 1), S, -I2, Mat2(1, 0, 0, -1),
        R @ S, Mat2(1, 1, 1, 0), Mat2(0, 1, 1, 0),
    ]
    return a @ kinds[pick(0, len(kinds) - 1)] @ a.inverse()


def random_bijective_glueing(pick) -> BoundaryIso:
    """Fiber-preserving isos, TRADE isos (x -> x, y -> t, t -> y from R^n to
    R^-n), inner automorphisms and GL(3,Z) automorphisms of Z^3, composed."""
    kind = pick(0, 2)
    if kind == 0:
        n = pick(-4, 4)
        trade = swap_iso(n)
        return _chain(
            _fp(pick, upper(n), onto=True), trade, _inner(pick, trade.target), _fp(pick, upper(-n))
        )
    if kind == 1:
        first = _fp(pick, _random_monodromy(pick), onto=True)
        return _chain(first, _inner(pick, first.target), _fp(pick, first.target.phi))
    return _chain(_fp(pick, I2, onto=True), _gl3(pick), _fp(pick, I2))


def random_index_glueing(pick, d: int) -> BoundaryIso:
    """x -> x^d from R^n to R^dn, between random bijections."""
    n = pick(-3, 3)
    src, tgt = TorusBundleOverCircle(upper(n)), TorusBundleOverCircle(upper(d * n))
    index = BoundaryIso(src, tgt, Pi1Element(d, 0, 0), PI1_Y, PI1_T)
    return _chain(_fp(pick, upper(n), onto=True), index, _inner(pick, tgt), _fp(pick, upper(d * n)))


def random_winding_glueing(pick, d: int) -> BoundaryIso:
    """t -> t^d from M_{phi^d} to M_phi, between random bijections; those of
    the target are fiber-preserving or inner, which keep the winding numbers
    up to sign."""
    phi = _random_monodromy(pick)
    src, tgt = TorusBundleOverCircle(phi ** d), TorusBundleOverCircle(phi)
    wind = BoundaryIso(src, tgt, PI1_X, PI1_Y, Pi1Element(0, 0, d))
    before = [_fp(pick, src.phi, onto=True), _inner(pick, src)]
    if src.phi == I2:
        before.append(_gl3(pick))
    return _chain(*before, wind, _inner(pick, tgt), _fp(pick, phi))


def _drawer(data):
    return lambda lo, hi: data.draw(st.integers(lo, hi))


class TestRandomGlueings:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_bijective_glueings_validate_and_invert(self, data):
        pick = _drawer(data)
        iso = random_bijective_glueing(pick)
        assert validate_glueing(iso) == []
        inv = iso_inverse(iso)
        assert validate_glueing(inv) == []
        for _ in range(3):
            e = data.draw(elements)
            assert inv.apply(iso.apply(e)) == e
            assert iso.apply(inv.apply(e)) == e

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_every_integer_solution_gives_the_same_inverse(self, data):
        # the preimages are products over the kernel of winding o iso, which
        # the iso maps injectively into the fiber: a kernel vector of the
        # 2 x 6 system added to a solution changes no preimage
        iso = random_bijective_glueing(_drawer(data))
        expected = iso_inverse(iso)
        real = smith.solve_integer

        def shifted(mat, rhs):
            c = real(mat, rhs)
            for v in smith.kernel_basis(mat):
                n = data.draw(st.integers(-3, 3))
                c = [a + n * b for a, b in zip(c, v)]
            return c

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(smith, "solve_integer", shifted)
            assert iso_inverse(iso) == expected

    @settings(max_examples=100, deadline=None)
    @given(st.data(), st.integers(2, 5))
    def test_index_d_is_a_proper_sublattice(self, data, d):
        iso = random_index_glueing(_drawer(data), d)
        proper = "not bijective: fiber image lattice is a proper sublattice"
        assert validate_glueing(iso) == [proper]
        with pytest.raises(ValueError):
            iso_inverse(iso)

    @settings(max_examples=100, deadline=None)
    @given(st.data(), st.integers(2, 5))
    def test_winding_gcd_d_is_not_surjective(self, data, d):
        iso = random_winding_glueing(_drawer(data), d)
        assert validate_glueing(iso) == [f"not surjective: base winding numbers have gcd {d}"]
        with pytest.raises(ValueError):
            iso_inverse(iso)


    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_relation_breaking_isos_are_rejected(self, data):
        pick = _drawer(data)
        src, tgt = (TorusBundleOverCircle(_random_monodromy(pick)) for _ in range(2))
        imgs = (Pi1Element(pick(-2, 2), pick(-2, 2), pick(-2, 2)) for _ in range(3))
        iso = BoundaryIso(src, tgt, *imgs)
        broken = validate_glueing(iso)
        assume(broken and all(d.startswith("relation ") for d in broken))
        with pytest.raises(ValueError, match=re.escape("; ".join(broken))):
            iso_inverse(iso)

    def test_winding_mismatch_fails_before_any_power(self, monkeypatch):
        # y -> x and t^phi12 with phi12 = 10^6 in a hyperbolic target: the
        # winding parts of t y t^-1 (0) and x^phi12 y^phi22 (10^6) differ,
        # so no power t^(10^6), and no psi^(10^6), is formed
        exponents = []
        real_power, real_pow = bundles._power, Mat2.__pow__

        def recording_power(phi, e, n):
            exponents.append(n)
            return real_power(phi, e, n)

        def recording_pow(m, k):
            exponents.append(k)
            return real_pow(m, k)

        monkeypatch.setattr(bundles, "_power", recording_power)
        monkeypatch.setattr(Mat2, "__pow__", recording_pow)
        src = TorusBundleOverCircle(upper(10 ** 6))
        tgt = TorusBundleOverCircle(Mat2(2, 1, 1, 1))
        iso = BoundaryIso(src, tgt, PI1_T, PI1_X, PI1_Y)
        assert validate_glueing(iso) == [
            "relation [x,y] = 1 fails on images",
            "relation t x t^-1 = x^phi11 y^phi21 fails on images",
            "relation t y t^-1 = x^phi12 y^phi22 fails on images",
        ]
        assert max(map(abs, exponents), default=0) <= 1

    def test_identity_images_between_different_bundles(self):
        src, tgt = TorusBundleOverCircle(Mat2(2, 1, 1, 1)), TorusBundleOverCircle(I2)
        with pytest.raises(ValueError, match="not a homomorphism"):
            iso_inverse(BoundaryIso(src, tgt, PI1_X, PI1_Y, PI1_T))


# The closed-form validation against the element arithmetic of
# oracle_glueing.py: identical diagnostics, and identical preimages from
# iso_inverse wherever the glueing is valid.

def random_glueing(pick) -> BoundaryIso:
    """Valid-biased: a fiber-preserving (A, u, eps) iso of `_fp_iso` over any
    monodromy kind followed by an inner automorphism, or one of the random
    bijective, index-d and winding-d glueings above; then, in half of the
    draws, one image moved by a random element or the target replaced."""
    kind = pick(0, 3)
    if kind == 0:
        phi, a, eps = _random_monodromy(pick), _unimodular(pick), 1 - 2 * pick(0, 1)
        src, dst = TorusBundleOverCircle(phi), TorusBundleOverCircle(a @ phi ** eps @ a.inverse())
        fp = _fp_iso(src, dst, a, Pi1Element(pick(-3, 3), pick(-3, 3), eps))
        iso = _chain(fp, _inner(pick, dst))
    elif kind == 1:
        iso = random_bijective_glueing(pick)
    elif kind == 2:
        iso = random_index_glueing(pick, pick(2, 4))
    else:
        iso = random_winding_glueing(pick, pick(2, 3))
    damage = pick(0, 7)
    imgs = [iso.x_img, iso.y_img, iso.t_img]
    if damage < 3:
        shift = Pi1Element(pick(-2, 2), pick(-2, 2), pick(-1, 1))
        imgs[damage] = iso.target.mul(imgs[damage], shift)
    target = TorusBundleOverCircle(_random_monodromy(pick)) if damage == 3 else iso.target
    return BoundaryIso(iso.source, target, *imgs)


class TestClosedFormValidation:
    def _agrees(self, iso, draw=None):
        found = validate_glueing(iso)
        assert found == reference_validate_glueing(iso)
        if found:
            return found
        inv = iso_inverse(iso)
        assert (inv.x_img, inv.y_img, inv.t_img) == reference_image_data(iso)[1]
        for e in (PI1_X, PI1_Y, PI1_T) + ((draw(elements),) if draw else ()):
            assert inv.apply(iso.apply(e)) == e
            assert iso.apply(inv.apply(e)) == e
        return found

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_random_glueings_match_element_arithmetic(self, data):
        self._agrees(random_glueing(_drawer(data)), data.draw)

    def test_recorded_glueings_match_element_arithmetic(self):
        gen = bench_gen()
        texts = [p.read_text() for p in sorted(MANIFESTS.glob("*.gm"))]
        for seed in (1, 2, 3):
            texts += [it.text for it in gen.ring_items(seed, 1)]
            texts += [t for it in gen.match_items(seed, 1) for t in (it.text1, it.text2)]
        isos = {}
        for text in texts:
            try:
                gs = load_structure(text)
            except ValueError:  # the ring workload's invalid files
                continue
            isos.update(dict.fromkeys(edge.iso for edge in gs.edges))
        verdicts = [self._agrees(iso) for iso in isos]
        assert [] in verdicts and any(verdicts)

    def test_psi_images_complete_the_fiber_lattice(self):
        # a glueing of parabolic bundles whose three fiber vectors g_i w^-k_i
        # span a line; with their psi-images they span Z^2
        src = TorusBundleOverCircle(Mat2(2, -1, 1, 0))
        tgt = TorusBundleOverCircle(Mat2(3, 1, -4, -1))
        iso = BoundaryIso(src, tgt, Pi1Element(-2, 2, 1), Pi1Element(-1, 4, -1), Pi1Element(1, 1, -1))
        _, _, w0 = bundles._winding_element(iso)
        (a, b), (c, d), (e, f) = bundles._fiber_vectors(iso, w0)[:3]
        assert a * d - b * c == a * f - b * e == c * f - d * e == 0
        assert self._agrees(iso) == []

    def test_validating_a_ring_takes_no_element_powers(self, monkeypatch):
        gen = bench_gen()
        a, bs = gen._ring_params(384, random.Random(384))
        rnd = random.Random(0)
        st = gen.pants_ring(a, bs, [rnd.random() < 0.5 for _ in bs])
        gs = load_structure(st.text())
        calls = {"power": 0, "validate_glueing": 0}
        real_power, real_validate = TorusBundleOverCircle.power, assembly.validate_glueing

        def power(group, e, n):
            calls["power"] += 1
            return real_power(group, e, n)

        def validate(iso):
            calls["validate_glueing"] += 1
            return real_validate(iso)

        monkeypatch.setattr(TorusBundleOverCircle, "power", power)
        monkeypatch.setattr(assembly, "validate_glueing", validate)
        assert validate_structure(gs) == []
        # one check per distinct glueing, not one per edge (576 edges)
        assert len(gs.edges) == 576 and len({e.iso for e in gs.edges}) == 21
        assert calls == {"power": 0, "validate_glueing": 21}


class TestFiberCovering:
    def test_equal_monodromies(self):
        ok, alpha = fiber_covering_exists(Mat2(1, 1, 0, 1), Mat2(1, 1, 0, 1))
        assert ok and alpha == I2

    def test_index_two_covering(self):
        ok, alpha = fiber_covering_exists(Mat2(1, 1, 0, 1), Mat2(1, 2, 0, 1))
        assert ok and alpha == Mat2(2, 0, 0, 1)
        assert alpha @ Mat2(1, 1, 0, 1) == Mat2(1, 2, 0, 1) @ alpha

    def test_parabolic_to_hyperbolic_impossible(self):
        ok, alpha = fiber_covering_exists(Mat2(1, 1, 0, 1), Mat2(2, 1, 1, 1))
        assert not ok and alpha is None

    @given(
        st.sampled_from([I2, upper(1), upper(-2), Mat2(2, 1, 1, 1), S])
    )
    @settings(max_examples=20, deadline=None)
    def test_reflexive(self, phi):
        ok, alpha = fiber_covering_exists(phi, phi)
        assert ok and alpha.det() != 0


class TestFibrationUniqueness:
    def test_spec_examples(self):
        assert not fibration_unique(TorusBundleOverCircle(Mat2(1, 3, 0, 1)))
        assert fibration_unique(TorusBundleOverCircle(Mat2(2, 1, 1, 1)))
        assert fibration_unique(TorusBundleOverCircle(Mat2(0, -1, 1, 0)))
        assert not fibration_unique(TorusBundleOverCircle(I2))


class TestTorusBundleHomology:
    def test_three_torus(self):
        assert torus_bundle_homology(TorusBundleOverCircle(I2)) == (3, [])

    def test_nil_with_torsion(self):
        assert torus_bundle_homology(TorusBundleOverCircle(Mat2(1, 2, 0, 1))) == (2, [2])

    def test_sol(self):
        assert torus_bundle_homology(TorusBundleOverCircle(Mat2(2, 1, 1, 1))) == (1, [])


class TestSquareRootClosed:
    def test_mobius_false(self):
        assert not square_root_closed(SurfaceWithBoundary(False, 1, 1), 0)

    def test_pants_true(self):
        assert square_root_closed(SurfaceWithBoundary(True, 0, 3), 2)

    def test_disc_true(self):
        assert square_root_closed(SurfaceWithBoundary(True, 0, 1), 0)

    def test_index_checked(self):
        with pytest.raises(IndexError):
            square_root_closed(SurfaceWithBoundary(True, 0, 3), 3)


class TestOrientationReversing:
    def test_spec_examples(self):
        assert orientation_reversing_self_diffeo_exists(I2)
        assert orientation_reversing_self_diffeo_exists(-I2)
        assert orientation_reversing_self_diffeo_exists(Mat2(1, 0, 0, -1))
        assert not orientation_reversing_self_diffeo_exists(Mat2(1, 2, 0, 1))
        assert not orientation_reversing_self_diffeo_exists(Mat2(1, 0, 3, 1))

    def test_non_triangular_out_of_scope(self):
        with pytest.raises(UnsupportedOperationError):
            orientation_reversing_self_diffeo_exists(Mat2(2, 1, 1, 1))


class TestFibrationEigenvectorEquivalence:
    @given(st.lists(st.sampled_from([R, L, S, R.inverse(), L.inverse()]), max_size=8))
    @settings(max_examples=120, deadline=None)
    def test_unique_iff_no_eigenvalue_one_vector(self, word):
        from gm4 import eigenvector_eigenvalue_one

        m = I2
        for g in word:
            m = m @ g
        tb = TorusBundleOverCircle(m)
        assert fibration_unique(tb) == (eigenvector_eigenvalue_one(m) is None)
