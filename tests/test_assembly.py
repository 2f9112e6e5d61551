import hashlib
import random
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from gm4 import (
    Block,
    BoundaryIso,
    ClosedBaseError,
    Edge,
    I2,
    L,
    Mat2,
    NotReducedError,
    Pi1Element,
    R,
    S,
    StructureError,
    SurfaceWithBoundary,
    TorusBundleOverCircle,
    compose_isos,
    dump_structure,
    euler_characteristic,
    fiber_matrix,
    first_homology,
    invariant_report,
    is_reduced,
    iso_inverse,
    isomorphic_reduced,
    load_structure,
    manifold_signature,
    reduce_structure,
    structure,
    validate_structure,
)

from conftest import (
    REDUCED_CORPUS,
    bench_gen,
    holed_sphere,
    mirror_double,
    mirror_edge_iso,
    pants,
    partial_reducible,
    relabel,
    swap_double,
    swap_iso,
    trivial_double,
    twisted_double,
    upper,
)
from oracle_compare import reference_isomorphic_reduced


def identity_iso(phi):
    tb = TorusBundleOverCircle(phi)
    return BoundaryIso.identity(tb)


def reglue_block(gs, label, new_block, transports):
    """gs with block label replaced by its re-presentation new_block."""
    from gm4.assembly import _reglue

    blocks, edges = gs.block_map(), list(gs.edges)
    at = {end: i for i, e in enumerate(edges) for end in (e.end1, e.end2)}
    mapping = {(label, bd): (bd, a, eps) for bd, (a, eps) in transports.items()}
    _reglue(blocks, edges, at, ({label}, label, new_block, mapping))
    return structure(blocks, edges)


def mirror_pair(a):
    """Block a as A, glued to its mirror as B by the mirror's transports."""
    from gm4.assembly import _mirror, _transport

    b_block, transports = _mirror(a)
    edges = []
    for lbl, m in a.monodromies.items():
        u, eps = transports[lbl]
        edges.append(Edge(("A", lbl), ("B", lbl), _transport(m, u, eps)[0]))
    return structure({"A": a, "B": b_block}, edges)


def identity_double(m1, m2):
    """Two equal pants blocks glued by identity isomorphisms (valid but
    orientation-incoherent; fiber-preserving on every edge)."""
    a, b = pants(m1, m2), pants(m1, m2)
    m3 = (m1 @ m2).inverse()
    edges = (
        Edge(("A", "1"), ("B", "1"), identity_iso(m1)),
        Edge(("A", "2"), ("B", "2"), identity_iso(m2)),
        Edge(("A", "3"), ("B", "3"), identity_iso(m3)),
    )
    return structure({"A": a, "B": b}, edges)


class TestValidateStructure:
    def test_identity_double_accepts(self):
        assert validate_structure(identity_double(upper(1), upper(2))) == []

    def test_corpus_valid(self, full_corpus):
        for name, gs in full_corpus.items():
            assert validate_structure(gs) == [], name

    def test_open_boundary_rejected(self):
        a, b = pants(I2, I2), pants(I2, I2)
        edges = (
            Edge(("A", "1"), ("B", "1"), identity_iso(I2)),
            Edge(("A", "2"), ("B", "2"), identity_iso(I2)),
        )
        gs = structure({"A": a, "B": b}, edges)
        diags = validate_structure(gs)
        assert any("open boundary" in d for d in diags)

    def test_glueing_mismatch_rejected(self):
        a, b = pants(upper(1), upper(2)), pants(upper(1), upper(2))
        edges = (
            Edge(("A", "1"), ("B", "1"), identity_iso(upper(5))),  # wrong monodromy
            Edge(("A", "2"), ("B", "2"), identity_iso(upper(2))),
            Edge(("A", "3"), ("B", "3"), identity_iso(upper(-3))),
        )
        gs = structure({"A": a, "B": b}, edges)
        assert any("glueing mismatch" in d for d in validate_structure(gs))

    def test_double_glued_boundary_rejected(self):
        a, b = pants(I2, I2), pants(I2, I2)
        edges = (
            Edge(("A", "1"), ("B", "1"), identity_iso(I2)),
            Edge(("A", "1"), ("B", "2"), identity_iso(I2)),
            Edge(("A", "2"), ("B", "3"), identity_iso(I2)),
            Edge(("A", "3"), ("B", "3"), identity_iso(I2)),
        )
        gs = structure({"A": a, "B": b}, edges)
        assert any("already glued" in d for d in validate_structure(gs))

    def test_disconnected_rejected(self):
        gs1 = swap_double(1, 2)
        blocks = dict(gs1.blocks)
        blocks.update({f"{l}2": b for l, b in swap_double(1, 2).blocks})
        edges = list(gs1.edges) + [
            Edge((f"{e.end1[0]}2", e.end1[1]), (f"{e.end2[0]}2", e.end2[1]), e.iso)
            for e in gs1.edges
        ]
        gs = structure(blocks, edges)
        assert validate_structure(gs) == [
            "underlying graph not connected: unreachable blocks ['A2', 'B2']"
        ]


class TestIsReduced:
    def test_identity_double_all_edges_offend(self):
        gs = identity_double(upper(1), upper(2))
        reduced, offending = is_reduced(gs)
        assert not reduced and offending == [0, 1, 2]

    def test_swap_glueings_reduced(self):
        reduced, offending = is_reduced(swap_double(1, 2))
        assert reduced and offending == []

    def test_mixed_edges_listed_exactly(self):
        gs = partial_reducible(1, 2)
        reduced, offending = is_reduced(gs)
        assert not reduced
        assert offending == [0]  # exactly the fiber-preserving edge


class TestEulerCharacteristic:
    def test_zero_on_corpus(self, full_corpus):
        for name, gs in full_corpus.items():
            assert euler_characteristic(gs) == 0, name


class TestReduce:
    def test_two_pants_merge_to_four_holed_sphere(self):
        gs = partial_reducible(1, 2)
        red = reduce_structure(gs)
        assert len(red.blocks) == 1
        (_, block), = red.blocks
        surface = block.surface
        assert surface.orientable and surface.genus == 0 and surface.boundary_count == 4
        assert surface.euler_characteristic() == -2
        assert validate_structure(red) == []
        assert is_reduced(red)[0]

    def test_already_reduced_unchanged(self, reduced_corpus):
        for name, gs in reduced_corpus.items():
            assert reduce_structure(gs) == gs, name

    def test_idempotent_on_corpus(self, full_corpus):
        for name, gs in full_corpus.items():
            try:
                red = reduce_structure(gs)
            except ClosedBaseError:
                continue
            assert reduce_structure(red) == red, name

    def test_preserves_invariants(self, full_corpus):
        for name, gs in full_corpus.items():
            try:
                red = reduce_structure(gs)
            except ClosedBaseError:
                continue
            assert manifold_signature(red) == manifold_signature(gs), name
            assert euler_characteristic(red) == euler_characteristic(gs) == 0, name
            assert first_homology(red) == first_homology(gs), name

    def test_closed_base_reported(self):
        with pytest.raises(ClosedBaseError):
            reduce_structure(trivial_double())
        with pytest.raises(ClosedBaseError):
            reduce_structure(identity_double(upper(1), upper(2)))

    def test_self_merge(self):
        a = holed_sphere([upper(2), upper(-2), upper(3)])
        edges = (
            Edge(("A", "1"), ("A", "2"), mirror_edge_iso(upper(2))),
            Edge(("A", "3"), ("A", "4"), swap_iso(3)),
        )
        gs = structure({"A": a}, edges)
        assert validate_structure(gs) == []
        before = (manifold_signature(gs), first_homology(gs))
        red = reduce_structure(gs)
        (_, block), = red.blocks
        assert block.surface.genus == 1
        assert block.surface.boundary_count == 2
        assert is_reduced(red)[0]
        assert (manifold_signature(red), first_homology(red)) == before
        # the merge drops the graph's cycle rank E - V + 1 from 2 to 1 and
        # adds a handle to the base: the free summand of the lost stable
        # letter moves to the handle's generator, so H1 stays
        assert [len(g.edges) - len(g.blocks) + 1 for g in (gs, red)] == [2, 1]
        assert first_homology(red) == (3, [2])

    def test_merge_with_twisted_fiber(self):
        # fiber-preserving edge whose fiber matrix is a nontrivial shear
        n1, n2 = 1, 2
        c = Mat2(1, 1, 0, 1)
        a = pants(upper(n1), upper(n2))
        b = pants(upper(-n1), upper(-n2))
        edges = (
            Edge(("A", "3"), ("B", "3"), mirror_edge_iso(upper(-n1 - n2), c)),
            Edge(("A", "1"), ("B", "1"), swap_iso(n1)),
            Edge(("A", "2"), ("B", "2"), swap_iso(n2)),
        )
        gs = structure({"A": a, "B": b}, edges)
        assert validate_structure(gs) == []
        before = (manifold_signature(gs), first_homology(gs))
        red = reduce_structure(gs)
        assert validate_structure(red) == []
        assert (manifold_signature(red), first_homology(red)) == before

    @staticmethod
    def _far_merge():
        # the contracted edge sits at boundary 51 of 52, so the merge
        # rotates A by 51 positions and B by 50
        a = holed_sphere([upper(1)] * 51)
        b = holed_sphere([upper(-1)] * 51)
        edges = [Edge(("A", str(i)), ("B", str(i)), swap_iso(1)) for i in range(1, 51)]
        edges.append(Edge(("A", "51"), ("B", "51"), mirror_edge_iso(upper(1))))
        edges.append(Edge(("A", "52"), ("B", "52"), swap_iso(-51)))
        return structure({"A": a, "B": b}, edges)

    def test_merge_far_from_last_position(self):
        red = reduce_structure(self._far_merge())
        assert len(red.blocks) == 1
        assert len(red.edges) == 51
        assert validate_structure(red) == []

    def test_one_boundary_end2_block(self):
        # a pants block A with A.1 - A.2 traded, glued at A.3 by a
        # fiber-preserving edge to a genus-1 block B with one boundary:
        # both orders of the glued ends must reduce, to equal reports
        a = pants(upper(1), upper(-1))
        b = Block(SurfaceWithBoundary(True, 1, 1), (upper(1), upper(1)))
        trade = swap_iso(1)
        reports = []
        for ends in ((("A", "3"), ("B", "1")), (("B", "1"), ("A", "3"))):
            keep = Edge(*ends, mirror_edge_iso(I2))
            gs = structure({"A": a, "B": b}, (Edge(("A", "1"), ("A", "2"), trade), keep))
            assert validate_structure(gs) == []
            red = reduce_structure(gs)
            assert validate_structure(red) == [] and is_reduced(red)[0]
            (_, block), = red.blocks
            assert (block.surface.genus, block.surface.boundary_count) == (1, 2)
            assert first_homology(red) == first_homology(gs)
            reports.append(invariant_report(red))
        assert reports[0] == reports[1]

    def test_one_reglue_per_merge(self, monkeypatch):
        # the rotations of both blocks and the merge rewrite the edges once
        import gm4.assembly as assembly

        calls = []
        real = assembly._reglue

        def counting(blocks, edges, at, merge):
            calls.append(merge[1])
            return real(blocks, edges, at, merge)

        monkeypatch.setattr(assembly, "_reglue", counting)
        reduce_structure(self._far_merge())
        assert calls == ["A+B"]

    def test_no_iso_inverse(self, monkeypatch, full_corpus):
        # transports invert in closed form, (A, eps) -> (A^-1, eps)
        import gm4.assembly as assembly
        import gm4.bundles as bundles

        def refuse(iso):
            raise RuntimeError("reduce_structure inverted an iso")

        monkeypatch.setattr(assembly, "iso_inverse", refuse)
        monkeypatch.setattr(bundles, "iso_inverse", refuse)
        for gs in [*full_corpus.values(), self._far_merge()]:
            try:
                reduce_structure(gs)
            except ClosedBaseError:
                continue

    def test_merged_label_clash(self):
        # the merge of P00 and P01 is named P00+P01, which the input already
        # uses: the merged block takes P00+P01' and the input block stays
        gen = bench_gen()
        ring = gen.pants_ring(2, [-3, -3], [True, False])
        names = {"P00": "P00", "P01": "P01", "P02": "P00+P01", "P03": "P03"}
        gs = load_structure(gen.rename(ring, names).text())
        assert validate_structure(gs) == []
        red = reduce_structure(gs)
        assert [lbl for lbl, _ in red.blocks] == ["P00+P01", "P00+P01'", "P03"]
        assert red.block("P00+P01") == gs.block("P00+P01")
        assert validate_structure(red) == [] and is_reduced(red)[0]
        text = dump_structure(red)
        assert dump_structure(load_structure(text)) == text
        assert manifold_signature(red) == manifold_signature(gs) == 0
        assert first_homology(red) == first_homology(gs) == (3, [4])


def _pants_ring(n, kind):
    """The pants ring of n blocks with _ring_params(n, Random(n)); its rungs
    preserve the fiber by a fresh Random(n) ("baseline") or all of them
    ("preserving")."""
    gen = bench_gen()
    a, bs = gen._ring_params(n, random.Random(n))
    rnd = random.Random(n)
    preserving = [rnd.random() < 0.5 if kind == "baseline" else True for _ in bs]
    return load_structure(gen.pants_ring(a, bs, preserving).text())


class TestReduceAtScale:
    @pytest.mark.parametrize("kind", ["baseline", "preserving"])
    @pytest.mark.parametrize("n", [96, 768])
    def test_merge_rewrites_only_the_edges_it_moves(self, monkeypatch, kind, n):
        # a pants merge moves the four other ends of its two blocks
        import gm4.assembly as assembly

        gs = _pants_ring(n, kind)
        merges = len(is_reduced(gs)[1])
        built = []
        real = assembly.Edge

        def counting(*args):
            built.append(args)
            return real(*args)

        monkeypatch.setattr(assembly, "Edge", counting)
        reduce_structure(gs)
        assert merges > 0 and len(built) <= 4 * merges

    # sha256 of dump_structure(reduce_structure(ring)), recorded when each
    # merge still rebuilt the whole structure
    DIGESTS = {
        ("baseline", 96): "bff1f11e1eaed452c5152be1c2e005cff33bad81a1b859d1c28529be50f7ac66",
        ("baseline", 384): "7625453c8ad4264b51fe42474ff8207765531a8a27c25a05a92ef9e023bcd827",
        ("baseline", 1536): "c1241c3319f1d88710c306f27e0784dfd17cca2645157bfa30e8b6e28f7caa7c",
        ("preserving", 96): "e4b408ff9302f70b3277377894c649fd1272858943151dbcdbc839ace31ac30b",
        ("preserving", 384): "c94bb9a66b19d4277f2a23344ed8d311b5cb00462be616f5d3eed41c18090bc3",
        ("preserving", 1536): "5ecb6302e8e15d805c7cd6dc2241f1e0496a30ed5fd1b58169e9be88db586bfe",
    }

    @pytest.mark.parametrize("kind, n", sorted(DIGESTS))
    def test_output_is_byte_identical(self, kind, n):
        out = dump_structure(reduce_structure(_pants_ring(n, kind)))
        assert hashlib.sha256(out.encode()).hexdigest() == self.DIGESTS[(kind, n)]


class TestFirstHomology:
    def test_sigma2_times_torus(self):
        assert first_homology(trivial_double()) == (6, [])

    def test_twisted_double_has_even_torsion(self):
        rank, torsion = first_homology(twisted_double(Mat2(1, 2, 0, 1)))
        assert torsion and all(t % 2 == 0 for t in torsion)

    def test_relabeling_invariance(self, full_corpus):
        for name, gs in full_corpus.items():
            assert first_homology(relabel(gs)) == first_homology(gs), name


class TestInvariantReport:
    def test_reduced_corpus_classes_parabolic(self, reduced_corpus):
        for name, gs in reduced_corpus.items():
            report = invariant_report(gs)
            assert report.findings == (), name
            assert all(c.startswith("Parabolic") for c in report.decomposing_classes), name
            assert report.sigma == 0 and report.euler == 0

    def test_relabeling_invariance(self, full_corpus):
        for name, gs in full_corpus.items():
            assert invariant_report(relabel(gs)).key() == invariant_report(gs).key(), name

    def test_render_deterministic(self):
        gs = swap_double(1, 2)
        assert invariant_report(gs).render() == invariant_report(gs).render()
        assert "euler: 0" in invariant_report(gs).render()


class TestIsomorphicReduced:
    def test_self(self):
        gs = swap_double(1, 2)
        result = isomorphic_reduced(gs, gs)
        assert result.verdict == "yes"

    def test_relabeled_copy(self, reduced_corpus):
        for name, gs in reduced_corpus.items():
            result = isomorphic_reduced(gs, relabel(gs))
            assert result.verdict == "yes", name

    def test_separated_by_decomposing_classes(self):
        r1 = isomorphic_reduced(swap_double(1, 2), swap_double(2, 3))
        assert r1.verdict == "no"
        assert r1.separating is not None

    def test_conjugator_check_raises(self, monkeypatch):
        # a result check, not an assert: it must also hold under python -O
        import gm4.assembly as assembly

        rotation = Mat2(0, -1, 1, 0)  # does not conjugate R^n to R^n
        monkeypatch.setattr(assembly, "_conjugator", lambda pairs: rotation)
        gs = swap_double(1, 2)
        with pytest.raises(RuntimeError, match="does not carry"):
            isomorphic_reduced(gs, gs)

    def test_non_reduced_rejected(self):
        gs = partial_reducible(1, 2)
        with pytest.raises(NotReducedError):
            isomorphic_reduced(gs, gs)

    def test_agrees_with_the_bounded_reference(self):
        # the library answers "yes" wherever the coefficient-box reference
        # does, at any bound, and never contradicts a decided answer
        gs = swap_double(1, 2)
        pairs = [
            (gs, relabel(gs)),
            (gs, swap_double(2, 3)),
            (gs, _conjugate_structure(gs, Mat2(2, 1, 1, 1) @ Mat2(1, 3, 0, 1))),
        ]
        for gs1, gs2 in pairs:
            got = isomorphic_reduced(gs1, gs2).verdict
            assert got != "inconclusive"
            for bound in (2, 4, 6):
                assert reference_isomorphic_reduced(gs1, gs2, bound).verdict in (got, "inconclusive")


class TestValidateOnce:
    @pytest.fixture()
    def validated(self, monkeypatch):
        import gm4.assembly as assembly

        calls = []
        real = assembly.validate_structure

        def counting(gs):
            calls.append(gs)
            return real(gs)

        monkeypatch.setattr(assembly, "validate_structure", counting)
        return calls

    def test_invariant_report(self, validated):
        gs = swap_double(1, 2)
        invariant_report(gs)
        assert validated == [gs]

    def test_isomorphic_reduced(self, validated):
        gs1, gs2 = swap_double(1, 2), relabel(swap_double(1, 2))
        assert isomorphic_reduced(gs1, gs2).verdict == "yes"
        assert validated == [gs1, gs2]

    def test_error_order(self):
        # gs1 valid, gs1 reduced, gs2 valid, gs2 reduced
        invalid = structure({"A": pants(upper(1), upper(2))}, ())
        unreduced = partial_reducible(1, 2)
        with pytest.raises(StructureError):
            isomorphic_reduced(invalid, unreduced)
        with pytest.raises(NotReducedError):
            isomorphic_reduced(unreduced, invalid)
        with pytest.raises(StructureError):
            isomorphic_reduced(swap_double(1, 2), invalid)
        with pytest.raises(NotReducedError):
            isomorphic_reduced(swap_double(1, 2), unreduced)


class TestGenusCarryingSurgeries:
    def _genus1_block(self, c_mono, a_img, b_img):
        surface = SurfaceWithBoundary(True, 1, 2)
        return Block(surface, (a_img, b_img, c_mono))

    def test_distinct_merge_with_handles(self):
        from conftest import mirror_edge_iso, swap_iso, upper

        n = 3
        a = self._genus1_block(upper(n), upper(1), upper(2))
        b = self._genus1_block(upper(-n), Mat2(1, 1, 0, 1), Mat2(1, 1, 0, 1))
        edges = (
            Edge(("A", "1"), ("B", "1"), mirror_edge_iso(upper(n))),
            Edge(("A", "2"), ("B", "2"), swap_iso(-n)),
        )
        gs = structure({"A": a, "B": b}, edges)
        assert validate_structure(gs) == []
        before = (manifold_signature(gs), first_homology(gs))
        red = reduce_structure(gs)
        (_, block), = red.blocks
        assert block.surface.genus == 2
        assert block.surface.boundary_count == 2
        assert validate_structure(red) == []
        assert (manifold_signature(red), first_homology(red)) == before

    def test_mirror_surgery_preserves_structure(self):
        from gm4.assembly import _mirror
        from conftest import swap_chain3

        gs = swap_chain3(1, 2, 4)
        before = (manifold_signature(gs), first_homology(gs),
                  invariant_report(gs).key())
        blocks = gs.block_map()
        for label in ("A", "B", "C"):
            new_block, mapping = _mirror(blocks[label])
            gs = reglue_block(gs, label, new_block, mapping)
            blocks = gs.block_map()
        assert validate_structure(gs) == []
        assert (manifold_signature(gs), first_homology(gs)) == before[:2]

    def test_rotation_surgery_preserves_structure(self):
        from gm4.assembly import _rotate
        from conftest import swap_double

        gs = swap_double(1, 2)
        before = (manifold_signature(gs), first_homology(gs))
        blocks = gs.block_map()
        gs = reglue_block(gs, "A", *_rotate(blocks["A"], 1))
        assert validate_structure(gs) == []
        assert (manifold_signature(gs), first_homology(gs)) == before

    def test_self_edge_to_same_boundary_rejected(self):
        from conftest import pants, upper

        a = pants(upper(1), upper(-1))
        iso = BoundaryIso.identity(TorusBundleOverCircle(upper(1)))
        gs = structure({"A": a}, (Edge(("A", "1"), ("A", "1"), iso),))
        assert any("glued to itself" in d for d in validate_structure(gs))

    def test_rotation_with_noncommuting_handles(self):
        from gm4.assembly import _rotate
        from gm4 import L, R

        # genus-1 block whose handle images do not commute: the rotated
        # presentation conjugates the moved boundary by [R, L] != I
        n_mat = R @ L @ R.inverse() @ L.inverse()
        surface = SurfaceWithBoundary(True, 1, 2)
        a = Block(surface, (R, L, n_mat.inverse()))
        gs = mirror_pair(a)
        assert validate_structure(gs) == []
        before = (manifold_signature(gs), first_homology(gs))
        gs2 = reglue_block(gs, "A", *_rotate(gs.block("A"), 1))
        assert validate_structure(gs2) == []
        assert (manifold_signature(gs2), first_homology(gs2)) == before


class TestClosedFormSurgeries:
    @staticmethod
    def _block():
        # genus 1 with non-commuting handles, so the handle product N != I
        surface = SurfaceWithBoundary(True, 1, 5)
        images = (R, L, upper(1), Mat2(2, 1, 1, 1), upper(-2), Mat2(1, 0, 3, 1))
        return Block(surface, images, ("p", "q", "r", "s", "u"))

    def test_rotation_equals_single_steps(self):
        from gm4.assembly import _rotate, _then, _transport

        block = self._block()
        b = block.surface.boundary_count
        monos = block.monodromies
        for k in range(b):
            stepped = block
            composed = {lbl: (I2, 1) for lbl in monos}
            composed_isos = {
                lbl: BoundaryIso.identity(TorusBundleOverCircle(m)) for lbl, m in monos.items()
            }
            for _ in range(k):
                current = stepped.monodromies
                stepped, step = _rotate(stepped, 1)
                assert step.keys() == monos.keys()
                for lbl, (a, eps) in step.items():
                    mu, _ = _transport(current[lbl], a, eps)
                    composed_isos[lbl] = compose_isos(mu, composed_isos[lbl])
                composed = _then(composed, step)
            rotated, mapping = _rotate(block, k)
            assert rotated == stepped, k
            assert mapping == composed, k
            isos = {lbl: _transport(monos[lbl], a, eps)[0] for lbl, (a, eps) in mapping.items()}
            assert isos == composed_isos, k

    def test_move_to_front_preserves_structure(self):
        from gm4.assembly import _move_to_front

        a = self._block()
        gs = mirror_pair(a)
        assert validate_structure(gs) == []
        before = (manifold_signature(gs), first_homology(gs))
        for p in range(1, a.surface.boundary_count):
            moved = reglue_block(gs, "A", *_move_to_front(a, p))
            assert moved.block("A").boundary_labels()[0] == a.boundary_labels()[p - 1]
            assert validate_structure(moved) == [], p
            assert (manifold_signature(moved), first_homology(moved)) == before, p

    def test_monodromy_check_raises(self):
        from gm4.assembly import _rotate

        gs = swap_double(1, 2)
        new_block, mapping = _rotate(gs.block("A"), 1)
        mapping["1"] = (I2, -1)  # lands on the inverse monodromy
        with pytest.raises(RuntimeError, match="A.1"):
            reglue_block(gs, "A", new_block, mapping)


def _word_matrix(word):
    return reduce(lambda acc, m: acc @ m, word, I2)


sl2z = st.lists(st.sampled_from([R, L, S, R.inverse(), L.inverse()]), max_size=6).map(_word_matrix)
gl2z = st.tuples(sl2z, st.sampled_from([I2, Mat2(0, 1, 1, 0)])).map(lambda p: p[0] @ p[1])
signs = st.sampled_from([1, -1])


class TestTransports:
    @given(m=sl2z, a=gl2z, eps=signs)
    @settings(max_examples=150, deadline=None)
    def test_inverse_is_the_general_inverse(self, m, a, eps):
        from gm4.assembly import _transport

        mu, mu_inv = _transport(m, a, eps)
        assert mu.target.phi == a @ m ** eps @ a.inverse()
        assert mu_inv == iso_inverse(mu)

    @given(m=sl2z, a1=gl2z, eps1=signs, a2=gl2z, eps2=signs)
    @settings(max_examples=150, deadline=None)
    def test_then_is_composition(self, m, a1, eps1, a2, eps2):
        from gm4.assembly import _then, _transport

        first, _ = _transport(m, a1, eps1)
        second, _ = _transport(first.target.phi, a2, eps2)
        (a, eps), = _then({"p": (a1, eps1)}, {"p": (a2, eps2)}).values()
        assert _transport(m, a, eps)[0] == compose_isos(second, first)


class TestEulerDiagnosticMode:
    def test_single_open_block(self):
        from conftest import pants, upper

        gs = structure({"A": pants(upper(1), upper(2))}, ())
        # open manifold: not valid as a closed structure, but chi still 0
        assert validate_structure(gs) != []
        assert euler_characteristic(gs) == 0


def _conjugate_structure(gs, c):
    """Copy of gs with every block's fiber basis changed by c."""
    from gm4.assembly import _transport

    new_blocks = {}
    mus = {}
    for lbl, block in gs.blocks:
        imgs = tuple(c @ m @ c.inverse() for m in block.images)
        new_blocks[lbl] = Block(block.surface, imgs, block.boundary_labels())
        for bd, m in block.monodromies.items():
            mus[(lbl, bd)] = _transport(m, c, 1)
    new_edges = tuple(
        Edge(e.end1, e.end2, compose_isos(mus[e.end2][0], compose_isos(e.iso, mus[e.end1][1])))
        for e in gs.edges
    )
    return structure(new_blocks, new_edges)


class TestComparisonThreeValued:
    def test_conjugator_outside_any_box_answers_yes(self, reduced_corpus):
        # a fiber basis change by (RL)^4 R^3 = [[34, 123], [21, 76]] leaves
        # every block conjugator outside the reference's bound-4 box
        c = (R @ L) ** 4 @ R ** 3
        for name, gs in reduced_corpus.items():
            gs2 = relabel(_conjugate_structure(gs, c))
            assert validate_structure(gs2) == [], name
            assert invariant_report(gs2).key() == invariant_report(gs).key(), name
            assert isomorphic_reduced(gs, gs2).verdict == "yes", name
            assert reference_isomorphic_reduced(gs, gs2, 4).verdict == "inconclusive", name

    def test_mirror_pair_of_a_symmetric_structure_answers_yes(self):
        # the J-copy is -M, and M has an orientation-reversing self-map
        # sigma: A <-> B, K = [[-1,0],[0,1]] on each fiber, the identity on
        # each base.  The classes flip n -> -n at the first end of each
        # edge, but each edge still joins R^n to R^-n
        gs = swap_double(1, 2)
        mirror = _conjugate_structure(gs, Mat2(1, 0, 0, -1))
        assert validate_structure(mirror) == []
        result = isomorphic_reduced(gs, mirror)
        assert (result.verdict, result.witness) == ("yes", "block matching A->B, B->A")

    def test_mirror_pair_separated_by_block_summary(self):
        gs = REDUCED_CORPUS["swap_chain3_1_2_4"]()
        mirror = _conjugate_structure(gs, Mat2(1, 0, 0, -1))
        assert validate_structure(mirror) == []
        result = isomorphic_reduced(gs, mirror)
        assert (result.verdict, result.separating) == ("no", "block_summary")


# Name-keyed oracles for the positional surgeries: the generator names of
# the bundles convention (a_i, b_i, c_i) looked up through Block.image_map, and
# the handle product N evaluated from the commutator word.


def _oracle_handle_product(block, genus):
    word = []
    for i in range(1, genus + 1):
        word += [(f"a{i}", 1), (f"b{i}", 1), (f"a{i}", -1), (f"b{i}", -1)]
    return block.evaluate(tuple(word))


def _oracle_monodromies(block):
    words = block.surface.boundary_words()
    return {lbl: block.evaluate(w) for lbl, w in zip(block.boundary_labels(), words)}


def _oracle_mirror(block):
    surface = block.surface
    g, b = surface.genus, surface.boundary_count
    imgs = block.image_map
    labels = block.boundary_labels()
    monos = _oracle_monodromies(block)
    n_mat = _oracle_handle_product(block, g)
    n_inv = n_mat.inverse()
    new_images = []
    for name in surface.generator_names():
        kind, i = name[0], int(name[1:])
        if kind == "a":
            new_images.append(imgs[f"b{g + 1 - i}"])
        elif kind == "b":
            new_images.append(imgs[f"a{g + 1 - i}"])
        else:
            new_images.append(n_inv @ monos[labels[b - i - 1]].inverse() @ n_mat)
    new_labels = tuple(reversed(labels[: b - 1])) + (labels[-1],)
    transports = {lbl: (n_inv, -1) for lbl in labels[:-1]}
    transports[labels[-1]] = (n_inv @ n_inv, -1)
    return Block(surface, tuple(new_images), new_labels), transports


def _oracle_merge_distinct(gs, edge_idx):
    """The (old labels, new label, merged block, mapping) that a merge of
    two distinct blocks returns."""
    from gm4.assembly import _position, _rotate, _then

    edge = gs.edges[edge_idx]
    (l1, bd1), (l2, bd2) = edge.end1, edge.end2
    b1, b2 = gs.block(l1), gs.block(l2)
    b2, trans2 = _oracle_mirror(b2) if edge.iso.t_img.k == 1 else _rotate(b2, 0)
    b1, trans1 = _rotate(b1, _position(b1, bd1) % b1.surface.boundary_count)
    b2, rotation = _rotate(b2, _position(b2, bd2) - 1)
    trans2 = _then(trans2, rotation)
    (g1, n1), (g2, n2) = ((b.surface.genus, b.surface.boundary_count) for b in (b1, b2))
    c_mat = trans2[bd2][0] @ fiber_matrix(edge.iso) @ trans1[bd1][0].inverse()
    c_inv = c_mat.inverse()
    imgs1, imgs2 = b1.image_map, b2.image_map
    images = []
    for j in range(1, g2 + 1):
        images += [c_inv @ imgs2[f"a{j}"] @ c_mat, c_inv @ imgs2[f"b{j}"] @ c_mat]
    for j in range(1, g1 + 1):
        images += [imgs1[f"a{j}"], imgs1[f"b{j}"]]
    # with a one-boundary block 2, block 1's last c is the merged last boundary
    images += [imgs1[f"c{i}"] for i in range(1, n1 if n2 > 1 else n1 - 1)]
    images += [c_inv @ imgs2[f"c{i}"] @ c_mat for i in range(2, n2)]
    labels1, labels2 = b1.boundary_labels(), b2.boundary_labels()
    new_labels = tuple([f"{l1}.{x}" for x in labels1[: n1 - 1]] + [f"{l2}.{x}" for x in labels2[1:]])
    surface = SurfaceWithBoundary(True, g1 + g2, n1 + n2 - 2)
    merged = Block(surface, tuple(images), new_labels)
    mapping = {(l1, x): (f"{l1}.{x}",) + trans1[x] for x in labels1[: n1 - 1]}
    for x in labels2[1:]:
        a, eps = trans2[x]
        mapping[(l2, x)] = (f"{l2}.{x}", c_inv @ a, eps)
    return {l1, l2}, f"{l1}+{l2}", merged, mapping


def _oracle_merge_self(gs, edge_idx):
    from gm4.assembly import _move_to_front, _position, _rotate, _then

    edge = gs.edges[edge_idx]
    lbl = edge.end1[0]
    block = gs.block(lbl)
    g, b = block.surface.genus, block.surface.boundary_count
    bd1, bd2 = edge.end1[1], edge.end2[1]
    block, trans = _rotate(block, _position(block, bd1) % b)
    block, front = _move_to_front(block, _position(block, bd2))
    trans = _then(trans, front)
    imgs = block.image_map
    labels = block.boundary_labels()
    m_last = _oracle_monodromies(block)[labels[-1]]
    m_last_inv = m_last.inverse()
    c_mat = trans[bd2][0] @ fiber_matrix(edge.iso) @ trans[bd1][0].inverse()
    images = []
    for j in range(1, g + 1):
        images += [imgs[f"a{j}"], imgs[f"b{j}"]]
    images += [c_mat, m_last_inv]
    images += [m_last_inv @ imgs[f"c{i}"] @ m_last for i in range(2, b - 1)]
    surface = SurfaceWithBoundary(True, g + 1, b - 2)
    merged = Block(surface, tuple(images), tuple(f"{lbl}.{x}" for x in labels[1 : b - 1]))
    mapping = {}
    for x in labels[1 : b - 1]:
        a, eps = trans[x]
        mapping[(lbl, x)] = (f"{lbl}.{x}", m_last_inv @ a, eps)
    return {lbl}, f"{lbl}*", merged, mapping


def _random_block(rnd, genus, boundaries, prefix=""):
    letters = [R, L, S, R.inverse(), L.inverse()]
    images = tuple(
        _word_matrix(rnd.choice(letters) for _ in range(rnd.randint(1, 5)))
        for _ in range(2 * genus + boundaries - 1)
    )
    labels = tuple(f"{prefix}{i}" for i in range(boundaries))
    return Block(SurfaceWithBoundary(True, genus, boundaries), images, labels)


def _fiber_preserving(m1, m2, fiber, eps):
    """Fiber-preserving iso M_m1 -> M_m2 with the given fiber part and t -> t^eps
    (only its fiber part and winding are read by the merges)."""
    return BoundaryIso(
        TorusBundleOverCircle(m1),
        TorusBundleOverCircle(m2),
        Pi1Element(fiber.a, fiber.c, 0),
        Pi1Element(fiber.b, fiber.d, 0),
        Pi1Element(0, 0, eps),
    )


class TestPositionalSurgeries:
    """_mirror, _merge_distinct and _merge_self build images by position;
    each must agree with the name-keyed oracle above on images, labels and
    transports."""

    def test_mirror(self):
        from gm4.assembly import _mirror

        rnd = random.Random(7)
        for genus in (0, 1, 2, 3):
            for boundaries in (1, 2, 3, 4):
                for _ in range(3):
                    block = _random_block(rnd, genus, boundaries)
                    assert _mirror(block) == _oracle_mirror(block), (genus, boundaries)

    def test_merge_distinct(self):
        from gm4.assembly import _merge_distinct

        rnd = random.Random(11)
        fiber = Mat2(2, 1, 1, 1)
        for g1, g2 in ((1, 1), (2, 1), (1, 3), (3, 2)):
            for n1, n2 in ((1, 2), (2, 3), (4, 2), (1, 4), (3, 1)):
                for eps in (1, -1):
                    a = _random_block(rnd, g1, n1, "p")
                    b = _random_block(rnd, g2, n2, "q")
                    bd1, bd2 = rnd.choice(a.boundary_labels()), rnd.choice(b.boundary_labels())
                    iso = _fiber_preserving(a.monodromies[bd1], b.monodromies[bd2], fiber, eps)
                    gs = structure({"A": a, "B": b}, [Edge(("A", bd1), ("B", bd2), iso)])
                    got = _merge_distinct(gs.block_map(), gs.edges[0])
                    assert got == _oracle_merge_distinct(gs, 0), (g1, g2, n1, n2, eps)

    def test_merge_self(self):
        from gm4.assembly import _merge_self

        rnd = random.Random(13)
        fiber = Mat2(1, 1, 1, 2)
        for genus in (1, 2, 3):
            for boundaries in (4, 5, 6):
                block = _random_block(rnd, genus, boundaries)
                labels = block.boundary_labels()
                for bd1, bd2 in ((labels[0], labels[-1]), (labels[-1], labels[1]), (labels[2], labels[1])):
                    iso = _fiber_preserving(block.monodromies[bd1], block.monodromies[bd2], fiber, -1)
                    gs = structure({"A": block}, [Edge(("A", bd1), ("A", bd2), iso)])
                    got = _merge_self(gs.block_map(), gs.edges[0])
                    assert got == _oracle_merge_self(gs, 0), (genus, boundaries, bd1, bd2)
