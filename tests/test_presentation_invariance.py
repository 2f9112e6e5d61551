"""A verdict of `compare` depends on the manifold, not on how its manifest
is written.  Writing a glue line the other way round (ends swapped, glueing
inverted), reordering the block and glue declarations and renaming blocks
must leave the invariant key alone and never turn a verdict into "no"."""
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from gm4 import (
    ClosedBaseError,
    Edge,
    GraphStructure,
    UnsupportedOperationError,
    dump_structure,
    invariant_report,
    is_reduced,
    iso_inverse,
    isomorphic_reduced,
    load_structure,
    reduce_structure,
    validate_structure,
)

from conftest import REDUCED_CORPUS, bench_gen
from test_manifest_cli import run_cli

GOLDEN = Path(__file__).resolve().parent / "match_golden.json"
MANIFESTS = sorted((Path(__file__).resolve().parent.parent / "manifests").glob("*.gm"))
CORPUS = {
    **{f"manifests/{path.name}": (lambda path=path: load_structure(path.read_text(encoding="utf-8")))
       for path in MANIFESTS},
    **REDUCED_CORPUS,
}


def reverse_edges(gs, indices):
    """gs with the edges at indices written the other way round."""
    edges = tuple(
        Edge(e.end2, e.end1, iso_inverse(e.iso)) if i in indices else e for i, e in enumerate(gs.edges)
    )
    return GraphStructure(gs.blocks, edges)


def gm_text(blocks, edges):
    """.gm text with the blocks and the glue lines in the order given."""
    header = "version 1\n"
    parts = [dump_structure(GraphStructure((block,), ())) for block in blocks]
    parts += [dump_structure(GraphStructure((), (edge,))) for edge in edges]
    return header + "".join(part[len(header):] for part in parts)


def _reduced(gs):
    """reduce_structure(gs), or None when the reduction is out of scope."""
    try:
        return reduce_structure(gs)
    except (ClosedBaseError, UnsupportedOperationError):
        return None


class TestReversedGlueLines:
    def test_reversed_trade_line_of_swap_double(self, tmp_path):
        # the trade glueing x -> x, y -> t, t -> y is its own inverse, so
        # only the ends of the glue line change
        text = bench_gen().swap_double(1, 2).text()
        flipped = text.replace("glue A.1 B.1\n", "glue B.1 A.1\n")
        assert flipped != text
        (tmp_path / "a.gm").write_text(text, encoding="utf-8")
        (tmp_path / "b.gm").write_text(flipped, encoding="utf-8")
        assert run_cli(["validate", str(tmp_path / "b.gm")]) == (0, "valid\n", "")
        for pair in (("a.gm", "b.gm"), ("b.gm", "a.gm")):
            rc, out, err = run_cli(["compare", *(str(tmp_path / name) for name in pair)])
            assert (rc, out, err) == (0, "Yes (block matching A->A, B->B)\n", ""), pair

    @pytest.mark.parametrize("name", ["chain3_1_2_3", "pants_ring_6"])
    def test_first_edge_reversed(self, name):
        gen = bench_gen()
        built = gen.chain3(1, 2, 3) if name == "chain3_1_2_3" else gen.pants_ring(1, [2, 3, 4], [False] * 3)
        gs = load_structure(built.text())
        flipped = reverse_edges(gs, {0})
        assert validate_structure(flipped) == [] and is_reduced(flipped)[0]
        assert invariant_report(flipped).key() == invariant_report(gs).key()
        identity = ", ".join(f"{lbl}->{lbl}" for lbl, _ in gs.blocks)
        for gs1, gs2 in ((gs, flipped), (flipped, gs)):
            result = isomorphic_reduced(gs1, gs2)
            assert (result.verdict, result.witness) == ("yes", f"block matching {identity}")

    def test_report_line_reads_the_first_end(self):
        # the key reads both ends of each edge; the rendered line reads the
        # first end of each glue line, as it always has
        gs = load_structure(bench_gen().swap_double(1, 2).text())
        flipped = reverse_edges(gs, {0})
        report, flipped_report = invariant_report(gs), invariant_report(flipped)
        assert report.key() == flipped_report.key()
        assert report.edge_classes == flipped_report.edge_classes == (
            ("Parabolic(+1, n=-1)", "Parabolic(+1, n=1)"),
            ("Parabolic(+1, n=-2)", "Parabolic(+1, n=2)"),
            ("Parabolic(+1, n=-3)", "Parabolic(+1, n=3)"),
        )
        assert "Parabolic(+1, n=1)" in report.decomposing_classes
        assert "Parabolic(+1, n=-1)" in flipped_report.decomposing_classes

    def test_match_inputs_with_every_glue_line_reversed(self):
        # every glue line of each seed 1-3 `match` partner written the other
        # way round: each verdict is the recorded one
        gen = bench_gen()
        recorded = {(r["seed"], r["id"]): r["verdict"] for r in json.loads(GOLDEN.read_text(encoding="utf-8"))}
        for seed in (1, 2, 3):
            for item in gen.match_items(seed, 1):
                gs2 = load_structure(item.text2)
                flipped = reverse_edges(gs2, set(range(len(gs2.edges))))
                verdict = isomorphic_reduced(load_structure(item.text1), flipped).verdict
                assert verdict == recorded[(seed, item.id)], (seed, item.id, item.family, item.partner)


@given(data=st.data(), name=st.sampled_from(sorted(CORPUS)))
@settings(max_examples=60, deadline=None)
def test_presentation_never_turns_a_verdict_into_no(data, name):
    gs = CORPUS[name]()
    n_edges, n_blocks = len(gs.edges), len(gs.blocks)
    flips = data.draw(st.sets(st.integers(0, n_edges - 1)), label="reversed glue lines")
    names = data.draw(st.permutations([f"Q{k}" for k in range(n_blocks)]), label="block names")
    rename = {lbl: new for (lbl, _), new in zip(gs.blocks, names)}
    blocks = [(rename[lbl], block) for lbl, block in gs.blocks]
    edges = [
        Edge((rename[e.end1[0]], e.end1[1]), (rename[e.end2[0]], e.end2[1]), e.iso)
        for e in reverse_edges(gs, flips).edges
    ]
    text = gm_text(data.draw(st.permutations(blocks)), data.draw(st.permutations(edges)))
    variant = load_structure(text)
    assert validate_structure(variant) == []
    assert invariant_report(variant).key() == invariant_report(gs).key()
    red, red_variant = _reduced(gs), _reduced(variant)
    assert (red is None) == (red_variant is None)
    if red is not None:
        for pair in ((red, red_variant), (red_variant, red)):
            assert isomorphic_reduced(*pair).verdict != "no", text
