import io
import random
import re
import subprocess
import sys
import tempfile
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from gm4 import Edge, GraphStructure, L, Mat2, R, S, assembly, bundles, classify, iso_inverse, manifest, psi, validate_structure
from gm4.cli import main
from gm4.gl2z import int_str
from gm4.manifest import ManifestError

from conftest import REDUCED_CORPUS, bench_gen, full_corpus, swap_double

DOUBLE_GM = """\
# minimal two-block double
version 1
block A
  base orientable genus 0 boundaries 3
  gen c1 [[1,1],[0,1]]
  gen c2 [[1,2],[0,1]]
end
block B
  base orientable genus 0 boundaries 3
  gen c1 [[1,-1],[0,1]]
  gen c2 [[1,-2],[0,1]]
end
glue A.1 B.1
  x (1,0,0)
  y (0,0,1)
  t (0,1,0)
end
glue A.2 B.2
  x (1,0,0)
  y (0,0,1)
  t (0,1,0)
end
glue A.3 B.3
  x (1,0,0)
  y (0,0,1)
  t (0,1,0)
end
"""


class TestParse:
    def test_minimal_double_parses_and_validates(self):
        gs = manifest.load_structure(DOUBLE_GM)
        assert validate_structure(gs) == []

    def test_round_trip_canonical(self):
        text1 = manifest.dump_structure(manifest.load_structure(DOUBLE_GM))
        text2 = manifest.dump_structure(manifest.load_structure(text1))
        assert text1 == text2

    def test_round_trip_on_corpus(self, full_corpus):
        for name, gs in full_corpus.items():
            text = manifest.dump_structure(gs)
            gs2 = manifest.load_structure(text)
            assert manifest.dump_structure(gs2) == text, name
            assert validate_structure(gs2) == [], name

    def test_non_unimodular_matrix_located(self):
        bad = DOUBLE_GM.replace("[[1,1],[0,1]]", "[[1,1],[1,1]]")
        with pytest.raises(ManifestError) as err:
            manifest.parse(bad)
        assert "not unimodular" in str(err.value)
        assert "line 5" in str(err.value)

    def test_unknown_boundary_label(self):
        bad = DOUBLE_GM.replace("glue A.1 B.1", "glue A.9 B.1")
        with pytest.raises(ManifestError) as err:
            manifest.parse(bad).to_structure()
        assert "unknown boundary label" in str(err.value)

    def test_missing_generator(self):
        bad = DOUBLE_GM.replace("  gen c2 [[1,2],[0,1]]\nend", "end", 1)
        with pytest.raises(ManifestError) as err:
            manifest.parse(bad).to_structure()
        assert str(err.value) == "line 3, col 1: block A: missing generator images ['c2'] (convention order: c1, c2)"
        gens = "".join(f"  gen c{i} [[1,0],[0,1]]\n" for i in range(2, 20))
        text = f"version 1\nblock A\n  base nonorientable genus 3 boundaries 20\n{gens}end\n"
        with pytest.raises(ManifestError) as err:
            manifest.parse(text).to_structure()
        assert str(err.value) == (
            "line 2, col 1: block A: missing generator images ['d1', 'd2', 'd3', 'c1'] (convention order: "
            + ", ".join(["d1", "d2", "d3"] + [f"c{i}" for i in range(1, 20)]) + ")"
        )

    @pytest.mark.parametrize(
        "base, gens, names",
        [
            ("orientable genus 0 boundaries 1000000000000", ["c2"], [f"c{i}" for i in range(1, 22)]),
            ("orientable genus 1000000000000 boundaries 1", [], [f"{x}{i}" for i in range(1, 11) for x in "ab"]),
            ("nonorientable genus 1000000000000 boundaries 2", ["d1", "x"], [f"d{i}" for i in range(1, 23)]),
        ],
    )
    def test_huge_base_is_checked_without_its_names(self, base, gens, names, monkeypatch):
        real = bundles.SurfaceWithBoundary.generator_name
        calls = []

        def bounded(surface, i):
            calls.append(i)
            assert len(calls) <= 100, "a huge base's names were built"
            return real(surface, i)

        monkeypatch.setattr(bundles.SurfaceWithBoundary, "generator_name", bounded)
        lines = "".join(f"  gen {name} [[1,0],[0,1]]\n" for name in gens)
        with pytest.raises(ManifestError) as err:
            manifest.parse(f"version 1\nblock A\n  base {base}\n{lines}end\n").to_structure()
        missing = [n for n in names if n not in gens]
        assert str(err.value) == (
            f"line 2, col 1: block A: missing generator images {missing} and more"
            f" (convention order: {', '.join(names)}, ...)"
        )

    def test_fully_declared_high_genus_block_loads(self):
        # the unknown-generator check is one set lookup per declared name
        names = [f"{x}{i}" for i in range(1, 4001) for x in "ab"] + ["c1", "c2"]
        lines = "".join(f"  gen {name} [[1,{i}],[0,1]]\n" for i, name in enumerate(names))
        text = f"version 1\nblock A\n  base orientable genus 4000 boundaries 3\n{lines}end\n"
        (label, block), = manifest.parse(text).to_structure().blocks
        assert label == "A" and len(block.images) == 8002
        assert block.images == tuple(Mat2(1, i, 0, 1) for i in range(8002))
        with pytest.raises(ManifestError, match=r"unknown generators \['c3'\]"):
            manifest.parse(text.replace("end\n", "  gen c3 [[1,0],[0,1]]\nend\n")).to_structure()

    @pytest.mark.parametrize(
        "text, message",
        [
            ("version 1 2\n", "line 1, col 1: expected: version <integer>"),
            ("version 1\nblock\n", "line 2, col 1: expected: block <label>"),
            ("version 1\nglue A.1\n", "line 2, col 1: expected: glue <b1>.<bd1> <b2>.<bd2>"),
            ("version 1\nglue A B.1\n", "line 2, col 1: expected block.boundary reference, got 'A'"),
            ("version 1\nglue A. B.1\n", "line 2, col 1: expected block.boundary reference, got 'A.'"),
            ("version 1\nlabels p q\n", "line 2, col 1: 'labels' outside a block section"),
            ("version 1\nblock A\n  labels\n", "line 3, col 1: expected: labels <l1> <l2> ..."),
            ("version 1\nblock A\n  gen c1\n", "line 3, col 1: expected: gen <name> [[a,b],[c,d]]"),
            ("version 1\nglue A.1 B.1\n  x\n", "line 3, col 1: expected: x (a,b,k)"),
            ("version 2\n", "line 1, col 1: unsupported manifest version 2"),
            (
                DOUBLE_GM.replace("boundaries 3\n", "boundaries 3\n  labels p q\n", 1),
                "line 3, col 1: block A: 2 labels for 3 boundary components",
            ),
            (DOUBLE_GM.replace("glue A.1 B.1", "glue Z.1 B.1"), "line 13, col 1: unknown block label 'Z'"),
        ],
    )
    def test_diagnostic(self, text, message):
        with pytest.raises(ManifestError) as err:
            manifest.parse(text).to_structure()
        assert str(err.value) == message

    @pytest.mark.parametrize("digit", ["\u00b2", "\u2460", "\u00b9"])
    def test_version_with_a_digit_that_int_rejects(self, digit):
        assert digit.isdigit()
        with pytest.raises(ManifestError) as err:
            manifest.parse(f"version {digit}\n")
        assert str(err.value) == "line 1, col 1: expected: version <integer>"

    def test_version_in_arabic_indic_digits_reads_as_one(self):
        assert manifest.parse(DOUBLE_GM.replace("version 1", "version \u0661")).version == 1

    def test_duplicate_block_label_located(self):
        text = DOUBLE_GM.replace("block B", "block A")
        lineno = text.splitlines().index("block A", 3) + 1  # the second one
        with pytest.raises(ManifestError) as err:
            manifest.parse(text)
        assert str(err.value) == f"line {lineno}, col 1: duplicate block label 'A'"

    def test_syntax_error_located(self):
        with pytest.raises(ManifestError) as err:
            manifest.parse("version 1\nblok A\n")
        assert "line 2" in str(err.value)

    def test_pi1_image_syntax(self):
        bad = DOUBLE_GM.replace("x (1,0,0)", "x (1,0)", 1)
        with pytest.raises(ManifestError) as err:
            manifest.parse(bad)
        assert "(a,b,k)" in str(err.value)

    @pytest.mark.parametrize(
        "text, message",
        [
            (
                "version 1\nglue A.1 B.1\n  x x\nend\n",
                "line 3, col 5: expected pi1 image (a,b,k), got 'x'",
            ),
            (
                "version 1\nblock A\n  base orientable genus 0 boundaries 3\n  gen c1 c1\nend\n",
                "line 4, col 10: expected matrix [[a,b],[c,d]], got 'c1'",
            ),
        ],
    )
    def test_column_of_a_token_equal_to_one_before_it(self, text, message):
        with pytest.raises(ManifestError) as err:
            manifest.parse(text)
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "bad, message",
        [
            (
                DOUBLE_GM.replace("(0,1,0)", "(0,1)", 1).replace("(0,1,0)", "  (0,1)", 1),
                "line 16, col 5: expected pi1 image (a,b,k), got '(0,1)'",
            ),
            (
                DOUBLE_GM.replace("[[1,2],[0,1]]", "[[1,2],[0,x]]").replace(
                    "[[1,-2],[0,1]]", "  [[1,2],[0,x]]"
                ),
                "line 6, col 10: expected matrix [[a,b],[c,d]], got '[[1,2],[0,x]]'",
            ),
        ],
    )
    def test_repeated_malformed_token_located_at_its_first_line(self, bad, message):
        # the same bad token on two lines, the second at another column
        with pytest.raises(ManifestError) as err:
            manifest.parse(bad)
        assert str(err.value) == message

    def test_each_distinct_token_is_parsed_once(self, monkeypatch):
        gen = bench_gen()
        a, bs = gen._ring_params(384, random.Random(384))
        rnd = random.Random(0)
        text = gen.pants_ring(a, bs, [rnd.random() < 0.5 for _ in bs]).text()
        calls = []
        for name in ("parse_matrix", "parse_triple"):
            real = getattr(manifest, name)
            monkeypatch.setattr(
                manifest, name, lambda token, *args, real=real: calls.append(token) or real(token, *args)
            )
        gs = manifest.load_structure(text)
        assert len(calls) == len(set(calls)) == 14
        assert len(gs.edges) == 576


ROOT = Path(__file__).resolve().parent.parent
DOUBLE = str(ROOT / "manifests" / "double.gm")
# valid, but its one merge is between non-orientable bases
NONORIENTABLE = ROOT / "tests" / "invalid_manifests" / "nonorientable_merge.gm"
# edges 0 and 2 carry one relation-breaking glueing (the identity between
# boundaries of monodromies R and R^-1), edge 1 a valid one
# an annulus base, and a pants block whose boundary labels repeat
BAD_BLOCKS_GM = """\
version 1
block A
  base orientable genus 0 boundaries 2
  gen c1 [[1,1],[0,1]]
end
block B
  base orientable genus 0 boundaries 3
  labels p p q
  gen c1 [[1,1],[0,1]]
  gen c2 [[1,1],[0,1]]
end
glue A.1 B.p
  x (1,0,0)
  y (0,1,0)
  t (0,0,1)
end
glue A.2 B.q
  x (1,0,0)
  y (0,1,0)
  t (0,0,1)
end
"""

# two genus-1 blocks with one boundary each, glued fiber-preservingly: the
# merge in reduce would leave a closed base
CLOSING_GLUE_GM = """\
version 1
block A
  base orientable genus 1 boundaries 1
  gen a1 [[1,1],[0,1]]
  gen b1 [[1,0],[0,1]]
end
block B
  base orientable genus 1 boundaries 1
  gen a1 [[1,-1],[0,1]]
  gen b1 [[1,0],[0,1]]
end
glue A.1 B.1
  x (1,0,0)
  y (0,1,0)
  t (0,0,-1)
end
"""

REPEATED_BAD_GLUE_GM = """\
version 1
block A
  base orientable genus 0 boundaries 3
  gen c1 [[1,1],[0,1]]
  gen c2 [[1,1],[0,1]]
end
block B
  base orientable genus 0 boundaries 3
  gen c1 [[1,-1],[0,1]]
  gen c2 [[1,-1],[0,1]]
end
glue A.1 B.1
  x (1,0,0)
  y (0,1,0)
  t (0,0,1)
end
glue A.3 B.3
  x (1,0,0)
  y (0,0,1)
  t (0,1,0)
end
glue A.2 B.2
  x (1,0,0)
  y (0,1,0)
  t (0,0,1)
end
"""
REPEATED_BAD_GLUE_DIAGNOSTICS = [
    "edge 0: relation t y t^-1 = x^phi12 y^phi22 fails on images",
    "edge 2: relation t y t^-1 = x^phi12 y^phi22 fails on images",
]


@pytest.fixture()
def gm_files(tmp_path):
    paths = {}
    for name in ("double", "other"):
        gs = swap_double(1, 2) if name == "double" else swap_double(2, 3)
        p = tmp_path / f"{name}.gm"
        p.write_text(manifest.dump_structure(gs))
        paths[name] = str(p)
    paths["bad"] = str(tmp_path / "bad.gm")
    (tmp_path / "bad.gm").write_text("version 1\nblock A\nend\n")
    return paths


class TestCli:
    def test_validate_ok(self, gm_files, capsys):
        assert main(["validate", gm_files["double"]]) == 0
        assert capsys.readouterr().out.strip() == "valid"

    def test_validate_bad_exit_code(self, gm_files, capsys):
        assert main(["validate", gm_files["bad"]]) == 12
        assert capsys.readouterr().err

    def test_repeated_invalid_glueing_reported_on_each_edge(self, tmp_path, monkeypatch):
        gs = manifest.load_structure(REPEATED_BAD_GLUE_GM)
        calls = []
        real = assembly.validate_glueing
        monkeypatch.setattr(assembly, "validate_glueing", lambda iso: calls.append(iso) or real(iso))
        assert validate_structure(gs) == REPEATED_BAD_GLUE_DIAGNOSTICS
        assert len(calls) == len({e.iso for e in gs.edges}) == 2
        path = tmp_path / "repeated.gm"
        path.write_text(REPEATED_BAD_GLUE_GM)
        assert run_cli(["validate", str(path)]) == (
            12,
            "",
            "".join(f"{path}: {d}\n" for d in REPEATED_BAD_GLUE_DIAGNOSTICS),
        )

    def test_invariants_report(self, gm_files, capsys):
        assert main(["invariants", gm_files["double"]]) == 0
        out = capsys.readouterr().out
        assert "euler: 0" in out
        assert "sigma: 0" in out

    def test_invariants_deterministic(self, gm_files, capsys):
        main(["invariants", gm_files["double"]])
        out1 = capsys.readouterr().out
        main(["invariants", gm_files["double"]])
        out2 = capsys.readouterr().out
        assert out1 == out2

    def test_invariants_bad_exit_code(self, gm_files, capsys):
        assert main(["invariants", gm_files["bad"]]) == 12
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"{gm_files['bad']}: line 3, col 1: block A: missing 'base' line\n"

    def test_compare_bad_exit_code(self, gm_files, capsys):
        for pair in ((gm_files["bad"], gm_files["double"]), (gm_files["double"], gm_files["bad"])):
            assert main(["compare", *pair]) == 12
            out, err = capsys.readouterr()
            assert out == ""
            assert err == f"{gm_files['bad']}: line 3, col 1: block A: missing 'base' line\n"

    def test_reduce_outputs_manifest(self, gm_files, capsys, tmp_path):
        assert main(["reduce", gm_files["double"]]) == 0
        out = capsys.readouterr().out
        gs = manifest.load_structure(out)
        assert validate_structure(gs) == []

    @pytest.mark.parametrize(
        "base",
        [
            "orientable genus 0 boundaries 0",
            "orientable genus -1 boundaries 3",
            "nonorientable genus 0 boundaries 3",
        ],
    )
    def test_bad_base_line_exit_code(self, base, tmp_path, capsys):
        path = tmp_path / "base.gm"
        path.write_text(DOUBLE_GM.replace("orientable genus 0 boundaries 3", base, 1))
        for command in ("validate", "invariants", "reduce"):
            assert main([command, str(path)]) == 12
            out, err = capsys.readouterr()
            assert out == ""
            assert "line 4" in err and "Traceback" not in err

    def test_version_superscript_two_exit_code(self, tmp_path):
        path = tmp_path / "sup.gm"
        path.write_text("version \u00b2\n", encoding="utf-8")
        assert run_cli(["validate", str(path)]) == (12, "", f"{path}: line 1, col 1: expected: version <integer>\n")

    def test_huge_rank_exit_code(self, tmp_path):
        path = tmp_path / "rank.gm"
        path.write_text("version 1\nblock A\nbase orientable genus 0 boundaries 1000000000000\nend\n")
        rc, out, err = run_cli(["validate", str(path)])
        assert (rc, out) == (12, "")
        assert err.startswith(f"{path}: line 2, col 1: block A: missing generator images ['c1', 'c2',")
        assert len(err.encode()) < 4096 and "Traceback" not in err

    def test_empty_structure_exit_code(self, tmp_path, capsys):
        path = tmp_path / "empty.gm"
        path.write_text("version 1\n")
        for argv in (["validate", str(path)], ["invariants", str(path)],
                     ["reduce", str(path)], ["compare", str(path), str(path)]):
            assert main(argv) == 12
            out, err = capsys.readouterr()
            assert out == ""
            assert "structure has no blocks" in err and "Traceback" not in err

    def test_reduce_nonorientable_exit_code(self, capsys):
        assert main(["validate", str(NONORIENTABLE)]) == 0
        capsys.readouterr()
        assert main(["reduce", str(NONORIENTABLE)]) == 12
        out, err = capsys.readouterr()
        assert out == ""
        assert "non-orientable bases is not supported" in err

    def test_non_utf8_exit_code(self, tmp_path):
        path = tmp_path / "latin.gm"
        path.write_bytes(b"version 1\n\xff\n")
        for command in ("validate", "invariants", "reduce"):
            rc, out, err = run_cli([command, str(path)])
            assert (rc, out) == (12, ""), err
            assert err.startswith(f"{path}: 'utf-8' codec can't decode") and err.count("\n") == 1
            assert "Traceback" not in err
        for pair in ((str(path), DOUBLE), (DOUBLE, str(path))):
            rc, out, err = run_cli(["compare", *pair])
            assert (rc, out) == (12, ""), err
            assert err.startswith(f"{path}: 'utf-8' codec can't decode") and err.count("\n") == 1

    def test_class_past_the_int_str_digit_limit(self, tmp_path):
        # parabolic entries of 4,300 digits, the interpreter's default limit
        # for int-to-str; the third boundary class of each block,
        # n = -2 (10^4300 - 1), has 4,301
        big = 10**4300 - 1
        text = Path(DOUBLE).read_text()
        for old, new in (("[[1,1],", big), ("[[1,2],", big), ("[[1,-1],", -big), ("[[1,-2],", -big)):
            text = text.replace(old, f"[[1,{new}],")
        path = str(tmp_path / "huge.gm")
        Path(path).write_text(text)
        for argv in (["validate", path], ["reduce", path], ["invariants", path],
                     ["compare", path, path]):
            rc, out, err = run_cli(argv)
            assert rc == 0 and "Traceback" not in err, (argv[0], err[-500:])
        rc, out, err = run_cli(["invariants", path])
        assert "Parabolic(+1, n=-1" + "9" * 4299 + "8)" in out

    def test_merge_past_the_int_str_digit_limit(self, tmp_path):
        # every entry read has at most 2,201 digits, but contracting the
        # fiber-preserving glue line A.3-B.3, whose fiber matrix carries
        # 10^2200, gives merged images of more than 4,300
        big = 10**2200
        text = DOUBLE_GM.replace("gen c2 [[1,2],[0,1]]", "gen c2 [[1,-1],[0,1]]")
        text = text.replace("gen c2 [[1,-2],[0,1]]", "gen c2 [[1,1],[0,1]]")
        head, _, _ = text.rpartition("glue A.3 B.3")
        text = head + f"glue A.3 B.3\n  x (1,{big},0)\n  y (0,1,0)\n  t (0,0,-1)\nend\n"
        path = tmp_path / "merge.gm"
        path.write_text(text)
        for argv in (["validate", str(path)], ["invariants", str(path)], ["reduce", str(path)]):
            rc, out, err = run_cli(argv)
            assert (rc, err) == (0, ""), (argv[0], err[-500:])
        assert max(len(n) for n in re.findall(r"\d+", out)) > 4300
        # the reduced text holds integers past int()'s digit limit, and reads back
        reduced = tmp_path / "reduced.gm"
        reduced.write_text(out)
        assert run_cli(["validate", str(reduced)]) == (0, "valid\n", "")
        assert manifest.dump_structure(manifest.load_structure(out)) == out

    def test_compare_same(self, gm_files, capsys):
        assert main(["compare", gm_files["double"], gm_files["double"]]) == 0
        assert capsys.readouterr().out.startswith("Yes")

    def test_compare_distinct(self, gm_files, capsys):
        assert main(["compare", gm_files["double"], gm_files["other"]]) == 10
        assert capsys.readouterr().out.startswith("No")

    def test_compare_inconclusive_exit_code(self, tmp_path):
        # a rotated genus-1 partner: boundaries are matched by position only
        item = bench_gen().match_items(1, 1)[0]
        assert (item.id, item.partner) == ("m00000", "rotate")
        paths = [tmp_path / "m1.gm", tmp_path / "m2.gm"]
        for path, text in zip(paths, (item.text1, item.text2)):
            path.write_text(text)
        assert run_cli(["compare", *map(str, paths)]) == (11, "Inconclusive\n", "")

    def test_block_diagnostics_exit_code(self, tmp_path):
        path = tmp_path / "blocks.gm"
        path.write_text(BAD_BLOCKS_GM)
        assert run_cli(["validate", str(path)]) == (
            12,
            "",
            f"{path}: block A: chi = 0 (annulus): block bases need chi < 0\n"
            f"{path}: block B: boundary labels are not distinct\n",
        )

    def test_reduce_closing_the_base_exit_code(self, tmp_path):
        path = tmp_path / "closed.gm"
        path.write_text(CLOSING_GLUE_GM)
        assert run_cli(["validate", str(path)]) == (0, "valid\n", "")
        assert run_cli(["reduce", str(path)]) == (
            12,
            "",
            f"{path}: contracting this glueing closes the base: the structure is a "
            "torus bundle over a closed surface, not a block presentation\n",
        )

    def test_psi(self, capsys):
        assert main(["psi", "[[1,4],[0,1]]"]) == 0
        assert capsys.readouterr().out.strip() == "4"

    def test_psi_and_matclass_past_the_int_str_digit_limit(self):
        # a 5,000-digit parabolic entry, and R^n L whose word has 10^5000 + 1
        # letters: each printed integer has more digits than str() renders
        n = "9" * 5000
        assert run_cli(["psi", f"[[1,{n}],[0,1]]"]) == (0, n + "\n", "")
        big = 10**5000
        rc, out, err = run_cli(["matclass", f"[[{int_str(big + 1)},{int_str(big)}],[1,1]]"])
        assert (rc, out) == (12, "") and "Traceback" not in err
        assert err == f"hyperbolic word of {int_str(big + 1)} letters; matclass prints at most 1000000\n"

    def test_psi_rejects_bad_matrix(self, capsys):
        assert main(["psi", "[[1,1],[1,1]]"]) == 12

    def test_matclass(self, capsys):
        assert main(["matclass", "[[2,1],[1,1]]"]) == 0
        assert capsys.readouterr().out.strip() == "Hyperbolic(+1, RL)"

    def test_long_run_word(self, capsys):
        matrix = "[[150001,150000],[1,1]]"  # R^150000 L
        proc = subprocess.run(
            [sys.executable, "-m", "gm4.cli", "matclass", matrix],
            capture_output=True,
            text=True,
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == "Hyperbolic(+1, " + "R" * 150000 + "L)\n"
        assert main(["psi", matrix]) == 0
        assert capsys.readouterr().out == "149999\n"

    def test_matclass_refuses_an_over_long_word(self, capsys):
        matrix = "[[1000000001,1000000000],[1,1]]"  # R^(10^9) L
        rc, out, err = run_cli(["matclass", matrix])
        assert (rc, out) == (12, "")
        assert err == "hyperbolic word of 1000000001 letters; matclass prints at most 1000000\n"
        assert main(["psi", matrix]) == 0
        assert capsys.readouterr().out == "999999999\n"
        assert main(["matclass", "[[1000000,999999],[1,1]]"]) == 0  # 10^6 letters
        assert capsys.readouterr().out == "Hyperbolic(+1, " + "R" * 999999 + "L)\n"

    def test_entry_point_subprocess(self, gm_files):
        proc = subprocess.run(
            [sys.executable, "-m", "gm4.cli", "psi", "[[1,-6],[0,1]]"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "-6"


def run_cli(argv):
    """(exit code, stdout, stderr) of an in-process gm4 run; an uncaught
    exception prints its traceback to the captured stderr, as gm4 would."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:
            traceback.print_exc()
            rc = 1
    return rc, out.getvalue(), err.getvalue()


def _product(factors):
    m = Mat2(1, 0, 0, 1)
    for g, k in factors:
        m = m @ g ** k
    return m


def _text(m):
    return f"[[{m.a},{m.b}],[{m.c},{m.d}]]"


# determinant +-1 with large entries; exponents stay moderate because a
# hyperbolic class prints a word about as long as their sum
_unimodular = st.builds(
    lambda factors, flip: _text(_product(factors) @ (Mat2(1, 0, 0, -1) if flip else Mat2(1, 0, 0, 1))),
    st.lists(
        st.tuples(st.sampled_from([R, L, S]), st.integers(-3, 3) | st.integers(-5000, 5000)), max_size=10
    ),
    st.booleans(),
)
_big = st.integers(-(10**60), 10**60)
_singular = st.builds(lambda a, b, k: _text(Mat2(a, b, k * a, k * b)), _big, _big, st.integers(-9, 9))
_arbitrary = st.builds(lambda *e: _text(Mat2(*e)), _big, _big, _big, _big)
# entries around the interpreter's 4300-digit int/str conversion limit
_long_digits = st.builds(
    lambda n, k: f"[[1,{'9' * n}],[0,{k}]]", st.integers(4250, 4350), st.integers(0, 2)
)
_malformed = st.one_of(st.text(alphabet="[],-0123456789 x.", max_size=30), st.text(max_size=30))
matrix_texts = st.one_of(_unimodular, _singular, _arbitrary, _long_digits, _malformed)


class TestMatrixCommandsFuzz:
    """matclass and psi exit 0 with the library's answer or 12 with a
    diagnostic, never with a traceback."""

    @pytest.mark.parametrize("command, value", [("matclass", classify), ("psi", psi)])
    @given(text=matrix_texts)
    @settings(max_examples=250, deadline=None)
    def test_exit_codes_and_output(self, command, value, text):
        # "--": an argument starting with "-" would be an option to argparse
        rc, out, err = run_cli([command, "--", text])
        assert "Traceback" not in err
        assert rc in (0, 12), (rc, err)
        if rc == 12:
            assert out == "" and err
            return
        assert err == ""
        shown = value(manifest.parse_matrix(text, 1))
        assert out == (int_str(shown) if isinstance(shown, int) else str(shown)) + "\n"


MANIFESTS = sorted((ROOT / "manifests").glob("*.gm"))


def _reverse_glue(text, i):
    """text with glue line i (mod their count) written the other way round.
    A manifest that loads as a valid structure is rewritten with that edge's
    ends swapped and its glueing inverted; any other text gets the two end
    tokens of the glue line swapped, which keeps the manifold when the
    glueing is its own inverse, as the trade glueing is."""
    try:
        gs = manifest.load_structure(text)
    except ManifestError:
        gs = None
    if gs is not None and validate_structure(gs) == []:
        edges = list(gs.edges)
        e = edges[i % len(edges)]
        edges[i % len(edges)] = Edge(e.end2, e.end1, iso_inverse(e.iso))
        return manifest.dump_structure(GraphStructure(gs.blocks, tuple(edges)))
    glues = list(re.finditer(r"^glue[ \t]+(\S+)[ \t]+(\S+)", text, re.M))
    if not glues:
        return text
    m = glues[i % len(glues)]
    return text[: m.start(1)] + m.group(2) + text[m.end(1) : m.start(2)] + m.group(1) + text[m.end(2) :]


def _mutant(data, text):
    """text after one to three mutations: an integer perturbed, a line
    deleted or duplicated, two whitespace-separated tokens swapped, or a
    glue line written the other way round."""
    for _ in range(data.draw(st.integers(1, 3), label="mutations")):
        kind = data.draw(st.sampled_from(("integer", "delete", "duplicate", "swap", "reverse")))
        if kind == "reverse":
            text = _reverse_glue(text, data.draw(st.integers(0, 7), label="glue line"))
            continue
        if kind in ("delete", "duplicate"):
            lines = text.splitlines(keepends=True)
            if not lines:
                continue
            i = data.draw(st.integers(0, len(lines) - 1))
            if kind == "duplicate":
                lines.insert(i, lines[i])
            else:
                del lines[i]
            text = "".join(lines)
            continue
        spans = [m.span() for m in re.finditer(r"-?\d+" if kind == "integer" else r"\S+", text)]
        if len(spans) < 2:
            continue
        if kind == "integer":
            a, b = spans[data.draw(st.integers(0, len(spans) - 1))]
            text = text[:a] + str(int(text[a:b]) + data.draw(st.integers(-3, 3))) + text[b:]
        else:
            pick = st.lists(st.integers(0, len(spans) - 1), min_size=2, max_size=2, unique=True)
            (a, b), (c, d) = (spans[i] for i in sorted(data.draw(pick)))
            text = text[:a] + text[c:d] + text[b:c] + text[a:b] + text[d:]
    return text


class TestManifestFuzz:
    """validate, invariants and reduce exit 0, or 12 with a diagnostic, on
    mutated manifests (some with a byte that is not UTF-8), and compare of a mutant with its original, either
    way round, exits 0, 10, 11 or 12; never with a traceback."""

    @given(data=st.data(), path=st.sampled_from(MANIFESTS))
    @settings(max_examples=150, deadline=None)
    def test_mutated_manifests(self, data, path):
        raw = _mutant(data, path.read_text(encoding="utf-8")).encode("utf-8")
        # one mutant in four also has one byte replaced by 0xff, never UTF-8
        if raw and data.draw(st.integers(0, 3), label="0xff byte") == 0:
            i = data.draw(st.integers(0, len(raw) - 1), label="byte")
            raw = raw[:i] + b"\xff" + raw[i + 1 :]
        with tempfile.TemporaryDirectory() as tmp:
            mutant = Path(tmp) / path.name
            mutant.write_bytes(raw)
            for command in ("validate", "invariants", "reduce"):
                rc, out, err = run_cli([command, str(mutant)])
                assert "Traceback" not in err, err
                assert rc in (0, 12), (command, rc, err)
                if rc == 12:
                    assert out == "" and err, command
                else:
                    assert out and err == "", command
            for pair in ((mutant, path), (path, mutant)):
                rc, out, err = run_cli(["compare", *map(str, pair)])
                assert "Traceback" not in err, err
                assert rc in (0, 10, 11, 12), (pair, rc, err)
