"""Sparse H1: `smith.abelian_invariants` against sympy's Smith normal form,
and how its work grows on rings of pants blocks."""
import dis
import random
import sys
from collections import Counter
from pathlib import Path

import pytest

from gm4 import Edge, first_homology, load_structure, smith, structure, validate_structure

from conftest import bench_ring, mirror_edge_iso, pants, swap_iso, upper


def sympy_invariants(mat, n_generators):
    """(rank, torsion) of Z^n_generators / row span of the dense `mat`."""
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form

    if not mat or not mat[0]:
        return n_generators, []
    snf = smith_normal_form(sympy.Matrix(mat), domain=sympy.ZZ)
    nonzero = [abs(int(snf[i, i])) for i in range(min(snf.shape)) if snf[i, i] != 0]
    return n_generators - len(nonzero), sorted(d for d in nonzero if d > 1)


def sympy_diagonal(mat):
    """The diagonal of sympy's Smith normal form of `mat`, up to sign, sorted."""
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form

    snf = smith_normal_form(sympy.Matrix(mat), domain=sympy.ZZ)
    return sorted(abs(int(snf[i, i])) for i in range(min(snf.shape)))


def matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def check_smith_form(mat):
    """snf_with_transforms(mat) keeps its contract and has sympy's diagonal."""
    sympy = pytest.importorskip("sympy")
    u, v, d = smith.snf_with_transforms(mat)
    rows, cols = len(mat), len(mat[0])
    assert matmul(matmul(u, mat), v) == [[d[i] if i == j else 0 for j in range(cols)] for i in range(rows)]
    assert abs(sympy.Matrix(u).det()) == abs(sympy.Matrix(v).det()) == 1
    assert all(x >= 0 for x in d) and all(b % a == 0 if a else b == 0 for a, b in zip(d, d[1:]))
    assert sorted(d) == sympy_diagonal(mat)


def sparse(mat):
    return [{j: v for j, v in enumerate(row) if v} for row in mat]


# values and density of the random matrices of each kind
KINDS = {
    "sparse": ((-3, -2, -1, 1, 2, 3, 5), 0.25),
    "dense": (tuple(range(-9, 10)), 0.9),
    "no_units": ((-6, -4, -3, -2, 2, 3, 4, 6, 9), 0.5),
    "units": ((-1, 1), 0.4),
}


def random_matrix(rnd, kind, rows, cols):
    values, density = KINDS[kind]
    return [
        [rnd.choice(values) if rnd.random() < density else 0 for _ in range(cols)]
        for _ in range(rows)
    ]


def pants_ring(a, bs, preserving):
    """Ring of 2 * len(bs) pants blocks: P(2j) has c1 = R^a, c2 = R^b_j and
    P(2j+1) has c1 = R^-b_j, c2 = R^-a; P(i).2 - P(i+1).1 trade fiber and
    base, and the rung P(2j).3 - P(2j+1).3 trades too, or preserves the
    fiber when preserving[j]."""
    n = 2 * len(bs)
    blocks, edges = {}, []
    for j, b in enumerate(bs):
        left, right = f"P{2 * j:03d}", f"P{2 * j + 1:03d}"
        blocks[left] = pants(upper(a), upper(b))
        blocks[right] = pants(upper(-b), upper(-a))
        rung = mirror_edge_iso(upper(-a - b)) if preserving[j] else swap_iso(-a - b)
        edges.append(Edge((left, "3"), (right, "3"), rung))
    for i in range(n):
        twist = bs[i // 2] if i % 2 == 0 else -a
        edges.append(Edge((f"P{i:03d}", "2"), (f"P{(i + 1) % n:03d}", "1"), swap_iso(twist)))
    return structure(blocks, edges)


def random_ring(blocks, rnd):
    values = [v for v in range(-5, 6) if v]
    a = rnd.choice(values)
    bs = [rnd.choice([v for v in values if v != -a]) for _ in range(blocks // 2)]
    return pants_ring(a, bs, [rnd.random() < 0.5 for _ in bs])


def presentation(gs, monkeypatch):
    """(H1, sparse rows, generator count) that first_homology hands to
    abelian_invariants."""
    seen = []
    inner = smith.abelian_invariants

    def record(rows, n_generators):
        rows = list(rows)
        seen.append((rows, n_generators))
        return inner(rows, n_generators)

    with monkeypatch.context() as m:
        m.setattr(smith, "abelian_invariants", record)
        h1 = first_homology(gs)
    (rows, n), = seen
    return h1, rows, n


class TestAgainstSympy:
    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_random_matrices(self, kind):
        rnd = random.Random(f"gm4/smith/{kind}")
        for _ in range(80):
            rows, cols = rnd.randint(1, 10), rnd.randint(1, 10)
            mat = random_matrix(rnd, kind, rows, cols)
            assert smith.abelian_invariants(sparse(mat), cols) == sympy_invariants(mat, cols), mat
            check_smith_form(mat)

    @pytest.mark.parametrize(
        "mat",
        # the alternation cycles on both when the echelon step neither
        # subtracts the pivot row from a divisible entry nor reduces above
        # the pivot, and on the second when the divisibility fix is a row
        # operation on [A | U], which that reduction undoes
        [
            [[2, 0, -3, 9, 4, 9], [-1, 2, 2, 6, 9, 4], [0, 6, -1, 4, 4, 1],
             [-3, 9, -3, 0, 6, 9], [0, 1, 9, 4, -3, 6], [0, 6, 0, 2, 4, 1]],
            [[9, 0, 4], [9, 1, 9], [9, -1, 4], [0, 6, -3]],
        ],
    )
    def test_dense_form_terminates(self, mat):
        check_smith_form(mat)

    def test_zero_rows_and_columns(self):
        rnd = random.Random("gm4/smith/zeros")
        for _ in range(60):
            kind = rnd.choice(sorted(KINDS))
            mat = random_matrix(rnd, kind, rnd.randint(1, 7), rnd.randint(1, 7))
            for _ in range(rnd.randint(1, 3)):
                mat.insert(rnd.randint(0, len(mat)), [0] * len(mat[0]))
            for _ in range(rnd.randint(1, 3)):
                at = rnd.randint(0, len(mat[0]))
                for row in mat:
                    row.insert(at, 0)
            cols = len(mat[0])
            want = sympy_invariants(mat, cols)
            assert smith.abelian_invariants(sparse(mat), cols) == want, mat
            # explicit zero coefficients are ignored
            assert smith.abelian_invariants([dict(enumerate(row)) for row in mat], cols) == want

    def test_diagonal_orders_merge_into_invariant_factors(self):
        rnd = random.Random("gm4/smith/diagonal")
        for _ in range(40):
            values = (0, 1, 2, 3, 4, 6, 8, 9, 12, 25)
            orders = [rnd.choice(values) for _ in range(rnd.randint(1, 8))]
            mat = [[d if i == j else 0 for j in range(len(orders))] for i, d in enumerate(orders)]
            want = sympy_invariants(mat, len(orders))
            assert smith.abelian_invariants(sparse(mat), len(orders)) == want, orders

    @pytest.mark.parametrize("value", [0, 1, -1, 6, -6])
    def test_one_by_one(self, value):
        assert smith.abelian_invariants([{0: value}], 1) == sympy_invariants([[value]], 1)

    def test_empty(self):
        assert smith.abelian_invariants([], 3) == (3, [])
        assert smith.abelian_invariants([], 0) == (0, [])
        assert smith.abelian_invariants([{}], 2) == (2, [])

    def test_empty_shapes_in_the_dense_routines(self):
        # no rows reads as no columns: the general path answers []
        assert smith.kernel_basis([]) == smith.kernel_basis([[]]) == []
        assert smith.solve_integer([], []) == []
        assert smith.kernel_basis([[0, 0]]) == [[1, 0], [0, 1]]
        assert smith.snf_with_transforms([]) == ([], [], [])
        assert smith.snf_with_transforms([[]]) == ([[1]], [], [])

    @pytest.mark.parametrize("blocks", [4, 8, 12, 16])
    def test_ring_presentations(self, blocks, monkeypatch):
        rnd = random.Random(f"gm4/smith/ring/{blocks}")
        for _ in range(3):
            check_presentation(random_ring(blocks, rnd), monkeypatch)

    def test_corpus_presentations(self, full_corpus, monkeypatch):
        # handles, glueings with entries past +-1 and non-orientable bases
        path = Path(__file__).resolve().parent / "invalid_manifests" / "nonorientable_merge.gm"
        for gs in [*full_corpus.values(), load_structure(path.read_text())]:
            check_presentation(gs, monkeypatch)


def check_presentation(gs, monkeypatch):
    """sympy reduces the rows that first_homology hands to
    abelian_invariants to the same H1."""
    assert validate_structure(gs) == []
    h1, rows, n = presentation(gs, monkeypatch)
    dense = [[row.get(j, 0) for j in range(n)] for row in rows]
    rank, torsion = sympy_invariants(dense, n)
    # the handles of orientable bases and the stable letters of the
    # E - V + 1 edges off a spanning tree are free and have no column
    handles = sum(len(block.handles) for _, block in gs.blocks if block.surface.orientable)
    assert h1 == (rank + handles + len(gs.edges) - len(gs.blocks) + 1, torsion)


class TestGrowth:
    def test_dense_smith_form_stays_out_of_h1(self, monkeypatch):
        """H1 eliminates every pivot sparsely; the dense routine is for the
        small systems of kernel_basis and solve_integer."""
        shapes = []
        inner = smith.snf_with_transforms

        def record(mat):
            shapes.append((len(mat), len(mat[0]) if mat else 0))
            return inner(mat)

        monkeypatch.setattr(smith, "snf_with_transforms", record)
        for blocks in (8, 12, 24, 48, 96):
            first_homology(random_ring(blocks, random.Random(f"gm4/smith/growth/{blocks}")))
        assert shapes == []

    def test_dense_transforms_stay_small(self):
        """On 15 x 15 matrices with entries in [-2^16, 2^16], every entry of
        U and V has under 1,024 bits."""
        for seed in range(8):
            rnd = random.Random(f"gm4/smith/transforms/{seed}")
            mat = [[rnd.randint(-2 ** 16, 2 ** 16) for _ in range(15)] for _ in range(15)]
            u, v, _ = smith.snf_with_transforms(mat)
            assert max(abs(e).bit_length() for t in (u, v) for row in t for e in row) < 1024, seed

    def test_work_grows_linearly(self):
        """Entry writes on the baseline ring grow at most 5.5x (2.35x per
        doubling) from 768 to 3,072 blocks."""
        writes = [entry_writes(bench_ring(n)) for n in (768, 3072)]
        assert writes[1] <= 5.5 * writes[0], writes


def entry_writes(gs):
    """Subscript stores and deletes that the code of gm4.smith executes
    while first_homology(gs) runs: each line event of a smith frame counts
    the STORE_SUBSCR and DELETE_SUBSCR instructions of its line."""
    count = 0
    per_line = {}  # code object -> {line: writes}

    def calls(frame, event, arg):
        code = frame.f_code
        if code.co_filename != smith.__file__:
            return None
        writes = per_line.get(code)
        if writes is None:
            writes = per_line[code] = Counter(
                ins.positions.lineno
                for ins in dis.get_instructions(code)
                if ins.opname in ("STORE_SUBSCR", "DELETE_SUBSCR")
            )

        def lines(frame, event, arg):
            nonlocal count
            if event == "line":
                count += writes.get(frame.f_lineno, 0)
            return lines

        return lines

    previous = sys.gettrace()
    sys.settrace(calls)
    try:
        first_homology(gs)
    finally:
        sys.settrace(previous)
    return count
