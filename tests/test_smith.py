"""Sparse H1: `smith.abelian_invariants` against sympy's Smith normal form,
and how its work grows on rings of pants blocks."""
import heapq
import random

import pytest

from gm4 import Edge, first_homology, smith, structure, validate_structure

from conftest import mirror_edge_iso, pants, swap_iso, upper


def sympy_invariants(mat, n_generators):
    """(rank, torsion) of Z^n_generators / row span of the dense `mat`."""
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form

    if not mat or not mat[0]:
        return n_generators, []
    snf = smith_normal_form(sympy.Matrix(mat), domain=sympy.ZZ)
    nonzero = [abs(int(snf[i, i])) for i in range(min(snf.shape)) if snf[i, i] != 0]
    return n_generators - len(nonzero), sorted(d for d in nonzero if d > 1)


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

    @pytest.mark.parametrize("blocks", [4, 8, 12, 16])
    def test_ring_presentations(self, blocks, monkeypatch):
        rnd = random.Random(f"gm4/smith/ring/{blocks}")
        for _ in range(3):
            gs = random_ring(blocks, rnd)
            assert validate_structure(gs) == []
            h1, rows, n = presentation(gs, monkeypatch)
            dense = [[row.get(j, 0) for j in range(n)] for row in rows]
            rank, torsion = sympy_invariants(dense, n)
            # the stable letters of the E - V + 1 edges off a spanning tree
            # are free and have no column
            assert h1 == (rank + len(gs.edges) - len(gs.blocks) + 1, torsion)


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

    def test_work_grows_linearly(self, monkeypatch):
        """Heap pushes, one per entry a changed row offers as a pivot, at
        most about double when the ring doubles."""
        pushes = []

        class CountingHeapq:
            heappop = staticmethod(heapq.heappop)

            @staticmethod
            def heappush(heap, item):
                pushes[-1] += 1
                heapq.heappush(heap, item)

        monkeypatch.setattr(smith, "heapq", CountingHeapq)
        for blocks in (24, 48, 96, 192):
            pushes.append(0)
            first_homology(random_ring(blocks, random.Random(f"gm4/smith/work/{blocks}")))
        for small, large in zip(pushes, pushes[1:]):
            assert large <= 2.5 * small, pushes
