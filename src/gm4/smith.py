"""Exact integer matrix routines: Smith normal form, kernels, solving.

Matrices are lists of rows of Python ints.  ``snf_with_transforms`` is a dense
gcd-pivot algorithm that keeps both transforms; ``kernel_basis`` uses it on
the 4-column intertwiner systems, reached only through the conjugators of
blocks with non-commuting images and ``fiber_covering_exists``, and
``solve_integer`` on the 2 x 6 systems of ``bundles.iso_inverse``, reached
when ``compare`` meets a glue line written the other way round.

``abelian_invariants`` takes H1 presentations, which grow with the structure
(416 x 289 for a ring of 64 pants blocks) and are sparse, with mostly unit
entries.  It keeps them as sparse rows, with a column -> rows index so that a
pivot costs only the rows it touches, and eliminates one pivot at a time:
first the +-1 entries, each a diagonal 1, Markowitz-style by least
(row length - 1) x (column count - 1); then the other entries, where Euclid
steps around the pivot leave it alone in its row and column, a cyclic summand.
Those summands merge into the invariant factors at the end.  Dumas, Saunders
and Villard ("On efficient sparse integer matrix Smith normal form
computations", JSC 32 (2001)) hand what the unit pivots leave to a dense
method; on rings of pants blocks that remainder grows with the ring (55 x 55
at 384 blocks), so here the sparse elimination runs to the end.
"""
from __future__ import annotations

import heapq
from math import gcd
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple


def _identity(n: int) -> List[List[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def snf_with_transforms(
    mat: Sequence[Sequence[int]],
) -> Tuple[List[List[int]], List[List[int]], List[int]]:
    """(U, V, diag) with U @ mat @ V diagonal, U and V unimodular.

    diag has length min(rows, cols), entries nonnegative with d_i | d_{i+1}.
    """
    a = [list(row) for row in mat]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    u = _identity(rows)
    v = _identity(cols)

    def row_op(i1: int, i2: int, q: int) -> None:
        for j in range(cols):
            a[i2][j] -= q * a[i1][j]
        for j in range(rows):
            u[i2][j] -= q * u[i1][j]

    def col_op(j1: int, j2: int, q: int) -> None:
        for i in range(rows):
            a[i][j2] -= q * a[i][j1]
        for i in range(cols):
            v[i][j2] -= q * v[i][j1]

    def row_swap(i1: int, i2: int) -> None:
        a[i1], a[i2] = a[i2], a[i1]
        u[i1], u[i2] = u[i2], u[i1]

    def col_swap(j1: int, j2: int) -> None:
        for i in range(rows):
            a[i][j1], a[i][j2] = a[i][j2], a[i][j1]
        for i in range(cols):
            v[i][j1], v[i][j2] = v[i][j2], v[i][j1]

    def row_negate(i: int) -> None:
        for j in range(cols):
            a[i][j] = -a[i][j]
        for j in range(rows):
            u[i][j] = -u[i][j]

    diag: List[int] = []
    top = 0
    while top < rows and top < cols:
        pr = pc = -1
        best = None
        for i in range(top, rows):
            for j in range(top, cols):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < best):
                    best = abs(a[i][j])
                    pr, pc = i, j
        if pr < 0:
            break
        row_swap(top, pr)
        col_swap(top, pc)
        while True:
            # clear column
            for i in range(top + 1, rows):
                while a[i][top] != 0:
                    q = a[i][top] // a[top][top]
                    row_op(top, i, q)
                    if a[i][top] != 0:
                        row_swap(top, i)
            # clear row
            dirty = False
            for j in range(top + 1, cols):
                while a[top][j] != 0:
                    q = a[top][j] // a[top][top]
                    col_op(top, j, q)
                    if a[top][j] != 0:
                        col_swap(top, j)
                        dirty = True
            if not dirty and all(a[i][top] == 0 for i in range(top + 1, rows)):
                break
        if a[top][top] < 0:
            row_negate(top)
        # divisibility fix
        piv = a[top][top]
        offender = None
        for i in range(top + 1, rows):
            for j in range(top + 1, cols):
                if a[i][j] % piv != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            row_op(offender, top, -1)  # add offending row to pivot row
            continue
        diag.append(piv)
        top += 1
    while len(diag) < min(rows, cols):
        diag.append(0)
    return u, v, diag


def _invariant_factors(orders: Iterable[int]) -> List[int]:
    """Invariant factors > 1, ascending, of the sum of the cyclic groups Z/d."""
    chain: List[int] = []  # ascending, each dividing the next
    for d in orders:
        # Z/a + Z/d = Z/gcd + Z/lcm: the lcm stays, the gcd moves down
        for i in range(len(chain) - 1, -1, -1):
            g = gcd(chain[i], d)
            chain[i], d = chain[i] // g * d, g
            if d == 1:
                break
        if d > 1:
            chain.insert(0, d)
    return chain


def abelian_invariants(
    rows: Iterable[Mapping[int, int]], n_generators: int
) -> Tuple[int, List[int]]:
    """(free rank, torsion coefficients > 1) of Z^n_generators / row span.

    Each row is sparse, {column: coefficient} with columns in
    range(n_generators); zero coefficients are ignored.
    """
    a: Dict[int, Dict[int, int]] = {}
    col_rows: Dict[int, Set[int]] = {}
    for r, row in enumerate(rows):
        entries = {j: v for j, v in row.items() if v}
        if entries:
            a[r] = entries
            for j in entries:
                col_rows.setdefault(j, set()).add(r)

    def put(r: int, j: int, w: int) -> None:
        """a[r][j] = w, keeping the column index in step."""
        row = a[r]
        if w:
            if j not in row:
                col_rows.setdefault(j, set()).add(r)
            row[j] = w
        elif j in row:
            del row[j]
            col_rows[j].discard(r)

    def sub_row(r: int, f: int, src: Mapping[int, int]) -> None:
        row = a[r]
        for j, v in src.items():
            put(r, j, row.get(j, 0) - f * v)

    # Lazy heap of (|entry| > 1, Markowitz cost, |entry|, row, column): unit
    # pivots first, each kind by least (row length - 1) x (column count - 1).
    # Every row an operation changes pushes all its entries again, so a
    # record whose |entry| is out of date can be dropped; a popped record
    # whose cost has grown is pushed back.
    heap: List[Tuple[bool, int, int, int, int]] = []

    def push_row(r: int) -> None:
        row = a[r]
        for j, v in row.items():
            size = abs(v)
            heapq.heappush(heap, (size != 1, (len(row) - 1) * (len(col_rows[j]) - 1), size, r, j))

    for r in a:
        push_row(r)
    pivots: List[int] = []
    while heap:
        _, cost, size, p, c = heapq.heappop(heap)
        d = a[p].get(c) if p in a else None
        if d is None or abs(d) != size:
            continue
        now = (len(a[p]) - 1) * (len(col_rows[c]) - 1)
        if now > cost:
            heapq.heappush(heap, (size != 1, now, size, p, c))
            continue
        # Smith step at (p, c): clear column c with row p, then row p with
        # column c, whose column operations touch row p only; a nonzero
        # remainder, smaller than |d|, becomes the pivot and the step repeats.
        touched: Set[int] = set()
        while True:
            for r in [r for r in col_rows[c] if r != p]:
                sub_row(r, a[r][c] // d, a[p])
                touched.add(r)
            left_in_col = [r for r in col_rows[c] if r != p]
            if left_in_col:
                p = min(left_in_col, key=lambda r: abs(a[r][c]))
            else:
                row_p = a[p]
                for k in [k for k in row_p if k != c]:
                    put(p, k, row_p[k] % d)
                left_in_row = [k for k in row_p if k != c]
                if not left_in_row:
                    break
                c = min(left_in_row, key=lambda k: abs(row_p[k]))
            d = a[p][c]
        col_rows[c].discard(p)
        del a[p]
        pivots.append(abs(d))
        for r in touched:
            if r == p:
                continue
            if a[r]:
                push_row(r)
            else:
                del a[r]
    # every entry has a heap record, so the matrix is now empty
    return n_generators - len(pivots), _invariant_factors(d for d in pivots if d > 1)


def kernel_basis(mat: Sequence[Sequence[int]]) -> List[List[int]]:
    """Basis of the integer kernel {v : mat @ v = 0}."""
    cols = len(mat[0]) if mat else 0
    _, v, diag = snf_with_transforms(mat)
    out = []
    for j in range(cols):
        if j >= len(diag) or diag[j] == 0:
            out.append([v[i][j] for i in range(cols)])
    return out


def solve_integer(
    mat: Sequence[Sequence[int]], rhs: Sequence[int]
) -> Optional[List[int]]:
    """One integer solution x of mat @ x = rhs, or None."""
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    u, v, diag = snf_with_transforms(mat)
    ub = [sum(u[i][j] * rhs[j] for j in range(rows)) for i in range(rows)]
    y = [0] * cols
    for i in range(rows):
        d = diag[i] if i < len(diag) else 0
        if d == 0:
            if i < len(ub) and ub[i] != 0:
                return None
            continue
        if ub[i] % d != 0:
            return None
        if i < cols:
            y[i] = ub[i] // d
    x = [sum(v[i][j] * y[j] for j in range(cols)) for i in range(cols)]
    # verify: cheap on the 2 x 2 systems of the edge test
    for i in range(rows):
        if sum(mat[i][j] * x[j] for j in range(cols)) != rhs[i]:
            return None
    return x
