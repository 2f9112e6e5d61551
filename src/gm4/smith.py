"""Exact integer matrix routines: Smith normal form, kernels, solving.

Matrices are lists of rows of Python ints.  ``snf_with_transforms`` runs a
Hermite echelon step on the rows and on the columns in turn, keeping both
transforms (Kannan and Bachem, SIAM J. Comput. 8 (1979); Cohen, GTM 138,
2.4.2).  ``kernel_basis`` uses it on the 4-column intertwiner systems of
``fiber_covering_exists`` and of conjugators between blocks with
non-commuting images, and ``solve_integer`` on the 2 x 6 systems of
``bundles.iso_inverse``, met when ``compare`` reads a reversed glue line.

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
from operator import mul
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from .gl2z import _ext_gcd


def _identity(n: int) -> List[List[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _echelon(rows: List[List[int]], width: int) -> None:
    """Hermite form of the first `width` columns of `rows`, in place; whole
    rows take part, so the columns past `width` record the transform.

    Below each pivot a, an entry b is cleared by the unimodular row operation
    [[x, y], [-b/g, a/g]] with x a + y b = g = gcd(a, b), or, when a | b, by
    subtracting b/a times the pivot row, which keeps that row; the pivot is
    made positive and the entries above it are reduced modulo it.
    """
    n, top = len(rows), 0
    for j in range(width):
        if top == n:
            return
        piv = rows[top]
        for i in range(top + 1, n):
            row = rows[i]
            a, b = piv[j], row[j]
            if b and a and b % a == 0:
                k = b // a
                rows[i] = [e - k * f for e, f in zip(row, piv)]
            elif b:
                g, x, y = _ext_gcd(a, b)
                s, t = b // g, a // g
                piv, rows[i] = [x * f + y * e for e, f in zip(row, piv)], [t * e - s * f for e, f in zip(row, piv)]
        p = piv[j]
        if not p:
            continue
        if p < 0:
            p, piv = -p, [-f for f in piv]
        rows[top] = piv
        for i in range(top):
            k = rows[i][j] // p
            if k:
                rows[i] = [e - k * f for e, f in zip(rows[i], piv)]
        top += 1


def snf_with_transforms(
    mat: Sequence[Sequence[int]],
) -> Tuple[List[List[int]], List[List[int]], List[int]]:
    """(U, V, diag) with U @ mat @ V diagonal, U and V unimodular.

    diag has length min(rows, cols), entries nonnegative with d_i | d_{i+1}.
    `_echelon` runs on [A | U], then on [A^T | V^T], until A is diagonal; if
    d_i does not divide d_{i+1}, column i+1 is added to column i, and the
    next pass puts gcd(d_i, d_{i+1}) in the corner.  It terminates: each pass
    leaves a positive first pivot dividing the last one, and an unchanged
    pivot divided its column (row), which the pass cleared keeping the pivot
    row, so the next pass clears its row (column) or lowers it.  A cleared
    first row and column stay clear, and the rest follows by induction; a
    divisibility step keeps d_0..d_{i-1} and lowers d_i.
    """
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    au, vt = [list(row) + unit for row, unit in zip(mat, _identity(rows))], _identity(cols)
    while True:
        _echelon(au, cols)
        avt = [list(col) + t for col, t in zip(zip(*au), vt)]
        _echelon(avt, rows)
        if not any(any(row[i + 1:rows]) for i, row in enumerate(avt)):
            d = [avt[i][i] for i in range(min(rows, cols))]
            i = next((i for i in range(len(d) - 1) if gcd(d[i], d[i + 1]) != d[i]), None)
            if i is None:
                return [row[cols:] for row in au], [list(col) for col in zip(*avt)][rows:], d
            avt[i] = [e + f for e, f in zip(avt[i], avt[i + 1])]  # column i of A += column i+1
        au = [list(col) + row[cols:] for col, row in zip(zip(*avt), au)]
        vt = [row[rows:] for row in avt]


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
    """Basis of the integer kernel {v : mat @ v = 0}: V's columns past the rank."""
    _, v, diag = snf_with_transforms(mat)
    return [list(col) for col in zip(*v)][sum(1 for d in diag if d):]


def solve_integer(
    mat: Sequence[Sequence[int]], rhs: Sequence[int]
) -> Optional[List[int]]:
    """One integer solution x of mat @ x = rhs, or None.

    With U mat V = diag: x = V y, y_i = (U rhs)_i // d_i, and y_i = 0 where
    d_i = 0 or past diag.  A solution exists iff d_i | (U rhs)_i and
    (U rhs)_i = 0 past the rank, and then x is one, so mat @ x = rhs decides.
    """
    u, v, diag = snf_with_transforms(mat)
    y = [sum(map(mul, row, rhs)) // d if d else 0 for row, d in zip(u, diag)]
    x = [sum(map(mul, row, y)) for row in v]
    return x if all(sum(map(mul, row, x)) == r for row, r in zip(mat, rhs)) else None
