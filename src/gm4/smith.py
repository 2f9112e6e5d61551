"""Exact integer matrix routines: Smith normal form, kernels, solving.

Matrices are lists of rows of Python ints.  ``snf_with_transforms`` runs a
Hermite echelon step on the rows and on the columns in turn, keeping both
transforms (Kannan and Bachem, SIAM J. Comput. 8 (1979); Cohen, GTM 138,
2.4.2).  ``kernel_basis`` uses it on the 4-column intertwiner systems of
``fiber_covering_exists`` and of conjugators between blocks with
non-commuting images, and ``solve_integer`` on the 2 x 6 systems of
``bundles.iso_inverse``, met when ``compare`` reads a reversed glue line.

``abelian_invariants`` takes H1 presentations, which grow with the structure
(608 x 320 for a ring of 64 pants blocks) and are sparse, with mostly unit
entries; about half their rows are identifications +-u +- v = 0 or +-u = 0.
A signed union-find, whose root is the least column of its class, applies
those, and every other row is rewritten once on the roots (64 columns are
left of that ring).  Then one Smith step per column, in index order, puts
a cyclic summand on the diagonal; its pivot column never moves, so a
cleared column stays clear.  With the columns numbered along the block
graph, as ``assembly.first_homology`` numbers them, each step touches only
the rows and columns at the front of that order, whose width bounds the fill
(George, "Nested dissection of a regular finite element mesh", SIAM J.
Numer. Anal. 10 (1973)).  The summands merge into the invariant factors at
the end.  Dumas, Saunders and Villard ("On efficient sparse integer matrix
Smith normal form computations", JSC 32 (2001)) hand what the unit pivots
leave to a dense method; on rings of pants blocks that remainder grows with
the ring, so here the sparse elimination runs to the end.
"""
from __future__ import annotations

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
        # Z/a + Z/d = Z/gcd + Z/lcm: the lcm stays and the gcd moves down,
        # until d divides the next entry down and is a multiple of the one
        # below that, where it goes in
        i = len(chain)
        while d > 1:
            if i == 0 or chain[i - 1] % d == 0 and (i == 1 or d % chain[i - 2] == 0):
                chain.insert(max(i - 1, 0), d)
                break
            g = gcd(chain[i - 1], d)
            chain[i - 1], d = chain[i - 1] // g * d, g
            i -= 1
    return chain


def _nearest(e: int, d: int) -> int:
    """e / d rounded to a nearest integer, so |e - _nearest(e, d) d| <= |d| / 2."""
    return (2 * e + d) // (2 * d)


def abelian_invariants(
    rows: Iterable[Mapping[int, int]], n_generators: int
) -> Tuple[int, List[int]]:
    """(free rank, torsion coefficients > 1) of Z^n_generators / row span.

    Each row is sparse, {column: coefficient} with columns in
    range(n_generators); zero coefficients are ignored.
    """
    # Signed union-find: column j stands for sign[j] times column parent[j],
    # a root (parent[j] == j) for itself, and parent -1 for 0.  A root is the
    # least column of its class.
    parent = list(range(n_generators))
    sign = [1] * n_generators

    def find(j: int) -> Tuple[int, int]:
        path = []
        while j >= 0 and parent[j] != j:
            path.append(j)
            j = parent[j]
        s = 1
        for k in reversed(path):
            s *= sign[k]
            parent[k], sign[k] = j, s
        return j, s

    others: List[Mapping[int, int]] = []
    for row in rows:
        entries = [(j, v) for j, v in row.items() if v]
        if len(entries) > 2 or any(v not in (1, -1) for _, v in entries):
            others.append(row)
            continue
        if not entries:
            continue
        # e u + f v = 0 reads u = -e f v, and +-u = 0 reads u = 0, with v = -1
        (u, e), (v, f) = entries if len(entries) == 2 else (entries[0], (-1, 1))
        (ru, su), (rv, sv) = find(u), find(v)
        s = -e * f * su * sv  # ru = s rv
        if ru == rv:
            if ru >= 0 and s == -1:  # 2 ru = 0
                others.append({ru: 2})
        elif ru < rv:
            parent[rv], sign[rv] = ru, s
        else:
            parent[ru], sign[ru] = rv, s
    roots = sum(1 for j in range(n_generators) if parent[j] == j)

    # each other row is rewritten once, on the roots
    a: List[Dict[int, int]] = []
    col_rows: Dict[int, Set[int]] = {}
    for row in others:
        entries: Dict[int, int] = {}
        for j, v in row.items():
            r, s = find(j)
            if r >= 0 and v:
                entries[r] = entries.get(r, 0) + s * v
        entries = {j: v for j, v in entries.items() if v}
        for j in entries:
            col_rows.setdefault(j, set()).add(len(a))
        a.append(entries)

    def sub_row(r: int, f: int, src: Mapping[int, int]) -> None:
        """Row r -= f * src, keeping the column index in step."""
        row = a[r]
        for j, v in src.items():
            w = row.get(j, 0) - f * v
            if w:
                if j not in row:
                    col_rows[j].add(r)
                row[j] = w
            elif j in row:
                del row[j]
                col_rows[j].discard(r)

    def pivot_row(rs: Iterable[int], c: int) -> int:
        return min(rs, key=lambda r: (abs(a[r][c]), len(a[r])))

    # One Smith step per column, in index order.  Euclid row steps, each
    # quotient rounded to nearest, leave the row p of least |entry|, then
    # the shortest, alone in column c; column operations, which touch row p
    # only, reduce its other entries modulo the pivot d.  A remainder e left
    # at column k moves into the pivot by the column pair
    # (c, k) -> (x c + y k, -e/g c + d/g k), with x d + y e = g = gcd(d, e),
    # which puts g at (p, c) and 0 at (p, k) and gives the other rows of
    # column k y times their k entry at c; the step repeats with the smaller
    # pivot.  So the pivot column never moves, and a cleared column stays
    # clear: later operations only combine rows or columns on their nonzero
    # entries, and no column gains a row unless it has one.
    pivots: List[int] = []
    for c in sorted(col_rows):
        if not col_rows[c]:
            continue
        p = pivot_row(col_rows[c], c)
        while True:
            d = a[p][c]
            for r in [r for r in col_rows[c] if r != p]:
                sub_row(r, _nearest(a[r][c], d), a[p])
            left_in_col = [r for r in col_rows[c] if r != p]
            if left_in_col:
                p = pivot_row(left_in_col, c)
                continue
            row_p = a[p]
            for k in [k for k in row_p if k != c]:
                w = row_p[k] - _nearest(row_p[k], d) * d
                if w:
                    row_p[k] = w
                else:
                    del row_p[k]
                    col_rows[k].discard(p)
            if len(row_p) == 1:
                break
            k = min((k for k in row_p if k != c), key=lambda k: abs(row_p[k]))
            g, _, y = _ext_gcd(d, row_p[k])
            t = d // g
            for r in [r for r in col_rows[k] if r != p]:
                row = a[r]
                v = row[k]
                row[k], row[c] = t * v, y * v
                col_rows[c].add(r)
            row_p[c] = g
            del row_p[k]
            col_rows[k].discard(p)
        pivots.append(abs(d))
    return roots - len(pivots), _invariant_factors(d for d in pivots if d > 1)


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
