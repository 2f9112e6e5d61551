"""Exact integer matrix routines: Smith normal form, kernels, solving.

Matrices are lists of rows of Python ints.  The gcd-pivot algorithm below is
dense and keeps both transforms.  That is cheap for the 4-column systems of
``kernel_basis`` and ``solve_integer``, but H1 presentations grow with the
structure (416 x 289 for a ring of 64 pants blocks) and there it dominates.
"""
from __future__ import annotations

from typing import List, Optional, Sequence, Tuple


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


def abelian_invariants(mat: Sequence[Sequence[int]], n_generators: int) -> Tuple[int, List[int]]:
    """(free rank, torsion coefficients > 1) of Z^n_generators / row span."""
    if not mat:
        return n_generators, []
    diag = snf_with_transforms(mat)[2]
    nonzero = [d for d in diag if d != 0]
    rank = n_generators - len(nonzero)
    torsion = sorted(d for d in nonzero if d > 1)
    return rank, torsion


def kernel_basis(mat: Sequence[Sequence[int]]) -> List[List[int]]:
    """Basis of the integer kernel {v : mat @ v = 0}."""
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    if cols == 0:
        return []
    if rows == 0:
        return [[1 if i == j else 0 for i in range(cols)] for j in range(cols)]
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
    if rows == 0:
        return [0] * cols
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
    # verify (cheap; sizes are tiny)
    for i in range(rows):
        if sum(mat[i][j] * x[j] for j in range(cols)) != rhs[i]:
            return None
    return x
