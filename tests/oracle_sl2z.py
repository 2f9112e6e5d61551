"""Independent brute-force SL(2,Z) conjugacy oracle for the test suite.

Deliberately self-contained (raw 4-tuples, no package imports): decisions
come from breadth-first search over conjugators that are words of bounded
length in the generators R, L, S.

The one exception is `mat2_parabolic_normalize`, the Mat2 routine that
`gl2z._parabolic_normalize` ran before it moved to plain ints; it is kept
to replay the int routine against, so it uses the package's Mat2.
"""
from typing import Dict, FrozenSet, Iterable, List, Set, Tuple

from gm4.gl2z import Mat2, _ext_gcd, eigenvector_eigenvalue_one

MTuple = Tuple[int, int, int, int]

R: MTuple = (1, 1, 0, 1)
L: MTuple = (1, 0, 1, 1)
S: MTuple = (0, -1, 1, 0)
I: MTuple = (1, 0, 0, 1)

GENERATORS = (R, L, S)


def mul(x: MTuple, y: MTuple) -> MTuple:
    a, b, c, d = x
    e, f, g, h = y
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def inv(x: MTuple) -> MTuple:
    a, b, c, d = x
    assert a * d - b * c == 1
    return (d, -b, -c, a)


_GEN_INV = {g: inv(g) for g in GENERATORS}


def conjugate(g: MTuple, m: MTuple) -> MTuple:
    return mul(mul(g, m), _GEN_INV[g])


def conjugacy_orbit(m: MTuple, depth: int = 12) -> FrozenSet[MTuple]:
    """All w m w^-1 over words w of length <= depth in {R, L, S}."""
    seen: Set[MTuple] = {m}
    frontier: List[MTuple] = [m]
    for _ in range(depth):
        nxt: List[MTuple] = []
        for x in frontier:
            for g in GENERATORS:
                y = conjugate(g, x)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
        if not frontier:
            break
    return frozenset(seen)


def sl2z_entries_up_to(bound: int) -> List[MTuple]:
    out = []
    rng = range(-bound, bound + 1)
    for a in rng:
        for b in rng:
            for c in rng:
                for d in rng:
                    if a * d - b * c == 1:
                        out.append((a, b, c, d))
    return out


def _sign_surd(t: int, e: int, disc: int) -> int:
    """Sign of t + e*sqrt(disc) for nonsquare disc > 0 and e != 0."""
    if e > 0:
        return 1 if t >= 0 or e * e * disc > t * t else -1
    return -1 if t <= 0 or e * e * disc > t * t else 1


def _slope(m: MTuple) -> Tuple[int, int, int, int]:
    """Expanding eigendirection slope (p + e*sqrt(disc)) / q, q > 0."""
    a, b, c, d = m
    p, e, q = d - a, 1, 2 * b
    if q < 0:
        p, e, q = -p, -e, -q
    return p, e, q, (a + d) ** 2 - 4


def letterwise_normal_form(m: MTuple) -> Tuple[str, MTuple]:
    """Hyperbolic normal form of m (trace > 2) one letter at a time.

    A Farey walk conjugates by one R or L per step until every entry is
    nonnegative, the peel takes one row off per letter, and the least
    rotation (R < L, the first one on ties) comes from comparing all
    rotations, in O(len^2).  Returns (word, U) with U^-1 m U equal to the
    product of the word's letters."""
    u, cur = I, m
    p, e, q, disc = _slope(cur)
    if _sign_surd(p, e, disc) < 0:
        u, cur = S, mul(mul(inv(S), cur), S)
        p, e, q, disc = _slope(cur)
    cu, cw = (1, 0), (0, 1)
    while min(cur) < 0:
        med = (cu[0] + cw[0], cu[1] + cw[1])
        if _sign_surd(med[0] * p - med[1] * q, med[0] * e, disc) < 0:
            cw, g = med, R
        else:
            cu, g = med, L
        cur, u = mul(mul(inv(g), cur), g), mul(u, g)
    letters = []
    a, b, c, d = cur
    while (a, b, c, d) != I:
        if a >= c and b >= d:
            letters.append("R")
            a, b = a - c, b - d
        else:
            letters.append("L")
            c, d = c - a, d - b
    ranked = "".join(letters).replace("R", "0").replace("L", "1")
    i0 = min(range(len(ranked)), key=lambda i: (ranked[i:] + ranked[:i], i))
    for x in letters[:i0]:
        u = mul(u, R if x == "R" else L)
    return "".join(letters[i0:] + letters[:i0]), u


def mat2_parabolic_normalize(m: Mat2) -> Tuple[int, int, Mat2]:
    """(sign, n, U) with U^-1 m U == sign * [[1,n],[0,1]] for a parabolic m,
    by Mat2 products: U extends the eigenvalue-1 eigenvector of sign * m to
    a determinant-1 matrix with the _ext_gcd coefficients."""
    sign = 1 if m.trace() == 2 else -1
    mp = m if sign == 1 else -m
    x, y = eigenvector_eigenvalue_one(mp)
    g, p, q = _ext_gcd(x, y)
    if g != 1:
        raise ValueError(f"{(x, y)} is not primitive")
    # x*p + y*q = 1; columns (x,y) and (-q,p) give determinant x*p + y*q = 1
    u = Mat2(x, -q, y, p)
    canon = u.inverse() @ mp @ u
    if (canon.a, canon.c, canon.d) != (1, 0, 1) or canon.b == 0:
        raise RuntimeError(f"parabolic normal form of {m} failed its check")
    return sign, canon.b, u
