"""Exact arithmetic and conjugacy in GL(2,Z) and SL(2,Z).

Everything here is integer-exact; matrix entries are arbitrary-precision
Python ints, so there is no overflow mode to worry about.

Conventions used throughout the package:

    R = [[1,1],[0,1]]   L = [[1,0],[1,1]]   S = [[0,-1],[1,0]]

SL(2,Z) conjugacy classes are canonicalized as follows:

* central:     M = sign * I.
* parabolic:   M is conjugate to sign * [[1,n],[0,1]] with n != 0; the pair
  (sign, n) is a complete invariant (n and -n are distinct classes; they
  merge only under GL(2,Z) conjugation).
* elliptic:    |trace| < 2, finite order in {3,4,6}.  Trace alone does not
  separate the two classes of each order (S and S^-1 are not conjugate in
  SL(2,Z)), so a chirality flag completes the invariant.  Canonical
  representatives: S, S^-1 for order 4 and RS, (RS)^2 and their inverses
  for orders 6 and 3.
* hyperbolic:  |trace| > 2; sign * M with positive trace is conjugate to a
  positive word in R and L containing both letters, unique up to cyclic
  rotation.  The stored word is the lexicographically least rotation with
  R < L.

Conjugacy witnesses follow the convention  C @ M1 @ C.inverse() == M2.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Optional, Tuple, Union


class NotUnimodularError(ValueError):
    """Matrix determinant is not +1 or -1."""


class NotInSL2ZError(ValueError):
    """Operation requires determinant +1."""


@dataclass(frozen=True, order=True)
class Mat2:
    """2x2 integer matrix, row-major entries a b / c d."""

    a: int
    b: int
    c: int
    d: int

    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    def trace(self) -> int:
        return self.a + self.d

    def __matmul__(self, other: "Mat2") -> "Mat2":
        return Mat2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def __neg__(self) -> "Mat2":
        return Mat2(-self.a, -self.b, -self.c, -self.d)

    def inverse(self) -> "Mat2":
        det = self.det()
        if det == 1:
            return Mat2(self.d, -self.b, -self.c, self.a)
        if det == -1:
            return Mat2(-self.d, self.b, self.c, -self.a)
        raise NotUnimodularError(f"determinant {det}, not unimodular: {self}")

    def __pow__(self, k: int) -> "Mat2":
        base = self if k >= 0 else self.inverse()
        k = abs(k)
        out = I2
        while k:
            if k & 1:
                out = out @ base
            base = base @ base
            k >>= 1
        return out

    def apply(self, v: Tuple[int, int]) -> Tuple[int, int]:
        return (self.a * v[0] + self.b * v[1], self.c * v[0] + self.d * v[1])

    def entries(self) -> Tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)

    def __str__(self) -> str:
        return f"[[{self.a},{self.b}],[{self.c},{self.d}]]"


I2 = Mat2(1, 0, 0, 1)
R = Mat2(1, 1, 0, 1)
L = Mat2(1, 0, 1, 1)
S = Mat2(0, -1, 1, 0)
J_FLIP = Mat2(1, 0, 0, -1)  # determinant -1 representative for GL tests

# order-6 rotation fixing rho = (1 + i sqrt 3)/2; T**3 == -I2
T6 = R @ S

_ELLIPTIC_REPS = {
    # (order, chirality) -> canonical representative
    (4, 1): S,
    (4, -1): S.inverse(),
    (6, 1): T6,
    (6, -1): T6.inverse(),
    (3, 1): T6 @ T6,
    (3, -1): (T6 @ T6).inverse(),
}


@dataclass(frozen=True, order=True)
class ConjClass:
    """Canonical SL(2,Z) conjugacy class descriptor.

    kind is one of "central", "elliptic", "parabolic", "hyperbolic".
    Field usage per kind:
        central:    sign
        parabolic:  sign, n
        elliptic:   order (3, 4 or 6), sign = chirality
        hyperbolic: sign, word (canonical cyclic rotation, letters "R"/"L")
    """

    kind: str
    sign: int = 1
    n: int = 0
    order: int = 0
    word: Tuple[str, ...] = ()

    def representative(self) -> Mat2:
        if self.kind == "central":
            return I2 if self.sign == 1 else -I2
        if self.kind == "parabolic":
            m = Mat2(1, self.n, 0, 1)
            return m if self.sign == 1 else -m
        if self.kind == "elliptic":
            return _ELLIPTIC_REPS[(self.order, self.sign)]
        m = word_matrix(self.word)
        return m if self.sign == 1 else -m

    def __str__(self) -> str:
        s = "+1" if self.sign == 1 else "-1"
        if self.kind == "central":
            return f"Central({s})"
        if self.kind == "parabolic":
            return f"Parabolic({s}, n={self.n})"
        if self.kind == "elliptic":
            return f"Elliptic(order={self.order}, chirality={s})"
        return f"Hyperbolic({s}, {''.join(self.word)})"


def word_matrix(word: Tuple[str, ...]) -> Mat2:
    out = I2
    for letter in word:
        out = out @ (R if letter == "R" else L)
    return out


def _ext_gcd(p: int, q: int) -> Tuple[int, int, int]:
    """(g, x, y) with g = gcd >= 0 and p*x + q*y = g."""
    old_r, r = p, q
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        quo = old_r // r
        old_r, r = r, old_r - quo * r
        old_x, x = x, old_x - quo * x
        old_y, y = y, old_y - quo * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def primitive(v: Tuple[int, int]) -> Tuple[int, int]:
    """Divide by the gcd and make the first nonzero coordinate positive."""
    x, y = v
    if x == 0 and y == 0:
        raise ValueError("zero vector has no primitive form")
    g = gcd(x, y)
    x, y = x // g, y // g
    if x < 0 or (x == 0 and y < 0):
        x, y = -x, -y
    return (x, y)


def extend_to_unimodular(v: Tuple[int, int]) -> Mat2:
    """Matrix with determinant +1 whose first column is the primitive v."""
    x, y = v
    g, p, q = _ext_gcd(x, y)
    if g != 1:
        raise ValueError(f"{v} is not primitive")
    # x*p + y*q = 1; columns (x,y) and (-q,p) give determinant x*p + y*q = 1
    return Mat2(x, -q, y, p)


class _AllVectors:
    def __repr__(self) -> str:
        return "AllVectors"


ALL_VECTORS = _AllVectors()

EigenResult = Union[None, _AllVectors, Tuple[int, int]]


def eigenvector_eigenvalue_one(m: Mat2) -> EigenResult:
    """Primitive integer v with M v = v, ALL_VECTORS for M = I, else None.

    Sign convention: first nonzero coordinate positive.
    """
    k = Mat2(m.a - 1, m.b, m.c, m.d - 1)
    if k == Mat2(0, 0, 0, 0):
        return ALL_VECTORS
    if k.det() != 0:
        return None
    if (k.a, k.b) != (0, 0):
        v = primitive((k.b, -k.a))
    else:
        v = primitive((k.d, -k.c))
    assert m.apply(v) == v
    return v


# ---------------------------------------------------------------------------
# quadratic surd comparisons (exact), used by the hyperbolic reduction walk
# ---------------------------------------------------------------------------


def _sign_surd(t: int, e: int, disc: int) -> int:
    """Sign of t + e*sqrt(disc) for disc > 0 and nonsquare, e != 0."""
    if e > 0:
        if t >= 0:
            return 1
        return 1 if e * e * disc > t * t else -1
    if t <= 0:
        return -1
    return 1 if t * t > e * e * disc else -1


def _slope_params(m: Mat2) -> Tuple[int, int, int, int]:
    """Expanding eigendirection slope of hyperbolic m as (P, e, Q, D).

    slope = (P + e*sqrt(D)) / Q with Q > 0; irrational since D is never a
    perfect square for |trace| > 2 and determinant 1.
    """
    t = m.trace()
    disc = t * t - 4
    p, e, q = m.d - m.a, 1, 2 * m.b
    if q < 0:
        p, e, q = -p, -e, -q
    return p, e, q, disc


def _hyperbolic_normalize(m: Mat2) -> Tuple[Tuple[str, ...], Mat2]:
    """For trace(m) > 2 return (canonical cyclic word, U) with
    U.inverse() @ m @ U == word_matrix(word)."""
    cur = m
    u_acc = I2
    p, e, q, disc = _slope_params(cur)
    if _sign_surd(p, e, disc) < 0:
        # rotate so the expanding eigendirection has positive slope
        cur = S.inverse() @ cur @ S
        u_acc = S
        p, e, q, disc = _slope_params(cur)
        assert _sign_surd(p, e, disc) > 0
    # Farey walk: shrink the cone spanned by (u, w) onto the eigendirection
    # until the conjugated matrix maps the cone into itself (all entries >= 0).
    cu, cw = (1, 0), (0, 1)
    guard = 0
    while cur.a < 0 or cur.b < 0 or cur.c < 0 or cur.d < 0:
        guard += 1
        if guard > 100000:
            raise AssertionError(f"hyperbolic reduction did not terminate: {m}")
        med = (cu[0] + cw[0], cu[1] + cw[1])
        # compare slope with med[1]/med[0]
        t_cmp = med[0] * p - med[1] * q
        e_cmp = med[0] * e
        if _sign_surd(t_cmp, e_cmp, disc) < 0:
            cw = med
            cur = R.inverse() @ cur @ R
            u_acc = u_acc @ R
        else:
            cu = med
            cur = L.inverse() @ cur @ L
            u_acc = u_acc @ L
    # peel the nonnegative matrix into its unique R/L factorization
    letters = []
    v = cur
    guard = 0
    while v != I2:
        guard += 1
        if guard > 100000:
            raise AssertionError(f"peeling did not terminate: {m}")
        if v.a >= v.c and v.b >= v.d:
            letters.append("R")
            v = Mat2(v.a - v.c, v.b - v.d, v.c, v.d)
        else:
            assert v.c >= v.a and v.d >= v.b, (m, v)
            letters.append("L")
            v = Mat2(v.a, v.b, v.c - v.a, v.d - v.b)
    assert "R" in letters and "L" in letters, (m, letters)
    # canonical cyclic rotation, lexicographically least with R < L
    rank = {"R": 0, "L": 1}
    best: Optional[Tuple[Tuple[int, ...], int]] = None
    for i in range(len(letters)):
        rot = tuple(rank[x] for x in letters[i:] + letters[:i])
        if best is None or rot < best[0]:
            best = (rot, i)
    i0 = best[1]
    word = tuple(letters[i0:] + letters[:i0])
    prefix = word_matrix(tuple(letters[:i0]))
    u_acc = u_acc @ prefix
    assert u_acc.inverse() @ m @ u_acc == word_matrix(word)
    return word, u_acc


def _elliptic_normalize(m: Mat2) -> Tuple[int, int, Mat2]:
    """For |trace(m)| < 2 return (order, chirality, U) with
    U.inverse() @ m @ U equal to the canonical representative.

    The fixed point of m on the upper half plane is moved into the standard
    fundamental domain; each inversion step strictly decreases |c|, so the
    loop terminates.
    """
    cur = m
    u_acc = I2
    t = m.trace()
    order = {0: 4, 1: 6, -1: 3}[t]
    num_im = 4 - t * t  # 4*c^2*Im(z)^2
    guard = 0
    while True:
        guard += 1
        if guard > 10000:
            raise AssertionError(f"elliptic reduction did not terminate: {m}")
        c = cur.c
        assert c != 0
        # Re(z) = (a - d) / (2c); translate to |Re| <= 1/2
        re_num, re_den = cur.a - cur.d, 2 * c
        if re_den < 0:
            re_num, re_den = -re_num, -re_den
        k = (2 * re_num + re_den) // (2 * re_den)  # nearest integer to re
        if k:
            rk = Mat2(1, k, 0, 1)
            cur = rk.inverse() @ cur @ rk
            u_acc = u_acc @ rk
        # |z|^2 = Re^2 + Im^2 = ((a-d)^2 + 4 - t^2) / (4c^2)
        c = cur.c
        norm_num = (cur.a - cur.d) ** 2 + num_im
        norm_den = 4 * c * c
        if norm_num >= norm_den:
            break
        cur = S @ cur @ S.inverse()
        u_acc = u_acc @ S.inverse()
    # fixed point is now i, rho, or rho - 1
    re2_num = abs(cur.a - cur.d)  # |2c*Re| vs |c| decides Re in {0, +-1/2}
    if re2_num != 0:
        # Re = +-1/2; move rho - 1 to rho if needed
        re_sign = (cur.a - cur.d) * cur.c
        if re_sign < 0:
            cur = R @ cur @ R.inverse()
            u_acc = u_acc @ R.inverse()
    for (ordr, chir), rep in _ELLIPTIC_REPS.items():
        if cur == rep:
            assert ordr == order
            assert u_acc.inverse() @ m @ u_acc == rep
            return order, chir, u_acc
    raise AssertionError(f"elliptic endgame failed: {m} reduced to {cur}")


def _parabolic_normalize(m: Mat2) -> Tuple[int, int, Mat2]:
    """For |trace| = 2, m != +-I, return (sign, n, U) with
    U.inverse() @ m @ U == sign * [[1,n],[0,1]]."""
    sign = 1 if m.trace() == 2 else -1
    mp = m if sign == 1 else -m
    k = Mat2(mp.a - 1, mp.b, mp.c, mp.d - 1)
    if (k.a, k.b) != (0, 0):
        v = primitive((k.b, -k.a))
    else:
        v = primitive((k.d, -k.c))
    u = extend_to_unimodular(v)
    canon = u.inverse() @ mp @ u
    assert (canon.a, canon.c, canon.d) == (1, 0, 1), (m, canon)
    assert canon.b != 0
    return sign, canon.b, u


def _normal_form(m: Mat2) -> Tuple[ConjClass, Mat2]:
    """(class, U) with U.inverse() @ m @ U == class.representative()."""
    if m.det() != 1:
        raise NotInSL2ZError(f"determinant {m.det()}, classification needs SL(2,Z): {m}")
    if m == I2:
        return ConjClass("central", 1), I2
    if m == -I2:
        return ConjClass("central", -1), I2
    t = m.trace()
    if abs(t) == 2:
        sign, n, u = _parabolic_normalize(m)
        return ConjClass("parabolic", sign, n=n), u
    if abs(t) < 2:
        order, chir, u = _elliptic_normalize(m)
        return ConjClass("elliptic", chir, order=order), u
    sign = 1 if t > 2 else -1
    word, u = _hyperbolic_normalize(m if sign == 1 else -m)
    return ConjClass("hyperbolic", sign, word=word), u


def classify(m: Mat2) -> ConjClass:
    """Canonical SL(2,Z) conjugacy class of m (determinant +1 required)."""
    return _normal_form(m)[0]


SL2Z = "SL2Z"
GL2Z = "GL2Z"


def conjugate_in(m1: Mat2, m2: Mat2, ambient: str = SL2Z) -> Tuple[bool, Optional[Mat2]]:
    """Decide whether C @ m1 @ C^-1 == m2 for some C in the ambient group.

    Returns (decision, witness); witness satisfies the displayed equation.
    For ambient SL2Z both inputs must lie in SL(2,Z).  For ambient GL2Z the
    inputs may have determinant -1 as well; determinant -1 pairs are decided
    through their squares (trace != 0) or the integral involution
    classification (trace 0).
    """
    if ambient == SL2Z:
        if m1.det() != 1 or m2.det() != 1:
            raise NotInSL2ZError("SL2Z ambient requires determinant +1 inputs")
        cls1, u1 = _normal_form(m1)
        cls2, u2 = _normal_form(m2)
        if cls1 != cls2:
            return False, None
        witness = u2 @ u1.inverse()
        assert witness @ m1 @ witness.inverse() == m2
        return True, witness
    if ambient != GL2Z:
        raise ValueError(f"unknown ambient {ambient!r}")
    d1, d2 = m1.det(), m2.det()
    if abs(d1) != 1 or abs(d2) != 1:
        raise NotUnimodularError("GL2Z ambient requires determinant +-1 inputs")
    if d1 != d2:
        return False, None
    if d1 == 1:
        ok, witness = conjugate_in(m1, m2, SL2Z)
        if ok:
            return ok, witness
        ok, witness = conjugate_in(J_FLIP @ m1 @ J_FLIP, m2, SL2Z)
        if ok:
            witness = witness @ J_FLIP
            assert witness @ m1 @ witness.inverse() == m2
            return True, witness
        return False, None
    return _conjugate_det_minus_one(m1, m2)


def _involution_normalize(m: Mat2) -> Tuple[Mat2, Mat2]:
    """For m with det -1, trace 0 (so m*m = I) return (rep, U) with
    U.inverse() @ m @ U == rep, rep in {diag(1,-1), [[0,1],[1,0]]}.

    The class is detected by m mod 2; the witness comes from the +-1
    eigenlattices (split case) or the half-sum basis (swap case).
    """
    u_plus = eigenvector_eigenvalue_one(m)
    assert isinstance(u_plus, tuple)
    u_minus = eigenvector_eigenvalue_one(-m)
    assert isinstance(u_minus, tuple)
    if m.b % 2 == 0 and m.c % 2 == 0:
        u = Mat2(u_plus[0], u_minus[0], u_plus[1], u_minus[1])
        assert abs(u.det()) == 1
        rep = J_FLIP
    else:
        w1 = ((u_plus[0] + u_minus[0]) // 2, (u_plus[1] + u_minus[1]) // 2)
        if (w1[0] * 2, w1[1] * 2) != (u_plus[0] + u_minus[0], u_plus[1] + u_minus[1]):
            raise AssertionError(f"half-sum not integral for {m}")
        w2 = m.apply(w1)
        u = Mat2(w1[0], w2[0], w1[1], w2[1])
        assert abs(u.det()) == 1
        rep = Mat2(0, 1, 1, 0)
    assert u.inverse() @ m @ u == rep
    return rep, u


def _conjugate_det_minus_one(m1: Mat2, m2: Mat2) -> Tuple[bool, Optional[Mat2]]:
    if m1.trace() != m2.trace():
        return False, None
    t = m1.trace()
    if t == 0:
        rep1, u1 = _involution_normalize(m1)
        rep2, u2 = _involution_normalize(m2)
        if rep1 != rep2:
            return False, None
        witness = u2 @ u1.inverse()
        assert witness @ m1 @ witness.inverse() == m2
        return True, witness
    # m is determined by its square when trace != 0: m = (m^2 - I)/t
    ok, witness = conjugate_in(m1 @ m1, m2 @ m2, GL2Z)
    if not ok:
        return False, None
    assert witness @ m1 @ witness.inverse() == m2
    return True, witness


# ---------------------------------------------------------------------------
# generator decompositions (Euclidean), used by the signature module
# ---------------------------------------------------------------------------


def generator_word(m: Mat2, pivot: str = "floor") -> Tuple[Tuple[str, int], ...]:
    """Decompose m in SL(2,Z) as an ordered product of R-powers and S.

    Returns letters (gen, exponent) with gen in {"R", "S"} whose left-to-right
    product equals m.  pivot chooses the Euclidean quotient rule ("floor" or
    "round"), giving genuinely different decompositions of the same matrix.
    """
    if m.det() != 1:
        raise NotInSL2ZError(f"determinant {m.det()}: {m}")
    out = []
    v = m
    guard = 0
    while v.c != 0:
        guard += 1
        if guard > 100000:
            raise AssertionError(f"decomposition did not terminate: {m}")
        if pivot == "round":
            q = (2 * v.a + v.c) // (2 * v.c)
        else:
            q = v.a // v.c
        if q:
            out.append(("R", q))
            v = Mat2(v.a - q * v.c, v.b - q * v.d, v.c, v.d)
        out.append(("S", 1))
        v = Mat2(v.c, v.d, -v.a, -v.b)  # S^-1 @ v
    if v.a == 1:
        if v.b:
            out.append(("R", v.b))
    else:
        out.append(("S", 1))
        out.append(("S", 1))
        if v.b:
            out.append(("R", -v.b))
    check = I2
    for gen, exp in out:
        check = check @ ((R ** exp) if gen == "R" else S)
    assert check == m, (m, out)
    return tuple(out)


def abelianization_mod3(m: Mat2) -> int:
    """Image of m under SL(2,Z) -> Z/3 (abelianization Z/12 reduced mod 3).

    R maps to 1 and S maps to 0, so the value is the R-exponent sum of any
    generator decomposition mod 3.
    """
    return sum(exp for gen, exp in generator_word(m) if gen == "R") % 3

