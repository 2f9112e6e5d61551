"""Exact arithmetic and conjugacy in GL(2,Z) and SL(2,Z).

Everything here is integer-exact; matrix entries are arbitrary-precision
Python ints, so there is no overflow mode to worry about.  The value types
`Mat2` and `ConjClass` are NamedTuples, so building, comparing and hashing
them runs in C; a Mat2 equals the plain 4-tuple of its entries.

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
  rotation.  The canonical word is the lexicographically least rotation
  with R < L.  It is stored as its runs and power, (R^a1 L^b1 ... R^ak
  L^bk)^n with the runs ((a1, b1), ..., (ak, bk)) of a primitive period,
  so a class takes space per run, not per letter: R^(10^9) L is one pair.
  Classes compare by (runs, n); `str` renders the letters.

The hyperbolic normal form reads the word off the continued fraction of
the attracting fixed point xi = (a - d + sqrt(t^2 - 4)) / 2c of M, one
exact integer step per partial quotient, so its cost grows with the number
of partial quotients and the size of the entries, not with the length of
the word (see `_hyperbolic_normalize`):

* xi is a quadratic irrational, so its continued fraction is eventually
  periodic (Lagrange); a tail x_j is purely periodic iff it is reduced,
  x_j > 1 and -1 < x_j' < 0 (Galois), and the period, taken in pairs
  (a1, b1, ..., ak, bk), is the positive word R^a1 L^b1 ... R^ak L^bk;
* so the walk needs no table of the states it has seen: a pre-period
  loop stops at the first even index j whose tail is reduced, an exact
  integer test on the state, and a period loop, with no sign branch as
  q > 0 on reduced tails, when the state at j comes back.  That is the j
  and the even period that a table of even states would find, since a
  tail off the period never recurs and one on it always does.  The pairs
  of the least even period are a primitive sequence, since a shorter
  period of the pairs would be a shorter even period of the terms, so
  (runs, n) is canonical;
* that word W generates the stabiliser of x_j in SL(2,Z) up to -I, and the
  pre-period U maps x_j to xi, so U^-1 M U = W^n for some n >= 1 (Katok,
  "Coding of closed geodesics after Gauss and Morse", Geom. Dedicata 63
  (1996); Zagier, "Zetafunktionen und quadratische Koerper" (1981),
  sections 13-14);
* n is guessed from the logarithms of the eigenvalues in floating point,
  and the final check U^-1 M U == W^n is exact, so the float can only
  make the check fail, never give a wrong answer;
* the least rotation starts at an R run, and comparing two rotations run
  by run orders the runs by the key (-a, b), the int b - a (max b + 1): a
  longer R run first, then a shorter L run.  Booth's algorithm (Inf. Proc.
  Lett. 10, 1980) finds the least rotation of the key sequence in linear
  time, and of equal rotations of a periodic word it takes the first.

The continued fraction runs on plain ints, and U and W are multiplied out
by `_pairs_matrix`, one column operation per run and each run once.  The
parabolic form also runs on plain ints and builds one Mat2, U (see
`_parabolic_normalize`).

The character SL(2,Z) -> Z/3 (`abelianization_mod3`) is read from a table
of SL(2,Z/3), `CHI3`, which a breadth-first search builds at import.

Conjugacy witnesses follow the convention  C @ M1 @ C.inverse() == M2.
"""
from __future__ import annotations

from math import gcd, isqrt, log, sqrt
from typing import NamedTuple, Optional, Tuple, Union


class NotUnimodularError(ValueError):
    """Matrix determinant is not +1 or -1."""


class NotInSL2ZError(ValueError):
    """Operation requires determinant +1."""


_tuple_new = tuple.__new__


def _no_repetition(self, other):
    """* on a Mat2 or ConjClass, instead of the inherited tuple repetition:
    NotImplemented, so that 2 * R raises TypeError."""
    return NotImplemented


class Mat2(NamedTuple):
    """2x2 integer matrix, row-major entries a b / c d.

    A NamedTuple, so construction, ==, hash and ordering run in C: a Mat2
    equals the plain 4-tuple of its entries and hashes as hash((a, b, c,
    d)).  * is no tuple repetition; it raises TypeError, and @ multiplies.
    """

    a: int
    b: int
    c: int
    d: int

    def det(self) -> int:
        a, b, c, d = self
        return a * d - b * c

    def trace(self) -> int:
        return self.a + self.d

    def __matmul__(self, other: "Mat2") -> "Mat2":
        a, b, c, d = self
        e, f, g, h = other
        # tuple.__new__ skips the generated __new__'s Python frame
        return _tuple_new(Mat2, (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h))

    def __add__(self, other: "Mat2") -> "Mat2":
        a, b, c, d = self
        e, f, g, h = other
        return Mat2(a + e, b + f, c + g, d + h)

    def __neg__(self) -> "Mat2":
        a, b, c, d = self
        return Mat2(-a, -b, -c, -d)

    __mul__ = __rmul__ = _no_repetition

    def inverse(self) -> "Mat2":
        a, b, c, d = self
        det = a * d - b * c
        if det == 1:
            return Mat2(d, -b, -c, a)
        if det == -1:
            return Mat2(-d, b, c, -a)
        raise NotUnimodularError(f"determinant {det}, not unimodular: {self}")

    def __pow__(self, k: int) -> "Mat2":
        if k == 0:
            return I2
        base = self if k > 0 else self.inverse()
        k = abs(k)
        out = None
        while True:
            if k & 1:
                out = base if out is None else out @ base
            k >>= 1
            if not k:
                return out
            base = base @ base

    def apply(self, v: Tuple[int, int]) -> Tuple[int, int]:
        a, b, c, d = self
        x, y = v
        return (a * x + b * y, c * x + d * y)

    def entries(self) -> Tuple[int, int, int, int]:
        return tuple(self)

    def __str__(self) -> str:
        return "[[{},{}],[{},{}]]".format(*map(int_str, self))


I2 = Mat2(1, 0, 0, 1)
R = Mat2(1, 1, 0, 1)
L = Mat2(1, 0, 1, 1)
S = Mat2(0, -1, 1, 0)
J_FLIP = Mat2(1, 0, 0, -1)  # determinant -1 representative for GL tests


def product(mats) -> Mat2:
    """The product of the matrices, left to right (I2 for none)."""
    out = I2
    for m in mats:
        out = out @ m
    return out


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


class ConjClass(NamedTuple):
    """Canonical SL(2,Z) conjugacy class descriptor.

    A NamedTuple, like Mat2: it equals the plain tuple of its fields, and *
    raises TypeError.

    kind is one of "central", "elliptic", "parabolic", "hyperbolic".
    Field usage per kind:
        central:    sign
        parabolic:  sign, n
        elliptic:   order (3, 4 or 6), sign = chirality
        hyperbolic: sign, runs ((a1, b1), ..., (ak, bk)) and power n >= 1:
                    the canonical word (R^a1 L^b1 ... R^ak L^bk)^n, whose
                    runs are the least rotation of a primitive period
    """

    kind: str
    sign: int = 1
    n: int = 0
    order: int = 0
    runs: Tuple[Tuple[int, int], ...] = ()
    power: int = 0

    @property
    def length(self) -> int:
        """Number of letters of the hyperbolic word (0 for other kinds)."""
        return self.power * sum(a + b for a, b in self.runs)

    @property
    def word(self) -> Tuple[str, ...]:
        """The hyperbolic word, one letter "R" or "L" per entry."""
        return tuple(self._letters())

    def _letters(self) -> str:
        return "".join("R" * a + "L" * b for a, b in self.runs) * self.power

    __mul__ = __rmul__ = _no_repetition

    def __str__(self) -> str:
        s = "+1" if self.sign == 1 else "-1"
        if self.kind == "central":
            return f"Central({s})"
        if self.kind == "parabolic":
            return f"Parabolic({s}, n={int_str(self.n)})"
        if self.kind == "elliptic":
            return f"Elliptic(order={self.order}, chirality={s})"
        return f"Hyperbolic({s}, {self._letters()})"


_CHUNK_DIGITS = 1000
_CHUNK = 10**_CHUNK_DIGITS


def int_str(n: int) -> str:
    """str(n), also past the interpreter's limit on int-to-str digits: the
    digits are rendered in chunks of _CHUNK_DIGITS (one str() below _CHUNK)."""
    if -_CHUNK < n < _CHUNK:
        return str(n)
    sign, n = ("-", -n) if n < 0 else ("", n)
    chunks = []
    while n >= _CHUNK:
        n, low = divmod(n, _CHUNK)
        chunks.append(f"{low:0{_CHUNK_DIGITS}d}")
    chunks.append(str(n))
    return sign + "".join(reversed(chunks))


def parse_int(text: str) -> int:
    """The inverse of int_str on an optional "-" and decimal digits, also
    past the interpreter's limit on str-to-int digits: the digits are read
    in chunks of _CHUNK_DIGITS.  A text of at most _CHUNK_DIGITS characters
    is read by one int()."""
    if len(text) <= _CHUNK_DIGITS:
        return int(text)
    digits = text.lstrip("-")
    head = len(digits) % _CHUNK_DIGITS or _CHUNK_DIGITS
    n = int(digits[:head])
    for i in range(head, len(digits), _CHUNK_DIGITS):
        n = n * _CHUNK + int(digits[i : i + _CHUNK_DIGITS])
    return -n if text.startswith("-") else n


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
    _verify(m.apply(v) == v, "eigenvector of eigenvalue 1", m)
    return v


def _verify(ok: bool, what: str, m: Mat2) -> None:
    """Raise RuntimeError unless a computed result passed its check.  Not an
    assert, so that it also runs under python -O."""
    if not ok:
        raise RuntimeError(f"{what} of {m} failed its check")


def _run(letter: str, k: int) -> Mat2:
    """R**k or L**k."""
    return Mat2(1, k, 0, 1) if letter == "R" else Mat2(1, 0, k, 1)


def _least_rotation(seq: list) -> int:
    """Booth's algorithm: the index of the least rotation of seq in O(len).

    Of equal least rotations (a periodic seq) it returns the first, since k
    only ever moves on to a strictly smaller rotation."""
    if seq.count(least := min(seq)) == 1:
        return seq.index(least)
    s = seq + seq
    f = [-1] * len(s)
    k = 0
    for j in range(1, len(s)):
        sj = s[j]
        i = f[j - k - 1]
        while i != -1 and sj != s[k + i + 1]:
            if sj < s[k + i + 1]:
                k = j - i - 1
            i = f[i]
        if sj != s[k + i + 1]:  # then i == -1
            if sj < s[k]:
                k = j
            f[j - k] = -1
        else:
            f[j - k] = i + 1
    return k


def _pairs_matrix(pairs) -> Mat2:
    """Product of R**p @ L**q = [[1+pq,p],[q,1]] over the (p, q) pairs."""
    a, b, c, d = 1, 0, 0, 1
    for p, q in pairs:
        # times R**p adds p times the first column to the second, then
        # times L**q adds q times the second column to the first
        b += p * a
        d += p * c
        a += q * b
        c += q * d
    return Mat2(a, b, c, d)


def _log_eigenvalue(t: int) -> float:
    """log of the larger eigenvalue (t + sqrt(t^2 - 4)) / 2 of a trace t > 2;
    from 2**50 on that eigenvalue is t to double precision."""
    return log((t + sqrt(t * t - 4)) / 2) if t < 2**50 else log(t)


def _hyperbolic_normalize(m: Mat2) -> Tuple[Tuple[Tuple[int, int], ...], int, Mat2]:
    """For trace(m) > 2 return (runs, n, U): the canonical runs
    ((a1, b1), ..., (ak, bk)) of the least even period and n >= 1 with
    U.inverse() @ m @ U == (R^a1 L^b1 ... R^ak L^bk)^n.

    The attracting fixed point xi = (p + sqrt(disc)) / q of m, with
    p = a - d, q = 2c and disc = t^2 - 4, is a quadratic irrational (c != 0
    since t > 2, and q divides disc - p^2 = 4bc).  With root = isqrt(disc)
    and sqrt(disc) = root + theta, 0 < theta < 1, the walk keeps a tail
    (p + sqrt(disc)) / q as the integers s = p + root and q.  Each step
    takes one partial quotient k = floor((s + theta) / q), which is
    floor(s / q) for q > 0 and floor((s + 1) / q) for q < 0, and moves to
    s' = kq - s + 2 root and q' = q_prev + k(s - s'), which is
    (disc - p'^2) / q without squaring.  The pre-period loop stops at the
    first even index j whose tail is reduced, x_j > 1 and -1 < x_j' < 0,
    which is the integer test 0 < q <= s <= 2 root < s + q; an even state
    seen before comes only from a wrong root and fails the positive period
    check.  On the period q > 0, so its loop takes two steps per pass with
    no sign branch until the state at j recurs.  It checks q' > rem after
    each step (s' + q' > 2 root), which keeps q > 0 and s <= 2 root < s + q,
    where a state has one predecessor (the s of its residue mod q in
    (2 root - q, 2 root]) among finitely many, so the walk comes back to j.
    Only a wrong root breaks it, which ends the walk; ending off j fails the
    positive period check, as does a partial quotient below 1.  With P the
    pre-period (it maps x_j to xi) and the period split at its least
    rotation into H and T, U = P H, W = T H and U^-1 m U = W^n, n >= 1,
    checked exactly; one step per partial quotient: (RL)^n walks one period."""
    t = m.trace()
    root = isqrt(t * t - 4)
    root2 = 2 * root
    s, q, q_prev = m.a - m.d + root, 2 * m.c, 2 * m.b
    terms, seen = [], set()
    while not 0 < q <= s <= root2 < s + q:
        _verify((s, q) not in seen, "positive period word", m)
        seen.add((s, q))
        for _ in (0, 1):
            if q > 0:
                k, rem = divmod(s, q)
                s_next = root2 - rem
            else:
                k, rem = divmod(s + 1, q)
                s_next = root2 + 1 - rem
            s, q, q_prev = s_next, q_prev + k * (s - s_next), q
            terms.append(k)
    s_j, q_j = s, q
    xs, ys = [], []
    while True:
        k, rem1 = divmod(s, q)
        s_next = root2 - rem1
        s, q, q_prev = s_next, q_prev + k * (s - s_next), q
        k2, rem = divmod(s, q)
        s_next = root2 - rem
        s, q, q_prev = s_next, q_prev + k2 * (s - s_next), q
        xs.append(k)
        ys.append(k2)
        if q_prev <= rem1 or q <= rem or s == s_j and q == q_j:
            break
    _verify(s == s_j and q == q_j and min(min(xs), min(ys)) >= 1, "positive period word", m)
    pairs = list(zip(xs, ys))
    # least rotation with R < L: y - x (max y + 1) orders the runs as (-x, y)
    bound = max(ys) + 1
    r0 = _least_rotation([y - x * bound for x, y in pairs])
    w = _pairs_matrix(pairs[r0:])
    u = _pairs_matrix(zip(terms[::2], terms[1::2])) if terms else I2
    if r0:
        h = _pairs_matrix(pairs[:r0])
        u = u @ h if terms else h
        w = w @ h
        pairs = pairs[r0:] + pairs[:r0]
    # a trace of at most 2 comes only from a broken product; n = 0 then
    # fails the check
    n = round(_log_eigenvalue(t) / _log_eigenvalue(w.trace())) if w.trace() > 2 else 0
    _verify(u.inverse() @ m @ u == w ** n, "hyperbolic normal form", m)
    return tuple(pairs), n, u


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
    while True:
        c = cur.c
        _verify(c != 0, "elliptic reduction step", m)
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
    found = next((key for key, rep in _ELLIPTIC_REPS.items() if rep == cur), None)
    ok = found is not None and found[0] == order and u_acc.inverse() @ m @ u_acc == cur
    _verify(ok, "elliptic normal form", m)
    return order, found[1], u_acc


def _parabolic_normalize(m: Mat2) -> Tuple[int, int, Mat2]:
    """For |trace| = 2, m != +-I, return (sign, n, U) with
    U.inverse() @ m @ U == sign * [[1,n],[0,1]].

    On plain ints, with K = sign * m - I, nilpotent and nonzero: v = (x, y)
    is the primitive kernel vector of K that eigenvector_eigenvalue_one
    gives, and U = [[x, -q], [y, p]] with x p + y q = 1 from _ext_gcd.  So
    U^-1 K U = [[0, n], [0, 0]], which the exact check confirms: K v = 0,
    the (2,2) entry of U^-1 K U is 0, and n != 0."""
    sign = 1 if m.trace() == 2 else -1
    a, b, c, d = m
    ka, kb, kc, kd = sign * a - 1, sign * b, sign * c, sign * d - 1
    x, y = primitive((kb, -ka) if ka or kb else (kd, -kc))
    g, p, q = _ext_gcd(x, y)
    # w = K (-q, p); the second column of U^-1 K U is U^-1 w, with
    # U^-1 = [[p, q], [-y, x]]
    w0, w1 = kb * p - ka * q, kd * p - kc * q
    n = p * w0 + q * w1
    ok = g == 1 and ka * x + kb * y == 0 == kc * x + kd * y and x * w1 == y * w0 and n != 0
    _verify(ok, "parabolic normal form", m)
    return sign, n, Mat2(x, -q, y, p)


def _normal_form(m: Mat2) -> Tuple[ConjClass, Mat2]:
    """(class, U) with U.inverse() @ m @ U the class's canonical
    representative: sign * I, sign * [[1,n],[0,1]], one of _ELLIPTIC_REPS,
    or sign times the product of the letters of the hyperbolic word."""
    if m.det() != 1:
        raise NotInSL2ZError(f"determinant {m.det()}, classification needs SL(2,Z): {m}")
    if m.b == 0 == m.c:  # then a = d = +-1
        return ConjClass("central", m.a), I2
    t = m.trace()
    if abs(t) == 2:
        sign, n, u = _parabolic_normalize(m)
        return ConjClass("parabolic", sign, n=n), u
    if abs(t) < 2:
        order, chir, u = _elliptic_normalize(m)
        return ConjClass("elliptic", chir, order=order), u
    sign = 1 if t > 2 else -1
    runs, power, u = _hyperbolic_normalize(m if sign == 1 else -m)
    return ConjClass("hyperbolic", sign, runs=runs, power=power), u


def classify(m: Mat2) -> ConjClass:
    """Canonical SL(2,Z) conjugacy class of m (determinant +1 required)."""
    return _normal_form(m)[0]


SL2Z = "SL2Z"
GL2Z = "GL2Z"


def conjugate_in(m1: Mat2, m2: Mat2, ambient: str = SL2Z) -> Tuple[bool, Optional[Mat2]]:
    """Decide whether C @ m1 @ C^-1 == m2 for some C in the ambient group.

    Returns (decision, witness); witness satisfies the displayed equation.
    For ambient SL2Z both inputs must lie in SL(2,Z).  For ambient GL2Z the
    inputs may have determinant -1 as well.  The order of decision is:
    determinants (an input error raises, unequal ones answer no), then
    traces (unequal ones answer no, as trace is a GL(2,Z) conjugacy
    invariant), and only then normal forms.  Determinant -1 pairs are
    decided through their squares (trace != 0) or the integral involution
    classification (trace 0).
    """
    if ambient == SL2Z:
        if m1.det() != 1 or m2.det() != 1:
            raise NotInSL2ZError("SL2Z ambient requires determinant +1 inputs")
        d1 = d2 = 1
    elif ambient == GL2Z:
        d1, d2 = m1.det(), m2.det()
        if abs(d1) != 1 or abs(d2) != 1:
            raise NotUnimodularError("GL2Z ambient requires determinant +-1 inputs")
    else:
        raise ValueError(f"unknown ambient {ambient!r}")
    if d1 != d2 or m1.trace() != m2.trace():
        return False, None
    if d1 == 1:
        nf2 = _normal_form(m2)
        ok, witness = _match_normal_forms(m1, _normal_form(m1), m2, nf2)
        if ok or ambient == SL2Z:
            return ok, witness
        flipped = J_FLIP @ m1 @ J_FLIP
        ok, witness = _match_normal_forms(flipped, _normal_form(flipped), m2, nf2)
        if not ok:
            return False, None
        witness = witness @ J_FLIP
        _verify(witness @ m1 @ witness.inverse() == m2, "GL(2,Z) conjugacy witness", m1)
        return True, witness
    return _conjugate_det_minus_one(m1, m2)


def _match_normal_forms(m1: Mat2, nf1, m2: Mat2, nf2) -> Tuple[bool, Optional[Mat2]]:
    """SL(2,Z) conjugacy of m1 and m2 from their normal forms (class, U):
    the witness is U2 @ U1.inverse()."""
    (cls1, u1), (cls2, u2) = nf1, nf2
    if cls1 != cls2:
        return False, None
    witness = u2 @ u1.inverse()
    _verify(witness @ m1 @ witness.inverse() == m2, "SL(2,Z) conjugacy witness", m1)
    return True, witness


def _involution_normalize(m: Mat2) -> Tuple[Mat2, Mat2]:
    """For m with det -1, trace 0 (so m*m = I) return (rep, U) with
    U.inverse() @ m @ U == rep, rep in {diag(1,-1), [[0,1],[1,0]]}.

    The class is detected by m mod 2; the witness comes from the +-1
    eigenlattices (split case) or the half-sum basis (swap case).
    """
    u_plus = eigenvector_eigenvalue_one(m)
    _verify(isinstance(u_plus, tuple), "eigenvector of eigenvalue 1", m)
    u_minus = eigenvector_eigenvalue_one(-m)
    _verify(isinstance(u_minus, tuple), "eigenvector of eigenvalue -1", m)
    if m.b % 2 == 0 and m.c % 2 == 0:
        u = Mat2(u_plus[0], u_minus[0], u_plus[1], u_minus[1])
        _verify(abs(u.det()) == 1, "eigenbasis", m)
        rep = J_FLIP
    else:
        w1 = ((u_plus[0] + u_minus[0]) // 2, (u_plus[1] + u_minus[1]) // 2)
        _verify((w1[0] * 2, w1[1] * 2) == (u_plus[0] + u_minus[0], u_plus[1] + u_minus[1]),
                "integral half-sum", m)
        w2 = m.apply(w1)
        u = Mat2(w1[0], w2[0], w1[1], w2[1])
        _verify(abs(u.det()) == 1, "half-sum basis", m)
        rep = Mat2(0, 1, 1, 0)
    _verify(u.inverse() @ m @ u == rep, "involution normal form", m)
    return rep, u


def _conjugate_det_minus_one(m1: Mat2, m2: Mat2) -> Tuple[bool, Optional[Mat2]]:
    """Determinant -1 pairs of equal trace, decided as conjugate_in states."""
    t = m1.trace()
    if t == 0:
        rep1, u1 = _involution_normalize(m1)
        rep2, u2 = _involution_normalize(m2)
        if rep1 != rep2:
            return False, None
        witness = u2 @ u1.inverse()
    else:
        # m is determined by its square when trace != 0: m = (m^2 - I)/t
        ok, witness = conjugate_in(m1 @ m1, m2 @ m2, GL2Z)
        if not ok:
            return False, None
    _verify(witness @ m1 @ witness.inverse() == m2, "GL(2,Z) conjugacy witness", m1)
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
    while v.c != 0:  # |c| strictly decreases
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
        check = check @ (_run("R", exp) if gen == "R" else S)
    _verify(check == m, "generator word", m)
    return tuple(out)


def _chi3_table() -> dict:
    """The character R -> 1, S -> 0 on SL(2,Z/3), keyed by entries mod 3,
    by a breadth-first search that checks every edge (see
    abelianization_mod3)."""
    table = {(1, 0, 0, 1): 0}
    queue = [(1, 0, 0, 1)]
    for a, b, c, d in queue:
        value = table[(a, b, c, d)]
        # g @ R = [[a, a+b], [c, c+d]] and g @ S = [[b, -a], [d, -c]]
        for nxt, step in (((a, (a + b) % 3, c, (c + d) % 3), 1), ((b, -a % 3, d, -c % 3), 0)):
            want = (value + step) % 3
            if nxt not in table:
                table[nxt] = want
                queue.append(nxt)
            elif table[nxt] != want:
                raise RuntimeError(f"the character mod 3 is not well defined at {nxt}")
    if len(table) != 24:
        raise RuntimeError(f"R and S reached {len(table)} elements of SL(2,Z/3), not 24")
    return table


CHI3 = _chi3_table()


def abelianization_mod3(m: Mat2) -> int:
    """Image of m under SL(2,Z) -> Z/3 (abelianization Z/12 reduced mod 3).

    R maps to 1 and S maps to 0, so the value is the R-exponent sum of any
    generator decomposition mod 3.  The character factors through reduction
    mod 3, SL(2,Z) -> SL(2,Z/3) -> Z/3, since its kernel holds the normal
    closure of R^3, the congruence subgroup Gamma(3).  So the value is read
    from `CHI3`, built by a breadth-first search from I over right
    multiplication by R and S that gives gR the value of g plus 1 and gS
    the value of g.  Every edge is checked, also one into an element
    already valued, and a conflict raises RuntimeError.  With no conflict,
    f(gh) = f(g) + f(h) by induction on a word for h in R and S, so the
    table is a homomorphism that agrees with the character on R and S, and
    therefore everywhere.
    """
    if m.det() != 1:
        raise NotInSL2ZError(f"determinant {m.det()}: {m}")
    return CHI3[(m.a % 3, m.b % 3, m.c % 3, m.d % 3)]

