"""Reference glueing validation for the test suite, by element arithmetic.

`reference_validate_glueing` is the check that `bundles.validate_glueing`
ran before it was put in closed form: every relation is evaluated on
normal-form elements x^a y^b t^k of the target group, powers by repeated
squaring, and bijectivity is decided by one Euclid echelon pass over six
fiber vectors that tracks their source elements (`reference_image_data`,
which also returns the preimages of x, y and t).  It shares no arithmetic
with `gm4.bundles`: its group law is `Group` below, on `Mat2` powers.
"""
from gm4.bundles import PI1_T, PI1_X, PI1_Y, Pi1Element
from gm4.gl2z import _ext_gcd


class Group:
    """pi1(M_phi) = Z^2 x| Z on normal forms (a, b, k)."""

    def __init__(self, phi):
        self.phi = phi

    def mul(self, e1, e2):
        v = (self.phi ** e1.k).apply((e2.a, e2.b))
        return Pi1Element(e1.a + v[0], e1.b + v[1], e1.k + e2.k)

    def inv(self, e):
        v = (self.phi ** -e.k).apply((e.a, e.b))
        return Pi1Element(-v[0], -v[1], -e.k)

    def power(self, e, n):
        if n < 0:
            return self.power(self.inv(e), -n)
        out = Pi1Element(0, 0, 0)
        base = e
        while n:
            if n & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            n >>= 1
        return out

    def conjugate(self, g, e):
        return self.mul(self.mul(g, e), self.inv(g))


def apply(iso, e):
    tgt = Group(iso.target.phi)
    out = tgt.mul(tgt.power(iso.x_img, e.a), tgt.power(iso.y_img, e.b))
    return tgt.mul(out, tgt.power(iso.t_img, e.k))


def relation_violations(iso):
    out = []
    tgt = Group(iso.target.phi)
    x, y, t = iso.x_img, iso.y_img, iso.t_img
    if tgt.mul(x, y) != tgt.mul(y, x):
        out.append("relation [x,y] = 1 fails on images")
    phi = iso.source.phi
    for name, j, gen, p, q in (("x", 1, x, phi.a, phi.c), ("y", 2, y, phi.b, phi.d)):
        # windings first: a mismatch fails before any power is taken
        rhs_k = p * x.k + q * y.k
        if gen.k != rhs_k or tgt.conjugate(t, gen) != tgt.mul(tgt.power(x, p), tgt.power(y, q)):
            out.append(f"relation t {name} t^-1 = x^phi1{j} y^phi2{j} fails on images")
    return out


def _echelon_pivot(group, rows, i):
    pivot = None
    rest = []
    for v, e in rows:
        if pivot is None and v[i]:
            pivot = (v, e)
            continue
        if pivot is not None:
            w, f = pivot
            while v[i]:
                q = w[i] // v[i]
                rem = (w[0] - q * v[0], w[1] - q * v[1])
                w, f, v, e = v, e, rem, group.mul(f, group.power(e, -q))
            pivot = (w, f)
        rest.append((v, e))
    return pivot, rest


def reference_image_data(iso):
    """(winding gcd g, source preimages of x, y, t or None if not bijective)."""
    src, tgt = Group(iso.source.phi), Group(iso.target.phi)
    g1, p, q = _ext_gcd(iso.x_img.k, iso.y_img.k)
    g, u, v = _ext_gcd(g1, iso.t_img.k)
    if g != 1:
        return g, None
    w0_src = Pi1Element(p * u, q * u, v)
    w0_tgt = apply(iso, w0_src)
    if w0_tgt.k != 1:
        raise RuntimeError(f"winding element {w0_src} maps to {w0_tgt}, not to winding 1")
    rows = []
    for gen, img in ((PI1_X, iso.x_img), (PI1_Y, iso.y_img), (PI1_T, iso.t_img)):
        e = tgt.mul(img, tgt.power(w0_tgt, -img.k))
        rows.append(((e.a, e.b), src.mul(gen, src.power(w0_src, -img.k))))
    rows += [(tgt.phi.apply(vec), src.conjugate(w0_src, e)) for vec, e in rows]
    pivot_x, rest = _echelon_pivot(src, rows, 0)
    pivot_y, _ = _echelon_pivot(src, rest, 1)
    if pivot_x is None or pivot_y is None:
        return 1, None
    (sx, r), ex = pivot_x
    (_, sy), ey = pivot_y
    if abs(sx) != 1 or abs(sy) != 1:
        return 1, None
    y_pre = src.power(ey, sy)
    x_pre = src.power(src.mul(ex, src.power(y_pre, -r)), sx)
    delta = tgt.mul(PI1_T, tgt.inv(w0_tgt))
    t_pre = src.mul(src.mul(src.power(x_pre, delta.a), src.power(y_pre, delta.b)), w0_src)
    return 1, (x_pre, y_pre, t_pre)


def reference_validate_glueing(iso):
    out = relation_violations(iso)
    if out:
        return out
    g, pre = reference_image_data(iso)
    if g != 1:
        out.append(f"not surjective: base winding numbers have gcd {g}")
    elif pre is None:
        out.append("not bijective: fiber image lattice is a proper sublattice")
    return out
