"""Surfaces with boundary, blocks (torus bundles over them, given by their
monodromy) and the torus bundles over circles that bound them.

Generator convention (fixed once for the whole package): a block's images
are read by position, the handle images first, then c1, ..., c{b-1}.

* orientable surface of genus g with b boundary components: free
  generators a1, b1, ..., ag, bg, c1, ..., c{b-1}, and the handle
  product N = [a1,b1]...[ag,bg] with [x,y] = x y x^-1 y^-1;
* non-orientable surface with q crosscaps and b boundary components: free
  generators d1, ..., dq, c1, ..., c{b-1}, and N = d1^2 ... dq^2.

The boundary monodromies are c1, ..., c{b-1} and, at the last boundary,
(N c1 ... c{b-1})^-1, so N times all b of them, in order, is I.

pi1 of the torus bundle M_phi over a circle is presented on x, y, t with
[x, y] = 1,  t x t^-1 = x^phi11 y^phi21,  t y t^-1 = x^phi12 y^phi22,
and its elements are kept in the normal form x^a y^b t^k, written (a,b,k).

A glueing (BoundaryIso) is given by the images of x, y and t.  It is valid
when the images satisfy the source relations and the map is bijective:
the winding numbers k of the three images have gcd 1, so some w0 maps to
winding 1, and the fiber image L0 + psi L0 is all of Z^2, where psi is the
target monodromy and L0 is spanned by the fiber parts of the generator
images once their w0 powers are removed.  Both checks are closed forms on
2x2 integer matrices: powers are (v, 0)^n = (n v, 0) and
(v, k)^n = (G(psi^k, n) v, n k) with G(A, n) = sum of A^i over i < n, and
the fiber image is Z^2 iff the gcd of the 2x2 minors of its six spanning
vectors is 1.  iso_inverse finds the preimages of x and y as integer
combinations of the same six vectors, with smith.solve_integer.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import combinations
from math import gcd
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .gl2z import GL2Z, I2, ConjClass, Mat2, NotInSL2ZError, NotUnimodularError, _ext_gcd, classify, conjugate_in, int_str, product
from . import smith


class UnsupportedOperationError(ValueError):
    """Input is outside the operation's stated scope."""


@dataclass(frozen=True)
class SurfaceWithBoundary:
    orientable: bool
    genus: int  # crosscap count when non-orientable
    boundary_count: int

    def __post_init__(self) -> None:
        if self.boundary_count < 1:
            raise ValueError("surfaces here have at least one boundary component")
        if self.genus < 0 or (not self.orientable and self.genus < 1):
            raise ValueError("bad genus / crosscap count")

    def euler_characteristic(self) -> int:
        if self.orientable:
            return 2 - 2 * self.genus - self.boundary_count
        return 2 - self.genus - self.boundary_count

    def pi1_rank(self) -> int:
        if self.orientable:
            return 2 * self.genus + self.boundary_count - 1
        return self.genus + self.boundary_count - 1

    def generator_name(self, i: int) -> str:
        """The name of generator i (0 <= i < pi1_rank()) in convention order:
        a1, b1, ..., ag, bg or d1, ..., dq, then c1, ..., c{b-1}."""
        handles = 2 * self.genus if self.orientable else self.genus
        if i >= handles:
            return f"c{i - handles + 1}"
        return f"{'ab'[i % 2]}{i // 2 + 1}" if self.orientable else f"d{i + 1}"

    def is_disc(self) -> bool:
        return self.orientable and self.genus == 0 and self.boundary_count == 1

    def is_annulus(self) -> bool:
        return self.orientable and self.genus == 0 and self.boundary_count == 2

    def is_mobius(self) -> bool:
        return not self.orientable and self.genus == 1 and self.boundary_count == 1

    def describe(self) -> str:
        kind = "orientable" if self.orientable else "non-orientable"
        return f"{kind} genus {self.genus} with {self.boundary_count} boundary components"


@dataclass(frozen=True)
class Block:
    """A torus bundle over a surface with boundary: the monodromy images of
    the generators, in convention order (the handles, then the c's),
    and boundary labels (1..b)."""

    surface: SurfaceWithBoundary
    images: Tuple[Mat2, ...]
    labels: Tuple[str, ...] = ()

    def boundary_labels(self) -> Tuple[str, ...]:
        if self.labels:
            return self.labels
        return tuple(str(i) for i in range(1, self.surface.boundary_count + 1))

    @property
    def handles(self) -> Tuple[Mat2, ...]:
        """The images of a1, b1, ..., ag, bg, or of d1, ..., dq."""
        return self.images[: len(self.images) - self.surface.boundary_count + 1]

    @property
    def cs(self) -> Tuple[Mat2, ...]:
        """The images of c1, ..., c{b-1}."""
        return self.images[len(self.images) - self.surface.boundary_count + 1 :]

    @cached_property
    def handle_product(self) -> Mat2:
        """N = [a1,b1]...[ag,bg], or d1^2 ... dq^2 over a non-orientable base."""
        hs = self.handles
        if self.surface.orientable:
            return product(a @ b @ a.inverse() @ b.inverse() for a, b in zip(hs[::2], hs[1::2]))
        return product(d @ d for d in hs)

    @cached_property
    def monodromies(self) -> Dict[str, Mat2]:
        """Boundary label -> boundary monodromy, in boundary order, read by
        position: c1, ..., c{b-1}, then (N c1 ... c{b-1})^-1."""
        cs = self.cs
        last = (self.handle_product @ product(cs)).inverse()
        return dict(zip(self.boundary_labels(), cs + (last,)))

    @cached_property
    def classes(self) -> Dict[str, ConjClass]:
        """Boundary label -> SL(2,Z) class of its monodromy: each boundary
        is classified once per (immutable) block."""
        return {lbl: classify(m) for lbl, m in self.monodromies.items()}

    @cached_property
    def boundary_classes(self) -> Tuple[str, ...]:
        """The sorted SL(2,Z) classes of the boundary monodromies."""
        return tuple(sorted(str(cls) for cls in self.classes.values()))


def validate_block(block: Block) -> List[str]:
    out: List[str] = []
    surface = block.surface
    if surface.is_mobius():
        out.append("excluded surface: Mobius band (chi = 0)")
    elif surface.is_disc():
        out.append("excluded surface: disc (chi = 1)")
    elif surface.is_annulus():
        out.append("chi = 0 (annulus): block bases need chi < 0")
    labels = block.boundary_labels()
    if len(labels) != surface.boundary_count:
        out.append(
            f"{len(labels)} boundary labels for {surface.boundary_count} boundary components"
        )
    elif len(set(labels)) != len(labels):
        out.append("boundary labels are not distinct")
    rank = surface.pi1_rank()
    if len(block.images) != rank:
        out.append(f"monodromy image count {len(block.images)} does not match pi1 rank {rank}")
        return out
    # over a non-orientable base the handles are the d's, of determinant -1;
    # a generator is named only for a message
    d_count = 0 if surface.orientable else len(block.handles)
    for i, m in enumerate(block.images):
        det, want = m.det(), -1 if i < d_count else 1
        if det == want:
            continue
        name = surface.generator_name(i)
        if det not in (1, -1):
            out.append(f"image of {name} has determinant {det}, not unimodular")
        elif surface.orientable:
            out.append(
                f"image of {name} has determinant -1 over an orientable base: "
                "total space would be non-orientable"
            )
        else:
            out.append(
                f"image of {name} has determinant {det}; orientation "
                f"pattern over a non-orientable base needs {want}"
            )
    return out


# ---------------------------------------------------------------------------
# torus bundles over the circle and pi1 normal-form arithmetic
# ---------------------------------------------------------------------------


class Pi1Element(NamedTuple):
    a: int
    b: int
    k: int

    def __str__(self) -> str:
        return f"({int_str(self.a)},{int_str(self.b)},{int_str(self.k)})"


PI1_X = Pi1Element(1, 0, 0)
PI1_Y = Pi1Element(0, 1, 0)
PI1_T = Pi1Element(0, 0, 1)


def _geometric(a: Mat2, n: int) -> Mat2:
    """G(a, n) = a^0 + ... + a^(n-1), and -(a^n + ... + a^-1) for n < 0, so
    that (v, k)^n = (G(phi^k, n) v, n k) in pi1(M_phi).  Built by doubling:
    G(a, 2m) = G(a, m) + a^m G(a, m) and G(a, m + 1) = G(a, m) + a^m."""
    if n < 0:
        inv = a.inverse()
        return -(inv @ _geometric(inv, -n))
    if n == 0:
        return Mat2(0, 0, 0, 0)
    g, p = I2, a  # G(a, m) and a^m for m the leading bits of n
    for bit in bin(n)[3:]:
        g, p = g + p @ g, p @ p
        if bit == "1":
            g, p = g + p, p @ a
    return g


def _power(phi: Mat2, e: Pi1Element, n: int) -> Pi1Element:
    """e^n in pi1(M_phi), in closed form: (v, 0)^n = (n v, 0) and
    (v, k)^n = (G(phi^k, n) v, n k)."""
    if e.k == 0 or n == 0:
        return Pi1Element(n * e.a, n * e.b, 0)
    if n == 1:
        return e
    a, b = _geometric(phi ** e.k, n).apply((e.a, e.b))
    return Pi1Element(a, b, n * e.k)


@dataclass(frozen=True)
class TorusBundleOverCircle:
    phi: Mat2

    def __post_init__(self) -> None:
        if self.phi.det() not in (1, -1):
            raise NotUnimodularError(f"monodromy must be unimodular: {self.phi}")

    def mul(self, e1: Pi1Element, e2: Pi1Element) -> Pi1Element:
        if e1.k == 0:
            return Pi1Element(e1.a + e2.a, e1.b + e2.b, e2.k)
        v = (self.phi ** e1.k).apply((e2.a, e2.b))
        return Pi1Element(e1.a + v[0], e1.b + v[1], e1.k + e2.k)

    def inv(self, e: Pi1Element) -> Pi1Element:
        if e.k == 0:
            return Pi1Element(-e.a, -e.b, 0)
        v = (self.phi ** -e.k).apply((e.a, e.b))
        return Pi1Element(-v[0], -v[1], -e.k)

    def power(self, e: Pi1Element, n: int) -> Pi1Element:
        return _power(self.phi, e, n)

    def conjugate(self, g: Pi1Element, e: Pi1Element) -> Pi1Element:
        return self.mul(self.mul(g, e), self.inv(g))


# ---------------------------------------------------------------------------
# glueing isomorphisms between boundary torus bundles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundaryIso:
    """pi1 isomorphism of torus bundles over circles, by generator images.

    x, y generate the fiber subgroup of the source and t its base circle;
    images are normal forms in the target.
    """

    source: TorusBundleOverCircle
    target: TorusBundleOverCircle
    x_img: Pi1Element
    y_img: Pi1Element
    t_img: Pi1Element

    def apply(self, e: Pi1Element) -> Pi1Element:
        tgt = self.target
        out = tgt.mul(_power(tgt.phi, self.x_img, e.a), _power(tgt.phi, self.y_img, e.b))
        return tgt.mul(out, _power(tgt.phi, self.t_img, e.k))

    @staticmethod
    def identity(bundle: TorusBundleOverCircle) -> "BoundaryIso":
        return BoundaryIso(bundle, bundle, PI1_X, PI1_Y, PI1_T)


def compose_isos(second: BoundaryIso, first: BoundaryIso) -> BoundaryIso:
    if second.source.phi != first.target.phi:
        raise ValueError("iso composition mismatch: inner target != outer source")
    return BoundaryIso(
        first.source,
        second.target,
        second.apply(first.x_img),
        second.apply(first.y_img),
        second.apply(first.t_img),
    )


def _winding_element(iso: BoundaryIso) -> Tuple[int, Optional[Pi1Element], Optional[Pi1Element]]:
    """(g, w0, f(w0)), g the gcd of the winding numbers of the images.  When
    g is 1, w0 = x^(pu) y^(qu) t^v is a source element of image winding 1;
    otherwise both elements are None."""
    g1, p, q = _ext_gcd(iso.x_img.k, iso.y_img.k)
    g, u, v = _ext_gcd(g1, iso.t_img.k)
    if g != 1:
        return g, None, None
    w0_src = Pi1Element(p * u, q * u, v)
    w0_tgt = iso.apply(w0_src)
    if w0_tgt.k != 1:
        raise RuntimeError(f"winding element {w0_src} maps to {w0_tgt}, not to winding 1")
    return 1, w0_src, w0_tgt


def _fiber_vectors(iso: BoundaryIso, w0_tgt: Pi1Element) -> List[Tuple[int, int]]:
    """The fiber parts of g_i f(w0)^-k_i for the generator images
    g_i = (v_i, k_i), which are v_i - G(psi, k_i) f(w0), then their
    psi-images: together they span the image of the fiber."""
    psi = iso.target.phi
    omega = (w0_tgt.a, w0_tgt.b)
    vecs = []
    for img in (iso.x_img, iso.y_img, iso.t_img):
        c = _geometric(psi, img.k).apply(omega)
        vecs.append((img.a - c[0], img.b - c[1]))
    return vecs + [psi.apply(vec) for vec in vecs]


def _relation_violations(iso: BoundaryIso) -> List[str]:
    """The source relations that fail on the images X = (x, kx), Y = (y, ky)
    and T = (tau, kt), decided on fiber vectors of the target M_psi:
    [X, Y] = 1 iff x + psi^kx y = y + psi^ky x, and T G T^-1 has winding kg
    and fiber part tau + psi^kt g - psi^kg tau."""
    out: List[str] = []
    psi = iso.target.phi
    x, y, t = iso.x_img, iso.y_img, iso.t_img
    px, py, pt = psi ** x.k, psi ** y.k, psi ** t.k
    xy, yx = px.apply((y.a, y.b)), py.apply((x.a, x.b))
    if (x.a + xy[0], x.b + xy[1]) != (y.a + yx[0], y.b + yx[1]):
        out.append("relation [x,y] = 1 fails on images")
    phi = iso.source.phi
    for name, j, gen, pg, p, q in (("x", 1, x, px, phi.a, phi.c), ("y", 2, y, py, phi.b, phi.d)):
        # windings add, so a winding mismatch fails the relation before any
        # power (whose cost grows with the exponents) is taken
        if gen.k == p * x.k + q * y.k:
            # x^p y^q = (G(psi^kx, p) x + psi^(p kx) G(psi^ky, q) y, p kx + q ky)
            xp, yq = _power(psi, x, p), _power(psi, y, q)
            xpy = (px ** p).apply((yq.a, yq.b))
            tg, gt = pt.apply((gen.a, gen.b)), pg.apply((t.a, t.b))
            if (t.a + tg[0] - gt[0], t.b + tg[1] - gt[1]) == (xp.a + xpy[0], xp.b + xpy[1]):
                continue
        out.append(f"relation t {name} t^-1 = x^phi1{j} y^phi2{j} fails on images")
    return out


def validate_glueing(iso: BoundaryIso) -> List[str]:
    """Check the glueing invariants in closed form: the source relations hold
    on the images, and the induced map is bijective (the winding numbers
    have gcd 1 and the gcd of the 2x2 minors of the fiber vectors, the
    index of their span in Z^2, is 1)."""
    out = _relation_violations(iso)
    if out:
        return out
    g, _, w0_tgt = _winding_element(iso)
    if g != 1:
        return [f"not surjective: base winding numbers have gcd {g}"]
    minors = 0
    for (a, b), (c, d) in combinations(_fiber_vectors(iso, w0_tgt), 2):
        minors = gcd(minors, a * d - b * c)
        if minors == 1:
            return []
    return ["not bijective: fiber image lattice is a proper sublattice"]


def is_fiber_preserving(iso: BoundaryIso) -> bool:
    """True iff the images of both fiber generators stay in the fiber."""
    return iso.x_img.k == 0 and iso.y_img.k == 0


def fiber_matrix(iso: BoundaryIso) -> Mat2:
    """Induced matrix on fiber coordinates of a fiber-preserving iso
    (columns are the images of x and y)."""
    if not is_fiber_preserving(iso):
        raise UnsupportedOperationError("iso is not fiber-preserving")
    return Mat2(iso.x_img.a, iso.y_img.a, iso.x_img.b, iso.y_img.b)


def iso_inverse(iso: BoundaryIso) -> BoundaryIso:
    """Inverse isomorphism, computed from generator preimages.  Raises
    ValueError when the images break the source relations or the map is
    not bijective.

    With winding gcd 1, each source generator times a power of w0 maps to a
    fiber vector of `_fiber_vectors`, and its w0-conjugate to the psi-image.
    The preimage of x (of y) is the product of these six elements raised to
    an integer solution c of (fiber vectors) c = (1, 0) (= (0, 1)), found by
    smith.solve_integer; none exists iff their span is not Z^2.  The six lie
    in the kernel of winding o iso, which the iso maps injectively into the
    abelian fiber, so neither the order of the product nor the choice of c
    changes the element.
    """
    broken = _relation_violations(iso)
    if broken:
        raise ValueError("iso is not a homomorphism: " + "; ".join(broken))
    g, w0_src, w0_tgt = _winding_element(iso)
    if g != 1:
        raise ValueError("iso is not bijective")
    src, tgt = iso.source, iso.target
    elems = [
        src.mul(gen, src.power(w0_src, -img.k))
        for gen, img in ((PI1_X, iso.x_img), (PI1_Y, iso.y_img), (PI1_T, iso.t_img))
    ]
    elems += [src.conjugate(w0_src, e) for e in elems]
    mat = list(zip(*_fiber_vectors(iso, w0_tgt)))  # 2 x 6: the vectors are its columns
    pre = []
    for rhs in ((1, 0), (0, 1)):
        c = smith.solve_integer(mat, rhs)
        if c is None:
            raise ValueError("iso is not bijective")
        pre.append(reduce(src.mul, map(src.power, elems, c)))
    x_pre, y_pre = pre
    delta = tgt.mul(PI1_T, tgt.inv(w0_tgt))  # a fiber element, as w0_tgt.k == 1
    pre.append(src.mul(src.mul(src.power(x_pre, delta.a), src.power(y_pre, delta.b)), w0_src))
    for img, gen in zip(map(iso.apply, pre), (PI1_X, PI1_Y, PI1_T)):
        if img != gen:
            raise RuntimeError(f"computed preimage of {gen} maps to {img}")
    return BoundaryIso(iso.target, iso.source, *pre)


# ---------------------------------------------------------------------------
# structural criteria for torus bundles over the circle
# ---------------------------------------------------------------------------


def fibration_unique(bundle: TorusBundleOverCircle) -> bool:
    """False exactly when the monodromy has an eigenvector of eigenvalue 1
    (equivalently det(phi - I) = 0), in which case the bundle refibers."""
    phi = bundle.phi
    if phi.det() != 1:
        raise NotInSL2ZError("fibration uniqueness stated for SL(2,Z) monodromy")
    return Mat2(phi.a - 1, phi.b, phi.c, phi.d - 1).det() != 0


def torus_bundle_homology(bundle: TorusBundleOverCircle) -> Tuple[int, List[int]]:
    """(rank, torsion coefficients) of H1 = Z + coker(phi - I)."""
    phi = bundle.phi
    k = [{0: phi.a - 1, 1: phi.b}, {0: phi.c, 1: phi.d - 1}]
    rank, torsion = smith.abelian_invariants(k, 2)
    return rank + 1, torsion


def square_root_closed(surface: SurfaceWithBoundary, boundary_index: int) -> bool:
    """Whether the boundary subgroup over the given boundary circle is square
    root closed in the total space group; false only over the Mobius band."""
    if not 0 <= boundary_index < surface.boundary_count:
        raise IndexError(f"boundary index {boundary_index} out of range")
    return not surface.is_mobius()


def orientation_reversing_self_diffeo_exists(phi: Mat2) -> bool:
    """For triangular phi: an orientation-reversing self-map of M_phi exists
    iff the associated circle bundle has Euler number 0, iff phi = diag(+-1)."""
    if phi.b != 0 and phi.c != 0:
        raise UnsupportedOperationError(
            "criterion is stated for triangular monodromies only"
        )
    return phi.b == 0 and phi.c == 0 and abs(phi.a) == 1 and abs(phi.d) == 1


# ---------------------------------------------------------------------------
# fiber covering maps: intertwining monomorphisms of fiber lattices
# ---------------------------------------------------------------------------


def intertwiner_basis(pairs: Sequence[Tuple[Mat2, Mat2]]) -> List[Mat2]:
    """Basis of the lattice {X : X @ m1 == m2 @ X for all pairs (m1, m2)}."""
    rows: List[List[int]] = []
    for m1, m2 in pairs:
        p, q, r, s = m1.entries()
        pp, qq, rr, ss = m2.entries()
        rows.append([p - pp, r, -qq, 0])
        rows.append([q, s - pp, 0, -qq])
        rows.append([-rr, 0, p - ss, r])
        rows.append([0, -rr, q, s - ss])
    if not rows:
        rows = [[0, 0, 0, 0]]
    basis = smith.kernel_basis(rows)
    return [Mat2(v[0], v[1], v[2], v[3]) for v in basis]


def fiber_covering_exists(phi1: Mat2, phi2: Mat2) -> Tuple[bool, Optional[Mat2]]:
    """Decide whether a fiber covering map M_phi1 -> M_phi2 exists: an alpha
    with nonzero determinant and alpha @ phi1 == phi2 @ alpha.

    Such an alpha is a rational similarity, so a covering exists iff phi1
    and phi2 have the same trace and determinant and are both scalar or both
    not: non-scalar 2x2 matrices with one characteristic polynomial are
    similar over Q.  The witness is the GL(2,Z) conjugator when there is
    one, so it is unimodular whenever a unimodular witness exists.
    Otherwise the intertwiner lattice has rank 2 and det is a binary
    quadratic form on it that is not identically 0, so it is nonzero at one
    of b1, b2, b1 + b2 of its basis, and the first such is the witness; it
    need not have the least |det|.  Either is negated so that its first
    nonzero entry is positive.
    """

    def invariants(phi: Mat2) -> Tuple[int, int, bool]:
        return phi.trace(), phi.det(), phi.b == phi.c == 0 and phi.a == phi.d

    if invariants(phi1) != invariants(phi2):
        return False, None
    ok, witness = conjugate_in(phi1, phi2, GL2Z)
    if not ok:
        basis = intertwiner_basis([(phi1, phi2)])
        if len(basis) != 2:
            raise RuntimeError(f"intertwiner lattice of {phi1} and {phi2} has rank {len(basis)}, not 2")
        b1, b2 = basis
        witness = next((x for x in (b1, b2, b1 + b2) if x.det() != 0), b1)
    if witness.entries() < (0, 0, 0, 0):
        witness = -witness
    if witness @ phi1 != phi2 @ witness or witness.det() == 0:
        raise RuntimeError(f"witness {witness} does not intertwine {phi1} and {phi2}")
    return True, witness
