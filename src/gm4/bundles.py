"""Surfaces with boundary, monodromy representations, blocks and the
torus bundles over circles that bound them.

Generator and boundary-word convention (fixed once for the whole package):

* orientable surface of genus g with b boundary components:
  free generators a1, b1, ..., ag, bg, c1, ..., c{b-1};
  boundary words  c1, ..., c{b-1}  and
  last = ([a1,b1]...[ag,bg] c1 ... c{b-1})^-1  with [x,y] = x y x^-1 y^-1.
* non-orientable surface with q crosscaps and b boundary components:
  free generators d1, ..., dq, c1, ..., c{b-1};
  boundary words  c1, ..., c{b-1}  and last = (d1^2 ... dq^2 c1 ... c{b-1})^-1.

pi1 of the torus bundle M_phi over a circle is presented on x, y, t with
[x, y] = 1,  t x t^-1 = x^phi11 y^phi21,  t y t^-1 = x^phi12 y^phi22,
and its elements are kept in the normal form x^a y^b t^k, written (a,b,k).

A glueing (BoundaryIso) is given by the images of x, y and t.  It is valid
when the images satisfy the source relations and the map is bijective:
the winding numbers k of the three images have gcd 1, so some w0 maps to
winding 1, and the fiber image L0 + phi L0 is all of Z^2, where L0 is
spanned by the fiber parts of the generator images once their w0 powers
are removed (one Euclid echelon pass, no fixpoint).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .gl2z import I2, Mat2, NotInSL2ZError, NotUnimodularError, _ext_gcd, classify
from . import smith

Word = Tuple[Tuple[str, int], ...]


def word_inverse(word: Word) -> Word:
    return tuple((gen, -exp) for gen, exp in reversed(word))


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

    def generator_names(self) -> Tuple[str, ...]:
        names: List[str] = []
        if self.orientable:
            for i in range(1, self.genus + 1):
                names.append(f"a{i}")
                names.append(f"b{i}")
        else:
            for i in range(1, self.genus + 1):
                names.append(f"d{i}")
        for i in range(1, self.boundary_count):
            names.append(f"c{i}")
        return tuple(names)

    def boundary_words(self) -> Tuple[Word, ...]:
        words: List[Word] = [((f"c{i}", 1),) for i in range(1, self.boundary_count)]
        head: List[Tuple[str, int]] = []
        if self.orientable:
            for i in range(1, self.genus + 1):
                head += [(f"a{i}", 1), (f"b{i}", 1), (f"a{i}", -1), (f"b{i}", -1)]
        else:
            for i in range(1, self.genus + 1):
                head += [(f"d{i}", 2)]
        for i in range(1, self.boundary_count):
            head.append((f"c{i}", 1))
        words.append(word_inverse(tuple(head)))
        return tuple(words)

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
class MonodromyRep:
    surface: SurfaceWithBoundary
    images: Tuple[Mat2, ...]

    def image_map(self) -> Dict[str, Mat2]:
        return dict(zip(self.surface.generator_names(), self.images))

    @cached_property
    def _image_lookup(self) -> Dict[str, Mat2]:
        # built once per representation, so evaluating all b boundary words
        # costs O(b) lookups rather than b rebuilt maps
        return self.image_map()

    def evaluate(self, word: Word) -> Mat2:
        imgs = self._image_lookup
        out = I2
        for gen, exp in word:
            out = out @ (imgs[gen] ** exp)
        return out

    def violations(self) -> List[str]:
        out = []
        names = self.surface.generator_names()
        if len(self.images) != len(names):
            out.append(
                f"monodromy image count {len(self.images)} does not match "
                f"pi1 rank {len(names)}"
            )
            return out
        for name, m in zip(names, self.images):
            det = m.det()
            if det not in (1, -1):
                out.append(f"image of {name} has determinant {det}, not unimodular")
            elif self.surface.orientable and det != 1:
                out.append(
                    f"image of {name} has determinant -1 over an orientable base: "
                    "total space would be non-orientable"
                )
            elif not self.surface.orientable:
                want = -1 if name.startswith("d") else 1
                if det != want:
                    out.append(
                        f"image of {name} has determinant {det}; orientation "
                        f"pattern over a non-orientable base needs {want}"
                    )
        return out


@dataclass(frozen=True)
class Block:
    rep: MonodromyRep
    labels: Tuple[str, ...] = ()

    def boundary_labels(self) -> Tuple[str, ...]:
        if self.labels:
            return self.labels
        return tuple(str(i) for i in range(1, self.rep.surface.boundary_count + 1))

    @cached_property
    def monodromies(self) -> Dict[str, Mat2]:
        """Boundary label -> boundary monodromy, in boundary order: each
        boundary word is evaluated once per (immutable) block."""
        words = self.rep.surface.boundary_words()
        return {lbl: self.rep.evaluate(w) for lbl, w in zip(self.boundary_labels(), words)}

    @cached_property
    def boundary_classes(self) -> Tuple[str, ...]:
        """The sorted SL(2,Z) classes of the boundary monodromies."""
        return tuple(sorted(str(classify(m)) for m in self.monodromies.values()))

    def boundary_monodromies(self) -> Tuple[Tuple[str, Mat2], ...]:
        return tuple(self.monodromies.items())

    def boundary_monodromy(self, label: str) -> Mat2:
        if label not in self.monodromies:
            raise KeyError(f"no boundary component labeled {label!r}")
        return self.monodromies[label]


def validate_block(block: Block) -> List[str]:
    out: List[str] = []
    surface = block.rep.surface
    chi = surface.euler_characteristic()
    if surface.is_mobius():
        out.append("excluded surface: Mobius band (chi = 0)")
    elif surface.is_disc():
        out.append("excluded surface: disc (chi = 1)")
    elif surface.is_annulus():
        out.append("chi = 0 (annulus): block bases need chi < 0")
    elif chi >= 0:
        out.append(f"chi = {chi}: block bases need chi < 0")
    labels = block.boundary_labels()
    if len(labels) != surface.boundary_count:
        out.append(
            f"{len(labels)} boundary labels for {surface.boundary_count} boundary components"
        )
    elif len(set(labels)) != len(labels):
        out.append("boundary labels are not distinct")
    out.extend(block.rep.violations())
    return out


# ---------------------------------------------------------------------------
# torus bundles over the circle and pi1 normal-form arithmetic
# ---------------------------------------------------------------------------


class Pi1Element(NamedTuple):
    a: int
    b: int
    k: int

    def __str__(self) -> str:
        return f"({self.a},{self.b},{self.k})"


PI1_X = Pi1Element(1, 0, 0)
PI1_Y = Pi1Element(0, 1, 0)
PI1_T = Pi1Element(0, 0, 1)


@lru_cache(maxsize=None)
def _mat_pow(m: Mat2, k: int) -> Mat2:
    return m ** k


@dataclass(frozen=True)
class TorusBundleOverCircle:
    phi: Mat2

    def __post_init__(self) -> None:
        if self.phi.det() not in (1, -1):
            raise NotUnimodularError(f"monodromy must be unimodular: {self.phi}")

    def phi_pow(self, k: int) -> Mat2:
        return _mat_pow(self.phi, k)

    def mul(self, e1: Pi1Element, e2: Pi1Element) -> Pi1Element:
        v = self.phi_pow(e1.k).apply((e2.a, e2.b))
        return Pi1Element(e1.a + v[0], e1.b + v[1], e1.k + e2.k)

    def inv(self, e: Pi1Element) -> Pi1Element:
        v = self.phi_pow(-e.k).apply((e.a, e.b))
        return Pi1Element(-v[0], -v[1], -e.k)

    def power(self, e: Pi1Element, n: int) -> Pi1Element:
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

    def conjugate(self, g: Pi1Element, e: Pi1Element) -> Pi1Element:
        return self.mul(self.mul(g, e), self.inv(g))


def boundary_bundle(block: Block, label: str) -> TorusBundleOverCircle:
    return TorusBundleOverCircle(block.boundary_monodromy(label))


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
        out = tgt.power(self.x_img, e.a)
        out = tgt.mul(out, tgt.power(self.y_img, e.b))
        return tgt.mul(out, tgt.power(self.t_img, e.k))

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


def _echelon_pivot(group: TorusBundleOverCircle, rows, i: int):
    """One Euclid pass on coordinate i over (fiber vector, source element)
    rows, each element mapping to its vector: (pivot row, other rows), where
    the pivot's coordinate i is +-gcd and every other row's is 0."""
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


def _image_data(iso: BoundaryIso) -> Tuple[int, Optional[Tuple[Pi1Element, ...]]]:
    """(winding gcd g, source preimages of x, y, t or None if not bijective).

    With g = 1, w0 is a source element of target winding 1, and each source
    generator times a power of w0 maps to a target fiber vector v_i.  Their
    span L0 plus phi L0 (conjugation by w0 acts on the fiber by the target
    monodromy phi) is the image of the fiber: by Cayley-Hamilton it is closed
    under phi and phi^-1.  The glueing is bijective iff that lattice is Z^2,
    i.e. its echelon basis is ((+-1, r), (0, +-1)).
    """
    src, tgt = iso.source, iso.target
    g1, p, q = _ext_gcd(iso.x_img.k, iso.y_img.k)
    g, u, v = _ext_gcd(g1, iso.t_img.k)
    if g != 1:
        return g, None
    w0_src = Pi1Element(p * u, q * u, v)
    w0_tgt = iso.apply(w0_src)
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
    delta = tgt.mul(PI1_T, tgt.inv(w0_tgt))  # a fiber element, as w0_tgt.k == 1
    t_pre = src.mul(src.mul(src.power(x_pre, delta.a), src.power(y_pre, delta.b)), w0_src)
    return 1, (x_pre, y_pre, t_pre)


def _relation_violations(iso: BoundaryIso) -> List[str]:
    """The source relations that fail on the images."""
    out: List[str] = []
    tgt = iso.target
    x, y, t = iso.x_img, iso.y_img, iso.t_img
    if tgt.mul(x, y) != tgt.mul(y, x):
        out.append("relation [x,y] = 1 fails on images")
    phi = iso.source.phi
    for name, j, gen, p, q in (("x", 1, x, phi.a, phi.c), ("y", 2, y, phi.b, phi.d)):
        # windings add, so a winding mismatch fails the relation before any
        # power (whose cost grows with the exponents) is taken
        rhs_k = p * x.k + q * y.k
        if gen.k != rhs_k or tgt.conjugate(t, gen) != tgt.mul(tgt.power(x, p), tgt.power(y, q)):
            out.append(f"relation t {name} t^-1 = x^phi1{j} y^phi2{j} fails on images")
    return out


def validate_glueing(iso: BoundaryIso) -> List[str]:
    """Check the glueing invariants: source relations hold on the images and
    the induced map is bijective (by solving for generator preimages)."""
    out = _relation_violations(iso)
    if out:
        return out
    g, pre = _image_data(iso)
    if g != 1:
        out.append(f"not surjective: base winding numbers have gcd {g}")
    elif pre is None:
        out.append("not bijective: fiber image lattice is a proper sublattice")
    return out


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
    not bijective."""
    broken = _relation_violations(iso)
    if broken:
        raise ValueError("iso is not a homomorphism: " + "; ".join(broken))
    g, pre = _image_data(iso)
    if pre is None:
        raise ValueError("iso is not bijective")
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


def _combo(basis: Sequence[Mat2], coeffs: Sequence[int]) -> Mat2:
    out = Mat2(0, 0, 0, 0)
    for x, c in zip(basis, coeffs):
        if c:
            out = Mat2(out.a + c * x.a, out.b + c * x.b, out.c + c * x.c, out.d + c * x.d)
    return out


WITNESS_BOUND = 8


def fiber_covering_exists(phi1: Mat2, phi2: Mat2) -> Tuple[bool, Optional[Mat2]]:
    """Decide whether a fiber covering map M_phi1 -> M_phi2 exists: an alpha
    with nonzero determinant and alpha @ phi1 == phi2 @ alpha.

    The decision is exact (a quadratic form vanishes on a lattice iff it
    vanishes on all {-1,0,1} coefficient vectors of a basis); the returned
    witness has the smallest |det| among coefficient vectors with entries
    bounded by WITNESS_BOUND, ties broken lexicographically.
    """
    basis = intertwiner_basis([(phi1, phi2)])
    if not basis:
        return False, None
    r = len(basis)
    if all(_combo(basis, c).det() == 0 for c in product(range(-1, 2), repeat=r)):
        return False, None
    best: Optional[Tuple[Tuple, Mat2]] = None
    for coeffs in product(range(-WITNESS_BOUND, WITNESS_BOUND + 1), repeat=r):
        x = _combo(basis, coeffs)
        det = x.det()
        if det == 0:
            continue
        if x.a < 0 or (x.a == 0 and (x.b < 0 or (x.b == 0 and (x.c < 0 or (x.c == 0 and x.d < 0))))):
            x = -x
        key = (
            abs(det),
            max(abs(e) for e in x.entries()),
            tuple(abs(e) for e in x.entries()),
            x.entries(),
        )
        if best is None or key < best[0]:
            best = (key, x)
    if best is None:
        raise RuntimeError(f"no witness within the bound for {phi1} and {phi2}")
    witness = best[1]
    if witness @ phi1 != phi2 @ witness or witness.det() == 0:
        raise RuntimeError(f"witness {witness} does not intertwine {phi1} and {phi2}")
    return True, witness
