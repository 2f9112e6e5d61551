"""Characteristic function on SL(2,Z), its signature 2-cocycle, and
signatures of blocks: boundary_psi_sum, whose integer totals
assembly.manifold_signature adds up and divides by 3 once.

psi is the conjugation-invariant integer class function pinned by

    psi(sign * [[1,n],[0,1]]) = n,      psi(+-I) = 0,

extended to hyperbolic classes by the exponent sum #R - #L of the
canonical R/L word (R^a1 L^b1 ... R^ak L^bk)^n, that is n times the
alternating sum a1 - b1 + ... - bk of its runs, and to elliptic classes
by the unique values in {-1,0,1} that keep psi congruent mod 3 to the
abelianization character.  That congruence makes

    tau(A, B) = (psi(A) + psi(B) - psi(A B)) / 3

an integer 2-cocycle; empirically it takes values in {-2,...,2}.  The
signature of a block is (1/3) * sum of psi over its boundary monodromies,
and signatures add over blocks under glueings that reverse the induced
boundary orientations.

The character mod 3, R -> 1 and S -> 0, factors as SL(2,Z) -> SL(2,Z/3)
-> Z/3, since its kernel holds the normal closure of R^3, the congruence
subgroup Gamma(3).  `gl2z.abelianization_mod3` reads it from a table of
SL(2,Z/3) that a breadth-first search over R- and S-edges builds, checking
that every edge agrees (gR has the value of g plus 1, gS that of g); with
no conflict the table is a homomorphism that agrees with the character on
R and S.  So the mod-3 check in psi is a table lookup, not a Euclidean
decomposition.
"""
from __future__ import annotations

from fractions import Fraction

from .gl2z import ConjClass, Mat2, NotInSL2ZError, R, S, _verify, abelianization_mod3, classify, generator_word
from .bundles import Block, UnsupportedOperationError

_LIFT3 = {0: 0, 1: 1, 2: -1}


def psi(m: Mat2) -> int:
    """Conjugation-invariant characteristic value of m in SL(2,Z)."""
    if m.det() != 1:
        raise NotInSL2ZError(f"psi needs determinant +1: {m}")
    return _psi_of_class(m, classify(m))


def _psi_of_class(m: Mat2, cls: ConjClass) -> int:
    """psi(m) from the SL(2,Z) class of m: the base value of the class, plus
    the kappa in {-1,0,1} that the abelianization mod 3 pins."""
    if cls.kind == "parabolic":
        base = cls.n
    elif cls.kind == "hyperbolic":
        base = cls.power * sum(a - b for a, b in cls.runs)
    else:
        base = 0
    kappa = _LIFT3[(abelianization_mod3(m) - base) % 3]
    if cls.kind != "elliptic" and kappa != 0:
        raise RuntimeError(f"psi({m}) = {base} disagrees with the abelianization mod 3")
    return base + kappa


def meyer_cocycle(a: Mat2, b: Mat2) -> int:
    """Signature 2-cocycle tau(a, b) = (psi(a) + psi(b) - psi(ab)) / 3."""
    if a.det() != 1 or b.det() != 1:
        raise NotInSL2ZError("cocycle arguments must lie in SL(2,Z)")
    num = psi(a) + psi(b) - psi(a @ b)
    if num % 3:
        raise RuntimeError(f"coboundary of psi at ({a}, {b}) is {num}, not divisible by 3")
    return num // 3


def psi_by_folding(m: Mat2, pivot: str = "floor") -> int:
    """psi computed by decomposing m into R-power and S letters and folding
    psi(g w) = psi(g) + psi(w) - 3 tau(g, w) right to left.

    Independent of the decomposition; used to cross-check psi.
    """
    letters = [((R ** exp) if gen == "R" else S) for gen, exp in generator_word(m, pivot)]
    if not letters:
        return 0
    acc = letters[-1]
    val = psi(acc)
    for g in reversed(letters[:-1]):
        val = psi(g) + val - 3 * meyer_cocycle(g, acc)
        acc = g @ acc
    _verify(acc == m, "R/S decomposition", m)
    return val


def block_signature(block: Block) -> Fraction:
    """Signature of a block: one third of its boundary_psi_sum."""
    return Fraction(boundary_psi_sum(block), 3)


def boundary_psi_sum(block: Block) -> int:
    """The psi-sum over the boundary torus-bundle monodromies of a block,
    each read from its class in Block.classes.  Requires an orientable base
    and SL(2,Z) boundary monodromies."""
    if not block.surface.orientable:
        raise UnsupportedOperationError(
            "signature is computed for blocks with orientable base only"
        )
    for mono in block.monodromies.values():
        if mono.det() != 1:
            raise UnsupportedOperationError(
                f"boundary monodromy {mono} has determinant -1; "
                "signature needs SL(2,Z) monodromies"
            )
    return sum(_psi_of_class(m, block.classes[lbl]) for lbl, m in block.monodromies.items())
