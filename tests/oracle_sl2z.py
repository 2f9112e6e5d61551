"""Independent brute-force SL(2,Z) conjugacy oracle for the test suite.

Deliberately self-contained (raw 4-tuples, no package imports): decisions
come from breadth-first search over conjugators that are words of bounded
length in the generators R, L, S.
"""
from typing import Dict, FrozenSet, Iterable, List, Set, Tuple

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
