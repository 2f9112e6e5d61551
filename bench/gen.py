"""Seeded inputs for the gm4 benchmark, with the answers their construction implies.

Stdlib only.  This module never imports gm4 and never calls its helpers, so
a refactor of gm4 can neither change nor break the inputs: the parent and a
change under test receive byte-identical inputs for the same seed.

Every workload is a sequence of *blocks*.  A block holds one item from each
slot of a fixed plan (size stratum x operation x kind), shuffled, so any run
that completes a few blocks sees the same mix whatever the seed; the seed
only decides the concrete words, parameters and disguises.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

Mat = Tuple[int, int, int, int]  # row-major a b / c d
Elem = Tuple[int, int, int]  # x^a y^b t^k in a torus bundle group

I2: Mat = (1, 0, 0, 1)


def mul(m: Mat, n: Mat) -> Mat:
    a, b, c, d = m
    e, f, g, h = n
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def inv(m: Mat) -> Mat:
    a, b, c, d = m
    det = a * d - b * c
    if det not in (1, -1):
        raise ValueError(f"not unimodular: {m}")
    return (d * det, -b * det, -c * det, a * det)


def neg(m: Mat) -> Mat:
    return tuple(-x for x in m)


def mat_pow(m: Mat, k: int) -> Mat:
    base, k = (m, k) if k >= 0 else (inv(m), -k)
    out = I2
    while k:
        if k & 1:
            out = mul(out, base)
        base = mul(base, base)
        k >>= 1
    return out


def upper(n: int) -> Mat:
    return (1, n, 0, 1)


def lower(n: int) -> Mat:
    return (1, 0, n, 1)


def fmt_mat(m: Mat) -> str:
    return f"[[{m[0]},{m[1]}],[{m[2]},{m[3]}]]"


# ---------------------------------------------------------------------------
# words: R/L words and their classes
# ---------------------------------------------------------------------------


def runs_of(word: str) -> List[Tuple[str, int]]:
    out: List[Tuple[str, int]] = []
    for ch in word:
        if out and out[-1][0] == ch:
            out[-1] = (ch, out[-1][1] + 1)
        else:
            out.append((ch, 1))
    return out


def word_matrix(word: str) -> Mat:
    out = I2
    for ch, n in runs_of(word):
        out = mul(out, upper(n) if ch == "R" else lower(n))
    return out


def least_rotation(word: str) -> str:
    """Lexicographically least cyclic rotation with R < L."""
    key = word.replace("R", "0").replace("L", "1")
    doubled = key + key
    n = len(key)
    best = min(doubled[i : i + n] for i in range(n))
    return best.replace("0", "R").replace("1", "L")


def swap_letters(word: str) -> str:
    return word.translate(str.maketrans("RL", "LR"))


def _disguise(rnd: random.Random) -> Mat:
    """A seeded SL(2,Z) conjugator: three R^k / L^k factors, 1 <= |k| <= 3."""
    c = I2
    for _ in range(3):
        k = rnd.choice((-3, -2, -1, 1, 2, 3))
        c = mul(c, upper(k) if rnd.random() < 0.5 else lower(k))
    return c


@dataclass(frozen=True)
class Disguised:
    word: str  # positive R/L word containing both letters
    sign: int
    mat: Mat  # sign * c @ word_matrix(word) @ c^-1 for a seeded conjugator c


def disguise(word: str, sign: int, rnd: random.Random) -> Disguised:
    c = _disguise(rnd)
    m = mul(mul(c, word_matrix(word)), inv(c))
    return Disguised(word, sign, m if sign == 1 else neg(m))


WORD_MIN, WORD_MAX = 8, 2048
WORD_STRATA = 100  # log-length strata per block; one item each
# operations, assigned to strata in rotation: 40% classify, 20% each other
WORD_OPS = ("classify", "psi", "conj_sl", "classify", "conj_gl")
# item kinds per block: fresh word, exact repeat of an earlier matrix, fresh
# disguise of an earlier word (same class, new matrix)
WORD_KINDS = ("fresh",) * 70 + ("repeat",) * 15 + ("reconj",) * 15
# share of conjugacy questions by partner kind, out of 4
CONJ_PARTNERS = ("same", "same", "swap", "other")


def _random_word(length: int, shape: str, rnd: random.Random) -> str:
    if shape == "runs":
        # few long runs, small entries: R^n L, R^a L^b or R^a L^b R^c L^d
        pieces = rnd.choice((1, 2, 2, 4))
        if pieces == 1 or length < 4:
            return "R" * (length - 1) + "L"
        cuts = sorted(rnd.sample(range(1, length), pieces - 1))
        sizes = [b - a for a, b in zip([0] + cuts, cuts + [length])]
        return "".join(("R" if i % 2 == 0 else "L") * s for i, s in enumerate(sizes))
    # many short runs from a random string: large entries
    while True:
        w = "".join(rnd.choice("RL") for _ in range(length))
        if "R" in w and "L" in w:
            return w


@dataclass
class WordItem:
    id: str
    op: str
    kind: str
    m1: Disguised
    m2: Optional[Disguised] = None

    def line(self) -> str:
        mats = [self.m1.mat] + ([self.m2.mat] if self.m2 else [])
        return " ".join([self.id, self.op] + [str(x) for m in mats for x in m])


def word_items(seed: int, blocks: int) -> List[WordItem]:
    """Blocks of WORD_STRATA items.  Item s of a block has a length drawn
    log-uniformly from stratum s; the operation and the word shape rotate
    over the strata, so every block has the same mix of sizes, operations
    and shapes.  A repeat or re-disguise refers to the same stratum of an
    earlier block."""
    rnd = random.Random(f"gm4-bench/words/{seed}")
    lo, hi = math.log(WORD_MIN), math.log(WORD_MAX)
    history: Dict[int, List[Disguised]] = {s: [] for s in range(WORD_STRATA)}
    items: List[WordItem] = []
    for b in range(blocks):
        kinds = list(WORD_KINDS)
        rnd.shuffle(kinds)
        block = []
        for s in range(WORD_STRATA):
            length = round(math.exp(lo + (hi - lo) * (s + rnd.random()) / WORD_STRATA))
            op = WORD_OPS[(s + b) % len(WORD_OPS)]
            shape = "runs" if (s // len(WORD_OPS) + b) % 2 == 0 else "random"
            kind = kinds[s] if history[s] else "fresh"
            if kind == "repeat":
                m1 = rnd.choice(history[s])
            elif kind == "reconj":
                old = rnd.choice(history[s])
                m1 = disguise(old.word, old.sign, rnd)
            else:
                m1 = disguise(_random_word(length, shape, rnd), rnd.choice((1, -1)), rnd)
            m2 = None
            if op.startswith("conj"):
                partner = rnd.choice(CONJ_PARTNERS)
                w = m1.word
                if partner == "same":
                    r = rnd.randrange(len(w))
                    m2 = disguise(w[r:] + w[:r], m1.sign, rnd)
                elif partner == "swap":
                    m2 = disguise(swap_letters(w), m1.sign, rnd)
                else:
                    m2 = disguise(_random_word(len(w), shape, rnd), rnd.choice((1, -1)), rnd)
            block.append((op, kind, m1, m2))
        for s in range(WORD_STRATA):
            history[s].append(block[s][2])
        rnd.shuffle(block)
        for op, kind, m1, m2 in block:
            items.append(WordItem(f"w{len(items):05d}", op, kind, m1, m2))
    return items


def word_expected(item: WordItem):
    """The answer the construction implies, without gm4."""
    w1 = least_rotation(item.m1.word)
    if item.op == "classify":
        return f"Hyperbolic({'+1' if item.m1.sign == 1 else '-1'}, {w1})"
    if item.op == "psi":
        return item.m1.word.count("R") - item.m1.word.count("L")
    assert item.m2 is not None
    if item.m2.sign != item.m1.sign:
        return False
    w2 = least_rotation(item.m2.word)
    if item.op == "conj_sl":
        return w2 == w1
    return w2 in (w1, least_rotation(swap_letters(item.m1.word)))


# ---------------------------------------------------------------------------
# graph structures and .gm text
# ---------------------------------------------------------------------------

TRADE: Tuple[Elem, Elem, Elem] = ((1, 0, 0), (0, 0, 1), (0, 1, 0))  # x->x, y->t, t->y
PRESERVE: Tuple[Elem, Elem, Elem] = ((1, 0, 0), (0, 1, 0), (0, 0, -1))  # t -> t^-1


@dataclass
class Blk:
    genus: int
    labels: Tuple[str, ...]
    images: Tuple[Mat, ...]  # a1 b1 ... ag bg c1 ... c(b-1)
    base: Optional[str] = None  # overrides the 'base' line (invalid inputs)

    def handle_product(self) -> Mat:
        out = I2
        for i in range(self.genus):
            a, b = self.images[2 * i], self.images[2 * i + 1]
            out = mul(mul(mul(out, a), mul(b, inv(a))), inv(b))
        return out

    def boundary_monos(self) -> Dict[str, Mat]:
        cs = self.images[2 * self.genus :]
        out = dict(zip(self.labels, cs))
        prod = self.handle_product()
        for c in cs:
            prod = mul(prod, c)
        out[self.labels[-1]] = inv(prod)
        return out


@dataclass
class Struct:
    blocks: Dict[str, Blk]
    edges: List[Tuple[Tuple[str, str], Tuple[str, str], Tuple[Elem, Elem, Elem]]]

    def text(self) -> str:
        lines = ["version 1"]
        for lbl in sorted(self.blocks):
            blk = self.blocks[lbl]
            nb = len(blk.labels)
            lines.append(f"block {lbl}")
            lines.append(blk.base or f"  base orientable genus {blk.genus} boundaries {nb}")
            if blk.labels != tuple(str(i) for i in range(1, nb + 1)):
                lines.append("  labels " + " ".join(blk.labels))
            names = [f"{p}{i}" for i in range(1, blk.genus + 1) for p in "ab"]
            names += [f"c{i}" for i in range(1, nb)]
            for name, m in zip(names, blk.images):
                lines.append(f"  gen {name} {fmt_mat(m)}")
            lines.append("end")
        for (l1, b1), (l2, b2), imgs in self.edges:
            lines.append(f"glue {l1}.{b1} {l2}.{b2}")
            for gen, (a, b, k) in zip("xyt", imgs):
                lines.append(f"  {gen} ({a},{b},{k})")
            lines.append("end")
        return "\n".join(lines) + "\n"

    def block_keys(self) -> List[Tuple]:
        """Per-block (genus, boundary count, sorted boundary classes): all
        boundary monodromies here are R^n, of class Parabolic(+1, n=n)."""
        keys = []
        for blk in self.blocks.values():
            classes = []
            for m in blk.boundary_monos().values():
                if m[0] != 1 or m[2] != 0 or m[3] != 1 or m[1] == 0:
                    raise ValueError(f"boundary monodromy {m} is not R^n")
                classes.append(f"Parabolic(+1, n={m[1]})")
            keys.append((blk.genus, len(blk.labels), tuple(sorted(classes))))
        return sorted(keys)


def _planar(ns: Sequence[int], labels: Optional[Sequence[str]] = None) -> Blk:
    b = len(ns) + 1
    return Blk(0, tuple(labels or (str(i) for i in range(1, b + 1))), tuple(upper(n) for n in ns))


def pants_ring(a: int, bs: Sequence[int], preserving: Sequence[bool]) -> Struct:
    """Ring of 2*len(bs) pants blocks P00, P01, ...

    P_{2j} has c1 = R^a, c2 = R^{b_j}; P_{2j+1} has c1 = R^{-b_j}, c2 = R^{-a}.
    P_i.2 - P_{i+1}.1 trade fiber and base; the rung P_{2j}.3 - P_{2j+1}.3
    trades too, or preserves the fiber (x->x, y->y, t->t^-1) when
    preserving[j], which gives reduce a contraction to do.
    """
    n = 2 * len(bs)
    blocks = {}
    for j, b in enumerate(bs):
        blocks[f"P{2 * j:02d}"] = _planar((a, b))
        blocks[f"P{2 * j + 1:02d}"] = _planar((-b, -a))
    edges = []
    for i in range(n):
        edges.append(((f"P{i:02d}", "2"), (f"P{(i + 1) % n:02d}", "1"), TRADE))
    for j in range(len(bs)):
        edges.append(
            ((f"P{2 * j:02d}", "3"), (f"P{2 * j + 1:02d}", "3"), PRESERVE if preserving[j] else TRADE)
        )
    return Struct(blocks, edges)


def swap_double(n1: int, n2: int) -> Struct:
    return Struct(
        {"A": _planar((n1, n2)), "B": _planar((-n1, -n2))},
        [(("A", s), ("B", s), TRADE) for s in "123"],
    )


def swap_double4(n1: int, n2: int, n3: int) -> Struct:
    return Struct(
        {"A": _planar((n1, n2, n3)), "B": _planar((-n1, -n2, -n3))},
        [(("A", s), ("B", s), TRADE) for s in "1234"],
    )


def genus1_self(n: int) -> Struct:
    blk = Blk(1, ("p", "q"), (upper(1), upper(2), upper(n)))
    return Struct({"D": blk}, [(("D", "p"), ("D", "q"), TRADE)])


def chain3(n1: int, n2: int, n3: int) -> Struct:
    return Struct(
        {"A": _planar((n1, n2)), "B": _planar((-n1, n3)), "C": _planar((-n2, -n3, n3 - n1))},
        [
            (("A", "1"), ("B", "1"), TRADE),
            (("A", "2"), ("C", "1"), TRADE),
            (("B", "2"), ("C", "2"), TRADE),
            (("B", "3"), ("C", "3"), TRADE),
            (("A", "3"), ("C", "4"), TRADE),
        ],
    )


# pi1 arithmetic of the torus bundle with monodromy phi, in (a, b, k) form


def _gmul(phi: Mat, e1: Elem, e2: Elem) -> Elem:
    p = mat_pow(phi, e1[2])
    return (e1[0] + p[0] * e2[0] + p[1] * e2[1], e1[1] + p[2] * e2[0] + p[3] * e2[1], e1[2] + e2[2])


def _gpow(phi: Mat, e: Elem, n: int) -> Elem:
    if n < 0:
        p = mat_pow(phi, -e[2])
        e = (-(p[0] * e[0] + p[1] * e[1]), -(p[2] * e[0] + p[3] * e[1]), -e[2])
        n = -n
    out: Elem = (0, 0, 0)
    while n:
        if n & 1:
            out = _gmul(phi, out, e)
        e = _gmul(phi, e, e)
        n >>= 1
    return out


def change_fiber_basis(st: Struct, c: Mat) -> Struct:
    """Copy with every block's fiber basis changed by c in SL(2,Z): images
    become c m c^-1 and each glueing f becomes mu2 f mu1^-1, where mu maps
    (v, k) to (c v, k)."""
    blocks = {lbl: Blk(b.genus, b.labels, tuple(mul(mul(c, m), inv(c)) for m in b.images)) for lbl, b in st.blocks.items()}
    cinv = inv(c)
    edges = []
    for e1, e2, (x, y, t) in st.edges:
        phi2 = st.blocks[e2[0]].boundary_monos()[e2[1]]

        def apply(e: Elem) -> Elem:
            out = _gmul(phi2, _gpow(phi2, x, e[0]), _gpow(phi2, y, e[1]))
            return _gmul(phi2, out, _gpow(phi2, t, e[2]))

        new = []
        for gen in ((cinv[0], cinv[2], 0), (cinv[1], cinv[3], 0), (0, 0, 1)):
            a, b, k = apply(gen)
            new.append((c[0] * a + c[1] * b, c[2] * a + c[3] * b, k))
        edges.append((e1, e2, tuple(new)))
    return Struct(blocks, edges)


def rotate_block(st: Struct, label: str) -> Struct:
    """Re-present one block with its boundary positions cycled down by one
    (old position 1 goes last).  Valid as a plain relabelling of positions
    when the handle product is trivial, as for every family here."""
    blk = st.blocks[label]
    if blk.handle_product() != I2:
        raise ValueError("rotation implemented for trivial handle product only")
    monos = blk.boundary_monos()
    cs = list(blk.images[2 * blk.genus :])
    new_cs = cs[1:] + [monos[blk.labels[-1]]]
    new = Blk(blk.genus, blk.labels[1:] + blk.labels[:1], blk.images[: 2 * blk.genus] + tuple(new_cs))
    blocks = dict(st.blocks)
    blocks[label] = new
    return Struct(blocks, list(st.edges))


def rename(st: Struct, block_map: Dict[str, str], suffix: str = "") -> Struct:
    """Rename blocks by block_map and append suffix to boundary labels."""
    blocks = {
        block_map[lbl]: Blk(b.genus, tuple(s + suffix for s in b.labels), b.images)
        for lbl, b in st.blocks.items()
    }
    edges = [
        ((block_map[e1[0]], e1[1] + suffix), (block_map[e2[0]], e2[1] + suffix), imgs)
        for e1, e2, imgs in st.edges
    ]
    return Struct(blocks, edges)


# ---------------------------------------------------------------------------
# ring workload: validate / reduce / invariants on pants rings
# ---------------------------------------------------------------------------

RING_MIN, RING_MAX = 4, 48
RING_STRATA = 18  # log-size strata; each command runs once per stratum per block
RING_COMMANDS = ("validate", "reduce", "invariants")
# invalid manifests, each kind once per command per block; the last three
# are the base lines that ROADMAP item 5 lists
RING_INVALID = (
    "syntax",
    "glue_mismatch",
    "open_boundary",
    "base_boundaries0",
    "base_genus_negative",
    "base_nonorientable_genus0",
)
INVALID_BASE = {
    "base_boundaries0": "  base orientable genus 0 boundaries 0",
    "base_genus_negative": "  base orientable genus -1 boundaries 3",
    "base_nonorientable_genus0": "  base nonorientable genus 0 boundaries 3",
}


@dataclass
class RingItem:
    id: str
    command: str
    kind: str  # "valid" or one of RING_INVALID
    n: int
    a: int
    bs: Tuple[int, ...]
    preserving: Tuple[bool, ...]
    text: str


def _nonzero(rnd: random.Random, lim: int) -> int:
    return rnd.choice([v for v in range(-lim, lim + 1) if v])


def _ring_params(n: int, rnd: random.Random):
    a = _nonzero(rnd, 5)
    bs = []
    for _ in range(n // 2):
        b = _nonzero(rnd, 5)
        while a + b == 0:
            b = _nonzero(rnd, 5)
        bs.append(b)
    return a, tuple(bs)


def _invalid(st: Struct, kind: str, rnd: random.Random) -> str:
    if kind == "syntax":
        text = st.text()
        lines = text.splitlines()
        where = rnd.choice([i for i, ln in enumerate(lines) if ln.startswith("  gen ")])
        lines[where] = lines[where].replace("]]", "]", 1)
        return "\n".join(lines) + "\n"
    if kind == "glue_mismatch":
        lbl = rnd.choice(sorted(st.blocks))
        blk = st.blocks[lbl]
        c1 = blk.images[0]
        st.blocks[lbl] = Blk(blk.genus, blk.labels, (upper(c1[1] + 1),) + blk.images[1:])
        return st.text()
    if kind == "open_boundary":
        del st.edges[rnd.randrange(len(st.edges))]
        return st.text()
    lbl = rnd.choice(sorted(st.blocks))
    blk = st.blocks[lbl]
    st.blocks[lbl] = Blk(blk.genus, blk.labels, blk.images, base=INVALID_BASE[kind])
    return st.text()


def ring_items(seed: int, blocks: int) -> List[RingItem]:
    """Blocks of (RING_STRATA + len(RING_INVALID)) x 3 items: every command
    on a ring from every size stratum and on every kind of invalid file."""
    rnd = random.Random(f"gm4-bench/ring/{seed}")
    lo, hi = math.log(RING_MIN), math.log(RING_MAX)
    items: List[RingItem] = []
    for _ in range(blocks):
        plan = []
        for command in RING_COMMANDS:
            for s in range(RING_STRATA):
                half = math.exp(lo + (hi - lo) * (s + rnd.random()) / RING_STRATA) / 2
                plan.append(("valid", command, 2 * max(2, min(RING_MAX // 2, round(half)))))
            for kind in RING_INVALID:
                plan.append((kind, command, 2 * rnd.randrange(2, 5)))
        rnd.shuffle(plan)
        for kind, command, n in plan:
            a, bs = _ring_params(n, rnd)
            preserving = tuple(rnd.random() < 0.5 for _ in bs)
            st = pants_ring(a, bs, preserving)
            text = st.text() if kind == "valid" else _invalid(st, kind, rnd)
            items.append(RingItem(f"r{len(items):05d}", command, kind, n, a, bs, preserving, text))
    return items


def ring_report_lines(item: RingItem) -> List[str]:
    """Every line of the invariants report except the h1 line."""
    st = pants_ring(item.a, item.bs, item.preserving)
    summary = sorted(
        ("orientable genus 0 with 3 boundary components", classes) for _, _, classes in st.block_keys()
    )
    monos = {lbl: blk.boundary_monos() for lbl, blk in st.blocks.items()}
    decomposing = sorted(f"Parabolic(+1, n={monos[e1[0]][e1[1]][1]})" for e1, _, _ in st.edges)
    lines = [f"blocks: {item.n}"]
    lines += [f"  block: {desc}; boundary classes: {', '.join(cls)}" for desc, cls in summary]
    lines.append(f"decomposing classes: {', '.join(decomposing)}")
    lines.append(f"reduced: {'no' if any(item.preserving) else 'yes'}")
    lines += ["sigma: 0", "euler: 0"]
    return lines


# ---------------------------------------------------------------------------
# match workload: compare pairs of reduced structures
# ---------------------------------------------------------------------------

MATCH_FAMILIES = ("double3", "double4", "genus1", "chain3", "ring")
MATCH_PARTNERS = ("relabel", "rename", "rename_even", "fiber_basis", "rotate", "separated")
FIBER_BASES = tuple(mul(upper(x), lower(y)) for x in (1, -1) for y in (1, -1))


@dataclass
class MatchItem:
    id: str
    family: str
    partner: str
    blocks: int
    expect: str  # "yes" or "no"
    text1: str
    text2: str


def _family(name: str, rnd: random.Random) -> Struct:
    if name == "double3":
        while True:
            n1, n2 = _nonzero(rnd, 5), _nonzero(rnd, 5)
            if n1 + n2:
                return swap_double(n1, n2)
    if name == "double4":
        while True:
            ns = [_nonzero(rnd, 5) for _ in range(3)]
            if sum(ns):
                return swap_double4(*ns)
    if name == "genus1":
        return genus1_self(_nonzero(rnd, 6))
    if name == "chain3":
        while True:
            n1, n2, n3 = (_nonzero(rnd, 5) for _ in range(3))
            if n1 != n3 and n1 + n2:
                return chain3(n1, n2, n3)
    # pants ring of 4 or 6 blocks with a single B value, so that block keys
    # collide in two classes (even and odd blocks).  With a single value the
    # time of every pair is fixed by its partner kind: a rename by an odd
    # shift sends the bijection search into minutes, an even shift does not.
    n = rnd.choice((4, 6))
    a = _nonzero(rnd, 4)
    b = rnd.choice([v for v in range(-4, 5) if v and v != -a])
    return pants_ring(a, [b] * (n // 2), [False] * (n // 2))


def _renamed(st: Struct, shift: int) -> Struct:
    """Rename blocks so that the sorted label order moves by shift positions."""
    labels = sorted(st.blocks)
    n = len(labels)
    return rename(st, {lbl: f"Q{(i + shift) % n:02d}" for i, lbl in enumerate(labels)})


def _partner(st: Struct, family: str, partner: str, turn: int, rnd: random.Random) -> Tuple[str, Struct]:
    n = len(st.blocks)
    if partner == "relabel":
        return "yes", rename(st, {lbl: lbl + "r" for lbl in st.blocks}, suffix="s")
    if partner in ("rename", "rename_even"):
        if n == 1:
            return "yes", rename(st, {lbl: "E" for lbl in st.blocks})
        odd = [s for s in range(1, n) if s % 2 == 1]
        even = [s for s in range(1, n) if s % 2 == 0] or odd
        return "yes", _renamed(st, rnd.choice(odd if partner == "rename" else even))
    if partner == "fiber_basis":
        return "yes", change_fiber_basis(st, FIBER_BASES[turn % len(FIBER_BASES)])
    if partner == "rotate":
        cands = sorted(lbl for lbl, b in st.blocks.items() if len(b.labels) >= 2)
        return "yes", rotate_block(st, rnd.choice(cands))
    keys = st.block_keys()
    while True:
        other = _family(family, rnd)
        if len(other.blocks) == n and other.block_keys() != keys:
            return "no", other


def match_items(seed: int, blocks: int) -> List[MatchItem]:
    """Blocks of every (family, partner) pair once, shuffled.  The fiber
    basis change rotates over FIBER_BASES by family and block, since the
    search time depends on it."""
    rnd = random.Random(f"gm4-bench/match/{seed}")
    items: List[MatchItem] = []
    for b in range(blocks):
        plan = [(f, p) for f in range(len(MATCH_FAMILIES)) for p in MATCH_PARTNERS]
        rnd.shuffle(plan)
        for f, partner in plan:
            family = MATCH_FAMILIES[f]
            first = _family(family, rnd)
            expect, second = _partner(first, family, partner, f + b, rnd)
            items.append(
                MatchItem(
                    f"m{len(items):05d}", family, partner, len(first.blocks), expect, first.text(), second.text()
                )
            )
    return items
