import random
import re
from functools import lru_cache
from itertools import product
from math import log2

import pytest
from hypothesis import example, given, settings, strategies as st

from gm4 import (
    ALL_VECTORS,
    ConjClass,
    GL2Z,
    I2,
    L,
    Mat2,
    NotInSL2ZError,
    NotUnimodularError,
    R,
    S,
    SL2Z,
    classify,
    conjugate_in,
    eigenvector_eigenvalue_one,
)
from gm4 import gl2z, psi
from gm4.gl2z import (
    CHI3,
    _least_rotation,
    _normal_form,
    abelianization_mod3,
    generator_word,
    int_str,
    parse_int,
)

from conftest import bench_gen
from oracle_sl2z import (
    conjugacy_orbit,
    letterwise_normal_form,
    mat2_parabolic_normalize,
    sl2z_entries_up_to,
)


def words(max_len=8):
    return st.lists(
        st.sampled_from([R, L, S, R.inverse(), L.inverse()]), max_size=max_len
    )


def to_matrix(word):
    m = I2
    for g in word:
        m = m @ g
    return m


def letters_matrix(letters):
    return to_matrix(R if letter == "R" else L for letter in letters)


sl2z_matrices = words().map(to_matrix)

# the determinant +-1 matrices with entries in [-2, 2], as 4-tuples
SMALL_UNIMODULAR = [t for t in product(range(-2, 3), repeat=4) if abs(t[0] * t[3] - t[1] * t[2]) == 1]


@lru_cache(maxsize=None)
def small_orbit(t):
    return conjugacy_orbit(t, depth=12)


@st.composite
def small_pairs(draw):
    """(t1, t2) from SMALL_UNIMODULAR, of one determinant; t2 has t1's
    trace in about half of the draws."""
    t1 = draw(st.sampled_from(SMALL_UNIMODULAR))
    det = t1[0] * t1[3] - t1[1] * t1[2]
    same_det = [t for t in SMALL_UNIMODULAR if t[0] * t[3] - t[1] * t[2] == det]
    same_trace = [t for t in same_det if t[0] + t[3] == t1[0] + t1[3]]
    return t1, draw(st.sampled_from(same_det) | st.sampled_from(same_trace))


class TestArithmetic:
    def test_compose(self):
        assert R @ L == Mat2(2, 1, 1, 1)

    def test_invert_unipotent(self):
        assert Mat2(1, 5, 0, 1).inverse() == Mat2(1, -5, 0, 1)

    def test_det_s(self):
        assert S.det() == 1

    def test_inverse_roundtrip(self):
        for m in (R, L, S, Mat2(1, 0, 0, -1), Mat2(3, 2, 4, 3)):
            assert m @ m.inverse() == I2

    def test_int_str_past_the_digit_limit(self):
        for n in (0, -7, 10**1000 - 1, 10**1000, -(10**2000) - 3, 10**4299 + 12345):
            assert int_str(n) == str(n)
        assert int_str(-(10**5000) - 7) == "-1" + "0" * 4998 + "07"

    @given(st.integers(-(10**1000) + 1, 10**1000 - 1) | st.integers(-(2**64), 2**64))
    def test_int_str_of_a_small_int_is_str(self, n):
        assert int_str(n) == str(n)

    def test_parse_int_inverts_int_str(self):
        for n in (0, -7, 999, 1000, 10**1000 - 1, 10**1000, -(10**2000) - 3, 10**4300 + 1, -(10**12345) - 7):
            assert parse_int(int_str(n)) == n
        for text in ("0", "-0", "007", "-0042", "9" * 999, "1" + "0" * 1000):
            assert parse_int(text) == int(text)

    def test_parse_int_on_both_sides_of_one_chunk(self):
        # one int() reads a text of at most _CHUNK_DIGITS = 1000 characters,
        # so a signed 1000-digit text goes through the chunks
        rng = random.Random("gm4/parse_int/chunk")
        for digits in (999, 1000, 1001, 4301):
            for sign in ("", "-"):
                text = sign + str(rng.randint(1, 9)) + "".join(rng.choice("0123456789") for _ in range(digits - 1))
                assert int_str(parse_int(text)) == text
                n = int(sign + "1") * (10 ** (digits - 1) + rng.randrange(10**6))
                assert parse_int(int_str(n)) == n

    def test_non_unimodular_inverse_rejected(self):
        from gm4 import NotUnimodularError

        with pytest.raises(NotUnimodularError):
            Mat2(1, 1, 1, 1).inverse()

    def test_pow(self):
        assert R ** 5 == Mat2(1, 5, 0, 1)
        assert R ** -3 == Mat2(1, -3, 0, 1)
        assert (S ** 4) == I2


class TestTupleSemantics:
    """Mat2 and ConjClass are NamedTuples; what they inherit from tuple must
    not change what they mean."""

    def test_times_an_int_is_no_repetition(self):
        for value in (R, classify(R)):
            with pytest.raises(TypeError):
                2 * value
            with pytest.raises(TypeError):
                value * 2

    def test_hash_and_equality_are_the_entries(self):
        for m in (I2, R, L, S, Mat2(10**50, -3, 7, 0)):
            assert hash(m) == hash(m.entries()) and m == m.entries()
            assert type(m.entries()) is tuple
        cls = ConjClass("hyperbolic", -1, runs=((2, 1),), power=3)
        assert hash(cls) == hash(("hyperbolic", -1, 0, 0, ((2, 1),), 3))

    def test_repr(self):
        assert repr(R) == "Mat2(a=1, b=1, c=0, d=1)"
        assert repr(ConjClass("parabolic", 1, n=5)) == (
            "ConjClass(kind='parabolic', sign=1, n=5, order=0, runs=(), power=0)"
        )

    def test_order_is_by_entries(self):
        # as the ordered dataclass compared: field by field
        assert not R < L and L < R and S < L
        mats = [R, L, S, I2, -R, R.inverse(), Mat2(2, 1, 1, 1), Mat2(1, 1, 0, 1)]
        assert sorted(mats) == sorted(mats, key=lambda m: (m.a, m.b, m.c, m.d))

    def test_addition_adds_entries(self):
        assert R + L == Mat2(2, 1, 1, 2) and len(R + L) == 4


class TestClassify:
    def test_parabolic_normal_form(self):
        assert classify(Mat2(1, 5, 0, 1)) == ConjClass("parabolic", 1, n=5)

    def test_parabolic_lower_triangular(self):
        # conjugation by S sends [[1,0],[c,1]] to [[1,-c],[0,1]]
        assert classify(Mat2(1, 0, -2, 1)) == ConjClass("parabolic", 1, n=2)

    def test_hyperbolic_rl(self):
        cls = classify(Mat2(2, 1, 1, 1))
        assert cls.kind == "hyperbolic" and cls.sign == 1 and cls.word == ("R", "L")

    def test_central(self):
        assert classify(I2).kind == "central"
        assert classify(-I2) == ConjClass("central", -1)

    def test_elliptic_chirality_distinguishes_s_from_its_inverse(self):
        c1, c2 = classify(S), classify(S.inverse())
        assert c1.kind == c2.kind == "elliptic"
        assert c1.order == c2.order == 4
        assert c1 != c2

    def test_det_minus_one_rejected(self):
        with pytest.raises(NotInSL2ZError):
            classify(Mat2(1, 0, 0, -1))

    @given(sl2z_matrices, sl2z_matrices)
    @settings(max_examples=150, deadline=None)
    def test_conjugation_invariance(self, m, c):
        assert classify(c @ m @ c.inverse()) == classify(m)

    @given(words(max_len=10))
    @settings(max_examples=150, deadline=None)
    def test_hyperbolic_word_reconstructs_matrix(self, word):
        m = to_matrix(word)
        if abs(m.trace()) <= 2:
            return
        cls = classify(m)
        rebuilt = letters_matrix(cls.word)
        if cls.sign == -1:
            rebuilt = -rebuilt
        ok, witness = conjugate_in(m, rebuilt)
        assert ok and witness @ m @ witness.inverse() == rebuilt

    def test_hyperbolic_word_canonical_rotation(self):
        # R L L and its rotations canonicalize identically
        m1 = R @ L @ L
        m2 = L @ R @ L
        m3 = L @ L @ R
        assert classify(m1) == classify(m2) == classify(m3)
        assert classify(m1).word == ("R", "L", "L")


class TestConjugateIn:
    def test_sl_example_with_witness(self):
        ok, w = conjugate_in(Mat2(1, 1, 0, 1), Mat2(1, 0, -1, 1), SL2Z)
        assert ok
        assert w @ Mat2(1, 1, 0, 1) @ w.inverse() == Mat2(1, 0, -1, 1)

    def test_sl_parabolic_sign_classes_differ(self):
        ok, w = conjugate_in(Mat2(1, 1, 0, 1), Mat2(1, -1, 0, 1), SL2Z)
        assert not ok and w is None

    def test_gl_merges_parabolic_signs(self):
        ok, w = conjugate_in(Mat2(1, 1, 0, 1), Mat2(1, -1, 0, 1), GL2Z)
        assert ok
        assert w.det() == -1
        assert w @ Mat2(1, 1, 0, 1) @ w.inverse() == Mat2(1, -1, 0, 1)

    def test_sl_rejects_det_minus_one(self):
        with pytest.raises(NotInSL2ZError):
            conjugate_in(Mat2(1, 0, 0, -1), Mat2(1, 0, 0, -1), SL2Z)

    def test_gl_det_minus_one_involution_classes(self):
        flip = Mat2(1, 0, 0, -1)
        swap = Mat2(0, 1, 1, 0)
        ok, _ = conjugate_in(flip, swap, GL2Z)
        assert not ok
        conj = Mat2(1, 2, 0, -1)  # integrally split involution
        ok, w = conjugate_in(conj, flip, GL2Z)
        assert ok and w @ conj @ w.inverse() == flip
        other = Mat2(1, 1, 0, -1)  # odd off-diagonal: swap class
        ok, w = conjugate_in(other, swap, GL2Z)
        assert ok and w @ other @ w.inverse() == swap

    def test_gl_det_minus_one_nonzero_trace(self):
        m = Mat2(1, 1, 1, 0)  # det -1, trace 1
        c = Mat2(2, 1, 1, 1)
        m2 = c @ m @ c.inverse()
        ok, w = conjugate_in(m, m2, GL2Z)
        assert ok and w @ m @ w.inverse() == m2
        ok, _ = conjugate_in(m, Mat2(2, 1, 1, 0), GL2Z)  # different trace
        assert not ok

    def test_gl_normalises_each_matrix_once(self, monkeypatch):
        seen = []
        normal_form = gl2z._normal_form
        monkeypatch.setattr(gl2z, "_normal_form", lambda m: seen.append(m) or normal_form(m))
        m1, m2 = Mat2(1, 1, 0, 1), Mat2(1, -1, 0, 1)  # GL- but not SL-conjugate
        ok, w = conjugate_in(m1, m2, GL2Z)
        assert ok and w @ m1 @ w.inverse() == m2
        assert len(seen) == 3  # m1, m2 and m1 flipped by J

    def test_unequal_traces_take_no_normal_form(self, monkeypatch):
        calls = []
        for name in ("_normal_form", "_involution_normalize"):
            real = getattr(gl2z, name)
            monkeypatch.setattr(gl2z, name, lambda m, real=real, name=name: calls.append(name) or real(m))
        pairs = [
            (R @ L, R @ R @ L, SL2Z),  # traces 3 and 4
            (R @ L, R @ R @ L, GL2Z),
            (Mat2(1, 1, 1, 0), Mat2(2, 1, 1, 0), GL2Z),  # det -1, traces 1 and 2
            (Mat2(1, 0, 0, -1), Mat2(1, 1, 1, 0), GL2Z),  # det -1, traces 0 and 1
        ]
        for m1, m2, ambient in pairs:
            assert conjugate_in(m1, m2, ambient) == (False, None)
            assert conjugate_in(m2, m1, ambient) == (False, None)
        assert calls == []

    def test_input_errors_come_before_the_trace(self):
        # every pair below has unequal traces
        with pytest.raises(NotInSL2ZError):
            conjugate_in(Mat2(1, 0, 0, -1), R, SL2Z)
        with pytest.raises(NotInSL2ZError):
            conjugate_in(R @ L, Mat2(1, 1, 1, 0), SL2Z)
        with pytest.raises(NotUnimodularError):
            conjugate_in(Mat2(2, 0, 0, 1), R, GL2Z)
        with pytest.raises(NotUnimodularError):
            conjugate_in(R @ L, Mat2(1, 1, 1, 3), GL2Z)
        with pytest.raises(ValueError, match="unknown ambient 'SL3Z'"):
            conjugate_in(R, R @ L, "SL3Z")

    @given(small_pairs(), st.sampled_from([SL2Z, GL2Z]))
    @settings(max_examples=300, deadline=None)
    def test_small_pairs_agree_with_brute_force(self, pair, ambient):
        t1, t2 = pair
        det = t1[0] * t1[3] - t1[1] * t1[2]
        if ambient == SL2Z and det == -1:
            ambient = GL2Z
        flipped = (t1[0], -t1[1], -t1[2], t1[3])  # J t1 J, J = diag(1, -1)
        expected = t2 in small_orbit(t1) or (ambient == GL2Z and t2 in small_orbit(flipped))
        m1, m2 = Mat2(*t1), Mat2(*t2)
        ok, witness = conjugate_in(m1, m2, ambient)
        assert ok == expected, (t1, t2, ambient)
        if ok:
            assert witness.det() in ((1,) if ambient == SL2Z else (1, -1))
            assert witness @ m1 @ witness.inverse() == m2
        else:
            assert witness is None

    def test_mixed_determinants_not_conjugate(self):
        ok, w = conjugate_in(R, Mat2(1, 0, 0, -1), GL2Z)
        assert not ok and w is None

    @given(words(max_len=6), words(max_len=6))
    @settings(max_examples=100, deadline=None)
    def test_all_actual_conjugates_detected(self, w1, w2):
        a, c = to_matrix(w1), to_matrix(w2)
        ok, witness = conjugate_in(a, c @ a @ c.inverse(), SL2Z)
        assert ok
        assert witness @ a @ witness.inverse() == c @ a @ c.inverse()

    def test_agrees_with_brute_force_on_small_entries(self):
        pool = sl2z_entries_up_to(2)
        mats = [Mat2(*t) for t in pool]
        for i, t1 in enumerate(pool):
            orbit = conjugacy_orbit(t1, depth=12)
            for j, t2 in enumerate(pool):
                expected = t2 in orbit
                got, witness = conjugate_in(mats[i], mats[j], SL2Z)
                assert got == expected, (t1, t2)
                if got:
                    assert witness @ mats[i] @ witness.inverse() == mats[j]


def disguised_parabolics():
    """sign * C R^n C^-1 for a conjugator C and n != 0, up to n past the
    4,300-digit limit of str()."""
    big = st.integers(-(10**30), 10**30) | st.integers(1, 50).map(lambda k: 10**4400 + k)
    n = (big | big.map(lambda k: -k)).filter(bool)
    conjugators = words(max_len=12).map(to_matrix)
    return st.builds(
        lambda sign, n, c: Mat2(*(sign * x for x in c @ Mat2(1, n, 0, 1) @ c.inverse())),
        st.sampled_from((1, -1)), n, conjugators,
    )


class TestParabolicOracle:
    """The int parabolic form against the Mat2 routine it replaced."""

    @given(disguised_parabolics())
    @settings(max_examples=400, deadline=None)
    def test_disguised_powers(self, m):
        sign, n, u = gl2z._parabolic_normalize(m)
        assert (sign, n, u) == mat2_parabolic_normalize(m)
        assert type(u) is Mat2 and u.inverse() @ m @ u == Mat2(sign, sign * n, 0, sign)

    def test_recorded_boundary_monodromies(self):
        from pathlib import Path

        from gm4 import load_structure

        gen = bench_gen()
        manifests = Path(__file__).resolve().parent.parent / "manifests"
        texts = [p.read_text() for p in sorted(manifests.glob("*.gm"))]
        texts += [it.text for it in gen.ring_items(1, 1)]
        texts += [t for it in gen.match_items(1, 1) for t in (it.text1, it.text2)]
        monos = set()
        for text in texts:
            try:
                gs = load_structure(text)
            except ValueError:  # the ring workload's invalid files
                continue
            monos.update(m for _, block in gs.blocks for m in block.monodromies.values())
        parabolic = [m for m in monos if abs(m.trace()) == 2 and (m.b, m.c) != (0, 0)]
        assert len(parabolic) >= 40
        for m in parabolic:
            assert gl2z._parabolic_normalize(m) == mat2_parabolic_normalize(m), m

    def test_classify_of_a_parabolic_multiplies_no_matrices(self, monkeypatch):
        calls = []
        real = Mat2.__matmul__

        def counting(self, other):
            calls.append(1)
            return real(self, other)

        monkeypatch.setattr(Mat2, "__matmul__", counting)
        assert R @ L == Mat2(2, 1, 1, 1) and len(calls) == 1
        calls.clear()
        for m in (Mat2(-5, 12, -3, 7), Mat2(-15, 28, -7, 13), Mat2(1, 0, -2, 1), -R):
            assert classify(m).kind == "parabolic"
        assert calls == []


class TestEigenvectorOne:
    def test_unipotent(self):
        assert eigenvector_eigenvalue_one(Mat2(1, 3, 0, 1)) == (1, 0)

    def test_hyperbolic_absent(self):
        assert eigenvector_eigenvalue_one(Mat2(2, 1, 1, 1)) is None

    def test_elliptic_absent(self):
        assert eigenvector_eigenvalue_one(S) is None

    def test_identity_all_vectors(self):
        assert eigenvector_eigenvalue_one(I2) is ALL_VECTORS

    def test_sign_convention(self):
        v = eigenvector_eigenvalue_one(Mat2(1, 0, -4, 1))
        assert v == (0, 1)

    @given(sl2z_matrices)
    @settings(max_examples=100, deadline=None)
    def test_returned_vector_is_fixed_and_primitive(self, m):
        from math import gcd

        v = eigenvector_eigenvalue_one(m)
        if isinstance(v, tuple):
            assert m.apply(v) == v
            assert gcd(v[0], v[1]) == 1


class TestGeneratorWord:
    @given(sl2z_matrices)
    @settings(max_examples=150, deadline=None)
    def test_word_multiplies_back(self, m):
        for pivot in ("floor", "round"):
            out = I2
            for gen, exp in generator_word(m, pivot):
                out = out @ ((R ** exp) if gen == "R" else S)
            assert out == m


def rl_words(max_len=300):
    """R/L words with both letters: free words, and periodic ones such as
    (RL)^k and (RRL)^k, whose least rotation is not unique."""
    free = st.text(alphabet="RL", min_size=2, max_size=max_len)
    periodic = st.builds(
        lambda base, k: base * k,
        st.text(alphabet="RL", min_size=2, max_size=6),
        st.integers(1, max_len // 6),
    )
    return st.one_of(free, periodic).filter(lambda w: "R" in w and "L" in w)


def runs_and_power(letters):
    """(runs, power) of a positive R/L word that starts with R and ends with
    L: its (R-run, L-run) pairs, cut to their least period."""
    runs = [(len(r), len(l)) for r, l in re.findall("(R+)(L+)", "".join(letters))]
    d = next(d for d in range(1, len(runs) + 1) if runs == runs[:d] * (len(runs) // d))
    return tuple(runs[:d]), len(runs) // d


disguises = st.lists(
    st.tuples(st.sampled_from([R, L, S]), st.sampled_from([1, -1, 2, -3, 7, -40])),
    max_size=12,
).map(lambda gens: to_matrix([g ** k for g, k in gens]))


class TestRunLengthNormalForm:
    """The run-length normal form against the letter-by-letter one."""

    @given(rl_words(), disguises, st.sampled_from([1, -1]))
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_letterwise_oracle(self, word, c, sign):
        positive = c @ letters_matrix(word) @ c.inverse()
        m = positive if sign == 1 else -positive
        cls, u = _normal_form(m)
        oracle_word, oracle_u = letterwise_normal_form(positive.entries())
        runs, power = runs_and_power(oracle_word)
        assert cls == ConjClass("hyperbolic", sign, runs=runs, power=power)
        assert str(cls) == f"Hyperbolic({sign:+d}, {oracle_word})"
        assert u.det() == 1
        assert u.inverse() @ positive @ u == letters_matrix(oracle_word)
        assert psi(m) == word.count("R") - word.count("L")

    @given(
        rl_words(max_len=60),
        st.lists(st.tuples(st.sampled_from([R, L]), st.integers(1, 60), st.sampled_from([1, -1])),
                 min_size=8, max_size=30),
    )
    @settings(max_examples=100, deadline=None)
    def test_agrees_with_letterwise_oracle_far_from_reduced(self, word, factors):
        # a long product of R and L powers of both signs moves the fixed
        # point far from a reduced one, so the walk has a long pre-period
        c = to_matrix(g ** (k * e) for g, k, e in factors)
        m = c @ letters_matrix(word) @ c.inverse()
        oracle_word, _ = letterwise_normal_form(m.entries())
        runs, power = runs_and_power(oracle_word)
        assert classify(m) == ConjClass("hyperbolic", 1, runs=runs, power=power)

    def test_long_run_is_one_pair(self):
        n = 10**7
        m = Mat2(n + 1, n, 1, 1)  # R^n L
        cls = classify(m)
        assert (cls.runs, cls.power, cls.length) == (((n, 1),), 1, n + 1)
        assert psi(m) == n - 1

    @given(st.lists(st.integers(0, 2), min_size=1, max_size=6), st.integers(1, 5), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_booth_returns_first_least_rotation(self, base, k, periodic):
        seq = base * k if periodic else base
        rotations = [seq[i:] + seq[:i] for i in range(len(seq))]
        assert _least_rotation(seq) == rotations.index(min(rotations))

    def test_matrix_products_grow_with_runs_not_letters(self, monkeypatch):
        count = [0]
        product = Mat2.__matmul__

        def counted(x, y):
            count[0] += 1
            return product(x, y)

        def products(m):
            count[0] = 0
            classify(m)
            return count[0]

        monkeypatch.setattr(Mat2, "__matmul__", counted)
        # the continued fraction takes no Mat2 product, and U = P H and
        # W = T H take one each only where the least rotation starts inside
        # the period (H is not empty), never for these one-pair periods; the
        # check takes two, plus the squarings of W ** n: R^n L is one
        # period, (RL)^n is n periods of RL
        ns = (8, 64, 512, 4096)
        assert all(products(Mat2(n + 1, n, 1, 1)) <= 4 for n in ns + (10**5,))
        for n in ns:
            assert products(letters_matrix(("R", "L") * n)) <= 3 + 2 * log2(n), n

    @given(
        st.lists(st.tuples(st.integers(1, 60), st.integers(1, 60)), min_size=1, max_size=2)
        | st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)), min_size=1, max_size=24),
        st.integers(0, 23),
        st.integers(1, 4),
        st.just(I2) | disguises,
        st.sampled_from([1, -1]),
    )
    @settings(max_examples=300, deadline=None)
    @example(pairs=[(5, 2)], offset=0, power=3, c=I2, sign=1)
    @example(pairs=[(3, 1), (1, 2), (2, 2), (1, 1)], offset=0, power=1, c=I2, sign=1)
    @example(pairs=[(3, 1), (1, 2), (2, 2), (1, 1)], offset=2, power=2, c=I2, sign=-1)
    @example(pairs=[(3, 1), (1, 2), (2, 2), (1, 1)], offset=1, power=4, c=I2, sign=1)
    @example(pairs=[(3, 1), (1, 2), (2, 2), (1, 1)], offset=2, power=1, c=R ** 5 @ L ** 7, sign=1)
    def test_runs_are_the_least_rotation_keyed_by_pairs(self, pairs, offset, power, c, sign):
        # the word, rotated by offset pairs, to the given power: undisguised
        # (c = I2), the walk reads it from its first pair, so the least
        # rotation starts at the first pair (offset 0), mid-period (offset 2
        # of 4) or at the last pair (offset 1 of 4)
        k = next(d for d in range(1, len(pairs) + 1) if pairs == pairs[:d] * (len(pairs) // d))
        period = pairs[:k]
        runs = min((period[i:] + period[:i] for i in range(k)), key=lambda rot: [(-a, b) for a, b in rot])
        shift = offset % k
        positive = c @ gl2z._pairs_matrix(period[shift:] + period[:shift]) ** (power * len(pairs) // k) @ c.inverse()
        cls, u = _normal_form(positive if sign == 1 else -positive)
        assert cls == ConjClass("hyperbolic", sign, runs=tuple(runs), power=power * len(pairs) // k)
        assert u.inverse() @ positive @ u == gl2z._pairs_matrix(runs) ** cls.power

    @pytest.mark.parametrize("offset, r0", [(0, 0), (2, 2), (1, 3)])
    def test_least_rotation_at_the_start_middle_and_end(self, offset, r0, monkeypatch):
        found = []
        least = gl2z._least_rotation

        def recorded(seq):
            found.append(least(seq))
            return found[-1]

        monkeypatch.setattr(gl2z, "_least_rotation", recorded)
        period = [(3, 1), (1, 2), (2, 2), (1, 1)]
        rotated = period[offset:] + period[:offset]
        cls, u = _normal_form(gl2z._pairs_matrix(rotated))
        assert found == [r0] and cls.runs == tuple(period)
        assert u == gl2z._pairs_matrix(rotated[:r0])

    def test_each_pair_is_multiplied_once(self, monkeypatch):
        # the walk reads the pre-period R^5 L^7, then the period from
        # (2, 2), whose least rotation starts at its third pair: U = P H and
        # W = T H multiply 1 + 4 pairs, where U and W multiplied out apart
        # would take 1 + 2 and 4
        counted = []
        pairs_matrix = gl2z._pairs_matrix

        def counting(pairs):
            pairs = list(pairs)
            counted.append(len(pairs))
            return pairs_matrix(pairs)

        monkeypatch.setattr(gl2z, "_pairs_matrix", counting)
        period = [(3, 1), (1, 2), (2, 2), (1, 1)]
        c = R ** 5 @ L ** 7
        m = c @ pairs_matrix(period[2:] + period[:2]) @ c.inverse()
        cls, u = _normal_form(m)
        assert cls.runs == tuple(period) and cls.power == 1
        assert u == c @ pairs_matrix(period[2:])
        assert sum(counted) == 1 + 4

    def test_walks_the_period_not_the_power(self, monkeypatch):
        seqs = []
        least = gl2z._least_rotation

        def recorded(seq):
            seqs.append(seq)
            return least(seq)

        monkeypatch.setattr(gl2z, "_least_rotation", recorded)
        n = 2 * 10**4
        assert classify(letters_matrix(("R", "L")) ** n) == ConjClass("hyperbolic", 1, runs=((1, 1),), power=n)
        assert [len(seq) for seq in seqs] == [1]

    def test_long_runs_past_the_old_step_guards(self):
        assert classify(Mat2(150001, 150000, 1, 1)) == ConjClass(
            "hyperbolic", 1, runs=((150000, 1),), power=1
        )
        m = L ** 150000 @ R @ L @ L ** -150000
        assert str(classify(m)) == "Hyperbolic(+1, RL)"


class TestAbelianizationMod3:
    """The character R -> 1, S -> 0 read from the table of SL(2,Z/3)."""

    @given(words(24), st.sampled_from(["floor", "round"]))
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_the_r_exponent_sum(self, word, pivot):
        m = to_matrix(word)
        r_sum = sum(exp for gen, exp in generator_word(m, pivot) if gen == "R")
        assert abelianization_mod3(m) == r_sum % 3

    def test_table_is_sl2_z3(self):
        assert len(CHI3) == 24
        assert all((a * d - b * c) % 3 == 1 for a, b, c, d in CHI3)
        assert [abelianization_mod3(m) for m in (I2, R, L, S, -I2)] == [0, 1, 2, 0, 0]

    def test_rejects_det_minus_one(self):
        with pytest.raises(NotInSL2ZError):
            abelianization_mod3(Mat2(1, 0, 0, -1))


class TestWordsWorkloadReplay:
    """The first block of the bench's `words` items of seeds 1-3, with the
    answers that bench/gen.py derives from each item's construction."""

    def test_first_block(self):
        gen = bench_gen()
        for seed in (1, 2, 3):
            items = gen.word_items(seed, 1)
            assert len(items) == 100 and max(len(it.m1.word) for it in items) <= 2048
            for it in items:
                m1 = Mat2(*it.m1.mat)
                want = gen.word_expected(it)
                if it.op == "classify":
                    assert str(classify(m1)) == want, (seed, it.id)
                    continue
                if it.op == "psi":
                    assert psi(m1) == want, (seed, it.id)
                    continue
                m2 = Mat2(*it.m2.mat)
                ok, c = conjugate_in(m1, m2, SL2Z if it.op == "conj_sl" else GL2Z)
                assert ok == want, (seed, it.id)
                if ok:
                    assert c.det() in ((1,) if it.op == "conj_sl" else (1, -1)), (seed, it.id)
                    assert c @ m1 @ c.inverse() == m2, (seed, it.id)


class TestResultChecks:
    """A failed result check raises RuntimeError, also under python -O."""

    def test_normal_form_check(self, monkeypatch):
        monkeypatch.setattr(gl2z, "_pairs_matrix", lambda pairs: I2)
        with pytest.raises(RuntimeError, match="hyperbolic normal form"):
            classify(Mat2(2, 1, 1, 1))

    def test_positive_period_check(self, monkeypatch):
        # with sqrt(disc) read as 1, every partial quotient of the fixed
        # point of [[2,3],[1,2]] is 0 and the period (0, 0) is not a word
        monkeypatch.setattr(gl2z, "isqrt", lambda n: 1)
        with pytest.raises(RuntimeError, match="positive period word"):
            classify(Mat2(2, 3, 1, 2))

    # (matrix, root + delta) -> the class, or None for a RuntimeError, as
    # the one-loop walk (pre-period and period both with the sign branch)
    # gave them
    WRONG_ROOTS = {
        ((2, 1, 1, 1), -1): "Hyperbolic(+1, RL)",
        ((2, 1, 1, 1), 1): None,
        ((2, 1, 1, 1), 2): None,
        ((2, 1, 1, 1), 5): None,
        ((2, 3, 1, 2), -1): "Hyperbolic(+1, RRL)",
        ((2, 3, 1, 2), 1): None,
        ((2, 3, 1, 2), 2): None,
        ((2, 3, 1, 2), 5): None,
        ((5, 2, 2, 1), -1): "Hyperbolic(+1, RRLL)",
        ((5, 2, 2, 1), 1): "Hyperbolic(+1, RRLL)",
        ((5, 2, 2, 1), 2): "Hyperbolic(+1, RRLL)",
        ((5, 2, 2, 1), 5): None,
        ((3, 4, 2, 3), -1): "Hyperbolic(+1, RRLL)",
        ((3, 4, 2, 3), 1): "Hyperbolic(+1, RRLL)",
        ((3, 4, 2, 3), 2): "Hyperbolic(+1, RRLL)",
        ((3, 4, 2, 3), 5): None,
        ((13, 8, 8, 5), -1): "Hyperbolic(+1, RLRLRL)",
        ((13, 8, 8, 5), 1): "Hyperbolic(+1, RLRLRL)",
        ((13, 8, 8, 5), 2): "Hyperbolic(+1, RLRLRL)",
        ((13, 8, 8, 5), 5): "Hyperbolic(+1, RLRLRL)",
    }

    @pytest.mark.parametrize("entries, delta", sorted(WRONG_ROOTS))
    def test_wrong_root(self, entries, delta, monkeypatch):
        # a wrong square root either fails a check with RuntimeError (never
        # ValueError, ZeroDivisionError or a walk that does not stop) or,
        # where the walk still meets a period, gives the right class and U
        m = Mat2(*entries)
        want, u_want = _normal_form(m)
        isqrt = gl2z.isqrt
        monkeypatch.setattr(gl2z, "isqrt", lambda n: isqrt(n) + delta)
        if self.WRONG_ROOTS[entries, delta] is None:
            with pytest.raises(RuntimeError):
                _normal_form(m)
        else:
            cls, u = _normal_form(m)
            assert str(cls) == self.WRONG_ROOTS[entries, delta] and (cls, u) == (want, u_want)

    def test_witness_check(self, monkeypatch):
        monkeypatch.setattr(gl2z, "_normal_form", lambda m: (ConjClass("central"), I2))
        for ambient in (SL2Z, GL2Z):
            with pytest.raises(RuntimeError, match="conjugacy witness"):
                conjugate_in(R, L, ambient)

    def test_generator_word_check(self, monkeypatch):
        monkeypatch.setattr(gl2z, "_run", lambda letter, k: I2)
        with pytest.raises(RuntimeError, match="generator word"):
            generator_word(Mat2(2, 1, 1, 1))

    def test_eigenvector_check(self, monkeypatch):
        monkeypatch.setattr(gl2z, "primitive", lambda v: (1, 1))
        with pytest.raises(RuntimeError, match="eigenvector of eigenvalue 1"):
            eigenvector_eigenvalue_one(R)

    def test_eigenbasis_check(self, monkeypatch):
        monkeypatch.setattr(gl2z, "eigenvector_eigenvalue_one", lambda m: (1, 0))
        with pytest.raises(RuntimeError, match="eigenbasis"):
            gl2z._involution_normalize(Mat2(1, 0, 0, -1))

    def test_half_sum_integrality_check(self, monkeypatch):
        vectors = iter([(1, 0), (1, 1)])  # the +1 and -1 eigenvectors
        monkeypatch.setattr(gl2z, "eigenvector_eigenvalue_one", lambda m: next(vectors))
        with pytest.raises(RuntimeError, match="integral half-sum"):
            gl2z._involution_normalize(Mat2(0, 1, 1, 0))

    def test_half_sum_basis_check(self, monkeypatch):
        monkeypatch.setattr(gl2z, "eigenvector_eigenvalue_one", lambda m: (1, 1))
        with pytest.raises(RuntimeError, match="half-sum basis"):
            gl2z._involution_normalize(Mat2(0, 1, 1, 0))

    def test_elliptic_endgame_check(self, monkeypatch):
        monkeypatch.setattr(gl2z, "_ELLIPTIC_REPS", {})
        with pytest.raises(RuntimeError, match="elliptic normal form"):
            gl2z._elliptic_normalize(S)
