"""Free group endomorphisms: application, inverses, abelianized growth."""

import random
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from burntrack.automorphisms import (
    BasisMap,
    Growth,
    abelianization,
    certifies_polynomial_growth,
    compose,
    decide_growth,
    growth_rank2,
    growth_rate_estimate,
    letter_count_matrix,
    polynomial_order_bound,
    verify_automorphism,
)
from burntrack.limits import GrowthCapExceeded
from burntrack.words import Alphabet, GroupWord, InverseAlphabet, Word, flip, reduce

from .oracles import generates_free_group_bruteforce

FREE2 = InverseAlphabet("ab")
FREE4 = InverseAlphabet("abcd")

FIB = BasisMap(FREE2, {"a": "a b", "b": "a"})
FIB_INV = BasisMap(FREE2, {"a": "b", "b": "b^-1 a"})
TWIST = BasisMap(FREE2, {"a": "a", "b": "b a"})
SWAP = BasisMap(FREE2, {"a": "b", "b": "a"})

PSI = BasisMap(FREE4, {"a": "a", "b": "b a", "c": "c b c d", "d": "c"})
PSI_INV = BasisMap(
    FREE4,
    {"a": "a", "b": "b a^-1", "c": "d", "d": "d^-1 a b^-1 d^-1 c"},
)


def phi(n):
    """a -> a (b a^n)^n, b -> b a^n; exponentially growing for n >= 1."""
    block = "b" + " a" * n
    return BasisMap(
        FREE2,
        {"a": "a" + (" " + block) * n, "b": block},
    )


class TestBasisMap:
    def test_guards(self):
        with pytest.raises(ValueError):
            BasisMap(FREE2, {"a": "a"})
        with pytest.raises(ValueError):
            BasisMap(FREE2, {"a": "a", "b": "b", "a^-1": "a^-1"})
        with pytest.raises(ValueError):
            BasisMap(FREE2, {"a": Word(FREE4, "a"), "b": "b"})
        with pytest.raises(ValueError, match="needs an InverseAlphabet"):
            BasisMap(Alphabet("ab"), {"a": "a", "b": "b"})
        with pytest.raises(ValueError, match="different alphabet"):
            FIB.apply(Word(FREE4, "a"))

    def test_images_reduced_on_input(self):
        f = BasisMap(FREE2, {"a": "a b b^-1 a", "b": "b"})
        assert f.image("a").compact() == "aa"
        g = BasisMap(FREE2, {"a": "b b^-1", "b": "b"})
        assert g.image("a").is_trivial  # endomorphisms may kill a generator

    def test_inverse_letter_images(self):
        assert FIB.image("a^-1").compact() == "BA"
        assert PSI.image("c^-1").compact() == "DCBC"

    def test_apply_golden(self):
        assert FIB.apply(Word.parse(FREE2, "b^-1 a")).compact() == "b"
        assert FIB.apply(Word.parse(FREE2, "a b^-1")).compact() == "abA"
        assert PSI.apply(GroupWord(FREE4, ["d"])).compact() == "c"

    def test_apply_is_reduced(self):
        f = BasisMap(FREE2, {"a": "a b", "b": "b^-1 a^-1"})
        out = f.apply(Word.parse(FREE2, "a b"))
        assert isinstance(out, GroupWord)
        assert out.is_trivial

    def test_identity(self):
        e = BasisMap.identity(FREE2)
        assert e == BasisMap(FREE2, {"a": "a", "b": "b"}) and FIB != e
        w = Word.parse(FREE2, "a b a^-1")
        assert e.apply(w) == reduce(w)

    def test_apply_respects_letter_cap(self, monkeypatch):
        # the cap is checked against the length before cancellation, so the
        # image (here fully cancelled) is never built
        f = BasisMap(FREE2, {"a": "a" + " b" * 40, "b": "b"})
        w = Word.parse(FREE2, "a a^-1 " * 10)
        monkeypatch.setenv("BURNTRACK_MAX_LETTERS", "500")
        with pytest.raises(GrowthCapExceeded) as exc:
            f.apply(w)
        assert (exc.value.needed, exc.value.cap) == (820, 500)
        monkeypatch.setenv("BURNTRACK_MAX_LETTERS", "820")
        assert f.apply(w).is_trivial
        assert f(Word.parse(FREE2, "b " * 500)).compact() == "b" * 500

    @given(st.lists(st.integers(0, 3), max_size=30), st.lists(st.integers(0, 3), max_size=30))
    @settings(max_examples=60)
    def test_homomorphism(self, s, t):
        u = Word.from_indices(FREE2, s)
        v = Word.from_indices(FREE2, t)
        assert FIB.apply(u * v) == reduce(FIB.apply(u) * FIB.apply(v))

    @given(st.lists(st.integers(0, 3), max_size=30))
    def test_commutes_with_flip(self, s):
        w = Word.from_indices(FREE2, s)
        assert FIB.apply(flip(w)) == flip(FIB.apply(w))


class TestPowerCompose:
    def test_fib_orbit_via_power(self):
        assert FIB.power(7).image("b").compact() == "abaababaabaababaababa"
        assert FIB.power(0) == BasisMap.identity(FREE2)
        assert FIB.power(1) == FIB

    def test_psi_powers_of_d(self):
        assert PSI.power(3).image("d").compact() == "cbcdbacbcdc"
        assert (
            PSI.power(4).image("d").compact()
            == "cbcdbacbcdcbaacbcdbacbcdccbcd"
        )

    def test_power_matches_repeated_compose(self):
        g = compose(FIB, compose(FIB, FIB))
        assert FIB.power(3) == g

    def test_power_cap(self, monkeypatch):
        monkeypatch.setenv("BURNTRACK_MAX_LETTERS", "10000")
        with pytest.raises(GrowthCapExceeded):
            FIB.power(64)
        with pytest.raises(ValueError):
            FIB.power(-1)

    def test_compose_mismatch(self):
        with pytest.raises(ValueError):
            compose(FIB, PSI)


class TestVerifyAutomorphism:
    def test_golden_pairs(self):
        assert verify_automorphism(FIB, FIB_INV)
        assert verify_automorphism(FIB_INV, FIB)
        assert verify_automorphism(PSI, PSI_INV)
        assert verify_automorphism(SWAP, SWAP)
        assert verify_automorphism(BasisMap.identity(FREE2), BasisMap.identity(FREE2))

    def test_rejects_wrong_inverse(self):
        assert not verify_automorphism(FIB, FIB)
        assert not verify_automorphism(FIB, BasisMap.identity(FREE2))
        assert not verify_automorphism(FIB, PSI_INV)

    def test_rejects_non_invertible(self):
        sq = BasisMap(FREE2, {"a": "a a", "b": "b"})
        assert not verify_automorphism(sq, BasisMap.identity(FREE2))


class TestAbelianization:
    def test_fib(self):
        ab = abelianization(FIB)
        assert ab.rows == ((1, 1), (1, 0))
        assert ab.det == -1
        assert ab.trace_of_square() == 3

    def test_signed_counts(self):
        f = BasisMap(FREE2, {"a": "a b^-1 a", "b": "b"})
        with pytest.warns(UserWarning):  # det 2: not invertible, still counted
            assert abelianization(f).rows == ((2, 0), (-1, 1))

    def test_psi(self):
        ab = abelianization(PSI)
        assert ab.rows == ((1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 2, 1), (0, 0, 1, 0))
        assert ab.det == -1

    def test_twist_family(self):
        for n in (1, 2, 3, 5):
            ab = abelianization(phi(n))
            assert ab.rows == ((1 + n * n, n), (n, 1))
            assert ab.det == 1
            assert ab.trace_of_square() == n ** 4 + 4 * n ** 2 + 2

    def test_warns_when_not_invertible(self):
        sq = BasisMap(FREE2, {"a": "a a", "b": "b"})
        with pytest.warns(UserWarning, match="determinant is 2"):
            ab = abelianization(sq)
        assert ab.det == 2

    def test_no_warning_for_units(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            abelianization(FIB)
            abelianization(SWAP)


class TestGrowth:
    def test_rank2_dichotomy(self):
        assert growth_rank2(FIB) is Growth.EXPONENTIAL
        assert growth_rank2(TWIST) is Growth.POLYNOMIAL
        assert growth_rank2(SWAP) is Growth.POLYNOMIAL
        assert growth_rank2(BasisMap.identity(FREE2)) is Growth.POLYNOMIAL
        for n in (1, 2, 3):
            assert growth_rank2(phi(n)) is Growth.EXPONENTIAL

    def test_finite_order_is_polynomial(self):
        # order 4 in the abelianization: a -> b^-1, b -> a
        rot = BasisMap(FREE2, {"a": "b^-1", "b": "a"})
        assert growth_rank2(rot) is Growth.POLYNOMIAL

    def test_rank_guard(self):
        with pytest.raises(ValueError):
            growth_rank2(PSI)

    def test_str(self):
        assert str(Growth.EXPONENTIAL) == "exponential"

    def test_estimate_exponential(self):
        est = growth_rate_estimate(FIB, depth=16)
        assert abs(est.estimate - (1 + 5 ** 0.5) / 2) < 1e-2
        assert est.lengths[0] == 2 and len(est.lengths) == 17

    def test_estimate_polynomial(self):
        est = growth_rate_estimate(TWIST, depth=20)
        assert 1.0 < est.estimate < 1.1
        assert growth_rate_estimate(BasisMap.identity(FREE2), depth=4).estimate == 1.0

    def test_estimate_guards(self, monkeypatch):
        with pytest.raises(ValueError):
            growth_rate_estimate(FIB, depth=0)
        monkeypatch.setenv("BURNTRACK_MAX_LETTERS", "10000")
        with pytest.raises(GrowthCapExceeded):
            growth_rate_estimate(FIB, depth=60)


FREE3 = InverseAlphabet("abc")
# a -> a, b -> b a, c -> c b: unipotent and triangular, so it grows polynomially
TRI = BasisMap(FREE3, {"a": "a", "b": "b a", "c": "c b"})
NIELSEN2 = [FIB, FIB_INV, TWIST, SWAP, BasisMap(FREE2, {"a": "a^-1", "b": "b"}),
            BasisMap(FREE2, {"a": "a", "b": "a^-1 b"})]


class TestPolynomialCertificate:
    def test_letter_counts_ignore_orientation(self):
        f = BasisMap(FREE3, {"a": "a b^-1 a", "b": "c^-1", "c": "c b c"})
        assert letter_count_matrix(f).rows == ((2, 0, 0), (1, 0, 1), (0, 1, 2))
        assert letter_count_matrix(TRI).rows == ((1, 1, 0), (0, 1, 1), (0, 0, 1))

    def test_examples(self):
        assert certifies_polynomial_growth(TRI)
        assert certifies_polynomial_growth(TWIST) and certifies_polynomial_growth(SWAP)
        assert certifies_polynomial_growth(BasisMap.identity(FREE3))
        # the Fibonacci block in a rank-3 map fails: this map is exponential
        assert not certifies_polynomial_growth(BasisMap(FREE3, {"a": "a b", "b": "a", "c": "c"}))
        assert not certifies_polynomial_growth(FIB) and not certifies_polynomial_growth(PSI)

    def test_tri_meets_the_letter_count_bound(self):
        # nothing cancels in TRI, so its lengths are the entry sums of M^p: 3 + 2p + p(p-1)/2
        m = letter_count_matrix(TRI)
        lengths = growth_rate_estimate(TRI, depth=12).lengths
        expected, power = [3], m  # M^0 is the identity, one letter per generator
        for _ in range(12):
            expected.append(sum(map(sum, power.rows)))
            power = power * m
        assert list(lengths) == expected
        assert lengths[12] == 3 + 24 + 66

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from([FREE2, FREE3]).flatmap(lambda alph: st.tuples(
        st.just(alph),
        st.lists(st.lists(st.integers(0, 2 * alph.rank - 1), min_size=1, max_size=3),
                 min_size=alph.rank, max_size=alph.rank),
    )))
    def test_reduced_lengths_obey_letter_counts(self, case):
        # the bound behind the certificate: |f^p(x)| <= column x of M^p, summed
        alph, images = case
        f = BasisMap(alph, {x: Word.from_indices(alph, img) for x, img in zip(alph.positive_letters, images)})
        m = letter_count_matrix(f)
        for q, x in enumerate(alph.positive_letters):
            w, power = GroupWord(alph, [x]), m
            for _ in range(4):
                w = f.apply(w)
                assert len(w) <= sum(row[q] for row in power.rows)
                power = power * m

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from(range(len(NIELSEN2))), max_size=6))
    def test_sound_against_rank2_dichotomy(self, picks):
        f = BasisMap.identity(FREE2)
        for k in picks:
            f = compose(NIELSEN2[k], f)
        if certifies_polynomial_growth(f):
            assert growth_rank2(f) is Growth.POLYNOMIAL


def nielsen_moves(alph):
    """(move, inverse) pairs that generate the automorphisms: inversions, swaps, transvections."""
    xs = alph.positive_letters
    moves = []
    for x in xs:
        inversion = BasisMap(alph, {z: f"{z}^-1" if z == x else z for z in xs})
        moves.append((inversion, inversion))
        for y in xs:
            if x < y:
                swap = BasisMap(alph, {z: y if z == x else x if z == y else z for z in xs})
                moves.append((swap, swap))
            if x != y:
                moves.append(tuple(
                    BasisMap(alph, {z: f"{x} {y}{e}" if z == x else z for z in xs}) for e in ("", "^-1")
                ))
    return moves


MOVES = {FREE2: nielsen_moves(FREE2), FREE3: nielsen_moves(FREE3)}


def nielsen_product(alph, picks):
    """The product of the picked moves, applied first to last, and its inverse."""
    f = g = BasisMap.identity(alph)
    for k in picks:
        move, inverse = MOVES[alph][k]
        f, g = compose(move, f), compose(g, inverse)
    return f, g


def conjugated(f, w):
    """i_w after f: x -> w f(x) w^-1."""
    return BasisMap(f.alphabet, {x: w * f.image(x) * flip(w) for x in f.alphabet.positive_letters})


def reduced_word(rng, alph, length):
    seq = []
    while len(seq) < length:
        x = rng.randrange(2 * alph.rank)
        if not seq or seq[-1] != x ^ 1:
            seq.append(x)
    return GroupWord.from_indices(alph, seq)


class TestDecideGrowth:
    def test_examples(self):
        assert decide_growth(FIB) == (Growth.EXPONENTIAL, "trace criterion")
        assert decide_growth(SWAP) == (Growth.POLYNOMIAL, "trace criterion")
        assert decide_growth(TRI) == (Growth.POLYNOMIAL, "letter-count blocks")
        assert decide_growth(PSI) is None
        # not automorphisms, so no trace criterion: a -> a a has determinant 2, and
        # a -> a, b -> b a b a^-1 b^-1 has determinant 1 but is not onto
        assert decide_growth(BasisMap(FREE2, {"a": "a a", "b": "b"})) is None
        assert decide_growth(BasisMap(FREE2, {"a": "a", "b": "b a b a^-1 b^-1"})) is None
        assert decide_growth(BasisMap(FREE2, {"a": "a", "b": "a"})) == (
            Growth.POLYNOMIAL, "letter-count blocks",
        )

    def test_nielsen_premise_against_folding(self):
        # the trace criterion applies exactly when the images of a and b fold to the rose
        rng = random.Random(2017)
        bases = 0
        for trial in range(2000):
            if trial % 2:
                picks = [rng.randrange(len(MOVES[FREE2])) for _ in range(rng.randint(1, 8))]
                f = conjugated(nielsen_product(FREE2, picks)[0], reduced_word(rng, FREE2, rng.randint(0, 2)))
            else:
                f = BasisMap(FREE2, {x: reduced_word(rng, FREE2, rng.randint(1, 6)) for x in "ab"})
            basis = generates_free_group_bruteforce(f.letter_image(0), f.letter_image(2))
            assert ((decide_growth(f) or (None, None))[1] == "trace criterion") == basis
            bases += basis
        assert 1000 < bases < 2000

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from([FREE2, FREE3]).flatmap(lambda alph: st.tuples(
        st.just(alph),
        st.lists(st.integers(0, len(MOVES[alph]) - 1), max_size=6),
        st.lists(st.integers(0, 2 * alph.rank - 1), max_size=3),
        st.lists(st.integers(0, len(MOVES[alph]) - 1), max_size=4),
    )))
    def test_same_growth_across_the_outer_class(self, case):
        # f, i_w after f and h f h^-1 are one outer automorphism, so they grow alike
        alph, f_picks, w, h_picks = case
        f = nielsen_product(alph, f_picks)[0]
        h, h_inv = nielsen_product(alph, h_picks)
        assert compose(h, h_inv) == BasisMap.identity(alph)
        maps = (f, conjugated(f, reduce(Word.from_indices(alph, w))), compose(h, compose(f, h_inv)))
        assert len({answer[0] for answer in map(decide_growth, maps) if answer}) <= 1


class TestOrderBound:
    def test_golden(self):
        assert polynomial_order_bound(2, 3) == 9
        assert polynomial_order_bound(3, 2) == 64
        assert polynomial_order_bound(1, 5) == 1
        assert polynomial_order_bound(2, 2) == 4

    def test_guards(self):
        with pytest.raises(ValueError):
            polynomial_order_bound(0, 3)
        with pytest.raises(ValueError):
            polynomial_order_bound(2, 1)
