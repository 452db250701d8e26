"""Words layer: alphabets, reduction, flips, repetition search and the letter-map core."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from burntrack.automorphisms import BasisMap
from burntrack.graphmap import Graph, StratifiedGraphMap
from burntrack.substitutions import Substitution
from burntrack.words import (
    Alphabet,
    GroupWord,
    InverseAlphabet,
    PowerRun,
    Word,
    cyclic_reduce,
    find_power_runs,
    flip,
    max_power_index,
    primitive_root,
    reduce,
)
from burntrack.words import _runs

from .oracles import (
    is_primitive_seq,
    maximal_runs_bruteforce,
    power_index_bruteforce,
)

AB = Alphabet("ab")
FREE2 = InverseAlphabet("ab")
FREE3 = InverseAlphabet("abc")


def word(text, alphabet=AB):
    return Word(alphabet, text)


def runs_as_tuples(runs):
    return [(r.start, len(r.period), r.exponent, r.remainder) for r in runs]


def scanned(seq, min_exponent=2):
    """The scanner's runs as (start, period_length, exponent, remainder)."""
    return [(k, p, length // p, length % p) for k, p, length in _runs(seq, min_exponent)]


def assert_maximal_primitive(seq, runs, min_exponent):
    """Each run has a primitive period, enough periods, and extends no further."""
    for r in runs:
        assert is_primitive_seq(r.period.indices)
        assert r.exponent >= min_exponent
        p = len(r.period)
        stretch_end = r.start + r.exponent * p + r.remainder
        for k in range(r.start, stretch_end - p):
            assert seq[k] == seq[k + p]
        if r.start > 0:
            assert seq[r.start - 1] != seq[r.start - 1 + p]
        if stretch_end < len(seq):
            assert seq[stretch_end] != seq[stretch_end - p]


class TestAlphabets:
    def test_plain_basics(self):
        assert AB.letters == ("a", "b")
        assert len(AB) == 2
        assert AB.index("b") == 1
        assert "a" in AB and "c" not in AB
        assert not AB.has_inverses
        assert AB.positive_letters == AB.letters

    def test_rejects_bad_names(self):
        with pytest.raises(ValueError):
            Alphabet(["a", "a"])
        with pytest.raises(ValueError):
            Alphabet(["a b"])
        with pytest.raises(ValueError):
            Alphabet(["x^2"])
        with pytest.raises(ValueError):
            Alphabet([])
        with pytest.raises(ValueError):
            Alphabet([""])

    def test_inverse_interleaving(self):
        assert FREE2.letters == ("a", "a^-1", "b", "b^-1")
        assert FREE2.positive_letters == ("a", "b")
        assert FREE2.rank == 2

    def test_token_forms(self):
        assert FREE2.parse_token("a") == 0
        assert FREE2.parse_token("a^-1") == 1
        assert FREE2.parse_token("inv(a)") == 1
        assert FREE2.parse_token("A") == 1
        assert FREE2.parse_token("B") == 3
        with pytest.raises(ValueError):
            FREE2.parse_token("c")
        with pytest.raises(ValueError):
            FREE2.parse_token("inv(c)")
        with pytest.raises(ValueError):
            AB.parse_token("A")

    def test_equality_separates_structures(self):
        assert Alphabet("ab") == Alphabet("ab")
        assert Alphabet("ab") != Alphabet("ba")
        assert InverseAlphabet("ab") == InverseAlphabet("ab")
        assert Alphabet("ab") != InverseAlphabet("ab")

    def test_distinct_equal_alphabets_compare_by_value(self):
        # __eq__ answers True for the same object at once; other objects are still compared
        for make, inverses, letters in [
            (Alphabet, False, ("a", "b")), (InverseAlphabet, True, ("a", "a^-1", "b", "b^-1")),
        ]:
            x, y = make("ab"), make("ab")
            assert x is not y and x == y and y == x and x == x
            assert hash(x) == hash(y) == hash((inverses, letters))
            assert x != make("ba") and x.__eq__("ab") is NotImplemented
        assert Word(Alphabet("ab"), "ab") == Word(Alphabet("ab"), "ab")
        assert Word(Alphabet("ab"), "ab") != Word(InverseAlphabet("ab"), "ab")


class TestWords:
    def test_parse_and_str(self):
        w = Word.parse(FREE2, "a b a^-1")
        assert w.letters == ("a", "b", "a^-1")
        assert str(w) == "a b a^-1"
        assert w.compact() == "abA"
        assert Word.parse(FREE2, "a b inv(a)") == w
        assert Word(FREE2, ["a", "b", "A"]) == w

    def test_compact_falls_back_for_long_names(self):
        alph = InverseAlphabet(["x1", "y"])
        w = Word(alph, ["x1", "y^-1"])
        assert w.compact() == str(w) == "x1 y^-1"

    def test_compact_falls_back_when_uppercase_is_a_letter(self):
        alph = InverseAlphabet(["a", "A"])
        inverse, positive = Word(alph, ["a^-1"]), Word(alph, ["A"])
        assert inverse.compact() == str(inverse) == "a^-1"
        assert positive.compact() == "A"
        assert Word(alph, ["a", "a"]).compact() == "aa"
        assert Word.parse(alph, inverse.compact()) == inverse

    def test_concat_and_power(self):
        w = word("ab")
        assert (w * word("ba")).letters == ("a", "b", "b", "a")
        assert (w ** 3).letters == ("a", "b") * 3
        assert (w ** 0).is_trivial
        with pytest.raises(ValueError):
            w ** -1
        with pytest.raises(ValueError):
            word("ab") * Word(FREE2, ["a", "b"])

    def test_equal_over_a_distinct_but_equal_alphabet(self):
        twin = InverseAlphabet(["a", "b"])
        assert twin is not FREE2
        assert Word.parse(twin, "a b^-1") == Word.parse(FREE2, "a b^-1")
        assert Word.parse(twin, "a b") != Word.parse(FREE2, "a b^-1")
        assert Word.parse(InverseAlphabet(["a", "c"]), "a") != Word.parse(FREE2, "a")

    def test_slicing(self):
        w = word("abab")
        assert w[1:3].letters == ("b", "a")
        assert w[0] == "a"
        assert len(w[2:]) == 2

    def test_from_indices_bounds(self):
        with pytest.raises(ValueError):
            Word.from_indices(AB, (0, 2))

    def test_group_word_must_be_reduced(self):
        with pytest.raises(ValueError):
            GroupWord(FREE2, ["a", "a^-1"])
        with pytest.raises(ValueError):
            GroupWord(AB, ["a"])
        w = GroupWord(FREE2, ["a", "b", "a"])
        assert w.is_cyclically_reduced
        assert not GroupWord(FREE2, ["a", "b", "a^-1"]).is_cyclically_reduced
        assert GroupWord(FREE2, []).is_cyclically_reduced


class TestReduceFlip:
    def test_reduce_examples(self):
        w = Word(FREE3, ["a", "b", "b^-1", "c"])
        r = reduce(w)
        assert isinstance(r, GroupWord)
        assert r.letters == ("a", "c")
        assert reduce(Word(FREE2, ["a", "a^-1"])).is_trivial
        # nested cancellation
        assert reduce(Word.parse(FREE2, "a b b^-1 a^-1 a b")).letters == ("a", "b")

    def test_reduce_needs_inverses(self):
        with pytest.raises(ValueError):
            reduce(word("ab"))

    def test_flip_examples(self):
        w = GroupWord(FREE2, ["a", "b"])
        assert flip(w).letters == ("b^-1", "a^-1")
        assert isinstance(flip(w), GroupWord)
        raw = Word(FREE2, ["a", "a^-1"])
        assert flip(raw).letters == ("a", "a^-1")
        assert isinstance(flip(raw), Word) and not isinstance(flip(raw), GroupWord)
        with pytest.raises(ValueError):
            flip(word("ab"))

    @given(st.lists(st.integers(0, 5), max_size=40))
    def test_reduce_idempotent(self, seq):
        w = Word.from_indices(FREE3, seq)
        r = reduce(w)
        assert reduce(r) == r

    @given(st.lists(st.integers(0, 5), max_size=40))
    def test_flip_involution(self, seq):
        w = Word.from_indices(FREE3, seq)
        assert flip(flip(w)) == w

    @given(st.lists(st.integers(0, 5), max_size=40))
    def test_flip_gives_group_inverse(self, seq):
        w = reduce(Word.from_indices(FREE3, seq))
        assert reduce(w * flip(w)).is_trivial
        assert reduce(flip(w) * w).is_trivial

    def test_cyclic_reduce_examples(self):
        core, conj = cyclic_reduce(Word.parse(FREE2, "a b a b^-1 a^-1"))
        assert core.letters == ("a",)
        assert conj.letters == ("a", "b") and conj.compact() == "ab"
        core, conj = cyclic_reduce(GroupWord(FREE2, ["a", "b"]))
        assert core.compact() == "ab" and conj.is_trivial
        # a lone letter conjugated by itself stays put: a a a^-1 = a
        core, conj = cyclic_reduce(Word.parse(FREE2, "a a a^-1"))
        assert core.letters == ("a",) and conj.is_trivial

    @given(st.lists(st.integers(0, 5), max_size=40))
    def test_cyclic_reduce_reassembles(self, seq):
        w = reduce(Word.from_indices(FREE3, seq))
        core, conj = cyclic_reduce(w)
        assert core.is_cyclically_reduced
        assert reduce(conj * core * flip(conj)) == w


class TestPrimitiveRoot:
    def test_golden(self):
        u, m = primitive_root(word("abab"))
        assert u.letters == ("a", "b") and m == 2
        u, m = primitive_root(word("aba"))
        assert u.letters == ("a", "b", "a") and m == 1
        u, m = primitive_root(word("aaaa"))
        assert u.letters == ("a",) and m == 4

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            primitive_root(Word(AB, []))

    def test_root_keeps_input_class(self):
        # a factor of a reduced word is reduced, so a GroupWord's root is one
        for text in ("a b a b", "a b", "a^-1 b a^-1 b a^-1 b"):
            g = GroupWord.parse(FREE2, text)
            u, _ = primitive_root(g)
            assert type(u) is GroupWord
            u, _ = primitive_root(Word.parse(FREE2, text))
            assert type(u) is Word

    @given(st.lists(st.integers(0, 2), min_size=1, max_size=48))
    def test_root_is_primitive_and_reassembles(self, seq):
        alph = Alphabet("abc")
        w = Word.from_indices(alph, seq)
        u, m = primitive_root(w)
        assert u ** m == w
        assert is_primitive_seq(u.indices)
        assert len(u) * m == len(w)


def _fibonacci(n):
    seq = (0,)
    while len(seq) < n:
        seq = tuple(k for i in seq for k in ((0, 1) if i == 0 else (0,)))
    return seq[:n]


def _thue_morse(n):
    seq = (0,)
    while len(seq) < n:
        seq += tuple(1 - i for i in seq)
    return seq[:n]


# Two letters of one, two and four bytes; each wide pair shares all bytes
# but one, so zero runs of the shifted XOR start and end inside letters.
PRUNE_POOLS = [(0, 1, 2), (256, 257, 258), (65536, 65792, 65537)]
WIDE = InverseAlphabet([f"x{i}" for i in range(32897)])
PRUNE_WORDS = [
    *[(0, 0, 1) * k + (0,) * 5 for k in (1, 7, 40)],
    (0,) * 5 + (0, 0, 1) * 40,
    (0, 1, 0, 1, 1) * 30 + (0, 1) * 4 + (0, 1, 0, 1, 1) * 3,
    (0, 1, 2, 0, 1, 2, 1) * 20 + (0, 1, 2) * 3 + (0, 1, 2, 0) * 2,
    tuple(x for m in range(1, 9) for x in (0,) * m + (1,)),
    tuple(x for m in (3, 2, 6, 4, 6, 5) for x in (0,) * m + (1,)),
    _fibonacci(300),
    _fibonacci(233) + (2,) + (0, 1, 0) * 4,
    _thue_morse(256),
    _thue_morse(128) + (0, 1, 1) * 3 + _thue_morse(64),
]


class TestPowerRuns:
    def test_run_record(self):
        run = PowerRun(start=1, period=word("ab"), exponent=2, remainder=1)
        assert run.multiplicity == 5 / 2 and run.multiplicity.denominator == 2
        assert run.end == 5
        assert run.start + run.exponent * len(run.period) + run.remainder == 6
        with pytest.raises(ValueError):
            PowerRun(start=0, period=word("ab"), exponent=0, remainder=0)
        with pytest.raises(ValueError):
            PowerRun(start=0, period=word("ab"), exponent=2, remainder=2)
        with pytest.raises(ValueError):
            PowerRun(start=0, period=Word(AB, []), exponent=2, remainder=0)

    def test_min_exponent_floor(self):
        with pytest.raises(ValueError):
            find_power_runs(word("aaaa"), 1)

    def test_golden_runs(self):
        assert runs_as_tuples(find_power_runs(word("aaaaab"), 3)) == [(0, 1, 5, 0)]
        abc = word("abababc", Alphabet("abc"))
        assert runs_as_tuples(find_power_runs(abc, 2)) == [(0, 2, 3, 0)]
        assert find_power_runs(word("abaababa"), 3) == []
        got = runs_as_tuples(find_power_runs(word("abaababa"), 2))
        assert got == [(0, 3, 2, 0), (2, 1, 2, 0), (3, 2, 2, 1)]

    def test_periods_reported_primitive(self):
        # the square period "abab" collapses to "ab"
        runs = find_power_runs(word("abababab"), 2)
        assert runs_as_tuples(runs) == [(0, 2, 4, 0)]
        assert runs[0].period.letters == ("a", "b")

    def test_index_golden(self):
        assert max_power_index(Word(AB, [])) == 0
        assert max_power_index(word("a")) == 1
        assert max_power_index(word("ab")) == 1
        assert max_power_index(word("aa")) == 2
        assert max_power_index(word("abaababa")) == 2

    def test_exhaustive_binary_against_bruteforce(self):
        for n in range(0, 11):
            for seq in itertools.product((0, 1), repeat=n):
                w = Word.from_indices(AB, seq)
                assert max_power_index(w) == power_index_bruteforce(seq), seq
                assert (
                    runs_as_tuples(find_power_runs(w, 2))
                    == maximal_runs_bruteforce(seq, 2)
                ), seq

    def test_random_ternary_against_bruteforce(self):
        rng = random.Random(20260816)
        alph = Alphabet("abc")
        for _ in range(150):
            n = rng.randrange(0, 51)
            seq = tuple(rng.randrange(3) for _ in range(n))
            w = Word.from_indices(alph, seq)
            assert max_power_index(w) == power_index_bruteforce(seq), seq
            assert (
                runs_as_tuples(find_power_runs(w, 2))
                == maximal_runs_bruteforce(seq, 2)
            ), seq

    def test_scanner_matches_bruteforce(self):
        rng = random.Random(7)
        for _ in range(40):
            n = rng.randrange(200, 400)
            seq = tuple(rng.randrange(2) for _ in range(n))
            assert scanned(seq) == maximal_runs_bruteforce(seq, 2), seq
        seq = (0, 1) * 120 + (2,)
        assert _runs(seq, 2) == [(0, 2, 240)]

    def test_records_equal_checked_records(self):
        # find_power_runs fills its records in without PowerRun's check; the
        # public constructor, with its check, must give equal ones
        rng = random.Random(7)
        wide = InverseAlphabet([f"x{i}" for i in range(130)])
        # random words over all letters of each pool but the last, which
        # ends a long square; no letter of a group pool meets its inverse
        for alph, cls, pool in [
            (Alphabet("abc"), Word, (0, 1, 2)),
            (wide, GroupWord, (0, 2, 4)),
            (wide, GroupWord, (0, 256, 258, 2)),  # two bytes per letter
        ]:
            words = [
                tuple(rng.choice(pool[:-1]) for _ in range(rng.randrange(200, 400)))
                for _ in range(40)
            ]
            words.append(pool[:2] * 120 + pool[-1:])
            for seq in words:
                w = cls.from_indices(alph, seq)
                runs = find_power_runs(w, 2)
                checked = [
                    PowerRun(start=k, period=w[k : k + p], exponent=n // p, remainder=n % p)
                    for k, p, n in _runs(seq, 2)
                ]
                assert runs == checked
                assert [hash(r) for r in runs] == [hash(r) for r in checked]
                assert [repr(r) for r in runs] == [repr(r) for r in checked]
                for r in runs:
                    assert type(r.period) is Word and r.period.alphabet is alph
                    with pytest.raises(AttributeError):
                        r.exponent = 1
                    with pytest.raises(AttributeError):
                        r.period = w

    def test_wide_alphabet_against_bruteforce(self):
        # 260 letter indices take two bytes each, indices past 65535 four.
        # Each pool pairs letters that agree in some bytes, so zero bytes of
        # the shifted XOR often start or end inside a letter.
        alph = InverseAlphabet([f"x{i}" for i in range(130)])
        rng = random.Random(260)
        for pool in [(0, 1, 3, 256, 257, 259), (0, 1, 256, 65536, 65537, 65792)]:
            for _ in range(150):
                seq = [rng.choice(pool) for _ in range(rng.randrange(0, 30))]
                u = [rng.choice(pool) for _ in range(rng.randrange(1, 5))]
                at = rng.randrange(len(seq) + 1)
                seq[at:at] = u * rng.randrange(2, 6)
                seq = tuple(seq)
                assert scanned(seq) == maximal_runs_bruteforce(seq, 2), seq
                if max(seq) < len(alph):
                    w = Word.from_indices(alph, seq)
                    assert max_power_index(w) == power_index_bruteforce(seq), seq
                    assert runs_as_tuples(find_power_runs(w, 2)) == scanned(seq), seq
        for seq in [(0, 0, 0, 256) * 2, (256,) * 3, (1, 257, 1)]:
            w = Word.from_indices(alph, seq)
            u, m = primitive_root(w)
            assert u**m == w and is_primitive_seq(u.indices)

    def test_fibonacci_scale(self):
        seq = (0,)
        while len(seq) < 10946:
            seq = tuple(k for i in seq for k in ((0, 1) if i == 0 else (0,)))
        assert len(seq) == 10946
        w = Word.from_indices(AB, seq)
        assert max_power_index(w) == 3
        runs = find_power_runs(w, 3)
        assert len(runs) == 2567  # as a pass at every period found them
        assert_maximal_primitive(seq, runs, 3)

    def test_thue_morse_scale(self):
        # squares of the Thue-Morse word have periods 2^k and 3 * 2^k only
        seq = (0,)
        while len(seq) < 4096:
            seq += tuple(1 - i for i in seq)
        periods = {p for _, p, _ in _runs(seq, 2)}
        assert periods == {1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512,
                           1024}
        assert max_power_index(Word.from_indices(AB, seq)) == 2

    @pytest.mark.parametrize(
        "pool", [(0, 1, 2), (0, 1, 3, 256, 257, 259), (0, 1, 256, 65536, 65537, 65792)]
    )
    def test_planted_periods_against_oracles(self, pool):
        # Periods above 31 are scanned only where an aligned block of B
        # letters recurs p letters on, p in [2B, 4B): plant powers at the
        # edges of those octaves (2B, 4B - 1 and their neighbours) in random
        # context, often at the end of the word.  In the other pools letters
        # take two or four bytes and share some, so blocks also recur
        # misaligned.
        alph = InverseAlphabet([f"x{i}" for i in range(max(pool) // 2 + 1)])
        rng = random.Random(sum(pool))
        for p in (31, 32, 33, 63, 64, 65, 127, 128):
            for exponent in (2, 3, 4):
                u = [rng.choice(pool) for _ in range(p)]
                left = [rng.choice(pool) for _ in range(rng.randrange(40))]
                right = [rng.choice(pool) for _ in range(rng.choice((0, rng.randrange(40))))]
                seq = tuple(left + u * exponent + right)
                w = Word.from_indices(alph, seq)
                squares = maximal_runs_bruteforce(seq, 2)
                assert any(r[1] == p for r in squares)
                for m in (2, 3, 4):
                    expect = [r for r in squares if r[2] >= m]
                    assert runs_as_tuples(find_power_runs(w, m)) == expect, (p, exponent, m)
                assert max_power_index(w) == power_index_bruteforce(seq), (p, exponent)

    @pytest.mark.parametrize("pool", PRUNE_POOLS)
    def test_index_skips_blocks_that_do_not_beat_it(self, pool):
        # max_power_index raises its needle as soon as a block raises the
        # index; here many short equality blocks come before the longest
        # one at the same period, or after it, and the index rises in steps
        for seq in PRUNE_WORDS:
            seq = tuple(pool[i] for i in seq)
            w = Word.from_indices(WIDE, seq)
            assert max_power_index(w) == power_index_bruteforce(seq), seq

    @given(
        st.sampled_from(PRUNE_POOLS).flatmap(
            lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=300)
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_index_is_the_largest_run_exponent(self, seq):
        w = Word.from_indices(WIDE, seq)
        assert max_power_index(w) == max((r.exponent for r in find_power_runs(w, 2)), default=1)

    def test_long_word_against_bruteforce(self):
        rng = random.Random(11)
        seq = tuple(rng.randrange(2) for _ in range(250))
        w = Word.from_indices(AB, seq)
        assert max_power_index(w) == power_index_bruteforce(seq)
        assert runs_as_tuples(find_power_runs(w, 2)) == maximal_runs_bruteforce(seq, 2)

    @given(st.lists(st.integers(0, 1), max_size=80))
    @settings(max_examples=60, deadline=None)
    def test_runs_property(self, seq):
        w = Word.from_indices(AB, seq)
        assert_maximal_primitive(seq, find_power_runs(w, 2), 2)

    @given(st.lists(st.integers(0, 1), max_size=80))
    @settings(max_examples=60, deadline=None)
    def test_min_exponent_filters_squares(self, seq):
        w = Word.from_indices(AB, seq)
        squares = find_power_runs(w, 2)
        for m in range(2, 6):
            assert find_power_runs(w, m) == [r for r in squares if r.exponent >= m]


# Substitution, BasisMap and StratifiedGraphMap all keep their letter
# table in words._LetterMap; each builder below makes one of them from
# images keyed by the positive letters a and b.
ROSE2 = Graph.rose(["a", "b"])
LETTER_MAPS = {
    "Substitution": lambda images: Substitution(FREE2, images),
    "BasisMap": lambda images: BasisMap(FREE2, images),
    "StratifiedGraphMap": lambda images: StratifiedGraphMap(ROSE2, {"*": "*"}, images),
}
IMAGES = {"a": "a b", "b": "a"}


@pytest.mark.parametrize("kind", sorted(LETTER_MAPS))
def test_letter_map_core(kind):
    build = LETTER_MAPS[kind]
    with pytest.raises(ValueError, match=r"unexpected keys \['c'\]"):
        build({**IMAGES, "c": "a"})
    with pytest.raises(ValueError, match=r"missing images for .*\['b'\]"):
        build({"a": "a b"})

    f = build(IMAGES)
    assert f.alphabet == ROSE2.edge_alphabet == FREE2
    assert f.letter_image(0) == (0, 2) and f._longest == 2
    for i in range(len(FREE2)):
        assert f.letter_image(i ^ 1) == flip(Word.from_indices(FREE2, f.letter_image(i))).indices
    assert repr(f) == f"{kind}(a -> a b, b -> a)"

    # the same images under another class never make an equal map
    for other in LETTER_MAPS:
        if other != kind:
            assert f != LETTER_MAPS[other](IMAGES)
    twin = build(IMAGES)
    if kind == "StratifiedGraphMap":
        # maps on different graphs can share an alphabet and a table
        assert f != twin and f == f
    else:
        assert f == twin and hash(f) == hash(twin)
