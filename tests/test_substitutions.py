"""Substitution layer: images, fixed points, periodicity, orientation."""

import itertools
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from burntrack.automorphisms import BasisMap
from burntrack.graphmap import Graph, StratifiedGraphMap
from burntrack.limits import GrowthCapExceeded
from burntrack.matrices import int_determinant, is_primitive
from burntrack.substitutions import (
    FixedPointStream,
    NonOrientable,
    NoPeriodUpTo,
    Orientable,
    Periodic,
    Substitution,
    certify_aperiodic_by_eigenvalue,
    compose,
    detect_shift_period,
    fixed_point_prefix,
    orbit,
    orbit_power_index,
    orientability,
)
from burntrack.words import Alphabet, InverseAlphabet, Word, flip, max_power_index

from .oracles import orientability_bruteforce, power_index_bruteforce

AB = Alphabet("ab")
ABC = Alphabet("abc")

FIB = Substitution(AB, {"a": "a b", "b": "a"})
THUE_MORSE = Substitution(AB, {"a": "a b", "b": "b a"})
CYCLIC3 = Substitution(ABC, {"a": "a b", "b": "c", "c": "a b c"})

FIB_ORBIT = [
    "a",
    "ab",
    "aba",
    "abaab",
    "abaababa",
    "abaababaabaab",
    "abaababaabaababaababa",
]


class TestConstruction:
    def test_guards(self):
        with pytest.raises(ValueError):
            Substitution(AB, {"a": "a b"})  # missing b
        with pytest.raises(ValueError):
            Substitution(AB, {"a": "a", "b": "a", "c": "a"})
        with pytest.raises(ValueError):
            Substitution(AB, {"a": "", "b": "a"})
        with pytest.raises(ValueError):
            Substitution(AB, {"a": Word(ABC, "ab"), "b": "a"})
        free = InverseAlphabet("ab")
        with pytest.raises(ValueError):
            Substitution(free, {"a": "a", "b": "b", "a^-1": "a^-1"})

    def test_inverse_images_derived_by_flip(self):
        free = InverseAlphabet("ab")
        s = Substitution(free, {"a": "a b", "b": "b a^-1"})
        assert s.image("a^-1").letters == ("b^-1", "a^-1")
        assert s.image("b^-1").letters == ("a", "b^-1")

    def test_equality(self):
        assert FIB == Substitution(AB, {"a": "a b", "b": "a"})
        assert FIB != THUE_MORSE


class TestApplication:
    def test_apply_golden(self):
        w = Word(AB, "a")
        seen = []
        for _ in range(7):
            seen.append(w.compact())
            w = FIB.apply(w)
        assert seen == FIB_ORBIT

    def test_call_alias_and_length(self):
        w = Word.parse(AB, "a b a a b")
        assert FIB(w) == FIB.apply(w)
        assert len(FIB.apply(w)) == 8

    def test_iterate(self):
        assert FIB.iterate(Word(AB, "b"), 5).compact() == "abaababa"
        assert FIB.iterate(Word(AB, "b"), 0) == Word(AB, "b")
        with pytest.raises(ValueError):
            FIB.iterate(Word(AB, "b"), -1)

    def test_iterate_cap(self, monkeypatch):
        monkeypatch.setenv("BURNTRACK_MAX_LETTERS", "1000")
        with pytest.raises(GrowthCapExceeded) as exc:
            FIB.iterate(Word(AB, "a"), 40)
        assert exc.value.needed > exc.value.cap == 1000

    def test_cap_from_environment(self, monkeypatch):
        monkeypatch.setenv("BURNTRACK_MAX_LETTERS", "50")
        with pytest.raises(GrowthCapExceeded):
            FIB.iterate(Word(AB, "a"), 15)
        monkeypatch.setenv("BURNTRACK_MAX_LETTERS", "notanumber")
        with pytest.raises(ValueError):
            FIB.iterate(Word(AB, "a"), 2)

    def test_apply_checks_the_alphabet_by_value(self):
        twin = Alphabet(["a", "b"])
        assert twin is not AB
        assert FIB.apply(Word.parse(twin, "a b")) == Word.parse(AB, "a b a")
        with pytest.raises(ValueError, match="different alphabet"):
            FIB.apply(Word.parse(Alphabet(["a", "c"]), "a"))
        with pytest.raises(ValueError, match="different alphabet"):
            FIB.apply(Word.parse(InverseAlphabet(["a", "b"]), "a"))

    @given(st.lists(st.integers(0, 3), max_size=30))
    def test_flip_equivariance(self, seq):
        free = InverseAlphabet("ab")
        s = Substitution(free, {"a": "a b a^-1", "b": "b b a"})
        w = Word.from_indices(free, seq)
        assert s.apply(flip(w)) == flip(s.apply(w))


class TestTransitionMatrix:
    def test_fib(self):
        assert FIB.transition_matrix().rows == ((1, 1), (1, 0))
        assert is_primitive(FIB.transition_matrix())

    def test_counts_ignore_direction(self):
        free = InverseAlphabet("ef")
        s = Substitution(free, {"e": "e f^-1 e^-1", "f": "f"})
        assert s.transition_matrix().rows == ((2, 0), (1, 1))

    def test_pair_matrix_on_positive_images(self):
        free = InverseAlphabet("cd")
        s = Substitution(free, {"c": "c c d", "d": "c"})
        assert s.transition_matrix().rows == ((2, 1), (1, 0))


class TestFixedPoint:
    def test_prefix_golden(self):
        assert fixed_point_prefix(FIB, "a", 21).compact() == FIB_ORBIT[-1]
        assert fixed_point_prefix(FIB, "a", 0).is_trivial
        with pytest.raises(ValueError, match="n must be >= 0"):
            fixed_point_prefix(FIB, "a", -1)

    def test_prefix_extends(self):
        stream = FixedPointStream(FIB, "a")
        assert stream.prefix(13).compact() == FIB_ORBIT[5]
        assert stream.prefix(21).compact() == FIB_ORBIT[6]

    def test_prefix_is_fixed(self):
        # applying the substitution to a prefix yields a longer prefix
        p = fixed_point_prefix(THUE_MORSE, "a", 32)
        q = THUE_MORSE.apply(p)
        assert q.indices[:32] == p.indices

    def test_iteration(self):
        got = "".join(itertools.islice(iter(FixedPointStream(FIB, "a")), 8))
        assert got == "abaababa"

    def test_bad_seed(self):
        with pytest.raises(ValueError):
            FixedPointStream(FIB, "b")  # image "a" does not start with b
        with pytest.raises(ValueError):
            FixedPointStream(Substitution(AB, {"a": "a", "b": "a b"}), "a")

    def test_stream_cap(self, monkeypatch):
        monkeypatch.setenv("BURNTRACK_MAX_LETTERS", "10")
        with pytest.raises(GrowthCapExceeded):
            FixedPointStream(FIB, "a").prefix(100)
        it = iter(FixedPointStream(FIB, "a"))
        with pytest.raises(GrowthCapExceeded):
            for _ in range(100):
                next(it)


class TestShiftPeriod:
    def test_periodic_golden(self):
        res = detect_shift_period(CYCLIC3, "a", 8)
        assert isinstance(res, Periodic)
        assert res.block.compact() == "abc" and res.power == 2

    def test_periodic_single_letter(self):
        s = Substitution(AB, {"a": "a a", "b": "b"})
        res = detect_shift_period(s, "a", 4)
        assert res == Periodic(Word(AB, "a"), 2)

    def test_periodic_pair(self):
        s = Substitution(AB, {"a": "a b", "b": "a b"})
        res = detect_shift_period(s, "a", 6)
        assert isinstance(res, Periodic)
        assert res.block.compact() == "ab" and res.power == 2

    def test_aperiodic_examples(self):
        assert detect_shift_period(FIB, "a", 20) == NoPeriodUpTo(20)
        assert detect_shift_period(THUE_MORSE, "a", 20) == NoPeriodUpTo(20)

    def test_block_is_eigenvalue_witness(self):
        res = detect_shift_period(CYCLIC3, "a", 8)
        m = CYCLIC3.transition_matrix()
        n = m.size
        shifted = [
            [m.entry(i, j) - (res.power if i == j else 0) for j in range(n)]
            for i in range(n)
        ]
        assert int_determinant(shifted) == 0

    def test_bound_validation(self):
        with pytest.raises(ValueError):
            detect_shift_period(FIB, "a", 0)


class TestAperiodicityCertificate:
    def test_golden(self):
        assert certify_aperiodic_by_eigenvalue(FIB)
        assert not certify_aperiodic_by_eigenvalue(CYCLIC3)

    def test_certificate_is_one_sided(self):
        # q = 2 is an eigenvalue here, so no certificate, yet the fixed
        # point is in fact aperiodic: False only means inconclusive
        assert not certify_aperiodic_by_eigenvalue(THUE_MORSE)

    def test_non_expanding(self):
        assert not certify_aperiodic_by_eigenvalue(
            Substitution(AB, {"a": "b", "b": "a"})
        )

    @given(
        st.lists(st.integers(0, 1), min_size=1, max_size=3),
        st.lists(st.integers(0, 1), min_size=1, max_size=3),
    )
    @settings(max_examples=60, deadline=None)
    def test_certificate_implies_no_detected_period(self, ia, ib):
        s = Substitution(
            AB,
            {
                "a": Word.from_indices(AB, ia),
                "b": Word.from_indices(AB, ib),
            },
        )
        if not certify_aperiodic_by_eigenvalue(s):
            return
        for letter, img in (("a", ia), ("b", ib)):
            seed = AB.index(letter)
            if len(img) >= 2 and img[0] == seed:
                assert isinstance(detect_shift_period(s, letter, 12), NoPeriodUpTo)


class TestOrbit:
    def test_orbit_golden(self):
        words = [w.compact() for _, w in orbit(FIB, Word(AB, "b"), 7)]
        assert words == FIB_ORBIT

    def test_orbit_power_index_matches_bruteforce(self):
        got = orbit_power_index(FIB, Word(AB, "b"), 8)
        expect = [
            (p, power_index_bruteforce(w.indices))
            for p, w in orbit(FIB, Word(AB, "b"), 8)
        ]
        assert got == expect

    def test_orbit_indices_stay_small(self):
        for _, idx in orbit_power_index(FIB, Word(AB, "b"), 10):
            assert idx <= 3

    def test_deep_fibonacci_index(self):
        # `power-index fib a --depth 26` once took about 99 s, one pass per
        # period over 196 418 letters; the critical exponent 2 + phi of the
        # Fibonacci word (Mignosi-Pirillo) makes the index 3
        w = FIB.iterate(Word(AB, "a"), 25)
        assert len(w) == 196418
        assert max_power_index(w) == 3

    def test_orbit_cap(self, monkeypatch):
        monkeypatch.setenv("BURNTRACK_MAX_LETTERS", "500")
        with pytest.raises(GrowthCapExceeded):
            list(orbit(FIB, Word(AB, "a"), 50))

    def test_depth_guard(self):
        with pytest.raises(ValueError, match="depth must be >= 0"):
            list(orbit(FIB, Word(AB, "a"), -1))


class TestCompose:
    def test_square(self):
        sq = compose(FIB, FIB)
        assert sq == Substitution(AB, {"a": "a b a", "b": "a b"})
        w = Word.parse(AB, "b a")
        assert sq.apply(w) == FIB.apply(FIB.apply(w))

    def test_alphabet_mismatch(self):
        with pytest.raises(ValueError):
            compose(FIB, CYCLIC3)

    def test_a_substitution_and_a_basis_map_do_not_compose(self):
        free = InverseAlphabet("ab")
        sigma = Substitution(free, {"a": "a b", "b": "a"})
        f = BasisMap(free, {"a": "a b", "b": "a"})
        for outer, inner in ((sigma, f), (f, sigma)):
            with pytest.raises(ValueError, match="one class"):
                compose(outer, inner)

    def test_graph_maps_do_not_compose(self):
        rose = Graph.rose(["a", "b"], {"a": 1, "b": 2})
        f = StratifiedGraphMap(rose, {"*": "*"}, {"a": "a", "b": "b a"})
        with pytest.raises(TypeError, match="do not compose"):
            compose(f, f)


class TestOrientability:
    def test_positive_images_trivially_orientable(self):
        free = InverseAlphabet("ab")
        s = Substitution(free, {"a": "a b", "b": "a"})
        res = orientability(s)
        assert isinstance(res, Orientable)
        assert res.preferred == ("a", "b")
        assert res.induced == FIB

    def test_mixed_choice(self):
        free = InverseAlphabet("ab")
        s = Substitution(free, {"a": "b^-1", "b": "a^-1"})
        res = orientability(s)
        assert isinstance(res, Orientable)
        assert res.preferred == ("a", "b^-1")
        assert res.induced == Substitution(AB, {"a": "b", "b": "a"})

    def test_non_orientable(self):
        free = InverseAlphabet("ef")
        s = Substitution(free, {"e": "f e^-1", "f": "f"})
        assert orientability(s) == NonOrientable()

    def test_needs_backtracking(self):
        # keeping b positive dead-ends only after propagating through c;
        # ties read only forwards, from a letter to its image, would report
        # failure, while ties kept on both pairs settle b from c in one pass
        free = InverseAlphabet("abc")
        s = Substitution(free, {"a": "a", "b": "b", "c": "c a b^-1"})
        res = orientability(s)
        assert isinstance(res, Orientable)
        assert res.preferred == ("a", "b^-1", "c")

    def test_rejects_plain_alphabet(self):
        with pytest.raises(ValueError):
            orientability(FIB)

    def test_long_chain_is_one_pass(self):
        # a_i -> a_i for i < 40 and z -> z a0 a1^-1 a2 a3^-1 ...: a search that
        # keeps each a_i positive until z refutes it tries about 2^39 choices,
        # and an in-process hang cannot be bounded, so a child process runs it
        code = "\n".join([
            "from burntrack.substitutions import Substitution, orientability",
            "from burntrack.words import InverseAlphabet",
            "names = [f'a{i}' for i in range(40)]",
            "images = {x: x for x in names}",
            "images['z'] = ' '.join(['z'] + [x + '^-1' * (i % 2) for i, x in enumerate(names)])",
            "print(' '.join(orientability(Substitution(InverseAlphabet(names + ['z']), images)).preferred))",
        ])
        env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(__file__), "..", "src"))
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=20
        )
        expected = [f"a{i}" + "^-1" * (i % 2) for i in range(40)] + ["z"]
        assert out.stdout.split() == expected

    @staticmethod
    def _against_bruteforce(images):
        r = len(images)
        free = InverseAlphabet([f"x{p}" for p in range(r)])
        s = Substitution(free, {free.positive_letters[p]: Word.from_indices(free, images[p]) for p in range(r)})
        res = orientability(s)
        expected = orientability_bruteforce(images)
        if expected is None:
            assert res == NonOrientable()
            return
        dirs, induced = expected
        assert isinstance(res, Orientable)
        assert res.preferred == tuple(free.token(2 * p + dirs[p]) for p in range(r))
        assert tuple(res.induced.image(x).indices for x in res.induced.alphabet.letters) == induced

    @pytest.mark.parametrize("rank", [1, 2])
    def test_matches_bruteforce_on_every_short_image(self, rank):
        words = [w for n in (1, 2) for w in itertools.product(range(2 * rank), repeat=n)]
        for images in itertools.product(words, repeat=rank):
            self._against_bruteforce(images)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_bruteforce(self, data):
        rank = data.draw(st.integers(1, 4))
        letters = st.lists(st.integers(0, 2 * rank - 1), min_size=1, max_size=3)
        self._against_bruteforce([data.draw(letters) for _ in range(rank)])

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_witness_closed_under_images(self, data):
        free = InverseAlphabet("ab")
        imgs = {}
        for name in "ab":
            n = data.draw(st.integers(1, 3))
            seq = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
            imgs[name] = Word.from_indices(free, seq)
        s = Substitution(free, imgs)
        res = orientability(s)
        if isinstance(res, NonOrientable):
            return
        chosen = set(res.preferred)
        for tok in res.preferred:
            for letter in s.apply(Word(free, [tok])).letters:
                assert letter in chosen
