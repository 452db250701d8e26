import hashlib
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from burntrack import burnside
from burntrack.automorphisms import BasisMap, compose, polynomial_order_bound
from burntrack.burnside import (
    CosetTable,
    EnumerationIncomplete,
    ExceedsBound,
    FiniteQuotient,
    Joined,
    MoveParams,
    Order,
    SearchBudget,
    Undecided,
    apply_elementary_move,
    burnside_oracle,
    common_descendant_search,
    find_elementary_moves,
    induced_order,
    move_log,
    todd_coxeter,
)
from burntrack.words import GroupWord, InverseAlphabet, Word, reduce

from .oracles import base_words_bruteforce

F2 = InverseAlphabet("ab")


def gw(text):
    return reduce(Word.parse(F2, text))


def free2(seq):
    return reduce(Word.from_indices(F2, seq))


def z5_table():
    """The coset table of Z/5 = <a | a^5>."""
    return todd_coxeter(1, [GroupWord.from_indices(InverseAlphabet("a"), (0,) * 5)])


# independent oracle: classical orders of the exponent-2 and exponent-3 groups
def order_formula(r, n):
    if n == 2:
        return 2**r
    if n == 3:
        return 3 ** (r + math.comb(r, 2) + math.comb(r, 3))
    raise ValueError(n)


# (rank, exponent) -> order, cosets allocated (the order: the oracle writes
# one row per element) and the first 12 hex digits of the sha1 of the
# table's CSV, for every quotient the oracle admits up to order 2 187.
# (12, 2) and (13, 2) are left out for the build time of their enumeration.
FROZEN_QUOTIENTS = {
    (1, 2): (2, 2, "dd9b4b2b7b5c"),
    (2, 2): (4, 4, "66c8b7905992"),
    (3, 2): (8, 8, "656357f0a2b1"),
    (4, 2): (16, 16, "c1015c3175c9"),
    (5, 2): (32, 32, "cb4f322bc7a6"),
    (6, 2): (64, 64, "0aff1a9f96e4"),
    (7, 2): (128, 128, "856ff59dc3b4"),
    (8, 2): (256, 256, "2acbe7253083"),
    (9, 2): (512, 512, "f6020c36ae9c"),
    (10, 2): (1024, 1024, "8465ff8b2fd7"),
    (11, 2): (2048, 2048, "71bbdfa358c6"),
    (1, 3): (3, 3, "7ad18336c29c"),
    (2, 3): (27, 27, "ddbda38fc01e"),
    (3, 3): (2187, 2187, "72c2142e21bf"),
}

# every (rank, exponent) the oracle admits under its order cap
ADMITTED = [(r, 2) for r in range(1, 14)] + [(r, 3) for r in range(1, 4)]


def power_relators(rank, exponent):
    """n-th powers of the base words of length up to min(rank, n): a presentation of B(r, n)."""
    alphabet = InverseAlphabet("abcdefghijklm"[:rank])
    return [
        GroupWord.from_indices(alphabet, seq * exponent)
        for length in range(1, min(rank, exponent) + 1)
        for seq in base_words_bruteforce(2 * rank, length)
    ]


def table_digest(table):
    return hashlib.sha1(table.to_csv().encode()).hexdigest()[:12]


class TestMoveParams:
    def test_thresholds(self):
        assert MoveParams(5, 1).m_min == 2
        assert MoveParams(5).m_min == 3
        assert MoveParams(3).m_min == 2
        assert MoveParams(2).m_min == 2
        assert MoveParams(3, 1).m_min == 2
        # the floor never drops below 2: one period is not a repetition
        assert MoveParams(3, 5).m_min == 2

    def test_strictly_greater(self):
        # integer threshold: the next integer, not the threshold itself
        assert MoveParams(4).m_min == 3
        assert MoveParams(4, 1).m_min == 2

    def test_override(self):
        # a weaker threshold t is the slack xi = n/2 - t
        p = MoveParams(5, Fraction(5, 4))
        assert p.threshold == Fraction(5, 4)
        assert p.m_min == 2
        assert MoveParams(8, 1).m_min == 4

    def test_fraction_xi(self):
        p = MoveParams(5, "3/2")
        assert p.xi == Fraction(3, 2)
        assert p.m_min == 2

    def test_guards(self):
        for n in (0, 2.0, "3"):
            with pytest.raises(ValueError, match=f"positive integer, got {n!r}"):
                MoveParams(n)
        with pytest.raises(ValueError, match="non-negative, got -1"):
            MoveParams(3, -1)
        with pytest.raises(ValueError, match="non-negative, got -1/2"):
            MoveParams(3, "-1/2")

    def test_equality(self):
        assert MoveParams(5, 1) == MoveParams(5, 1)
        assert MoveParams(5, 1) != MoveParams(5, 2)
        assert MoveParams(5, 1) != MoveParams(4, 1)
        assert hash(MoveParams(3)) == hash(MoveParams(3))

    def test_a_record_of_n_and_a_fraction(self):
        same = [MoveParams(3), MoveParams(3, 0), MoveParams(3, "0"), MoveParams(n=3, xi=Fraction(0))]
        assert all(p == same[0] and hash(p) == hash(same[0]) for p in same)
        assert all(type(p.xi) is Fraction for p in same)
        assert repr(same[0]) == "MoveParams(n=3, xi=Fraction(0, 1))"
        p = MoveParams(5, 1)
        for name in ("n", "xi", "m_min"):
            with pytest.raises(AttributeError):
                setattr(p, name, 4)
        assert (p.n, p.xi, p.m_min) == (5, 1, 2)


class TestFindMoves:
    def test_single_letter_run(self):
        moves = find_elementary_moves(gw("a a a a a a a b"), MoveParams(5, 1))
        assert len(moves) == 1
        (m,) = moves
        assert m.position == 0
        assert m.period.compact() == "a"
        assert m.run.exponent == 7
        assert m.result.compact() == "aab"

    def test_no_runs(self):
        assert find_elementary_moves(gw("a b"), MoveParams(5, 1)) == []

    def test_period_two(self):
        w = free2((0, 2) * 8 + (0,))  # (ab)^8 a
        moves = find_elementary_moves(w, MoveParams(5, 1))
        assert [(m.position, m.period.compact(), m.run.exponent) for m in moves] == [
            (0, "ab", 8)
        ]
        assert moves[0].result.compact() == "abababa"

    def test_negative_exponent(self):
        (m,) = find_elementary_moves(gw("a a a b"), MoveParams(5, 1))
        assert m.result.compact() == "AAb"
        assert len(m.result) == 3

    def test_remainder_survives(self):
        w = free2((0, 2, 0, 2, 0, 2, 0))  # (ab)^3 a
        (m,) = find_elementary_moves(w, MoveParams(3))
        assert m.run.exponent == 3 and m.run.remainder == 1
        assert m.result.compact() == "a"

    def test_remainder_cancels_into_flip(self):
        w = free2((0, 2, 0, 2, 0, 2, 0))
        (m,) = find_elementary_moves(w, MoveParams(5))
        assert m.result.compact() == "BAB"

    def test_sorted_by_position(self):
        moves = find_elementary_moves(gw("a a a b b b"), MoveParams(3))
        assert [(m.position, m.period.compact()) for m in moves] == [(0, "a"), (3, "b")]

    def test_requires_reduced(self):
        with pytest.raises(TypeError, match="reduced"):
            find_elementary_moves(Word.parse(F2, "a a a"), MoveParams(3))

    def test_log_format(self):
        w = free2((0, 2) * 8)
        moves = find_elementary_moves(w, MoveParams(5, 1))
        assert move_log(moves) == "pos=0 period=ab m=8 -> len=6"

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.integers(0, 3), max_size=24))
    def test_results_reduced_and_run_consumed(self, seq):
        params = MoveParams(3, 1)
        w = free2(seq)
        for m in find_elementary_moves(w, params):
            assert isinstance(m.result, GroupWord)
            consumed = (m.run.start, m.run.period.indices, m.run.exponent)
            for m2 in find_elementary_moves(m.result, params):
                assert (m2.run.start, m2.run.period.indices, m2.run.exponent) != consumed


class TestApplyMove:
    def test_to_trivial(self):
        w = gw("a a a a a")
        (m,) = find_elementary_moves(w, MoveParams(5))
        assert apply_elementary_move(w, m, MoveParams(5)).is_trivial

    def test_period_block(self):
        w = free2((0, 2) * 8)
        (m,) = find_elementary_moves(w, MoveParams(5, 1))
        assert apply_elementary_move(w, m, MoveParams(5, 1)).compact() == "ababab"

    def test_can_grow(self):
        w = gw("a a b")
        (m,) = find_elementary_moves(w, MoveParams(5, 1))
        got = apply_elementary_move(w, m, MoveParams(5, 1))
        assert got.compact() == "AAAb"
        assert len(got) > len(w)

    def test_stale(self):
        w = gw("a a a a a")
        (m,) = find_elementary_moves(w, MoveParams(5))
        with pytest.raises(ValueError, match="stale"):
            apply_elementary_move(gw("a a a a a b"), m, MoveParams(5))

    def test_params_must_match(self):
        w = gw("a a b")
        (m,) = find_elementary_moves(w, MoveParams(5, 1))
        with pytest.raises(ValueError, match="qualify"):
            apply_elementary_move(w, m, MoveParams(3, 1))
        with pytest.raises(ValueError, match="qualify"):
            # same n but a stricter threshold rejects the m=2 run
            apply_elementary_move(w, m, MoveParams(5))


class TestSearch:
    def test_one_sided_join(self):
        res = common_descendant_search(free2((0, 2) * 8), free2((0, 2) * 3), MoveParams(5, 1))
        assert isinstance(res, Joined)
        assert res.witness.compact() == "ababab"
        assert len(res.left_moves) == 1 and res.right_moves == ()

    def test_power_chain(self):
        res = common_descendant_search(gw("a a a a a a"), gw("a"), MoveParams(5, 1))
        assert isinstance(res, Joined)
        assert res.witness.compact() == "a"

    def test_equal_words(self):
        res = common_descendant_search(gw("a b"), gw("a b"), MoveParams(5, 1))
        assert isinstance(res, Joined)
        assert res.left_moves == () and res.right_moves == ()

    def test_join_at_trivial(self):
        res = common_descendant_search(gw("b a a a b^-1"), gw("a a a"), MoveParams(3))
        assert isinstance(res, Joined)
        assert res.witness.is_trivial

    def test_no_moves_is_undecided(self):
        res = common_descendant_search(gw("a b"), gw("b a"), MoveParams(5, 1))
        assert isinstance(res, Undecided)
        assert res.frontier_exhausted
        assert res.explored == (1, 1)

    def test_depth_budget(self):
        res = common_descendant_search(
            free2((0,) * 40), free2((2,) * 40), MoveParams(3), SearchBudget(max_depth=2)
        )
        assert isinstance(res, Undecided)
        assert res.depth_reached == (2, 2)
        assert not res.frontier_exhausted

    def test_state_budget(self):
        w1 = gw("a a a b b b a a a")
        w2 = gw("b b b a a a b b b")
        res = common_descendant_search(w1, w2, MoveParams(3, 1), SearchBudget(max_states=4))
        assert isinstance(res, Undecided)
        assert not res.frontier_exhausted
        assert res.explored[0] + res.explored[1] >= 4

    def test_moves_replay(self):
        # a^4 b and b^3 a b both rewrite to ab, one move each side
        params = MoveParams(3)
        w1, w2 = gw("a a a a b"), gw("b b b a b")
        res = common_descendant_search(w1, w2, params)
        assert isinstance(res, Joined)
        assert res.witness.compact() == "ab"
        assert len(res.left_moves) == 1 and len(res.right_moves) == 1
        for start, moves in ((w1, res.left_moves), (w2, res.right_moves)):
            cur = start
            for m in moves:
                cur = apply_elementary_move(cur, m, params)
            assert cur == res.witness

    def test_alphabet_mismatch(self):
        other = InverseAlphabet("xy")
        with pytest.raises(ValueError, match="share an alphabet"):
            common_descendant_search(
                gw("a"), GroupWord.from_indices(other, (0,)), MoveParams(3)
            )

    def test_budget_guard(self):
        with pytest.raises(ValueError, match="positive"):
            SearchBudget(max_states=0)


class TestToddCoxeter:
    def test_cyclic(self):
        F1 = InverseAlphabet("a")
        t = todd_coxeter(1, [GroupWord.from_indices(F1, (0, 0, 0))])
        assert t.size == 3
        assert t.trace(0, Word.parse(F1, "a a a")) == 0
        assert t.trace(0, Word.parse(F1, "a")) != 0

    def test_klein_four(self):
        rels = [gw("a a"), gw("b b"), gw("a b a b")]
        t = todd_coxeter(2, rels)
        assert t.size == order_formula(2, 2)

    def test_klein_csv_golden(self):
        rels = [gw("a a"), gw("b b"), gw("a b a b")]
        t = todd_coxeter(2, rels)
        assert t.to_csv() == (
            "coset,a,a^-1,b,b^-1\n"
            "0,1,1,2,2\n"
            "1,0,0,3,3\n"
            "2,3,3,0,0\n"
            "3,2,2,1,1\n"
        )

    def test_exponent_three_presentation(self):
        rels = [
            gw("a a a"),
            gw("b b b"),
            reduce(Word.parse(F2, "a b " * 3)),
            reduce(Word.parse(F2, "a b^-1 " * 3)),
        ]
        t = todd_coxeter(2, rels)
        assert t.size == order_formula(2, 3)

    def test_monotone_in_relators(self):
        F1 = InverseAlphabet("a")
        rels = [GroupWord.from_indices(F1, (0,) * 6)]
        sizes = [todd_coxeter(1, rels).size]
        rels = rels + [GroupWord.from_indices(F1, (0,) * 4)]
        sizes.append(todd_coxeter(1, rels).size)
        rels = rels + [GroupWord.from_indices(F1, (0,) * 3)]
        sizes.append(todd_coxeter(1, rels).size)
        assert sizes == [6, 2, 1]
        assert sizes == sorted(sizes, reverse=True)

    def test_incomplete(self):
        with pytest.raises(EnumerationIncomplete) as err:
            todd_coxeter(2, [gw("a a")], max_cosets=50)
        assert err.value.allocated == 50
        assert err.value.max_cosets == 50
        assert 0 < err.value.live <= err.value.allocated
        # a a defines cosets without coincidences, so every one is live
        assert err.value.live == 50
        # cubes of the words of length 1 and 2 in F3 collapse cosets early
        F3 = InverseAlphabet("abc")
        bases = [(x,) for x in range(6)]
        bases += [(x, y) for x in range(6) for y in range(6) if y not in (x, x ^ 1)]
        cubes = [GroupWord.from_indices(F3, u * 3) for u in bases]
        with pytest.raises(EnumerationIncomplete) as err:
            todd_coxeter(3, cubes, max_cosets=200)
        assert 0 < err.value.live < err.value.allocated == 200

    @pytest.mark.parametrize("limit", [0, -5])
    def test_limit_must_be_positive(self, limit):
        with pytest.raises(ValueError, match=f"coset limit must be positive, got {limit}"):
            todd_coxeter(1, [gw("a a")], max_cosets=limit)

    def test_relator_validation(self):
        with pytest.raises(TypeError, match="GroupWord"):
            todd_coxeter(2, [Word.parse(F2, "a a")])
        with pytest.raises(ValueError, match="cyclically reduced"):
            todd_coxeter(2, [gw("a b a^-1")])
        other = InverseAlphabet("xy")
        with pytest.raises(ValueError, match="letters"):
            todd_coxeter(2, [GroupWord.from_indices(other, (0, 0))])
        with pytest.raises(ValueError, match="rank"):
            todd_coxeter(0, [])

    def test_empty_relator_ignored(self):
        F1 = InverseAlphabet("a")
        t = todd_coxeter(1, [GroupWord.from_indices(F1, ()), GroupWord.from_indices(F1, (0, 0, 0))])
        assert t.size == 3

    def test_deterministic(self):
        rels = [gw("a a"), gw("b b"), gw("a b a b")]
        assert todd_coxeter(2, rels).to_csv() == todd_coxeter(2, rels).to_csv()

    def test_rep_words_shortlex(self):
        rels = [gw("a a"), gw("b b"), gw("a b a b")]
        table = todd_coxeter(2, rels)
        reps = [GroupWord.from_indices(table.alphabet, table.rep_letters(c)) for c in range(table.size)]
        assert [r.compact() for r in reps] == ["", "a", "b", "ab"]

    def test_progress_leaves_the_table_unchanged(self, monkeypatch):
        monkeypatch.setattr(burnside, "_PROGRESS_EVERY", 256)
        # the cubes of the base words of length up to 3, which present B(3, 3)
        rels = power_relators(3, 3)
        seen = []
        t = todd_coxeter(3, rels, progress=lambda allocated, live: seen.append((allocated, live)))
        plain = todd_coxeter(3, rels)
        assert t.to_csv() == plain.to_csv()
        assert t.cosets_allocated == plain.cosets_allocated
        allocated = [a for a, _ in seen]
        assert len(seen) > 5 and allocated == sorted(set(allocated))
        # one call per multiple of the step passed, never more
        assert [a // 256 for a in allocated] == sorted(set(a // 256 for a in allocated))
        assert allocated[0] >= 256 and allocated[-1] <= t.cosets_allocated
        assert all(0 < live <= a for a, live in seen)

    def test_progress_every_65536_cosets(self):
        seen = []
        with pytest.raises(EnumerationIncomplete):
            todd_coxeter(2, [gw("a a")], max_cosets=140_000,
                         progress=lambda allocated, live: seen.append((allocated, live)))
        assert [a // 65_536 for a, _ in seen] == [1, 2]
        assert all(live == a for a, live in seen)  # a a never collapses a coset


# the cyclic group of order 3 over one generator, in standard form
Z3_ROWS = [[1, 2], [2, 0], [0, 1]]


def b23_rows():
    t = burnside_oracle(2, 3).table
    return [[t.step(c, x) for x in range(4)] for c in range(t.size)]


class TestCosetTable:
    @pytest.mark.parametrize(
        "rows",
        [
            [],
            [[1, 2, 0], [2, 0], [0, 1]],  # a row of the wrong width
            [[1, 2], [2, 0, 1], [0, 1]],
            [[1, 3], [2, 0], [0, 1]],  # an entry past the last row
            [[1, 2], [2, -1], [0, 1]],
            [[1, 2], [None, 0], [0, 1]],  # an open entry in a reached row
            [[1, 2], [2.0, 0], [0, 1]],
        ],
        ids=["empty", "wide", "narrow", "past-end", "negative", "open", "float"],
    )
    def test_malformed_rows_raise(self, rows):
        with pytest.raises(ValueError, match="malformed coset table"):
            CosetTable(InverseAlphabet("a"), rows, allocated=3)

    def test_standard_table_comes_back_unchanged(self):
        t = CosetTable(InverseAlphabet("a"), Z3_ROWS, allocated=3)
        assert [[t.step(c, x) for x in range(2)] for c in range(3)] == Z3_ROWS
        assert t.spanning_tree() == ([0, 0, 0], [-1, 0, 1])

    def test_permuted_table_is_renumbered(self):
        q = burnside_oracle(2, 3)
        rows = b23_rows()
        new = list(range(1, len(rows)))
        random.Random(5).shuffle(new)
        new = [0] + new  # row c becomes row new[c]; 0 stays the subgroup
        permuted = [None] * len(rows)
        for c, row in enumerate(rows):
            permuted[new[c]] = [new[d] for d in row]
        assert permuted != rows
        t = CosetTable(F2, permuted, allocated=q.table.cosets_allocated)
        assert t.to_csv() == q.table.to_csv()
        assert t.spanning_tree() == q.table.spanning_tree()

    def test_unreached_rows_are_dropped(self):
        q = burnside_oracle(2, 3)
        rows = b23_rows()
        # a closed row nothing points to, and a row collapsed to nothing
        extra = rows + [[0, 0, 0, 0], [None] * 4]
        t = CosetTable(F2, extra, allocated=len(extra))
        assert t.size == q.order
        assert t.to_csv() == q.table.to_csv()
        assert t.cosets_allocated == len(extra)

    @pytest.mark.parametrize(
        "entry",
        [
            lambda q, c, x: q.table.step(c, 0),
            lambda q, c, x: q.table.step(0, x),
            lambda q, c, x: q.table.trace(c, [0, 1]),
            lambda q, c, x: q.table.trace(0, [0, x]),
            lambda q, c, x: q.table.rep_letters(c),
            lambda q, c, x: q.rep_word(c),
            lambda q, c, x: q.multiply(c, 1),
            lambda q, c, x: q.multiply(1, c),
            lambda q, c, x: q.inverse(c),
        ],
        ids=[
            "step-coset", "step-letter", "trace-coset", "trace-letter", "rep_letters",
            "rep_word", "multiply-left", "multiply-right", "inverse",
        ],
    )
    @pytest.mark.parametrize("end", ["below", "above"])
    def test_numbers_outside_the_table_raise(self, entry, end):
        # -1 would index from the end and size past it
        q = burnside_oracle(2, 3)
        coset, letter = (-1, -1) if end == "below" else (q.order, len(q.alphabet.letters))
        with pytest.raises(ValueError, match=r"range\("):
            entry(q, coset, letter)


class TestOracle:
    @pytest.mark.parametrize("rank,exponent", [(2, 2), (3, 2), (2, 3), (3, 3)])
    def test_orders_match_formula(self, rank, exponent):
        q = burnside_oracle(rank, exponent)
        assert q.order == order_formula(rank, exponent)
        assert q.exponent_certified

    @pytest.mark.parametrize("rank,exponent", sorted(FROZEN_QUOTIENTS))
    def test_frozen_tables(self, rank, exponent):
        q = burnside_oracle(rank, exponent, cached=False)
        got = (q.order, q.table.cosets_allocated, table_digest(q.table))
        assert got == FROZEN_QUOTIENTS[rank, exponent]

    @pytest.mark.parametrize("rank,exponent", sorted(FROZEN_QUOTIENTS))
    def test_enumeration_matches_the_oracle(self, rank, exponent):
        # coset enumeration of a presentation by n-th powers is an
        # independent route to the same standardized table
        enumerated = todd_coxeter(rank, power_relators(rank, exponent))
        assert enumerated.to_csv() == burnside_oracle(rank, exponent).table.to_csv()

    def test_builds_without_coset_enumeration(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("burnside_oracle enumerated cosets")

        monkeypatch.setattr(burnside, "todd_coxeter", refuse)
        for rank, exponent in ADMITTED:
            q = burnside_oracle(rank, exponent, cached=False)
            assert q.order == q.table.cosets_allocated == order_formula(rank, exponent)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2186), st.integers(0, 2186), st.integers(0, 2186))
    def test_rank_three_multiply_is_associative_with_trivial_cubes(self, x, y, z):
        q = burnside_oracle(3, 3)
        assert q.multiply(q.multiply(x, y), z) == q.multiply(x, q.multiply(y, z))
        assert q.multiply(x, q.multiply(x, x)) == 0

    def test_cache(self):
        assert burnside_oracle(2, 3) is burnside_oracle(2, 3)
        fresh = burnside_oracle(2, 3, cached=False)
        assert fresh is not burnside_oracle(2, 3)
        assert fresh.order == burnside_oracle(2, 3).order

    def test_guards(self):
        with pytest.raises(ValueError, match="exponents 2 and 3"):
            burnside_oracle(2, 4)
        with pytest.raises(ValueError, match="positive"):
            burnside_oracle(0, 3)
        with pytest.raises(ValueError, match="cap"):
            burnside_oracle(4, 3)

    def test_exponent_two_is_abelian(self):
        q = burnside_oracle(2, 2)
        for x in range(q.order):
            for y in range(q.order):
                assert q.multiply(x, y) == q.multiply(y, x)

    def test_exponent_three_is_not_abelian(self):
        q = burnside_oracle(2, 3)
        a, b = q.eval_word(gw("a")), q.eval_word(gw("b"))
        assert q.multiply(a, b) != q.multiply(b, a)

    def test_eval_unreduced(self):
        q = burnside_oracle(2, 3)
        assert q.eval_word(Word.parse(F2, "a a^-1 b")) == q.eval_word(gw("b"))

    def test_eval_alphabet(self):
        q = burnside_oracle(2, 3)
        with pytest.raises(ValueError, match="letters"):
            q.eval_word(Word.parse(InverseAlphabet("xy"), "x"))

    def test_trace_rejects_a_word_over_another_alphabet(self):
        q = burnside_oracle(2, 3)
        with pytest.raises(ValueError, match="letters"):
            q.table.trace(0, Word.parse(InverseAlphabet("xy"), "x y"))
        # an equal alphabet built apart is the same alphabet; raw indices are only range-checked
        same = q.table.trace(0, Word.parse(InverseAlphabet("ab"), "a b"))
        assert same == q.table.trace(0, [0, 2]) == q.eval_word(gw("a b"))

    def test_spanning_tree_hands_out_copies(self):
        q = burnside_oracle(2, 3)
        before = [q.rep_word(e) for e in range(q.order)]
        parents, letters = q.table.spanning_tree()
        parents[5] = 0
        letters[5] = 3
        assert [q.rep_word(e) for e in range(q.order)] == before
        assert q.table.spanning_tree() != (parents, letters)

    def test_rep_round_trip(self):
        q = burnside_oracle(2, 3)
        for e in range(q.order):
            assert q.eval_word(q.rep_word(e)) == e

    @pytest.mark.parametrize("rank", [2, 3])
    def test_rep_word_read_off_the_tree(self, rank):
        q = burnside_oracle(rank, 3)
        words = [q.rep_word(e) for e in range(q.order)]
        parents, letters = q.table.spanning_tree()
        assert (parents[0], letters[0]) == (0, -1)
        for e in range(q.order):
            assert list(words[e].indices) == q.table.rep_letters(e)
            if e:
                assert parents[e] < e
                assert q.table.step(parents[e], letters[e]) == e
                assert len(words[parents[e]]) == len(words[e]) - 1

    def test_inverse(self):
        q = burnside_oracle(2, 3)
        for e in range(q.order):
            assert q.multiply(e, q.inverse(e)) == 0

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 3), max_size=10), st.lists(st.integers(0, 3), max_size=10))
    def test_eval_is_homomorphism(self, s1, s2):
        q = burnside_oracle(2, 3)
        u, v = free2(s1), free2(s2)
        assert q.eval_word(reduce(u * v)) == q.multiply(q.eval_word(u), q.eval_word(v))

    def test_every_cube_dies(self):
        q = burnside_oracle(2, 3)
        rng = random.Random(11)
        for _ in range(50):
            w = free2([rng.randrange(4) for _ in range(rng.randint(1, 12))])
            cube = reduce(w * w * w)
            assert q.eval_word(cube) == 0


class TestOracleBudget:
    def test_failed_certificate_names_the_base_length(self):
        # Z/5 has elements whose cube is not the identity
        with pytest.raises(ValueError) as err:
            FiniteQuotient(3, z5_table())
        assert str(err.value) == "no exponent-3 certificate for rank 1"


class TestMoveSoundness:
    @pytest.mark.parametrize("exponent", [2, 3])
    def test_moves_fix_the_image(self, exponent):
        q = burnside_oracle(2, exponent)
        params = MoveParams(exponent, 1)
        rng = random.Random(23)
        checked = 0
        for _ in range(250):
            w = free2([rng.randrange(4) for _ in range(rng.randint(1, 10))])
            for m in find_elementary_moves(w, params):
                assert q.eval_word(m.source) == q.eval_word(m.result)
                checked += 1
        assert checked > 30

    def test_join_certifies_equality(self):
        q = burnside_oracle(2, 3)
        w1, w2 = gw("a a a a b"), gw("b b b a b")
        res = common_descendant_search(w1, w2, MoveParams(3))
        assert isinstance(res, Joined)
        assert q.eval_word(w1) == q.eval_word(res.witness) == q.eval_word(w2)


class TestInducedOrder:
    def test_dehn_twist(self):
        q = burnside_oracle(2, 3)
        twist = BasisMap(F2, {"a": "a", "b": "b a"})
        assert induced_order(twist, q) == Order(3)

    def test_twist_divides_polynomial_bound(self):
        q = burnside_oracle(2, 3)
        twist = BasisMap(F2, {"a": "a", "b": "b a"})
        got = induced_order(twist, q)
        assert polynomial_order_bound(2, 3) % got.value == 0

    def test_large_twist_is_trivial(self):
        # a -> a(ba^3)^3, b -> ba^3: the cube dies, so both letters are fixed
        q = burnside_oracle(2, 3)
        phi = BasisMap(F2, {"a": "a" + " b a a a" * 3, "b": "b a a a"})
        assert induced_order(phi, q) == Order(1)

    def test_identity(self):
        assert induced_order(BasisMap.identity(F2), burnside_oracle(2, 3)) == Order(1)

    def test_swap_and_inversion(self):
        q = burnside_oracle(2, 3)
        assert induced_order(BasisMap(F2, {"a": "b", "b": "a"}), q) == Order(2)
        assert induced_order(BasisMap(F2, {"a": "a^-1", "b": "b^-1"}), q) == Order(2)

    def test_rank_three_rotation(self):
        F3 = InverseAlphabet("abc")
        rot = BasisMap(F3, {"a": "b", "b": "c", "c": "a"})
        assert induced_order(rot, burnside_oracle(3, 3)) == Order(3)

    def test_exceeds_bound(self):
        q = burnside_oracle(2, 3)
        twist = BasisMap(F2, {"a": "a", "b": "b a"})
        assert induced_order(twist, q, max_k=2) == ExceedsBound(2)
        with pytest.raises(ValueError, match="max_k must be positive"):
            induced_order(twist, q, max_k=0)

    def test_requires_certificate(self):
        # only a certified quotient can be built, so none reaches induced_order
        # unchecked; a non-positive exponent would certify vacuously
        table = z5_table()
        q = FiniteQuotient(5, table)
        assert (q.rank, q.order, q.exponent_certified) == (1, 5, True)
        assert induced_order(BasisMap.identity(q.alphabet), q) == Order(1)
        for exponent in (0, -2):
            with pytest.raises(ValueError, match="positive integer"):
                FiniteQuotient(exponent, table)

    def test_rejects_non_automorphism(self):
        import warnings

        q = burnside_oracle(2, 3)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            collapse = BasisMap(F2, {"a": "a", "b": "a"})
        # a is fixed; the walk from b goes b -> a -> a and meets a again,
        # not b, so two elements share an image
        assert generator_cycles(collapse, q) == [1, None]
        with pytest.raises(ValueError, match="not a permutation; not an automorphism"):
            induced_order(collapse, q)

    @pytest.mark.parametrize("max_k", [3, 4, 5, 6, 10_000])
    def test_rank_three_cycles_of_different_lengths(self, max_k):
        # generator cycles of lengths 1, 3 and 2: the order is their lcm,
        # and a bound from the longest cycle up to the lcm is exceeded
        F3 = InverseAlphabet("abc")
        q = burnside_oracle(3, 3)
        f = BasisMap(F3, {"a": "a", "b": "b a", "c": "c^-1"})
        assert generator_cycles(f, q) == [1, 3, 2]
        expected = per_element_order(f, q, max_k)
        assert expected == (ExceedsBound(max_k) if max_k < 6 else Order(6))
        assert induced_order(f, q, max_k=max_k) == expected

    def test_alphabet_mismatch(self):
        q = burnside_oracle(2, 3)
        with pytest.raises(ValueError, match="letters"):
            induced_order(BasisMap.identity(InverseAlphabet("xy")), q)


def per_element_order(f, q, max_k):
    """Order of f on q by definition: evaluate f on every element's word.

    Returns None when the induced map is not a permutation.
    """
    pi = [q.eval_word(f.apply(q.rep_word(e))) for e in range(q.order)]
    if sorted(pi) != list(range(q.order)):
        return None
    order = 1
    seen = set()
    for start in range(q.order):
        cycle = 0
        e = start
        while e not in seen:
            seen.add(e)
            e = pi[e]
            cycle += 1
        if cycle:
            order = math.lcm(order, cycle)
    return ExceedsBound(max_k) if order > max_k else Order(order)


def generator_cycles(f, q):
    """Length of each generator's cycle under the map, by definition.

    None where the walk from the generator meets another element twice.
    """
    out = []
    for x in q.alphabet.positive_letters:
        g = q.eval_word(Word.parse(q.alphabet, x))
        seen = [g]
        e = q.eval_word(f.apply(q.rep_word(g)))
        while e not in seen:
            seen.append(e)
            e = q.eval_word(f.apply(q.rep_word(e)))
        out.append(len(seen) if e == g else None)
    return out


def random_basis_map(rng, alphabet, invertible):
    """A product of Nielsen moves, or a map with random short images."""
    names = alphabet.positive_letters
    r = len(names)
    if not invertible:
        return BasisMap(alphabet, {
            x: Word.from_indices(alphabet, [rng.randrange(2 * r) for _ in range(rng.randint(0, 3))])
            for x in names
        })
    f = BasisMap.identity(alphabet)
    for _ in range(rng.randint(1, 5)):
        i, j = rng.sample(range(r), 2)
        images = {x: x for x in names}
        y = names[i] + rng.choice(("", "^-1"))
        images[names[j]] = rng.choice((
            f"{names[j]} {y}", f"{y} {names[j]}", f"{names[j]}^-1", names[i],
        ))
        if images[names[j]] == names[i]:
            images[names[i]] = names[j]
        f = compose(BasisMap(alphabet, images), f)
    return f


class TestInducedOrderDifferential:
    """The generator walk against the per-element definition, on every quotient."""

    @pytest.mark.parametrize("rank,exponent,maps", [(2, 2, 40), (3, 2, 40), (2, 3, 40), (3, 3, 32)])
    def test_matches_per_element_definition(self, rank, exponent, maps):
        q = burnside_oracle(rank, exponent)
        alphabet = q.alphabet
        rng = random.Random(1000 * rank + exponent)
        outcomes = set()
        for k in range(maps):
            f = random_basis_map(rng, alphabet, invertible=k % 4 != 3)
            max_k = rng.choice((1, 2, 3, 10_000))
            expected = per_element_order(f, q, max_k)
            if expected is None:
                with pytest.raises(ValueError, match="not a permutation"):
                    induced_order(f, q, max_k=max_k)
                outcomes.add("not a permutation")
            else:
                assert induced_order(f, q, max_k=max_k) == expected, f
                outcomes.add(type(expected).__name__)
        assert outcomes == {"Order", "ExceedsBound", "not a permutation"}
