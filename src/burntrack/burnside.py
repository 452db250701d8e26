"""Power-replacement moves, coset enumeration, and finite exponent quotients.

An elementary move rewrites a reduced word ``p u^m s`` into the reduced form
of ``p u^(m-n) s`` when the exponent m clears a threshold derived from the
move parameters.  Moves multiply by an n-th power, so they preserve the
image in any exponent-n quotient; :func:`common_descendant_search` looks
for a common rewrite of two words under a budget.

:func:`todd_coxeter` enumerates cosets of the trivial subgroup for a finite
presentation (HLT strategy, deterministic), and :func:`burnside_oracle`
uses it with n-th power relators of short words, growing the relator base
until the enumeration closes and every element is certified to have
``g^n = 1``.  That certificate pins the quotient exactly: a group of
exponent n defined by relations that are themselves n-th powers is the
universal exponent-n quotient, no order formula needed.

:func:`induced_order` computes the exact order of the permutation a basis
map induces on a certified quotient.  It never applies the map to whole
words: the table of the trivial subgroup is the group's right regular
action, so the permutation is grown along the breadth-first spanning tree
of the table, each new element costing one walk of a single letter's
image from its parent's image.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .automorphisms import BasisMap
from .words import GroupWord, InverseAlphabet, PowerRun, Word, _tighten, find_power_runs, flip

__all__ = [
    "MoveParams",
    "ElementaryMove",
    "find_elementary_moves",
    "apply_elementary_move",
    "SearchBudget",
    "Joined",
    "Undecided",
    "common_descendant_search",
    "move_log",
    "CosetTable",
    "EnumerationIncomplete",
    "todd_coxeter",
    "FiniteQuotient",
    "burnside_oracle",
    "Order",
    "ExceedsBound",
    "induced_order",
]

_GENERATOR_NAMES = "abcdefghijklmnopqrstuvwxyz"


class MoveParams:
    """Exponent n and slack xi defining which powers may be rewritten.

    A run u^m qualifies when m is an integer strictly greater than
    ``n/2 - xi``; the smallest such integer is cached as ``m_min``.  It is
    clamped to 2 because a bare letter is not a repetition and the run
    detector has nothing to find below two periods.

    ``threshold`` overrides ``n/2 - xi`` for experiments with weaker
    thresholds (for example n/4 - xi/2); no rewriting guarantee is claimed
    for overridden values.
    """

    __slots__ = ("_n", "_xi", "_threshold", "_m_min")

    def __init__(self, n: int, xi: Fraction | int | str = 0, threshold: Fraction | None = None):
        if not isinstance(n, int) or n < 1:
            raise ValueError(f"the exponent must be a positive integer, got {n!r}")
        xi = Fraction(xi)
        if xi < 0:
            raise ValueError(f"xi must be non-negative, got {xi}")
        t = Fraction(n, 2) - xi if threshold is None else Fraction(threshold)
        self._n = n
        self._xi = xi
        self._threshold = t
        self._m_min = max(2, t.__floor__() + 1)

    @property
    def n(self) -> int:
        return self._n

    @property
    def xi(self) -> Fraction:
        return self._xi

    @property
    def threshold(self) -> Fraction:
        return self._threshold

    @property
    def m_min(self) -> int:
        return self._m_min

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MoveParams):
            return NotImplemented
        return (self._n, self._xi, self._threshold) == (other._n, other._xi, other._threshold)

    def __hash__(self) -> int:
        return hash((self._n, self._xi, self._threshold))

    def __repr__(self) -> str:
        return f"MoveParams(n={self._n}, xi={self._xi}, m_min={self._m_min})"


@dataclass(frozen=True)
class ElementaryMove:
    """One rewrite of ``p u^m s`` to the reduced form of ``p u^(m-n) s``.

    ``run`` locates the power inside ``source``; ``result`` is precomputed
    and already reduced.  A negative ``m - n`` turns the period around, so
    the result can be longer than the source.
    """

    source: GroupWord
    run: PowerRun
    exponent_drop: int
    result: GroupWord

    @property
    def position(self) -> int:
        return self.run.start

    @property
    def period(self) -> Word:
        return self.run.period


def _rewrite(word: GroupWord, run: PowerRun, n: int) -> GroupWord:
    # The run holds at least two periods, so every power of the period (or
    # of its flip) is reduced, like the prefix and suffix of the reduced word.
    seq = word.indices
    m = run.exponent
    new_exp = m - n
    if new_exp >= 0:
        middle = run.period.indices * new_exp
    else:
        middle = tuple(i ^ 1 for i in reversed(run.period.indices)) * (-new_exp)
    return GroupWord._trusted(
        word.alphabet, _tighten((seq[: run.start], middle, seq[run.end :]))
    )


def find_elementary_moves(word: GroupWord, params: MoveParams) -> list[ElementaryMove]:
    """Every qualifying move on the word, sorted by position then period length.

    One move per maximal run: the run's full integer exponent is replaced.
    """
    if not isinstance(word, GroupWord):
        raise TypeError("moves are defined on freely reduced words; call reduce() first")
    moves = []
    for run in find_power_runs(word, params.m_min):
        moves.append(
            ElementaryMove(
                source=word,
                run=run,
                exponent_drop=params.n,
                result=_rewrite(word, run, params.n),
            )
        )
    return moves


def apply_elementary_move(word: GroupWord, move: ElementaryMove, params: MoveParams) -> GroupWord:
    """Result of the move, after checking it still belongs to this word."""
    if move.source != word:
        raise ValueError("stale move: the word has changed since the move was found")
    if move.run.exponent < params.m_min or move.exponent_drop != params.n:
        raise ValueError("move does not qualify under these parameters")
    return move.result


def move_log(moves: Iterable[ElementaryMove]) -> str:
    """One line per move: position, period, exponent, resulting length."""
    lines = [
        f"pos={m.run.start} period={m.run.period.compact()} m={m.run.exponent} -> len={len(m.result)}"
        for m in moves
    ]
    return "\n".join(lines)


@dataclass(frozen=True)
class SearchBudget:
    max_states: int = 20_000
    max_depth: int = 12

    def __post_init__(self):
        if self.max_states < 1 or self.max_depth < 1:
            raise ValueError("budget bounds must be positive")


@dataclass(frozen=True)
class Joined:
    """Both words rewrite to ``witness``; the two move sequences are replayable.

    Equality of the two sources in the exponent-n quotient follows, since
    every move multiplies by an n-th power.
    """

    witness: GroupWord
    left_moves: tuple[ElementaryMove, ...]
    right_moves: tuple[ElementaryMove, ...]
    explored: tuple[int, int]


@dataclass(frozen=True)
class Undecided:
    """No common descendant found within the budget.

    This is never a disequality certificate: the rewriting criterion only
    promises joins under hypotheses on n and xi whose constants are not
    effective, and the budget may simply have been too small.
    ``frontier_exhausted`` means both sides ran out of descendants before
    hitting any budget limit.
    """

    explored: tuple[int, int]
    depth_reached: tuple[int, int]
    frontier_exhausted: bool


def common_descendant_search(
    w1: GroupWord,
    w2: GroupWord,
    params: MoveParams,
    budget: SearchBudget = SearchBudget(),
) -> Joined | Undecided:
    """Bidirectional breadth-first search through elementary-move descendants.

    Words are memoized exactly as written (based words, no cyclic
    normalization).  Layers alternate between the two sides; the first
    word discovered by both sides wins, deterministically.
    """
    if w1.alphabet != w2.alphabet:
        raise ValueError("the two words must share an alphabet")

    # visited: word key -> (parent key, move); roots have (None, None)
    sides = [
        {w1.indices: (None, None)},
        {w2.indices: (None, None)},
    ]
    words = [{w1.indices: w1}, {w2.indices: w2}]
    frontiers = [[w1.indices], [w2.indices]]
    depths = [0, 0]

    def joined(key: tuple[int, ...]) -> Joined:
        paths: list[tuple[ElementaryMove, ...]] = []
        for visited in sides:
            moves = []
            k = key
            while True:
                parent, move = visited[k]
                if parent is None:
                    break
                moves.append(move)
                k = parent
            paths.append(tuple(reversed(moves)))
        return Joined(
            witness=words[0][key],
            left_moves=paths[0],
            right_moves=paths[1],
            explored=(len(sides[0]), len(sides[1])),
        )

    if w1.indices in sides[1]:
        return joined(w1.indices)

    exhausted = [False, False]
    while True:
        progressed = False
        for s in (0, 1):
            if exhausted[s] or depths[s] >= budget.max_depth or not frontiers[s]:
                exhausted[s] = exhausted[s] or not frontiers[s]
                continue
            here, other = sides[s], sides[1 - s]
            new_frontier: list[tuple[int, ...]] = []
            for key in frontiers[s]:
                for move in find_elementary_moves(words[s][key], params):
                    child = move.result
                    ck = child.indices
                    if ck in here:
                        continue
                    here[ck] = (key, move)
                    words[s][ck] = child
                    new_frontier.append(ck)
                    if ck in other:
                        return joined(ck)
                if len(sides[0]) + len(sides[1]) > budget.max_states:
                    return Undecided(
                        explored=(len(sides[0]), len(sides[1])),
                        depth_reached=tuple(depths),
                        frontier_exhausted=False,
                    )
            frontiers[s] = new_frontier
            depths[s] += 1
            progressed = True
            if not new_frontier:
                exhausted[s] = True
        if not progressed:
            return Undecided(
                explored=(len(sides[0]), len(sides[1])),
                depth_reached=tuple(depths),
                frontier_exhausted=all(exhausted),
            )


class EnumerationIncomplete(RuntimeError):
    """The coset limit was hit before the table closed."""

    def __init__(self, allocated: int, live: int, max_cosets: int):
        super().__init__(
            f"coset enumeration incomplete: {allocated} cosets allocated "
            f"({live} live) against a limit of {max_cosets}"
        )
        self.allocated = allocated
        self.live = live
        self.max_cosets = max_cosets


class CosetTable:
    """Closed, collapsed coset table over the free group on ``alphabet``.

    Rows are cosets (0 is the subgroup itself), columns are oriented
    letters in alphabet order.  The table is standardized: cosets are
    numbered in breadth-first order from 0, so equal presentations yield
    identical tables.
    """

    __slots__ = ("_alphabet", "_rows", "_allocated", "_tree")

    def __init__(self, alphabet: InverseAlphabet, rows: Sequence[Sequence[int]], allocated: int):
        n = len(rows)
        w = len(alphabet.letters)
        for row in rows:
            if len(row) != w or any(not 0 <= c < n for c in row):
                raise ValueError("malformed coset table")
        self._alphabet = alphabet
        self._rows = tuple(tuple(row) for row in rows)
        self._allocated = allocated
        self._tree: tuple[list[int], list[int]] | None = None

    @property
    def alphabet(self) -> InverseAlphabet:
        return self._alphabet

    @property
    def size(self) -> int:
        return len(self._rows)

    @property
    def cosets_allocated(self) -> int:
        """Total cosets defined during enumeration, collapsed ones included."""
        return self._allocated

    def step(self, coset: int, letter: int) -> int:
        return self._rows[coset][letter]

    def trace(self, coset: int, word: Word | Sequence[int]) -> int:
        indices = word.indices if isinstance(word, Word) else word
        c = coset
        rows = self._rows
        for i in indices:
            c = rows[c][i]
        return c

    def spanning_tree(self) -> tuple[list[int], list[int]]:
        """Breadth-first spanning tree from coset 0, as two flat int lists.

        Entry k is the k-th tree edge in discovery order: ``parents[k]`` is
        a coset and ``letters[k]`` a letter, and the edge leads to
        ``step(parents[k], letters[k])``.  Every parent was reached by an
        earlier edge (or is 0), so one pass in this order can extend any
        per-coset quantity along the tree.  Computed once per table.
        """
        if self._tree is None:
            rows = self._rows
            width = len(self._alphabet.letters)
            seen = [False] * len(rows)
            seen[0] = True
            parents: list[int] = []
            letters: list[int] = []
            queue = [0]
            head = 0
            while head < len(queue):
                c = queue[head]
                head += 1
                row = rows[c]
                for x in range(width):
                    d = row[x]
                    if not seen[d]:
                        seen[d] = True
                        parents.append(c)
                        letters.append(x)
                        queue.append(d)
            self._tree = (parents, letters)
        return self._tree

    def rep_words(self) -> tuple[GroupWord, ...]:
        """Shortest (then letter-order first) word reaching each coset from 0."""
        rows = self._rows
        reps: list[tuple[int, ...] | None] = [None] * len(rows)
        reps[0] = ()
        for c, x in zip(*self.spanning_tree()):
            reps[rows[c][x]] = reps[c] + (x,)
        return tuple(GroupWord.from_indices(self._alphabet, r) for r in reps)

    def to_csv(self) -> str:
        header = "coset," + ",".join(self._alphabet.letters)
        lines = [header]
        for c, row in enumerate(self._rows):
            lines.append(f"{c}," + ",".join(str(d) for d in row))
        return "\n".join(lines) + "\n"

    def __repr__(self) -> str:
        return f"CosetTable(size={self.size}, rank={self._alphabet.rank})"


def todd_coxeter(
    rank: int,
    relators: Sequence[GroupWord],
    max_cosets: int = 1_000_000,
) -> CosetTable:
    """Enumerate cosets of the trivial subgroup; the table size is the order.

    HLT strategy: cosets are processed in definition order, scanned against
    every relator with gaps filled by new definitions, then all remaining
    entries are filled.  Coincidences collapse through a union-find with a
    queue.  Everything is deterministic.
    """
    if rank < 1 or rank > len(_GENERATOR_NAMES):
        raise ValueError(f"rank must be between 1 and {len(_GENERATOR_NAMES)}")
    alphabet = InverseAlphabet(_GENERATOR_NAMES[:rank])
    rel_seqs: list[tuple[int, ...]] = []
    for w in relators:
        if not isinstance(w, GroupWord):
            raise TypeError("relators must be freely reduced GroupWords")
        if w.alphabet != alphabet:
            raise ValueError(
                f"relators must be over letters {alphabet.positive_letters!r}"
            )
        if not w.is_cyclically_reduced:
            raise ValueError(f"relator {w.compact()!r} is not cyclically reduced")
        if not w.is_trivial:
            rel_seqs.append(w.indices)

    width = 2 * rank
    table: list[list[int | None]] = [[None] * width]
    parent = [0]  # union-find over cosets
    live = 1

    def rep(c: int) -> int:
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    def define(c: int, x: int) -> int:
        nonlocal live
        if len(table) >= max_cosets:
            raise EnumerationIncomplete(len(table), live, max_cosets)
        live += 1
        d = len(table)
        table.append([None] * width)
        parent.append(d)
        table[c][x] = d
        table[d][x ^ 1] = c
        return d

    def coincidence(a: int, b: int) -> None:
        nonlocal live
        queue: list[int] = []

        def merge(u: int, v: int) -> None:
            nonlocal live
            u, v = rep(u), rep(v)
            if u == v:
                return
            if u > v:
                u, v = v, u
            parent[v] = u
            live -= 1
            queue.append(v)

        merge(a, b)
        head = 0
        while head < len(queue):
            y = queue[head]
            head += 1
            row = table[y]
            for x in range(width):
                d = row[x]
                if d is None:
                    continue
                row[x] = None
                table[d][x ^ 1] = None
                mu, nu = rep(y), rep(d)
                t = table[mu][x]
                if t is not None:
                    merge(nu, t)
                else:
                    t = table[nu][x ^ 1]
                    if t is not None:
                        merge(mu, t)
                    else:
                        table[mu][x] = nu
                        table[nu][x ^ 1] = mu

    def scan_and_fill(start: int, word: tuple[int, ...]) -> None:
        f, i = start, 0
        b, j = start, len(word) - 1
        while True:
            while i <= j:
                nxt = table[f][word[i]]
                if nxt is None:
                    break
                f = nxt
                i += 1
            if i > j:
                if f != b:
                    coincidence(f, b)
                return
            while j >= i:
                prv = table[b][word[j] ^ 1]
                if prv is None:
                    break
                b = prv
                j -= 1
            if j < i:
                coincidence(f, b)
                return
            if j == i:
                table[f][word[i]] = b
                table[b][word[i] ^ 1] = f
                return
            f = define(f, word[i])
            i += 1

    alpha = 0
    while alpha < len(table):
        if rep(alpha) != alpha:
            alpha += 1
            continue
        for w in rel_seqs:
            scan_and_fill(alpha, w)
            if rep(alpha) != alpha:
                break
        if rep(alpha) == alpha:
            row = table[alpha]
            for x in range(width):
                if row[x] is None:
                    define(alpha, x)
        alpha += 1

    # standardize: breadth-first renumbering from coset 0
    number = {0: 0}
    order_of = [0]
    head = 0
    while head < len(order_of):
        c = order_of[head]
        head += 1
        for x in range(width):
            d = table[c][x]
            if d not in number:
                number[d] = len(order_of)
                order_of.append(d)
    rows = [
        [number[table[c][x]] for x in range(width)]
        for c in order_of
    ]
    return CosetTable(alphabet, rows, allocated=len(table))


class FiniteQuotient:
    """Finite exponent-n quotient of a free group, as a closed coset table.

    Elements are coset numbers; 0 is the identity.  ``exponent_certified``
    is set once every element has been checked to satisfy ``g^n = 1``,
    which identifies the quotient with the universal exponent-n quotient
    of the free group.
    """

    __slots__ = ("_rank", "_exponent", "_table", "_reps", "_certified", "_base_length")

    def __init__(self, rank: int, exponent: int, table: CosetTable, base_length: int):
        self._rank = rank
        self._exponent = exponent
        self._table = table
        self._reps = table.rep_words()
        self._base_length = base_length
        self._certified = False

    @property
    def rank(self) -> int:
        return self._rank

    @property
    def exponent(self) -> int:
        return self._exponent

    @property
    def order(self) -> int:
        return self._table.size

    @property
    def table(self) -> CosetTable:
        return self._table

    @property
    def alphabet(self) -> InverseAlphabet:
        return self._table.alphabet

    @property
    def base_length(self) -> int:
        """Longest base word whose n-th power was used as a relator."""
        return self._base_length

    @property
    def exponent_certified(self) -> bool:
        return self._certified

    def certify_exponent(self) -> bool:
        """Check g^n = 1 for every element, caching a positive answer."""
        if self._certified:
            return True
        n = self._exponent
        for rword in self._reps:
            e = 0
            for _ in range(n):
                e = self._table.trace(e, rword)
            if e != 0:
                return False
        self._certified = True
        return True

    def eval_word(self, word: Word) -> int:
        """Image of a word, reduced or not, as an element number."""
        if word.alphabet != self.alphabet:
            raise ValueError(f"word must be over letters {self.alphabet.positive_letters!r}")
        return self._table.trace(0, word)

    def rep_word(self, element: int) -> GroupWord:
        return self._reps[element]

    def multiply(self, x: int, y: int) -> int:
        return self._table.trace(x, self._reps[y])

    def inverse(self, x: int) -> int:
        return self._table.trace(0, flip(self._reps[x]))

    def __repr__(self) -> str:
        return (
            f"FiniteQuotient(rank={self._rank}, exponent={self._exponent}, "
            f"order={self.order}, certified={self._certified})"
        )


def _base_words(alphabet: InverseAlphabet, length: int) -> list[tuple[int, ...]]:
    """Cyclically reduced primitive words of exact length, one per symmetry class.

    Rotating a base word or inverting it yields the same normal closure
    for its n-th power, and a proper power u^k contributes nothing beyond
    u, so only canonical representatives are kept.
    """
    width = len(alphabet.letters)
    out = []

    def canonical(seq: tuple[int, ...]) -> tuple[int, ...]:
        best = None
        flipped = tuple(i ^ 1 for i in reversed(seq))
        for s in (seq, flipped):
            for r in range(len(s)):
                cand = s[r:] + s[:r]
                if best is None or cand < best:
                    best = cand
        return best

    def primitive(seq: tuple[int, ...]) -> bool:
        n = len(seq)
        for p in range(1, n):
            if n % p == 0 and seq == seq[:p] * (n // p):
                return False
        return True

    stack: list[tuple[int, ...]] = [(x,) for x in range(width)]
    while stack:
        seq = stack.pop()
        if len(seq) == length:
            if seq[-1] != seq[0] ^ 1 and primitive(seq) and canonical(seq) == seq:
                out.append(seq)
            continue
        for x in range(width):
            if x != seq[-1] ^ 1:
                stack.append(seq + (x,))
    out.sort()
    return out


_ORACLE_CACHE: dict[tuple[int, int], FiniteQuotient] = {}

# Limits of burnside_oracle: the largest quotient order it attempts, the
# longest relator base word, and the coset limit of each enumeration.
_ORDER_CAP = 10_000
_MAX_BASE_LENGTH = 4
_MAX_COSETS = 400_000


def burnside_oracle(rank: int, exponent: int, *, cached: bool = True) -> FiniteQuotient:
    """The universal exponent-n quotient of the rank-r free group, n in {2, 3}.

    Relators are n-th powers of all short cyclically reduced words; the
    base length grows until the enumeration closes and the exponent check
    passes for every element.  The returned quotient is always
    exponent-certified.  Quotients of order above 10 000 are refused.
    Results are cached per (rank, exponent) unless ``cached`` is false.
    """
    if exponent not in (2, 3):
        raise ValueError("only exponents 2 and 3 are finite cases handled here")
    if rank < 1:
        raise ValueError("rank must be positive")
    if exponent == 2:
        expected_cap = 2**rank
    else:
        expected_cap = 3 ** (rank + math.comb(rank, 2) + math.comb(rank, 3))
    if expected_cap > _ORDER_CAP:
        raise ValueError(
            f"quotient would have order {expected_cap}, above the cap {_ORDER_CAP}"
        )
    key = (rank, exponent)
    if cached and key in _ORACLE_CACHE:
        return _ORACLE_CACHE[key]

    alphabet = InverseAlphabet(_GENERATOR_NAMES[:rank])
    # powers of single letters never close the table for rank >= 2 (the
    # quotient is a free product of cyclic groups), so start at length 2
    start = 1 if rank == 1 else 2
    relators: list[GroupWord] = [
        GroupWord.from_indices(alphabet, seq * exponent)
        for seq in _base_words(alphabet, 1)
    ]
    quotient: FiniteQuotient | None = None
    for length in range(start, _MAX_BASE_LENGTH + 1):
        if length > 1:
            relators.extend(
                GroupWord.from_indices(alphabet, seq * exponent)
                for seq in _base_words(alphabet, length)
            )
        try:
            table = todd_coxeter(rank, relators, max_cosets=_MAX_COSETS)
        except EnumerationIncomplete:
            continue
        candidate = FiniteQuotient(rank, exponent, table, base_length=length)
        if candidate.certify_exponent():
            quotient = candidate
            break
    if quotient is None:
        raise RuntimeError(
            f"no certified quotient with base words up to length {_MAX_BASE_LENGTH} "
            f"within {_MAX_COSETS} cosets"
        )
    if cached:
        _ORACLE_CACHE[key] = quotient
    return quotient


@dataclass(frozen=True)
class Order:
    value: int


@dataclass(frozen=True)
class ExceedsBound:
    bound: int


def induced_order(f: BasisMap, quotient: FiniteQuotient, max_k: int = 10_000) -> Order | ExceedsBound:
    """Exact order of the permutation the map induces on the quotient.

    The quotient must be exponent-certified (its kernel is fully invariant,
    so any endomorphism descends); the map must come from an automorphism,
    which is re-checked here by requiring the induced action to permute the
    elements.  The order is the cycle-length lcm, reported as ExceedsBound
    when above ``max_k``.

    The permutation pi sends element e to the image of ``f(rep_word(e))``.
    It is built from the images of the letters alone, along the table's
    breadth-first spanning tree: pi(0) = 0, and for a tree edge d = c.x,
    ``rep_word(d)`` is ``rep_word(c)`` followed by x, so
    f(rep_word(d)) = f(rep_word(c)) f(x) and pi(d) is the walk of f(x)
    from pi(c) through the table.  Every column of a closed table is a
    permutation whose inverse is the column of the inverse letter, so
    free cancellation does not change where a walk ends, and this is
    exactly the element that evaluating the reduced image of
    ``rep_word(d)`` gives.  Each element costs one letter image's walk.
    """
    if not quotient.exponent_certified:
        raise ValueError("quotient is not exponent-certified")
    if f.alphabet != quotient.alphabet:
        raise ValueError(
            f"map must be over letters {quotient.alphabet.positive_letters!r}"
        )
    if max_k < 1:
        raise ValueError("max_k must be positive")
    table = quotient.table
    rows = table._rows
    images = [f.letter_image(x) for x in range(len(table.alphabet.letters))]
    n = quotient.order
    pi = [0] * n
    for c, x in zip(*table.spanning_tree()):
        e = pi[c]
        for k in images[x]:
            e = rows[e][k]
        pi[rows[c][x]] = e
    if len(set(pi)) != n:
        raise ValueError("the induced map is not a permutation; not an automorphism")
    seen = [False] * n
    order = 1
    for start in range(n):
        if seen[start]:
            continue
        length = 0
        e = start
        while not seen[e]:
            seen[e] = True
            e = pi[e]
            length += 1
        order = math.lcm(order, length)
    if order > max_k:
        return ExceedsBound(bound=max_k)
    return Order(value=order)
