"""Power-replacement moves, coset enumeration, and finite exponent quotients.

An elementary move rewrites a reduced word ``p u^m s`` into the reduced form
of ``p u^(m-n) s`` when the exponent m clears a threshold derived from the
move parameters.  Moves multiply by an n-th power, so they preserve the
image in any exponent-n quotient; :func:`common_descendant_search` looks
for a common rewrite of two words under a budget.

:func:`todd_coxeter` enumerates cosets of the trivial subgroup for a finite
presentation (HLT strategy, deterministic).  :class:`CosetTable` is the one
place a table is standardized: its constructor numbers the rows
breadth-first from coset 0 and records the spanning tree that every
representative word is read from.  :func:`burnside_oracle` enumerates no
cosets: it writes the right-multiplication table of B(r, n) from the
collected normal form of its elements and wraps it in a
:class:`FiniteQuotient`, whose constructor certifies that every element
has ``g^n = 1``.  A regular table with r generators, exponent n and order
|B(r, n)| is B(r, n): exponent n makes it a quotient of B(r, n), and the
orders agree.

:func:`induced_order` computes the exact order of the permutation pi a
basis map induces on a certified quotient without building pi.  It
follows only the generators: from each generator g it steps g, pi(g),
pi^2(g), ... until the walk comes back to g, after L_g steps.  A walk that
meets any other element twice shows pi is not injective.  If every
generator comes back, pi^L fixes every generator for L = lcm(L_g); pi is
an endomorphism of the quotient, so pi^L is the identity, pi is a
permutation, and its order is exactly L.  Each step walks the images of
one element's representative letters, read off the table's spanning tree.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from ._records import frozen
from .words import GroupWord, InverseAlphabet, PowerRun, Word, _tighten, find_power_runs

if TYPE_CHECKING:
    from .automorphisms import BasisMap

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


@frozen
class MoveParams:
    """Exponent n and slack xi defining which powers may be rewritten.

    A run u^m qualifies when m is an integer strictly greater than
    ``n/2 - xi``; the smallest such integer is stored as ``m_min``.  It is
    clamped to 2 because a bare letter is not a repetition and the run
    detector has nothing to find below two periods.  Any weaker threshold
    t <= n/2 is the slack ``xi = n/2 - t``, stored as a ``Fraction``.
    """

    n: int
    xi: Fraction = Fraction(0)

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError(f"the exponent must be a positive integer, got {self.n!r}")
        xi = Fraction(self.xi)
        if xi < 0:
            raise ValueError(f"xi must be non-negative, got {xi}")
        record = self.__dict__
        record["xi"] = xi
        # not a field, so equality ignores it; set last, so every record shares one key table
        record["m_min"] = max(2, self.threshold.__floor__() + 1)

    @property
    def threshold(self) -> Fraction:
        return Fraction(self.n, 2) - self.xi


@frozen
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


@frozen
class SearchBudget:
    max_states: int = 20_000
    max_depth: int = 12

    def __post_init__(self):
        if self.max_states < 1 or self.max_depth < 1:
            raise ValueError("budget bounds must be positive")


@frozen
class Joined:
    """Both words rewrite to ``witness``; the two move sequences are replayable.

    Equality of the two sources in the exponent-n quotient follows, since
    every move multiplies by an n-th power.
    """

    witness: GroupWord
    left_moves: tuple[ElementaryMove, ...]
    right_moves: tuple[ElementaryMove, ...]
    explored: tuple[int, int]


@frozen
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
    frontiers = [[w1], [w2]]
    depths = [0, 0]

    def joined(witness: GroupWord) -> Joined:
        paths: list[tuple[ElementaryMove, ...]] = []
        for visited in sides:
            moves = []
            k = witness.indices
            while True:
                parent, move = visited[k]
                if parent is None:
                    break
                moves.append(move)
                k = parent
            paths.append(tuple(reversed(moves)))
        return Joined(
            witness=witness,
            left_moves=paths[0],
            right_moves=paths[1],
            explored=(len(sides[0]), len(sides[1])),
        )

    if w1.indices in sides[1]:
        return joined(w1)

    while True:
        progressed = False
        for s in (0, 1):
            if depths[s] >= budget.max_depth or not frontiers[s]:
                continue
            here, other = sides[s], sides[1 - s]
            new_frontier: list[GroupWord] = []
            for word in frontiers[s]:
                for move in find_elementary_moves(word, params):
                    child = move.result
                    ck = child.indices
                    if ck in here:
                        continue
                    here[ck] = (word.indices, move)
                    new_frontier.append(child)
                    if ck in other:
                        return joined(child)
                if len(sides[0]) + len(sides[1]) > budget.max_states:
                    return Undecided(
                        explored=(len(sides[0]), len(sides[1])),
                        depth_reached=tuple(depths),
                        frontier_exhausted=False,
                    )
            frontiers[s] = new_frontier
            depths[s] += 1
            progressed = True
        if not progressed:
            return Undecided(
                explored=(len(sides[0]), len(sides[1])),
                depth_reached=tuple(depths),
                frontier_exhausted=not (frontiers[0] or frontiers[1]),
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
    letters in alphabet order.  The table is standardized: the constructor
    renumbers any closed table in one breadth-first pass from row 0, letters
    in alphabet order, so equal presentations yield identical tables.  The
    same pass checks every row it reaches, records the spanning tree, and
    drops the rows it never reaches.  A standard table comes back unchanged.
    Coset numbers and raw letter indices outside the table raise
    ``ValueError``.
    """

    __slots__ = ("_alphabet", "_rows", "_allocated", "_parents", "_letters")

    def __init__(self, alphabet: InverseAlphabet, rows: Sequence[Sequence[int]], allocated: int):
        n = len(rows)
        width = len(alphabet.letters)
        if not n:
            raise ValueError("malformed coset table")
        number = [-1] * n  # the new number of each given row, -1 until reached
        number[0] = 0
        reached = [0]  # given rows in the order reached
        parents = [0]
        letters = [-1]
        for c in reached:  # the loop also visits the rows appended during it
            row = rows[c]
            if len(row) != width:
                raise ValueError("malformed coset table")
            for x, d in enumerate(row):
                if type(d) is not int or not 0 <= d < n:
                    raise ValueError("malformed coset table")
                if number[d] < 0:
                    number[d] = len(reached)
                    reached.append(d)
                    parents.append(number[c])
                    letters.append(x)
        self._alphabet = alphabet
        self._rows = tuple([tuple([number[d] for d in rows[c]]) for c in reached])
        self._allocated = allocated
        self._parents = parents
        self._letters = letters

    @property
    def alphabet(self) -> InverseAlphabet:
        return self._alphabet

    @property
    def size(self) -> int:
        return len(self._rows)

    @property
    def cosets_allocated(self) -> int:
        """Rows the table was built from: every coset an enumeration defined, collapsed ones included."""
        return self._allocated

    def _check(self, coset: int, indices: Sequence[int]) -> None:
        width = len(self._alphabet.letters)
        if not 0 <= coset < len(self._rows):
            raise ValueError(f"coset {coset!r} is not in range({len(self._rows)})")
        if indices and not (0 <= min(indices) and max(indices) < width):
            raise ValueError(f"letter indices must be in range({width})")

    def step(self, coset: int, letter: int) -> int:
        self._check(coset, (letter,))
        return self._rows[coset][letter]

    def trace(self, coset: int, word: Word | Sequence[int]) -> int:
        """Coset reached from ``coset`` along a word or raw letter indices.

        A ``Word`` must be over the table's alphabet; raw indices are only
        range-checked.
        """
        if isinstance(word, Word):
            if word.alphabet != self._alphabet:
                raise ValueError(f"word must be over letters {self._alphabet.positive_letters!r}")
            indices = word.indices
        else:
            indices = word
        self._check(coset, indices)
        c = coset
        rows = self._rows
        for i in indices:
            c = rows[c][i]
        return c

    def spanning_tree(self) -> tuple[list[int], list[int]]:
        """Breadth-first spanning tree from coset 0, as two per-coset int lists.

        For every coset d but 0, the tree edge into d leaves ``parents[d]``
        by letter ``letters[d]``, so ``step(parents[d], letters[d]) == d``;
        entry 0 is (0, -1).  Following the parents from d back to 0 reads
        d's representative letters backwards.  Recorded by the constructor;
        the lists returned are fresh copies, so editing them leaves the
        table as it is.
        """
        return list(self._parents), list(self._letters)

    def rep_letters(self, coset: int) -> list[int]:
        """Letters of the shortest (then letter-order first) word from 0 to the coset."""
        parents, letters = self._parents, self._letters
        # checked inline: a call to _check here made induced_order 15% slower
        if not 0 <= coset < len(parents):
            raise ValueError(f"coset {coset!r} is not in range({len(parents)})")
        out = []
        while coset:
            out.append(letters[coset])
            coset = parents[coset]
        out.reverse()
        return out

    def to_csv(self) -> str:
        header = "coset," + ",".join(self._alphabet.letters)
        lines = [header]
        for c, row in enumerate(self._rows):
            lines.append(f"{c}," + ",".join(str(d) for d in row))
        return "\n".join(lines) + "\n"

    def __repr__(self) -> str:
        return f"CosetTable(size={self.size}, rank={self._alphabet.rank})"


# todd_coxeter reports progress each time the allocated count passes a
# multiple of this many cosets
_PROGRESS_EVERY = 65_536


def todd_coxeter(
    rank: int,
    relators: Sequence[GroupWord],
    max_cosets: int = 1_000_000,
    *,
    progress: Callable[[int, int], None] | None = None,
) -> CosetTable:
    """Enumerate cosets of the trivial subgroup; the table size is the order.

    HLT strategy: cosets are processed in definition order, scanned against
    every relator with gaps filled by new definitions, then all remaining
    entries are filled.  Coincidences collapse through a union-find with a
    queue.  Everything is deterministic.  The raw table, collapsed cosets
    included, goes to :class:`CosetTable`, which renumbers it to standard
    form and drops the collapsed rows.

    ``progress``, when given, is called as ``progress(allocated, live)``
    from the loop over cosets, once each time the allocated count has
    passed the next multiple of 65 536.  It does not change the result.
    """
    if rank < 1 or rank > len(_GENERATOR_NAMES):
        raise ValueError(f"rank must be between 1 and {len(_GENERATOR_NAMES)}")
    if max_cosets < 1:
        raise ValueError(f"the coset limit must be positive, got {max_cosets}")
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

    next_report = _PROGRESS_EVERY
    alpha = 0
    while alpha < len(table):
        if progress is not None and len(table) >= next_report:
            progress(len(table), live)
            next_report = (len(table) // _PROGRESS_EVERY + 1) * _PROGRESS_EVERY
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

    return CosetTable(alphabet, table, allocated=len(table))


@frozen
class FiniteQuotient:
    """Finite exponent-n quotient of a free group, as a closed coset table.

    Elements are coset numbers; 0 is the identity.  The constructor is the
    certificate: it checks ``g^n = 1`` for every element, and raises
    ``ValueError`` when an element fails or n is not a positive integer.
    On a regular table, the multiplication table of a group with r
    generators, that makes the group a quotient of the universal exponent-n
    quotient B(r, n); a table of order |B(r, n)| is then B(r, n) itself.
    So every quotient is certified, and ``exponent_certified`` is always
    true.  Representative words are read off the table's spanning tree when
    asked, not stored.
    """

    exponent: int
    table: CosetTable

    exponent_certified = True  # not annotated, so not a field

    def __post_init__(self):
        n, table = self.exponent, self.table
        if not isinstance(n, int) or n < 1:
            raise ValueError(f"the exponent must be a positive integer, got {n!r}")
        # the walk of rep_letters(e) from 0 ends at e, so g^n = 1 is the walk of n - 1 more from e
        for element in range(table.size):
            if table.trace(element, table.rep_letters(element) * (n - 1)) != 0:
                raise ValueError(f"no exponent-{n} certificate for rank {self.rank}")

    @property
    def rank(self) -> int:
        return self.table.alphabet.rank

    @property
    def order(self) -> int:
        return self.table.size

    @property
    def alphabet(self) -> InverseAlphabet:
        return self.table.alphabet

    def eval_word(self, word: Word) -> int:
        """Image of a word, reduced or not, as an element number.

        The table's :meth:`CosetTable.trace` rejects a word over another alphabet.
        """
        return self.table.trace(0, word)

    def rep_word(self, element: int) -> GroupWord:
        return GroupWord._trusted(self.alphabet, self.table.rep_letters(element))

    def multiply(self, x: int, y: int) -> int:
        return self.table.trace(x, self.table.rep_letters(y))

    def inverse(self, x: int) -> int:
        return self.table.trace(0, [i ^ 1 for i in reversed(self.table.rep_letters(x))])


def _burnside_rows(rank: int, exponent: int) -> list[tuple[int, ...]]:
    """Right-multiplication table of B(rank, exponent), rows by collected element.

    Exponent 2: element e is the bit vector of (Z/2)^r, and both a_m and
    a_m^-1 flip bit m.  Exponent 3: element e has one base-3 digit per
    sorted key, a_i^x_i for key (i,), [a_i, a_j]^y_ij for (i, j) and
    [a_i, a_j, a_k]^z_ijk for (i, j, k), in the collected order a^x c^y d^z,
    with [a, b] = a^-1 b^-1 a b and [a, b, c] = [[a, b], c].  Right
    multiplication by a_m collects to four updates of the old digits:
    x_m += 1, y_mk -= x_k for k > m, z_mkl -= x_k x_l for m < k < l, and
    z at sorted(i, j, m) += sign * y_ij for each pair i < j without m,
    the sign being that of the permutation sorting (i, j, m).  No update
    reads a digit another one writes, so they apply at once.  The column
    of a_m^-1 is the inverse permutation of the column of a_m.
    """
    if exponent == 2:
        columns = []
        for m in range(rank):
            column = [e ^ (1 << m) for e in range(2**rank)]
            columns += (column, column)
        return list(zip(*columns))
    keys = [key for size in (1, 2, 3) for key in combinations(range(rank), size)]
    order = 3 ** len(keys)
    weight = {key: 3**p for p, key in enumerate(keys)}
    # element e is the sum of its digits times their weights; digit[key][e] is one of them
    digit = {key: ([0] * w + [1] * w + [2] * w) * (order // (3 * w)) for key, w in weight.items()}
    columns = []
    for m in range(rank):
        # (digit written, coefficient, digits whose product it is scaled by)
        rules = [((m,), 1, ())]
        rules += [((m, k), -1, ((k,),)) for k in range(m + 1, rank)]
        rules += [((m, k, l), -1, ((k,), (l,))) for k, l in combinations(range(m + 1, rank), 2)]
        rules += [
            (tuple(sorted((i, j, m))), -1 if i < m < j else 1, ((i, j),))
            for i, j in combinations(range(rank), 2)
            if m not in (i, j)
        ]
        amounts: dict[tuple[int, ...], list[int]] = {}
        for target, coefficient, sources in rules:
            term = [coefficient] * order
            for source in sources:
                term = [t * d for t, d in zip(term, digit[source])]
            if target in amounts:
                term = [t + u for t, u in zip(term, amounts[target])]
            amounts[target] = term
        column = list(range(order))
        for target, amount in amounts.items():
            w = weight[target]
            column = [e + w * ((d + u) % 3 - d) for e, d, u in zip(column, digit[target], amount)]
        inverse = [0] * order
        for e, f in enumerate(column):
            inverse[f] = e
        columns += (column, inverse)
    return list(zip(*columns))


_ORACLE_CACHE: dict[tuple[int, int], FiniteQuotient] = {}

# the largest quotient order burnside_oracle builds
_ORDER_CAP = 10_000


def burnside_oracle(rank: int, exponent: int, *, cached: bool = True) -> FiniteQuotient:
    """The universal exponent-n quotient B(r, n) of the rank-r free group, n in {2, 3}.

    The table is the right-multiplication table of the group in its
    collected normal form, (Z/2)^r for n = 2 and the class-3 nilpotent
    group of Levi and van der Waerden for n = 3, so it is regular, with r
    generators and order |B(r, n)|.  :class:`FiniteQuotient` certifies
    exponent n, which makes the group a quotient of B(r, n); as the orders
    agree, it is B(r, n).  Quotients of order above 10 000 are refused.
    Results are cached per (rank, exponent) unless ``cached`` is false.
    """
    if exponent not in (2, 3):
        raise ValueError("only exponents 2 and 3 are finite cases handled here")
    if rank < 1:
        raise ValueError("rank must be positive")
    if exponent == 2:
        expected_order = 2**rank
    else:
        expected_order = 3 ** (rank + math.comb(rank, 2) + math.comb(rank, 3))
    if expected_order > _ORDER_CAP:
        raise ValueError(
            f"quotient would have order {expected_order}, above the cap {_ORDER_CAP}"
        )
    key = (rank, exponent)
    if cached and key in _ORACLE_CACHE:
        return _ORACLE_CACHE[key]

    alphabet = InverseAlphabet(_GENERATOR_NAMES[:rank])
    table = CosetTable(alphabet, _burnside_rows(rank, exponent), allocated=expected_order)
    quotient = FiniteQuotient(exponent, table)
    if cached:
        _ORACLE_CACHE[key] = quotient
    return quotient


@frozen
class Order:
    value: int


@frozen
class ExceedsBound:
    bound: int


def induced_order(f: BasisMap, quotient: FiniteQuotient, max_k: int = 10_000) -> Order | ExceedsBound:
    """Exact order of the permutation the map induces on the quotient.

    The quotient is exponent-certified, so its kernel is fully invariant
    and any endomorphism descends; the map must come from an automorphism,
    which is re-checked here by requiring the induced action to permute the
    elements.  The order is reported as ExceedsBound when above ``max_k``.

    The induced map pi sends element e to the image of ``f(rep_word(e))``:
    the walk of the letters' images, in order, from 0 through the table.
    Every column of a closed table is a permutation whose inverse is the
    column of the inverse letter, so free cancellation does not change
    where a walk ends, and the images need no reduction.
    Only the trajectories of the r generators are followed.  From each
    generator g the walk g, pi(g), pi^2(g), ... runs until it meets an
    element a second time, which happens within ``quotient.order`` steps.
    If that element is g, the walk has closed a cycle of length L_g.  If it
    is any other element, two different elements have the same image, so
    pi is not injective and f is not an automorphism.  If every generator
    comes back, pi^L fixes every generator for L = lcm(L_g).  Since pi^L is
    an endomorphism and the generators generate the quotient, pi^L is the
    identity; so pi is a permutation, its order divides L, and as each L_g
    divides it, the order is exactly L.  The cost is one short walk per
    step, sum(L_g) steps in all, and nothing of size ``quotient.order``.
    """
    if f.alphabet != quotient.alphabet:
        raise ValueError(
            f"map must be over letters {quotient.alphabet.positive_letters!r}"
        )
    if max_k < 1:
        raise ValueError("max_k must be positive")
    table = quotient.table
    rows = table._rows
    images = [f.letter_image(x) for x in range(len(table.alphabet.letters))]

    def pi(e: int) -> int:
        image_of_e = 0
        for x in table.rep_letters(e):
            for k in images[x]:
                image_of_e = rows[image_of_e][k]
        return image_of_e

    order = 1
    for x in range(0, len(images), 2):
        g = rows[0][x]
        visited = {g}
        e = pi(g)
        length = 1
        while e != g:
            if e in visited:
                raise ValueError("the induced map is not a permutation; not an automorphism")
            visited.add(e)
            e = pi(e)
            length += 1
        order = math.lcm(order, length)
    if order > max_k:
        return ExceedsBound(bound=max_k)
    return Order(value=order)
