"""Letter substitutions, their fixed points, and periodicity analysis.

A :class:`Substitution` replaces every letter of a word by a fixed nonempty
image word, with no cancellation.  Over an :class:`InverseAlphabet` images
are given on positive letters only and extend to inverse letters by
flip-equivariance, so the substitution commutes with taking formal
inverses.

The analysis functions answer the questions one actually asks of such a
system: what the transition matrix is, whether the fixed-point stream of a
letter is eventually a repeated block (:func:`detect_shift_period`),
whether that can be ruled out exactly (:func:`certify_aperiodic_by_eigenvalue`),
how large the powers in an orbit get (:func:`orbit_power_index`), and
whether a coherent direction can be chosen through every inverse pair
(:func:`orientability`), a parity system over the pairs solved in one
pass, which turns a flip-equivariant substitution into a positive one
over a plain alphabet.
"""

from __future__ import annotations

from typing import Iterator

from ._records import frozen
from .limits import check_letters
from .matrices import NonnegIntMatrix, _pair_count_matrix, int_determinant
from .words import Alphabet, Word, _LetterMap, compose, max_power_index

__all__ = [
    "Substitution",
    "FixedPointStream",
    "Periodic",
    "NoPeriodUpTo",
    "Orientable",
    "NonOrientable",
    "compose",
    "orbit",
    "orbit_power_index",
    "fixed_point_prefix",
    "detect_shift_period",
    "certify_aperiodic_by_eigenvalue",
    "orientability",
]


class Substitution(_LetterMap):
    """Letterwise map x -> image(x) extended to words by concatenation.

    ``images`` maps letter names to words (or token strings).  Over a plain
    alphabet every letter needs an image; over an :class:`InverseAlphabet`
    exactly the positive letters do, and ``image(x^-1)`` is defined as the
    flip of ``image(x)``.  Images must be nonempty: erasing substitutions
    are not allowed.
    """

    __slots__ = ()

    def _image_indices(self, name: str, image: Word | str) -> tuple[int, ...]:
        word = self._word(name, image)
        if len(word) == 0:
            raise ValueError(f"image of {name!r} is empty; erasing is not allowed")
        return word.indices

    def image(self, name: str) -> Word:
        return Word.from_indices(self._alphabet, self._table[self._alphabet.index(name)])

    def apply(self, word: Word) -> Word:
        """One application; pure concatenation of letter images."""
        alph = word._alphabet
        if alph is not self._alphabet and alph != self._alphabet:
            raise ValueError("word is over a different alphabet")
        table = self._table
        out: list[int] = []
        for i in word._seq:
            out.extend(table[i])
        return Word._trusted(self._alphabet, out)

    __call__ = apply

    def iterate(self, word: Word, power: int) -> Word:
        """Apply the substitution ``power`` times.

        The last word of :func:`orbit`, so the projected output length is
        checked against the letter cap before each expansion; see
        :mod:`burntrack.limits`.
        """
        if power < 0:
            raise ValueError("power must be >= 0")
        cur = word
        for _, cur in orbit(self, word, power):
            pass
        return cur

    def transition_matrix(self) -> NonnegIntMatrix:
        """Occurrence counts, letters down the rows, images across columns.

        Entry (i, j) counts letter i in the image of letter j.  Over an
        :class:`InverseAlphabet` the matrix is indexed by positive letters
        and counts both directions of a pair together, which makes it
        insensitive to flips.
        """
        alph = self._alphabet
        if alph.has_inverses:
            return _pair_count_matrix(self._table, range(alph.rank))
        n = len(alph.letters)
        cols = []
        for j in range(n):
            counts = [0] * n
            for i in self._table[j]:
                counts[i] += 1
            cols.append(counts)
        return NonnegIntMatrix(tuple(zip(*cols)))


class FixedPointStream:
    """Infinite word fixed by the substitution, grown letter by letter.

    Requires a seed letter whose image starts with that letter and has
    length at least two; the stream is then seed, rest-of-image, image of
    that, and so on, and applying the substitution to any prefix gives a
    longer prefix.  Iteration yields letter names.  Each growth step reads
    the letter cap afresh and raises :class:`GrowthCapExceeded` past it.
    """

    def __init__(self, subst: Substitution, letter: str):
        alph = subst.alphabet
        seed = alph.parse_token(letter)
        img = subst.letter_image(seed)
        if len(img) < 2 or img[0] != seed:
            raise ValueError(
                f"letter {letter!r} does not start its own image of length >= 2; "
                f"image is {Word.from_indices(alph, img)!r}"
            )
        self._subst = subst
        self._buf: list[int] = [seed]
        self._block = Word._trusted(alph, img[1:])

    @property
    def alphabet(self) -> Alphabet:
        return self._subst.alphabet

    def _grow(self) -> None:
        check_letters(len(self._buf) + len(self._block))
        self._buf.extend(self._block.indices)
        self._block = self._subst.apply(self._block)

    def prefix(self, n: int) -> Word:
        """First n letters of the fixed point."""
        if n < 0:
            raise ValueError("n must be >= 0")
        while len(self._buf) < n:
            self._grow()
        return Word.from_indices(self._subst.alphabet, self._buf[:n])

    def __iter__(self) -> Iterator[str]:
        alph = self._subst.alphabet
        k = 0
        while True:
            while k >= len(self._buf):
                self._grow()
            yield alph.token(self._buf[k])
            k += 1


def fixed_point_prefix(subst: Substitution, letter: str, n: int) -> Word:
    """First n letters of the fixed point seeded at ``letter``."""
    return FixedPointStream(subst, letter).prefix(n)


def orbit(subst: Substitution, seed: Word, depth: int) -> Iterator[tuple[int, Word]]:
    """Yield (p, subst^p(seed)) for p = 1 .. depth."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    cur = seed
    for p in range(1, depth + 1):
        subst._check_growth(cur.indices)
        cur = subst.apply(cur)
        yield p, cur


def orbit_power_index(subst: Substitution, seed: Word, depth: int) -> list[tuple[int, int]]:
    """Largest repetition exponent in each word of the orbit.

    Returns [(p, index of subst^p(seed))] for p = 1 .. depth; the index of a
    word is the largest m with some u^m a factor.
    """
    return [(p, max_power_index(w)) for p, w in orbit(subst, seed, depth)]


@frozen
class Periodic:
    """The fixed point is block^infinity; block is primitive.

    ``power`` is the integer q >= 2 with subst(block) = block^q, which is
    what certifies the claim: the image of any prefix is a prefix, so
    block^(q^n) is a prefix of the fixed point for every n.
    """

    block: Word
    power: int


@frozen
class NoPeriodUpTo:
    """No repeating block of length <= bound generates the fixed point."""

    bound: int


def detect_shift_period(subst: Substitution, letter: str, max_period: int) -> Periodic | NoPeriodUpTo:
    """Decide whether the fixed point at ``letter`` is a repeated block.

    Tries every candidate block length L up to ``max_period``: the length-L
    prefix u qualifies exactly when subst(u) is u raised to an integer
    power.  The first hit is returned and its block is automatically
    primitive; if nothing fires the answer is only a bound, not a proof of
    aperiodicity (see :func:`certify_aperiodic_by_eigenvalue` for that).
    """
    if max_period < 1:
        raise ValueError("max_period must be >= 1")
    stream = FixedPointStream(subst, letter)
    prefix = stream.prefix(max_period)
    for L in range(1, max_period + 1):
        u = prefix[:L]
        image = subst.apply(u)
        q, rem = divmod(len(image), L)
        if rem == 0 and q >= 2 and image.indices == u.indices * q:
            return Periodic(block=u, power=q)
    return NoPeriodUpTo(max_period)


def certify_aperiodic_by_eigenvalue(subst: Substitution) -> bool:
    """True when no integer q >= 2 is an eigenvalue of the transition matrix.

    A periodic fixed point u^infinity forces subst(u) = u^q for some integer
    q >= 2 (u its primitive block), and counting letters then makes q an
    eigenvalue.  The check is exact: det(M - qI) over the integers for every
    candidate q up to the largest image length, which bounds the spectral
    radius.  False means inconclusive, not periodic.
    """
    m = subst.transition_matrix()
    top = subst._longest
    if top < 2:
        return False  # nothing expands; this certificate says nothing
    n = m.size
    for q in range(2, top + 1):
        shifted = [
            [m.entry(i, j) - (q if i == j else 0) for j in range(n)] for i in range(n)
        ]
        if int_determinant(shifted) == 0:
            return False
    return True


@frozen
class Orientable:
    """A coherent direction exists through every inverse pair.

    ``preferred`` holds the chosen token of each pair in positive-letter
    order, lexicographically least with the first pair most significant
    and the positive letter before its inverse.  ``induced``
    is the substitution read along the chosen directions, written over a
    plain alphabet that reuses the positive letter names.
    """

    preferred: tuple[str, ...]
    induced: Substitution


@frozen
class NonOrientable:
    """No choice of directions closes up."""


def orientability(subst: Substitution) -> Orientable | NonOrientable:
    """Choose one direction per pair so that chosen letters map to chosen letters.

    Each pair p carries one bit, dir(p): 0 keeps its positive letter.  A
    letter of direction e in the image of p's positive letter ties its pair
    q to p by dir(q) = dir(p) XOR e, and the tie holds both ways round,
    because flipping a letter flips its whole image.  The ties form a
    parity system, solved in one pass: each pair that no tie has reached
    yet keeps its positive letter, and a stack carries that choice along
    its ties; a tie that contradicts a fixed bit means no choice closes up.
    Flipping every pair of a linked set keeps its ties, so giving the
    first pair of each set its positive letter yields the lexicographically
    least solution.
    """
    alph = subst.alphabet
    if not alph.has_inverses:
        raise ValueError("orientability is about inverse pairs; got a plain alphabet")
    r = alph.rank
    ties: list[list[tuple[int, int]]] = [[] for _ in range(r)]
    for p in range(r):
        for i in subst.letter_image(2 * p):
            ties[p].append((i >> 1, i & 1))
            ties[i >> 1].append((p, i & 1))
    solution: list[int | None] = [None] * r
    for first in range(r):
        if solution[first] is not None:
            continue
        solution[first] = 0
        stack = [first]
        while stack:
            p = stack.pop()
            for q, e in ties[p]:
                d = solution[p] ^ e
                if solution[q] is None:
                    solution[q] = d
                    stack.append(q)
                elif solution[q] != d:
                    return NonOrientable()
    preferred = tuple(alph.token(2 * p + solution[p]) for p in range(r))
    names = alph.positive_letters
    plain = Alphabet(names)
    images = {}
    for p in range(r):
        img = subst.letter_image(2 * p + solution[p])
        images[names[p]] = Word(plain, [names[i >> 1] for i in img])
    return Orientable(preferred=preferred, induced=Substitution(plain, images))
