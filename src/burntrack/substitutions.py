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
(:func:`orientability`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping

from .limits import check_letters
from .matrices import NonnegIntMatrix, int_determinant
from .words import Alphabet, InverseAlphabet, Word, _image_length, flip, max_power_index

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


class Substitution:
    """Letterwise map x -> image(x) extended to words by concatenation.

    ``images`` maps letter names to words (or token strings).  Over a plain
    alphabet every letter needs an image; over an :class:`InverseAlphabet`
    exactly the positive letters do, and ``image(x^-1)`` is defined as the
    flip of ``image(x)``.  Images must be nonempty: erasing substitutions
    are not allowed.
    """

    __slots__ = ("_alphabet", "_table")

    def __init__(self, alphabet: Alphabet, images: Mapping[str, Word | str]):
        if alphabet.has_inverses:
            needed = alphabet.positive_letters
        else:
            needed = alphabet.letters
        extra = set(images) - set(needed)
        if extra:
            raise ValueError(
                f"images must be keyed by {'positive ' if alphabet.has_inverses else ''}"
                f"letters; unexpected keys {sorted(extra)!r}"
            )
        missing = set(needed) - set(images)
        if missing:
            raise ValueError(f"missing images for letters {sorted(missing)!r}")

        table: list[tuple[int, ...]] = [()] * len(alphabet.letters)
        for name in needed:
            img = images[name]
            if isinstance(img, str):
                img = Word.parse(alphabet, img)
            if img.alphabet != alphabet:
                raise ValueError(f"image of {name!r} lives over a different alphabet")
            if len(img) == 0:
                raise ValueError(f"image of {name!r} is empty; erasing is not allowed")
            i = alphabet.index(name)
            table[i] = img.indices
            if alphabet.has_inverses:
                table[i ^ 1] = tuple(k ^ 1 for k in reversed(img.indices))
        self._alphabet = alphabet
        self._table = tuple(table)

    @property
    def alphabet(self) -> Alphabet:
        return self._alphabet

    def letter_image(self, i: int) -> tuple[int, ...]:
        """Image of letter index i, as letter indices."""
        return self._table[i]

    def image(self, name: str) -> Word:
        return Word.from_indices(self._alphabet, self._table[self._alphabet.index(name)])

    def apply(self, word: Word) -> Word:
        """One application; pure concatenation of letter images."""
        if word.alphabet != self._alphabet:
            raise ValueError("word is over a different alphabet")
        table = self._table
        out: list[int] = []
        for i in word.indices:
            out.extend(table[i])
        return Word._trusted(self._alphabet, out)

    __call__ = apply

    def applied_length(self, word: Word) -> int:
        """Length of apply(word), computed without building it."""
        return _image_length(self._table, word.indices)

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
            r = alph.rank
            cols = []
            for p in range(r):
                counts = [0] * r
                for i in self._table[2 * p]:
                    counts[i >> 1] += 1
                cols.append(counts)
        else:
            n = len(alph.letters)
            cols = []
            for j in range(n):
                counts = [0] * n
                for i in self._table[j]:
                    counts[i] += 1
                cols.append(counts)
        return NonnegIntMatrix(tuple(zip(*cols)))

    def max_image_length(self) -> int:
        return max(len(img) for img in self._table)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Substitution):
            return NotImplemented
        return self._alphabet == other._alphabet and self._table == other._table

    def __hash__(self) -> int:
        return hash((self._alphabet, self._table))

    def __repr__(self) -> str:
        alph = self._alphabet
        names = alph.positive_letters if alph.has_inverses else alph.letters
        parts = ", ".join(f"{x} -> {self.image(x)}" for x in names)
        return f"Substitution({parts})"


def compose(outer: Substitution, inner: Substitution) -> Substitution:
    """The substitution sending x to outer(inner(x))."""
    if outer.alphabet != inner.alphabet:
        raise ValueError("can only compose substitutions over the same alphabet")
    alph = outer.alphabet
    names = alph.positive_letters if alph.has_inverses else alph.letters
    return Substitution(alph, {x: outer.apply(inner.image(x)) for x in names})


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
        self._block: tuple[int, ...] = img[1:]

    @property
    def alphabet(self) -> Alphabet:
        return self._subst.alphabet

    def _grow(self) -> None:
        check_letters(len(self._buf) + len(self._block))
        self._buf.extend(self._block)
        table = self._subst._table
        nxt: list[int] = []
        for i in self._block:
            nxt.extend(table[i])
        self._block = tuple(nxt)

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
        check_letters(subst.applied_length(cur))
        cur = subst.apply(cur)
        yield p, cur


def orbit_power_index(subst: Substitution, seed: Word, depth: int) -> list[tuple[int, int]]:
    """Largest repetition exponent in each word of the orbit.

    Returns [(p, index of subst^p(seed))] for p = 1 .. depth; the index of a
    word is the largest m with some u^m a factor.
    """
    return [(p, max_power_index(w)) for p, w in orbit(subst, seed, depth)]


@dataclass(frozen=True)
class Periodic:
    """The fixed point is block^infinity; block is primitive.

    ``power`` is the integer q >= 2 with subst(block) = block^q, which is
    what certifies the claim: the image of any prefix is a prefix, so
    block^(q^n) is a prefix of the fixed point for every n.
    """

    block: Word
    power: int


@dataclass(frozen=True)
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
    top = subst.max_image_length()
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


@dataclass(frozen=True)
class Orientable:
    """A coherent direction exists through every inverse pair.

    ``preferred`` holds the chosen token of each pair in positive-letter
    order, lexicographically least in the sense that each pair keeps its
    positive letter unless that provably admits no completion.  ``induced``
    is the substitution read along the chosen directions, written over a
    plain alphabet that reuses the positive letter names.
    """

    preferred: tuple[str, ...]
    induced: Substitution


@dataclass(frozen=True)
class NonOrientable:
    """No choice of directions closes up."""


def orientability(subst: Substitution) -> Orientable | NonOrientable:
    """Search for a choice of one direction per pair closed under images.

    A direction choice is valid when the image of every chosen letter uses
    chosen letters only.  Flipping a letter flips its whole image, so each
    pair contributes a binary variable; the search is depth-first over
    pairs in alphabet order, trying the positive direction first, with
    forced assignments propagated eagerly.  The first solution found is
    therefore the lexicographically least one.
    """
    alph = subst.alphabet
    if not alph.has_inverses:
        raise ValueError("orientability is about inverse pairs; got a plain alphabet")
    r = alph.rank

    def close(assign: list[int | None], pair: int, direction: int) -> bool:
        # returns False on conflict; mutates assign
        queue = [(pair, direction)]
        if assign[pair] is not None:
            return assign[pair] == direction
        assign[pair] = direction
        while queue:
            p, d = queue.pop()
            for i in subst.letter_image(2 * p + d):
                q, b = i >> 1, i & 1
                if assign[q] is None:
                    assign[q] = b
                    queue.append((q, b))
                elif assign[q] != b:
                    return False
        return True

    def dfs(assign: list[int | None]) -> list[int | None] | None:
        try:
            p = assign.index(None)
        except ValueError:
            return assign
        for d in (0, 1):
            trial = assign.copy()
            if close(trial, p, d):
                done = dfs(trial)
                if done is not None:
                    return done
        return None

    solution = dfs([None] * r)
    if solution is None:
        return NonOrientable()
    preferred = tuple(alph.token(2 * p + solution[p]) for p in range(r))
    names = alph.positive_letters
    plain = Alphabet(names)
    images = {}
    for p in range(r):
        img = subst.letter_image(2 * p + solution[p])
        images[names[p]] = Word(plain, [names[i >> 1] for i in img])
    return Orientable(preferred=preferred, induced=Substitution(plain, images))
