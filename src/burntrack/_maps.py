"""Letter maps and the integer matrices they produce: what a session block builds.

This module holds the classes that loading a session's ``subst`` and
``autom`` blocks constructs, with the matrix records and helpers they
return or call: :class:`NonnegIntMatrix`, :func:`int_determinant`,
:class:`BasisMap` with :func:`abelianization`, and :class:`Substitution`.
The command line imports it to load a session without compiling the
analysis in :mod:`burntrack.matrices`, :mod:`burntrack.automorphisms` and
:mod:`burntrack.substitutions`.  Those modules import every name here back
and remain the public homes: import from them, not from here.
"""

from __future__ import annotations

import warnings
from typing import Iterable, Mapping, Sequence

from ._records import frozen
from .words import GroupWord, InverseAlphabet, Word, _LetterMap, compose, reduce


class NonnegIntMatrix:
    """Square matrix of nonnegative integers."""

    __slots__ = ("_rows",)

    def __init__(self, rows: Iterable[Iterable[int]]):
        rws = tuple(tuple(int(x) for x in row) for row in rows)
        n = len(rws)
        if n == 0:
            raise ValueError("matrix must be nonempty")
        for row in rws:
            if len(row) != n:
                raise ValueError(f"matrix must be square, got row of length {len(row)} in size {n}")
            for x in row:
                if x < 0:
                    raise ValueError(f"entries must be nonnegative, got {x}")
        self._rows = rws

    @classmethod
    def identity(cls, n: int) -> "NonnegIntMatrix":
        return cls(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @property
    def size(self) -> int:
        return len(self._rows)

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        return self._rows

    def entry(self, i: int, j: int) -> int:
        return self._rows[i][j]

    @property
    def is_zero(self) -> bool:
        return all(x == 0 for row in self._rows for x in row)

    def __add__(self, other: "NonnegIntMatrix") -> "NonnegIntMatrix":
        if not isinstance(other, NonnegIntMatrix):
            return NotImplemented
        if self.size != other.size:
            raise ValueError("size mismatch")
        return NonnegIntMatrix(
            tuple(
                tuple(a + b for a, b in zip(ra, rb))
                for ra, rb in zip(self._rows, other._rows)
            )
        )

    def __mul__(self, other: "NonnegIntMatrix") -> "NonnegIntMatrix":
        if not isinstance(other, NonnegIntMatrix):
            return NotImplemented
        if self.size != other.size:
            raise ValueError("size mismatch")
        cols = tuple(zip(*other._rows))
        return NonnegIntMatrix(
            tuple(
                tuple(sum(a * b for a, b in zip(row, col)) for col in cols)
                for row in self._rows
            )
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NonnegIntMatrix):
            return NotImplemented
        return self._rows == other._rows

    def __hash__(self) -> int:
        return hash(self._rows)

    def __str__(self) -> str:
        return "\n".join(" ".join(str(x) for x in row) for row in self._rows)

    def __repr__(self) -> str:
        return f"NonnegIntMatrix({[list(r) for r in self._rows]!r})"


def _pair_count_matrix(table: Sequence[Sequence[int]], pairs: Sequence[int]) -> NonnegIntMatrix:
    """Entry (i, j): occurrences of pair ``pairs[i]``, either way round, in
    the image of pair ``pairs[j]``.

    ``table[x]`` is the image of letter x as letter indices; letters 2q and
    2q + 1 are the two directions of pair q, and the table is equivariant
    under that flip, so ``table[2 * p]`` stands for pair p.  Pairs not in
    ``pairs`` are not counted.
    """
    where = {q: n for n, q in enumerate(pairs)}
    cols = []
    for p in pairs:
        counts = [0] * len(pairs)
        for i in table[2 * p]:
            n = where.get(i >> 1)
            if n is not None:
                counts[n] += 1
        cols.append(counts)
    return NonnegIntMatrix(zip(*cols))


def int_determinant(rows: Sequence[Sequence[int]]) -> int:
    """Exact integer determinant (fraction-free Bareiss elimination)."""
    n = len(rows)
    if n == 0:
        raise ValueError("empty matrix")
    a = [list(map(int, row)) for row in rows]
    for row in a:
        if len(row) != n:
            raise ValueError("matrix must be square")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


class BasisMap(_LetterMap):
    """Homomorphism of the free group on an :class:`InverseAlphabet`.

    ``images`` maps each positive letter name to a word (or token string);
    images are freely reduced on construction.  An image may reduce to the
    empty word, so general endomorphisms are representable; whether the map
    is invertible is a separate question (:func:`verify_automorphism`).
    """

    __slots__ = ()

    def __init__(self, alphabet: InverseAlphabet, images: Mapping[str, Word | str]):
        if not alphabet.has_inverses:
            raise ValueError("BasisMap needs an InverseAlphabet")
        super().__init__(alphabet, images)

    def _image_indices(self, name: str, image: Word | str) -> tuple[int, ...]:
        return reduce(self._word(name, image)).indices

    @classmethod
    def identity(cls, alphabet: InverseAlphabet) -> "BasisMap":
        return cls(alphabet, {x: Word(alphabet, [x]) for x in alphabet.positive_letters})

    def image(self, name: str) -> GroupWord:
        return GroupWord.from_indices(self._alphabet, self._table[self._alphabet.index(name)])

    def apply(self, word: Word) -> GroupWord:
        """Image of a word, freely reduced (single fused pass).

        Raises :class:`GrowthCapExceeded` before building anything when the
        image before cancellation would be longer than the letter cap.
        """
        alph = word._alphabet
        if alph is not self._alphabet and alph != self._alphabet:
            raise ValueError("word is over a different alphabet")
        return GroupWord._trusted(self._alphabet, self._tight_image(word._seq))

    __call__ = apply

    def power(self, p: int) -> "BasisMap":
        """p-fold composition with itself, by repeated squaring."""
        if p < 0:
            raise ValueError("power must be >= 0; invert explicitly first")
        result = BasisMap.identity(self._alphabet)
        base = self
        while p:
            if p & 1:
                result = compose(result, base)
            p >>= 1
            if p:
                base = compose(base, base)
        return result


@frozen
class AbelianizationMatrix:
    """Signed letter counts of the images, with the exact determinant.

    rows[i][j] is the exponent sum of letter i in the image of letter j
    (positive letters in alphabet order).  Determinant +-1 is necessary for
    invertibility; anything else warns at construction time.
    """

    rows: tuple[tuple[int, ...], ...]
    det: int

    def trace_of_square(self) -> int:
        n = len(self.rows)
        return sum(
            self.rows[i][j] * self.rows[j][i] for i in range(n) for j in range(n)
        )


def abelianization(f: BasisMap) -> AbelianizationMatrix:
    """Image of the map in the integer matrix group, computed exactly."""
    r = f.alphabet.rank
    m = _signed_counts(f._table, [(2 * p,) for p in range(r)], range(r))
    if abs(m.det) != 1:
        warnings.warn(
            f"abelianized determinant is {m.det}, so this map is not invertible",
            stacklevel=2,
        )
    return m


def _signed_counts(
    table: Sequence[Sequence[int]], loops: Iterable[Sequence[int]], basis: Iterable[int]
) -> AbelianizationMatrix:
    """Entry (i, j): exponent sum of pair ``basis[i]`` in the images of the letters of ``loops[j]``.

    :func:`abelianization` takes one-letter loops and every pair,
    ``StratifiedGraphMap.h1_matrix`` tree cycles and the pairs off the
    tree.  No loops give no rows, with determinant 1.
    """
    where = {q: n for n, q in enumerate(basis)}
    cols = []
    for loop in loops:
        counts = [0] * len(where)
        for i in loop:
            for j in table[i]:
                n = where.get(j >> 1)
                if n is not None:
                    counts[n] += -1 if j & 1 else 1
        cols.append(counts)
    rows = tuple(zip(*cols))
    return AbelianizationMatrix(rows=rows, det=int_determinant(rows) if rows else 1)


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
        :mod:`burntrack.limits`.  ``orbit`` is read from
        :mod:`burntrack.substitutions` at each call, where a patch of it
        is seen.
        """
        from .substitutions import orbit

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
