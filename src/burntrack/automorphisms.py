"""Endomorphisms of a free group given on a basis, and their growth.

A :class:`BasisMap` stores one freely reduced image per positive basis
letter and acts on arbitrary words homomorphically (images of inverse
letters are flips; the letter images go through the one tightening stack
of :mod:`burntrack.words`, which cancels on the fly).  On top of that
sit the integer invariants: the abelianized matrix with its determinant
(:func:`abelianization`), the exact exponential/polynomial dichotomy in
rank two (:func:`growth_rank2`), a numerical growth-rate probe for any
rank (:func:`growth_rate_estimate`), and the bound on orders induced on
finite exponent quotients by polynomially growing maps
(:func:`polynomial_order_bound`).
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass
from typing import Mapping

from .limits import check_letters, letter_cap
from .matrices import int_determinant
from .words import GroupWord, InverseAlphabet, Word, _image_length, _tighten, reduce

__all__ = [
    "BasisMap",
    "compose",
    "verify_automorphism",
    "AbelianizationMatrix",
    "abelianization",
    "Growth",
    "growth_rank2",
    "GrowthEstimate",
    "growth_rate_estimate",
    "polynomial_order_bound",
]


class BasisMap:
    """Homomorphism of the free group on an :class:`InverseAlphabet`.

    ``images`` maps each positive letter name to a word (or token string);
    images are freely reduced on construction.  An image may reduce to the
    empty word, so general endomorphisms are representable; whether the map
    is invertible is a separate question (:func:`verify_automorphism`).
    """

    __slots__ = ("_alphabet", "_table", "_longest")

    def __init__(self, alphabet: InverseAlphabet, images: Mapping[str, Word | str]):
        if not alphabet.has_inverses:
            raise ValueError("BasisMap needs an InverseAlphabet")
        needed = alphabet.positive_letters
        extra = set(images) - set(needed)
        if extra:
            raise ValueError(f"images must be keyed by positive letters; got {sorted(extra)!r}")
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
            seq = reduce(img).indices
            i = alphabet.index(name)
            table[i] = seq
            table[i ^ 1] = tuple(k ^ 1 for k in reversed(seq))
        self._alphabet = alphabet
        self._table = tuple(table)
        self._longest = max(map(len, table), default=0)

    @classmethod
    def identity(cls, alphabet: InverseAlphabet) -> "BasisMap":
        return cls(alphabet, {x: Word(alphabet, [x]) for x in alphabet.positive_letters})

    @property
    def alphabet(self) -> InverseAlphabet:
        return self._alphabet

    def image(self, name: str) -> GroupWord:
        return GroupWord.from_indices(self._alphabet, self._table[self._alphabet.index(name)])

    def letter_image(self, i: int) -> tuple[int, ...]:
        return self._table[i]

    def apply(self, word: Word) -> GroupWord:
        """Image of a word, freely reduced (single fused pass).

        Raises :class:`GrowthCapExceeded` before building anything when the
        image before cancellation would be longer than the letter cap.  The
        exact length is only summed when the longest letter image times the
        word length could exceed the cap.
        """
        if word.alphabet != self._alphabet:
            raise ValueError("word is over a different alphabet")
        table = self._table
        if len(word) * self._longest > letter_cap():
            check_letters(_image_length(table, word.indices))
        return GroupWord._trusted(self._alphabet, _tighten([table[i] for i in word.indices]))

    __call__ = apply

    def is_identity(self) -> bool:
        return all(self._table[i] == (i,) for i in range(len(self._alphabet.letters)))

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

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BasisMap):
            return NotImplemented
        return self._alphabet == other._alphabet and self._table == other._table

    def __hash__(self) -> int:
        return hash((self._alphabet, self._table))

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{x} -> {self.image(x)}" for x in self._alphabet.positive_letters
        )
        return f"BasisMap({parts})"


def compose(outer: BasisMap, inner: BasisMap) -> BasisMap:
    """The map sending x to outer(inner(x))."""
    if outer.alphabet != inner.alphabet:
        raise ValueError("can only compose maps over the same alphabet")
    alph = outer.alphabet
    images = {}
    total = 0
    for name in alph.positive_letters:
        src = inner.image(name)
        total += _image_length(outer._table, src.indices)
        check_letters(total)
        images[name] = outer.apply(src)
    return BasisMap(alph, images)


def verify_automorphism(f: BasisMap, inverse: BasisMap) -> bool:
    """Check that ``inverse`` really undoes ``f`` on every basis letter.

    Both composition orders are checked, which makes the pair a unit in the
    endomorphism monoid, so each map is an automorphism.
    """
    if f.alphabet != inverse.alphabet:
        return False
    alph = f.alphabet
    for name in alph.positive_letters:
        x = GroupWord(alph, [name])
        if inverse.apply(f.image(name)) != x or f.apply(inverse.image(name)) != x:
            return False
    return True


@dataclass(frozen=True)
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
    alph = f.alphabet
    r = alph.rank
    cols = []
    for p in range(r):
        counts = [0] * r
        for i in f.letter_image(2 * p):
            counts[i >> 1] += 1 if (i & 1) == 0 else -1
        cols.append(counts)
    rows = tuple(zip(*cols))
    det = int_determinant(rows)
    if abs(det) != 1:
        warnings.warn(
            f"abelianized determinant is {det}, so this map is not invertible",
            stacklevel=2,
        )
    return AbelianizationMatrix(rows=rows, det=det)


class Growth(enum.Enum):
    EXPONENTIAL = "exponential"
    POLYNOMIAL = "polynomial"

    def __str__(self) -> str:  # CLI-friendly
        return self.value


def growth_rank2(f: BasisMap) -> Growth:
    """Exact growth dichotomy for automorphisms of the rank-two free group.

    In rank two the growth of an automorphism is read off its abelianized
    matrix M: it is exponential exactly when |trace(M^2)| > 2, since M^2
    has determinant one and escapes the finite-or-parabolic range precisely
    then.  The premise is invertibility; for a non-invertible map the
    answer refers to the abelianized dynamics only.
    """
    if f.alphabet.rank != 2:
        raise ValueError("this criterion is specific to rank two")
    t = abelianization(f).trace_of_square()
    return Growth.EXPONENTIAL if abs(t) > 2 else Growth.POLYNOMIAL


@dataclass(frozen=True)
class GrowthEstimate:
    """Last length ratio along iterated images of the whole basis.

    ``lengths[p]`` is the total reduced image length of all positive basis
    letters under the p-th iterate; ``estimate`` is the final consecutive
    ratio, which tends to the growth rate in the exponential case and to 1
    in the polynomial case.
    """

    estimate: float
    lengths: tuple[int, ...]


def growth_rate_estimate(f: BasisMap, depth: int = 12) -> GrowthEstimate:
    """Iterate on the basis and report successive total-length growth."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    alph = f.alphabet
    current = [GroupWord(alph, [x]) for x in alph.positive_letters]
    lengths = [sum(len(w) for w in current)]
    for _ in range(depth):
        check_letters(sum(_image_length(f._table, w.indices) for w in current))
        current = [f.apply(w) for w in current]
        lengths.append(sum(len(w) for w in current))
    prev, last = lengths[-2], lengths[-1]
    estimate = last / prev if prev else 0.0
    return GrowthEstimate(estimate=estimate, lengths=tuple(lengths))


def polynomial_order_bound(rank: int, exponent: int) -> int:
    """The value n^(2(2^(r-1)-1)) for rank r and exponent n.

    For a polynomially growing automorphism of the rank-r free group whose
    abelianized matrix is unipotent, the permutation induced on the
    exponent-n quotient has order dividing this number.  The unipotence
    premise matters: a finite-order map also grows polynomially, yet a
    plain basis swap already induces an order-2 permutation, which does not
    divide the bound for r = 2, n = 3.
    """
    if rank < 1 or exponent < 2:
        raise ValueError("need rank >= 1 and exponent >= 2")
    return exponent ** (2 * (2 ** (rank - 1) - 1))
