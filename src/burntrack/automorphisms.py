"""Endomorphisms of a free group given on a basis, and their growth.

A :class:`BasisMap` stores one freely reduced image per positive basis
letter and acts on arbitrary words homomorphically (images of inverse
letters are flips; the letter images go through the one tightening stack
of :mod:`burntrack.words`, which cancels on the fly).  On top of that
sit the integer invariants: the abelianized matrix with its determinant
(:func:`abelianization`), the exact exponential/polynomial dichotomy in
rank two (:func:`growth_rank2`), a sound certificate of polynomial growth
for any rank (:func:`certifies_polynomial_growth`), the one growth decision
that picks between them (:func:`decide_growth`), a numerical growth-rate
probe for any rank (:func:`growth_rate_estimate`), and the bound on orders
induced on finite exponent quotients by polynomially growing maps
(:func:`polynomial_order_bound`).
"""

from __future__ import annotations

import enum
import warnings
from typing import Iterable, Mapping, Sequence

from ._records import frozen
from .limits import check_letters
from .matrices import NonnegIntMatrix, _pair_count_matrix, has_permutation_blocks, int_determinant
from .words import GroupWord, InverseAlphabet, Word, _image_length, _LetterMap, compose, cyclic_reduce, reduce

__all__ = [
    "BasisMap",
    "compose",
    "verify_automorphism",
    "AbelianizationMatrix",
    "abelianization",
    "Growth",
    "growth_rank2",
    "letter_count_matrix",
    "certifies_polynomial_growth",
    "decide_growth",
    "GrowthEstimate",
    "growth_rate_estimate",
    "polynomial_order_bound",
]


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


def letter_count_matrix(f: BasisMap) -> NonnegIntMatrix:
    """Entry (i, j): occurrences of basis letter i, either way round, in the image of letter j."""
    return _pair_count_matrix(f._table, range(f.alphabet.rank))


def certifies_polynomial_growth(f: BasisMap) -> bool:
    """Sound test for polynomial growth, in any rank.

    Cancellation only removes letters, so the letter counts of the reduced
    word f^p(x) are at most the column of M^p for x, where M is
    :func:`letter_count_matrix`.  When every strongly connected block of M
    is a permutation matrix or zero (:func:`has_permutation_blocks`), M has
    spectral radius at most 1, the entries of M^p grow polynomially in p,
    and so does every reduced image length.  False decides nothing:
    cancellation can keep a map polynomial while its letter counts grow
    exponentially.
    """
    return has_permutation_blocks(letter_count_matrix(f))


# the rotations of a b a^-1 b^-1 and of its inverse b a b^-1 a^-1, as letter indices
_COMMUTATORS = frozenset(w[k:] + w[:k] for w in ((0, 2, 1, 3), (2, 0, 3, 1)) for k in range(4))


def decide_growth(f: BasisMap) -> tuple[Growth, str] | None:
    """Growth of f with the name of the certificate that proves it, or None.

    In rank two, f is an automorphism exactly when the image of the
    commutator a b a^-1 b^-1 is conjugate to it or to its inverse (Nielsen,
    Math. Ann. 78, 1917); then :func:`growth_rank2` decides, as the
    ``"trace criterion"``.  Otherwise, in any rank, a map that passes
    :func:`certifies_polynomial_growth` (sound for every endomorphism) is
    polynomial by ``"letter-count blocks"``.  None decides nothing.
    """
    if f.alphabet.rank == 2:
        image = GroupWord._trusted(f.alphabet, f._tight_image((0, 2, 1, 3)))
        if cyclic_reduce(image)[0].indices in _COMMUTATORS:
            return growth_rank2(f), "trace criterion"
    if certifies_polynomial_growth(f):
        return Growth.POLYNOMIAL, "letter-count blocks"
    return None


@frozen
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
