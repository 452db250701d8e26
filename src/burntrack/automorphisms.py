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

:class:`BasisMap`, :class:`AbelianizationMatrix` and :func:`abelianization`
are defined in :mod:`burntrack._maps`, which loading a session's ``autom``
blocks needs, and imported here, where they keep their public home.  The
growth analysis stays here because ``bench/tracing.py`` patches
``growth_rate_estimate`` in this module's namespace.
"""

from __future__ import annotations

import enum

from ._maps import AbelianizationMatrix, BasisMap, NonnegIntMatrix, _pair_count_matrix, abelianization
from ._records import frozen
from .limits import check_letters
from .matrices import has_permutation_blocks
from .words import GroupWord, _image_length, compose, cyclic_reduce

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
