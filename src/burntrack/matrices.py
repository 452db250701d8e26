"""Nonnegative integer matrices: irreducibility, primitivity, Perron root.

Entries are exact Python integers of arbitrary size.  Structure tests are
exact and each runs one transitive closure (``_reach``); primitivity adds
a period of 1, which ``_period`` reads from one breadth-first search.  Only
the Perron eigenvalue is numeric, by power iteration with an explicit
residual; ``_perron`` picks plain or shifted iteration by the period, so it
runs no closure of its own.  The equality
"dominant eigenvalue is exactly 1" is never decided in floating point: for
an irreducible integer matrix it holds precisely when the matrix is a
transitive permutation matrix, and that is what callers should test.

:class:`NonnegIntMatrix` and :func:`int_determinant` are defined in
:mod:`burntrack._maps`, next to the letter maps whose matrices they are,
and imported here, where they keep their public home; loading a session
builds and checks maps without compiling this module.  The Perron
routines stay here because ``bench/tracing.py`` patches
``pf_eigenvalue`` and ``pf_eigenvalue_via_shift`` in this module's
namespace.

Everything here is immutable and pure.
"""

from __future__ import annotations

from math import gcd
from typing import Sequence

from ._maps import NonnegIntMatrix, int_determinant
from ._records import frozen

__all__ = [
    "NonnegIntMatrix",
    "PFResult",
    "PowerIterationError",
    "is_irreducible",
    "is_primitive",
    "pf_eigenvalue",
    "pf_eigenvalue_via_shift",
    "is_transitive_permutation",
    "has_permutation_blocks",
    "int_determinant",
]


def _reach(matrix: NonnegIntMatrix) -> list[int]:
    """Row i as a bitmask of the indices that i reaches by a path of length >= 1.

    Warshall's transitive closure of the digraph with an edge i -> j when
    entry (i, j) is positive, on row bitmasks.
    """
    reach = [sum(1 << j for j, x in enumerate(row) if x) for row in matrix.rows]
    for k in range(len(reach)):
        bit, through = 1 << k, reach[k]
        reach = [bits | through if bits & bit else bits for bits in reach]
    return reach


def is_irreducible(matrix: NonnegIntMatrix) -> bool:
    """True when every index reaches every index by a path of length >= 1.

    This is strong connectivity of the digraph with an edge i -> j when
    entry (i, j) is positive.  For size 1 the single vertex needs a loop, so
    the 1x1 zero matrix is not irreducible (the usual convention for
    substitution and stratum matrices, where the zero stratum is a separate
    case).
    """
    full = (1 << matrix.size) - 1
    return all(bits == full for bits in _reach(matrix))


def _period(matrix: NonnegIntMatrix) -> int:
    """Period of an irreducible matrix: the gcd of its cycle lengths.

    With levels from one breadth-first search from index 0, it is the gcd
    of level(i) + 1 - level(j) over the positive entries (i, j).  The
    caller has established irreducibility; this runs no closure.
    """
    rows = matrix.rows
    level = [-1] * matrix.size
    level[0] = 0
    queue = [0]
    for i in queue:
        for j, x in enumerate(rows[i]):
            if x and level[j] < 0:
                level[j] = level[i] + 1
                queue.append(j)
    period = 0
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            if x:
                period = gcd(period, level[i] + 1 - level[j])
    return period


def is_primitive(matrix: NonnegIntMatrix) -> bool:
    """True when some power of the matrix is entrywise positive: an
    irreducible matrix is primitive exactly when its period is 1."""
    return is_irreducible(matrix) and _period(matrix) == 1


def is_transitive_permutation(matrix: NonnegIntMatrix) -> bool:
    """True for a permutation matrix whose permutation is a single cycle.

    Every row summing to 1 makes the digraph a map of the indices to
    themselves, and an irreducible one is a single cycle.
    """
    return all(sum(row) == 1 for row in matrix.rows) and is_irreducible(matrix)


def has_permutation_blocks(matrix: NonnegIntMatrix) -> bool:
    """True when every strongly connected block is a permutation matrix or zero.

    These are exactly the nonnegative integer matrices whose spectral
    radius is at most 1, the ones whose powers grow at most polynomially:
    an irreducible block with a row sum above 1 inside it has spectral
    radius above 1.  Index j is in the block of i when each reaches the
    other in the transitive closure; the test is that no row puts more
    than 1 into its own block.
    """
    reach = _reach(matrix)
    return all(
        sum(x for j, x in enumerate(row) if reach[i] >> j & 1 and reach[j] >> i & 1) <= 1
        for i, row in enumerate(matrix.rows)
    )


@frozen
class PFResult:
    """Perron eigenvalue estimate with its residual certificate.

    ``residual`` is the max-norm of M v - lambda v for the returned
    eigenvector v (normalized to unit coordinate sum).
    """

    eigenvalue: float
    eigenvector: tuple[float, ...]
    residual: float
    iterations: int


class PowerIterationError(RuntimeError):
    """Power iteration failed to reach the residual tolerance.

    Happens for irreducible but imprimitive matrices, whose peripheral
    spectrum makes the iteration oscillate; :func:`pf_eigenvalue_via_shift`
    converges there.  The package's own callers go through ``_perron``,
    which picks the shift exactly when the matrix is not primitive.  The
    last iterate is attached for diagnosis.
    """

    def __init__(self, message: str, last: PFResult):
        super().__init__(message)
        self.last = last


def _power_iteration(rows: Sequence[Sequence[int]], tol: float, max_iterations: int) -> PFResult:
    n = len(rows)
    v = [1.0 / n] * n
    lam = 0.0
    resid = float("inf")
    for it in range(1, max_iterations + 1):
        u = [sum(row[j] * v[j] for j in range(n)) for row in rows]
        lam = sum(u)  # v has unit coordinate sum
        resid = max(abs(u[i] - lam * v[i]) for i in range(n))
        if resid < tol:
            return PFResult(lam, tuple(v), resid, it)
        v = [x / lam for x in u]
    raise PowerIterationError(
        f"no convergence to residual {tol} within {max_iterations} iterations "
        f"(last residual {resid:.3e}); the matrix may be imprimitive",
        PFResult(lam, tuple(v), resid, max_iterations),
    )


def pf_eigenvalue(matrix: NonnegIntMatrix, tol: float = 1e-10, max_iterations: int = 100_000) -> PFResult:
    """Perron eigenvalue and positive eigenvector by plain power iteration.

    Requires an irreducible matrix.  Deterministic: the start vector is the
    all-ones vector (normalized), so repeated calls agree bit for bit.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if not is_irreducible(matrix):
        raise ValueError("pf_eigenvalue needs an irreducible matrix")
    return _power_iteration(matrix.rows, tol, max_iterations)


def pf_eigenvalue_via_shift(matrix: NonnegIntMatrix, tol: float = 1e-10, max_iterations: int = 100_000) -> PFResult:
    """Perron data computed on I + M, reported for M.

    I + M is primitive whenever M is irreducible, so this converges even for
    imprimitive matrices.  The eigenvector is shared and (I + M) v - mu v
    equals M v - (mu - 1) v, so the residual printed is still the residual
    for M.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if not is_irreducible(matrix):
        raise ValueError("pf_eigenvalue_via_shift needs an irreducible matrix")
    shifted = NonnegIntMatrix.identity(matrix.size) + matrix
    res = _power_iteration(shifted.rows, tol, max_iterations)
    return PFResult(res.eigenvalue - 1.0, res.eigenvector, res.residual, res.iterations)


def _perron(matrix: NonnegIntMatrix) -> PFResult:
    """Perron data of an irreducible matrix: plain power iteration when its
    period is 1, where that converges, and iteration on I + M otherwise."""
    return pf_eigenvalue(matrix) if _period(matrix) == 1 else pf_eigenvalue_via_shift(matrix)
