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

Everything here is immutable and pure.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable, Sequence

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
