"""Integer matrix layer: structure tests and Perron root extraction."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from burntrack.matrices import (
    NonnegIntMatrix,
    PFResult,
    PowerIterationError,
    has_permutation_blocks,
    int_determinant,
    is_irreducible,
    is_primitive,
    is_transitive_permutation,
    pf_eigenvalue,
    pf_eigenvalue_via_shift,
)

from .oracles import (
    _boolean_product,
    irreducible_bruteforce,
    primitive_bruteforce,
    spectral_radius_above_one_bruteforce,
    transitive_permutation_bruteforce,
)

FIB = NonnegIntMatrix([[1, 1], [1, 0]])
SWAP = NonnegIntMatrix([[0, 1], [1, 0]])
CYCLE3 = NonnegIntMatrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
# cycle plus one chord: primitive, but positivity needs the full Wielandt bound
WIELANDT3 = NonnegIntMatrix([[0, 1, 0], [0, 0, 1], [1, 1, 0]])

GOLDEN = (1 + math.sqrt(5)) / 2


class TestMatrixArithmetic:
    def test_construction_guards(self):
        with pytest.raises(ValueError):
            NonnegIntMatrix([])
        with pytest.raises(ValueError):
            NonnegIntMatrix([[1, 2]])
        with pytest.raises(ValueError):
            NonnegIntMatrix([[1, -1], [0, 1]])

    def test_basic_ops(self):
        assert (FIB * FIB).rows == ((2, 1), (1, 1))
        assert (FIB + SWAP).rows == ((1, 2), (2, 0))
        assert FIB.entry(0, 1) == 1
        assert NonnegIntMatrix([[0, 0], [0, 0]]).is_zero and not FIB.is_zero
        assert str(FIB) == "1 1\n1 0"

    def test_equality_and_hash(self):
        assert FIB == NonnegIntMatrix([[1, 1], [1, 0]])
        assert hash(FIB) == hash(NonnegIntMatrix([[1, 1], [1, 0]]))
        assert FIB != SWAP


class TestStructure:
    def test_irreducible(self):
        assert is_irreducible(FIB)
        assert is_irreducible(SWAP)
        assert is_irreducible(CYCLE3)
        assert not is_irreducible(NonnegIntMatrix.identity(2))
        assert not is_irreducible(NonnegIntMatrix([[1, 1], [0, 1]]))
        # single vertex: loop required
        assert is_irreducible(NonnegIntMatrix([[1]]))
        assert not is_irreducible(NonnegIntMatrix([[0]]))

    def test_primitive(self):
        assert is_primitive(FIB)
        assert not is_primitive(SWAP)
        assert not is_primitive(CYCLE3)
        assert is_primitive(WIELANDT3)
        assert is_primitive(NonnegIntMatrix([[1]]))
        assert not is_primitive(NonnegIntMatrix([[0]]))

    def test_wielandt_bound_is_sharp_here(self):
        # (M^4 still has zeros, M^5 is positive) pins the exponent logic
        power = WIELANDT3.rows
        for _ in range(3):
            power = _boolean_product(power, WIELANDT3.rows)
        assert any(x == 0 for row in power for x in row)
        power = _boolean_product(power, WIELANDT3.rows)
        assert all(x > 0 for row in power for x in row)

    def test_transitive_permutation(self):
        assert is_transitive_permutation(SWAP)
        assert is_transitive_permutation(CYCLE3)
        assert is_transitive_permutation(NonnegIntMatrix([[1]]))
        assert not is_transitive_permutation(NonnegIntMatrix.identity(2))
        assert not is_transitive_permutation(FIB)
        assert not is_transitive_permutation(NonnegIntMatrix([[0, 2], [1, 0]]))


def assert_structure_matches_oracles(rows):
    m = NonnegIntMatrix(rows)
    assert is_irreducible(m) == irreducible_bruteforce(rows)
    assert is_primitive(m) == primitive_bruteforce(rows)
    assert is_transitive_permutation(m) == transitive_permutation_bruteforce(rows)
    if len(rows) <= 3:
        assert has_permutation_blocks(m) == (not spectral_radius_above_one_bruteforce(rows))


class TestStructureOracles:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_every_zero_one_matrix(self, n):
        for flat in itertools.product((0, 1), repeat=n * n):
            assert_structure_matches_oracles([list(flat[i * n : (i + 1) * n]) for i in range(n)])

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 6).flatmap(
        lambda n: st.lists(st.lists(st.integers(0, 2), min_size=n, max_size=n), min_size=n, max_size=n)
    ))
    def test_random_matrices(self, rows):
        assert_structure_matches_oracles(rows)

    # random matrices are rarely permutations, so also change up to two
    # entries of a drawn permutation matrix
    @settings(max_examples=300, deadline=None)
    @given(
        st.permutations(range(6)),
        st.integers(1, 6),
        st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 2)), max_size=2),
    )
    def test_near_permutations(self, perm, n, changes):
        image = [p for p in perm if p < n]
        rows = [[1 if image[i] == j else 0 for j in range(n)] for i in range(n)]
        for i, j, x in changes:
            rows[i % n][j % n] = x
        assert_structure_matches_oracles(rows)


class TestPermutationBlocks:
    def test_examples(self):
        assert has_permutation_blocks(SWAP) and has_permutation_blocks(CYCLE3)
        assert has_permutation_blocks(NonnegIntMatrix([[0] * 3] * 3))
        # unipotent, triangular: every block is a 1 on the diagonal
        assert has_permutation_blocks(NonnegIntMatrix([[1, 1, 0], [0, 1, 1], [0, 0, 1]]))
        # nilpotent with a weight 2 between blocks: still polynomial
        assert has_permutation_blocks(NonnegIntMatrix([[0, 2], [0, 0]]))
        assert not has_permutation_blocks(FIB)
        assert not has_permutation_blocks(NonnegIntMatrix([[2]]))
        # a 2-cycle with a chord is one block with a row sum of 2
        assert not has_permutation_blocks(NonnegIntMatrix([[1, 1], [1, 0]]))
        assert not has_permutation_blocks(NonnegIntMatrix([[1, 0, 0], [5, 0, 1], [0, 1, 1]]))

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 3).flatmap(
        lambda n: st.lists(st.lists(st.integers(0, 2), min_size=n, max_size=n), min_size=n, max_size=n)
    ))
    def test_matches_growth_of_powers(self, rows):
        expected = not spectral_radius_above_one_bruteforce(rows)
        assert has_permutation_blocks(NonnegIntMatrix(rows)) == expected


class TestPerron:
    def test_fibonacci_root(self):
        res = pf_eigenvalue(FIB, tol=1e-12)
        assert abs(res.eigenvalue - GOLDEN) < 1e-9
        assert res.residual < 1e-12
        assert abs(sum(res.eigenvector) - 1.0) < 1e-12
        assert all(x > 0 for x in res.eigenvector)

    def test_exact_integer_root(self):
        m = NonnegIntMatrix([[1, 0, 1], [1, 0, 1], [0, 1, 1]])
        res = pf_eigenvalue(m, tol=1e-11)
        assert abs(res.eigenvalue - 2.0) < 1e-9

    def test_silver_root(self):
        res = pf_eigenvalue(NonnegIntMatrix([[2, 1], [1, 0]]), tol=1e-12)
        assert abs(res.eigenvalue - (1 + math.sqrt(2))) < 1e-9

    def test_deterministic(self):
        a = pf_eigenvalue(FIB)
        b = pf_eigenvalue(FIB)
        assert a == b

    def test_imprimitive_raises_with_diagnostics(self):
        # period-2 spectrum makes the iterates oscillate forever (the plain
        # swap matrix is excluded: there the uniform start vector happens to
        # be the exact eigenvector already)
        skew = NonnegIntMatrix([[0, 2], [1, 0]])
        with pytest.raises(PowerIterationError) as exc:
            pf_eigenvalue(skew, tol=1e-10, max_iterations=500)
        last = exc.value.last
        assert isinstance(last, PFResult)
        assert last.iterations == 500

    def test_reducible_rejected(self):
        with pytest.raises(ValueError):
            pf_eigenvalue(NonnegIntMatrix.identity(2))
        with pytest.raises(ValueError):
            pf_eigenvalue_via_shift(NonnegIntMatrix.identity(2))

    @pytest.mark.parametrize("pf", [pf_eigenvalue, pf_eigenvalue_via_shift])
    def test_tolerance_must_be_positive(self, pf):
        with pytest.raises(ValueError, match="tol must be positive"):
            pf(FIB, tol=0)

    def test_shift_handles_imprimitive(self):
        res = pf_eigenvalue_via_shift(SWAP, tol=1e-12)
        assert abs(res.eigenvalue - 1.0) < 1e-9
        res = pf_eigenvalue_via_shift(CYCLE3, tol=1e-12)
        assert abs(res.eigenvalue - 1.0) < 1e-9
        res = pf_eigenvalue_via_shift(NonnegIntMatrix([[0, 2], [1, 0]]), tol=1e-12)
        assert abs(res.eigenvalue - math.sqrt(2)) < 1e-9

    def test_shift_agrees_on_primitive(self):
        a = pf_eigenvalue(FIB, tol=1e-12)
        b = pf_eigenvalue_via_shift(FIB, tol=1e-12)
        assert abs(a.eigenvalue - b.eigenvalue) < 1e-9

    def test_random_irreducible_dichotomy(self):
        # an irreducible integer matrix has Perron root 1 exactly when it is
        # a transitive permutation; anything else sits well above 1
        rng = random.Random(99)
        seen_nonperm = 0
        while seen_nonperm < 25:
            n = rng.randrange(2, 5)
            m = NonnegIntMatrix(
                [[rng.choice((0, 0, 1, 2)) for _ in range(n)] for _ in range(n)]
            )
            if not is_irreducible(m):
                continue
            res = pf_eigenvalue_via_shift(m, tol=1e-10)
            if is_transitive_permutation(m):
                assert abs(res.eigenvalue - 1.0) < 1e-8
            else:
                assert res.eigenvalue > 1.05
                seen_nonperm += 1


class TestDeterminant:
    def test_golden(self):
        assert int_determinant([[1, 1], [1, 0]]) == -1
        assert int_determinant([[2, 1], [1, 1]]) == 1
        assert int_determinant([[1, 2], [2, 4]]) == 0
        assert int_determinant([[2, 0, 1], [1, 1, 0], [0, 3, 1]]) == 5
        assert int_determinant([[-2, 1], [1, -1]]) == 1
        assert int_determinant([[5]]) == 5

    def test_guards(self):
        with pytest.raises(ValueError):
            int_determinant([])
        with pytest.raises(ValueError):
            int_determinant([[1, 2], [3]])

    def test_pivot_swap_path(self):
        # leading zero forces the row exchange branch
        assert int_determinant([[0, 1], [1, 0]]) == -1
        assert int_determinant([[0, 2, 1], [1, 0, 0], [0, 1, 1]]) == -1

    @given(
        st.lists(
            st.lists(st.integers(-4, 4), min_size=3, max_size=3),
            min_size=3,
            max_size=3,
        )
    )
    @settings(max_examples=80)
    def test_matches_cofactor_expansion(self, rows):
        a = rows

        def det3(m):
            return (
                m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
                - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
                + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
            )

        assert int_determinant(a) == det3(a)
