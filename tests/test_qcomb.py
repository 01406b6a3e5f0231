"""Exact tests for the q-polynomial layer and descent polynomials."""

import itertools
import math
import operator
from fractions import Fraction
from functools import lru_cache

import pytest

from cotype import qcomb as qc
from cotype.errors import CAPS, DomainError, ResourceLimitError


@lru_cache(maxsize=None)
def pascal_qbinom(n: int, k: int) -> qc.IntPolynomial:
    """Independent oracle: [n,k] = [n-1,k] + q^(n-k) [n-1,k-1]."""
    if k < 0 or k > n:
        return qc.ZERO
    if k == 0 or k == n:
        return qc.ONE
    return pascal_qbinom(n - 1, k) + pascal_qbinom(n - 1, k - 1).shifted(n - k)


class TestPolynomialRing:
    def test_normalization_strips_trailing_zeros(self):
        assert qc.IntPolynomial([1, 2, 0, 0]).coeffs == (1, 2)
        assert qc.IntPolynomial([0, 0]).is_zero()

    def test_arithmetic_round_trip(self):
        a = qc.IntPolynomial([1, -3, 2])
        b = qc.IntPolynomial([0, 1, 5])
        assert (a + b) - b == a
        assert a * b == b * a
        assert (a * b).exact_div(b) == a

    def test_divmod_exact_and_inexact(self):
        num = qc.IntPolynomial([-1, 0, 1])  # q^2 - 1
        den = qc.IntPolynomial([1, 1])  # q + 1
        quo, rem = divmod(num, den)
        assert quo == qc.IntPolynomial([-1, 1]) and rem.is_zero()
        with pytest.raises(ArithmeticError):
            qc.IntPolynomial([0, 1]).exact_div(qc.IntPolynomial([0, 2]))
        with pytest.raises(ArithmeticError):
            qc.IntPolynomial([1, 1, 1]).exact_div(den)

    def test_exact_rational_evaluation(self):
        val = qc.q_binomial(4, 2)(Fraction(1, 2))
        assert val == Fraction(35, 16)
        assert qc.q_int(5)(1) == 5

    def test_str_forms(self):
        assert str(qc.ZERO) == "0"
        assert str(qc.q_int(2)) == "1 + q"
        assert str(qc.IntPolynomial([1, 0, -2])) == "1 - 2q^2"
        assert str(qc.IntPolynomial([0, 1, 1])) == "q + q^2"


class TestQBasics:
    def test_q_int_examples(self):
        assert qc.q_int(0).is_zero()
        assert qc.q_int(1) == qc.ONE
        assert qc.q_int(4).coeffs == (1, 1, 1, 1)

    def test_q_factorial_examples(self):
        assert qc.q_factorial(0) == qc.ONE
        assert qc.q_factorial(2).coeffs == (1, 1)
        assert qc.q_factorial(3).coeffs == (1, 2, 2, 1)

    def test_q_binomial_examples(self):
        assert qc.q_binomial(2, 1).coeffs == (1, 1)
        assert qc.q_binomial(4, 2).coeffs == (1, 1, 2, 1, 1)
        assert qc.q_binomial(3, 5).is_zero()
        assert qc.q_binomial(3, -1).is_zero()

    def test_q_binomial_matches_pascal_oracle(self):
        for n in range(13):
            for k in range(-1, n + 2):
                assert qc.q_binomial(n, k) == pascal_qbinom(n, k), (n, k)

    def test_q_binomial_symmetry(self):
        for n in range(13):
            for k in range(n + 1):
                assert qc.q_binomial(n, k) == qc.q_binomial(n, n - k)

    def test_q_binomial_satisfies_q_pascal_to_40(self):
        # [n,k] = [n-1,k-1] + q^k [n-1,k], with [n,0] = [n,n] = 1
        for n in range(41):
            assert qc.q_binomial(n, 0) == qc.q_binomial(n, n) == qc.ONE
            for k in range(1, n):
                assert qc.q_binomial(n, k) == (
                    qc.q_binomial(n - 1, k - 1) + qc.q_binomial(n - 1, k).shifted(k)), (n, k)

    def test_q_multinomial(self):
        assert qc.q_multinomial([7]) == qc.ONE
        assert qc.q_multinomial([1, 1]) == qc.q_binomial(2, 1)
        assert qc.q_multinomial([2, 1, 1]) == qc.q_binomial(4, 2) * qc.q_binomial(2, 1)
        # against the factorial-quotient definition
        for parts in ([2, 2], [3, 1, 2], [1, 1, 1, 1], [0, 2, 1]):
            expected = qc.q_factorial(sum(parts))
            for m in parts:
                expected = expected.exact_div(qc.q_factorial(m))
            assert qc.q_multinomial(parts) == expected

    def test_q_multinomial_validation(self):
        with pytest.raises(DomainError):
            qc.q_multinomial([])
        with pytest.raises(DomainError):
            qc.q_multinomial([2, -1])


class TestDescentSets:
    def test_gaps_sum_to_d(self):
        lam = qc.DescentSet.of(6, [4, 1])
        assert lam.elements == (4, 1)
        assert lam.gaps() == (2, 3, 1)
        assert sum(lam.gaps()) == 6

    def test_validation(self):
        with pytest.raises(DomainError):
            qc.DescentSet(3, (3,))  # d itself cannot be a descent
        with pytest.raises(DomainError):
            qc.DescentSet(3, (0,))
        with pytest.raises(DomainError):
            qc.DescentSet(3, (1, 2))  # must be strictly decreasing

    def test_subset_binomial_examples(self):
        assert qc.q_binom_subset(qc.DescentSet.of(3, [])) == qc.ONE
        assert qc.q_binom_subset(qc.DescentSet.of(2, [1])).coeffs == (1, 1)
        expected = qc.q_int(2) * qc.q_int(3)  # (1+q)(1+q+q^2)
        assert qc.q_binom_subset(qc.DescentSet.of(3, [2, 1])) == expected

    def test_subset_gap_multinomial_allows_top_element(self):
        # a top element d contributes an empty gap and changes nothing
        assert qc.subset_gap_multinomial(4, [4, 2]) == qc.subset_gap_multinomial(4, [2])


class TestPermutationStatistics:
    def test_descents_examples(self):
        assert descset((1, 2, 3)) == ()
        assert descset((2, 1, 3)) == (1,)
        assert descset((3, 2, 1)) == (2, 1)

    def test_inversions_examples(self):
        assert qc.inversions(qc.Permutation((1, 2, 3))) == 0
        assert qc.inversions(qc.Permutation((2, 1, 3))) == 1
        assert qc.inversions(qc.Permutation((3, 2, 1))) == 3

    def test_permutation_validation(self):
        with pytest.raises(DomainError):
            qc.Permutation((1, 1, 3))


def descset(images):
    return qc.descents(qc.Permutation(images)).elements


class TestDescentPolynomials:
    def test_examples(self):
        assert qc.descent_poly_inclusion_exclusion(qc.DescentSet.of(5, [])) == qc.ONE
        assert qc.descent_poly_inclusion_exclusion(qc.DescentSet.of(2, [1])) == qc.Q
        got = qc.descent_poly_inclusion_exclusion(qc.DescentSet.of(3, [1]))
        assert got.coeffs == (0, 1, 1)  # q + q^2

    def test_permutation_method_examples(self):
        # d=3, lambda={1}: exactly 213 (1 inversion) and 312 (2 inversions)
        got = qc.descent_poly_permutations(qc.DescentSet.of(3, [1]))
        assert got.coeffs == (0, 1, 1)
        assert qc.descent_poly_permutations(qc.DescentSet.of(3, [])) == qc.ONE
        # d=3, lambda={2,1}: only 321, with 3 inversions
        got = qc.descent_poly_permutations(qc.DescentSet.of(3, [2, 1]))
        assert got.coeffs == (0, 0, 0, 1)

    def test_determinant_method_examples(self):
        assert qc.descent_poly_determinant(qc.DescentSet.of(4, [])) == qc.ONE
        got = qc.descent_poly_determinant(qc.DescentSet.of(3, [1]))
        assert got.coeffs == (0, 1, 1)

    def test_three_way_agreement_through_d8(self):
        for d in range(1, 9):
            for lam in qc.all_descent_sets(d):
                a = qc.descent_poly_inclusion_exclusion(lam)
                b = qc.descent_poly_permutations(lam)
                c = qc.descent_poly_determinant(lam)
                assert a == b == c, (d, lam.elements)

    def test_mahonian_sum_nonnegative_and_low_exponent_to_the_cap(self):
        # sum over lambda of w(d, lambda) is the inversion generating function
        # of all d! permutations, [d]_q!
        for d in range(1, CAPS["descent_table_dim"] + 1):
            total = qc.ZERO
            for lam in qc.all_descent_sets(d):
                w = qc.descent_poly_inclusion_exclusion(lam)
                assert all(c >= 0 for c in w.coeffs), (d, lam.elements)
                assert w.low_exponent() >= len(lam.elements), (d, lam.elements)
                total = total + w
            assert total == qc.q_factorial(d), d

    def test_packed_digits_hold_every_coefficient_of_the_inversion(self):
        # Redo the table's Moebius inversion at the cap on coefficient lists,
        # from the subset binomials (nonnegative, so read as 16 hex digits
        # each at q = 2^64), and find the widest coefficient at any step.
        d = CAPS["descent_table_dim"]
        width = d * (d - 1) // 2 + 1
        half = 2 ** (qc._PACK_BITS - 1)
        assert 2 ** (d - 1) * math.factorial(d) < half  # the bound the code states
        tables = [[1]]
        for k in range(2, d + 1):
            binoms = [qc.q_binomial(k, j)(2**64) for j in range(1, k)]
            tables.append([1] + [b * v for b, t in zip(binoms, tables) for v in t])
        hexes = [format(v, f"0{16 * width}x") for v in tables[-1]]
        rows = [[int(h[t - 16:t], 16) for t in range(len(h), 0, -16)] for h in hexes]
        mask = 2 ** (d - 2) + 5  # bit i - 1 marks i
        assert qc.IntPolynomial(rows[mask]) == qc.subset_gap_multinomial(d, [1, 3, d - 1])
        widest = 0
        for i in range(d - 1):
            bit = 1 << i
            for mask in range(1 << (d - 1)):
                if mask & bit:
                    rows[mask] = row = list(map(operator.sub, rows[mask], rows[mask ^ bit]))
                    widest = max(widest, max(row), -min(row))
        assert widest == 1_868_939_026 < half

    def test_partition_of_symmetric_group(self):
        import math

        for d in range(1, 7):
            total = sum(
                qc.descent_poly_permutations(lam)(1) for lam in qc.all_descent_sets(d)
            )
            assert total == math.factorial(d)

    def test_permutation_cap(self):
        with pytest.raises(ResourceLimitError):
            qc.descent_poly_permutations(qc.DescentSet.of(10, [1]))

    def test_inclusion_exclusion_table_cap(self):
        d = CAPS["descent_table_dim"] + 1
        with pytest.raises(ResourceLimitError):
            qc.descent_poly_inclusion_exclusion(qc.DescentSet.of(d, [1]))


class TestIdentities:
    def test_telescope_base_cases(self):
        for e in range(5):
            assert qc.qbinom_telescope_holds(0, e)
        assert qc.qbinom_telescope_holds(1, 0)

    def test_telescope_small_grid(self):
        for n in range(6):
            for e in range(4):
                assert qc.qbinom_telescope_holds(n, e), (n, e)

    def test_subset_identity_grid(self):
        for d in range(1, 6):
            for i in range(1, d + 1):
                assert qc.qbinom_subset_identity_holds(d, i), (d, i)

    def test_subset_identity_domain(self):
        with pytest.raises(DomainError):
            qc.qbinom_subset_identity_holds(3, 4)
        with pytest.raises(DomainError):
            qc.qbinom_subset_identity_holds(3, 0)
