"""Tests for Hermite enumeration, Smith reduction, and cotype tallies."""

import json
import math
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from cotype import lattices as lat
from cotype.errors import DomainError, ResourceLimitError
from cotype.zeta import corank_zeta_residue, dirichlet_coefficients_upto

from helpers import det_by_elimination, rank_mod_p, snf_oracle, tally_by_full_enumeration


PROPERTY = settings(max_examples=25, deadline=None, derandomize=True, database=None)


class TestHermiteBasis:
    def test_validation(self):
        lat.HermiteBasis(((2, 1), (0, 3)))
        with pytest.raises(DomainError):
            lat.HermiteBasis(((2, 2), (0, 3)))  # entry not reduced mod row diagonal
        with pytest.raises(DomainError):
            lat.HermiteBasis(((0, 0), (0, 3)))  # nonpositive diagonal
        with pytest.raises(DomainError):
            lat.HermiteBasis(((2, 0), (1, 3)))  # not upper triangular

    def test_index(self):
        assert lat.HermiteBasis(((2, 1), (0, 3))).index == 6


class TestEnumeration:
    def test_dimension_one(self):
        assert [b.rows for b in lat.enumerate_hnf(1, 7)] == [((7,),)]

    def test_index_two_dim_two(self):
        got = sorted(b.rows for b in lat.enumerate_hnf(2, 2))
        assert got == [((1, 0), (0, 2)), ((2, 0), (0, 1)), ((2, 1), (0, 1))]

    def test_counts_match_dirichlet_convolution(self):
        # enumeration vs the sieve coefficients of zeta(s)...zeta(s-(d-1))
        for d in range(1, 5):
            coeffs = dirichlet_coefficients_upto(d, 201)
            for n in range(1, 201):
                assert lat.hnf_count(d, n) == coeffs[n], (d, n)

    def test_count_at_a_large_prime(self):
        # p + 1 at p in Z^2 and the sum of p^(j + 2k) over j + k <= 2 at p^2
        # in Z^3, with no trial division up to sqrt(p)
        p = 2**61 - 1
        start = time.perf_counter()
        assert lat.hnf_count(2, p) == p + 1
        assert lat.hnf_count(3, p**2) == 1 + p + 2 * p**2 + p**3 + p**4
        assert time.perf_counter() - start < 5

    def test_stream_matches_count_and_is_unique(self):
        for d, n in [(2, 12), (3, 8), (3, 12), (4, 6)]:
            seen = set()
            for basis in lat.enumerate_hnf(d, n):
                assert basis.index == n
                assert basis.rows not in seen
                seen.add(basis.rows)
            assert len(seen) == lat.hnf_count(d, n)

    def test_resource_limit(self):
        with pytest.raises(ResourceLimitError):
            list(lat.enumerate_hnf(3, 64, max_matrices=10))

    def test_cap_refuses_before_counting(self):
        # each index is refused on its number of diagonals before its table is built
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError):
            list(lat.enumerate_hnf(60, 2**40, max_matrices=10))
        with pytest.raises(ResourceLimitError):  # about 3.6 * 10^8 contracted cores
            lat.tally_cotypes_at_index(3, 2**15)
        with pytest.raises(ResourceLimitError):
            lat.tally_cotypes_at_index(60, 2**40)
        with pytest.raises(ResourceLimitError):
            lat.hermite_diagonals(250, 4)
        assert time.perf_counter() - start < 5
        assert lat.enumeration_size(3, range(1, 10)) == sum(dirichlet_coefficients_upto(3, 10))
        with pytest.raises(ResourceLimitError):
            lat.enumeration_size(3, range(1, 10), max_matrices=100)

    def test_contracted_size_counts_cores(self):
        # index 4 in Z^3: the cores (4) x3 and (2, 2) x3 with 2 bases each
        assert lat.enumeration_size(3, [4], contracted=True) == 9
        assert lat.enumeration_size(3, [4]) == lat.hnf_count(3, 4) == 35
        # 16^7 bases, but only a few thousand contracted cores
        assert lat.enumeration_size(8, [16], contracted=True) < 10**5
        counts = lat.tally_cotypes_at_index(8, 16)
        assert sum(counts.values()) == lat.hnf_count(8, 16)

    def test_diagonal_table(self):
        diags, counts = lat.hermite_diagonals(3, 4)
        assert diags == ((1, 1, 4), (1, 2, 2), (1, 4, 1), (2, 1, 2), (2, 2, 1), (4, 1, 1))
        assert counts == (1, 2, 4, 4, 8, 16)
        assert lat.hermite_matrix((2, 2, 1), 5) == [[2, 1, 0], [0, 2, 1], [0, 0, 1]]

    def test_negative_cap_is_bad_input(self):
        with pytest.raises(DomainError):
            list(lat.enumerate_hnf(2, 4, max_matrices=-1))


class TestSmithForm:
    def test_examples(self):
        assert lat.smith_normal_form([[1, 0], [0, 1]]) == lat.SmithForm((1, 1), 0)
        assert lat.smith_normal_form([[4, 0], [0, 6]]) == lat.SmithForm((2, 12), 0)
        assert lat.smith_normal_form([[0, 0], [0, 0]]) == lat.SmithForm((), 2)
        assert lat.smith_normal_form([]) == lat.SmithForm((), 0)
        assert lat.smith_normal_form([[-6]]) == lat.SmithForm((6,), 0)
        assert lat.smith_normal_form([[0] * 4] * 4) == lat.SmithForm((), 4)
        # unimodular: D = 1
        assert lat.smith_normal_form([[2, 1, 0], [1, 1, 0], [0, 0, 1]]) == lat.SmithForm(
            (1, 1, 1), 0)

    def test_validation(self):
        with pytest.raises(DomainError):
            lat.smith_normal_form([[1, 2, 3], [4, 5, 6]])
        with pytest.raises(DomainError):
            lat.SmithForm((3, 4), 0)  # no divisibility

    def test_against_minor_oracle_random(self):
        rng = random.Random(20240229)
        for n in (2, 3, 4):
            for _ in range(40):
                rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
                sf = lat.smith_normal_form(rows)
                assert (sf.diag, sf.free_rank) == snf_oracle(rows), rows

    def test_rank_deficient(self):
        sf = lat.smith_normal_form([[1, 2, 3], [2, 4, 6], [0, 0, 5]])
        assert sf.free_rank == 1
        assert sf.diag == (1, 5)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_kernel_against_minor_oracle(self, data):
        # Entries in [-2, 2] make many draws singular; upper-triangular draws
        # take the diagonal's product as their minor, and n = 2 the closed form.
        n = data.draw(st.integers(0, 5), label="n")
        bound = data.draw(st.sampled_from([2, 2, 40]), label="bound")
        shape = data.draw(st.sampled_from(["dense", "dense", "upper", "zero"]), label="shape")
        rows = [[data.draw(st.integers(-bound, bound)) if shape == "dense"
                 or (shape == "upper" and j >= i) else 0 for j in range(n)]
                for i in range(n)]
        sf = lat.smith_normal_form(rows)
        assert (sf.diag, sf.free_rank) == snf_oracle(rows), rows

    @pytest.mark.parametrize("d", range(6, 13))
    def test_large_entries_against_mod_p_ranks(self, d):
        rng = random.Random(1000 + d)

        def rand(rows, cols, k):
            return [[rng.randint(-k, k) for _ in range(cols)] for _ in range(rows)]

        def mul(a, b):
            return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]

        scale = [[0] * d for _ in range(d)]
        for i in range(d):
            scale[i][i] = 2 ** rng.randint(0, 3) * 3 ** rng.randint(0, 2) * 5 ** rng.randint(0, 1)
        cases = [
            (rand(d, d, 10**9), 0),
            (mul(mul(rand(d, d, 30), scale), rand(d, d, 30)), 0),
            (mul(rand(d, d - 2, 1000), rand(d - 2, d, 1000)), 2),
        ]
        for rows, free_rank in cases:
            sf = lat.smith_normal_form(rows)
            assert sf.free_rank == free_rank
            assert all(b % a == 0 for a, b in zip(sf.diag, sf.diag[1:]))
            assert sf.diag[0] == math.gcd(*(v for row in rows for v in row))
            for p in (2, 3, 5):
                divisible = sum(1 for s in sf.diag if s % p == 0)
                assert d - divisible - sf.free_rank == rank_mod_p(rows, p), (d, p)
            if not free_rank:
                assert math.prod(sf.diag) == abs(det_by_elimination(rows))


class TestCotype:
    def test_examples(self):
        eye = lat.HermiteBasis(((1, 0), (0, 1)))
        assert lat.cotype_of(eye).alpha == (1, 1)
        assert lat.cotype_of(eye).corank == 0
        two = lat.HermiteBasis(((2, 0), (0, 2)))
        assert lat.cotype_of(two).alpha == (2, 2)
        assert lat.cotype_of(two).corank == 2
        cyc = lat.HermiteBasis(((1, 0), (0, 4)))
        assert lat.cotype_of(cyc).alpha == (4, 1)
        assert lat.cotype_of(cyc).corank == 1

    def test_soundness_over_enumeration(self):
        for d, nmax in [(2, 24), (3, 16)]:
            for n in range(1, nmax + 1):
                for basis in lat.enumerate_hnf(d, n):
                    ct = lat.cotype_of(basis)
                    assert ct.index == n
                    for i in range(d - 1):
                        assert ct.alpha[i] % ct.alpha[i + 1] == 0

    def test_p_part(self):
        ct = lat.Cotype((12, 2, 1))
        assert ct.p_part(2) == (2, 1)
        assert ct.p_part(3) == (1,)
        assert ct.p_part(5) == ()
        # the same partition from a Smith diagonal, smallest first, with no Cotype
        assert lat.p_part(reversed((1, 2, 12)), 2) == (2, 1)
        assert lat.p_part((), 2) == ()

    def test_validation(self):
        with pytest.raises(DomainError):
            lat.Cotype((2, 3))


class TestTally:
    def test_methods_agree_d2(self):
        a = lat.tally_cotypes(2, 60, method="auto").counts
        b = lat.tally_cotypes(2, 60, method="enumerate").counts
        c = tally_by_full_enumeration(2, 60)
        assert a == b == c

    def test_methods_agree_d3(self):
        a = lat.tally_cotypes(3, 25, method="enumerate").counts
        b = tally_by_full_enumeration(3, 25)
        assert a == b

    def test_methods_agree_d4(self):
        a = lat.tally_cotypes(4, 9, method="enumerate").counts
        b = tally_by_full_enumeration(4, 9)
        assert a == b

    def test_examples(self):
        t = lat.tally_cotypes(2, 3)
        assert t.total == 4  # sigma(1) + sigma(2)
        for d in (1, 2, 3):
            t1 = lat.tally_cotypes(d, 2, method="enumerate")
            assert t1.total == 1
            assert t1.count((1,) * d) == 1
        t5 = lat.tally_cotypes(2, 5)
        assert t5.total == 15
        assert t5.count((2, 2)) == 1
        assert t5.n_with_corank_at_most(1) == 14

    def test_totals_match_sieve(self):
        coeffs = dirichlet_coefficients_upto(2, 2000)
        t = lat.tally_cotypes(2, 2000)
        assert t.total == sum(coeffs[1:2000])

    def test_multiplicativity(self):
        # counts at coprime indices combine componentwise
        for d in (2, 3):
            a = lat.tally_cotypes_at_index(d, 4)
            b = lat.tally_cotypes_at_index(d, 9)
            combined: dict = {}
            for ca, na in a.items():
                for cb, nb in b.items():
                    key = tuple(x * y for x, y in zip(ca, cb))
                    combined[key] = combined.get(key, 0) + na * nb
            assert combined == lat.tally_cotypes_at_index(d, 36)

    @PROPERTY
    @given(st.integers(1, 4).flatmap(
        lambda d: st.tuples(st.just(d), st.integers(1, (200, 120, 40, 20)[d - 1]))))
    def test_formula_matches_enumeration(self, args):
        d, X = args
        auto = lat.tally_cotypes(d, X).counts
        assert auto == lat.tally_cotypes(d, X, method="enumerate").counts

    def test_totals_match_sieve_d3(self):
        assert lat.tally_cotypes(3, 20000).total == sum(dirichlet_coefficients_upto(3, 20000))

    @pytest.mark.parametrize("d", [3, 4])
    def test_corank_counts_follow_the_residue(self, d):
        # N^(m)(X) ~ res_m X^d / d: the paper's count at d >= 3, far past enumeration
        X = 10**4
        tally = lat.tally_cotypes(d, X)
        for m in range(1, d + 1):
            ratio = tally.n_with_corank_at_most(m) * d / X**d
            residue = corank_zeta_residue(d, m, 10**5).value
            assert abs(ratio / residue - 1) < 1e-3, (m, ratio, residue)

    def test_resource_limit(self):
        with pytest.raises(ResourceLimitError):
            lat.tally_cotypes(3, 50, method="enumerate", max_matrices=100)
        # just past each of the formula's caps, and at the rank cap
        for d, X in [(lat.MAX_TALLY_RANK + 1, 2), (3, lat.MAX_TALLY_SIZE // 3 + 1)]:
            with pytest.raises(ResourceLimitError):
                lat.tally_cotypes(d, X)
        assert lat.tally_cotypes(lat.MAX_TALLY_RANK, 3).total == 2**lat.MAX_TALLY_RANK
        with pytest.raises(ResourceLimitError):
            lat.tally_cotypes(1, 10**9, method="enumerate", max_matrices=10**8)

    def test_bad_method_and_negative_cap(self):
        with pytest.raises(DomainError):
            lat.tally_cotypes(2, 10, method="divisor")
        for method in lat.TALLY_METHODS:
            with pytest.raises(DomainError):
                lat.tally_cotypes(2, 10, method=method, max_matrices=-1)

    def test_exports(self, tmp_path):
        t = lat.tally_cotypes(2, 12)
        jpath = tmp_path / "t.json"
        cpath = tmp_path / "t.csv"
        t.write_json(jpath)
        t.write_csv(cpath)
        doc = json.loads(jpath.read_text())
        assert doc["total"] == t.total
        assert doc["bound"] == "index < X"
        assert sum(r["count"] for r in doc["rows"]) == t.total
        assert doc["n_by_corank"] == {str(m): t.n_with_corank_at_most(m) for m in range(3)}
        lines = cpath.read_text().splitlines()
        assert lines[0].startswith("# d=2 X=12 convention: index < X")
        assert lines[1] == "alpha,corank,index,count"
        body = [ln.split(",") for ln in lines[2:]]
        assert sum(int(r[-1]) for r in body) == t.total
