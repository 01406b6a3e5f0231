"""Tests for Hermite enumeration, Smith reduction, and cotype tallies."""

import json
import math
import random
import time
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from cotype import lattices as lat
from cotype.errors import CAPS, DomainError, ResourceLimitError
from cotype.zeta import corank_zeta_residue, dirichlet_coefficients_upto

from helpers import (
    det_by_elimination, det_by_permutations, rank_mod_p, run_cli, snf_oracle,
    tally_by_full_enumeration)


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
        # Z^3 has 2,794,155 sublattices of index 2^10, a unit of work each
        with pytest.raises(ResourceLimitError, match="^enum_work cap exceeded"):
            next(lat.enumerate_hnf(3, 2**10))
        assert lat.hnf_count(3, 2**9) <= CAPS["enum_work"]
        # one basis of index 1, but a d x d matrix: Z^20000 took 40 s
        with pytest.raises(ResourceLimitError, match="^tally_rank cap exceeded"):
            next(lat.enumerate_hnf(CAPS["tally_rank"] + 1, 1))

    def test_cap_refuses_before_counting(self):
        # each table is refused on its number of diagonals before it is built
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError):
            list(lat.enumerate_hnf(60, 2**40))
        with pytest.raises(ResourceLimitError):  # about 3.6 * 10^8 contracted cores
            lat.tally_cotypes_at_index(3, 2**15)
        with pytest.raises(ResourceLimitError):
            lat.tally_cotypes_at_index(60, 2**40)
        with pytest.raises(ResourceLimitError):
            lat.hermite_diagonals(250, 4)
        with pytest.raises(ResourceLimitError, match="^tally_rank cap exceeded"):
            lat.tally_cotypes_at_index(CAPS["tally_rank"] + 1, 1)
        # pricing stops at the first index past the work cap: the table of 6^40,
        # past the hermite_table cap, is never reached
        with pytest.raises(ResourceLimitError, match="^enum_work cap exceeded"):
            lat.enumeration_size(3, [2**15, 6**40])
        assert time.perf_counter() - start < 5

    def test_contracted_size_counts_cores(self):
        # index 4 in Z^3: the one-row cores (4) x3 at a unit each, and (2, 2) x3
        # with 2 bases each at 2 units a basis (the closed form)
        assert lat.enumeration_size(3, [4]) == 3 + 3 * 2 * 2
        # index 16 in Z^8 has 16^7 bases, but its cores cost 78,744 units
        assert lat.enumeration_size(8, [16]) == 78744
        counts = lat.tally_cotypes_at_index(8, 16)
        assert sum(counts.values()) == lat.hnf_count(8, 16)

    def test_d1_enumeration_factors_no_index(self):
        # a table of Z^1 is its index, so that `tally -d 1 -X 299999 --method
        # enumerate` factors none of its indices and ends in about 2 s
        lat.hermite_diagonals.cache_clear()
        with mock.patch.object(lat, "factorize", side_effect=AssertionError):
            tally = lat.tally_cotypes(1, 3000, method="enumerate")
        assert tally.counts == lat.tally_cotypes(1, 3000).counts

    def test_work_is_priced_by_the_smith_route(self):
        # every diagonal of Z^d whose core has k rows, by the cost of one basis:
        # 1 for k <= 1 (no Smith form), 2 for k = 2, 3 and k^2 past that
        for d, n in [(1, 12), (3, 24), (4, 16), (6, 32), (8, 16)]:
            cost = 0
            for diag in lat.hermite_diagonals(d, n)[0]:
                core = [a for a in diag if a > 1]
                k = len(core)
                bases = math.prod(a ** (k - 1 - i) for i, a in enumerate(core))
                cost += 1 if k <= 1 else bases * (2 if k <= 3 else k * k)
            assert lat.enumeration_size(d, [n]) == cost, (d, n)

    @pytest.mark.parametrize("d, X", [(2, 1763), (3, 281), (4, 89), (5, 61), (6, 49)])
    def test_work_cap_boundary(self, d, X):
        # priced, not run: the first X each d refuses. The admitted -d 5 -X 60
        # has 123,893,785 Hermite bases, which the cap on bases refused
        assert lat.enumeration_size(d, range(1, X - 1)) <= CAPS["enum_work"]
        with pytest.raises(ResourceLimitError, match="^enum_work cap exceeded"):
            lat.enumeration_size(d, range(1, X))
        with pytest.raises(ResourceLimitError, match="^enum_work cap exceeded"):
            lat.tally_cotypes(d, X, method="enumerate")

    def test_diagonal_table(self):
        diags, offsets = lat.hermite_diagonals(3, 4)
        assert diags == ((1, 1, 4), (1, 2, 2), (1, 4, 1), (2, 1, 2), (2, 2, 1), (4, 1, 1))
        # prefix offsets of the basis counts 1, 2, 4, 4, 8, 16
        assert offsets == (0, 1, 3, 7, 11, 19, 35)
        assert lat.hermite_matrix((2, 2, 1), 5) == [[2, 1, 0], [0, 2, 1], [0, 0, 1]]


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
        for ragged in ([[1, 2], [3]], [[1], [2]], [[1, 2], [3, 4, 5]]):
            with pytest.raises(DomainError):
                lat.smith_normal_form(ragged)

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
        # take the diagonal's product as their minor, and n = 2, 3 the closed form.
        n = data.draw(st.integers(0, 5), label="n")
        bound = data.draw(st.sampled_from([2, 2, 40]), label="bound")
        shape = data.draw(st.sampled_from(["dense", "dense", "upper", "zero"]), label="shape")
        rows = [[data.draw(st.integers(-bound, bound)) if shape == "dense"
                 or (shape == "upper" and j >= i) else 0 for j in range(n)]
                for i in range(n)]
        sf = lat.smith_normal_form(rows)
        assert (sf.diag, sf.free_rank) == snf_oracle(rows), rows

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_closed_form_3x3_against_minor_oracle(self, data):
        # n = 3 takes the determinantal divisors directly; every rank appears,
        # by construction: zero, outer products u v^T, a third row combining
        # the first two, and upper-triangular draws with a zero on the
        # diagonal. Sparse draws leave a single nonzero minor of some order.
        sparse = data.draw(st.booleans(), label="sparse")
        entry = (st.sampled_from([0, 0, 0, 0, 1, -1, 2, -3]) if sparse
                 else st.integers(-9, 9) | st.integers(-10**6, 10**6))
        vec = st.lists(entry, min_size=3, max_size=3)
        shape = data.draw(st.sampled_from(["dense", "rank0", "rank1", "rank2", "upper0"]),
                          label="shape")
        if shape == "rank0":
            rows = [[0] * 3 for _ in range(3)]
        elif shape == "rank1":
            u, v = data.draw(vec, label="u"), data.draw(vec, label="v")
            rows = [[a * b for b in v] for a in u]
        elif shape == "rank2":
            r0, r1 = data.draw(vec, label="r0"), data.draw(vec, label="r1")
            a, b = data.draw(st.tuples(st.integers(-5, 5), st.integers(-5, 5)), label="a, b")
            rows = [r0, r1, [a * x + b * y for x, y in zip(r0, r1)]]
        else:
            rows = [data.draw(vec, label=f"row{i}") for i in range(3)]
        if shape == "upper0":
            zero = data.draw(st.integers(0, 2), label="zero")
            rows = [[v if j > i or (j == i and i != zero) else 0 for j, v in enumerate(row)]
                    for i, row in enumerate(rows)]
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


@contextmanager
def pivot_calls():
    """Record the modulus of every call of lattices._pivots_mod."""
    calls = []
    real = lat._pivots_mod

    def counted(m, D):
        calls.append(D)
        return real(m, D)

    with mock.patch.object(lat, "_pivots_mod", counted):
        yield calls


class TestSmithKernelBranches:
    # The draws of each shape must reach the branches listed for it.
    EXPECTED = {
        "dense": ("certified", "refused, s_(n-1) = 1"),
        "scaled": ("s_(n-1) > 1",),
        "deficient": ("rank-deficient",),
        "upper": ("triangular",),
    }

    @staticmethod
    def _rows(data, shape, n):
        rows = [[data.draw(st.integers(-9, 9)) for _ in range(n)] for _ in range(n)]
        if shape == "scaled":
            # c divides every (n-1)-minor, each of which keeps one of the two
            # rows, so it divides D_(n-1) and s_(n-1).
            c = data.draw(st.sampled_from([2, 3, 4, 6]), label="c")
            for i in data.draw(st.sets(st.integers(0, n - 1), min_size=2, max_size=2)):
                rows[i] = [c * v for v in rows[i]]
        elif shape == "deficient":
            a, b = data.draw(st.integers(-3, 3)), data.draw(st.integers(-3, 3))
            rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[1])]
        elif shape == "upper":
            rows = [[data.draw(st.integers(1, 12)) if j == i else v if j > i else 0
                     for j, v in enumerate(row)] for i, row in enumerate(rows)]
        return rows

    @pytest.mark.parametrize("shape", sorted(EXPECTED))
    def test_branches_against_minor_oracle(self, shape):
        hits = dict.fromkeys(self.EXPECTED[shape], 0)

        @settings(max_examples=60, deadline=None, derandomize=True, database=None)
        @given(st.data())
        def check(data):
            n = data.draw(st.integers(4, 6), label="n")
            rows = self._rows(data, shape, n)
            with pivot_calls() as calls:
                sf = lat.smith_normal_form(rows)
            assert (sf.diag, sf.free_rank) == snf_oracle(rows), rows
            upper = all(rows[i][i] and not any(rows[i][:i]) for i in range(n))
            if not calls:
                branch = "certified"
            elif sf.free_rank:
                branch = "rank-deficient"
            elif upper:
                branch = "triangular"
                assert calls == [math.prod(sf.diag)]
            else:
                branch = "s_(n-1) > 1" if sf.diag[-2] > 1 else "refused, s_(n-1) = 1"
            if branch in hits:
                hits[branch] += 1

        check()
        assert all(hits.values()), hits

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_certificate_is_the_gcd_of_the_trailing_minors(self, data):
        # With nonzero leading principal minors the elimination swaps nothing,
        # so after n - 2 steps its trailing 2 x 2 block holds the (n-1)-minors
        # on rows and columns 0..n-3 and one of the last two. The modular
        # reduction is skipped exactly when their gcd with det is 1.
        n = data.draw(st.integers(4, 6), label="n")
        rows = [[data.draw(st.integers(-4, 4)) for _ in range(n)] for _ in range(n)]
        assume(all(det_by_permutations([r[:k] for r in rows[:k]]) for k in range(1, n + 1)))
        head = list(range(n - 2))
        minors = [det_by_permutations([[rows[i][j] for j in head + [jj]] for i in head + [ii]])
                  for ii in (n - 2, n - 1) for jj in (n - 2, n - 1)]
        with pivot_calls() as calls:
            lat.smith_normal_form(rows)
        assert (not calls) == (math.gcd(*minors, det_by_permutations(rows)) == 1), rows


class TestCotype:
    def test_examples(self):
        eye = lat.HermiteBasis(((1, 0), (0, 1)))
        assert lat.cotype_of(eye) == (1, 1)
        assert lat.corank(lat.cotype_of(eye)) == 0
        two = lat.HermiteBasis(((2, 0), (0, 2)))
        assert lat.cotype_of(two) == (2, 2)
        assert lat.corank(lat.cotype_of(two)) == 2
        cyc = lat.HermiteBasis(((1, 0), (0, 4)))
        assert lat.cotype_of(cyc) == (4, 1)
        assert lat.corank(lat.cotype_of(cyc)) == 1

    def test_soundness_over_enumeration(self):
        for d, nmax in [(2, 24), (3, 16)]:
            for n in range(1, nmax + 1):
                for basis in lat.enumerate_hnf(d, n):
                    ct = lat.cotype_of(basis)
                    assert math.prod(ct) == n
                    for i in range(d - 1):
                        assert ct[i] % ct[i + 1] == 0

    def test_p_part(self):
        ct = (12, 2, 1)
        assert lat.p_part(ct, 2) == (2, 1)
        assert lat.p_part(ct, 3) == (1,)
        assert lat.p_part(ct, 5) == ()
        # the same partition from a Smith diagonal, smallest first
        assert lat.p_part(reversed((1, 2, 12)), 2) == (2, 1)
        assert lat.p_part((), 2) == ()


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
        # not a cotype: no divisibility chain, wrong length, or index >= X
        for alpha in [(2, 3), (3, 2), (2,), (2, 2, 1), (4, 2)]:
            assert t5.count(alpha) == 0

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.integers(1, 4).flatmap(
        lambda d: st.tuples(st.just(d), st.integers(1, (60, 40, 20, 12)[d - 1]))),
        st.sampled_from(lat.TALLY_METHODS))
    def test_keys_are_cotypes_below_X(self, args, method):
        # the tally builds its keys with no check: each must be a cotype of index < X
        d, X = args
        for alpha, c in lat.tally_cotypes(d, X, method=method).counts.items():
            assert type(alpha) is tuple and len(alpha) == d
            assert all(type(a) is int and a >= 1 for a in alpha)
            assert all(a % b == 0 for a, b in zip(alpha, alpha[1:]))
            assert math.prod(alpha) < X
            assert c > 0

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
            lat.tally_cotypes(3, 520, method="enumerate")
        # just past each of the formula's caps, and at the rank cap
        for d, X in [(CAPS["tally_rank"] + 1, 2), (3, CAPS["tally_size"] // 3 + 1)]:
            with pytest.raises(ResourceLimitError):
                lat.tally_cotypes(d, X)
        assert lat.tally_cotypes(CAPS["tally_rank"], 3).total == 2 ** CAPS["tally_rank"]
        with pytest.raises(ResourceLimitError):
            lat.tally_cotypes(1, 10**9, method="enumerate")

    def test_bad_method_and_negative_bound(self):
        with pytest.raises(DomainError):
            lat.tally_cotypes(2, 10, method="divisor")
        for method in lat.TALLY_METHODS:
            with pytest.raises(DomainError):
                lat.tally_cotypes(2, -1, method=method)

    def test_exports(self, tmp_path):
        # the --out files that cli encodes from the tally's counts
        t = lat.tally_cotypes(2, 12)
        jpath = tmp_path / "t.json"
        cpath = tmp_path / "t.csv"
        assert run_cli("tally", "-d", "2", "-X", "12", "--out", str(jpath)).returncode == 0
        assert run_cli("tally", "-d", "2", "-X", "12", "--format", "csv",
                       "--out", str(cpath)).returncode == 0
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
