"""Tests for local factors, coefficient extraction, densities, and Euler products."""

import json
import math
import time
from dataclasses import asdict
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import mp, mpf, zeta as mp_zeta

from cotype import lattices as lat
from cotype import zeta as zt
from cotype.errors import CAPS, DomainError, NotWeaklyDecreasingError, ResourceLimitError
from cotype.primes import primes_upto
from cotype.qcomb import ONE, Q, q_binomial, value_at_inverse
from helpers import euler_product_oracle, run_cli, series_coefficient


class TestLocalFactor:
    def test_canonical_strings(self):
        assert zt.local_factor(1).canonical_str() == "1 / (1-t1)"
        assert zt.local_factor(2).canonical_str() == "(1 + q*t1) / ((1-t1)(1-t2))"

    def test_d2_numerator(self):
        lf = zt.local_factor(2)
        assert lf.coefficient(()) == ONE
        assert lf.coefficient((1,)) == Q

    def test_d3_numerator_terms(self):
        lf = zt.local_factor(3)
        assert len(lf.numerator) == 4
        assert lf.coefficient(()) == ONE
        assert lf.coefficient((1,)).coeffs == (0, 1, 1)  # q + q^2
        assert lf.coefficient((2,)).coeffs == (0, 1, 1)
        assert lf.coefficient((1, 2)).coeffs == (0, 0, 0, 1)  # q^3

    def test_cap(self):
        for d in (CAPS["local_factor_dim"] + 1, 20):
            with pytest.raises(ResourceLimitError):
                zt.local_factor(d)

    def test_denominator_and_pole_normalization(self):
        # at t_j = 0 every local factor is 1 (only Z^d itself contributes)
        for d in (1, 2, 3, 4):
            assert zt.local_factor(d).coefficient(()) == ONE


class TestLocalCoefficient:
    def test_trivial(self):
        for d in (1, 2, 3):
            assert zt.local_coefficient(d, 5, (0,) * d) == 1

    def test_index_p_sublattices(self):
        for p in (2, 3, 5):
            assert zt.local_coefficient(2, p, (1, 0)) == p + 1

    def test_against_enumeration(self):
        from cotype.groups import partitions_of

        for d in (2, 3):
            for p in (2, 3):
                for e in range(4):
                    counts = lat.tally_cotypes_at_index(d, p**e)
                    for parts in partitions_of(e, max_parts=d):
                        nu = tuple(parts) + (0,) * (d - len(parts))
                        alpha = tuple(p**v for v in nu)
                        assert zt.local_coefficient(d, p, nu) == counts.get(alpha, 0)

    def test_specific_enumeration_case(self):
        counts = lat.tally_cotypes_at_index(3, 8)
        assert zt.local_coefficient(3, 2, (2, 1, 0)) == counts[(4, 2, 1)]

    def test_series_route_agrees(self):
        from cotype.groups import partitions_of

        for d in (1, 2, 3, 4):
            for p in (2, 3):
                for total in range(5):
                    for parts in partitions_of(total, max_parts=d):
                        nu = tuple(parts) + (0,) * (d - len(parts))
                        assert series_coefficient(d, p, nu) == zt.local_coefficient(
                            d, p, nu
                        ), (d, p, nu)

    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @given(d=st.integers(1, 6), p=st.sampled_from([2, 3, 5, 101]),
           parts=st.lists(st.integers(0, 8), min_size=6, max_size=6))
    def test_size_bound_behind_the_cap(self, d, p, parts):
        # the cap's bound: the value is below 2^d p^E, E = sum_j (d - 2j + 1) nu_j
        nu = sorted(parts[:d], reverse=True)
        E = sum((d - 2 * j + 1) * v for j, v in enumerate(nu, 1))
        assert zt.local_coefficient(d, p, nu) <= 2**d * p**E

    def test_validation(self):
        with pytest.raises(NotWeaklyDecreasingError):
            zt.local_coefficient(2, 2, (0, 1))
        with pytest.raises(NotWeaklyDecreasingError):
            zt.local_coefficient(2, 2, (1, -1))
        with pytest.raises(DomainError):
            zt.local_coefficient(2, 2, (1,))


class TestDirichletCoefficients:
    def test_examples(self):
        assert zt.dirichlet_coefficient(3, 1) == 1
        assert zt.dirichlet_coefficient(2, 6) == 12  # sigma(6)
        assert zt.dirichlet_coefficient(3, 2) == 7  # 1 + 2 + 4

    def test_sieve_matches_multiplicative_route(self):
        for d in (1, 2, 3, 4, 6):
            coeffs = zt.dirichlet_coefficients_upto(d, 121)
            for n in range(1, 121):
                assert coeffs[n] == zt.dirichlet_coefficient(d, n), (d, n)

    def test_prime_powers_match_the_cotype_tables(self):
        # N_d(p^e) = [e + d - 1 choose d - 1]_p sums the index-p^e cotype table
        for d in (1, 2, 3, 5):
            for p in (2, 3, 7):
                for e in range(6):
                    table = zt._local_cotype_table(d, p, e)
                    assert zt.dirichlet_coefficient(d, p**e) == sum(c for _, c in table)

    def test_caps(self):
        start = time.perf_counter()
        # [60 + 39 choose 39]_2 has under 39 * 61 bits, within coefficient_bits
        value = zt.dirichlet_coefficient(40, 2**60)
        assert value == sum(c << i for i, c in enumerate(q_binomial(99, 39).coeffs))
        with pytest.raises(ResourceLimitError):
            zt.dirichlet_coefficient(40, 2**401)
        with pytest.raises(ResourceLimitError):
            zt.dirichlet_coefficients_upto(3, CAPS["tally_size"] // 3 + 1)
        assert time.perf_counter() - start < 1
        assert len(zt.dirichlet_coefficients_upto(3, CAPS["tally_size"] // 3)) == 10**5

    def test_sigma_for_d2(self):
        coeffs = zt.dirichlet_coefficients_upto(2, 50)
        for n in range(1, 50):
            assert coeffs[n] == sum(t for t in range(1, n + 1) if n % t == 0)


class TestCorankLocals:
    def test_cocyclic_local_closed_form(self):
        # (1-p^-1) sum_{i<=1} ... simplifies to 1 + p^-2
        for p in (2, 3, 5, 7):
            assert zt.corank_local_factor_at_pole(2, 1, p) == 1 + Fraction(1, p * p)

    def test_theta_local_identity(self):
        # the cocyclic constant's factor equals the residue factor for every d
        for d in (2, 3, 4, 5):
            for p in (2, 3, 5):
                via_theta = 1 + Fraction(p ** (d - 1) - 1, p ** (d + 1) - p**d)
                assert zt.corank_local_factor_at_pole(d, 1, p) == via_theta

    def test_full_corank_reduces_to_zeta_factor(self):
        # m = d: the residue local factor collapses to 1 / prod_{j=2}^{d} (1-p^-j)
        for d in (1, 2, 3, 4):
            for p in (2, 3):
                expected = Fraction(1)
                for j in range(2, d + 1):
                    expected /= 1 - Fraction(1, p**j)
                assert zt.corank_local_factor_at_pole(d, d, p) == expected

    def test_domain(self):
        with pytest.raises(DomainError):
            zt.corank_local_factor_at_pole(3, 0, 2)
        with pytest.raises(DomainError):
            zt.corank_local_factor_at_pole(3, 4, 2)

    def test_subset_sum_form_agrees(self):
        # alternative evaluation over subsets of {1..m} with q^(j^2) insertions
        import itertools

        from cotype.qcomb import subset_gap_multinomial

        for d in (2, 3, 4):
            for m in range(1, d + 1):
                for p in (2, 3):
                    q = Fraction(1, p)
                    total = Fraction(0)
                    for r in range(m + 1):
                        for mu in itertools.combinations(range(1, m + 1), r):
                            term = Fraction(subset_gap_multinomial(d, mu)(q))
                            for j in mu:
                                term *= q ** (j * j)
                            for j in range(1, m + 1):
                                if j not in mu:
                                    term *= 1 - q ** (j * j)
                            total += term
                    lhs = zt.corank_local_factor_at_pole(d, m, p)
                    rhs = total * (1 - q)
                    for j in range(1, m + 1):
                        rhs /= 1 - q ** (j * j)
                    assert lhs == rhs, (d, m, p)


class TestRankDensityIdentity:
    def test_exact_equality_grid(self):
        for d in range(1, 7):
            for m in range(1, d + 1):
                for p in (2, 3, 5):
                    assert zt.cokernel_rank_density_local(d, p, m) == \
                        zt.corank_density_local(d, m, p), (d, m, p)

    def test_known_value(self):
        assert zt.cokernel_rank_density_local(2, 2, 1) == Fraction(15, 16)

    def test_full_rank_is_one(self):
        for d in range(1, 7):
            for p in (2, 3, 5):
                assert zt.cokernel_rank_density_local(d, p, d) == 1

    def test_rank_zero_is_unit_pochhammer(self):
        for p in (2, 3):
            expected = Fraction(1)
            for j in range(1, 4):
                expected *= 1 - Fraction(1, p**j)
            assert zt.cokernel_rank_density_local(3, p, 0) == expected


class TestEulerProducts:
    def test_cocyclic_constant_d2(self):
        # theta_2 = zeta(2)/zeta(4) = 15/pi^2
        v = zt.cocyclic_growth_constant(2, 10**5)
        target = 15 / math.pi**2
        assert abs(v.value - target) < 5e-5
        assert abs(v.value - target) <= v.tail_bound

    def test_residue_m_equals_d(self):
        # d=2, m=2: residue equals zeta(2)
        v = zt.corank_zeta_residue(2, 2, 10**5)
        assert abs(v.value - math.pi**2 / 6) < 5e-4

    def test_residue_agrees_with_cocyclic_constant(self):
        for d in (2, 3, 4, 5, 6):
            a = zt.corank_zeta_residue(d, 1, 10**4)
            b = zt.cocyclic_growth_constant(d, 10**4)
            assert abs(a.value - b.value) <= a.tail_bound + b.tail_bound
            assert abs(a.value - b.value) < 1e-12  # identical local factors

    def test_density_full_rank_is_exactly_one(self):
        v = zt.corank_density(3, 3, 10**4)
        assert v.value == 1.0

    def test_density_d2_m1_closed_form(self):
        # density = 1/zeta(4) = 90/pi^4
        v = zt.corank_density(2, 1, 10**5)
        assert abs(v.value - 90 / math.pi**4) < 1e-6

    def test_squarefree_density(self):
        # independent identity: prod_p prod_{j>=2} (1-p^-j) = prod_{j>=2} 1/zeta(j)
        with mp.workprec(80):
            target = 1.0
            for j in range(2, 60):
                target /= float(mp_zeta(j))
        v = zt.squarefree_index_density(10**4)
        assert abs(v.value - target) < 1e-4
        assert v.value == pytest.approx(0.43576, abs=2e-4)

    def test_squarefree_tail_bound_brackets_the_density(self):
        # prod_{j>=2} 1/zeta(j) at 200 bits; zeta(j) - 1 < 2^-200 past j = 202
        with mp.workprec(200):
            target = mpf(1)
            for j in range(2, 203):
                target /= mp_zeta(j)
            for cutoff in (2, 10, 1000, 10**5):
                v = zt.squarefree_index_density(cutoff)
                assert abs(mpf(v.value) - target) <= v.tail_bound, cutoff

    def test_squarefree_local_p2(self):
        v = zt.squarefree_index_density(2)
        assert v.value == pytest.approx(0.577576, abs=1e-6)

    def test_squarefree_monotone_in_cutoff(self):
        vals = [zt.squarefree_index_density(c).value for c in (10, 100, 1000)]
        assert vals[0] > vals[1] > vals[2]

    @pytest.mark.parametrize("d, value, tail_bound", [
        (41, 1.943349504732098, 0.007788965564773506),
        (400, 1.9433495047326874, 0.007788965564775868),
    ])
    def test_cocyclic_constant_has_no_corank_cap(self, d, value, tail_bound):
        # d past the corank_dim cap, which bounds only the corank densities and residues
        want = zt.EulerProductValue(value, 1000, tail_bound)
        assert zt.cocyclic_growth_constant(d, 1000) == want

    def test_tail_bound_brackets_true_value(self):
        # richer cutoff must land inside the poorer cutoff's interval
        rough = zt.cocyclic_growth_constant(3, 500)
        fine = zt.cocyclic_growth_constant(3, 10**5)
        assert abs(rough.value - fine.value) <= rough.tail_bound

    def test_json_dict(self):
        # cli prints each product as the fields of its EulerProductValue
        v = zt.corank_density(2, 1, 100)
        proc = run_cli("density", "-d", "2", "-m", "1", "--cutoff", "100")
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)["corank_density"]
        assert doc == asdict(v) and set(doc) == {"value", "prime_cutoff", "tail_bound"}

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            zt.cocyclic_growth_constant(1, 100)
        with pytest.raises(DomainError):
            zt.corank_density(2, 0, 100)
        with pytest.raises(DomainError):
            zt.corank_zeta_residue(2, 3, 100)


PROPERTY = settings(max_examples=25, deadline=None, derandomize=True, database=None)


@st.composite
def corank_args(draw):
    d = draw(st.integers(1, 30))
    m = draw(st.integers(1, min(d, 4)))
    return d, m, draw(st.integers(2, 5000))


class TestEngineAgainstDirectProduct:
    """The engine's float equals the direct per-prime 113-bit product's."""

    @PROPERTY
    @given(corank_args())
    def test_corank_density(self, args):
        d, m, cutoff = args
        expected = float(euler_product_oracle("corank_density", cutoff, d, m))
        assert zt.corank_density(d, m, cutoff).value == expected

    @PROPERTY
    @given(corank_args())
    def test_corank_zeta_residue(self, args):
        d, m, cutoff = args
        expected = float(euler_product_oracle("corank_zeta_residue", cutoff, d, m))
        assert zt.corank_zeta_residue(d, m, cutoff).value == expected

    @PROPERTY
    @given(st.integers(2, 30), st.integers(2, 5000))
    def test_cocyclic_growth_constant(self, d, cutoff):
        expected = float(euler_product_oracle("cocyclic_growth_constant", cutoff, d))
        assert zt.cocyclic_growth_constant(d, cutoff).value == expected

    @PROPERTY
    @given(st.integers(2, 5000))
    def test_squarefree_index_density(self, cutoff):
        expected = float(euler_product_oracle("squarefree_index_density", cutoff, m=64))
        assert zt.squarefree_index_density(cutoff).value == expected

    def test_products_of_the_exact_local_values(self):
        # below 128 every prime is multiplied directly from its exact value
        for d in (1, 2, 5, 30):
            for m in range(1, min(d, 4) + 1):
                density = residue = Fraction(1)
                for p in primes_upto(127):
                    density *= zt.corank_density_local(d, m, p)
                    residue *= zt.corank_local_factor_at_pole(d, m, p)
                assert zt.corank_density(d, m, 127).value == float(density)
                assert zt.corank_zeta_residue(d, m, 127).value == float(residue)


class TestFixedExp:
    HALF = 1 << (zt._FIXED_BITS - 1)

    @PROPERTY
    @given(st.integers(-HALF, HALF))
    @example(HALF)
    @example(-HALF)
    @example(0)
    @example(-1)
    def test_within_its_error_of_exp(self, x):
        E, err = zt._fixed_exp(x)
        with mp.workprec(2 * zt._FIXED_BITS):
            assert abs(E - mp.exp(mpf(x) / (2 * self.HALF)) * 2 * self.HALF) <= err

    @pytest.mark.parametrize("x", [HALF + 1, -HALF - 1, HALF << 20],
                             ids=["above", "below", "far_above"])
    def test_refuses_arguments_past_one_half(self, x):
        with pytest.raises(ArithmeticError):
            zt._fixed_exp(x)


def _log_coefficients(num, den, terms: int) -> list[Fraction]:
    """[q^k] log(num/den) for k = 0..terms, from f'/f = (log f)'."""
    def log_series(f):
        a = list(f.coeffs[: terms + 1]) + [0] * (terms + 1)
        c = [Fraction(0)] * (terms + 1)
        for k in range(1, terms + 1):
            c[k] = a[k] - sum(a[j] * (k - j) * c[k - j] for j in range(1, k)) / k
        return c

    return [x - y for x, y in zip(log_series(num), log_series(den))]


def _tail_cases():
    """(name, local factor, C, e, smallest prime the bound must cover)."""
    for d in range(1, 31):
        for m in sorted({*range(1, min(d, 4) + 1), d}):
            yield f"residue d={d} m={m}", zt._residue_factor(d, m), 6, 2, 2
            if m < d:  # at m = d the density factor is exactly 1
                yield f"density d={d} m={m}", zt._density_factor(d, m), 15, (m + 1) ** 2, 2
        if d >= 2:
            yield f"cocyclic d={d}", zt._residue_factor(d, 1), 2, 2, 2
    # cutoff >= 2, so the squarefree tail starts at p = 3: at p = 2, |log| = 0.549
    yield "squarefree", zt._squarefree_factor(), 2, 2, 3


class TestTailConstants:
    SWITCH = 11  # primes from here on are covered by the log-series majorant

    def test_density_full_rank_factor_is_one(self):
        for d in range(1, 31):
            assert zt._density_factor(d, d) == (ONE, ONE)

    def test_log_local_bounded_by_c_p_to_minus_e(self):
        """|log local(p)| <= C p^-e for d <= 30 and every prime p (so for all
        primes up to 10^4). Below SWITCH from the exact local value; from SWITCH
        on, M(q) = sum_k |c_k| q^k over the exact log series (k <= e + 60) plus
        a root-bound tail majorizes |log local| and M(q) / q^e grows with q, so
        M(1/SWITCH) <= C SWITCH^-e covers every p >= SWITCH."""
        for name, (num, den), C, e, p_min in _tail_cases():
            for p in primes_upto(self.SWITCH - 1):
                if p >= p_min:
                    v = value_at_inverse(p, num, den)
                    # |log v| <= |v - 1| / min(v, 1)
                    assert abs(v - 1) / min(v, 1) <= Fraction(C, p**e), (name, p)
            terms = e + 60
            c = _log_coefficients(num, den, terms)
            assert not any(c[:e]), name  # log local(p) = O(p^-e)
            q = Fraction(1, self.SWITCH)
            rq = Fraction(max(zt._reciprocal_root_bound(num),
                              zt._reciprocal_root_bound(den))) * q
            assert rq < 1, name
            majorant = sum(abs(ck) * q**k for k, ck in enumerate(c))
            majorant += (num.degree + den.degree) * rq ** (terms + 1) / ((terms + 1) * (1 - rq))
            assert majorant <= C * q**e, name

    def test_engine_uses_these_constants(self):
        cutoff = 1000
        for v, C, e in ((zt.corank_zeta_residue(5, 2, cutoff), 6, 2),
                        (zt.corank_density(5, 1, cutoff), 15, 4),
                        (zt.cocyclic_growth_constant(5, cutoff), 2, 2),
                        (zt.squarefree_index_density(cutoff), 2, 2)):
            missing = 2 * C * cutoff ** (1 - e) / (e - 1)
            assert v.tail_bound >= v.value * math.expm1(missing)

    def test_tail_bound_covers_numeric_error(self):
        # the truncated product at 250 bits lies within tail_bound of value, even
        # where the missing primes contribute almost nothing
        for d, m, cutoff in ((8, 4, 3000), (30, 3, 1000), (3, 2, 100), (2, 2, 500)):
            v = zt.corank_density(d, m, cutoff)
            exact = euler_product_oracle("corank_density", cutoff, d, m, prec=250)
            assert abs(mpf(v.value) - exact) <= v.tail_bound, (d, m, cutoff)
            assert v.tail_bound >= v.value * 2.0**-53
