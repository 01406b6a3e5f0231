"""Tests for abelian p-group types, automorphism orders, and mass functions."""

import time
from fractions import Fraction

import pytest
from hypothesis import given, reject, settings, strategies as st
from mpmath import mp, mpf

from cotype import groups as gr
from cotype.errors import (
    DomainError,
    PrimeMismatchError,
    RankExceedsDimensionError,
    ResourceLimitError,
)

from helpers import all_subgroups, subgroup_type

PROPERTY = settings(max_examples=25, deadline=None, derandomize=True, database=None)
# (p, d, lam) with an ambient (Z/p^(lam_1))^d of order p^(lam_1 d) <= 729
TUPLE_CASES_TO_729 = [
    (p, d, lam)
    for p, top in ((2, 9), (3, 6), (5, 4))
    for a in range(1, top + 1)
    for d in range(1, top // a + 1)
    for size in range(a, a * d + 1)
    for lam in gr.partitions_of(size, max_parts=d, max_part=a)
    if lam[0] == a
]


class TestPartitions:
    def test_conjugate_examples(self):
        assert gr.conjugate(()) == ()
        assert gr.conjugate((3, 1)) == (2, 1, 1)
        assert gr.conjugate((2, 2)) == (2, 2)

    def test_conjugate_involutive(self):
        for n in range(9):
            for parts in gr.partitions_of(n):
                assert gr.conjugate(gr.conjugate(parts)) == parts

    def test_partition_validation(self):
        with pytest.raises(DomainError):
            gr.Partition((1, 2))
        with pytest.raises(DomainError):
            gr.Partition((0,))
        assert gr.Partition.of([0, 2, 1, 2]).parts == (2, 2, 1)

    def test_partitions_of_counts(self):
        # p(n) for n = 0..9
        expected = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30]
        for n, e in enumerate(expected):
            assert sum(1 for _ in gr.partitions_of(n)) == e

    def test_group_type(self):
        G = gr.AbelianPGroupType.of(3, (2, 1))
        assert G.order == 27 and G.rank == 2
        with pytest.raises(DomainError):
            gr.AbelianPGroupType.of(4, (1,))


class TestSubgroupCounts:
    def test_ambient_count_examples(self):
        # index-p sublattices of Z^2 <-> subgroups of (Z/p)^2 of type (1): p+1
        for p in (2, 3, 5):
            assert gr.ambient_subgroup_count(2, (1,), p) == p + 1
        assert gr.ambient_subgroup_count(2, (1, 1), 2) == 1
        assert gr.ambient_subgroup_count(2, (2, 1), 2) == 3

    def test_ambient_count_against_explicit_subgroups(self):
        # count subgroups of (Z/p^a)^d of each type by explicit closure
        for p, a, d in [(2, 1, 2), (2, 2, 2), (2, 1, 3), (3, 1, 2)]:
            model = gr._SmallGroup(p, (a,) * d)
            found: dict = {}
            for sub in all_subgroups(model):
                t = subgroup_type(model, sub)
                found[t] = found.get(t, 0) + 1
            for typ, count in found.items():
                assert gr.ambient_subgroup_count(d, typ, p) == count, (p, a, d, typ)

    def test_rank_overflow_gives_zero(self):
        assert gr.ambient_subgroup_count(2, (1, 1, 1), 2) == 0


class TestAutOrder:
    def test_examples(self):
        for p in (2, 3, 5):
            assert gr.aut_order(gr.AbelianPGroupType.of(p, (1,))) == p - 1
        G = gr.AbelianPGroupType.of(2, (1, 1))
        assert gr.aut_order(G) == 6  # GL_2(F_2)
        G = gr.AbelianPGroupType.of(2, (2, 1))
        # all three routes give 8 for Z/4 x Z/2
        assert gr.aut_order(G, "closed_form") == 8
        assert gr.aut_order(G, "tuple_identity") == 8
        assert gr.aut_order(G, "brute_force") == 8

    def test_known_gl_orders(self):
        # |GL_r(F_p)| for elementary abelian groups
        for p in (2, 3):
            for r in (1, 2, 3):
                expected = 1
                for j in range(r):
                    expected *= p**r - p**j
                G = gr.AbelianPGroupType.of(p, (1,) * r)
                assert gr.aut_order(G) == expected

    def test_closed_vs_tuple_identity_to_size_six(self):
        for p in (2, 3):
            for size in range(7):
                for parts in gr.partitions_of(size):
                    G = gr.AbelianPGroupType.of(p, parts)
                    assert gr.aut_order(G, "closed_form") == gr.aut_order(
                        G, "tuple_identity"
                    ), (p, parts)

    def test_brute_force_small_orders(self):
        for p, emax in [(2, 5), (3, 3)]:
            for size in range(emax + 1):
                for parts in gr.partitions_of(size):
                    G = gr.AbelianPGroupType.of(p, parts)
                    assert gr.aut_order(G, "brute_force") == gr.aut_order(G), (p, parts)

    def test_brute_force_cap(self):
        with pytest.raises(ResourceLimitError):
            gr.aut_order(gr.AbelianPGroupType.of(2, (10,)), "brute_force", max_order=64)

    def test_table_cap_refuses_before_building(self):
        # order 2^13 is under max_order, but its addition table would hold 2^26 entries
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError):
            gr.aut_order(gr.AbelianPGroupType.of(2, (13,)), "brute_force", max_order=10**9)
        assert time.perf_counter() - start < 1

    def test_work_cap_refuses_promptly(self):
        # F_2^7 is under the order cap, but its third step would try 2,667
        # planes x 127 vectors; F_2^6 peaks at 1,395 x 63 and still runs
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError):
            gr.aut_order(gr.AbelianPGroupType.of(2, (1,) * 7), "brute_force")
        assert time.perf_counter() - start < 5
        G = gr.AbelianPGroupType.of(2, (1,) * 6)
        assert gr.aut_order(G, "brute_force") == gr.aut_order(G)

    def test_negative_cap_is_bad_input(self):
        G = gr.AbelianPGroupType.of(2, ())
        with pytest.raises(DomainError):
            gr.aut_order(G, "brute_force", max_order=-1)
        with pytest.raises(DomainError):
            gr.embeds_brute_force(gr.AbelianPGroupType.of(2, (1,)), G, max_order=-1)

    def test_unknown_mode(self):
        with pytest.raises(DomainError):
            gr.aut_order(gr.AbelianPGroupType.of(2, (1,)), "magic")


class TestEmbedding:
    def test_examples(self):
        triv = gr.AbelianPGroupType.of(2, ())
        assert gr.embeds(triv, gr.AbelianPGroupType.of(2, (3, 1)))
        assert gr.embeds(triv, gr.AbelianPGroupType.of(5, ()))
        # Z/p^2 does not embed into (Z/p)^2
        assert not gr.embeds(
            gr.AbelianPGroupType.of(2, (2,)), gr.AbelianPGroupType.of(2, (1, 1))
        )
        assert gr.embeds(
            gr.AbelianPGroupType.of(2, (1, 1)), gr.AbelianPGroupType.of(2, (2, 1))
        )

    def test_prime_mismatch(self):
        with pytest.raises(PrimeMismatchError):
            gr.embeds(gr.AbelianPGroupType.of(2, (1,)), gr.AbelianPGroupType.of(3, (1,)))

    def test_criterion_matches_brute_force_order_32(self):
        groups = [
            gr.AbelianPGroupType.of(2, parts)
            for size in range(6)
            for parts in gr.partitions_of(size)
        ]
        for G in groups:
            for H in groups:
                if H.order > G.order:
                    continue
                assert gr.embeds(H, G) == gr.embeds_brute_force(H, G), (
                    H.lam.parts,
                    G.lam.parts,
                )

    @PROPERTY
    @given(st.data())
    def test_criterion_matches_brute_force_p3_order_81(self, data):
        types = [gr.AbelianPGroupType.of(3, parts)
                 for size in range(5) for parts in gr.partitions_of(size)]
        H, G = data.draw(st.sampled_from(types)), data.draw(st.sampled_from(types))
        assert gr.embeds(H, G) == gr.embeds_brute_force(H, G)


class TestGeneratingTuples:
    def test_rank_one_examples(self):
        for p in (2, 3, 5):
            assert gr.count_generating_tuples(1, p, (1,), "brute") == p - 1
            assert gr.count_generating_tuples(1, p, (1,), "closed") == p - 1
        assert gr.count_generating_tuples(2, 2, (1,), "brute") == 3
        assert gr.count_generating_tuples(2, 2, (1, 1), "brute") == 6
        assert gr.count_generating_tuples(2, 2, (1, 1), "closed") == 6

    def test_brute_matches_closed_form_grid(self):
        for p in (2, 3):
            for d in (1, 2, 3):
                for size in range(1, d + 1):
                    for parts in gr.partitions_of(size, max_parts=d, max_part=2):
                        # (Z/9)^3 has 729 elements, past the default cap of 512
                        brute = gr.count_generating_tuples(d, p, parts, "brute",
                                                           max_order=3**6)
                        closed = gr.count_generating_tuples(d, p, parts, "closed")
                        assert brute == closed, (p, d, parts)

    @PROPERTY
    @given(st.sampled_from(TUPLE_CASES_TO_729))
    def test_brute_matches_closed_form_to_order_729(self, case):
        p, d, lam = case
        try:
            brute = gr.count_generating_tuples(d, p, lam, "brute", max_order=729)
        except ResourceLimitError:
            reject()  # past the work cap
        assert brute == gr.count_generating_tuples(d, p, lam, "closed")

    def test_resource_limit(self):
        with pytest.raises(ResourceLimitError):
            gr.count_generating_tuples(3, 5, (2, 2, 2), "brute", max_order=100)

    def test_validation(self):
        with pytest.raises(DomainError):
            gr.count_generating_tuples(2, 2, (1, 2))
        with pytest.raises(DomainError):
            gr.count_generating_tuples(1, 2, (1, 1))
        with pytest.raises(DomainError):
            gr.count_generating_tuples(1, 4, (1,))
        with pytest.raises(DomainError):
            gr.count_generating_tuples(1, 2, (1,), "auto")


class TestCohenLenstraMass:
    # every type of order <= p^4 at six primes: 72 cases
    CASES = [(p, parts) for p in (2, 3, 5, 7, 11, 101)
             for size in range(5) for parts in gr.partitions_of(size)]

    def test_trivial_group_normalization(self):
        lo, hi = gr.cohen_lenstra_mass(gr.AbelianPGroupType.of(2, ()))
        assert abs(hi - Fraction("0.2887880951")) < 1e-9
        assert hi - lo == hi / 2**64

    def test_bracket_contains_the_mass(self):
        # the oracle needs 2000 bits: at p = 101 the bracket is about 2^-433 wide
        assert len(self.CASES) == 72
        with mp.workprec(2000):
            for p, parts in self.CASES:
                G = gr.AbelianPGroupType.of(p, parts)
                lo, hi = gr.cohen_lenstra_mass(G)
                assert lo < hi and (hi - lo) / hi <= Fraction(1, 2**64), (p, parts)
                q = mpf(1) / p
                mass = mp.qp(q, q) / gr.aut_order(G)
                assert mpf(lo.numerator) / lo.denominator < mass, (p, parts)
                assert mass < mpf(hi.numerator) / hi.denominator, (p, parts)

    def test_mass_ratio_exact(self):
        G = gr.AbelianPGroupType.of(2, (2, 1))
        H = gr.AbelianPGroupType.of(2, (1, 1))
        (lo_g, hi_g), (lo_h, hi_h) = gr.cohen_lenstra_mass(G), gr.cohen_lenstra_mass(H)
        ratio = Fraction(gr.aut_order(H), gr.aut_order(G))
        assert hi_g / hi_h == lo_g / lo_h == ratio

    def test_partial_sums_increase_below_one(self):
        p = 2
        prev = Fraction(0)
        _, hi = gr.cohen_lenstra_mass(gr.AbelianPGroupType.of(p, ()))
        for bound in range(5):  # groups of order <= p^bound
            total = Fraction(0)
            for size in range(bound + 1):
                for parts in gr.partitions_of(size):
                    total += Fraction(1, gr.aut_order(gr.AbelianPGroupType.of(p, parts)))
            # times the normalizing product, the masses must stay below 1
            assert total * hi < 1
            assert total > prev
            prev = total


class TestRankDMass:
    def test_trivial_group(self):
        for p, d in [(2, 1), (2, 2), (3, 3)]:
            expected = Fraction(1)
            for j in range(1, d + 1):
                expected *= 1 - Fraction(1, p**j)
            G = gr.AbelianPGroupType.of(p, ())
            assert gr.rank_d_mass(G, d) == expected

    def test_rank_one_d_one(self):
        for p in (2, 3, 5):
            G = gr.AbelianPGroupType.of(p, (1,))
            expected = (1 - Fraction(1, p)) ** 2 / (p - 1)
            assert gr.rank_d_mass(G, 1) == expected

    def test_rank_exceeds_d(self):
        with pytest.raises(RankExceedsDimensionError):
            gr.rank_d_mass(gr.AbelianPGroupType.of(2, (1, 1)), 1)

    def test_partial_sums_monotone_to_one(self):
        values = [sum(gr.rank_d_masses(2, 2, B).values()) for B in range(1, 11)]
        assert all(values[i] < values[i + 1] for i in range(len(values) - 1))
        assert all(v < 1 for v in values)
        # exact thresholds: 0.99749 at B=8 (not 0.999), 0.99937 at B=10
        assert values[7] > Fraction(997, 1000)
        assert values[7] < Fraction(999, 1000)
        assert values[9] > Fraction(999, 1000)

    def test_sums_to_one_over_all_ranks(self):
        # at d=1 the full sum over cyclic groups is geometric and exactly 1
        p = 2
        total = gr.rank_d_mass(gr.AbelianPGroupType.of(p, ()), 1)
        for a in range(1, 60):
            total += gr.rank_d_mass(gr.AbelianPGroupType.of(p, (a,)), 1)
        assert abs(float(total) - 1.0) < 1e-15
