"""Tests for the Monte Carlo laboratory and the exact probability helpers."""

import hashlib
import math
import subprocess
import sys
from fractions import Fraction

import pytest

from cotype import simulate as sim
from cotype import zeta as zt
from cotype.errors import DomainError, LabelMismatchError, ResourceLimitError
from cotype.groups import AbelianPGroupType, partitions_of, rank_d_mass
from cotype.lattices import HermiteBasis, cotype_of, enumerate_hnf, tally_cotypes

from helpers import rank_mod_p, snf_oracle


def matrix_cfg(**kw):
    base = dict(d=2, trials=1000, master_seed=7, p=2, entry_bound=100)
    base.update(kw)
    return sim.SampleConfig(**base)


class TestConfig:
    def test_exactly_one_model(self):
        with pytest.raises(DomainError):
            sim.SampleConfig(d=2, trials=10, master_seed=0, p=2)
        with pytest.raises(DomainError):
            sim.SampleConfig(d=2, trials=10, master_seed=0, p=2,
                             entry_bound=5, index_bound=50)

    def test_each_run_takes_its_own_model(self):
        with pytest.raises(DomainError):
            sim.run_sublattice_model(matrix_cfg())
        with pytest.raises(DomainError):
            sim.run_matrix_model(
                sim.SampleConfig(d=2, trials=10, master_seed=0, p=2, index_bound=50))

    def test_exhaustive_needs_the_matrix_model(self):
        with pytest.raises(DomainError):
            sim.SampleConfig(d=2, trials=10, master_seed=0, p=2,
                             index_bound=50, exhaustive=True)

    def test_json(self):
        cfg = matrix_cfg()
        doc = cfg.to_json_dict()
        assert doc["entry_bound"] == 100 and doc["index_bound"] is None
        assert doc["trials"] == 1000 and doc["master_seed"] == 7

    def test_exhaustive_json_records_the_matrices_visited(self):
        cfg = matrix_cfg(d=2, trials=0, entry_bound=1, exhaustive=True)
        assert cfg.matrices == 81
        doc = cfg.to_json_dict()
        assert doc["trials"] == sim.run_matrix_model(cfg).rank_table.trials == 81
        assert doc["master_seed"] is None


class TestReproducibility:
    def test_same_config_same_tables(self):
        a = sim.run_matrix_model(matrix_cfg())
        b = sim.run_matrix_model(matrix_cfg())
        assert a.type_table.counts == b.type_table.counts
        assert a.rank_table.counts == b.rank_table.counts

    def test_sublattice_stream_reproducible(self):
        cfg = sim.SampleConfig(d=2, trials=64, master_seed=11, p=2, index_bound=40)
        a = list(sim.sample_cokernel_type(cfg))
        b = list(sim.sample_cokernel_type(cfg))
        assert a == b
        assert all(sf.free_rank == 0 and sf.rank == 2 for sf, _ in a)


class TestMatrixModel:
    def test_exhaustive_d1_k1(self):
        cfg = sim.SampleConfig(d=1, trials=1, master_seed=0, p=2,
                               entry_bound=1, exhaustive=True)
        res = sim.run_matrix_model(cfg)
        assert res.type_table.trials == 3
        assert res.type_table.counts[sim.type_label(())] == 2  # P(trivial) = 2/3
        assert res.type_table.counts[sim.FREE_LABEL] == 1

    def test_exhaustive_d2_k1_matches_direct_enumeration(self):
        cfg = sim.SampleConfig(d=2, trials=1, master_seed=0, p=2,
                               entry_bound=1, exhaustive=True)
        res = sim.run_matrix_model(cfg)
        # independent oracle: all 81 matrices through the minors-gcd Smith form
        import itertools

        types: dict = {}
        ranks: dict = {sim.rank_label(r): 0 for r in range(3)}
        for flat in itertools.product((-1, 0, 1), repeat=4):
            rows = [list(flat[:2]), list(flat[2:])]
            diag, free = snf_oracle(rows)
            ranks[sim.rank_label(2 - rank_mod_p(rows, 2))] += 1
            if free:
                label = sim.FREE_LABEL
            else:
                parts = []
                for s in diag:
                    v = 0
                    while s % 2 == 0:
                        s //= 2
                        v += 1
                    if v:
                        parts.append(v)
                label = sim.type_label(tuple(sorted(parts, reverse=True)))
            types[label] = types.get(label, 0) + 1
        assert res.type_table.counts == types
        assert res.rank_table.counts == ranks
        assert res.type_table.trials == 81

    def test_exhaustive_cap(self):
        cfg = sim.SampleConfig(d=2, trials=1, master_seed=0, p=2,
                               entry_bound=50, exhaustive=True)
        with pytest.raises(ResourceLimitError):
            sim.run_matrix_model(cfg)

    def test_dimension_cap(self):
        cfg = matrix_cfg(d=sim.MAX_MATRIX_DIM + 1, trials=1)
        with pytest.raises(ResourceLimitError):
            sim.run_matrix_model(cfg)
        with pytest.raises(ResourceLimitError):
            next(sim.sample_cokernel_type(cfg))

    def test_p_rank_matches_mod_p_elimination(self):
        cfg = matrix_cfg(trials=300, entry_bound=30, master_seed=3)
        ranks: dict = {sim.rank_label(r): 0 for r in range(3)}
        for rows in sim._matrices(cfg):
            ranks[sim.rank_label(2 - rank_mod_p(rows, 2))] += 1
        res = sim.run_matrix_model(cfg)
        assert res.rank_table.counts == ranks

    def test_rank_bands_at_moderate_scale(self):
        cfg = matrix_cfg(trials=20000, entry_bound=1000, master_seed=42)
        res = sim.run_matrix_model(cfg)
        for m in (0, 1, 2):
            emp = float(res.rank_at_most_freq(m))
            exact = float(zt.cokernel_rank_density_local(2, 2, m))
            sigma = math.sqrt(exact * (1 - exact) / cfg.trials) if exact < 1 else 0.0
            assert abs(emp - exact) <= 4 * sigma + 1e-12, (m, emp, exact)

    def test_stream_smith_forms(self):
        cfg = matrix_cfg(trials=50)
        for sf, parts in sim.sample_cokernel_type(cfg):
            assert sf.free_rank + len(sf.diag) == 2
            assert all(parts[i] >= parts[i + 1] for i in range(len(parts) - 1))


class TestTvTrendInEntryBound:
    def test_tv_decreases_as_k_grows(self):
        theory = {}
        total = Fraction(0)
        for size in range(7):
            for parts in partitions_of(size, max_parts=2, max_part=3):
                mass = rank_d_mass(AbelianPGroupType.of(2, parts), 2)
                theory[sim.type_label(parts)] = mass
                total += mass
        theory[sim.OTHER_LABEL] = 1 - total
        keep = [k for k in theory if k != sim.OTHER_LABEL]
        trials = 100000
        tvs = []
        for k in (10, 100, 1000, 10000):
            cfg = matrix_cfg(trials=trials, entry_bound=k, master_seed=5)
            res = sim.run_matrix_model(cfg)
            cmp = sim.compare_to_theory(res.type_table.bucketed(keep), theory)
            tvs.append(cmp.tv_distance)
        # the k=10 entry bias dominates; later steps sit at the noise floor
        slack = 2 * sum(
            math.sqrt(float(p) * (1 - float(p)) / trials) for p in theory.values()
        )
        assert tvs[0] > tvs[-1]
        for a, b in zip(tvs, tvs[1:]):
            assert b <= a + slack


class TestUniformSublattices:
    def test_exact_distribution_x3(self):
        sampler = sim.SublatticeSampler(2, 3)
        assert sampler.total == 4
        cts = [cotype_of(sampler.basis_at(i)).alpha for i in range(4)]
        assert sorted(cts).count((2, 1)) == 3  # P(cotype (2,1)) = 3/4
        assert sorted(cts).count((1, 1)) == 1

    def test_exact_distribution_x5(self):
        sampler = sim.SublatticeSampler(2, 5)
        assert sampler.total == 15
        cts = [cotype_of(sampler.basis_at(i)).alpha for i in range(15)]
        assert cts.count((2, 2)) == 1  # exactly one of the fifteen
        tally = tally_cotypes(2, 5)
        for alpha in set(cts):
            assert cts.count(alpha) == tally.count(alpha)

    def test_decode_is_bijective(self):
        sampler = sim.SublatticeSampler(3, 7)
        seen = {sampler.basis_at(i).rows for i in range(sampler.total)}
        assert len(seen) == sampler.total

    def test_decode_order_is_pinned(self):
        # the code -> basis map behind every seeded `simulate sublattice` run
        sampler = sim.SublatticeSampler(2, 5)
        assert [sampler.basis_at(i).rows for i in range(sampler.total)] == [
            ((1, 0), (0, 1)),
            ((1, 0), (0, 2)), ((2, 0), (0, 1)), ((2, 1), (0, 1)),
            ((1, 0), (0, 3)), ((3, 0), (0, 1)), ((3, 1), (0, 1)), ((3, 2), (0, 1)),
            ((1, 0), (0, 4)), ((2, 0), (0, 2)), ((2, 1), (0, 2)),
            ((4, 0), (0, 1)), ((4, 1), (0, 1)), ((4, 2), (0, 1)), ((4, 3), (0, 1)),
        ]
        proc = subprocess.run(
            [sys.executable, "-m", "cotype.cli", "simulate", "sublattice", "-d", "3",
             "-X", "300", "-p", "2", "-n", "3000", "--seed", "7"],
            capture_output=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert hashlib.sha256(proc.stdout).hexdigest() == (
            "a5e114ae83ddf7e5f676787a74404a2f8963066c50b1b12e4d4a8b5731f8d8fb")

    @pytest.mark.parametrize("d, X", [(1, 30), (2, 30), (3, 13)])
    def test_decode_matches_enumeration(self, d, X):
        sampler = sim.SublatticeSampler(d, X)
        decoded: dict = {}
        for code in range(sampler.total):
            basis = sampler.basis_at(code)
            decoded.setdefault(basis.index, set()).add(basis.rows)
        assert decoded == {n: {b.rows for b in enumerate_hnf(d, n)} for n in range(1, X)}

    def test_d1_uniform_over_indices(self):
        sampler = sim.SublatticeSampler(1, 6)
        assert sampler.total == 5
        assert [sampler.basis_at(i).rows for i in range(5)] == [
            ((n,),) for n in range(1, 6)
        ]

    def test_resource_caps(self):
        with pytest.raises(ResourceLimitError):
            sim.SublatticeSampler(4, 100)
        with pytest.raises(ResourceLimitError):
            sim.SublatticeSampler(2, 10**5)

    def test_model_run_counts(self):
        cfg = sim.SampleConfig(d=2, trials=4000, master_seed=9, p=2, index_bound=500)
        res = sim.run_sublattice_model(cfg)
        assert res.type_table.trials == 4000
        # P(2-part trivial) -> (1-1/2)(1-1/4) = 3/8 as X grows
        triv = res.type_table.counts.get(sim.type_label(()), 0) / 4000
        assert abs(triv - 3 / 8) < 0.05

    def test_exact_type_distribution_approaches_rank_d_mass(self):
        # deterministic trend: the exact tally distribution of 2-parts converges
        # to the rank-bounded mass function as X grows
        theory = {}
        total = Fraction(0)
        for size in range(9):
            for parts in partitions_of(size, max_parts=2, max_part=4):
                mass = rank_d_mass(AbelianPGroupType.of(2, parts), 2)
                theory[parts] = mass
                total += mass
        theory["other"] = 1 - total
        tvs = []
        for X in (60, 400, 2500):
            tally = tally_cotypes(2, X)
            emp: dict = {k: Fraction(0) for k in theory}
            for ct, c in tally.counts.items():
                key = ct.p_part(2)
                frac = Fraction(c, tally.total)
                if key in emp:
                    emp[key] += frac
                else:
                    emp["other"] += frac
            tvs.append(float(sum(abs(emp[k] - theory[k]) for k in theory)) / 2)
        assert tvs[0] > tvs[1] > tvs[2]
        assert tvs[-1] < 0.01


class TestContainment:
    def test_exact_one_half(self):
        L = HermiteBasis(((2,),))
        assert sim.containment_probability_exact(1, L, 11) == Fraction(1, 2)

    def test_zero_when_x_at_most_d(self):
        L = HermiteBasis(((2, 0), (0, 2)))  # index 4
        assert sim.containment_probability_exact(2, L, 4) == 0
        assert sim.containment_probability_exact(2, L, 3) == 0

    def test_two_lattice_near_one_sixteenth(self):
        L = HermiteBasis(((2, 0), (0, 2)))
        v = sim.containment_probability_exact(2, L, 1000)
        assert abs(float(v) - 1 / 16) < 0.05 / 16

    def test_rate_constant_under_ten(self):
        # |P - 1/D^2| * X * D / log X stays below the acceptance constant
        for D in (2, 3, 4):
            L = HermiteBasis(((D, 0), (0, 1)))
            for X in (100, 1000, 10000):
                v = sim.containment_probability_exact(2, L, X)
                err = abs(float(v) - 1 / D**2)
                assert err * X * D / math.log(X) < 10, (D, X, err)

    def test_depends_only_on_index(self):
        # the bijection argument: any index-4 sublattice has the same probability
        a = sim.containment_probability_exact(2, HermiteBasis(((2, 0), (0, 2))), 500)
        b = sim.containment_probability_exact(2, HermiteBasis(((4, 3), (0, 1))), 500)
        assert a == b


class TestEmbedProbability:
    def test_trivial_group(self):
        G = AbelianPGroupType.of(2, ())
        assert sim.embed_probability_exact(2, G, 50) == 1

    def test_z2_embedding_approaches_five_eighths(self):
        G = AbelianPGroupType.of(2, (1,))
        v = sim.embed_probability_exact(2, G, 1000)
        assert abs(float(v) - 5 / 8) < 0.02

    def test_rank_two_embedding_trend(self):
        G = AbelianPGroupType.of(2, (1, 1))
        limit = 1 / 16  # P(2-rank of the quotient is 2)
        errs = [
            abs(float(sim.embed_probability_exact(2, G, X)) - limit)
            for X in (100, 400, 1600)
        ]
        assert errs[-1] < errs[0]
        assert errs[-1] < 0.01


class TestCompareToTheory:
    def test_exact_match_gives_zero_tv(self):
        emp = sim.EmpiricalTable({"a": 30, "b": 70}, 100)
        rep = sim.compare_to_theory(emp, {"a": Fraction(3, 10), "b": Fraction(7, 10)})
        assert rep.tv_distance == 0
        assert rep.verdict
        assert all(r["z"] == 0 for r in rep.per_label)

    def test_label_mismatch(self):
        emp = sim.EmpiricalTable({"a": 1}, 1)
        with pytest.raises(LabelMismatchError):
            sim.compare_to_theory(emp, {"a": 0.5, "b": 0.5})

    def test_z_scores_and_verdict(self):
        emp = sim.EmpiricalTable({"a": 500, "b": 9500}, 10000)
        rep = sim.compare_to_theory(emp, {"a": 0.01, "b": 0.99})
        assert not rep.verdict  # 5% observed vs 1% expected is way past 4 sigma
        za = next(r["z"] for r in rep.per_label if r["label"] == "a")
        assert za > 4

    def test_zero_variance_cells(self):
        emp = sim.EmpiricalTable({"a": 100, "b": 0}, 100)
        rep = sim.compare_to_theory(emp, {"a": 1, "b": 0})
        assert rep.verdict and rep.tv_distance == 0

    def test_bucketing(self):
        emp = sim.EmpiricalTable({"x": 5, "y": 3, "z": 2}, 10)
        b = emp.bucketed(["x"])
        assert b.counts == {"x": 5, sim.OTHER_LABEL: 5}
