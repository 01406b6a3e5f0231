"""Tests for the Monte Carlo laboratory and the exact probability helpers."""

import functools
import hashlib
import itertools
import json
import math
import os
import runpy
import time
from bisect import bisect_right
from collections import Counter
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from cotype import simulate as sim
from cotype import zeta as zt
from cotype.errors import CAPS, DomainError, LabelMismatchError, ResourceLimitError
from cotype.groups import AbelianPGroupType, partitions_of, rank_d_mass
from cotype.lattices import (
    HermiteBasis, cotype_of, enumerate_hnf, hermite_diagonals, hermite_matrix, p_part,
    tally_cotypes)
from cotype.primes import is_prime
from cotype.workers import FORK_WORK_PER_PROCESS

from helpers import rank_mod_p, run_cli, snf_oracle, trial_rng


@functools.cache
def sampler_and_cumulative_counts(d, X):
    return (sim.SublatticeSampler(d, X),
            list(itertools.accumulate(zt.dirichlet_coefficients_upto(d, X))))


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

    @pytest.mark.parametrize("field", [
        "d", "trials", "master_seed", "p", "entry_bound", "index_bound"])
    def test_refuses_a_bool_or_non_int(self, field):
        base = dict(d=2, trials=10, master_seed=1, p=2, entry_bound=2)
        if field == "index_bound":
            base = dict(base, entry_bound=None)
        for bad in (True, 1.5, 2.0, "3"):
            with pytest.raises(DomainError, match=field):
                sim.SampleConfig(**dict(base, **{field: bad}))

    def test_refuses_a_non_bool_exhaustive(self):
        for bad in ("no", 0, 1, None):
            with pytest.raises(DomainError, match="exhaustive"):
                sim.SampleConfig(d=1, trials=5, master_seed=0, p=2, entry_bound=1,
                                 exhaustive=bad)

    def test_negative_seed_is_valid(self):
        assert matrix_cfg(master_seed=-5).master_seed == -5

    def test_json(self):
        doc = asdict(matrix_cfg())
        assert doc["entry_bound"] == 100 and doc["index_bound"] is None
        assert doc["trials"] == 1000 and doc["master_seed"] == 7

    def test_exhaustive_json_records_the_matrices_visited(self):
        cfg = matrix_cfg(d=2, trials=0, entry_bound=1, exhaustive=True)
        assert cfg.matrices == sim.run_matrix_model(cfg).rank_table.trials == 81
        # the config that cli prints records them as its trials, and no seed
        proc = run_cli("simulate", "matrix", "-d", "2", "-k", "1", "-p", "2",
                       "-n", "0", "--seed", "7", "--exhaustive")
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)["config"]
        assert doc == dict(asdict(cfg), trials=81, master_seed=None)


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

    # A config past a cap cannot be built, so no run or draw of it can start.
    def test_exhaustive_cap(self):
        with pytest.raises(ResourceLimitError):
            sim.SampleConfig(d=2, trials=1, master_seed=0, p=2, entry_bound=50, exhaustive=True)

    def test_dimension_cap(self):
        with pytest.raises(ResourceLimitError):
            matrix_cfg(d=CAPS["matrix_dim"] + 1, trials=1)
        with pytest.raises(ResourceLimitError):
            sim.SampleConfig(d=CAPS["matrix_dim"] + 1, trials=1, master_seed=0, p=2,
                             index_bound=50)

    def test_work_cap(self):
        # trials * max(d, 3)^3 past the cap is refused before the first draw,
        # in both models
        over = CAPS["trial_work"] // 27 + 1
        for kw in (dict(d=2, trials=over, entry_bound=100),
                   dict(d=3, trials=over, index_bound=50),
                   dict(d=20, trials=CAPS["trial_work"] // 8000 + 1, entry_bound=100)):
            with pytest.raises(ResourceLimitError):
                sim.SampleConfig(master_seed=0, p=2, **kw)
        assert next(sim.sample_cokernel_type(matrix_cfg(d=2, trials=over - 1)))

    def test_entry_bound_cap(self):
        with pytest.raises(ResourceLimitError):
            matrix_cfg(d=20, trials=2, entry_bound=2 ** CAPS["entry_bits"])
        assert next(sim.sample_cokernel_type(
            matrix_cfg(d=20, trials=2, entry_bound=2 ** CAPS["entry_bits"] - 1)))

    def test_work_cap_admits_every_documented_run(self):
        # the simulate commands of the README and of the benchmark workloads
        root = Path(__file__).resolve().parents[1]
        workloads = runpy.run_path(str(root / "perfbench" / "workloads.py"))["WORKLOADS"]
        lines = [c.key for w in workloads.values() for c in w.commands]
        lines += [ln.split("cotype ", 1)[1] for ln in
                  (root / "README.md").read_text().splitlines() if ln.startswith("cotype ")]
        runs = [ln.split("#")[0].split() for ln in lines if ln.startswith("simulate")]
        runs = [argv for argv in runs if "--exhaustive" not in argv]
        assert len(runs) >= 6
        for argv in runs:
            n = int(argv[argv.index("-n") + 1]) if "-n" in argv else 10000
            d = int(argv[argv.index("-d") + 1])
            assert n * max(d, 3) ** 3 <= CAPS["trial_work"], argv

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


# k = 1; k = 2^j - 1, where a draw is rarely rejected; k = 2^j, where about
# half the draws are; k > 2^31, where getrandbits spans several 32-bit words
ENTRY_BOUNDS = st.one_of(
    st.just(1),
    st.integers(1, 40).map(lambda j: 2**j - 1),
    st.integers(0, 40).map(lambda j: 2**j),
    st.integers(2**31 + 1, 2**80),
)
SEEDS = st.integers(-(10**20), 10**20)


class TestFastDrawMatchesReference:
    """`_matrices` against a fresh random.Random and randrange per trial."""

    @settings(max_examples=150, derandomize=True, deadline=None, database=None)
    @given(SEEDS, st.integers(1, 60), st.integers(1, 4), ENTRY_BOUNDS)
    @example(7, 50, 2, 1)
    @example(7, 50, 2, 2**15 - 1)
    @example(7, 50, 2, 2**15)
    @example(-3, 50, 3, 5 * 10**9)
    def test_matrix_model(self, seed, trials, d, k):
        cfg = matrix_cfg(d=d, trials=trials, master_seed=seed, entry_bound=k)
        expected = []
        for t in range(trials):
            rng = trial_rng(seed, t)
            expected.append([[rng.randrange(-k, k + 1) for _ in range(d)]
                             for _ in range(d)])
        assert list(sim._matrices(cfg)) == expected

    @settings(max_examples=60, derandomize=True, deadline=None, database=None)
    @given(SEEDS, st.integers(1, 60), st.integers(1, 3), st.integers(2, 400))
    @example(7, 50, 3, 5000)  # N_3(5000) has 37 bits: multi-word draws
    @example(7, 50, 1, 2)  # a single sublattice: every draw is code 0
    @example(7, 50, 1, 65)  # N_1(65) = 2^6: 7-bit draws, about half rejected
    def test_sublattice_model(self, seed, trials, d, X):
        cfg = sim.SampleConfig(d=d, trials=trials, master_seed=seed, p=2, index_bound=X)
        sampler = sim.SublatticeSampler(d, X)
        expected = [sampler.rows_at(trial_rng(seed, t).randrange(sampler.total))
                    for t in range(trials)]
        assert list(sim._matrices(cfg)) == expected


# At d = 6, with work enough for three processes: small entries give singular
# draws (the free part) and many types, and X = 300 many indices.
SPLIT_TRIALS = 3 * FORK_WORK_PER_PROCESS // 6**3 + 1
SPLIT_RUNS = {
    "matrix": ("-k", 2, dict(entry_bound=2)),
    "sublattice": ("-X", 300, dict(index_bound=300)),
}


class TestParallelTrials:
    """A run split over 1, 2 or 3 processes gives the tables of one pass."""

    @pytest.fixture
    def cpus(self, monkeypatch):
        """Set the affinity the split sees; return the list of forked pids."""
        forked = []
        fork = os.fork

        def counting_fork():
            pid = fork()
            if pid:
                forked.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", counting_fork)

        def use(n):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
            forked.clear()
            return forked

        return use

    @pytest.mark.parametrize("model", sorted(SPLIT_RUNS))
    def test_tables_and_stdout_do_not_depend_on_the_cpu_count(self, model, cpus):
        flag, bound, kw = SPLIT_RUNS[model]
        cfg = sim.SampleConfig(d=6, trials=SPLIT_TRIALS, master_seed=3, p=2, **kw)
        argv = ["simulate", model, "-d", "6", flag, str(bound), "-p", "2",
                "-n", str(SPLIT_TRIALS), "--seed", "3"]
        run = sim.run_matrix_model if model == "matrix" else sim.run_sublattice_model
        tables, digests = [], set()
        for n in (1, 2, 3):
            forked = cpus(n)
            res = run(cfg)
            assert len(forked) == n - 1
            tables.append((asdict(res.type_table), asdict(res.rank_table)))
            proc = run_cli(*argv)
            assert proc.returncode == 0
            assert len(forked) == 2 * (n - 1)
            digests.add(hashlib.sha256(proc.stdout.encode()).hexdigest())
        assert tables[0] == tables[1] == tables[2] and len(digests) == 1
        assert res.type_table.counts.get(sim.FREE_LABEL, 0) > 0 or model == "sublattice"

    def test_small_runs_stay_serial(self, cpus):
        forked = cpus(2)
        sim.run_matrix_model(matrix_cfg(d=6, trials=2 * FORK_WORK_PER_PROCESS // 216 - 1))
        assert forked == []

    @pytest.mark.parametrize("failing", ["worker", "parent"])
    def test_a_failure_raises_and_reaps_every_worker(self, failing, cpus, monkeypatch):
        count = sim._count

        def failing_count(cfg, trials, sampler):
            if (trials.start > 0) == (failing == "worker"):
                raise ValueError("injected")
            return count(cfg, trials, sampler)

        monkeypatch.setattr(sim, "_count", failing_count)
        forked = cpus(3)
        with pytest.raises(RuntimeError if failing == "worker" else ValueError):
            sim.run_matrix_model(matrix_cfg(d=6, trials=SPLIT_TRIALS))
        assert len(forked) == 2
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_ranges_concatenate_to_the_whole_run(self):
        for cfg in (matrix_cfg(trials=30),
                    sim.SampleConfig(d=3, trials=30, master_seed=1, p=2, index_bound=40),
                    matrix_cfg(d=1, entry_bound=3, trials=0, exhaustive=True)):
            sampler = sim._prepare(cfg)
            cuts = [0, 4, 4, 17, cfg.matrices]
            parts = [m for a, b in zip(cuts, cuts[1:])
                     for m in sim._matrices(cfg, range(a, b), sampler)]
            assert parts == list(sim._matrices(cfg))


class TestIndexShortcut:
    """The sublattice model tallies the draws with v_p(n) <= 1 from their index."""

    @settings(max_examples=60, derandomize=True, deadline=None, database=None)
    @given(SEEDS, st.integers(1, 60), st.integers(1, 4), st.integers(2, 400),
           st.sampled_from([2, 3, 5, None]))
    @example(7, 50, 3, 5000, 2)
    @example(7, 50, 1, 2, 2)
    @example(7, 50, 1, 2, None)
    def test_count_matches_the_smith_oracle(self, seed, trials, d, X, p):
        # p = None draws a prime >= X, which divides no index: every draw skips
        p = p or next(q for q in itertools.count(X) if is_prime(q))
        cfg = sim.SampleConfig(d=d, trials=trials, master_seed=seed, p=p, index_bound=X)
        seen, work = sim._count(cfg, range(trials), sim._prepare(cfg))
        # the joint tally, which gives both the rank and the type tables
        assert seen == Counter((sf.free_rank, parts) for sf, parts in sim.sample_cokernel_type(cfg))
        assert work["trials"] == trials

    @pytest.mark.parametrize("d, X, p", [(3, 5000, 2), (2, 300, 3), (4, 200, 2), (1, 50, 2)])
    def test_smith_forms_only_where_p_squared_divides_the_index(self, d, X, p, monkeypatch):
        cfg = sim.SampleConfig(d=d, trials=3000, master_seed=5, p=p, index_bound=X)
        index_p2 = sum(math.prod(m[i][i] for i in range(d)) % (p * p) == 0
                       for m in sim._matrices(cfg))
        calls = []
        smith = sim.smith_normal_form

        def counting(m):
            calls.append(m)
            return smith(m)

        monkeypatch.setattr(sim, "smith_normal_form", counting)
        work = sim._count(cfg, range(cfg.trials), sim._prepare(cfg))[1]
        assert len(calls) == work["smith_forms"] == index_p2 < cfg.trials


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
        cts = [cotype_of(sampler.basis_at(i)) for i in range(4)]
        assert sorted(cts).count((2, 1)) == 3  # P(cotype (2,1)) = 3/4
        assert sorted(cts).count((1, 1)) == 1

    def test_exact_distribution_x5(self):
        sampler = sim.SublatticeSampler(2, 5)
        assert sampler.total == 15
        cts = [cotype_of(sampler.basis_at(i)) for i in range(15)]
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
        proc = run_cli("simulate", "sublattice", "-d", "3", "-X", "300", "-p", "2",
                       "-n", "3000", "--seed", "7", timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert hashlib.sha256(proc.stdout.encode()).hexdigest() == (
            "a5e114ae83ddf7e5f676787a74404a2f8963066c50b1b12e4d4a8b5731f8d8fb")

    def test_d4_run_is_pinned(self):
        # captured with the diagonal-table decode, its dimension cap lifted
        proc = run_cli("simulate", "sublattice", "-d", "4", "-X", "200", "-p", "3",
                       "-n", "2000", "--seed", "11", timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert hashlib.sha256(proc.stdout.encode()).hexdigest() == (
            "04cf606af8c7abd1b4d7925fabd7d620e58b7990a775ebbec7c113700198b6c9")

    @pytest.mark.parametrize("d, X", [(1, 30), (2, 30), (3, 13), (4, 13), (5, 9)])
    def test_decode_matches_enumeration(self, d, X):
        # the decode order, not just the decoded set: codes run through the
        # indices, then each index's bases in the order of enumerate_hnf
        sampler = sim.SublatticeSampler(d, X)
        assert [sampler.rows_at(c) for c in range(sampler.total)] == [
            b.matrix() for n in range(1, X) for b in enumerate_hnf(d, n)]

    @pytest.mark.parametrize("d, X", [(3, 5000), (6, 2000)])
    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @given(data=st.data())
    def test_decode_matches_diagonal_tables(self, d, X, data):
        # the diagonal-table decode as oracle: the index by the cumulative
        # counts, the diagonal by bisecting hermite_diagonals' offsets, then
        # the digits by hermite_matrix
        sampler, cum = sampler_and_cumulative_counts(d, X)
        code = data.draw(st.integers(0, sampler.total - 1), label="code")
        n = bisect_right(cum, code)
        off = code - cum[n - 1]
        diags, offsets = hermite_diagonals(d, n)
        i = bisect_right(offsets, off) - 1
        assert sampler.rows_at(code) == hermite_matrix(diags[i], off - offsets[i])

    def test_sampler_builds_no_diagonal_table(self):
        hermite_diagonals.cache_clear()
        sim.run_sublattice_model(
            sim.SampleConfig(d=3, trials=500, master_seed=7, p=2, index_bound=500))
        assert hermite_diagonals.cache_info().misses == 0

    def test_d1_uniform_over_indices(self):
        sampler = sim.SublatticeSampler(1, 6)
        assert sampler.total == 5
        assert [sampler.basis_at(i).rows for i in range(5)] == [
            ((n,),) for n in range(1, 6)
        ]

    def test_resource_caps(self):
        with pytest.raises(ResourceLimitError):
            sim.SublatticeSampler(CAPS["matrix_dim"] + 1, 100)
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
                key = p_part(ct, 2)
                frac = Fraction(c, tally.total)
                if key in emp:
                    emp[key] += frac
                else:
                    emp["other"] += frac
            tvs.append(float(sum(abs(emp[k] - theory[k]) for k in theory)) / 2)
        assert tvs[0] > tvs[1] > tvs[2]
        assert tvs[-1] < 0.01


class TestContainment:
    def test_refuses_past_the_sampler_caps(self):
        start = time.perf_counter()
        L = HermiteBasis(((2, 0, 0), (0, 1, 0), (0, 0, 1)))
        with pytest.raises(ResourceLimitError):
            sim.containment_probability_exact(3, L, 3 * 10**5)
        d = CAPS["matrix_dim"] + 1
        with pytest.raises(ResourceLimitError):
            sim.containment_probability_exact(d, HermiteBasis([[int(i == j) for j in range(d)]
                                                               for i in range(d)]), 100)
        assert time.perf_counter() - start < 1

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("X", [2, 3, 12, 97, 400])
    def test_matches_the_convolution_oracle(self, d, X):
        # the count below X/D over the count below X, from the Dirichlet
        # coefficients; D runs past X, where the probability is exactly 0
        c = zt.dirichlet_coefficients_upto(d, X)
        for D in (1, 2, 3, 4, 12, 97, 400, 1000):
            L = HermiteBasis([[D if i == j == 0 else int(i == j) for j in range(d)]
                              for i in range(d)])
            K = (X - 1) // D
            assert sim.containment_probability_exact(d, L, X) == Fraction(
                sum(c[1 : K + 1]), sum(c[1:X])), D

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
