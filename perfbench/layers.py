"""Per-layer kernels: timed calls into each module's public functions.

Run as a fresh child process (`python3 perfbench/layers.py --seed N --out FILE`),
so that every cache starts empty and "cold" means what it says. Kernels run in
the order of KERNELS; a kernel marked warm relies on caches an earlier kernel
filled. A public name that a later refactor removed makes its metrics absent
rather than crashing the run.

LAYER_METRICS records, for each metric, the end-to-end metric and workload it
should move, and whether its kernel is timed cold or warm.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import random
import statistics
import sys
import time
import traceback
from dataclasses import dataclass

import harness

clock = time.perf_counter


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    cache: str  # how the kernel's caches stand when it is timed
    moves: str  # end-to-end metric (workload) it should move


def _m(name, unit, cache, moves, better="lower"):
    return LayerMetric(name, unit, better, cache, moves)


LAYER_METRICS = (
    _m("primes.primes_upto_1e6_s", "s", "cold: cache_clear() before each call",
       "density_d30_s (analytic)"),
    _m("zeta.corank_density_s", "s", "warm primes_upto; d=30, m=1, cutoff 10^6",
       "density_d30_s (analytic)"),
    _m("zeta.corank_zeta_residue_s", "s", "warm primes_upto; d=30, m=1, cutoff 10^6",
       "density_d30_s (analytic)"),
    _m("zeta.cocyclic_growth_constant_s", "s", "warm primes_upto; d=30, cutoff 10^6",
       "density_d30_s (analytic)"),
    _m("zeta.squarefree_index_density_s", "s", "warm primes_upto; cutoff 10^5",
       "density_d30_s (analytic)"),
    _m("zeta.local_factors_per_s", "1/s", "primes x 3 products / their time",
       "density_d30_s, density_d8_s (analytic)", "higher"),
    _m("zeta.local_factor_d10_s", "s",
       "cold: local_factor, q_binomial, q_factorial caches cleared",
       "print_local_d10_s (analytic)"),
    _m("lattices.tally_d3_s", "s", "cold: first call in the process",
       "tally_d3_s (lattice)"),
    _m("lattices.sublattices_per_s", "1/s", "sum of hnf_count(3, n<200) / tally time",
       "tally_d3_s (lattice)", "higher"),
    _m("lattices.smith_hnf_d3_us", "us", "warm; median over every index-128 HNF, d=3",
       "tally_d3_s (lattice)"),
    _m("lattices.smith_dense_d2_us", "us", "warm; median, seed-7 matrices of matrix_d2",
       "matrix_d2_s (lattice)"),
    _m("lattices.smith_dense_d2_p90_us", "us", "warm; p90, seed-7 matrices of matrix_d2",
       "matrix_d2_s (lattice)"),
    _m("lattices.smith_dense_d6_us", "us", "warm; median, seed-1 matrices of matrix_d6",
       "matrix_d6_s (lattice)"),
    _m("lattices.smith_dense_d6_p90_us", "us", "warm; p90, seed-1 matrices of matrix_d6",
       "matrix_d6_s (lattice)"),
    _m("lattices.smith_dense_d8_us", "us", "warm; median, all 50 matrices of matrix_d8",
       "matrix_d8_s (lattice)"),
    _m("lattices.smith_dense_d8_p90_us", "us", "warm; p90, all 50 matrices of matrix_d8",
       "matrix_d8_s (lattice)"),
    _m("simulate.matrix_trials_per_s_d2", "1/s", "warm; run_matrix_model, k=10000",
       "matrix_d2_s (lattice)", "higher"),
    _m("simulate.matrix_trials_per_s_d6", "1/s", "warm; run_matrix_model, k=100",
       "matrix_d6_s (lattice)", "higher"),
    _m("simulate.matrix_trials_per_s_d8", "1/s", "warm; run_matrix_model, k=1000",
       "matrix_d8_s (lattice)", "higher"),
    _m("simulate.per_trial_overhead_us", "us",
       "per-trial time at d=2 minus the Smith median: RNG and bookkeeping",
       "matrix_d2_s (lattice)"),
    _m("simulate.sampler_init_s", "s", "SublatticeSampler(3, 5000) construction",
       "sublattice_d3_s (lattice)"),
    _m("simulate.basis_at_us", "us", "warm sampler; seeded codes",
       "sublattice_d3_s (lattice)"),
    _m("qcomb.q_binomial_30_ms", "ms", "cold: q_binomial, q_factorial cleared; all i",
       "print_local_d10_s, wall_s (analytic)"),
    _m("qcomb.descent_ie_d9_ms", "ms", "warm q_binomial; every descent set, d=9",
       "print_local_d10_s, wall_s (analytic)"),
    _m("qcomb.descent_perm_d8_ms", "ms",
       "cold: first call in the process builds the permutation table (private cache)",
       "wall_s (analytic)"),
    _m("groups.ambient_subgroup_count_us", "us", "warm q_binomial; mean per call",
       "wall_s (analytic); later tally_d3_s (lattice)"),
    _m("groups.aut_brute_64_s", "s", "no cache; every type of order <= 64, p=2,3",
       "autorder_s (analytic)"),
    _m("groups.rank_d_mass_ms", "ms", "no cache; the d=8, cap-2 theory table",
       "matrix_d8_s (lattice)"),
    # Taken from the traced in-process pass (inproc.py), not from a kernel:
    _m("cli.self_s", "s", "cli.main spans minus the traced layer spans inside them: "
       "argparse, the handler code of cli.py, the JSON dump and output sha256, and "
       "the work of generator functions such as all_descent_sets (counted, not "
       "timed)", "wall_s (every workload)"),
    _m("cli.tracing_overhead_s", "s", "span count of the traced pass times the "
       "cost of one span, measured on a no-op function",
       "none: the cost of the traced run itself"),
)


class Absent(Exception):
    """A public name the kernel needs is not there."""


def public(module: str, name: str):
    """A public attribute of a cotype module; never a private one."""
    if name.startswith("_"):
        raise ValueError(f"{name} is private")
    try:
        return getattr(importlib.import_module(module), name)
    except (ImportError, AttributeError) as exc:
        raise Absent(f"missing public name {module}.{name}") from exc


def clear(fn) -> None:
    """Empty fn's lru_cache, if it still has one."""
    cache_clear = getattr(fn, "cache_clear", None)
    if cache_clear is not None:
        cache_clear()


def timed(fn, *args) -> float:
    t = clock()
    fn(*args)
    return clock() - t


def seeded_matrix(seed: int, trial: int, d: int, k: int) -> list[list[int]]:
    """The trial-th matrix of the matrix model: entries uniform in [-k, k] from a
    generator seeded by sha256("seed:trial"), as `simulate` documents."""
    digest = hashlib.sha256(f"{seed}:{trial}".encode()).digest()
    rng = random.Random(int.from_bytes(digest[:16], "big"))
    return [[rng.randint(-k, k) for _ in range(d)] for _ in range(d)]


class Context:
    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.smoke = smoke
        self.values: dict[str, float] = {}
        self.problems: list[str] = []

    def size(self, full, small):
        return small if self.smoke else full

    def median_of(self, reps: int, fn) -> float:
        return statistics.median([fn() for _ in range(reps if not self.smoke else 1)])


# ---------------------------------------------------------------------------
# Kernels, in run order. Each returns {metric: value}.
# ---------------------------------------------------------------------------


def k_primes(ctx):
    primes_upto = public("cotype.primes", "primes_upto")
    n = ctx.size(10**6, 10**4)

    def once():
        clear(primes_upto)
        return timed(primes_upto, n)

    return {"primes.primes_upto_1e6_s": ctx.median_of(5, once)}


def k_zeta(ctx):
    primes_upto = public("cotype.primes", "primes_upto")
    funcs = {
        "zeta.corank_density_s": (public("cotype.zeta", "corank_density"), (1,)),
        "zeta.corank_zeta_residue_s": (public("cotype.zeta", "corank_zeta_residue"), (1,)),
        "zeta.cocyclic_growth_constant_s": (
            public("cotype.zeta", "cocyclic_growth_constant"), ()),
    }
    d, cutoff = ctx.size((30, 10**6), (4, 10**3))
    n_primes = len(primes_upto(cutoff))
    out = {name: timed(fn, d, *extra, cutoff) for name, (fn, extra) in funcs.items()}
    out["zeta.local_factors_per_s"] = len(funcs) * n_primes / sum(out.values())
    return out


def k_squarefree(ctx):
    fn = public("cotype.zeta", "squarefree_index_density")
    cutoff = ctx.size(10**5, 10**3)
    return {"zeta.squarefree_index_density_s": ctx.median_of(3, lambda: timed(fn, cutoff))}


def k_local_factor(ctx):
    local_factor = public("cotype.zeta", "local_factor")
    caches = [local_factor, public("cotype.qcomb", "q_binomial"),
              public("cotype.qcomb", "q_factorial")]
    d = ctx.size(10, 3)

    def once():
        for fn in caches:
            clear(fn)
        return timed(local_factor, d)

    return {"zeta.local_factor_d10_s": ctx.median_of(2, once)}


def k_tally(ctx):
    tally_cotypes = public("cotype.lattices", "tally_cotypes")
    hnf_count = public("cotype.lattices", "hnf_count")
    X = ctx.size(200, 20)
    t = timed(tally_cotypes, 3, X)
    lattices = sum(hnf_count(3, n) for n in range(1, X))
    return {"lattices.tally_d3_s": t, "lattices.sublattices_per_s": lattices / t}


def _per_call_us(fn, inputs) -> list[float]:
    out = []
    for x in inputs:
        t = clock()
        fn(x)
        out.append((clock() - t) * 1e6)
    return out


def k_smith_hnf(ctx):
    smith = public("cotype.lattices", "smith_normal_form")
    enumerate_hnf = public("cotype.lattices", "enumerate_hnf")
    mats = [b.matrix() for b in enumerate_hnf(3, ctx.size(128, 8))]
    return {"lattices.smith_hnf_d3_us": statistics.median(_per_call_us(smith, mats))}


# (d, k, workload seed, matrices timed) for the matrix_d* commands
DENSE_CASES = ((2, 10000, 7, 5000), (6, 100, 1, 1000), (8, 1000, 1, 50))


def k_smith_dense(ctx):
    smith = public("cotype.lattices", "smith_normal_form")
    sample = public("cotype.simulate", "sample_cokernel_type")
    SampleConfig = public("cotype.simulate", "SampleConfig")
    out = {}
    for d, k, seed, count in DENSE_CASES:
        mats = [seeded_matrix(seed, t, d, k) for t in range(ctx.size(count, 12))]
        # The copied derivation must still produce the workload's matrices.
        cfg = SampleConfig(d=d, trials=3, master_seed=seed, p=2, entry_bound=k)
        expected = [sf for sf, _ in sample(cfg)]
        if [smith(m) for m in mats[:3]] != expected:
            ctx.problems.append(f"d={d}: seeded matrices differ from simulate's")
        us = _per_call_us(smith, mats)
        out[f"lattices.smith_dense_d{d}_us"] = statistics.median(us)
        p90 = statistics.quantiles(us, n=10, method="inclusive")[8]
        out[f"lattices.smith_dense_d{d}_p90_us"] = p90
    return out


# (d, k, seed, trials) for run_matrix_model
MATRIX_MODEL_CASES = ((2, 10000, 7, 10000), (6, 100, 1, 1000), (8, 1000, 1, 20))


def k_matrix_model(ctx):
    run_matrix_model = public("cotype.simulate", "run_matrix_model")
    SampleConfig = public("cotype.simulate", "SampleConfig")
    out = {}
    for d, k, seed, trials in MATRIX_MODEL_CASES:
        trials = ctx.size(trials, 10)
        cfg = SampleConfig(d=d, trials=trials, master_seed=seed, p=2, entry_bound=k)
        out[f"simulate.matrix_trials_per_s_d{d}"] = trials / timed(run_matrix_model, cfg)
    return out


def k_per_trial_overhead(ctx):
    per_s = ctx.values.get("simulate.matrix_trials_per_s_d2")
    smith_us = ctx.values.get("lattices.smith_dense_d2_us")
    if per_s is None or smith_us is None:
        raise Absent("needs simulate.matrix_trials_per_s_d2 and lattices.smith_dense_d2_us")
    return {"simulate.per_trial_overhead_us": 1e6 / per_s - smith_us}


def k_sampler(ctx):
    Sampler = public("cotype.simulate", "SublatticeSampler")
    X = ctx.size(5000, 50)
    init_s = ctx.median_of(3, lambda: timed(Sampler, 3, X))
    sampler = Sampler(3, X)
    rng = random.Random(ctx.seed)
    batches = []
    for _ in range(ctx.size(10, 1)):
        codes = [rng.randrange(sampler.total) for _ in range(2000)]
        batches.append(timed(lambda: [sampler.basis_at(c) for c in codes]) / len(codes) * 1e6)
    return {"simulate.sampler_init_s": init_s,
            "simulate.basis_at_us": statistics.median(batches)}


def k_q_binomial(ctx):
    q_binomial = public("cotype.qcomb", "q_binomial")
    q_factorial = public("cotype.qcomb", "q_factorial")
    n = ctx.size(30, 8)

    def once():
        clear(q_binomial)
        clear(q_factorial)
        t = clock()
        for i in range(n + 1):
            q_binomial(n, i)
        return (clock() - t) * 1e3

    return {"qcomb.q_binomial_30_ms": ctx.median_of(5, once)}


def k_descent(ctx):
    all_descent_sets = public("cotype.qcomb", "all_descent_sets")
    incl_excl = public("cotype.qcomb", "descent_poly_inclusion_exclusion")
    permutations = public("cotype.qcomb", "descent_poly_permutations")
    perm_sets = list(all_descent_sets(ctx.size(8, 4)))
    t = clock()
    for lam in perm_sets:
        permutations(lam)
    perm_ms = (clock() - t) * 1e3
    ie_sets = list(all_descent_sets(ctx.size(9, 4)))

    def ie():
        t = clock()
        for lam in ie_sets:
            incl_excl(lam)
        return (clock() - t) * 1e3

    return {"qcomb.descent_perm_d8_ms": perm_ms, "qcomb.descent_ie_d9_ms": ctx.median_of(3, ie)}


def k_ambient(ctx):
    count = public("cotype.groups", "ambient_subgroup_count")
    partitions_of = public("cotype.groups", "partitions_of")
    cases = [(d, parts, p) for d in (3, 6) for p in (2, 3, 5)
             for size in range(ctx.size(9, 4)) for parts in partitions_of(size, max_parts=d)]

    def once():
        t = clock()
        for d, parts, p in cases:
            count(d, parts, p)
        return (clock() - t) / len(cases) * 1e6

    return {"groups.ambient_subgroup_count_us": ctx.median_of(5, once)}


def k_aut_brute(ctx):
    aut_order = public("cotype.groups", "aut_order")
    group = public("cotype.groups", "AbelianPGroupType")
    partitions_of = public("cotype.groups", "partitions_of")
    max_order = ctx.size(64, 8)
    groups = []
    for p in (2, 3):
        emax = 0
        while p ** (emax + 1) <= max_order:
            emax += 1
        groups += [group.of(p, parts) for size in range(emax + 1) for parts in partitions_of(size)]

    def once():
        t = clock()
        for G in groups:
            aut_order(G, "brute_force", max_order=max_order)
        return clock() - t

    return {"groups.aut_brute_64_s": ctx.median_of(2, once)}


def k_rank_d_mass(ctx):
    rank_d_mass = public("cotype.groups", "rank_d_mass")
    group = public("cotype.groups", "AbelianPGroupType")
    partitions_of = public("cotype.groups", "partitions_of")
    d, cap = ctx.size(8, 3), 2
    types = [group.of(2, parts) for size in range(cap * d + 1)
             for parts in partitions_of(size, max_parts=d, max_part=cap)]

    def once():
        t = clock()
        for G in types:
            rank_d_mass(G, d)
        return (clock() - t) * 1e3

    return {"groups.rank_d_mass_ms": ctx.median_of(5, once)}


# descent_perm_d8 must be the first permutation-table call in the process.
KERNELS = (
    (k_primes, ("primes.primes_upto_1e6_s",)),
    (k_zeta, ("zeta.corank_density_s", "zeta.corank_zeta_residue_s",
              "zeta.cocyclic_growth_constant_s", "zeta.local_factors_per_s")),
    (k_squarefree, ("zeta.squarefree_index_density_s",)),
    (k_local_factor, ("zeta.local_factor_d10_s",)),
    (k_tally, ("lattices.tally_d3_s", "lattices.sublattices_per_s")),
    (k_smith_hnf, ("lattices.smith_hnf_d3_us",)),
    (k_smith_dense, tuple(f"lattices.smith_dense_d{d}{s}_us" for d, *_ in DENSE_CASES
                          for s in ("", "_p90"))),
    (k_matrix_model, tuple(f"simulate.matrix_trials_per_s_d{c[0]}" for c in MATRIX_MODEL_CASES)),
    (k_per_trial_overhead, ("simulate.per_trial_overhead_us",)),
    (k_sampler, ("simulate.sampler_init_s", "simulate.basis_at_us")),
    (k_q_binomial, ("qcomb.q_binomial_30_ms",)),
    (k_descent, ("qcomb.descent_perm_d8_ms", "qcomb.descent_ie_d9_ms")),
    (k_ambient, ("groups.ambient_subgroup_count_us",)),
    (k_aut_brute, ("groups.aut_brute_64_s",)),
    (k_rank_d_mass, ("groups.rank_d_mass_ms",)),
)


def run_kernels(seed: int, smoke: bool, kernels=KERNELS) -> dict:
    """Run every kernel. One whose public names are gone reports its metrics
    under "absent"; one that raises (say, on a changed signature) also records
    the error as a problem. Either way the other kernels still run."""
    ctx = Context(seed, smoke)
    absent = {}
    for kernel, names in kernels:
        try:
            ctx.values.update(kernel(ctx))
        except Absent as exc:
            absent.update({name: str(exc) for name in names})
        except Exception as exc:  # noqa: BLE001 - keep measuring the other layers
            ctx.problems.append(f"{kernel.__name__}: {traceback.format_exc(limit=-2)}")
            absent.update({name: f"{kernel.__name__} raised {exc!r}" for name in names})
    return {"values": ctx.values, "absent": absent, "problems": ctx.problems}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    sys.path.insert(0, harness.SRC)
    harness.write_json(args.out, run_kernels(args.seed, args.smoke))
    return 0


if __name__ == "__main__":
    sys.exit(main())
