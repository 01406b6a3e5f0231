"""Exception types shared across the package, and the one table of resource
caps (`CAPS`) with the one check that enforces them (`check_cap`)."""

import math


class CotypeError(Exception):
    """Base class for all package-specific errors."""


class DomainError(CotypeError, ValueError):
    """An argument is outside the mathematical domain of the operation."""


class ResourceLimitError(CotypeError):
    """An enumeration or sampling run would exceed its resource budget."""


class PrimeMismatchError(DomainError):
    """Two p-group arguments live over different primes."""


class RankExceedsDimensionError(DomainError):
    """A p-group of rank r was passed where rank <= d is required."""


class NotWeaklyDecreasingError(DomainError):
    """An exponent tuple is not weakly decreasing."""


class LabelMismatchError(CotypeError, ValueError):
    """Empirical and theoretical outcome label sets do not align."""


# Every resource cap: name -> the largest cost it admits. Each comment says what
# the cost counts and what work at the cap took (2-vCPU Xeon, Python 3.11). A
# cost is checked from the arguments, before the work it bounds, except where
# the comment says it is counted as it is spent.
CAPS = {
    # verify qident: max(--n, --e) and --d. Its telescope checks grow with n and
    # e together, its subset identities with d: `--n 20 --e 20 --d 10` takes
    # 2.2-2.4 s, `--n 24 --e 24` 5.2 s and `--d 12` 4.0 s.
    "qident_size": 20,
    "qident_dim": 10,
    # verify zidentity --d: `--d 20` takes 0.9 s and `--d 24` 1.8 s.
    "zidentity_dim": 20,
    # d of the d! permutations behind descent_poly_permutations: `verify
    # descent --d 9` takes 2.9 s.
    "permutation_dim": 9,
    # d of the inclusion-exclusion table, 2^(d-1) polynomials of degree
    # < d^2/2: d = 14 takes 3.0 s.
    "descent_table_dim": 14,
    # Order of the group a brute-force search builds, whose addition table
    # holds order^2 entries: 2^20 at the cap; the cyclic group of order 1024
    # takes 0.15 s. max_order (512 by default) can lower it.
    "brute_order": 1024,
    # (span, candidate) pairs of one brute-force step, counted step by step,
    # and by `verify autorder` for F_p^r before any search: F_2^6 needs 87,885
    # (1,395 subspaces of dimension 3 x 63 vectors) and takes 0.05 s, F_2^7
    # 1,499,997 (11,811 x 127).
    "brute_joins": 2 * 10**5,
    # Types rank_d_masses tabulates, C(d + exponent cap, d): `simulate` at d = 2
    # with a type cap of 61 (1,953 types) took 0.8 s, at d = 20 with a cap of 3
    # (1,771) 0.6 s, and at d = 20 with a cap of 4 (10,626) 2.7 s.
    "type_labels": 2000,
    # Matrices an enumeration visits (tally --method enumerate, verify oracle,
    # enumerate_hnf); max_matrices can lower it. Under it `tally -d 3 -X 520
    # --method enumerate` still runs for 46 s.
    "enum_matrices": 10**8,
    # d * diagonals of one Hermite diagonal table, about 30 bytes an entry: 1.1
    # million took 0.4 s and 58 MB.
    "hermite_table": 2 * 10**6,
    # The row tally's local tables build q-binomial rows of length d, and it
    # holds one to three cotypes of d entries per index below X: `tally -d 64
    # -X 3` takes 0.1 s, `tally -d 3 -X 100000` 1.6 s and 95 MB with its rows,
    # and `-d 1 -X 300000` 2.3 s and 119 MB. The same d * X bounds the sieve
    # convolution of dirichlet_coefficients_upto.
    "tally_rank": 64,
    "tally_size": 3 * 10**5,
    # Pollard rho steps of one factorize, counted as they are taken: about 1 s
    # at 2 us a step. Rho finds a prime factor p in about sqrt(p) steps, so
    # every prime factor but the largest must stay below about 2^36.
    "rho_steps": 2**19,
    # Matrices of an exhaustive run, (2k+1)^(d^2): d = 2, k = 15 (923,521)
    # takes 3.0 s.
    "exhaustive_matrices": 10**6,
    # d of either Monte Carlo model. A trial with k = 10^4 stays under about
    # 2 ms up to this d: its Smith form takes about 0.1 ms at d = 8, 0.3 ms at
    # d = 12 and 0.9-1.4 ms at d = 20. The sublattice sampler's rows N_1..N_d
    # below X = 10^4 are built in 0.8 s at d = 20 (a 32 MB process).
    "matrix_dim": 20,
    # trials * max(d, 3)^3 of a sampled run of either model: a trial's Smith
    # form costs about 0.2 us * d^3 at k = 10^4, and below d = 3 the fixed cost
    # of a trial takes over, 14-23 us. Split over both cores, runs at the cap
    # took 2.0 s at d = 20, 1.9 s at d = 12 and 4.2-4.5 s at d = 2 and 3.
    "trial_work": 15 * 10**6,
    # X of the sublattice model, held by the d X log X sieve of its rows: at
    # X = 10^4 runs at the work cap took 1.1 s at d = 20, 1.6 s at d = 10 and
    # 2.8 s at d = 6 on two cores, under 35 MB per process.
    "sublattice_index": 10**4,
    # Bits of the matrix model's entry bound k. A d = 20 Smith form takes
    # 0.9 ms at k = 10^4, 1.7 ms at 32 bits and 3.5 ms at 64 bits; at the work
    # cap (1,875 trials) `-k 2^64-1` took 4.1-4.3 s on two cores, against
    # 1.5-1.8 s at k = 10^4.
    "entry_bits": 64,
    # d of local_factor, whose numerator has 2^(d-1) terms: `zeta -d 12
    # print-local` takes 0.5 s.
    "local_factor_dim": 12,
    # Bits of an exact integer that gets printed, which keeps it under Python's
    # 4,300-digit int-to-str limit: local_coefficient's value (and nu_1, the
    # factors it multiplies), dirichlet_coefficient's value, and the largest
    # denominator of `simulate`'s exact theories. local_coefficient at the cap
    # (d = 3, p = 2, nu = (6998, 0, 0)) takes 0.1 s.
    "coefficient_bits": 14_000,
    # d of the corank densities and residues: `density -d 40 -m 20` takes 1.1 s
    # and `-d 48 -m 24` 2.0 s, and `-d 150 -m 1` outgrows the int-to-str limit.
    "corank_dim": 40,
    # d of cocyclic_growth_constant, whose local factor has degree d and is
    # evaluated exactly at each small prime, about d^2 work: d = 10,000 takes
    # 0.5-0.8 s at any cutoff, d = 20,000 2.8 s. `density` reaches it only at
    # d <= corank_dim.
    "cocyclic_dim": 10**4,
    # Prime cutoff of an Euler product, whose primes are streamed in sieve
    # blocks: 10^7 takes 0.8-0.9 s and 22 MB, the memory of 10^6.
    "prime_cutoff": 10**7,
}

# The caps checked since the record was last cleared: name -> [largest cost,
# limit]. `cli.main` clears it on entry and prints it in the run's manifest.
CHECKED: dict[str, list] = {}


def power_bits(p: int, e: int) -> float:
    """log2 of p^e, as the coefficient_bits cost of the power. As log2 p >= 1,
    an exponent too large for a float stands for its own bits: it is past any cap."""
    return e * math.log2(p) if e < 2**64 else e


def check_cap(name: str, cost, limit=None) -> None:
    """Record the cost of one check of the cap `name`, and raise
    ResourceLimitError when it passes the cap, or a caller's `limit` below it."""
    limit = CAPS[name] if limit is None else min(limit, CAPS[name])
    if name not in CHECKED or cost > CHECKED[name][0]:
        CHECKED[name] = [cost, limit]
    if cost > limit:
        # an int past 2^64 is shown by its size, since str() of a huge int fails
        shown = (f"{cost:.1f}" if isinstance(cost, float) else cost if cost < 2**64
                 else f"at least 2^{cost.bit_length() - 1}")
        raise ResourceLimitError(f"{name} cap exceeded: {shown} > {limit}")
