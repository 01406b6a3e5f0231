"""Monte Carlo laboratory for cokernel distributions.

One pipeline serves two sampling models: each trial draws an integer matrix,
takes its Smith form (`lattices.smith_normal_form`) and tallies the p-Sylow
type and the p-rank of the cokernel. The matrix model draws entries uniform in
[-k, k], or visits every such matrix in exhaustive mode; the sublattice model
draws the Hermite basis of a uniformly random sublattice of index < X, exactly,
without materializing the sublattice list. Its tally decodes and reduces only
the draws whose index n has p^2 | n, since the index gives the others' p-part.
Empirical tables are compared against the exact predictions from `cotype.zeta`
and `cotype.groups` with binomial z-score bands.

Reproducibility: trial t of a run with master seed s seeds MT19937 (the
generator of `random.Random`) with the first 16 bytes of sha256(f"{s}:{t}"),
read as a big-endian integer. The matrix model then draws its d^2 entries row
by row with randrange(-k, k+1) semantics; the sublattice model draws its code
with randrange(N_d(X)) semantics, N_d(X) the number of sublattices of index
< X. So a run is a pure function of its configuration.

Parallel trials: since each trial is a pure function of (seed, t), a sampled
run of enough work splits its trials into contiguous ranges, one per available
core (`os.sched_getaffinity`), with the tables of one serial pass. A
`SampleConfig` checks every cap of its run when it is built, and the parent
builds the sublattice sampler before it forks the workers of `cotype.workers`.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import random
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator

from .errors import DomainError, LabelMismatchError, check_cap
from .groups import AbelianPGroupType, embeds
from .lattices import (
    HermiteBasis,
    SmithForm,
    _divisors,
    p_part,
    smith_normal_form,
    tally_cotypes,
)
from .primes import require_prime
from .zeta import _dirichlet_levels

FREE_LABEL = "free part"
OTHER_LABEL = "other"


def type_label(parts: Iterable[int]) -> str:
    return f"type ({','.join(map(str, parts))})"


def rank_label(r: int) -> str:
    return f"rank {r}"


@dataclass(frozen=True)
class SampleConfig:
    """Configuration of a sampling run; fixing it fixes every outcome. One past
    a cap cannot be built (ResourceLimitError), so its run checks none again."""

    d: int
    trials: int
    master_seed: int
    p: int
    entry_bound: int | None = None
    index_bound: int | None = None
    exhaustive: bool = False

    def __post_init__(self):
        for name in ("d", "trials", "master_seed", "p", "entry_bound", "index_bound"):
            value = getattr(self, name)
            if value is None and name.endswith("_bound"):
                continue
            if type(value) is bool or not isinstance(value, int):
                raise DomainError(f"{name} must be an int, got {value!r}")
        if type(self.exhaustive) is not bool:
            raise DomainError(f"exhaustive must be a bool, got {self.exhaustive!r}")
        if self.d < 1:
            raise DomainError("d must be positive")
        require_prime(self.p)
        if self.trials < 1 and not self.exhaustive:
            raise DomainError("trials must be >= 1")
        if (self.entry_bound is None) == (self.index_bound is None):
            raise DomainError("set exactly one of entry_bound or index_bound")
        if self.exhaustive and self.entry_bound is None:
            raise DomainError("exhaustive mode needs entry_bound (the matrix model)")
        if self.entry_bound is not None and self.entry_bound < 1:
            raise DomainError("entry bound k must be >= 1")
        if self.index_bound is not None and self.index_bound < 2:
            raise DomainError("index bound X must be >= 2")
        # Every cap before any work: the work of a sampled run, then the model's
        # caps on d, on X or k, and on the matrices of an exhaustive run.
        if not self.exhaustive:
            check_cap("trial_work", self.work)
        check_cap("matrix_dim", self.d)
        if self.index_bound is not None:
            check_cap("sublattice_index", self.index_bound)
        else:
            check_cap("entry_bits", self.entry_bound.bit_length())
            if self.exhaustive:
                check_cap("exhaustive_matrices", self.matrices)

    @property
    def matrices(self) -> int:
        """Matrices a run visits: every (2k+1)^(d^2) of them in exhaustive
        mode, otherwise one per trial."""
        if self.exhaustive:
            return (2 * self.entry_bound + 1) ** (self.d * self.d)
        return self.trials

    @property
    def work(self) -> int:
        """Work units of a sampled run, trials * max(d, 3)^3: about the cost of
        its Smith forms, or at d < 3 that of its seeded draws."""
        return self.trials * max(self.d, 3) ** 3


@dataclass
class EmpiricalTable:
    """Outcome counts over a fixed number of trials."""

    counts: dict[str, int]
    trials: int

    def bucketed(self, keep: Iterable[str]) -> "EmpiricalTable":
        """Collapse every label outside `keep` into the OTHER_LABEL bucket."""
        keep = set(keep)
        counts = {label: 0 for label in keep}
        counts[OTHER_LABEL] = 0
        for label, c in self.counts.items():
            if label in keep:
                counts[label] += c
            else:
                counts[OTHER_LABEL] += c
        return EmpiricalTable(counts, self.trials)


# ---------------------------------------------------------------------------
# One pipeline: draw a matrix, take its Smith form, tally the cokernel
# ---------------------------------------------------------------------------


class SublatticeSampler:
    """Exactly uniform draws over sublattices of Z^d of index < X.

    A draw picks an integer in [0, N_d(X)) and decodes it positionally: first
    the index n, by bisection over the cumulative counts, then one row per
    level. With k rows left at index n, the codes run in one block per divisor
    a of n, ascending, of a^(k-1) N_(k-1)(n/a) codes. The block is found by
    walking the divisors down from n and subtracting block sizes from N_k(n)
    until the offset fits; then the offset mod a^(k-1) gives the row's digits,
    least significant first, and the offset // a^(k-1) the code of the
    remaining rows at index n/a. This is the order of
    `lattices.hermite_diagonals` and `lattices.hermite_matrix`, read off the
    one table of counts N_1, ..., N_d. No rejection, no materialized list.
    """

    def __init__(self, d: int, X: int):
        if d < 1 or X < 2:
            raise DomainError("need d >= 1 and X >= 2")
        check_cap("matrix_dim", d)
        check_cap("sublattice_index", X)
        self._build(d, X)

    def _build(self, d: int, X: int) -> None:
        self.d, self.X = d, X
        # _levels[k - 1][n] = N_k(n); cumulative counts: _cum[n] = N_d(1) + ... + N_d(n)
        self._levels = _dirichlet_levels(d, X)
        self._cum = list(itertools.accumulate(self._levels[-1]))
        self.total = self._cum[-1]

    def rows_at(self, code: int) -> list[list[int]]:
        """The Hermite matrix of the code-th sublattice in the canonical order,
        0 <= code < total, as the codec's rows, without a HermiteBasis check."""
        if not 0 <= code < self.total:
            raise DomainError("code out of range")
        n = bisect_right(self._cum, code)
        off = code - self._cum[n - 1]
        d = self.d
        rows = []
        for i in range(d - 1):
            k = d - i
            below = self._levels[k - 2]
            # The block of a holds about a n^(k-2) codes, so walk down from the
            # last one: start is where the current block begins.
            start = self._levels[k - 1][n]
            for a in reversed(_divisors(n)):
                step = a ** (k - 1)
                start -= step * below[n // a]
                if off >= start:
                    break
            off, digits = divmod(off - start, step)
            row = [0] * d
            row[i] = a
            for c in range(i + 1, d):
                digits, row[c] = divmod(digits, a)
            rows.append(row)
            n //= a
        row = [0] * d
        row[-1] = n
        rows.append(row)
        return rows

    def basis_at(self, code: int) -> HermiteBasis:
        """The code-th sublattice in the canonical order, 0 <= code < total."""
        return HermiteBasis(self.rows_at(code))


def _prepare(cfg: SampleConfig) -> SublatticeSampler | None:
    """The sublattice model's sampler (None for the matrix model), built
    without a second check of the caps that the config checked."""
    if cfg.index_bound is None:
        return None
    sampler = object.__new__(SublatticeSampler)
    sampler._build(cfg.d, cfg.index_bound)
    return sampler


def _matrices(cfg: SampleConfig, trials: range | None = None,
              sampler: SublatticeSampler | None = None) -> Iterator[list[list[int]]]:
    """One integer matrix per trial: the Hermite basis of a uniform sublattice
    of index < X, or entries uniform in [-k, k], or in exhaustive mode every
    matrix with entries in [-k, k], in order. `trials` picks a contiguous range
    of the trials (in exhaustive mode, of the matrices' positions), drawn with
    the `sampler` of the caller's `_prepare(cfg)`; by default every trial,
    with `_prepare(cfg)` run here."""
    if trials is None:
        sampler, trials = _prepare(cfg), range(cfg.matrices)
    if cfg.exhaustive:
        d, k = cfg.d, cfg.entry_bound
        matrices = itertools.product(range(-k, k + 1), repeat=d * d)
        return ([list(flat[i * d : (i + 1) * d]) for i in range(d)]
                for flat in itertools.islice(matrices, trials.start, trials.stop))
    draws = _draws(cfg, trials, sampler)
    return draws if sampler is None else map(sampler.rows_at, draws)


def _draws(cfg: SampleConfig, trials: range,
           sampler: SublatticeSampler | None) -> Iterator:
    """Each trial's draw, as in `_matrices`, but the sublattice model's as its
    code in [0, N_d(X)). The draws are those of the module docstring's contract
    from one generator: each trial reseeds it through the C seed under
    `random.Random.seed` (which for an int adds only type checks), and each
    draw below w inlines `Random._randbelow`: getrandbits(w.bit_length()) until
    the result is < w."""
    d, k = cfg.d, cfg.entry_bound
    w = 2 * k + 1 if sampler is None else sampler.total
    rng = random.Random()
    reseed, bits, b = super(random.Random, rng).seed, rng.getrandbits, w.bit_length()
    prefix = hashlib.sha256(f"{cfg.master_seed}:".encode())
    rows = range(d)
    for t in trials:
        h = prefix.copy()
        h.update(b"%d" % t)
        reseed(int.from_bytes(h.digest()[:16], "big"))
        if sampler is not None:
            r = bits(b)
            while r >= w:
                r = bits(b)
            yield r
            continue
        m = []
        for _ in rows:
            row = []
            for _ in rows:
                r = bits(b)
                while r >= w:
                    r = bits(b)
                row.append(r - k)
            m.append(row)
        yield m


def sample_cokernel_type(
    cfg: SampleConfig, trials: range | None = None, sampler: SublatticeSampler | None = None
) -> Iterator[tuple[SmithForm, tuple[int, ...]]]:
    """Stream (SmithForm, p-Sylow type) per trial of either model, over every
    trial or over a range of them as in `_matrices`.

    Singular draws are not an error: they carry free_rank > 0 and their p-Sylow
    type refers to the torsion part only.
    """
    p = cfg.p
    for m in _matrices(cfg, trials, sampler):
        sf = smith_normal_form(m)
        yield sf, p_part(sf.diag[::-1], p)


@dataclass
class ModelResult:
    """Tallies of one run of either model: p-Sylow types and p-ranks, with the
    run's work (trials and Smith forms, summed over its processes) and the
    largest peak RSS in KB that a forked worker reported (None if none did)."""

    config: SampleConfig
    type_table: EmpiricalTable
    rank_table: EmpiricalTable
    counters: dict[str, int] = field(default_factory=dict)
    worker_peak_rss_kb: int | None = None

    def rank_at_most_freq(self, m: int) -> Fraction:
        c = sum(
            self.rank_table.counts.get(rank_label(r), 0) for r in range(m + 1)
        )
        return Fraction(c, self.rank_table.trials)


def _count(cfg: SampleConfig, trials: range, sampler) -> tuple[Counter, Counter]:
    """Trials by (free rank, p-Sylow type) over a range of trials, and the work
    (trials and Smith forms). The p-Sylow subgroup of Z^d / Lambda has order
    p^v, v the valuation of the index n, so it is Z/p^v when v <= 1: the
    sublattice model finds n by the bisection of `rows_at`, and decodes and
    reduces only the draws with v >= 2."""
    p, seen = cfg.p, Counter()
    if sampler is None:
        for sf, parts in sample_cokernel_type(cfg, trials, sampler):
            seen[sf.free_rank, parts] += 1
        reduced = len(trials)
    else:
        cum, rows_at, reduced, p2 = sampler._cum, sampler.rows_at, 0, p * p
        for code in _draws(cfg, trials, sampler):
            n = bisect_right(cum, code)
            if n % p2:
                seen[0, () if n % p else (1,)] += 1
            else:
                sf = smith_normal_form(rows_at(code))
                seen[sf.free_rank, p_part(sf.diag[::-1], p)] += 1
                reduced += 1
    return seen, Counter(trials=len(trials), smith_forms=reduced)


def _tally(cfg: SampleConfig) -> ModelResult:
    """Tally the cokernels of every trial, labelled once at the end, over the
    processes of `workers.processes` (one for an exhaustive run). The p-rank is
    d minus the rank over F_p: the free rank plus the number of invariant
    factors divisible by p. A singular draw's type is its free part."""
    from .workers import count_in_ranges, processes  # here: --version never needs them

    sampler = _prepare(cfg)
    (seen, work), worker_kb = count_in_ranges(
        lambda trials: _count(cfg, trials, sampler),
        cfg.matrices, 1 if cfg.exhaustive else processes(cfg.work))
    ranks, types = dict.fromkeys(map(rank_label, range(cfg.d + 1)), 0), Counter()
    for (free_rank, parts), c in seen.items():
        ranks[rank_label(free_rank + len(parts))] += c
        types[FREE_LABEL if free_rank else type_label(parts)] += c
    n = work["trials"]
    return ModelResult(
        config=cfg,
        type_table=EmpiricalTable(dict(types), n),
        rank_table=EmpiricalTable(ranks, n),
        counters=dict(work),
        worker_peak_rss_kb=worker_kb,
    )


def run_matrix_model(cfg: SampleConfig) -> ModelResult:
    """Tally the cokernels of random (or, exhaustively, all) integer matrices."""
    if cfg.entry_bound is None:
        raise DomainError("the matrix model needs entry_bound")
    return _tally(cfg)


def run_sublattice_model(cfg: SampleConfig) -> ModelResult:
    """Tally the quotients Z^d / Lambda over uniform sublattices of index < X."""
    if cfg.index_bound is None:
        raise DomainError("the sublattice model needs index_bound")
    return _tally(cfg)


# ---------------------------------------------------------------------------
# Exact probabilities from enumeration
# ---------------------------------------------------------------------------


def containment_probability_exact(d: int, L: HermiteBasis, X: int) -> Fraction:
    """P(uniform sublattice of index < X is contained in L), exactly.

    Sublattices M <= L correspond to index-< X/D sublattices of L = Z^d
    (D = index of L), so the count is N_d((X-1)//D + 1) over N_d(X); exact 0
    when X <= D. Both are read off the cumulative counts of
    `SublatticeSampler(d, X)`, so the sampler's caps apply.
    """
    if d != L.dim:
        raise DomainError("dimension mismatch")
    sampler = SublatticeSampler(d, X)
    return Fraction(sampler._cum[(X - 1) // L.index], sampler.total)


def embed_probability_exact(d: int, G: AbelianPGroupType, X: int) -> Fraction:
    """Exact fraction of sublattices of index < X whose quotient contains a copy
    of G, via the cotype tally and the part-wise embedding criterion."""
    tally = tally_cotypes(d, X)
    if G.is_trivial:
        return Fraction(1)
    hits = 0
    for alpha, c in tally.counts.items():
        if embeds(G, AbelianPGroupType.of(G.p, p_part(alpha, G.p))):
            hits += c
    return Fraction(hits, tally.total)


# ---------------------------------------------------------------------------
# Empirical-vs-theory comparison
# ---------------------------------------------------------------------------


@dataclass
class ComparisonReport:
    """Total-variation distance and per-label binomial z-scores."""

    tv_distance: float
    per_label: list[dict] = field(default_factory=list)
    z_threshold: float = 4.0
    verdict: bool = True
    note: str = ""


def compare_to_theory(
    emp: EmpiricalTable, theory: dict[str, Fraction | float], z_threshold: float = 4.0
) -> ComparisonReport:
    """Compare empirical frequencies to exact probabilities label by label.

    Labels must align exactly (bucket rare outcomes into 'other' first). The
    verdict is pass iff every |z| is within the threshold; cells with zero
    binomial variance must match exactly.
    """
    emp_labels = set(emp.counts)
    th_labels = set(theory)
    if emp_labels != th_labels:
        raise LabelMismatchError(
            f"labels differ: only-empirical={sorted(emp_labels - th_labels)}, "
            f"only-theory={sorted(th_labels - emp_labels)}"
        )
    n = emp.trials
    rows = []
    tv = 0.0
    ok = True
    for label in sorted(theory):
        c = emp.counts[label]
        f = c / n
        pth = float(theory[label])
        sigma = math.sqrt(pth * (1.0 - pth) / n)
        if sigma > 0:
            z = (f - pth) / sigma
        else:
            z = 0.0 if abs(f - pth) == 0 else math.inf
        tv += abs(f - pth)
        if abs(z) > z_threshold:
            ok = False
        rows.append(
            {"label": label, "count": c, "freq": f, "theory": pth, "z": z}
        )
    note = (
        f"per-cell threshold {z_threshold} sigma over {len(rows)} cells; "
        f"Bonferroni family-wise false-alarm rate <= "
        f"{len(rows) * 2 * 0.5 * math.erfc(z_threshold / math.sqrt(2)):.2e}"
    )
    return ComparisonReport(
        tv_distance=0.5 * tv,
        per_label=rows,
        z_threshold=z_threshold,
        verdict=ok,
        note=note,
    )
