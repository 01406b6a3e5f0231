"""Monte Carlo laboratory for cokernel distributions.

Two sampling models: random integer matrices with entries uniform in [-k, k]
(cokernel via Smith reduction, p-Sylow type extracted per prime), and uniform
random sublattices of index < X (drawn exactly, without materializing the
sublattice list). Empirical tables are compared against the exact predictions
from `cotype.zeta` and `cotype.groups` with binomial z-score bands.

Reproducibility: each trial gets its own generator seeded from
sha256(master_seed, trial_index), so results are a pure function of the
configuration no matter how trials are partitioned across workers.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import math
import random
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator

from .errors import DomainError, LabelMismatchError, ResourceLimitError
from .groups import AbelianPGroupType, embeds
from .lattices import (
    Cotype,
    HermiteBasis,
    SmithForm,
    _smith_diagonal,
    hermite_diagonals,
    hermite_matrix,
    p_part,
    tally_cotypes,
)
from .primes import require_prime
from .zeta import dirichlet_coefficients_upto

FREE_LABEL = "free part"
OTHER_LABEL = "other"

# Exhaustive mode must visit (2k+1)^(d^2) matrices; cap that.
DEFAULT_EXHAUSTIVE_CAP = 10**6
# Uniform-sublattice sampling materializes per-index weight tables lazily.
DEFAULT_SUBLATTICE_DIM_CAP = 3
DEFAULT_SUBLATTICE_INDEX_CAP = 10**4


def type_label(parts: Iterable[int]) -> str:
    return f"type ({','.join(map(str, parts))})"


def rank_label(r: int) -> str:
    return f"rank {r}"


@dataclass(frozen=True)
class SampleConfig:
    """Configuration of a sampling run; fixing it fixes every outcome."""

    d: int
    trials: int
    master_seed: int
    p: int
    entry_bound: int | None = None
    index_bound: int | None = None
    exhaustive: bool = False

    def __post_init__(self):
        if self.d < 1:
            raise DomainError("d must be positive")
        require_prime(self.p)
        if self.trials < 1 and not self.exhaustive:
            raise DomainError("trials must be >= 1")
        if (self.entry_bound is None) == (self.index_bound is None):
            raise DomainError("set exactly one of entry_bound or index_bound")
        if self.entry_bound is not None and self.entry_bound < 1:
            raise DomainError("entry bound k must be >= 1")
        if self.index_bound is not None and self.index_bound < 2:
            raise DomainError("index bound X must be >= 2")

    def to_json_dict(self) -> dict:
        return {
            "d": self.d,
            "trials": self.trials,
            "master_seed": self.master_seed,
            "p": self.p,
            "entry_bound": self.entry_bound,
            "index_bound": self.index_bound,
            "exhaustive": self.exhaustive,
        }


def _trial_rng(master_seed: int, trial: int) -> random.Random:
    digest = hashlib.sha256(f"{master_seed}:{trial}".encode()).digest()
    return random.Random(int.from_bytes(digest[:16], "big"))


@dataclass
class EmpiricalTable:
    """Outcome counts over a fixed number of trials."""

    counts: dict[str, int]
    trials: int

    def freq(self, label: str) -> Fraction:
        return Fraction(self.counts.get(label, 0), self.trials)

    def merge(self, other: "EmpiricalTable") -> "EmpiricalTable":
        counts = dict(self.counts)
        for k, v in other.counts.items():
            counts[k] = counts.get(k, 0) + v
        return EmpiricalTable(counts, self.trials + other.trials)

    def bucketed(self, keep: Iterable[str], other_label: str = OTHER_LABEL
                 ) -> "EmpiricalTable":
        """Collapse every label outside `keep` into a single bucket."""
        keep = set(keep)
        counts = {label: 0 for label in keep}
        counts[other_label] = 0
        for label, c in self.counts.items():
            if label in keep:
                counts[label] += c
            else:
                counts[other_label] += c
        return EmpiricalTable(counts, self.trials)

    def to_json_dict(self) -> dict:
        return {"trials": self.trials, "counts": dict(sorted(self.counts.items()))}

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["label", "count", "trials"])
            for label in sorted(self.counts):
                writer.writerow([label, self.counts[label], self.trials])


# ---------------------------------------------------------------------------
# Matrix model
# ---------------------------------------------------------------------------


def _smith_of(entries: list[list[int]]) -> SmithForm:
    diag, free = _smith_diagonal(entries)
    return SmithForm(tuple(diag), free)


def _matrix_entries(cfg: SampleConfig, trial: int) -> list[list[int]]:
    rng = _trial_rng(cfg.master_seed, trial)
    k, d = cfg.entry_bound, cfg.d
    return [[rng.randint(-k, k) for _ in range(d)] for _ in range(d)]


def _all_matrices(d: int, k: int, cap: int) -> Iterator[list[list[int]]]:
    total = (2 * k + 1) ** (d * d)
    if total > cap:
        raise ResourceLimitError(f"exhaustive mode needs {total} matrices; cap {cap}")
    for flat in itertools.product(range(-k, k + 1), repeat=d * d):
        yield [list(flat[i * d : (i + 1) * d]) for i in range(d)]


def _matrices(cfg: SampleConfig, start: int = 0, stop: int | None = None
              ) -> Iterator[list[list[int]]]:
    """The matrices of trials [start, stop), or every matrix in exhaustive mode."""
    if cfg.entry_bound is None:
        raise DomainError("the matrix model needs entry_bound")
    if cfg.exhaustive:
        return _all_matrices(cfg.d, cfg.entry_bound, DEFAULT_EXHAUSTIVE_CAP)
    stop = cfg.trials if stop is None else min(stop, cfg.trials)
    return (_matrix_entries(cfg, t) for t in range(start, stop))


def sample_cokernel_type(cfg: SampleConfig) -> Iterator[tuple[SmithForm, tuple[int, ...]]]:
    """Stream (SmithForm, p-Sylow type) per trial of the matrix model.

    Singular draws are not an error: they carry free_rank > 0 and their p-Sylow
    type refers to the torsion part only.
    """
    for m in _matrices(cfg):
        sf = _smith_of(m)
        yield sf, p_part(reversed(sf.diag), cfg.p)


@dataclass
class MatrixModelResult:
    """Tallies of one matrix-model run: p-Sylow types and p-ranks."""

    config: SampleConfig
    type_table: EmpiricalTable
    rank_table: EmpiricalTable

    def rank_at_most_freq(self, m: int) -> Fraction:
        c = sum(
            self.rank_table.counts.get(rank_label(r), 0) for r in range(m + 1)
        )
        return Fraction(c, self.rank_table.trials)


def run_matrix_model(
    cfg: SampleConfig, start: int = 0, stop: int | None = None
) -> MatrixModelResult:
    """Tally the matrix model over trials [start, stop).

    The p-rank observable is d - rank of the matrix over F_p, read off the Smith
    invariants as #{s_i divisible by p} plus the free rank.
    """
    d, p = cfg.d, cfg.p
    type_counts: dict[str, int] = {}
    rank_counts = {rank_label(r): 0 for r in range(d + 1)}
    n = 0
    for m in _matrices(cfg, start, stop):
        sf = _smith_of(m)
        p_rank = sf.free_rank + sum(1 for s in sf.diag if s % p == 0)
        rank_counts[rank_label(p_rank)] += 1
        if sf.free_rank:
            label = FREE_LABEL
        else:
            label = type_label(p_part(reversed(sf.diag), p))
        type_counts[label] = type_counts.get(label, 0) + 1
        n += 1
    return MatrixModelResult(
        config=cfg,
        type_table=EmpiricalTable(type_counts, n),
        rank_table=EmpiricalTable(rank_counts, n),
    )


# ---------------------------------------------------------------------------
# Uniform-sublattice model
# ---------------------------------------------------------------------------


class SublatticeSampler:
    """Exactly uniform draws over sublattices of Z^d of index < X.

    A draw picks an integer in [0, N_d(X)) and decodes it positionally: first
    the index n (weighted by the number of sublattices of that index), then the
    Hermite diagonal (weighted by its matrix count, in the order of
    `lattices.hermite_diagonals`), then the off-diagonal digits
    (`lattices.hermite_matrix`). No rejection, no materialized list.
    """

    def __init__(self, d: int, X: int,
                 dim_cap: int = DEFAULT_SUBLATTICE_DIM_CAP,
                 index_cap: int = DEFAULT_SUBLATTICE_INDEX_CAP):
        if d < 1 or X < 2:
            raise DomainError("need d >= 1 and X >= 2")
        if d > dim_cap or X > index_cap:
            raise ResourceLimitError(
                f"uniform sublattice sampling capped at d <= {dim_cap}, X <= {index_cap}"
            )
        self.d, self.X = d, X
        # cumulative counts: _cum[n] = N_d(n+1)
        self._cum = list(itertools.accumulate(dirichlet_coefficients_upto(d, X)))
        self.total = self._cum[-1]

    def basis_at(self, code: int) -> HermiteBasis:
        """The code-th sublattice in the canonical order, 0 <= code < total."""
        if not 0 <= code < self.total:
            raise DomainError("code out of range")
        n = bisect_right(self._cum, code)
        off = code - self._cum[n - 1]
        for diag, count in zip(*hermite_diagonals(self.d, n)):
            if off < count:
                break
            off -= count
        return HermiteBasis(hermite_matrix(diag, off))

    def sample(self, rng: random.Random) -> HermiteBasis:
        return self.basis_at(rng.randrange(self.total))


def sample_uniform_sublattice(cfg: SampleConfig) -> Iterator[Cotype]:
    """Stream the cotype of a uniformly random sublattice of index < X per trial."""
    if cfg.index_bound is None:
        raise DomainError("the sublattice model needs index_bound")
    sampler = SublatticeSampler(cfg.d, cfg.index_bound)
    for trial in range(cfg.trials):
        basis = sampler.sample(_trial_rng(cfg.master_seed, trial))
        inv, _ = _smith_diagonal(basis.matrix())
        yield Cotype(tuple(reversed(inv)))


@dataclass
class SublatticeModelResult:
    config: SampleConfig
    type_table: EmpiricalTable
    rank_table: EmpiricalTable


def run_sublattice_model(cfg: SampleConfig) -> SublatticeModelResult:
    """Tally p-Sylow types and p-ranks of Z^d / Lambda over uniform draws."""
    p, d = cfg.p, cfg.d
    type_counts: dict[str, int] = {}
    rank_counts = {rank_label(r): 0 for r in range(d + 1)}
    n = 0
    for ct in sample_uniform_sublattice(cfg):
        parts = ct.p_part(p)
        type_counts[type_label(parts)] = type_counts.get(type_label(parts), 0) + 1
        rank_counts[rank_label(len(parts))] += 1
        n += 1
    return SublatticeModelResult(
        config=cfg,
        type_table=EmpiricalTable(type_counts, n),
        rank_table=EmpiricalTable(rank_counts, n),
    )


# ---------------------------------------------------------------------------
# Exact probabilities from enumeration
# ---------------------------------------------------------------------------


def containment_probability_exact(d: int, L: HermiteBasis, X: int) -> Fraction:
    """P(uniform sublattice of index < X is contained in L), exactly.

    Sublattices M <= L correspond to index-< X/D sublattices of L = Z^d
    (D = index of L), so the count is N_d((X-1)//D + 1) over N_d(X); exact 0
    when X <= D.
    """
    if d != L.dim:
        raise DomainError("dimension mismatch")
    if X < 2:
        raise DomainError("X must be at least 2")
    D = L.index
    coeffs = dirichlet_coefficients_upto(d, X)
    denom = sum(coeffs[1:X])
    K = (X - 1) // D
    numer = sum(coeffs[1 : K + 1])
    return Fraction(numer, denom)


def embed_probability_exact(
    d: int, G: AbelianPGroupType, X: int, method: str = "auto"
) -> Fraction:
    """Exact fraction of sublattices of index < X whose quotient contains a copy
    of G, via the cotype tally and the part-wise embedding criterion."""
    tally = tally_cotypes(d, X, method=method)
    if G.is_trivial:
        return Fraction(1)
    hits = 0
    for ct, c in tally.counts.items():
        if embeds(G, AbelianPGroupType.of(G.p, ct.p_part(G.p))):
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

    def to_json_dict(self) -> dict:
        return {
            "tv_distance": self.tv_distance,
            "per_label": self.per_label,
            "z_threshold": self.z_threshold,
            "verdict": self.verdict,
            "note": self.note,
        }


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
