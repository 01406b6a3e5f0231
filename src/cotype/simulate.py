"""Monte Carlo laboratory for cokernel distributions.

One pipeline serves two sampling models: each trial draws an integer matrix,
takes its Smith form (`lattices.smith_normal_form`) and tallies the p-Sylow
type and the p-rank of the cokernel. The matrix model draws entries uniform in
[-k, k], or visits every such matrix in exhaustive mode; the sublattice model
draws the Hermite basis of a uniformly random sublattice of index < X, exactly,
without materializing the sublattice list. Empirical tables are compared
against the exact predictions from `cotype.zeta` and `cotype.groups` with
binomial z-score bands.

Reproducibility: each trial gets its own generator seeded from
sha256(master_seed, trial_index), so a run is a pure function of its
configuration.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import math
import random
from bisect import bisect_right
from collections import Counter
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .errors import DomainError, LabelMismatchError, ResourceLimitError
from .groups import AbelianPGroupType, embeds
from .lattices import (
    HermiteBasis,
    SmithForm,
    hermite_diagonals,
    hermite_matrix,
    p_part,
    smith_normal_form,
    tally_cotypes,
)
from .primes import require_prime
from .zeta import dirichlet_coefficients_upto

FREE_LABEL = "free part"
OTHER_LABEL = "other"

# Exhaustive mode must visit (2k+1)^(d^2) matrices; cap that.
DEFAULT_EXHAUSTIVE_CAP = 10**6
# The largest d at which one trial with k = 10^4 stays under about 10 ms: the
# Smith reduction modulo the determinant takes about 0.3 ms per matrix at
# d = 8, 1.3 ms at d = 12 and 7 ms at d = 20 (2-vCPU Xeon, Python 3.11).
MAX_MATRIX_DIM = 20
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
        if self.exhaustive and self.entry_bound is None:
            raise DomainError("exhaustive mode needs entry_bound (the matrix model)")
        if self.entry_bound is not None and self.entry_bound < 1:
            raise DomainError("entry bound k must be >= 1")
        if self.index_bound is not None and self.index_bound < 2:
            raise DomainError("index bound X must be >= 2")

    @property
    def matrices(self) -> int:
        """Matrices a run visits: every (2k+1)^(d^2) of them in exhaustive
        mode, otherwise one per trial."""
        if self.exhaustive:
            return (2 * self.entry_bound + 1) ** (self.d * self.d)
        return self.trials

    def to_json_dict(self) -> dict:
        """The fields, except that an exhaustive run records the matrices it
        visits as its trials and no seed, which it never uses."""
        doc = asdict(self)
        if self.exhaustive:
            doc.update(trials=self.matrices, master_seed=None)
        return doc


def _trial_rng(master_seed: int, trial: int) -> random.Random:
    digest = hashlib.sha256(f"{master_seed}:{trial}".encode()).digest()
    return random.Random(int.from_bytes(digest[:16], "big"))


@dataclass
class EmpiricalTable:
    """Outcome counts over a fixed number of trials."""

    counts: dict[str, int]
    trials: int

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
# One pipeline: draw a matrix, take its Smith form, tally the cokernel
# ---------------------------------------------------------------------------


class SublatticeSampler:
    """Exactly uniform draws over sublattices of Z^d of index < X.

    A draw picks an integer in [0, N_d(X)) and decodes it positionally: first
    the index n (weighted by the number of sublattices of that index), then the
    Hermite diagonal (weighted by its matrix count, in the order of
    `lattices.hermite_diagonals`), then the off-diagonal digits
    (`lattices.hermite_matrix`). No rejection, no materialized list.
    """

    def __init__(self, d: int, X: int):
        if d < 1 or X < 2:
            raise DomainError("need d >= 1 and X >= 2")
        if d > DEFAULT_SUBLATTICE_DIM_CAP or X > DEFAULT_SUBLATTICE_INDEX_CAP:
            raise ResourceLimitError(
                f"uniform sublattice sampling capped at d <= {DEFAULT_SUBLATTICE_DIM_CAP},"
                f" X <= {DEFAULT_SUBLATTICE_INDEX_CAP}"
            )
        self.d, self.X = d, X
        # cumulative counts: _cum[n] = N_d(n+1)
        self._cum = list(itertools.accumulate(dirichlet_coefficients_upto(d, X)))
        self.total = self._cum[-1]

    def rows_at(self, code: int) -> list[list[int]]:
        """The Hermite matrix of the code-th sublattice in the canonical order,
        0 <= code < total, as the codec's rows, without a HermiteBasis check."""
        if not 0 <= code < self.total:
            raise DomainError("code out of range")
        n = bisect_right(self._cum, code)
        off = code - self._cum[n - 1]
        for diag, count in zip(*hermite_diagonals(self.d, n)):
            if off < count:
                break
            off -= count
        return hermite_matrix(diag, off)

    def basis_at(self, code: int) -> HermiteBasis:
        """The code-th sublattice in the canonical order, 0 <= code < total."""
        return HermiteBasis(self.rows_at(code))


def _matrices(cfg: SampleConfig) -> Iterator[Sequence[Sequence[int]]]:
    """One integer matrix per trial: the Hermite basis of a uniform sublattice
    of index < X, or entries uniform in [-k, k], or in exhaustive mode every
    matrix with entries in [-k, k]. Caps are checked before the first draw."""
    d, k = cfg.d, cfg.entry_bound
    if cfg.index_bound is not None:
        sampler = SublatticeSampler(d, cfg.index_bound)
        draw = lambda rng: sampler.rows_at(rng.randrange(sampler.total))
    elif d > MAX_MATRIX_DIM:
        raise ResourceLimitError(f"the matrix model is capped at d <= {MAX_MATRIX_DIM}")
    elif cfg.exhaustive:
        if cfg.matrices > DEFAULT_EXHAUSTIVE_CAP:
            raise ResourceLimitError(
                f"exhaustive mode needs {cfg.matrices} matrices; cap {DEFAULT_EXHAUSTIVE_CAP}")
        return ([list(flat[i * d : (i + 1) * d]) for i in range(d)]
                for flat in itertools.product(range(-k, k + 1), repeat=d * d))
    else:
        # randrange(-k, k + 1) is randint(-k, k) without its extra call.
        draw = lambda rng: [[rng.randrange(-k, k + 1) for _ in range(d)] for _ in range(d)]
    return (draw(_trial_rng(cfg.master_seed, t)) for t in range(cfg.trials))


def sample_cokernel_type(cfg: SampleConfig) -> Iterator[tuple[SmithForm, tuple[int, ...]]]:
    """Stream (SmithForm, p-Sylow type) per trial of either model.

    Singular draws are not an error: they carry free_rank > 0 and their p-Sylow
    type refers to the torsion part only.
    """
    for m in _matrices(cfg):
        sf = smith_normal_form(m)
        yield sf, p_part(reversed(sf.diag), cfg.p)


@dataclass
class ModelResult:
    """Tallies of one run of either model: p-Sylow types and p-ranks."""

    config: SampleConfig
    type_table: EmpiricalTable
    rank_table: EmpiricalTable

    def rank_at_most_freq(self, m: int) -> Fraction:
        c = sum(
            self.rank_table.counts.get(rank_label(r), 0) for r in range(m + 1)
        )
        return Fraction(c, self.rank_table.trials)


def _tally(cfg: SampleConfig) -> ModelResult:
    """Tally the cokernels of every trial, labelled once at the end. The p-rank
    is d minus the rank over F_p: the free rank plus the number of invariant
    factors divisible by p. A singular draw's type is its free part."""
    ranks: Counter = Counter()
    types: Counter = Counter()
    for sf, parts in sample_cokernel_type(cfg):
        ranks[sf.free_rank + len(parts)] += 1
        types[None if sf.free_rank else parts] += 1
    n = sum(ranks.values())
    type_counts = {FREE_LABEL if t is None else type_label(t): c for t, c in types.items()}
    rank_counts = {rank_label(r): ranks[r] for r in range(cfg.d + 1)}
    return ModelResult(
        config=cfg,
        type_table=EmpiricalTable(type_counts, n),
        rank_table=EmpiricalTable(rank_counts, n),
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
