"""Sublattices of Z^d by cotype: the exact tally and its enumeration oracle.

The tally multiplies local tables: the number of index-n sublattices of each
cotype is multiplicative in n, and its p-local factor is a subgroup count of
(Z/p^nu_1)^d (`cotype.zeta._local_cotype_table`). The oracle enumerates the
sublattices through their Hermite-basis matrices (upper triangular,
column-style, off-diagonal entries reduced modulo the row's diagonal) and
classifies each by its Smith invariant factors. Only the enumeration is
independent of the q-binomial formulas, so it checks the formula side. All
arithmetic is exact.

One Hermite codec serves counting, enumeration and the sampler of
`cotype.simulate`: `hermite_diagonals` (an index's diagonals with their basis
counts) and `hermite_matrix` (a code decoded into the off-diagonal digits).
One Smith reduction, `smith_normal_form`, serves `cotype_of`, the enumeration
oracle and both Monte Carlo models of `cotype.simulate`. It reduces modulo D,
one nonzero minor of full rank (Hafner-McCurley), so that no entry grows past
|D|: a Bareiss elimination gives the rank and D (the diagonal's product for a
triangular basis), and every invariant s_i divides D, so gcd(s_i, D) is exact.
A 2 x 2 matrix takes the closed form gcd of the entries, |det| / gcd.
The finite quotients themselves, as abelian p-groups with their subgroup and
generating-tuple counts, belong to `cotype.groups`.
"""

from __future__ import annotations

import csv
import itertools
import json
from dataclasses import dataclass
from functools import lru_cache
from math import comb, gcd, prod
from operator import mul
from typing import Iterable, Iterator, Sequence

from .errors import DomainError, ResourceLimitError
from .primes import factorize, smallest_prime_factors, valuation
from .zeta import _local_cotype_table

# Cap on how many matrices an enumeration call may visit.
DEFAULT_ENUM_CAP = 10**8
# Cap on one Hermite diagonal table, which takes about 30 bytes per entry.
MAX_HERMITE_TABLE = 2 * 10**6  # on d * diagonals
# Caps of the formula tally: its local tables build q-binomial rows of length
# d, and it holds one to three cotypes of d entries per index below X.
MAX_TALLY_RANK = 64
MAX_TALLY_SIZE = 3 * 10**5  # on d * X
# Tally methods: the formula, and the enumeration oracle.
TALLY_METHODS = ("auto", "enumerate")


@dataclass(frozen=True)
class HermiteBasis:
    """Column-style Hermite basis of a finite-index sublattice of Z^d.

    rows is a d x d upper-triangular integer matrix whose columns span the
    sublattice: diagonal entries positive, and every entry in row i (to the
    right of the diagonal) lies in [0, rows[i][i]).
    """

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        d = len(self.rows)
        rows = tuple(tuple(r) for r in self.rows)
        if any(len(r) != d for r in rows):
            raise DomainError("basis matrix must be square")
        for i, row in enumerate(rows):
            if row[i] <= 0:
                raise DomainError("diagonal entries must be positive")
            if any(row[j] != 0 for j in range(i)):
                raise DomainError("basis matrix must be upper triangular")
            if any(not 0 <= row[j] < row[i] for j in range(i + 1, d)):
                raise DomainError("off-diagonal entries must be reduced mod the row diagonal")
        object.__setattr__(self, "rows", rows)

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def index(self) -> int:
        """[Z^d : L] = product of the diagonal."""
        return prod(self.rows[i][i] for i in range(self.dim))

    def matrix(self) -> list[list[int]]:
        return [list(r) for r in self.rows]


@dataclass(frozen=True)
class Cotype:
    """The d-tuple (a_1,...,a_d) with a_{i+1} | a_i and Z^d/L = sum of Z/a_i."""

    alpha: tuple[int, ...]

    def __post_init__(self):
        alpha = tuple(int(a) for a in self.alpha)
        if not alpha or any(a < 1 for a in alpha):
            raise DomainError("cotype entries must be positive")
        for i in range(len(alpha) - 1):
            if alpha[i] % alpha[i + 1]:
                raise DomainError(f"cotype violates divisibility chain: {alpha}")
        object.__setattr__(self, "alpha", alpha)

    @property
    def dim(self) -> int:
        return len(self.alpha)

    @property
    def index(self) -> int:
        return prod(self.alpha)

    @property
    def corank(self) -> int:
        """Largest i with alpha_i != 1 (1-based); 0 for the full lattice."""
        for i in range(self.dim, 0, -1):
            if self.alpha[i - 1] != 1:
                return i
        return 0

    def p_part(self, p: int) -> tuple[int, ...]:
        """Type of the p-Sylow subgroup of Z^d/L."""
        return p_part(self.alpha, p)


def p_part(chain: Iterable[int], p: int) -> tuple[int, ...]:
    """Partition of the p-adic valuations of a divisibility chain given largest
    first (zeros dropped): the type of the p-Sylow subgroup of sum Z/a_i."""
    return tuple([valuation(a, p) for a in chain if a % p == 0])


@dataclass(frozen=True)
class SmithForm:
    """Invariant factors s_1 | s_2 | ... | s_r plus the free rank of the cokernel."""

    diag: tuple[int, ...]
    free_rank: int

    def __post_init__(self):
        diag = tuple(self.diag)
        if any(s <= 0 for s in diag):
            raise DomainError("invariant factors must be positive")
        for i in range(len(diag) - 1):
            if diag[i + 1] % diag[i]:
                raise DomainError(f"invariant factors violate divisibility: {diag}")
        object.__setattr__(self, "diag", diag)

    @property
    def rank(self) -> int:
        return len(self.diag)


def smith_normal_form(matrix: Iterable[Iterable[int]]) -> SmithForm:
    """Smith Normal Form invariants of a square integer matrix (any rank): the
    one Smith reduction of the package, computed modulo a determinant.

    A fraction-free (Bareiss) elimination with full pivoting gives the rank r
    and |D|, D a nonzero r x r minor; for an upper-triangular matrix with a
    nonzero diagonal, D is the product of the diagonal and the elimination is
    skipped. Row and column operations then reduce the matrix in Z/DZ, pivoting
    on the smallest residue, so that no entry grows past D. Each pivot p gives
    gcd(p, D), and the chain is repaired by gcd/lcm exchanges. Reduction mod D
    keeps Z^n / (A Z^n + D Z^n), whose invariants are gcd(s_i, D), with s_i = 0
    for i > r. Since s_1 ... s_r is the gcd of the r x r minors, it divides D,
    so gcd(s_i, D) = s_i for i <= r: the first r repaired invariants are exact.
    At n = 2 the determinantal divisors give the form directly: s_1 is the gcd
    of the entries and s_2 = |det| / s_1.
    """
    m = [list(map(int, row)) for row in matrix]
    n = len(m)
    if any(len(row) != n for row in m):
        raise DomainError("smith_normal_form expects a square matrix")
    if n == 2:
        (a, b), (c, e) = m
        s = gcd(a, b, c, e)
        det = abs(a * e - b * c)
        if det:
            return SmithForm((s, det // s), 0)
        return SmithForm((s,), 1) if s else SmithForm((), 2)
    r, D = _rank_and_minor(m)
    diag = [gcd(p, D) for p in _pivots_mod(m, D)]
    # A pivot that vanishes mod D stands for gcd(0, D) = D.
    diag += [D] * (r - len(diag))
    # Repair the divisibility chain with gcd/lcm exchanges on diagonal pairs.
    changed = True
    while changed:
        changed = False
        for i in range(len(diag) - 1):
            a, b = diag[i], diag[i + 1]
            if b % a:
                g = gcd(a, b)
                diag[i], diag[i + 1] = g, a * b // g
                changed = True
    return SmithForm(tuple(diag[:r]), n - r)


def _rank_and_minor(m: list[list[int]]) -> tuple[int, int]:
    """The rank r of a square matrix and |D| for one nonzero r x r minor D (1
    when r = 0), by Bareiss elimination with full pivoting on a copy; an
    upper-triangular matrix with a nonzero diagonal gives its diagonal."""
    n = len(m)
    D = 1
    for i, row in enumerate(m):
        if any(row[:i]):
            break
        D *= row[i]
    else:
        if D:
            return n, abs(D)
    a = [row[:] for row in m]
    prev = 1
    for k in range(n):
        at = next(((i, j) for i in range(k, n) for j in range(k, n) if a[i][j]), None)
        if at is None:
            return k, abs(prev)
        i, j = at
        a[k], a[i] = a[i], a[k]
        if j != k:
            for row in a[k:]:
                row[k], row[j] = row[j], row[k]
        rk = a[k]
        pk = rk[k]
        for i in range(k + 1, n):
            ri = a[i]
            f = ri[k]
            # Sylvester's identity: every quotient is exact.
            for j in range(k + 1, n):
                ri[j] = (ri[j] * pk - f * rk[j]) // prev
        prev = pk
    return n, abs(prev)


def _pivots_mod(m: list[list[int]], D: int) -> list[int]:
    """Diagonalize m over Z/DZ, entries kept in [0, D): each step moves the
    smallest nonzero residue of the trailing block to the pivot and clears its
    column and row by division with remainder, swapping in any nonzero
    remainder as the new, smaller pivot. Returns the pivots found before the
    trailing block vanishes mod D."""
    n = len(m)
    m = [[v % D for v in row] for row in m]
    pivots = []
    for k in range(n):
        best = pi = pj = 0
        for i in range(k, n):
            row = m[i]
            for j in range(k, n):
                v = row[j]
                if v and (not best or v < best):
                    best, pi, pj = v, i, j
        if not best:
            break
        if pi != k:
            m[k], m[pi] = m[pi], m[k]
        if pj != k:
            for row in m[k:]:
                row[k], row[pj] = row[pj], row[k]
        while True:
            rk = m[k]
            pivot = rk[k]
            changed = False
            for i in range(k + 1, n):
                ri = m[i]
                v = ri[k]
                if v:
                    q = v // pivot
                    for j in range(k, n):
                        ri[j] = (ri[j] - q * rk[j]) % D
                    if ri[k]:
                        m[k], m[i] = ri, rk
                        rk = ri
                        pivot = ri[k]
                        changed = True
            if changed:
                continue
            # The column is clear, so a row step changes only the pivot row.
            for j in range(k + 1, n):
                v = rk[j]
                if v:
                    v %= pivot
                    rk[j] = v
                    if v:
                        for row in m[k:]:
                            row[k], row[j] = row[j], row[k]
                        changed = True
                        break
            if not changed:
                break
        pivots.append(pivot)
    return pivots


def cotype_of(basis: HermiteBasis) -> Cotype:
    """Cotype of the sublattice: the Smith invariants, largest first."""
    sf = smith_normal_form(basis.rows)
    if sf.free_rank:
        raise DomainError("Hermite basis must have full rank")
    return Cotype(tuple(reversed(sf.diag)))


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------


@lru_cache(maxsize=4096)
def _divisors(n: int) -> tuple[int, ...]:
    divs = [1]
    for p, e in factorize(n):
        divs = [x * p**k for x in divs for k in range(e + 1)]
    return tuple(sorted(divs))


def _diagonal_count(d: int, n: int) -> int:
    """Number of Hermite diagonals of index n in Z^d (ordered factorizations of
    n into d factors): prod over p^e || n of C(e + d - 1, d - 1)."""
    return prod(comb(e + d - 1, d - 1) for _, e in factorize(n))


def _basis_count(diag: tuple[int, ...]) -> int:
    """Number of Hermite bases with this diagonal, prod a_i^(d-1-i) = prod over
    k < d of a_1 * ... * a_k: every off-diagonal entry of row i is in [0, a_i)."""
    out = head = 1
    for a in diag[:-1]:
        head *= a
        out *= head
    return out


# Sized above the sampler's DEFAULT_SUBLATTICE_INDEX_CAP, every index of a draw.
@lru_cache(maxsize=1 << 14)
def hermite_diagonals(d: int, n: int) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """The Hermite diagonals (a_1,...,a_d) of index n, and beside them the
    number of bases each carries (_basis_count). Diagonals come in
    lexicographic order, the canonical order of the enumeration and the
    sampler. ResourceLimitError when d * diagonals passes MAX_HERMITE_TABLE."""
    if d < 1 or n < 1:
        raise DomainError("need d >= 1 and n >= 1")
    if d * _diagonal_count(d, n) > MAX_HERMITE_TABLE:
        raise ResourceLimitError(f"Hermite table of Z^{d} at index {n} > {MAX_HERMITE_TABLE}")
    divs = _divisors(n)
    # The diagonals of the last k rows for every index m | n, k growing to d.
    tails = {m: [(m,)] for m in divs}
    for k in range(2, d + 1):
        tails = {
            m: [(a,) + rest for a in _divisors(m) for rest in tails[m // a]]
            for m in (divs if k < d else (n,))
        }
    diags = tuple(tails[n])
    return diags, tuple(map(_basis_count, diags))


def hermite_matrix(diag: tuple[int, ...], code: int) -> list[list[int]]:
    """The code-th Hermite matrix with diagonal diag, 0 <= code < its
    _basis_count: the entries right of the diagonal, row by row, are the
    digits of code, least significant first, in base diag[i] for row i."""
    d = len(diag)
    rows = []
    for i, a in enumerate(diag):
        row = [0] * d
        row[i] = a
        for j in range(i + 1, d):
            row[j] = code % a
            code //= a
        rows.append(row)
    return rows


def hnf_count(d: int, n: int) -> int:
    """Number of index-n sublattices of Z^d, summed over Hermite diagonals."""
    return sum(hermite_diagonals(d, n)[1])


def enumeration_size(d: int, indices: Sequence[int], max_matrices: int = DEFAULT_ENUM_CAP,
                     contracted: bool = False) -> int:
    """Number of matrices an enumeration of Z^d at the given indices visits:
    every Hermite basis, or with contracted, the bases of each diagonal's core
    (_tally_index_enumerated); ResourceLimitError past max_matrices. Each index
    is first refused on its number of diagonals, each visited at least once, so
    that no large table is built."""
    _check_cap(max_matrices)
    total = len(indices)
    for n in indices:
        if total + _diagonal_count(d, n) - 1 > max_matrices:
            break
        diags, counts = hermite_diagonals(d, n)
        if contracted:
            counts = map(_basis_count, (tuple(a for a in g if a > 1) for g in diags))
        total += sum(counts) - 1
    else:
        if total <= max_matrices:
            return total
    raise ResourceLimitError(
        f"enumerating Z^{d} at {len(indices)} indices up to {indices[-1]} visits"
        f" more than {max_matrices} matrices"
    )


def enumerate_hnf(
    d: int, n: int, max_matrices: int = DEFAULT_ENUM_CAP
) -> Iterator[HermiteBasis]:
    """Yield every index-n sublattice of Z^d exactly once, as a Hermite basis,
    in the order of hermite_diagonals and then of codes."""
    if d < 1 or n < 1:
        raise DomainError("need d >= 1 and n >= 1")
    enumeration_size(d, [n], max_matrices)
    for diag, count in zip(*hermite_diagonals(d, n)):
        for code in range(count):
            yield HermiteBasis(hermite_matrix(diag, code))


def _tally_index_enumerated(d: int, n: int, counts: dict[tuple[int, ...], int]) -> None:
    """Add the cotype tally of all index-n sublattices of Z^d into counts.

    Rows/columns with diagonal 1 are contracted away first: such a basis contains
    the standard vector e_i, so coordinate i contributes nothing to the quotient,
    and each free off-diagonal entry aimed at a deleted column multiplies the
    count without changing the cotype.
    """
    for diag, count in zip(*hermite_diagonals(d, n)):
        core = tuple(a for a in diag if a > 1)
        pad = (1,) * (d - len(core))
        if len(core) <= 1:
            key = core + pad
            counts[key] = counts.get(key, 0) + count
            continue
        core_count = _basis_count(core)
        mult = count // core_count
        for code in range(core_count):
            sf = smith_normal_form(hermite_matrix(core, code))
            key = tuple(reversed(sf.diag)) + pad
            counts[key] = counts.get(key, 0) + mult


@dataclass(frozen=True)
class CotypeTally:
    """Cotype counts of all sublattices of Z^d of index < X (strict bound)."""

    d: int
    X: int
    counts: dict[Cotype, int]

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def count(self, alpha: Iterable[int]) -> int:
        return self.counts.get(Cotype(tuple(alpha)), 0)

    def n_with_corank_at_most(self, m: int) -> int:
        return sum(c for ct, c in self.counts.items() if ct.corank <= m)

    def rows(self) -> list[tuple[tuple[int, ...], int, int, int]]:
        """Sorted (alpha, corank, index, count) rows."""
        out = [(ct.alpha, ct.corank, ct.index, c) for ct, c in self.counts.items()]
        out.sort(key=lambda r: (r[2], r[0]))
        return out

    def to_json_dict(self) -> dict:
        return {
            "d": self.d,
            "X": self.X,
            "bound": "index < X",
            "total": self.total,
            "n_by_corank": self.n_by_corank(),
            "rows": self.json_rows(),
        }

    def n_by_corank(self) -> dict[str, int]:
        """n_with_corank_at_most(m) for every m <= d, in one pass."""
        at = [0] * (self.d + 1)
        for ct, c in self.counts.items():
            at[ct.corank] += c
        return {str(m): n for m, n in enumerate(itertools.accumulate(at))}

    def json_rows(self) -> list[dict]:
        return [
            {"alpha": list(alpha), "corank": crk, "index": idx, "count": c}
            for alpha, crk, idx, c in self.rows()
        ]

    def write_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh, sort_keys=True, indent=2)
            fh.write("\n")

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(f"# d={self.d} X={self.X} convention: index < X\n")
            writer = csv.writer(fh)
            writer.writerow(["alpha", "corank", "index", "count"])
            for alpha, crk, idx, c in self.rows():
                writer.writerow([".".join(map(str, alpha)), crk, idx, c])


def tally_cotypes_at_index(d: int, n: int) -> dict[tuple[int, ...], int]:
    """Exact map cotype-tuple -> count over sublattices of index exactly n, by
    the contracted enumeration (at most DEFAULT_ENUM_CAP matrices)."""
    if d < 1 or n < 1:
        raise DomainError("need d >= 1 and n >= 1")
    enumeration_size(d, [n], contracted=True)
    counts: dict[tuple[int, ...], int] = {}
    _tally_index_enumerated(d, n, counts)
    return counts


def _check_cap(max_matrices: int) -> None:
    if max_matrices < 0:
        raise DomainError(f"the matrix cap must be >= 0, got {max_matrices}")


def _tally_formula(d: int, X: int) -> dict[tuple[int, ...], int]:
    """Cotype counts of index < X as products of the local tables of the prime
    powers of each index, factored by one smallest-prime-factor sieve."""
    if d > MAX_TALLY_RANK or d * X > MAX_TALLY_SIZE:
        raise ResourceLimitError(
            f"formula tally at d = {d}, X = {X} exceeds the caps d <= {MAX_TALLY_RANK}"
            f" and d * X <= {MAX_TALLY_SIZE}"
        )
    spf = smallest_prime_factors(X - 1)
    counts: dict[tuple[int, ...], int] = {(1,) * d: 1} if X > 1 else {}
    for n in range(2, X):
        rows = None
        while n > 1:
            p = spf[n]
            e = valuation(n, p)
            n //= p**e
            table = _local_cotype_table(d, p, e)
            rows = table if rows is None else [
                (tuple(map(mul, alpha, beta)), c * k)
                for alpha, c in rows
                for beta, k in table
            ]
        counts.update(rows)
    return counts


def tally_cotypes(
    d: int,
    X: int,
    method: str = "auto",
    max_matrices: int = DEFAULT_ENUM_CAP,
) -> CotypeTally:
    """Tally every sublattice of Z^d of index < X by cotype (exact).

    method 'auto' multiplies the local cotype tables of each index's prime
    powers (d <= MAX_TALLY_RANK, d * X <= MAX_TALLY_SIZE). The oracle
    'enumerate', independent of those formulas, contracts the Hermite rows with
    diagonal 1 away, Smith-reduces the rest and visits at most max_matrices
    matrices.
    """
    if d < 1 or X < 1:
        raise DomainError("need d >= 1 and X >= 1")
    if method not in TALLY_METHODS:
        raise DomainError(f"unknown tally method {method!r}")
    _check_cap(max_matrices)

    if method == "auto":
        raw = _tally_formula(d, X)
    else:
        enumeration_size(d, range(1, X), max_matrices)
        raw = {}
        for n in range(1, X):
            _tally_index_enumerated(d, n, raw)
    counts = {Cotype(k): v for k, v in raw.items() if v}
    return CotypeTally(d=d, X=X, counts=counts)
