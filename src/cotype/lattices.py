"""Sublattices of Z^d by cotype: the exact tally and its enumeration oracle.

The tally multiplies local tables: the number of index-n sublattices of each
cotype is multiplicative in n, and its p-local factor is a subgroup count of
(Z/p^nu_1)^d (`cotype.zeta._local_cotype_table`). The oracle enumerates the
sublattices through their Hermite-basis matrices (upper triangular,
column-style, off-diagonal entries reduced modulo the row's diagonal) and
classifies each by its Smith invariant factors. Only the enumeration is
independent of the q-binomial formulas, so it checks the formula side. All
arithmetic is exact. A cotype is the plain tuple (a_1,...,a_d), largest first,
and a Smith form the named tuple (diag, free_rank): every producer builds the
divisibility chain correct by construction, so neither re-checks it.

One Hermite codec serves counting and enumeration: `hermite_diagonals` (an
index's diagonals with the prefix offsets of their basis counts) and
`hermite_matrix` (a code decoded into the off-diagonal digits). The sampler of
`cotype.simulate` decodes the same code order row by row, without diagonal
tables, and the codec is its oracle. One Smith reduction,
`smith_normal_form`, serves `cotype_of`, the enumeration oracle and both Monte
Carlo models of `cotype.simulate`. At n <= 3 it takes the closed form of the
determinantal divisors. Larger matrices go through a Bareiss elimination,
which gives the rank r, one nonzero r x r minor D (the diagonal's product for
a triangular basis) and, at full rank, a multiple g of D_(n-1), the gcd of the
(n-1)-minors. When g = 1 the form is (1, ..., 1, |det|) at once, as for most
dense matrices. Otherwise the matrix is reduced modulo g at full rank, or
modulo D (Hafner-McCurley), so that no entry grows past the modulus: every
invariant divides D and every one but the last divides g, so gcd(s_i, D) and
gcd(s_i, g) are exact, and modulo g the last is |det| over the others.
The finite quotients themselves, as abelian p-groups with their subgroup and
generating-tuple counts, belong to `cotype.groups`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import comb, gcd, prod
from operator import mul
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import CAPS, DomainError, check_cap
from .primes import factorize, smallest_prime_factors, valuation
from .zeta import _local_cotype_table

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


def corank(alpha: Sequence[int]) -> int:
    """Largest i (1-based) with alpha_i != 1 in a cotype; 0 for Z^d itself."""
    i = len(alpha)
    while i and alpha[i - 1] == 1:
        i -= 1
    return i


def p_part(chain: Iterable[int], p: int) -> tuple[int, ...]:
    """Partition of the p-adic valuations of a divisibility chain given largest
    first (zeros dropped): the type of the p-Sylow subgroup of sum Z/a_i."""
    return tuple([valuation(a, p) for a in chain if a % p == 0])


class SmithForm(NamedTuple):
    """Invariant factors s_1 | s_2 | ... | s_r plus the free rank of the cokernel."""

    diag: tuple[int, ...]
    free_rank: int

    @property
    def rank(self) -> int:
        return len(self.diag)


def smith_normal_form(matrix: Iterable[Sequence[int]]) -> SmithForm:
    """Smith Normal Form invariants of a square integer matrix (any rank): the
    one Smith reduction of the package. At n = 2 and 3 the determinantal
    divisors give it: D_1 is the gcd of the entries, D_2 that of the 2 x 2
    minors, D_n = |det|; the rank r counts the nonzero D_k, s_k = D_k / D_(k-1)
    for k <= r, and the free rank is n - r.

    Otherwise a fraction-free (Bareiss) elimination with full pivoting gives
    the rank r and |D|, D a nonzero r x r minor; for an upper-triangular matrix
    with a nonzero diagonal, D is the product of the diagonal and the
    elimination is skipped. At full rank it also gives g, the gcd of |det| and
    the four (n-1)-minors left in its trailing 2 x 2 block after n - 2 steps,
    a multiple of D_(n-1). If g = 1, then s_1 = ... = s_(n-1) = 1 and s_n =
    |det|. Otherwise row and column operations reduce the matrix modulo M = g
    (full rank) or M = D, pivoting on the smallest residue, so that no entry
    grows past M. Each pivot p gives gcd(p, M), and the chain is repaired by
    gcd/lcm exchanges. Reduction mod M keeps Z^n / (A Z^n + M Z^n), whose
    invariants are gcd(s_i, M), with s_i = 0 for i > r. Since s_1 ... s_r is
    the gcd of the r x r minors, it divides D, and s_1 ... s_(n-1) = D_(n-1)
    divides g, so the first r (with M = D) or n - 1 (with M = g) repaired
    invariants are exact; with M = g, s_n is |det| over their product.
    """
    m = [*matrix]
    n = len(m)
    if n != 2 and n != 3:
        m = [[*map(int, row)] for row in m]
    try:
        # At n = 2 and 3 the unpacking checks the shape.
        if n == 2:
            (a, b), (c, e) = m
        elif n == 3:
            (a, b, c), (d, e, f), (g, h, i) = m
        elif [*map(len, m)] != [n] * n:
            raise ValueError
    except ValueError:
        raise DomainError("smith_normal_form expects a square matrix") from None
    if n == 2:
        s = gcd(a, b, c, e)
        det = abs(a * e - b * c)
        if det:
            return SmithForm((s, det // s), 0)
        return SmithForm((s,), 1) if s else SmithForm((), 2)
    if n == 3:
        A, B, C = e * i - f * h, f * g - d * i, d * h - e * g
        s1 = gcd(a, b, c, d, e, f, g, h, i)
        s2 = gcd(A, B, C, b * i - c * h, a * i - c * g, a * h - b * g,
                 b * f - c * e, a * f - c * d, a * e - b * d)
        det = abs(a * A + b * B + c * C)
        if det:
            return SmithForm((s1, s2 // s1, det // s2), 0)
        if s2:
            return SmithForm((s1, s2 // s1), 1)
        return SmithForm((s1,), 2) if s1 else SmithForm((), 3)
    r, D, g = _rank_and_minor(m)
    if g == 1:
        # D_(n-1) divides g: s_1 = ... = s_(n-1) = 1 and s_n = |det|.
        return SmithForm((1,) * (n - 1) + (D,), 0)
    M = g or D
    diag = [gcd(p, M) for p in _pivots_mod(m, M)]
    # A pivot that vanishes mod M stands for gcd(0, M) = M.
    diag += [M] * (r - len(diag))
    # Repair the divisibility chain with gcd/lcm exchanges on diagonal pairs.
    changed = True
    while changed:
        changed = False
        for i in range(len(diag) - 1):
            a, b = diag[i], diag[i + 1]
            if b % a:
                c = gcd(a, b)
                diag[i], diag[i + 1] = c, a * b // c
                changed = True
    if g:
        # Only s_n can exceed gcd(s_n, g): it is |det| / D_(n-1).
        diag[-1] = D // prod(diag[:-1])
    return SmithForm(tuple(diag[:r]), n - r)


def _rank_and_minor(m: list[list[int]]) -> tuple[int, int, int]:
    """The rank r of a square matrix, |D| for one nonzero r x r minor D (1
    when r = 0), and g, a multiple of D_(n-1), the gcd of the (n-1)-minors:
    by Bareiss elimination with full pivoting on a copy. After n - 2 steps
    each entry of the trailing 2 x 2 block is +- an (n-1)-minor (Sylvester's
    identity), and g is their gcd with the determinant; g = 0 when r < n, and
    for an upper-triangular matrix with a nonzero diagonal, which gives its
    diagonal's product as D without elimination."""
    n = len(m)
    D = 1
    for i, row in enumerate(m):
        if any(row[:i]):
            break
        D *= row[i]
    else:
        if D:
            return n, abs(D), 0
    a = [row[:] for row in m]
    prev = 1
    g = 0
    for k in range(n):
        if k == n - 2:
            g = gcd(*a[k][k:], *a[k + 1][k:])
        at = next(((i, j) for i in range(k, n) for j in range(k, n) if a[i][j]), None)
        if at is None:
            return k, abs(prev), 0
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
    return n, abs(prev), gcd(g, prev)


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


def cotype_of(basis: HermiteBasis) -> tuple[int, ...]:
    """Cotype of the sublattice: the Smith invariants, largest first."""
    return smith_normal_form(basis.rows).diag[::-1]


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


# An enumeration reads each index's table twice. Under its matrix cap a tally
# reaches at most 533 indices at d >= 3; at d = 2 (up to 11,026) the rebuilt
# tables cost 0.28 s in all, against minutes of Smith forms.
@lru_cache(maxsize=1 << 10)
def hermite_diagonals(d: int, n: int) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """The Hermite diagonals (a_1,...,a_d) of index n in lexicographic order,
    the canonical order of the enumeration and the sampler, and the prefix
    offsets (0, c_0, c_0 + c_1, ..., total) of their _basis_count c_i: the codes
    of diagonal i are [offsets[i], offsets[i + 1]). ResourceLimitError when
    d * diagonals passes the hermite_table cap."""
    if d < 1 or n < 1:
        raise DomainError("need d >= 1 and n >= 1")
    check_cap("hermite_table", d * _diagonal_count(d, n))
    divs = _divisors(n)
    # The diagonals of the last k rows for every index m | n, k growing to d.
    tails = {m: [(m,)] for m in divs}
    for k in range(2, d + 1):
        tails = {
            m: [(a,) + rest for a in _divisors(m) for rest in tails[m // a]]
            for m in (divs if k < d else (n,))
        }
    diags = tuple(tails[n])
    return diags, (0, *itertools.accumulate(map(_basis_count, diags)))


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
    """Number of index-n sublattices of Z^d: the last offset of its Hermite table."""
    return hermite_diagonals(d, n)[1][-1]


def enumeration_size(d: int, indices: Sequence[int], max_matrices: int = CAPS["enum_matrices"],
                     contracted: bool = False) -> int:
    """Number of matrices an enumeration of Z^d at the given indices visits:
    every Hermite basis, or with contracted, the bases of each diagonal's core
    (_tally_index_enumerated); ResourceLimitError past max_matrices. Each index
    is first refused on its number of diagonals, each visited at least once, so
    that no large table is built."""
    _check_max_matrices(max_matrices)
    total = len(indices)
    for n in indices:
        diagonals = _diagonal_count(d, n)
        total += diagonals - 1
        if total > max_matrices:
            break
        check_cap("hermite_table", d * diagonals)  # hermite_diagonals' check, past its cache
        diags, offsets = hermite_diagonals(d, n)
        total += (sum(_basis_count(tuple(a for a in g if a > 1)) for g in diags)
                  if contracted else offsets[-1]) - len(diags)
    check_cap("enum_matrices", total, max_matrices)
    return total


def enumerate_hnf(
    d: int, n: int, max_matrices: int = CAPS["enum_matrices"]
) -> Iterator[HermiteBasis]:
    """Yield every index-n sublattice of Z^d exactly once, as a Hermite basis,
    in the order of hermite_diagonals and then of codes."""
    if d < 1 or n < 1:
        raise DomainError("need d >= 1 and n >= 1")
    enumeration_size(d, [n], max_matrices)
    diags, offsets = hermite_diagonals(d, n)
    for diag, lo, hi in zip(diags, offsets, offsets[1:]):
        for code in range(hi - lo):
            yield HermiteBasis(hermite_matrix(diag, code))


def _tally_index_enumerated(d: int, n: int, counts: dict[tuple[int, ...], int]) -> None:
    """Add the cotype tally of all index-n sublattices of Z^d into counts.

    Rows/columns with diagonal 1 are contracted away first: such a basis contains
    the standard vector e_i, so coordinate i contributes nothing to the quotient,
    and each free off-diagonal entry aimed at a deleted column multiplies the
    count without changing the cotype.
    """
    diags, offsets = hermite_diagonals(d, n)
    for diag, lo, hi in zip(diags, offsets, offsets[1:]):
        count = hi - lo
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
            key = sf.diag[::-1] + pad
            counts[key] = counts.get(key, 0) + mult


@dataclass(frozen=True)
class CotypeTally:
    """Cotype counts of all sublattices of Z^d of index < X (strict bound)."""

    d: int
    X: int
    counts: dict[tuple[int, ...], int]

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def count(self, alpha: Iterable[int]) -> int:
        return self.counts.get(tuple(alpha), 0)

    def n_with_corank_at_most(self, m: int) -> int:
        return sum(c for alpha, c in self.counts.items() if corank(alpha) <= m)

    def n_by_corank(self) -> dict[str, int]:
        """n_with_corank_at_most(m) for every m <= d, in one pass."""
        at = [0] * (self.d + 1)
        for alpha, c in self.counts.items():
            at[corank(alpha)] += c
        return {str(m): n for m, n in enumerate(itertools.accumulate(at))}


def tally_cotypes_at_index(d: int, n: int) -> dict[tuple[int, ...], int]:
    """Exact map cotype-tuple -> count over sublattices of index exactly n, by
    the contracted enumeration (within the enum_matrices cap)."""
    if d < 1 or n < 1:
        raise DomainError("need d >= 1 and n >= 1")
    enumeration_size(d, [n], contracted=True)
    counts: dict[tuple[int, ...], int] = {}
    _tally_index_enumerated(d, n, counts)
    return counts


def _check_max_matrices(max_matrices: int) -> None:
    if not 0 <= max_matrices <= CAPS["enum_matrices"]:
        raise DomainError(
            f"the matrix cap must be in [0, {CAPS['enum_matrices']}], got {max_matrices}")


def _tally_formula(d: int, X: int) -> dict[tuple[int, ...], int]:
    """Cotype counts of index < X as products of the local tables of the prime
    powers of each index, factored by one smallest-prime-factor sieve."""
    check_cap("tally_rank", d)
    check_cap("tally_size", d * X)
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
    max_matrices: int = CAPS["enum_matrices"],
) -> CotypeTally:
    """Tally every sublattice of Z^d of index < X by cotype (exact).

    method 'auto' multiplies the local cotype tables of each index's prime
    powers (within the caps tally_rank on d and tally_size on d * X). The oracle
    'enumerate', independent of those formulas, contracts the Hermite rows with
    diagonal 1 away, Smith-reduces the rest and visits at most max_matrices
    matrices.
    """
    if d < 1 or X < 1:
        raise DomainError("need d >= 1 and X >= 1")
    if method not in TALLY_METHODS:
        raise DomainError(f"unknown tally method {method!r}")
    _check_max_matrices(max_matrices)

    if method == "auto":
        counts = _tally_formula(d, X)
    else:
        enumeration_size(d, range(1, X), max_matrices)
        counts = {}
        for n in range(1, X):
            _tally_index_enumerated(d, n, counts)
    return CotypeTally(d=d, X=X, counts=counts)
