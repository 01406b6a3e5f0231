"""Exact arithmetic in Z[q] and the q-combinatorics of permutation descents.

Everything is symbolic with arbitrary-precision integer coefficients: q-integers,
q-factorials, Gaussian binomials, q-multinomials, the subset binomial attached to a
descent set, and the descent polynomials w(d, lambda) computed by three independent
methods (inclusion-exclusion, permutation enumeration, fraction-free determinant).
The inclusion-exclusion table is computed at q = 2^64, one integer a polynomial:
each coefficient is below 2^(d-1) d! < 2^63 up to d = 16.
"""

from __future__ import annotations

import itertools
import sys
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from operator import gt
from typing import Iterable, Iterator

from .errors import DomainError, check_cap

# Depth B at which every infinite product prod_j (1 - p^-j) is cut.
_POCHHAMMER_DEPTH = 64
_PACK_BITS = 64  # bits a coefficient in _descent_polys_from_subsets, a "q" word


class IntPolynomial:
    """A dense univariate polynomial in q with integer coefficients.

    coeffs[i] multiplies q**i; the tuple never carries trailing zeros, so the zero
    polynomial has an empty tuple. All arithmetic is exact; division raises
    ArithmeticError if the quotient would not lie in Z[q].
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):  # pragma: no cover - safety net
        raise AttributeError("IntPolynomial is immutable")

    @property
    def degree(self) -> int:
        """Degree of the leading term; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def low_exponent(self) -> int:
        """Exponent of the lowest nonzero term (undefined for zero)."""
        if not self.coeffs:
            raise DomainError("the zero polynomial has no lowest term")
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        raise AssertionError("unreachable")

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other) -> "IntPolynomial":
        return IntPolynomial(
            a + b for a, b in itertools.zip_longest(self.coeffs, other.coeffs, fillvalue=0)
        )

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial(-c for c in self.coeffs)

    def __sub__(self, other) -> "IntPolynomial":
        return IntPolynomial(
            a - b for a, b in itertools.zip_longest(self.coeffs, other.coeffs, fillvalue=0)
        )

    def __mul__(self, other) -> "IntPolynomial":
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return ZERO
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        terms = [(j, b) for j, b in enumerate(other.coeffs) if b]
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in terms:
                    out[i + j] += a * b
        return IntPolynomial(out)

    def __divmod__(self, other: "IntPolynomial"):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        den = other.coeffs
        dd = len(den) - 1
        lead = den[-1]
        if len(rem) - 1 < dd:
            return ZERO, self
        quot = [0] * (len(rem) - dd)
        for k in range(len(rem) - 1, dd - 1, -1):
            c = rem[k]
            if c == 0:
                continue
            q, r = divmod(c, lead)
            if r:
                # Inexact coefficient: the quotient does not lie in Z[q].
                return None, None
            quot[k - dd] = q
            for j, b in enumerate(den):
                rem[k - dd + j] -= q * b
        return IntPolynomial(quot), IntPolynomial(rem)

    def exact_div(self, other: "IntPolynomial") -> "IntPolynomial":
        """Exact quotient in Z[q]; ArithmeticError if a remainder survives."""
        q, r = divmod(self, other)
        if q is None or not r.is_zero():
            raise ArithmeticError(f"inexact polynomial division: ({self}) / ({other})")
        return q

    def shifted(self, k: int) -> "IntPolynomial":
        """Multiply by q**k."""
        return IntPolynomial((0,) * k + self.coeffs)

    def __call__(self, x):
        """Evaluate by Horner's rule; exact for int/Fraction arguments."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = abs(c)
            if k == 0:
                body = str(mag)
            elif k == 1:
                body = "q" if mag == 1 else f"{mag}q"
            else:
                body = f"q^{k}" if mag == 1 else f"{mag}q^{k}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f" + {body}" if c > 0 else f" - {body}")
        return "".join(parts)

    def __repr__(self) -> str:
        return f"IntPolynomial('{self}')"


ZERO = IntPolynomial()
ONE = IntPolynomial([1])
Q = IntPolynomial([0, 1])


def one_minus_q_pow(j: int) -> IntPolynomial:
    """The polynomial 1 - q**j."""
    if j == 0:
        return ZERO
    return IntPolynomial([1] + [0] * (j - 1) + [-1])


@lru_cache(maxsize=None)
def q_pochhammer(lo: int, hi: int) -> IntPolynomial:
    """prod_{j=lo}^{hi} (1 - q^j); 1 when hi < lo."""
    out = ONE
    for j in range(lo, hi + 1):
        out = out * one_minus_q_pow(j)
    return out


def value_at_inverse(p: int, num: IntPolynomial, den: IntPolynomial = ONE) -> Fraction:
    """Exact num(1/p) / den(1/p). Horner's rule at p over the ascending
    coefficients of f gives the integer p^deg(f) f(1/p), so one Fraction is formed."""
    a, b = (reduce(lambda acc, c: acc * p + c, f.coeffs, 0) for f in (num, den))
    return Fraction(a * p ** den.degree, b * p ** max(num.degree, 0))


def _pochhammer_tail(p: int) -> Fraction:
    """delta_p = p^-B / (p - 1), B = _POCHHAMMER_DEPTH, with
    1 - delta_p <= prod_{j>B} (1 - p^-j) <= 1: each factor lies in [0, 1],
    prod (1 - x_j) >= 1 - sum x_j for x_j in [0, 1] (by induction, as
    (1 - s)(1 - x) >= 1 - s - x), and sum_{j>B} p^-j = p^-B / (p - 1)."""
    return Fraction(1, p**_POCHHAMMER_DEPTH * (p - 1))


def q_int(n: int) -> IntPolynomial:
    """[n]_q = 1 + q + ... + q^(n-1); [0]_q = 0."""
    if n < 0:
        raise DomainError("q_int requires n >= 0")
    return IntPolynomial([1] * n)


@lru_cache(maxsize=None)
def q_factorial(n: int) -> IntPolynomial:
    """[n]_q! = [n]_q [n-1]_q ... [2]_q, with [0]_q! = [1]_q! = 1."""
    if n < 0:
        raise DomainError("q_factorial requires n >= 0")
    if n <= 1:
        return ONE
    return q_factorial(n - 1) * q_int(n)


@lru_cache(maxsize=None)
def q_binomial(n: int, k: int) -> IntPolynomial:
    """Gaussian binomial [n choose k]_q; zero outside 0 <= k <= n.

    Built as prod_{i<=k} (1 - q^(n-k+i)) / (1 - q^i) with k = min(k, n-k). The
    product up to i is [n-k+i choose i]_q, so each division by 1 - q^i is exact:
    it runs as b_t = a_t + b_(t-i), and an ArithmeticError signals a bug.
    """
    if n < 0:
        raise DomainError("q_binomial requires n >= 0")
    if k < 0 or k > n:
        return ZERO
    k = min(k, n - k)
    c = [1]
    for i in range(1, k + 1):
        j = n - k + i
        c = [a - b for a, b in zip(c + [0] * j, [0] * j + c)]
        for t in range(i, len(c)):
            c[t] += c[t - i]
        if any(c[-i:]):
            raise ArithmeticError(f"[{n} choose {k}]_q: 1 - q^{i} left a remainder")
        del c[-i:]
    return IntPolynomial(c)


def q_multinomial(parts: Iterable[int]) -> IntPolynomial:
    """q-multinomial of (m1,...,mk): [m1+...+mk]_q! / ([m1]_q! ... [mk]_q!).

    Evaluated by the telescoping product of Gaussian binomials, so no division is
    performed. Zero parts are allowed and contribute nothing.
    """
    ms = tuple(parts)
    if not ms:
        raise DomainError("q_multinomial requires at least one part")
    if any(m < 0 for m in ms):
        raise DomainError("q_multinomial parts must be nonnegative")
    result = ONE
    tail = sum(ms)
    for m in ms:
        result = result * q_binomial(tail, m)
        tail -= m
    return result


# ---------------------------------------------------------------------------
# Descent sets and permutations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DescentSet:
    """A subset of {1,...,d-1}, stored strictly decreasing, with ambient d.

    The last position d can never be a descent, so d itself is excluded.
    """

    d: int
    elements: tuple[int, ...]

    def __post_init__(self):
        if self.d < 1:
            raise DomainError("ambient dimension must be >= 1")
        elems = tuple(self.elements)
        if list(elems) != sorted(set(elems), reverse=True):
            raise DomainError("descent set elements must be strictly decreasing")
        if elems and (elems[0] > self.d - 1 or elems[-1] < 1):
            raise DomainError(f"descent set elements must lie in 1..{self.d - 1}")
        object.__setattr__(self, "elements", elems)

    @classmethod
    def of(cls, d: int, elements: Iterable[int] = ()) -> "DescentSet":
        return cls(d, tuple(sorted(set(elements), reverse=True)))

    def gaps(self) -> tuple[int, ...]:
        """Gap vector (m0,...,mk) with lambda_0 = d and lambda_{k+1} = 0; sums to d."""
        ext = (self.d,) + self.elements + (0,)
        return tuple(ext[i] - ext[i + 1] for i in range(len(ext) - 1))


def subset_gap_multinomial(d: int, elements: Iterable[int]) -> IntPolynomial:
    """The subset binomial of lambda inside {1,...,d}: q-multinomial of its gaps.

    Unlike a descent set, lambda here may contain d itself (the top gap is then 0,
    which contributes nothing), and the empty set gives 1.
    """
    elems = sorted(set(elements), reverse=True)
    if elems and (elems[0] > d or elems[-1] < 1):
        raise DomainError(f"subset elements must lie in 1..{d}")
    ext = [d] + elems + [0]
    return q_multinomial(ext[i] - ext[i + 1] for i in range(len(ext) - 1))


def q_binom_subset(lam: DescentSet) -> IntPolynomial:
    """Subset binomial of a descent set; equals 1 for the empty set."""
    return subset_gap_multinomial(lam.d, lam.elements)


@dataclass(frozen=True)
class Permutation:
    """A permutation of {1,...,d}, stored as its image tuple (pi(1),...,pi(d))."""

    images: tuple[int, ...]

    def __post_init__(self):
        d = len(self.images)
        if sorted(self.images) != list(range(1, d + 1)):
            raise DomainError("images must be a bijection of 1..d")

    @property
    def d(self) -> int:
        return len(self.images)


def descents(pi: Permutation) -> DescentSet:
    """Positions i with pi(i) > pi(i+1)."""
    im = pi.images
    return DescentSet.of(pi.d, (i for i in range(1, pi.d) if im[i - 1] > im[i]))


def _inversion_count(images: tuple[int, ...]) -> int:
    """Number of pairs i < j with images[i] > images[j]."""
    return sum(itertools.starmap(gt, itertools.combinations(images, 2)))


def inversions(pi: Permutation) -> int:
    """Number of pairs i < j with pi(i) > pi(j)."""
    return _inversion_count(pi.images)


# ---------------------------------------------------------------------------
# Descent polynomials, three ways
# ---------------------------------------------------------------------------


def descent_poly_inclusion_exclusion(lam: DescentSet) -> IntPolynomial:
    """w(d, lambda) as the alternating sum over mu <= lambda of subset binomials,
    read from the table of every descent set of its d."""
    check_cap("descent_table_dim", lam.d)
    return _descent_polys_from_subsets(lam.d)[frozenset(lam.elements)]


@lru_cache(maxsize=None)
def _descent_polys_from_subsets(d: int) -> dict[frozenset, IntPolynomial]:
    """Map from descent set (as frozenset) to w(d, lambda): the subset binomial
    of every subset of {1,...,d-1} (bit i-1 of a mask marks i), Moebius-inverted
    in place one element at a time, (d-1) 2^(d-2) subtractions in all, each
    polynomial held as its value at q = 2^B, B = _PACK_BITS. The subset binomials
    in k of the sets with top element j are those in j times [k choose j]_q. An
    entry, at any step, is a signed sum of distinct subset binomials, each with
    nonnegative coefficients summing to at most d!; so |coefficient| <= 2^(d-1) d!
    < 2^(B-1) for d <= 16 (descent_table_dim is 14): each B-bit word holds one."""
    x = 1 << _PACK_BITS
    tables = [[1]]  # tables[k - 1]: the subset binomials in k
    for k in range(2, d + 1):
        binoms = [q_binomial(k, j)(x) for j in range(1, k)]
        tables.append([1] + [b * v for b, table in zip(binoms, tables) for v in table])
    table, n = tables[-1], d - 1
    for i in range(n):
        for mask in range(1 << n):
            if mask >> i & 1:
                table[mask] -= table[mask ^ 1 << i]
    keys = [frozenset(i + 1 for i in range(n) if mask >> i & 1) for mask in range(1 << n)]
    # Add 2^(B-1) to each word and flip its top bit back: it reads as signed.
    width = d * (d - 1) // 2 + 1  # the subset binomials have degree < width
    bias = (x**width - 1) // (x - 1) << (_PACK_BITS - 1)
    order = 1 if sys.byteorder == "little" else -1  # of the words in to_bytes
    return {key: IntPolynomial(memoryview(((v + bias) ^ bias).to_bytes(
        8 * width, sys.byteorder)).cast("q")[::order]) for key, v in zip(keys, table)}


@lru_cache(maxsize=None)
def _descent_polys_from_permutations(d: int) -> dict[frozenset, IntPolynomial]:
    """Map from descent set (as frozenset) to the inversion generating function."""
    acc: dict[frozenset, list[int]] = defaultdict(lambda: [0] * (d * (d - 1) // 2 + 1))
    for images in itertools.permutations(range(1, d + 1)):
        desc = frozenset(i for i in range(1, d) if images[i - 1] > images[i])
        acc[desc][_inversion_count(images)] += 1
    return {desc: IntPolynomial(coeffs) for desc, coeffs in acc.items()}


def descent_poly_permutations(lam: DescentSet) -> IntPolynomial:
    """w(d, lambda) as sum of q^inv(pi) over permutations with descent set lambda."""
    check_cap("permutation_dim", lam.d)
    table = _descent_polys_from_permutations(lam.d)
    return table.get(frozenset(lam.elements), ZERO)


def _poly_det(mat: list[list[IntPolynomial]]) -> IntPolynomial:
    """Fraction-free (Bareiss) determinant over Z[q]; mutates its argument."""
    n = len(mat)
    sign = 1
    prev = ONE
    for k in range(n - 1):
        if mat[k][k].is_zero():
            for i in range(k + 1, n):
                if not mat[i][k].is_zero():
                    mat[k], mat[i] = mat[i], mat[k]
                    sign = -sign
                    break
            else:
                return ZERO
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = mat[i][j] * mat[k][k] - mat[i][k] * mat[k][j]
                mat[i][j] = num.exact_div(prev)
            mat[i][k] = ZERO
        prev = mat[k][k]
    det = mat[n - 1][n - 1]
    return -det if sign < 0 else det


def descent_poly_determinant(lam: DescentSet) -> IntPolynomial:
    """w(d, lambda) as the determinant of Gaussian binomials.

    Entry (i, j) of the (k+1)x(k+1) matrix is [d - lambda_{i+1} choose
    lambda_j - lambda_{i+1}]_q with lambda_0 = d, lambda_{k+1} = 0, expanded
    fraction-free so every intermediate stays in Z[q].
    """
    ext = (lam.d,) + lam.elements + (0,)
    k = len(lam.elements)
    mat = [
        [q_binomial(lam.d - ext[i + 1], ext[j] - ext[i + 1]) for j in range(k + 1)]
        for i in range(k + 1)
    ]
    return _poly_det(mat)


def all_descent_sets(d: int) -> Iterator[DescentSet]:
    """All 2^(d-1) descent sets of ambient dimension d."""
    universe = range(1, d)
    for r in range(d):
        for combo in itertools.combinations(universe, r):
            yield DescentSet.of(d, combo)


# ---------------------------------------------------------------------------
# Symbolic identity checks
# ---------------------------------------------------------------------------


def qbinom_telescope_holds(n: int, e: int) -> bool:
    """Check sum_{k=0}^{n} [n,k]_q q^(k^2+ek) prod_{j=k+1+e}^{n+e} (1-q^j) == 1."""
    if n < 0 or e < 0:
        raise DomainError("arguments must be nonnegative")
    total = ZERO
    for k in range(n + 1):
        term = q_binomial(n, k).shifted(k * k + e * k)
        for j in range(k + 1 + e, n + e + 1):
            term = term * one_minus_q_pow(j)
        total = total + term
    return total == ONE


def qbinom_subset_identity_holds(d: int, i: int) -> bool:
    """Check the subset-binomial square identity for 1 <= i <= d.

    sum over mu <= {1..i-1} of (subset binomial of mu u {i}) * prod_{j in mu} q^(j^2)
    * prod_{j not in mu} (1 - q^(j^2))  ==  [d choose i]_q * prod_{j=1}^{i}
    (1-q^(j^2))/(1-q^j), both sides expanded exactly in Z[q].
    """
    if not 1 <= i <= d:
        raise DomainError(f"need 1 <= i <= d, got i={i}, d={d}")
    lhs = ZERO
    below = list(range(1, i))
    for r in range(len(below) + 1):
        for mu in itertools.combinations(below, r):
            term = subset_gap_multinomial(d, mu + (i,))
            for j in mu:
                term = term.shifted(j * j)
            for j in below:
                if j not in mu:
                    term = term * one_minus_q_pow(j * j)
            lhs = lhs + term
    rhs = q_binomial(d, i)
    for j in range(1, i + 1):
        # (1 - q^(j^2)) / (1 - q^j) = 1 + q^j + q^(2j) + ... + q^(j(j-1))
        rhs = rhs * IntPolynomial(
            1 if t % j == 0 else 0 for t in range(j * (j - 1) + 1)
        )
    return lhs == rhs
