"""Local cotype zeta factors, coefficient extraction, corank densities, and
tail-bounded Euler products.

The local factor of the cotype zeta function of Z^d at a prime p is the rational
function  sum_lambda w(d,lambda)(p^-1) prod_{j in lambda} t_j  over
(1-t_1)...(1-t_d),  in the variables t_j = p^(-z_j) with
z_j = s_1 + ... + s_j - j(d-j). Everything identity-shaped is evaluated in exact
rational arithmetic.

The four Euler products share one engine, fed each local factor as an exact
ratio of polynomials in q = 1/p, on integers in 160-bit fixed point: the
primes in (128, cutoff] enter as exp(sum_k c_k S_k), c_k the exact coefficients
of log(local factor) and S_k = sum_p p^-k, and the primes p <= 128 as their
exact local values. value is the truncated product, rounded once to float;
tail_bound covers the missing primes and the engine's numeric error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import DomainError, NotWeaklyDecreasingError, check_cap, power_bits
from .groups import Partition, ambient_subgroup_count, partitions_of
from .primes import factorize, primes_upto, require_prime
from .qcomb import (
    _POCHHAMMER_DEPTH,
    _pochhammer_tail,
    IntPolynomial,
    ONE,
    ZERO,
    all_descent_sets,
    descent_poly_inclusion_exclusion,
    one_minus_q_pow,
    q_binomial,
    q_pochhammer,
    value_at_inverse,
)

# Euler products: the primes multiplied directly (up to a power of two, P0);
# the fixed-point bits of every integer in the engine; the log-series order K,
# past which p^-k < 2^-_FIXED_BITS for every p > P0, so that every fixed-point
# power sum past K is exactly 0.
_DIRECT_UPTO = 2**7
_FIXED_BITS = 160
_LOG_TERMS = _FIXED_BITS // (_DIRECT_UPTO.bit_length() - 1)


@dataclass(frozen=True)
class LocalFactor:
    """Exact local factor of the cotype zeta function of Z^d.

    numerator maps each subset of {1,...,d-1} to its coefficient in Z[q]; the
    denominator is the formal product (1-t_1)...(1-t_d).
    """

    d: int
    numerator: tuple[tuple[tuple[int, ...], IntPolynomial], ...]

    def coefficient(self, subset) -> IntPolynomial:
        key = tuple(sorted(subset))
        for s, poly in self.numerator:
            if s == key:
                return poly
        return ZERO

    def canonical_str(self) -> str:
        terms = []
        for subset, poly in sorted(self.numerator, key=lambda kv: (len(kv[0]), kv[0])):
            tmon = "*".join(f"t{j}" for j in subset)
            s = str(poly)
            if not subset:
                terms.append(s)
            elif " " in s or s.startswith("-"):
                terms.append(f"({s})*{tmon}")
            else:
                terms.append(f"{s}*{tmon}")
        num = " + ".join(terms)
        den = "".join(f"(1-t{i})" for i in range(1, self.d + 1))
        num_str = num if len(terms) == 1 else f"({num})"
        den_str = den if self.d == 1 else f"({den})"
        return f"{num_str} / {den_str}"


def local_factor(d: int) -> LocalFactor:
    """Exact symbolic local factor for Z^d; numerator coefficients are the
    descent polynomials."""
    if d < 1:
        raise DomainError("d must be positive")
    check_cap("local_factor_dim", d)
    numer = tuple(
        (tuple(sorted(lam.elements)), descent_poly_inclusion_exclusion(lam))
        for lam in all_descent_sets(d)
    )
    return LocalFactor(d=d, numerator=numer)


def _validate_exponents(d: int, nu) -> tuple[int, ...]:
    nu = tuple(int(v) for v in nu)
    if len(nu) != d:
        raise DomainError(f"expected {d} exponents, got {len(nu)}")
    if any(v < 0 for v in nu):
        raise NotWeaklyDecreasingError("exponents must be nonnegative")
    if any(nu[i] < nu[i + 1] for i in range(d - 1)):
        raise NotWeaklyDecreasingError(f"exponents must be weakly decreasing: {nu}")
    return nu


def local_coefficient(d: int, p: int, nu) -> int:
    """Number of sublattices of Z^d whose cotype at p is (p^nu_1,...,p^nu_d).

    Evaluated by the conjugate-exponent product formula (equivalently: the number
    of subgroups of (Z/p^nu_1)^d isomorphic to the group of type nu). The value
    is below 2^(d + E log2 p), E = sum_j (d - 2j + 1) nu_j, as a product of
    q-binomials [n, k]_p < 2^k p^(k(n-k)), and it multiplies nu_1 factors: the
    coefficient_bits cap bounds both.
    """
    require_prime(p)
    nu = _validate_exponents(d, nu)
    E = sum((d - 2 * j + 1) * v for j, v in enumerate(nu, 1))
    check_cap("coefficient_bits", max(d + power_bits(p, E), max(nu, default=0)))
    return ambient_subgroup_count(d, Partition.of(nu), p)


@lru_cache(maxsize=None)
def _local_cotype_table(d: int, p: int, e: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """The index-p^e sublattices of Z^d by cotype: pairs ((p^nu_1,...,p^nu_d),
    count), nu running over the partitions of e with at most d parts. p must be
    a prime; callers take it from a factorization, so it is not checked."""
    return tuple(
        (tuple(p**v for v in parts) + (1,) * (d - len(parts)),
         ambient_subgroup_count(d, parts, p))
        for parts in partitions_of(e, max_parts=d)
    )


def dirichlet_coefficient(d: int, n: int) -> int:
    """Number of index-n sublattices of Z^d: over the prime powers p^e || n,
    the product of [e + d - 1 choose d - 1]_p = prod_{i<d} (p^(e+i) - 1) / (p^i - 1).
    Each is below 2^(d-1) p^((d-1) e), which the coefficient_bits cap bounds."""
    if d < 1 or n < 1:
        raise DomainError("need d >= 1 and n >= 1")
    powers = factorize(n)
    check_cap("coefficient_bits", sum((d - 1) * (1 + e * math.log2(p)) for p, e in powers))
    return math.prod(math.prod(p ** (e + i) - 1 for i in range(1, d))
                     // math.prod(p**i - 1 for i in range(1, d)) for p, e in powers)


def dirichlet_coefficients_upto(d: int, N: int) -> list[int]:
    """Coefficients of zeta(s) zeta(s-1) ... zeta(s-(d-1)) for 1 <= n < N,
    by sieve convolution of the sequences n^0, n^1, ..., n^(d-1).

    Returns a list a of length N with a[0] = 0; independent of both the
    enumeration and the q-binomial formulas, so it can referee between them.
    Its d * N shares the row tally's tally_size cap.
    """
    if d < 1 or N < 1:
        raise DomainError("need d >= 1 and N >= 1")
    check_cap("tally_size", d * N)
    return _dirichlet_levels(d, N)[-1]


def _dirichlet_levels(d: int, N: int) -> list[list[int]]:
    """Every row of the sieve convolution: row k - 1 holds N_k(n) for n < N,
    the coefficients of zeta(s) ... zeta(s-(k-1)), for k = 1, ..., d >= 1."""
    levels = [[0] + [1] * (N - 1)]
    for j in range(1, d):
        a, b = levels[-1], [0] * N
        for n in range(1, N):
            an = a[n]
            if an:
                for m in range(n, N, n):
                    b[m] += an * (m // n) ** j
        levels.append(b)
    return levels


# ---------------------------------------------------------------------------
# Local factors of the Euler products, as exact ratios num(q) / den(q), q = 1/p
# ---------------------------------------------------------------------------

_Ratio = tuple[IntPolynomial, IntPolynomial]


@lru_cache(maxsize=None)
def _durfee_sum(d: int, m: int) -> IntPolynomial:
    """sum_{i=0}^{m} [d choose i]_q q^(i^2) prod_{j=i+1}^{m} (1-q^j), by Horner."""
    acc = ZERO
    for i in range(m + 1):
        acc = acc * one_minus_q_pow(i) + q_binomial(d, i).shifted(i * i)
    return acc


def _residue_factor(d: int, m: int) -> _Ratio:
    """(1-q) sum_{i<=m} [d choose i]_q q^(i^2) / prod_{j<=i} (1-q^j), over the
    denominator prod_{j<=m} (1-q^j), with 1-q cancelled."""
    if not 1 <= m <= d:
        raise DomainError(f"need 1 <= m <= d, got m={m}, d={d}")
    check_cap("corank_dim", d)
    return _durfee_sum(d, m), q_pochhammer(2, m)


def _density_factor(d: int, m: int) -> _Ratio:
    """prod_{j<=d} (1-q^j) sum_{i<=m} [d choose i]_q q^(i^2) / prod_{j<=i} (1-q^j)."""
    return _residue_factor(d, m)[0] * q_pochhammer(m + 1, d), ONE


def _squarefree_factor() -> _Ratio:
    """prod_{j=2}^{B} (1 - q^j), B = _POCHHAMMER_DEPTH."""
    return q_pochhammer(2, _POCHHAMMER_DEPTH), ONE


# ---------------------------------------------------------------------------
# Corank densities and residues (exact local values)
# ---------------------------------------------------------------------------


def corank_local_factor_at_pole(d: int, m: int, p: int) -> Fraction:
    """Exact p-local value of the corank-<=m counting residue at its pole:

    (1 - p^-1) * sum_{i=0}^{m} [d choose i]_q q^(i^2) / prod_{j=1}^{i} (1-q^j)
    with q = 1/p; the local factor of corank_zeta_residue.
    """
    return value_at_inverse(p, *_residue_factor(d, m))


def cokernel_rank_density_local(d: int, p: int, m: int) -> Fraction:
    """Exact p-local probability that the cokernel of a random d x d integer
    matrix has rank at most m (entries uniform in [-k,k], limit k -> infinity):

    A(d) * sum_{i=0}^{m} p^(-i^2) A(d) / (A(i)^2 A(d-i)),  A(n) = prod (1-p^-j).
    """
    if not 0 <= m <= d:
        raise DomainError(f"need 0 <= m <= d, got m={m}, d={d}")
    A = [value_at_inverse(p, q_pochhammer(1, n)) for n in range(d + 1)]
    return A[d] * sum(Fraction(1, p ** (i * i)) * A[d] / (A[i] ** 2 * A[d - i])
                      for i in range(m + 1))


def corank_density_local(d: int, m: int, p: int) -> Fraction:
    """Exact p-factor of the corank-<=m density:
    prod_{j=1}^{d}(1-p^-j) * sum_{i=0}^{m} [d choose i]_q q^(i^2)/prod(1-q^j);
    the local factor of corank_density."""
    return value_at_inverse(p, *_density_factor(d, m))


# ---------------------------------------------------------------------------
# Euler products with tail bounds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EulerProductValue:
    """A truncated product over primes p <= prime_cutoff, rounded to float.

    The interval [value - tail_bound, value + tail_bound] contains the full
    infinite product. In log space, the bound adds: the missing primes, at most
    2 C cutoff^(1-e) / (e-1) from a per-formula C and e with |log local(p)| <=
    C p^-e for p > cutoff; any truncation of the local factor itself; and the
    engine's numeric error (log series cut after 22 terms, floors at 2^-160,
    one rounding to float).
    """

    value: float
    prime_cutoff: int
    tail_bound: float


def _log_series(f: IntPolynomial) -> list[int]:
    """b_k = k [q^k] log f for k <= _LOG_TERMS by Newton's identities; they are
    integers as f(0) = 1."""
    if f(0) != 1:
        raise ArithmeticError(f"local factor polynomial {f} is not 1 at q = 0")
    a = list(f.coeffs[: _LOG_TERMS + 1]) + [0] * _LOG_TERMS
    b = [0] * (_LOG_TERMS + 1)
    for k in range(1, _LOG_TERMS + 1):
        b[k] = k * a[k] - sum(a[j] * b[k - j] for j in range(1, k))
    return b


def _reciprocal_root_bound(f: IntPolynomial) -> float:
    """Fujiwara's bound on |rho| over f(q) = prod (1 - rho q), rounded up:
    2 max |a_i|^(1/i), with a_n / 2 in place of the top coefficient a_n."""
    n = f.degree
    return 2.0 * (1 + 1e-12) * max(
        (math.exp((math.log(abs(c)) - (i == n) * math.log(2)) / i)
         for i, c in enumerate(f.coeffs) if i and c), default=0.0)


@lru_cache(maxsize=8)
def _power_sums(cutoff: int) -> tuple[int, tuple[int, ...]]:
    """(N, S) over the N primes p in (_DIRECT_UPTO, cutoff]: S[k] is the sum of
    floor(2^_FIXED_BITS / p^k), each floor low by less than 1; past _LOG_TERMS
    every floor is 0."""
    ps = [p for p in primes_upto(cutoff) if p > _DIRECT_UPTO]
    sums = [0] * (_LOG_TERMS + 1)
    xs = [1 << _FIXED_BITS] * len(ps)
    for k in range(1, _LOG_TERMS + 1):
        xs = [x // p for x, p in zip(xs, ps)]  # floor(floor(a/b)/c) = floor(a/(bc))
        while xs and not xs[-1]:  # xs falls as p grows: its zeros are a suffix
            xs.pop()
        sums[k] = sum(xs)
    return len(ps), tuple(sums)


def _fixed_exp(x: int) -> tuple[int, int]:
    """(E, err) with |E - 2^F exp(x / 2^F)| <= err, F = _FIXED_BITS: the Taylor
    series, each term floored. For |x| <= 2^(F-1) a term's error enters the next
    times at most 1/2, so each is off by under 2, and the rest by under 1."""
    if 2 * abs(x) > 1 << _FIXED_BITS:
        raise ArithmeticError(f"exp needs |x| <= 1/2, got {x / 2**_FIXED_BITS}")
    terms = [1 << _FIXED_BITS]
    while terms[-1]:
        terms.append(terms[-1] * abs(x) // (len(terms) << _FIXED_BITS))
    return sum(-t if x < 0 and j % 2 else t for j, t in enumerate(terms)), 2 * len(terms)


def _euler_product(factor: _Ratio, cutoff: int, tail_c: float, tail_e: int,
                   extra_log_tail: float = 0.0) -> EulerProductValue:
    """prod_{p <= cutoff} num(1/p) / den(1/p) in fixed point: exp(sum_k c_k S_k)
    for the primes past _DIRECT_UPTO, where log(num/den) = sum_k c_k q^k exactly
    and S_k = sum_p p^-k, times the exact value at each prime up to it."""
    if cutoff < 2:
        raise DomainError("prime cutoff must be at least 2")
    check_cap("prime_cutoff", cutoff)
    num, den = factor
    primes = primes_upto(cutoff)
    n_series, sums = _power_sums(cutoff)
    n_direct = len(primes) - n_series
    b = [x - y for x, y in zip(_log_series(num), _log_series(den))]
    log_sum = sum(Fraction(b[k] * sums[k], k) for k in range(1, len(b)))  # sums are 2^F S_k
    acc, err = _fixed_exp(math.floor(log_sum))
    low = acc - err
    for p in primes[:n_direct]:
        v = value_at_inverse(p, *factor)
        acc = acc * v.numerator // v.denominator
        low = min(low, acc)
    value = acc / (1 << _FIXED_BITS)  # correctly rounded

    # Numeric error in log space. |b_k| <= deg(f) R^k for each f with R its root
    # bound, and S_k <= P0^(1-k) / (k-1), so the log series past K adds at most
    # n P0 r^(K+1) / (K (K+1) (1-r)) with r = R / P0 and n = deg num + deg den.
    K, r = _LOG_TERMS, max(map(_reciprocal_root_bound, factor)) / _DIRECT_UPTO
    if r >= 0.5:
        raise ArithmeticError("the log series of this local factor converges too slowly")
    truncation = (num.degree + den.degree) * _DIRECT_UPTO * r ** (K + 1) / (
        K * (K + 1) * (1 - r)) if n_series else 0.0
    floors = n_series * sum(abs(b[k]) / k for k in range(1, K + 1)) * 2.0**-_FIXED_BITS
    # floors at 2^-F: exp's argument (2^-F), then err units of exp and a unit per
    # direct prime, each under 1 / low in log space; then the rounding to float
    rounding = 2.0**-_FIXED_BITS + (err + n_direct) / low + 2.0**-53
    log_tail = (2.0 * tail_c * cutoff ** (1 - tail_e) / (tail_e - 1) + extra_log_tail
                + truncation + floors + rounding)
    return EulerProductValue(value, cutoff, abs(value) * math.expm1(log_tail))


def corank_zeta_residue(d: int, m: int, prime_cutoff: int) -> EulerProductValue:
    """Residue of the Dirichlet series counting corank-<=m sublattices at its
    rightmost pole s = d, as a truncated Euler product.

    Tail constant: |log local(p)| <= 6 p^-2; the local factor is 1 + c_p with
    c_p = q^2(1-q^(d-1))/(1-q) + higher Durfee-square terms, q = 1/p.
    """
    return _euler_product(_residue_factor(d, m), prime_cutoff, tail_c=6.0, tail_e=2)


def corank_density(d: int, m: int, prime_cutoff: int) -> EulerProductValue:
    """Limiting proportion of sublattices of Z^d with corank at most m.

    Tail constant: |log local(p)| <= 15 p^(-(m+1)^2), since 1 - local(p) is the
    p-local probability of corank exceeding m.
    """
    return _euler_product(_density_factor(d, m), prime_cutoff,
                          tail_c=15.0, tail_e=(m + 1) ** 2)


def cocyclic_growth_constant(d: int, prime_cutoff: int) -> EulerProductValue:
    """The constant theta with  #cocyclic sublattices of index < X  ~ theta X^d / d:

    prod_p (1 + (p^(d-1) - 1) / (p^(d+1) - p^d)).

    Cocyclic means corank at most 1, so the local factor is the m = 1 residue
    numerator, 1 + q^2 + ... + q^d (the residue's denominator is 1 at m = 1),
    with its own tail constant: |log local(p)| <= 1/(p(p-1)) <= 2 p^-2. It is
    read from _durfee_sum, past _residue_factor's corank_dim cap, so d runs from
    2 to its own cocyclic_dim cap.
    """
    if d < 2:
        raise DomainError("the cocyclic growth constant needs d >= 2")
    check_cap("cocyclic_dim", d)
    return _euler_product((_durfee_sum(d, 1), ONE), prime_cutoff, tail_c=2.0, tail_e=2)


def squarefree_index_density(prime_cutoff: int) -> EulerProductValue:
    """Limiting probability (large d) that a random sublattice has squarefree
    index: prod_p prod_{j=2}^inf (1 - p^-j).

    Tail constant: |log local(p)| <= 2 p^-2 for p >= 3. The inner products stop
    at j = B = _POCHHAMMER_DEPTH. By _pochhammer_tail, that moves log local(p)
    by at most -log(1 - delta_p) <= delta_p / (1 - delta_2); as
    sum_{p>=3} delta_p <= sum_{n>=3} n^-B / 2 <= 3^-B <= delta_2 (1 - 2 delta_2),
    all primes together add at most 2 delta_2 = 2^(1-B) to the log tail.
    """
    return _euler_product(_squarefree_factor(), prime_cutoff, tail_c=2.0, tail_e=2,
                          extra_log_tail=float(2 * _pochhammer_tail(2)))
