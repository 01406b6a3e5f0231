"""Prime sieving helpers, p-adic valuation, factorization by trial division
and the prime check shared by every entry point."""

from functools import lru_cache
from itertools import chain, compress
from math import isqrt
from typing import Iterator

from .errors import CAPS, DomainError, check_cap

# Miller-Rabin bases that decide primality exactly below 3.3 * 10^24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# factorize tests for a prime's power only past this trial divisor.
_TRIAL_BOUND = 1 << 10
# The integers one block of prime_blocks sieves.
_BLOCK = 1 << 15


@lru_cache(maxsize=8)
def primes_upto(n: int) -> tuple[int, ...]:
    """All primes p <= n."""
    return tuple(chain.from_iterable(prime_blocks(1, n)))


def prime_blocks(lo: int, hi: int) -> Iterator[list[int]]:
    """The primes in (lo, hi], ascending, one list per _BLOCK integers: each
    block is a byte sieve by the primes up to isqrt(hi)."""
    root = isqrt(max(hi, 0))
    base = list(chain.from_iterable(prime_blocks(1, root))) if root > 1 else []
    lo = max(lo, 1)
    while lo < hi:
        top = min(lo + _BLOCK, hi)
        sieve = bytearray(b"\x01") * (top - lo)  # sieve[i] stands for lo + 1 + i
        for p in base:
            if p * p > top:
                break
            start = max(p * p, (lo // p + 1) * p)
            sieve[start - lo - 1 :: p] = bytes((top - start) // p + 1)
        yield list(compress(range(lo + 1, top + 1), sieve))
        lo = top


def smallest_prime_factors(n: int) -> list[int]:
    """spf with spf[k] the smallest prime factor of k for 2 <= k <= n (spf[0] = 0,
    spf[1] = 1). Larger primes are stamped first, so smaller ones overwrite them."""
    spf = list(range(n + 1))
    for p in reversed(primes_upto(isqrt(n))):
        spf[p * p : n + 1 : p] = [p] * ((n - p * p) // p + 1)
    return spf


def valuation(n: int, p: int) -> int:
    """v_p(n): the exponent of p in the nonzero integer n (p >= 2)."""
    if n == 0 or p < 2:
        raise DomainError(f"valuation needs n != 0 and p >= 2, got n={n}, p={p}")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def factorize(n: int) -> list[tuple[int, int]]:
    """The prime powers (p, e) exactly dividing n >= 1, p ascending, by trial
    division. Past the divisor _TRIAL_BOUND, and again after each factor found
    past it, the part left is taken whole if it is a prime's power; a divisor
    past CAPS["trial_divisors"] raises ResourceLimitError."""
    if n < 1:
        raise DomainError(f"factorize needs n >= 1, got {n}")
    out, f, due = [], 2, _TRIAL_BOUND + 1  # due: the divisor of the next test or cap check
    while f * f <= n:
        if f == due:
            if f > CAPS["trial_divisors"]:
                check_cap("trial_divisors", f)
            if power := _prime_power(n, f):
                return out + [power]
            due = CAPS["trial_divisors"] + 1
        if n % f == 0:
            e = valuation(n, f)
            n //= f**e
            out.append((f, e))
            if f > _TRIAL_BOUND:
                due = f + 1
        f += 1
    return out + [(n, 1)] if n > 1 else out


def _prime_power(n: int, low: int) -> tuple[int, int] | None:
    """(p, k) with p prime and p^k = n, for n whose prime factors are all at
    least low >= 2; None when n is no prime's power."""
    for k in range(1, n.bit_length() // (low.bit_length() - 1) + 1):
        if (root := _integer_root(n, k)) ** k == n and is_prime(root):
            return root, k
    return None


def _integer_root(n: int, k: int) -> int:
    """floor(n^(1/k)) for n >= 1, by Newton's iteration from above."""
    r = 1 << -(-n.bit_length() // k)
    while (s := ((k - 1) * r + n // r ** (k - 1)) // k) < r:
        r = s
    return r


def is_prime(n: int) -> bool:
    """Miller-Rabin on fixed bases; a strong probable-prime test past 3.3 * 10^24."""
    if n < 2 or any(n % b == 0 for b in _MR_BASES):
        return n in _MR_BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    for b in _MR_BASES:
        x = pow(b, (n - 1) >> s, n)
        if x == 1:
            continue
        for _ in range(s):
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
    return True


def require_prime(p: int, name: str = "p") -> int:
    """p itself if it is prime; DomainError otherwise."""
    if not is_prime(p):
        raise DomainError(f"{name} must be prime, got {p}")
    return p
