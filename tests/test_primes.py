"""Tests for the sieves and the p-adic valuation."""

import random
import time
from itertools import chain
from math import isqrt, prod

import pytest

from cotype.errors import DomainError, ResourceLimitError
from cotype.lattices import hnf_count
from cotype.primes import (
    _BLOCK,
    factorize,
    is_prime,
    prime_blocks,
    primes_upto,
    smallest_prime_factors,
    valuation,
)


def test_prime_blocks_against_primes_upto_and_trial_division():
    top = 2 * _BLOCK + 130
    trial = [n for n in range(2, top + 1) if all(n % f for f in range(2, isqrt(n) + 1))]
    assert primes_upto(top) == tuple(trial)
    for n in range(-2, 200):
        assert primes_upto(n) == tuple(p for p in trial if p <= n), n
    for lo in (1, 128):  # the ranges start at 2 and at 129
        for edge in (_BLOCK, 2 * _BLOCK, lo + _BLOCK, lo + 2 * _BLOCK):
            for hi in (edge - 1, edge, edge + 1):
                blocks = list(prime_blocks(lo, hi))
                assert list(chain.from_iterable(blocks)) == [p for p in trial if lo < p <= hi]
                # block j holds the primes in (lo + j B, lo + (j + 1) B]
                assert len(blocks) == -(-(hi - lo) // _BLOCK), (lo, hi)
                for j, ps in enumerate(blocks):
                    assert all(lo + j * _BLOCK < p <= lo + (j + 1) * _BLOCK for p in ps)
    assert list(prime_blocks(100, 100)) == list(prime_blocks(100, 50)) == []


def test_smallest_prime_factors_against_trial_division():
    spf = smallest_prime_factors(500)
    assert spf[:2] == [0, 1]
    for n in range(2, 501):
        assert spf[n] == next(p for p in range(2, n + 1) if n % p == 0), n
    assert smallest_prime_factors(0) == [0]
    assert smallest_prime_factors(1) == [0, 1]


def test_valuation():
    assert valuation(48, 2) == 4
    assert valuation(-27, 3) == 3
    assert valuation(5, 3) == 0
    assert valuation(3**40 * 7, 3) == 40


@pytest.mark.parametrize("n, p", [(0, 2), (4, 1), (4, 0), (4, -2)])
def test_valuation_domain(n, p):
    with pytest.raises(DomainError):
        valuation(n, p)


def test_factorize_below_2_20_against_the_sieve():
    spf = smallest_prime_factors(1 << 20)
    rng = random.Random(5)
    for n in [*range(1, 3000), *(rng.randrange(1, 1 << 20) for _ in range(3000))]:
        expected, m = {}, n
        while m > 1:
            expected[spf[m]] = expected.get(spf[m], 0) + 1
            m //= spf[m]
        assert factorize(n) == sorted(expected.items()), n


@pytest.mark.parametrize("n", [
    2**61 - 1,
    (2**61 - 1) ** 2,
    2**10 * 3**4 * (2**61 - 1) ** 3,
    (2**31 - 1) * (2**61 - 1),
    1000003 * 1000033,
    1031**5 * 1033,
    4294967279 * 4294967291,
])
def test_factorize_large_cofactors(n):
    start = time.perf_counter()
    out = factorize(n)
    assert time.perf_counter() - start < 5
    assert prod(p**e for p, e in out) == n
    assert all(is_prime(p) and e > 0 for p, e in out)
    assert [p for p, _ in out] == sorted({p for p, _ in out})


@pytest.mark.parametrize("count", [factorize, lambda n: hnf_count(2, n)],
                         ids=["factorize", "hnf_count"])
def test_factorize_refuses_two_large_primes_promptly(count):
    # splitting this product of a 61-bit and a 59-bit prime needs ~2^29.5 rho steps
    n = (2**61 - 1) * (2**59 - 55)
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError):
        count(n)
    assert time.perf_counter() - start < 5
