"""Tests for the sieves and the p-adic valuation."""

import pytest

from cotype.errors import DomainError
from cotype.primes import smallest_prime_factors, valuation


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
