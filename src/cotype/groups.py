"""Finite abelian p-group bookkeeping.

Types are partitions (the group of type lambda is the direct sum of Z/p^lambda_i),
and this module provides conjugation, automorphism-group orders by three
independent routes, subgroup-embedding tests, and the Cohen-Lenstra probability
masses together with their rank-bounded variant.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator

from .errors import (
    DomainError,
    PrimeMismatchError,
    RankExceedsDimensionError,
    ResourceLimitError,
)
from .primes import require_prime, valuation
from .qcomb import q_binomial, q_pochhammer, value_at_inverse

# Truncation depth of the infinite products prod_{i>=1}(1 - p^-i).
DEFAULT_PRODUCT_TRUNCATION = 64
# Largest group order the brute-force searches will touch by default.
DEFAULT_BRUTE_ORDER_CAP = 512


@dataclass(frozen=True)
class Partition:
    """Weakly decreasing positive parts; the empty partition is allowed."""

    parts: tuple[int, ...]

    def __post_init__(self):
        parts = tuple(int(a) for a in self.parts)
        if any(a < 1 for a in parts):
            raise DomainError("partition parts must be positive")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise DomainError("partition parts must be weakly decreasing")
        object.__setattr__(self, "parts", parts)

    @classmethod
    def of(cls, parts: Iterable[int]) -> "Partition":
        """Normalize: sort descending and drop zeros."""
        return cls(tuple(sorted((a for a in parts if a), reverse=True)))

    @property
    def rank(self) -> int:
        return len(self.parts)

    @property
    def size(self) -> int:
        return sum(self.parts)

    def conjugate(self) -> "Partition":
        return Partition(conjugate(self.parts))


def conjugate(parts: Iterable[int]) -> tuple[int, ...]:
    """Conjugate partition: entry i counts the parts >= i. Involutive."""
    ps = [a for a in parts if a]
    if any(a < 0 for a in ps):
        raise DomainError("parts must be nonnegative")
    if not ps:
        return ()
    return tuple(sum(1 for a in ps if a >= i) for i in range(1, max(ps) + 1))


def partitions_of(n: int, max_parts: int | None = None, max_part: int | None = None
                  ) -> Iterator[tuple[int, ...]]:
    """All partitions of n, optionally bounded in length and largest part."""
    if n < 0:
        raise DomainError("cannot partition a negative integer")
    cap = n if max_part is None else min(n, max_part)
    limit = n if max_parts is None else max_parts

    def rec(remaining: int, largest: int, slots: int):
        if remaining == 0:
            yield ()
            return
        if slots == 0:
            return
        for a in range(min(largest, remaining), 0, -1):
            for rest in rec(remaining - a, a, slots - 1):
                yield (a,) + rest

    yield from rec(n, cap, limit)


@dataclass(frozen=True)
class AbelianPGroupType:
    """Isomorphism type of a finite abelian p-group: a prime and a partition."""

    p: int
    lam: Partition

    def __post_init__(self):
        require_prime(self.p)
        if not isinstance(self.lam, Partition):
            object.__setattr__(self, "lam", Partition.of(self.lam))

    @classmethod
    def of(cls, p: int, parts: Iterable[int]) -> "AbelianPGroupType":
        return cls(p, Partition.of(parts))

    @property
    def order(self) -> int:
        return self.p**self.lam.size

    @property
    def rank(self) -> int:
        return self.lam.rank

    @property
    def is_trivial(self) -> bool:
        return self.lam.rank == 0


# ---------------------------------------------------------------------------
# Subgroup counts and automorphism orders
# ---------------------------------------------------------------------------


def ambient_subgroup_count(d: int, lam: Partition | Iterable[int], p: int) -> int:
    """Number of subgroups of (Z/p^(lam_1))^d isomorphic to the group of type lam.

    Evaluated as prod_{i>=1} p^(c_{i+1} (d - c_i)) * [d - c_{i+1} choose
    c_i - c_{i+1}]_p where c is the conjugate partition of lam.
    """
    parts = lam.parts if isinstance(lam, Partition) else Partition.of(lam).parts
    if len(parts) > d:
        return 0
    if not parts:
        return 1
    conj = conjugate(parts) + (0,)
    out = 1
    for i in range(len(conj) - 1):
        ci, ci1 = conj[i], conj[i + 1]
        out *= p ** (ci1 * (d - ci)) * q_binomial(d - ci1, ci - ci1)(p)
    return out


def _aut_order_closed(p: int, parts: tuple[int, ...]) -> int:
    """p^(sum of conjugate-part squares) * prod over equal-part runs of
    (1-p^-1)...(1-p^-m)."""
    conj = conjugate(parts) + (0,)
    # conj[i] - conj[i + 1] is the multiplicity of i+1 as a part
    val = p ** sum(c * c for c in conj[:-1]) * math.prod(
        value_at_inverse(p, q_pochhammer(1, conj[i] - conj[i + 1]))
        for i in range(len(conj) - 1))
    assert val.denominator == 1
    return val.numerator


def generating_tuple_count(d: int, p: int, parts: tuple[int, ...]) -> int:
    """Number of tuples in (Z/p^(parts_1))^d generating a subgroup of type parts,
    the j-th of order p^(parts_j): prod_j (p^(parts_j d) - p^j p^((parts_j - 1) d))."""
    return math.prod(p ** (part * d) - p**j * p ** ((part - 1) * d)
                     for j, part in enumerate(parts))


def _aut_order_tuple_identity(p: int, parts: tuple[int, ...]) -> int:
    """Solve  |Aut| * #subgroups = #generating tuples  with ambient rank = rank."""
    r = len(parts)
    if r == 0:
        return 1
    tuples = generating_tuple_count(r, p, parts)
    subgroups = ambient_subgroup_count(r, Partition(parts), p)
    q, rem = divmod(tuples, subgroups)
    if rem:
        raise ArithmeticError("generating-tuple identity produced a non-integer")
    return q


class _SmallGroup:
    """Explicit model of the direct sum of Z/p^(parts_i), elements coded 0..n-1."""

    def __init__(self, p: int, parts: tuple[int, ...]):
        self.p = p
        self.parts = parts
        self.moduli = [p**a for a in parts]
        self.n = math.prod(self.moduli)
        self.elements = list(itertools.product(*(range(m) for m in self.moduli)))
        self.index = {x: i for i, x in enumerate(self.elements)}
        self.zero = self.index[tuple(0 for _ in parts)]
        self.add = [
            [
                self.index[tuple((a + b) % m for a, b, m in zip(x, y, self.moduli))]
                for y in self.elements
            ]
            for x in self.elements
        ]
        self.order_exp = [
            max((a - valuation(c, p) for c, a in zip(x, parts) if c), default=0)
            for x in self.elements
        ]
        self._join_cache: dict[tuple[frozenset, int], frozenset] = {}

    def trivial_subgroup(self) -> frozenset:
        return frozenset((self.zero,))

    def join(self, sub: frozenset, x: int) -> frozenset:
        if x in sub:
            return sub
        key = (sub, x)
        cached = self._join_cache.get(key)
        if cached is not None:
            return cached
        add = self.add
        out = set(sub)
        base = list(sub)
        t = x
        while t not in sub:
            row = add[t]
            out.update(row[h] for h in base)
            t = add[t][x]
        result = frozenset(out)
        self._join_cache[key] = result
        return result

    def all_subgroups(self) -> list[frozenset]:
        seen = {self.trivial_subgroup()}
        frontier = [self.trivial_subgroup()]
        while frontier:
            nxt = []
            for sub in frontier:
                for x in range(self.n):
                    t = self.join(sub, x)
                    if t not in seen:
                        seen.add(t)
                        nxt.append(t)
            frontier = nxt
        return list(seen)

    def type_of(self, sub: frozenset) -> tuple[int, ...]:
        """Isomorphism type of a subgroup from its element-order census."""
        if len(sub) == 1:
            return ()
        max_exp = self.parts[0]
        order_exp = self.order_exp
        conj = []
        prev = 1
        for i in range(1, max_exp + 1):
            cur = sum(1 for x in sub if order_exp[x] <= i)
            conj.append(valuation(cur // prev, self.p))
            prev = cur
        return conjugate(conj)


def _aut_order_brute(p: int, parts: tuple[int, ...], max_order: int) -> int:
    """Count tuples (x_1..x_r) with p^(parts_i) x_i = 0 generating the whole group.

    Those tuples are exactly the images of the standard generators under
    surjective (= bijective) endomorphisms. Organized as a DP over the subgroup
    lattice so repeated partial spans are counted once.
    """
    order = p ** sum(parts)
    if order > max_order:
        raise ResourceLimitError(f"group order {order} exceeds brute-force cap {max_order}")
    G = _SmallGroup(p, parts)
    if not parts:
        return 1
    full_size = G.n
    candidates = [
        [x for x in range(G.n) if G.order_exp[x] <= a] for a in parts
    ]
    states: dict[frozenset, int] = {G.trivial_subgroup(): 1}
    remaining = [math.prod(p**a for a in parts[i:]) for i in range(len(parts))]
    for i, cand in enumerate(candidates):
        budget = remaining[i]
        new: dict[frozenset, int] = {}
        for sub, cnt in states.items():
            if len(sub) * budget < full_size:
                continue  # cannot reach the full group any more
            for x in cand:
                t = G.join(sub, x)
                new[t] = new.get(t, 0) + cnt
        states = new
    for sub, cnt in states.items():
        if len(sub) == full_size:
            return cnt
    return 0


def aut_order(
    G: AbelianPGroupType,
    via: str = "closed_form",
    max_order: int = DEFAULT_BRUTE_ORDER_CAP,
) -> int:
    """|Aut(G)| by 'closed_form', 'tuple_identity', or 'brute_force'."""
    parts = G.lam.parts
    if via == "closed_form":
        return _aut_order_closed(G.p, parts)
    if via == "tuple_identity":
        return _aut_order_tuple_identity(G.p, parts)
    if via == "brute_force":
        return _aut_order_brute(G.p, parts, max_order)
    raise DomainError(f"unknown aut_order mode {via!r}")


# ---------------------------------------------------------------------------
# Embedding
# ---------------------------------------------------------------------------


def embeds(H: AbelianPGroupType, G: AbelianPGroupType) -> bool:
    """True iff H is isomorphic to a subgroup of G.

    Classical criterion: part-wise domination lambda_i(H) <= lambda_i(G). It is
    verified against exhaustive subgroup search in the test suite rather than
    assumed blindly.
    """
    if H.is_trivial:
        return True
    if H.p != G.p:
        raise PrimeMismatchError(f"cannot compare a {H.p}-group with a {G.p}-group")
    hp, gp = H.lam.parts, G.lam.parts
    if len(hp) > len(gp):
        return False
    return all(h <= g for h, g in zip(hp, gp))


def embeds_brute_force(
    H: AbelianPGroupType,
    G: AbelianPGroupType,
    max_order: int = DEFAULT_BRUTE_ORDER_CAP,
) -> bool:
    """Exhaustive subgroup search for H inside G."""
    if H.is_trivial:
        return True
    if H.p != G.p:
        raise PrimeMismatchError(f"cannot compare a {H.p}-group with a {G.p}-group")
    if G.order > max_order:
        raise ResourceLimitError(f"group order {G.order} exceeds cap {max_order}")
    model = _SmallGroup(G.p, G.lam.parts)
    target = H.lam.parts
    return any(model.type_of(sub) == target for sub in model.all_subgroups())


# ---------------------------------------------------------------------------
# Cohen-Lenstra masses
# ---------------------------------------------------------------------------


def truncated_unit_product(p: int, start: int = 1,
                           truncation: int = DEFAULT_PRODUCT_TRUNCATION) -> float:
    """prod_{i=start}^{truncation} (1 - p^-i), exact and then rounded."""
    return float(value_at_inverse(p, q_pochhammer(start, truncation)))


def product_tail_bound(p: int, truncation: int = DEFAULT_PRODUCT_TRUNCATION) -> float:
    """Bound on |log prod_{i>truncation} (1 - p^-i)|: 2 p^-(B+1) / (1 - p^-1)."""
    return 2.0 * float(p) ** (-(truncation + 1)) / (1.0 - 1.0 / p)


@dataclass(frozen=True)
class CohenLenstraMass:
    """Mass of a p-group type: exact 1/|Aut| times a truncated unit product."""

    inv_aut: Fraction
    normalization: float
    tail_bound: float
    truncation: int

    @property
    def value(self) -> float:
        return float(self.inv_aut) * self.normalization


def cohen_lenstra_mass(
    G: AbelianPGroupType, truncation: int = DEFAULT_PRODUCT_TRUNCATION
) -> CohenLenstraMass:
    """Mass |Aut(G)|^-1 prod_{i=1}^inf (1 - p^-i), product truncated with a
    recorded tail bound; the exact rational part is returned separately."""
    inv = Fraction(1, aut_order(G))
    norm = truncated_unit_product(G.p, 1, truncation)
    logbound = product_tail_bound(G.p, truncation)
    tail = float(inv) * norm * math.expm1(logbound)
    return CohenLenstraMass(inv, norm, tail, truncation)


def rank_d_mass(G: AbelianPGroupType, d: int) -> Fraction:
    """Exact mass of G under the rank-at-most-d variant:

    |Aut(G)|^-1 (prod_{j=1}^{d}(1-p^-j)) (prod_{j=d-r+1}^{d}(1-p^-j)), r = rank(G).
    """
    if d < 1:
        raise DomainError("d must be positive")
    r = G.rank
    if r > d:
        raise RankExceedsDimensionError(f"rank {r} exceeds d = {d}")
    p = G.p
    return (Fraction(1, aut_order(G)) * value_at_inverse(p, q_pochhammer(1, d))
            * value_at_inverse(p, q_pochhammer(d - r + 1, d)))


def rank_d_mass_partial_sum(p: int, d: int, exponent_bound: int) -> Fraction:
    """Exact sum of rank_d_mass over all types with lambda_1 <= exponent_bound."""
    total = rank_d_mass(AbelianPGroupType.of(p, ()), d)
    for size in range(1, exponent_bound * d + 1):
        for parts in partitions_of(size, max_parts=d, max_part=exponent_bound):
            total += rank_d_mass(AbelianPGroupType.of(p, parts), d)
    return total
