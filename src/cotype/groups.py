"""Finite abelian p-group bookkeeping.

Types are partitions (the group of type lambda is the direct sum of Z/p^lambda_i),
and this module provides conjugation, subgroup and generating-tuple counts,
automorphism-group orders by three independent routes, subgroup-embedding
tests, and the Cohen-Lenstra probability masses together with their
rank-bounded variant.

One brute-force search is the oracle of every closed form here: it counts the
tuples of given orders in an explicit group that generate a subgroup of a given
type (`_generating_tuples_brute`). |Aut(G)| counts the generating tuples of G
itself, H embeds in G when some tuple of G generates a copy of H, and
`count_generating_tuples(..., "brute")` searches (Z/p^a)^d.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
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
# Cap on the (span, candidate) pairs of one brute-force step: F_2^6 needs
# 87,885 (1,395 subspaces of dimension 3 x 63 vectors), F_2^7 338,709.
MAX_BRUTE_JOINS = 2 * 10**5


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


def count_generating_tuples(
    d: int,
    p: int,
    lam: Iterable[int],
    method: str = "closed",
    max_order: int = DEFAULT_BRUTE_ORDER_CAP,
) -> int:
    """Number of r-tuples in (Z/p^(lam_1))^d generating a subgroup of type lam,
    with the i-th entry of additive order exactly p^(lam_i).

    method 'closed' evaluates generating_tuple_count; the oracle 'brute' runs
    the subgroup search of aut_order and embeds_brute_force on the p^(lam_1 d)
    elements, at most max_order of them.
    """
    require_prime(p)
    lam = tuple(int(a) for a in lam)
    if any(a < 1 for a in lam) or list(lam) != sorted(lam, reverse=True):
        raise DomainError("type must be a partition with positive parts")
    if len(lam) > d:
        raise DomainError("type has more parts than the ambient rank")
    if method == "closed":
        return generating_tuple_count(d, p, lam)
    if method == "brute":
        return _generating_tuples_brute(p, lam[:1] * d, lam, max_order)
    raise DomainError(f"unknown method {method!r}")


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
    """Explicit model of the direct sum of Z/p^(parts_i). The elements are
    coded 0..n-1 by their coordinates in mixed radix, the first one leading."""

    def __init__(self, p: int, parts: tuple[int, ...]):
        self.p = p
        self.parts = parts
        self.n = p ** sum(parts)
        # Codes of x + y and of p x, and the exponent of the order of x, built
        # by prepending one coordinate at a time to the trivial group.
        add, times_p, order_exp = [[0]], [0], [0]
        for a in reversed(parts):
            m, k = p**a, len(add)
            add = [[(u + v) % m * k + w for v in range(m) for w in row]
                   for u in range(m) for row in add]
            times_p = [u * p % m * k + w for u in range(m) for w in times_p]
            order_exp = [max(a - valuation(u, p), e) if u else e
                         for u in range(m) for e in order_exp]
        self.add, self.times_p, self.order_exp = add, times_p, order_exp

    def trivial_subgroup(self) -> frozenset:
        return frozenset((0,))

    def join(self, sub: frozenset, x: int) -> frozenset:
        """The subgroup generated by sub and x: the cosets sub + k x."""
        if x in sub:
            return sub
        add = self.add
        out = set(sub)
        base = list(sub)
        t = x
        while t not in sub:
            row = add[t]
            out.update(row[h] for h in base)
            t = row[x]
        return frozenset(out)


def _generating_tuples_brute(p: int, ambient: tuple[int, ...], lam: tuple[int, ...],
                             max_order: int) -> int:
    """Count the tuples (x_1..x_r) in the group of type ambient, x_i of order
    exactly p^(lam_i), that generate a subgroup of type lam.

    Such a tuple spans a subgroup of order p^|lam| exactly when that subgroup
    is the direct sum of the cyclic groups <x_i>, that is of type lam, so the
    search tracks subgroup orders only. Organized as a DP over the subgroup
    lattice so repeated partial spans are counted once. A span is built only
    if its order, |sub| times the order of x modulo sub, can still end at
    p^|lam| with the remaining orders; the last step needs the count alone.
    ResourceLimitError past max_order elements, or when one step would try
    more than MAX_BRUTE_JOINS (span, candidate) pairs.
    """
    if max_order < 0:
        raise DomainError(f"the brute-force cap must be >= 0, got {max_order}")
    order = p ** sum(ambient)
    if order > max_order:
        raise ResourceLimitError(f"group order {order} exceeds brute-force cap {max_order}")
    G = _SmallGroup(p, ambient)
    times_p = G.times_p
    target = p ** sum(lam)
    states: dict[frozenset, int] = {G.trivial_subgroup(): 1}
    for i, a in enumerate(lam):
        cand = [x for x in range(G.n) if G.order_exp[x] == a]
        if len(states) * len(cand) > MAX_BRUTE_JOINS:
            raise ResourceLimitError(
                f"brute-force step {i + 1} of type {lam} in type {ambient} tries"
                f" {len(states)} x {len(cand)} pairs, more than {MAX_BRUTE_JOINS}")
        rest = p ** sum(lam[i + 1:])
        new: dict[frozenset, int] = {}
        for sub, cnt in states.items():
            for x in cand:
                size, y = len(sub), x
                while y not in sub:
                    y, size = times_p[y], size * p
                if size <= target <= size * rest:
                    t = G.join(sub, x) if rest > 1 else sub  # last: count only
                    new[t] = new.get(t, 0) + cnt
        states = new
    return sum(states.values())


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
        return _generating_tuples_brute(G.p, parts, parts, max_order)
    raise DomainError(f"unknown aut_order mode {via!r}")


# ---------------------------------------------------------------------------
# Embedding
# ---------------------------------------------------------------------------


def embeds(H: AbelianPGroupType, G: AbelianPGroupType) -> bool:
    """True iff H is isomorphic to a subgroup of G.

    Classical criterion: part-wise domination lambda_i(H) <= lambda_i(G). It is
    verified against embeds_brute_force in the test suite rather than assumed
    blindly.
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
    """Whether some tuple of G generates a copy of H, by the brute-force search."""
    if H.is_trivial:
        return True
    if H.p != G.p:
        raise PrimeMismatchError(f"cannot compare a {H.p}-group with a {G.p}-group")
    return _generating_tuples_brute(G.p, G.lam.parts, H.lam.parts, max_order) > 0


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


def rank_d_masses(p: int, d: int, exponent_bound: int) -> dict[tuple[int, ...], Fraction]:
    """rank_d_mass of every type with lambda_1 <= exponent_bound and at most d
    parts, keyed by its parts, by size and then in partitions_of order."""
    return {
        parts: rank_d_mass(AbelianPGroupType.of(p, parts), d)
        for size in range(exponent_bound * d + 1)
        for parts in partitions_of(size, max_parts=d, max_part=exponent_bound)
    }
