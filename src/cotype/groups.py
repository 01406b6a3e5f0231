"""Finite abelian p-group bookkeeping.

Types are partitions (the group of type lambda is the direct sum of Z/p^lambda_i),
and this module provides conjugation, subgroup and generating-tuple counts,
automorphism-group orders by three independent routes, subgroup-embedding
tests, and the Cohen-Lenstra probability masses (as exact brackets) together
with their rank-bounded variant.

One brute-force search is the oracle of every closed form here: it counts, coset
by coset, the tuples of given orders in an explicit group that generate a
subgroup of a given type (`_generating_tuples_brute`). |Aut(G)| counts the
generating tuples of G itself, H embeds in G when some tuple of G generates a
copy of H, and `count_generating_tuples(..., "brute")` searches (Z/p^a)^d.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Iterable, Iterator

from .errors import DomainError, PrimeMismatchError, RankExceedsDimensionError, check_cap
from .primes import require_prime, valuation
from .qcomb import (_POCHHAMMER_DEPTH, _pochhammer_tail, q_binomial, q_pochhammer,
                    value_at_inverse)


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


def conjugate(parts: Iterable[int]) -> tuple[int, ...]:
    """Conjugate partition: entry i counts the parts >= i. Involutive."""
    ps = sorted(a for a in parts if a)
    if any(a < 0 for a in ps):
        raise DomainError("parts must be nonnegative")
    # entries b + 1..a count the parts from ps[k] = a on, with b = ps[k - 1] or 0
    return tuple(itertools.chain.from_iterable(
        itertools.repeat(len(ps) - k, a - b) for k, (a, b) in enumerate(zip(ps, [0] + ps))))


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
        # a part below remaining / slots would leave too much for the rest
        for a in range(min(largest, remaining), -(-remaining // slots) - 1, -1):
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
    c_i - c_{i+1}]_p where c is the conjugate partition of lam. c is constant
    between distinct parts, and such a run of factors p^(c (d - c)) is one power.
    """
    parts = lam.parts if isinstance(lam, Partition) else Partition.of(lam).parts
    if len(parts) > d:
        return 0
    out, c, prev = 1, len(parts), 0
    for v, same in itertools.groupby(reversed(parts)):
        c1 = c - sum(1 for _ in same)
        out *= p ** ((d - c) * ((v - prev - 1) * c + c1)) * q_binomial(d - c1, c - c1)(p)
        c, prev = c1, v
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
    max_order: int = 512,
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
        """The subgroup generated by sub and x: the cosets k x + sub."""
        get = itemgetter(*sub, 0)
        out, t = set(sub), x
        while t not in sub:
            row = self.add[t]
            out.update(get(row))
            t = row[x]
        return frozenset(out)


def _generating_tuples_brute(p: int, ambient: tuple[int, ...], lam: tuple[int, ...],
                             max_order: int) -> int:
    """Count the tuples (x_1..x_r) in the group of type ambient, x_i of order
    exactly p^(lam_i), that generate a subgroup of type lam.

    Such a tuple spans a subgroup of order p^|lam| exactly when that subgroup
    is the direct sum of the cyclic groups <x_i>, that is of type lam, so a DP
    over the subgroup lattice counts the spans. All x in a coset x + sub span
    one group with sub, so a step builds one span per coset, if its order,
    |sub| times the order of x modulo sub, can still reach p^|lam|; the last
    step only counts. ResourceLimitError past the caps brute_order (or
    max_order elements) and brute_joins (span, candidate) pairs in one step.
    """
    if max_order < 0:
        raise DomainError(f"the brute-force cap must be >= 0, got {max_order}")
    check_cap("brute_order", p ** sum(ambient), max_order)
    G = _SmallGroup(p, ambient)
    add, times_p, target = G.add, G.times_p, p ** sum(lam)
    states: dict[frozenset, int] = {G.trivial_subgroup(): 1}
    for i, a in enumerate(lam):
        cand = frozenset(x for x in range(G.n) if G.order_exp[x] == a)
        check_cap("brute_joins", len(states) * len(cand))
        rest = p ** sum(lam[i + 1:])
        new: dict[frozenset, int] = {}
        for sub, cnt in states.items():
            get, left = itemgetter(*sub, 0), set(cand)
            while left:
                x = left.pop()
                coset = cand.intersection(get(add[x]))
                left -= coset
                size, y = len(sub), x
                while y not in sub:
                    y, size = times_p[y], size * p
                if size <= target <= size * rest:
                    t = G.join(sub, x) if rest > 1 else sub
                    new[t] = new.get(t, 0) + cnt * len(coset)
        states = new
    return sum(states.values())


def aut_order(
    G: AbelianPGroupType,
    via: str = "closed_form",
    max_order: int = 512,
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

    Classical criterion: part-wise domination lambda_i(H) <= lambda_i(G), which
    embeds_brute_force checks.
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
    max_order: int = 512,
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


def cohen_lenstra_mass(G: AbelianPGroupType) -> tuple[Fraction, Fraction]:
    """Exact bracket (lo, hi) of the mass |Aut(G)|^-1 prod_{i>=1} (1 - p^-i):
    hi stops the product at i = _POCHHAMMER_DEPTH, and lo takes off the most the
    rest can remove (_pochhammer_tail)."""
    p = G.p
    hi = Fraction(1, aut_order(G)) * value_at_inverse(p, q_pochhammer(1, _POCHHAMMER_DEPTH))
    return hi * (1 - _pochhammer_tail(p)), hi


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
    parts, keyed by its parts, by size and then in partitions_of order. There
    are C(d + exponent_bound, d) of them, within the type_labels cap."""
    check_cap("type_labels", math.comb(d + exponent_bound, d))
    return {
        parts: rank_d_mass(AbelianPGroupType.of(p, parts), d)
        for size in range(exponent_bound * d + 1)
        for parts in partitions_of(size, max_parts=d, max_part=exponent_bound)
    }
