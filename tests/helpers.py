"""Shared independent oracles for the test suite, and its two ways to run the
CLI: `run_cli` in this process, `run_process` in a fresh interpreter."""

import hashlib
import io
import itertools
import random
import signal
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from math import gcd, prod

from mpmath import mp, mpf

from cotype import cli
from cotype.groups import conjugate
from cotype.lattices import cotype_of, enumerate_hnf
from cotype.primes import primes_upto, valuation
from cotype.qcomb import ZERO
from cotype.zeta import local_factor


def run_cli(*args, timeout=None) -> subprocess.CompletedProcess:
    """`cotype *args` in this process: cli.main with stdout and stderr captured
    and argparse's SystemExit taken as the exit code. Past `timeout` seconds it
    raises subprocess.TimeoutExpired at the next bytecode; forked workers do not
    inherit the timer. Any other exception goes through, as its traceback would
    end the process."""
    argv, out, err = ["cotype", *args], io.StringIO(), io.StringIO()

    def expire(signum, frame):
        raise subprocess.TimeoutExpired(argv, timeout)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, timeout or 0)  # 0: no timer
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(list(args))
    except SystemExit as exc:
        code = exc.code
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return subprocess.CompletedProcess(argv, code, out.getvalue(), err.getvalue())


def run_process(*argv, timeout) -> subprocess.CompletedProcess:
    """`python *argv` in a fresh interpreter, for the tests whose subject is the
    process itself: its entry point, its imports, its exit status or memory."""
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          timeout=timeout)


def trial_rng(master_seed: int, trial: int) -> random.Random:
    """The reference generator of a Monte Carlo trial: a fresh random.Random
    seeded with the first 16 bytes of sha256(f"{master_seed}:{trial}"), read
    as a big-endian integer."""
    digest = hashlib.sha256(f"{master_seed}:{trial}".encode()).digest()
    return random.Random(int.from_bytes(digest[:16], "big"))


def det_by_permutations(rows) -> int:
    """Leibniz-expansion determinant (fine for k <= 4)."""
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        total += sign * prod(rows[i][perm[i]] for i in range(n))
    return total


def det_by_elimination(rows) -> int:
    """Determinant by Gaussian elimination over the rationals."""
    m = [[Fraction(v) for v in row] for row in rows]
    n = len(m)
    det = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            m[i] = [a - f * b for a, b in zip(m[i], m[k])]
    return int(det)


def tally_by_full_enumeration(d: int, X: int) -> dict:
    """Cotype counts of index < X with no contraction: the Smith form of every
    Hermite basis, keyed by cotype tuple like CotypeTally.counts."""
    counts: dict = {}
    for n in range(1, X):
        for basis in enumerate_hnf(d, n):
            ct = cotype_of(basis)
            counts[ct] = counts.get(ct, 0) + 1
    return counts


def all_subgroups(model) -> list[frozenset]:
    """Every subgroup of a groups._SmallGroup, by closing each known subgroup
    under every element until nothing new appears."""
    seen = {model.trivial_subgroup()}
    frontier = list(seen)
    while frontier:
        nxt = []
        for sub in frontier:
            for x in range(model.n):
                t = model.join(sub, x)
                if t not in seen:
                    seen.add(t)
                    nxt.append(t)
        frontier = nxt
    return list(seen)


def subgroup_type(model, sub: frozenset) -> tuple[int, ...]:
    """Isomorphism type of a subgroup of a groups._SmallGroup from its
    element-order census: p^(c_i) elements of order p^i over those of order
    p^(i-1), with c the conjugate of the type."""
    if len(sub) == 1:
        return ()
    conj = []
    prev = 1
    for i in range(1, model.parts[0] + 1):
        cur = sum(1 for x in sub if model.order_exp[x] <= i)
        conj.append(valuation(cur // prev, model.p))
        prev = cur
    return conjugate(conj)


def snf_oracle(rows):
    """Determinantal-divisor oracle: s_k = d_k / d_{k-1}, d_k = gcd of k-minors.

    Returns (invariant factors, free rank).
    """
    n = len(rows)
    dets = [1]
    for k in range(1, n + 1):
        g = 0
        for rsel in itertools.combinations(range(n), k):
            for csel in itertools.combinations(range(n), k):
                sub = [[rows[i][j] for j in csel] for i in rsel]
                g = gcd(g, det_by_permutations(sub))
        dets.append(g)
    invariants = []
    for k in range(1, n + 1):
        if dets[k] == 0:
            break
        invariants.append(dets[k] // dets[k - 1])
    return tuple(invariants), n - len(invariants)


def series_coefficient(d: int, p: int, nu) -> int:
    """The oracle for zeta.local_coefficient: the coefficient extracted from
    the power-series expansion of the symbolic local factor. Geometric
    expansion of every 1/(1-t_j) turns the coefficient of the monomial
    determined by nu (weakly decreasing, nonnegative) into a sum of descent
    polynomials, evaluated exactly at q = 1/p and rescaled by the change of
    variables t_j = p^(-z_j)."""
    lf = local_factor(d)
    steps = [nu[j] - (nu[j + 1] if j + 1 < d else 0) for j in range(d)]
    inner = {j + 1 for j, c in enumerate(steps) if c > 0} - {d}
    acc = ZERO
    for subset, poly in lf.numerator:
        if set(subset) <= inner:
            acc = acc + poly
    shift = sum(c * (j + 1) * (d - (j + 1)) for j, c in enumerate(steps))
    value = Fraction(acc(Fraction(1, p))) * Fraction(p) ** shift
    assert value.denominator == 1, "series coefficient was not an integer"
    return value.numerator


def rank_mod_p(rows, p: int) -> int:
    """Row-reduction rank of an integer matrix over F_p."""
    m = [[v % p for v in row] for row in rows]
    n = len(m)
    rank = 0
    col = 0
    width = len(m[0]) if m else 0
    while rank < n and col < width:
        piv = next((i for i in range(rank, n) if m[i][col]), None)
        if piv is None:
            col += 1
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][col], -1, p)
        m[rank] = [(v * inv) % p for v in m[rank]]
        for i in range(n):
            if i != rank and m[i][col]:
                f = m[i][col]
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[rank])]
        rank += 1
        col += 1
    return rank


# ---------------------------------------------------------------------------
# Direct per-prime Euler products: the oracle for the zeta product engine
# ---------------------------------------------------------------------------

_EPS = mpf(2) ** -130


def _mpf_pochhammer(q, n: int):
    """prod_{j=1}^{n} (1 - q^j), dropping factors once q^j is below _EPS."""
    acc = mpf(1)
    term = q
    for _ in range(n):
        acc *= 1 - term
        term *= q
        if term < _EPS:
            break
    return acc


def _mpf_qbinom(d: int, i: int, q):
    """Gaussian binomial [d choose i] at 0 < q < 1."""
    num = mpf(1)
    den = mpf(1)
    for j in range(1, i + 1):
        num *= 1 - q ** (d - i + j)
        den *= 1 - q**j
    return num / den


def _corank_sum(d: int, m: int, q):
    total = mpf(1)
    poch = mpf(1)
    for i in range(1, m + 1):
        qi2 = q ** (i * i)
        if qi2 < _EPS:
            break
        poch *= 1 - q**i
        total += _mpf_qbinom(d, i, q) * qi2 / poch
    return total


def _density_local(p: int, d: int, m: int):
    q = mpf(1) / p
    return _mpf_pochhammer(q, d) * _corank_sum(d, m, q)


def _residue_local(p: int, d: int, m: int):
    q = mpf(1) / p
    return (1 - q) * _corank_sum(d, m, q)


def _cocyclic_local(p: int, d: int, m: int):
    return 1 + mpf(p ** (d - 1) - 1) / (p ** (d + 1) - p**d)


def _squarefree_local(p: int, d: int, inner_truncation: int):
    q = mpf(1) / p
    acc = mpf(1)
    term = q * q
    for _ in range(2, inner_truncation + 1):
        acc *= 1 - term
        term *= q
        if term < _EPS:
            break
    return acc


MPF_LOCAL_FACTORS = {
    "corank_density": _density_local,
    "corank_zeta_residue": _residue_local,
    "cocyclic_growth_constant": _cocyclic_local,
    "squarefree_index_density": _squarefree_local,
}


def euler_product_oracle(kind: str, cutoff: int, d: int = 0, m: int = 0,
                         prec: int = 113):
    """prod_{p <= cutoff} local(p) as an mpf, one multiplication per prime at
    prec bits. For the squarefree density, m is the inner truncation."""
    local = MPF_LOCAL_FACTORS[kind]
    with mp.workprec(prec):
        acc = mpf(1)
        for p in primes_upto(cutoff):
            acc *= local(p, d, m)
        return acc
