"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
Every tolerance is pinned here, not configured elsewhere.
"""

import hashlib
import json
import math

import pytest

from cotype import cli
from cotype import simulate as sim
from cotype import zeta as zt
from cotype.groups import AbelianPGroupType, aut_order, partitions_of
from cotype.lattices import HermiteBasis, tally_cotypes, tally_cotypes_at_index
from cotype.qcomb import (
    all_descent_sets,
    descent_poly_determinant,
    descent_poly_inclusion_exclusion,
    descent_poly_permutations,
    qbinom_subset_identity_holds,
    qbinom_telescope_holds,
)

from helpers import rank_mod_p, run_cli, run_process, snf_oracle


def report(num, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"criterion {num:>2} {status}: {description}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


def test_criterion_01_oracle_duality():
    """Conjugate-product coefficients equal brute-force cotype tallies exactly."""
    checked = 0
    for d in (2, 3, 4):
        for p in (2, 3):
            for e in range(5):
                counts = tally_cotypes_at_index(d, p**e)
                for parts in partitions_of(e, max_parts=d):
                    nu = tuple(parts) + (0,) * (d - len(parts))
                    formula = zt.local_coefficient(d, p, nu)
                    enumerated = counts.get(tuple(p**v for v in nu), 0)
                    assert formula == enumerated, (d, p, nu, formula, enumerated)
                    checked += 1
    report(1, "coefficient formula vs enumeration, d<=4, p in {2,3}, |nu|<=4",
           True, f"{checked} exact comparisons")


def test_criterion_02_descent_three_way():
    """Inclusion-exclusion, permutation, and determinant methods coincide, d<=7."""
    checked = 0
    for d in range(1, 8):
        for lam in all_descent_sets(d):
            a = descent_poly_inclusion_exclusion(lam)
            b = descent_poly_permutations(lam)
            c = descent_poly_determinant(lam)
            assert a == b == c, (d, lam.elements, str(a), str(b), str(c))
            checked += 1
    report(2, "descent polynomials agree three ways for all d <= 7",
           True, f"{checked} descent sets")


def test_criterion_03_q_identities():
    """Both q-binomial identities hold as exact polynomial equalities."""
    for n in range(9):
        for e in range(5):
            assert qbinom_telescope_holds(n, e), (n, e)
    for d in range(1, 7):
        for i in range(1, d + 1):
            assert qbinom_subset_identity_holds(d, i), (d, i)
    report(3, "telescope identity (n<=8, e<=4) and subset identity (d<=6)", True)


def test_criterion_04_rank_density_identity():
    """Matrix-model rank density equals the corank density factor, exactly."""
    checked = 0
    for d in range(1, 7):
        for m in range(1, d + 1):
            for p in (2, 3, 5):
                lhs = zt.cokernel_rank_density_local(d, p, m)
                rhs = zt.corank_density_local(d, m, p)
                assert lhs == rhs, (d, m, p, lhs, rhs)
                checked += 1
    report(4, "rank-density identity as exact rationals, d<=6, p in {2,3,5}",
           True, f"{checked} equalities")


def test_criterion_05_density_constants():
    """Corank densities at d=30 and the squarefree-index density."""
    v1 = zt.corank_density(30, 1, 10**6).value
    assert 0.84 <= v1 <= 0.86, v1
    v2 = zt.corank_density(30, 2, 10**6).value
    assert abs(v2 - 0.994) <= 0.001, v2
    v3 = zt.corank_density(30, 3, 10**6).value
    assert abs(v3 - 0.99995) <= 0.00002, v3
    v4 = zt.squarefree_index_density(10**5).value
    assert abs(v4 - 0.4366) <= 0.001, v4
    report(5, "density constants at d=30 and squarefree density", True,
           f"m1={v1:.4f}, m2={v2:.4f}, m3={v3:.6f}, sqfree={v4:.5f}")


def test_criterion_06_tauberian_trend():
    """Exact cocyclic counts approach the predicted X^d/d growth constant."""
    theta2 = 15 / math.pi**2  # zeta(2)/zeta(4)
    devs = []
    for X in (100, 1000, 10000):
        count = tally_cotypes(2, X).n_with_corank_at_most(1)
        devs.append(abs(count * 2 / X**2 - theta2) / theta2)
    assert devs[-1] <= 0.02, devs
    violations = sum(1 for a, b in zip(devs, devs[1:]) if b >= a)
    assert violations <= 1, devs
    report(6, "N_2^(1)(X) * 2/X^2 within 2% of zeta(2)/zeta(4) at X=10^4",
           True, f"rel devs {['%.5f' % v for v in devs]}, violations={violations}")


def test_criterion_07_aut_order_three_ways():
    """Closed form, generating-tuple identity, and brute force agree, order<=64."""
    checked = 0
    for p, emax in ((2, 6), (3, 3)):
        for size in range(emax + 1):
            for parts in partitions_of(size):
                G = AbelianPGroupType.of(p, parts)
                closed = aut_order(G, "closed_form")
                tup = aut_order(G, "tuple_identity")
                brute = aut_order(G, "brute_force", max_order=64)
                assert closed == tup == brute, (p, parts, closed, tup, brute)
                checked += 1
    report(7, "|Aut| three ways for every p-group type of order <= 64",
           True, f"{checked} types")


def test_criterion_08_monte_carlo_concordance():
    """Empirical rank frequencies sit in 4-sigma bands; exhaustive mode is exact."""
    cfg = sim.SampleConfig(d=2, trials=100000, master_seed=20260810, p=2,
                           entry_bound=10000)
    res = sim.run_matrix_model(cfg)
    zs = []
    for m in (0, 1, 2):
        emp = float(res.rank_at_most_freq(m))
        exact = float(zt.cokernel_rank_density_local(2, 2, m))
        if 0 < exact < 1:
            sigma = math.sqrt(exact * (1 - exact) / cfg.trials)
            z = abs(emp - exact) / sigma
        else:
            z = 0.0 if emp == exact else math.inf
        assert z <= 4, (m, emp, exact, z)
        zs.append(z)

    # exhaustive d=2, k=1 equals direct enumeration of all 81 matrices
    import itertools

    cfg1 = sim.SampleConfig(d=2, trials=1, master_seed=0, p=2, entry_bound=1,
                            exhaustive=True)
    res1 = sim.run_matrix_model(cfg1)
    direct_ranks = {sim.rank_label(r): 0 for r in range(3)}
    direct_types: dict = {}
    for flat in itertools.product((-1, 0, 1), repeat=4):
        rows = [list(flat[:2]), list(flat[2:])]
        direct_ranks[sim.rank_label(2 - rank_mod_p(rows, 2))] += 1
        diag, free = snf_oracle(rows)
        if free:
            label = sim.FREE_LABEL
        else:
            parts = []
            for s in diag:
                v = 0
                while s % 2 == 0:
                    s //= 2
                    v += 1
                if v:
                    parts.append(v)
            label = sim.type_label(tuple(sorted(parts, reverse=True)))
        direct_types[label] = direct_types.get(label, 0) + 1
    assert res1.rank_table.counts == direct_ranks
    assert res1.type_table.counts == direct_types
    report(8, "matrix-model ranks within 4 sigma at 10^5 trials; exhaustive exact",
           True, f"|z| = {['%.2f' % z for z in zs]}")


def test_criterion_09_containment_probability():
    """Containment probabilities: exact small case and the log X / (X D) rate."""
    L = HermiteBasis(((2,),))
    got = sim.containment_probability_exact(1, L, 11)
    assert got == 0.5 and got.numerator == 1 and got.denominator == 2
    worst = 0.0
    for D in (2, 3, 4):
        LD = HermiteBasis(((D, 0), (0, 1)))
        X = 10**4
        v = sim.containment_probability_exact(2, LD, X)
        err = abs(float(v) - 1 / D**2)
        bound = 10 * math.log(X) / (X * D)
        assert err < bound, (D, err, bound)
        worst = max(worst, err / bound)
    report(9, "containment: exact 1/2 at d=1; |P - 1/D^2| < 10 log X/(X D)",
           True, f"worst error/bound = {worst:.3f}")


@pytest.mark.process
def test_criterion_10_cli_reproducibility(monkeypatch):
    """Seeded CLI runs are byte-identical; verify failures exit 3 with evidence."""
    args = ["-m", "cotype.cli", "simulate", "matrix", "-d", "2",
            "-k", "50", "-p", "2", "-n", "400", "--seed", "31415"]
    a = run_process(*args, timeout=60)
    b = run_process(*args, timeout=60)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout and a.stdout
    manifest = json.loads(a.stderr.splitlines()[-1])
    assert manifest["output_sha256"] == hashlib.sha256(a.stdout.encode()).hexdigest()
    assert manifest["seed"] == 31415

    def rigged(_args):
        return [cli.CaseResult("rigged(n=1)", False, "intentional counterexample")]

    monkeypatch.setitem(cli.VERIFY_SUITES, "descent", rigged)
    proc = run_cli("verify", "descent")
    assert proc.returncode == 3
    assert "COUNTEREXAMPLE rigged(n=1): intentional counterexample" in proc.stderr
    report(10, "byte-identical seeded CLI output; verify failure exits 3", True)
