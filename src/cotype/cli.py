"""Command-line front end.

Subcommands: tally, density, verify, simulate, zeta. Primary output is a single
deterministic document on stdout (JSON with sorted keys, or plain text where
noted); `--out` writes a JSON or CSV file. This module encodes every document,
and the library returns counts, tables and dataclasses. A run manifest
(parameters, seed, the caps the run checked with their costs and limits,
version, wall time, sha256 of the primary output, peak RSS) goes to stderr as
one JSON line. Exit codes: 0 success, 1 bad arguments or domain errors, 2
resource limit (a cap of `errors.CAPS`), 3 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import errno
import hashlib
import itertools
import json
import math
import os
import sys
import time
from collections.abc import Iterable
from dataclasses import asdict, dataclass
from fractions import Fraction
from types import SimpleNamespace

from . import __version__
from .errors import (CAPS, CHECKED, CotypeError, DomainError, ResourceLimitError,
                     check_cap, power_bits)
from .groups import (
    AbelianPGroupType,
    aut_order,
    partitions_of,
    rank_d_masses,
)
from .lattices import (
    TALLY_METHODS,
    corank,
    enumeration_size,
    tally_cotypes,
    tally_cotypes_at_index,
)
from .primes import is_prime
from .qcomb import (
    all_descent_sets,
    descent_poly_determinant,
    descent_poly_inclusion_exclusion,
    descent_poly_permutations,
    qbinom_subset_identity_holds,
    qbinom_telescope_holds,
    q_binomial,
)
from .simulate import (
    OTHER_LABEL,
    SampleConfig,
    compare_to_theory,
    rank_label,
    run_matrix_model,
    run_sublattice_model,
    type_label,
)
from .zeta import (
    cocyclic_growth_constant,
    cokernel_rank_density_local,
    corank_density,
    corank_density_local,
    corank_zeta_residue,
    local_coefficient,
    local_factor,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RESOURCE = 2
EXIT_VERIFY = 3


class _Parser(argparse.ArgumentParser):
    """argparse, but usage problems exit with code 1 (2 is the resource code)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _checked(convert, ok, need: str):
    """An argparse type: convert, then refuse a value failing ok (exit 1)."""
    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {need}, got {text!r}")
        return value
    parse.__name__ = convert.__name__  # names the type in "invalid int value"
    return parse


_DIM = _checked(int, lambda v: v >= 1, ">= 1")
_COUNT = _checked(int, lambda v: v >= 0, ">= 0")
_MATRIX_CAP = _checked(int, lambda v: 0 <= v <= CAPS["enum_matrices"],
                       f"in [0, {CAPS['enum_matrices']}]")
_Z_THRESHOLD = _checked(float, lambda v: 0 < v < math.inf, "finite and > 0")
_PRIME = _checked(int, is_prime, "prime")


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _csv(header: list[str], rows) -> Iterable[str]:
    """The header and each row as one line of text, in the csv module's default
    dialect: writerow returns what its file's write returns."""
    return map(csv.writer(SimpleNamespace(write=str)).writerow, itertools.chain([header], rows))


def _check_out(path: str) -> None:
    """Refuse an --out path that cannot be written, before any work and
    without creating or truncating a file."""
    parent = os.path.dirname(path) or "."
    for bad, reason in ((os.path.isdir(path), errno.EISDIR),
                        (not os.path.exists(parent), errno.ENOENT),
                        (not os.path.isdir(parent), errno.ENOTDIR),
                        (not os.access(path if os.path.exists(path) else parent, os.W_OK),
                         errno.EACCES)):
        if bad:
            raise DomainError(f"cannot write --out {path}: {os.strerror(reason)}")


def _write(path: str, chunks: Iterable[str]) -> None:
    """Write the --out document from its chunks of text; a path that cannot be
    written is bad input."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        raise DomainError(f"cannot write --out {path}: {exc.strerror}") from None


# ---------------------------------------------------------------------------
# tally
# ---------------------------------------------------------------------------


def _tally_rows(tally) -> list[tuple[tuple[int, ...], int, int, int]]:
    """(alpha, corank, index, count) rows, by index and then cotype."""
    rows = [(alpha, corank(alpha), math.prod(alpha), c) for alpha, c in tally.counts.items()]
    rows.sort(key=lambda r: (r[2], r[0]))
    return rows


# One row of the tally document as json.dumps(..., sort_keys=True, indent=2)
# writes it: alpha's entries (joined), corank, count, index. _BLOCK rows make
# one chunk: few writes where stdout is unbuffered, and little text at a time.
_BLOCK = 1000
_ROW = ('\n    {\n      "alpha": [\n        %s\n      ],\n      "corank": %d,'
        '\n      "count": %d,\n      "index": %d\n    }')


def _tally_doc(tally, rows: bool, keys=("N", "N_by_corank")) -> Iterable[str]:
    """The tally document as chunks of text. stdout names its totals N and
    N_by_corank, and the --out file total and n_by_corank. Only the head goes
    through json.dumps; the rows are written from _ROW, block by block."""
    total, by_corank = keys
    doc = {"d": tally.d, "X": tally.X, "bound": "index < X",
           total: tally.total, by_corank: tally.n_by_corank()}
    if not rows:
        return [_dump(doc)]
    doc["rows"] = "\0"  # marks where the rows go
    head, tail = _dump(doc).split('"\\u0000"')
    return _tally_text(head, _tally_rows(tally), tail)


def _tally_text(head: str, rows, tail: str) -> Iterable[str]:
    """The head, the rows _BLOCK to a chunk, and the tail."""
    yield head + "["
    for i in range(0, len(rows), _BLOCK):
        yield ("," if i else "") + ",".join(
            _ROW % (",\n        ".join(map(str, alpha)), crk, c, idx)
            for alpha, crk, idx, c in rows[i:i + _BLOCK])
    yield ("\n  ]" if rows else "]") + tail


def _cmd_tally(args) -> tuple[int, Iterable[str]]:
    tally = tally_cotypes(args.d, args.X, method=args.method,
                          max_matrices=args.max_matrices)
    if args.out and args.format == "csv":
        _write(args.out, itertools.chain(
            [f"# d={tally.d} X={tally.X} convention: index < X\n"],
            _csv(["alpha", "corank", "index", "count"],
                 ([".".join(map(str, alpha)), crk, idx, c]
                  for alpha, crk, idx, c in _tally_rows(tally)))))
    elif args.out:
        _write(args.out, _tally_doc(tally, rows=True, keys=("total", "n_by_corank")))
    return EXIT_OK, _tally_doc(tally, rows=not args.out and args.format == "json")


# ---------------------------------------------------------------------------
# density
# ---------------------------------------------------------------------------


def _cmd_density(args) -> tuple[int, list[str]]:
    d, m, cutoff = args.d, args.m, args.cutoff
    density = corank_density(d, m, cutoff)
    residue = corank_zeta_residue(d, m, cutoff)
    spot = {}
    for p in (2, 3, 5):
        local = corank_density_local(d, m, p)
        spot[str(p)] = {
            "exact_rational": str(local),
            "value": float(local),
            "matches_matrix_model": local == cokernel_rank_density_local(d, p, m),
        }
    doc = {
        "d": d,
        "m": m,
        "corank_density": asdict(density),
        "corank_zeta_residue": asdict(residue),
        "local_density_spot": spot,
    }
    if m == 1 and d >= 2:
        doc["cocyclic_constant"] = asdict(cocyclic_growth_constant(d, cutoff))
    return EXIT_OK, [_dump(doc)]


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


@dataclass
class CaseResult:
    case: str
    ok: bool
    detail: str = ""


def _suite_qident(args) -> list[CaseResult]:
    check_cap("qident_size", max(args.n, args.e))
    check_cap("qident_dim", args.d)
    out = []
    for n in range(args.n + 1):
        for e in range(args.e + 1):
            ok = qbinom_telescope_holds(n, e)
            out.append(CaseResult(f"telescope(n={n}, e={e})", ok,
                                  "" if ok else "sum != 1"))
    for d in range(1, args.d + 1):
        for i in range(1, d + 1):
            ok = qbinom_subset_identity_holds(d, i)
            out.append(CaseResult(f"subset-identity(d={d}, i={i})", ok,
                                  "" if ok else "sides differ"))
    return out


def _suite_descent(args) -> list[CaseResult]:
    check_cap("permutation_dim", args.d)  # before the smaller d spend factorial time
    out = []
    for d in range(1, args.d + 1):
        total_at_one = 0
        for lam in all_descent_sets(d):
            a = descent_poly_inclusion_exclusion(lam)
            b = descent_poly_permutations(lam)
            c = descent_poly_determinant(lam)
            name = f"w(d={d}, lambda={set(lam.elements) or '{}'})"
            if not (a == b == c):
                out.append(CaseResult(name, False,
                                      f"incl-excl={a}; permutations={b}; det={c}"))
                continue
            low_ok = a.is_zero() or a.low_exponent() >= len(lam.elements)
            neg_ok = all(cf >= 0 for cf in a.coeffs)
            if not (low_ok and neg_ok):
                out.append(CaseResult(name, False, f"shape violation: {a}"))
                continue
            out.append(CaseResult(name, True))
            total_at_one += a(1)
        fact = math.factorial(d)
        out.append(CaseResult(f"sum over lambda of w(d={d})(1) == {d}!",
                              total_at_one == fact,
                              "" if total_at_one == fact else f"got {total_at_one}"))
    return out


def _suite_oracle(args) -> list[CaseResult]:
    out = []
    d, p = args.d, args.p
    # Refuse an over-cap total before the smaller indices spend their time.
    enumeration_size(d, [p**e for e in range(args.emax + 1)], contracted=True)
    for e in range(args.emax + 1):
        counts = tally_cotypes_at_index(d, p**e)
        for parts in partitions_of(e, max_parts=d):
            nu = tuple(parts) + (0,) * (d - len(parts))
            predicted = local_coefficient(d, p, nu)
            alpha = tuple(p**v for v in nu)
            actual = counts.get(alpha, 0)
            ok = predicted == actual
            out.append(CaseResult(
                f"F(d={d}, p={p}, nu={nu})", ok,
                "" if ok else f"formula={predicted}, enumeration={actual}"))
    return out


def _suite_autorder(args) -> list[CaseResult]:
    emax = {}
    for p in (2, 3):
        emax[p] = 0
        while p ** (emax[p] + 1) <= args.max_order:
            emax[p] += 1
    # Once, before any search: no group of order p^r has a wider search step
    # than F_p^r, its most subspaces of one dimension times its p^r - 1 vectors.
    # r stops where the brute_order cap refuses a group anyway.
    top = CAPS["brute_order"].bit_length() - 1
    check_cap("brute_joins", max(max(q_binomial(r, i)(p) for i in range(r + 1)) * (p**r - 1)
                                 for p, r in ((p, min(e, top)) for p, e in emax.items())))
    out = []
    for p, e in emax.items():
        for size in range(e + 1):
            for parts in partitions_of(size):
                G = AbelianPGroupType.of(p, parts)
                closed = aut_order(G, "closed_form")
                tup = aut_order(G, "tuple_identity")
                brute = aut_order(G, "brute_force", max_order=args.max_order)
                ok = closed == tup == brute
                out.append(CaseResult(
                    f"|Aut| p={p} type={parts}", ok,
                    "" if ok else f"closed={closed}, tuple={tup}, brute={brute}"))
    return out


def _suite_zidentity(args) -> list[CaseResult]:
    check_cap("zidentity_dim", args.d)
    out = []
    for d in range(1, args.d + 1):
        for m in range(1, d + 1):
            for p in (2, 3, 5):
                lhs = cokernel_rank_density_local(d, p, m)
                rhs = corank_density_local(d, m, p)
                ok = lhs == rhs
                out.append(CaseResult(
                    f"Z(d={d}, p={p}, m={m})", ok,
                    "" if ok else f"matrix-model={lhs} != corank-density={rhs}"))
    return out


VERIFY_SUITES = {
    "qident": _suite_qident,
    "descent": _suite_descent,
    "oracle": _suite_oracle,
    "autorder": _suite_autorder,
    "zidentity": _suite_zidentity,
}


def _cmd_verify(args) -> tuple[int, list[str]]:
    results = VERIFY_SUITES[args.suite](args)
    failures = [r for r in results if not r.ok]
    for f in failures:
        sys.stderr.write(f"COUNTEREXAMPLE {f.case}: {f.detail}\n")
    doc = {
        "suite": args.suite,
        "cases": len(results),
        "failures": [{"case": f.case, "detail": f.detail} for f in failures],
        "ok": not failures,
    }
    return (EXIT_OK if not failures else EXIT_VERIFY), [_dump(doc)]


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def _rank_theory(d: int, p: int) -> dict[str, Fraction]:
    theory = {}
    prev = Fraction(0)
    for r in range(d + 1):
        cum = cokernel_rank_density_local(d, p, r)
        theory[rank_label(r)] = cum - prev
        prev = cum
    return theory


def _type_theory(d: int, p: int, exponent_cap: int) -> dict[str, Fraction]:
    masses = rank_d_masses(p, d, exponent_cap)
    theory = {type_label(parts): mass for parts, mass in masses.items()}
    theory[OTHER_LABEL] = 1 - sum(masses.values())
    return theory


def _theory_bits(d: int, p: int, exponent_cap: int) -> float:
    """log2 of the largest denominator among the exact theories, each a
    polynomial in 1/p with values in [0, 1]: p^(d^2) for the rank theory (the
    term of rank d), p^(c d^2 + d(d+1)/2) for the type theory at exponent cap c
    (the type (p^c, ..., p^c), whose |Aut| has p-part p^(c d^2))."""
    return power_bits(p, max(d * d, exponent_cap * d * d + d * (d + 1) // 2))


def _cmd_simulate(args) -> tuple[int, list[str]]:
    matrix = args.model == "matrix"
    if (args.k if matrix else args.X) is None:
        raise DomainError(f"the {args.model} model needs {'-k' if matrix else '-X'}")
    # Every cap before the theories and the first trial: the model's, checked
    # as the config is built (the cost of the theories grows with d), the
    # printed theories' size, then (in rank_d_masses) the number of type labels.
    cfg = SampleConfig(d=args.d, trials=args.n, master_seed=args.seed, p=args.p,
                       entry_bound=args.k if matrix else None,
                       index_bound=None if matrix else args.X,
                       exhaustive=args.exhaustive)
    check_cap("coefficient_bits", _theory_bits(args.d, args.p, args.type_cap))
    type_theory = _type_theory(args.d, args.p, args.type_cap)
    rank_theory = _rank_theory(args.d, args.p)
    result = (run_matrix_model if matrix else run_sublattice_model)(cfg)

    rank_cmp = compare_to_theory(result.rank_table, rank_theory, args.z_threshold)
    type_emp = result.type_table.bucketed(
        [lbl for lbl in type_theory if lbl != OTHER_LABEL]
    )
    type_cmp = compare_to_theory(type_emp, type_theory, args.z_threshold)

    config = asdict(cfg)
    if cfg.exhaustive:  # it visits its matrices as its trials, and uses no seed
        config.update(trials=cfg.matrices, master_seed=None)
    doc = {
        "config": config,
        "model": args.model,
        "empirical": {
            "rank": asdict(result.rank_table),
            "type": asdict(result.type_table),
        },
        "theory": {
            "rank": {k: str(v) for k, v in sorted(rank_theory.items())},
            "type": {k: str(v) for k, v in sorted(type_theory.items())},
        },
        # primary comparison (p-rank frequencies vs the exact local densities)
        "tv_distance": rank_cmp.tv_distance,
        "per_label": rank_cmp.per_label,
        "z_threshold": rank_cmp.z_threshold,
        "type_comparison": asdict(type_cmp),
        "verdict": rank_cmp.verdict and type_cmp.verdict,
    }
    if args.out:
        table = result.type_table
        _write(args.out, _csv(["label", "count", "trials"],
                              ([label, table.counts[label], table.trials]
                               for label in sorted(table.counts))))
    return EXIT_OK, [_dump(doc)]


# ---------------------------------------------------------------------------
# zeta
# ---------------------------------------------------------------------------


def _cmd_zeta(args) -> tuple[int, list[str]]:
    if args.action == "print-local":
        return EXIT_OK, [local_factor(args.d).canonical_str() + "\n"]
    if args.nu is None:
        raise DomainError("coeff needs --nu")
    if args.p is None:
        raise DomainError("coeff needs -p")
    nu = tuple(int(x) for x in args.nu.split(","))
    value = local_coefficient(args.d, args.p, nu)
    return EXIT_OK, [_dump({"d": args.d, "p": args.p, "nu": list(nu), "coefficient": value})]


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="cotype", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_tally = sub.add_parser(
        "tally",
        help="exact cotype tally of all sublattices of index < X "
             "(strict bound: index < X, never <=)")
    p_tally.add_argument("-d", type=int, required=True)
    p_tally.add_argument("-X", type=int, required=True,
                         help="strict upper bound on the index (counts index < X)")
    p_tally.add_argument("--format", choices=("json", "csv"), default="json")
    p_tally.add_argument("--out", default=None, help="write full rows to this path")
    p_tally.add_argument("--method", choices=TALLY_METHODS, default="auto")
    p_tally.add_argument("--max-matrices", type=_MATRIX_CAP, default=CAPS["enum_matrices"])
    p_tally.set_defaults(handler=_cmd_tally)

    p_density = sub.add_parser("density", help="corank densities and residues")
    p_density.add_argument("-d", type=int, required=True)
    p_density.add_argument("-m", type=int, required=True)
    p_density.add_argument("--cutoff", type=int, default=10**6)
    p_density.set_defaults(handler=_cmd_density)

    p_verify = sub.add_parser("verify", help="run an exact identity suite")
    p_verify.add_argument("suite", choices=sorted(VERIFY_SUITES))
    p_verify.add_argument("--n", type=_COUNT, default=8)
    p_verify.add_argument("--e", type=_COUNT, default=4)
    p_verify.add_argument("--d", type=_DIM, default=6)
    p_verify.add_argument("--p", type=_PRIME, default=2)
    p_verify.add_argument("--emax", type=_COUNT, default=4)
    p_verify.add_argument("--max-order", type=int, default=64)
    p_verify.set_defaults(handler=_cmd_verify)

    p_sim = sub.add_parser("simulate", help="Monte Carlo cokernel sampling")
    p_sim.add_argument("model", choices=("matrix", "sublattice"))
    p_sim.add_argument("-d", type=int, required=True)
    p_sim.add_argument("-k", type=int, default=None, help="entry bound (matrix model)")
    p_sim.add_argument("-X", type=int, default=None, help="index bound (sublattice model)")
    p_sim.add_argument("-p", type=_PRIME, required=True)
    p_sim.add_argument("-n", type=int, default=10000, help="number of trials")
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--exhaustive", action="store_true",
                       help="visit every matrix instead of sampling")
    p_sim.add_argument("--z-threshold", type=_Z_THRESHOLD, default=4.0)
    p_sim.add_argument("--type-cap", type=_COUNT, default=2,
                       help="largest exponent kept as its own type label")
    p_sim.add_argument("--out", default=None, help="CSV path for raw type tallies")
    p_sim.set_defaults(handler=_cmd_simulate)

    p_zeta = sub.add_parser("zeta", help="local factors and their coefficients")
    p_zeta.add_argument("-d", type=int, required=True)
    p_zeta.add_argument("action", choices=("print-local", "coeff"))
    p_zeta.add_argument("-p", type=_PRIME, default=None)
    p_zeta.add_argument("--nu", default=None, help="comma-separated exponents")
    p_zeta.set_defaults(handler=_cmd_zeta)

    return parser


def main(argv=None) -> int:
    started = time.perf_counter()
    CHECKED.clear()
    args = build_parser().parse_args(argv)
    seed = getattr(args, "seed", None)
    try:
        if getattr(args, "out", None):
            _check_out(args.out)
        code, chunks = args.handler(args)
    except ResourceLimitError as exc:
        sys.stderr.write(f"resource limit: {exc}\n")
        return EXIT_RESOURCE
    except (DomainError, CotypeError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    digest = hashlib.sha256()
    for chunk in chunks:  # the one place that writes stdout
        sys.stdout.write(chunk)
        digest.update(chunk.encode())
    sys.stdout.flush()
    import resource  # here, not at the top: --version never needs it
    manifest = {
        "subcommand": args.command,
        "parameters": {
            k: v for k, v in sorted(vars(args).items())
            if k not in ("handler", "command") and not callable(v)
        },
        "seed": seed,
        "caps": dict(sorted(CHECKED.items())),  # name -> [cost, limit]
        "version": __version__,
        "wall_time_s": round(time.perf_counter() - started, 6),
        "output_sha256": digest.hexdigest(),
        # KB on Linux. The children are those this process has reaped: in a
        # CLI run, the trial workers of `simulate`. Inside a longer-lived host
        # both figures cover the host's whole life.
        "peak_rss_kb": max(resource.getrusage(who).ru_maxrss
                           for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)),
    }
    sys.stderr.write(json.dumps(manifest, sort_keys=True) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
