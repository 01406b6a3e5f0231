"""End-to-end CLI tests: output contracts, exit codes, reproducibility."""

import argparse
import ast
import hashlib
import json
import math
import os
import re
import runpy
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cotype import cli, errors, groups, lattices, primes, qcomb, simulate, zeta
from cotype.errors import CAPS, CHECKED, ResourceLimitError, check_cap
from cotype.zeta import dirichlet_coefficients_upto
from helpers import run_cli, run_process


class TestTally:
    def test_dimension_one(self):
        proc = run_cli("tally", "-d", "1", "-X", "10")
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["N"] == 9
        assert doc["bound"] == "index < X"
        assert doc["N_by_corank"]["1"] == 9

    def test_csv_export(self, tmp_path):
        out = tmp_path / "tally.csv"
        proc = run_cli("tally", "-d", "2", "-X", "30", "--format", "csv",
                       "--out", str(out))
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        lines = out.read_text().splitlines()
        assert lines[0].startswith("#") and "index < X" in lines[0]
        total = sum(int(ln.rsplit(",", 1)[1]) for ln in lines[2:])
        assert total == doc["N"]

    def test_sigma_sum(self):
        proc = run_cli("tally", "-d", "2", "-X", "100")
        doc = json.loads(proc.stdout)
        assert doc["N"] == sum(
            sum(t for t in range(1, n + 1) if n % t == 0) for n in range(1, 100)
        )

    def test_resource_limit_exit_code(self):
        proc = run_cli("tally", "-d", "3", "-X", "281", "--method", "enumerate", timeout=20)
        assert proc.returncode == 2
        assert "resource limit" in proc.stderr

    def test_bad_arguments_exit_code(self):
        assert run_cli("tally", "-d", "1").returncode == 1
        assert run_cli("tally", "-d", "0", "-X", "5").returncode == 1
        assert run_cli("nonsense").returncode == 1

    # no flag sets the enumeration's cap: --max-matrices is an unknown argument
    @pytest.mark.parametrize("args", [
        ("--max-matrices", "-1"),
        ("--method", "enumerate", "--max-matrices", "-1"),
        ("--method", "divisor"),
        ("--method", "full"),
    ])
    def test_negative_cap_and_unknown_method_exit_1(self, args):
        proc = run_cli("tally", "-d", "3", "-X", "50", *args, timeout=60)
        assert proc.returncode == 1, proc.stderr
        assert "resource limit" not in proc.stderr

    @pytest.mark.parametrize("d, X", [("1", "1000000000"), ("3", "1000000000"),
                                      ("500", "3")])
    @pytest.mark.parametrize("method", ["auto", "enumerate"])
    def test_huge_bound_exits_2_promptly(self, d, X, method):
        proc = run_cli("tally", "-d", d, "-X", X, "--method", method, timeout=20)
        assert proc.returncode == 2, proc.stderr
        assert "resource limit" in proc.stderr

    def test_d3_beyond_enumeration(self):
        # csv without --out prints the summary only
        proc = run_cli("tally", "-d", "3", "-X", "100000", "--format", "csv", timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["N"] == sum(dirichlet_coefficients_upto(3, 100000))

    @pytest.mark.parametrize("args, digest", [
        ("-d 2 -X 10000", "231f3386f9dc78dc2080d63594ba7971d8c11614937f56a64122fb9128386e67"),
        ("-d 3 -X 200", "a1ba35e2d4be4f505af56aad438a39ba3906f676bd4a9ec2a171b7b99aa7fd54"),
        ("-d 1 -X 50", "7bd9267e19d681405f1993c2a0e4694e967a02fda72e620c240b02f2991640bd"),
        ("-d 64 -X 3", "9da0ebc9a702f3b9a35c8217c57db070e7e5a6e78bde8b25e21ac8a4e226e1d4"),
    ])
    def test_stdout_is_pinned(self, args, digest):
        # the rows are streamed from a template; these are the bytes json.dumps
        # gave the whole document
        proc = run_cli("tally", *args.split(), timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert hashlib.sha256(proc.stdout.encode()).hexdigest() == digest

    @pytest.mark.parametrize("fmt, digest", [
        ("json", "5c25dfb73476a80c839d0ed5b44b60551db95ec9424773e676d428b3d3e72559"),
        ("csv", "c099cffc4d5ddaf5cf4709b0583f9bbfe27734d169860c17768b428be5eeb6ea"),
    ])
    def test_many_row_out_file_is_pinned(self, fmt, digest, tmp_path):
        out = tmp_path / "out"
        proc = run_cli("tally", "-d", "2", "-X", "10000", "--format", fmt,
                       "--out", str(out), timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("d, X", [(1, 1), (1, 2), (2, 2), (3, 2), (1, 50), (2, 30),
                                      (3, 40), (5, 12), (64, 3), (2, 2500)])
    @pytest.mark.parametrize("keys", [("N", "N_by_corank"), ("total", "n_by_corank")])
    def test_streamed_rows_are_the_json_dumps_text(self, d, X, keys):
        # X = 1 has no rows; (2, 2500) has 4,036 rows, five chunks of rows
        tally = lattices.tally_cotypes(d, X)
        total, by_corank = keys
        rows = sorted(tally.counts.items(), key=lambda kv: (math.prod(kv[0]), kv[0]))
        doc = {"d": d, "X": X, "bound": "index < X", total: tally.total,
               by_corank: tally.n_by_corank(),
               "rows": [{"alpha": list(alpha), "corank": lattices.corank(alpha),
                         "index": math.prod(alpha), "count": c} for alpha, c in rows]}
        text = "".join(cli._tally_doc(tally, rows=True, keys=keys))
        assert text == json.dumps(doc, sort_keys=True, indent=2) + "\n"

    def test_rows_stream_in_bounded_memory(self):
        # tracemalloc's peak over the run: 23.65 MB when the whole document went
        # through json.dumps, 5.84 MB with the rows streamed in chunks to
        # /dev/null, 5.5-6.2 MB with its 2.0 MB captured
        tracemalloc.start()
        try:
            assert run_cli("tally", "-d", "2", "-X", "10000").returncode == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 10**6, peak


class TestDensity:
    def test_d2_m2_is_exactly_one(self):
        proc = run_cli("density", "-d", "2", "-m", "2", "--cutoff", "1000")
        doc = json.loads(proc.stdout)
        assert doc["corank_density"]["value"] == 1.0
        assert doc["local_density_spot"]["2"]["exact_rational"] == "1"

    def test_d2_m1_matches_closed_form(self):
        import math

        proc = run_cli("density", "-d", "2", "-m", "1", "--cutoff", "20000")
        doc = json.loads(proc.stdout)
        assert abs(doc["corank_density"]["value"] - 90 / math.pi**4) < 1e-4
        assert abs(doc["cocyclic_constant"]["value"] - 15 / math.pi**2) < 1e-3
        assert doc["local_density_spot"]["2"]["exact_rational"] == "15/16"
        assert all(v["matches_matrix_model"] for v in doc["local_density_spot"].values())

    def test_domain_error_exit(self):
        assert run_cli("density", "-d", "2", "-m", "3").returncode == 1

    @pytest.mark.parametrize("d", [2, 5, 40])
    def test_cocyclic_constant_is_the_m1_residue(self, d):
        # one product; only the tail constants differ (C = 2 against C = 6)
        proc = run_cli("density", "-d", str(d), "-m", "1")
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["cocyclic_constant"]["value"] == doc["corank_zeta_residue"]["value"]
        assert doc["cocyclic_constant"]["tail_bound"] < doc["corank_zeta_residue"]["tail_bound"]


class TestVerify:
    def test_suites_pass(self):
        for suite, extra in [
            ("qident", ["--n", "5", "--e", "2", "--d", "4"]),
            ("descent", ["--d", "5"]),
            ("oracle", ["--d", "2", "--p", "2", "--emax", "3"]),
            ("autorder", ["--max-order", "16"]),
            ("zidentity", ["--d", "4"]),
        ]:
            proc = run_cli("verify", suite, *extra)
            assert proc.returncode == 0, (suite, proc.stderr)
            doc = json.loads(proc.stdout)
            assert doc["ok"] and doc["failures"] == []

    @pytest.mark.parametrize("extra", [("--p", "3"), ("--d", "8")])
    def test_oracle_under_the_cap_runs(self, extra):
        # the cap prices the Smith work of the contracted cores, not every
        # Hermite basis: at (d, p, emax) = (6, 3, 4) and (8, 2, 4) n^(d-1)
        # passes 10^8
        proc = run_cli("verify", "oracle", *extra, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["ok"]

    def test_failure_exits_3_with_counterexample(self, monkeypatch):
        def rigged(args):
            return [cli.CaseResult("rigged-case q=1", False, "forced failure")]

        monkeypatch.setitem(cli.VERIFY_SUITES, "qident", rigged)
        proc = run_cli("verify", "qident")
        assert proc.returncode == 3
        assert "COUNTEREXAMPLE rigged-case q=1: forced failure" in proc.stderr
        doc = json.loads(proc.stdout)
        assert not doc["ok"]
        assert doc["failures"][0]["case"] == "rigged-case q=1"


# The caps case by case, keyed by the name in CAPS. OVER_CAP holds CLI inputs just
# past a cap, refused before any trial or table; LIBRARY_OVER_CAP calls past the
# caps that only the library reaches, or that are counted as they are spent,
# with their time bound; AT_CAP the largest CLI inputs under a cap where that
# run takes under 2 s. The first 16 and 6 cases keep their order, and so their
# test ids.
OVER_CAP = [
    # C(2 + 62, 2) = 2016 and C(20 + 4, 20) = 10,626 types
    ("type_labels",
     ("simulate", "matrix", "-d", "2", "-k", "5", "-p", "2", "-n", "5", "--type-cap", "62")),
    ("type_labels",
     ("simulate", "matrix", "-d", "20", "-k", "5", "-p", "2", "-n", "5", "--type-cap", "4")),
    ("coefficient_bits", ("simulate", "matrix", "-d", "2", "-k", "5", "-p", "2", "-n", "5",
                          "--type-cap", "100000")),
    # refused before the first of the trials the work cap allows (about 11 s)
    ("type_labels", ("simulate", "matrix", "-d", "2", "-k", "10000", "-p", "2",
                     "-n", str(CAPS["trial_work"] // 27), "--type-cap", "62")),
    # the theories' denominators p^(c d^2 + d(d+1)/2) and p^(d^2) pass 14,000 bits
    ("coefficient_bits",
     ("simulate", "matrix", "-d", "20", "-k", "5", "-p", "2305843009213693951", "-n", "5")),
    ("coefficient_bits", ("simulate", "matrix", "-d", "16", "-k", "5",
                          "-p", "2305843009213693951",
                          "-n", str(CAPS["trial_work"] // 16**3), "--type-cap", "0")),
    ("corank_dim", ("density", "-d", str(CAPS["corank_dim"] + 1), "-m", "1")),
    ("corank_dim", ("density", "-d", "400", "-m", "1")),
    ("prime_cutoff",
     ("density", "-d", "2", "-m", "1", "--cutoff", str(CAPS["prime_cutoff"] + 1))),
    # nu = (e, 0, 0) at p = 2 bounds the coefficient by 2^(3 + 2e)
    ("coefficient_bits", ("zeta", "-d", "3", "coeff", "-p", "2",
                          "--nu", f"{CAPS['coefficient_bits'] // 2 - 1},0,0")),
    ("coefficient_bits", ("zeta", "-d", "3", "coeff", "-p", "2", "--nu", "1000000,0,0")),
    ("coefficient_bits",
     ("zeta", "-d", "1", "coeff", "-p", "2", "--nu", str(CAPS["coefficient_bits"] + 1))),
    ("qident_size", ("verify", "qident", "--n", str(CAPS["qident_size"] + 1))),
    ("qident_size", ("verify", "qident", "--e", str(CAPS["qident_size"] + 1))),
    ("qident_dim", ("verify", "qident", "--d", str(CAPS["qident_dim"] + 1))),
    ("zidentity_dim", ("verify", "zidentity", "--d", str(CAPS["zidentity_dim"] + 1))),
    ("permutation_dim", ("verify", "descent", "--d", str(CAPS["permutation_dim"] + 1))),
    ("local_factor_dim", ("zeta", "-d", str(CAPS["local_factor_dim"] + 1), "print-local")),
    # the enumerations of Z^3 below 281 and of Z^2 below 1763 cost 2,021,008 and
    # 2,001,263 units of Smith work, those below 280 and 1762 are admitted
    ("enum_work", ("tally", "-d", "3", "-X", "281", "--method", "enumerate")),
    ("enum_work", ("tally", "-d", "2", "-X", "1763", "--method", "enumerate")),
    # index 8 of Z^60 has C(62, 3) = 37,820 Hermite diagonals
    ("hermite_table", ("verify", "oracle", "--d", "60", "--p", "2", "--emax", "3")),
    ("tally_rank", ("tally", "-d", str(CAPS["tally_rank"] + 1), "-X", "2")),
    ("tally_size", ("tally", "-d", "3", "-X", str(CAPS["tally_size"] // 3 + 1))),
    ("matrix_dim", ("simulate", "sublattice", "-d", str(CAPS["matrix_dim"] + 1), "-X", "100",
                    "-p", "2", "-n", "1")),
    ("trial_work", ("simulate", "matrix", "-d", "20", "-k", "10000", "-p", "2",
                    "-n", str(CAPS["trial_work"] // 20**3 + 1))),
    ("sublattice_index", ("simulate", "sublattice", "-d", "2", "-X",
                          str(CAPS["sublattice_index"] + 1), "-p", "2", "-n", "10")),
    ("entry_bits", ("simulate", "matrix", "-d", "20", "-k", str(2 ** CAPS["entry_bits"]),
                    "-p", "2", "-n", "2")),
    ("entry_bits",
     ("simulate", "matrix", "-d", "20", "-k", str(10**3000), "-p", "2", "-n", "2")),
    # (2 * 16 + 1)^4 = 1,185,921 matrices
    ("exhaustive_matrices", ("simulate", "matrix", "-d", "2", "-k", "16", "-p", "2",
                             "--exhaustive")),
    # exponents past any float: their bits were a float overflow and a traceback
    ("coefficient_bits", ("zeta", "-d", "2", "coeff", "-p", "2", "--nu", f"{10**400},0")),
    ("coefficient_bits", ("simulate", "matrix", "-d", "2", "-k", "5", "-p", "2", "-n", "5",
                          "--type-cap", str(10**400))),
    # F_2^7 has 11,811 subspaces of dimension 3, each tried with 127 vectors
    ("brute_joins", ("verify", "autorder", "--max-order", "128")),
    # 13,929,033 units of Smith work up to 2^8 in Z^4 (1,660,829 up to 2^7), and
    # 2,621,961 up to 2^5 in Z^8
    ("enum_work", ("verify", "oracle", "--d", "4", "--p", "2", "--emax", "8")),
    ("enum_work", ("verify", "oracle", "--d", "8", "--p", "2", "--emax", "5")),
    # the enumeration's rows too: at d = 1 it took 27 s and 114 MB at the cap
    ("tally_size", ("tally", "-d", "1", "-X", str(CAPS["tally_size"] + 1),
                    "--method", "enumerate")),
    # the enumeration's d too, before any table: that of index 1 in Z^150000
    # takes O(d^2) to build
    ("tally_rank", ("tally", "-d", "150000", "-X", "2", "--method", "enumerate")),
    # index 2^e of Z^1 costs one unit of work; its coefficient passes 14,000
    # bits at e = 14,000, so no power of 2 is built
    ("coefficient_bits", ("verify", "oracle", "--d", "1", "--p", "2", "--emax", str(10**6))),
]
CAP_OF = {argv: name for name, argv in OVER_CAP}
LIBRARY_OVER_CAP = [
    ("descent_table_dim", lambda: qcomb.descent_poly_inclusion_exclusion(
        qcomb.DescentSet.of(CAPS["descent_table_dim"] + 1, [1])), 1),
    ("brute_order", lambda: groups.aut_order(
        groups.AbelianPGroupType.of(2, (11,)), "brute_force", max_order=10**9), 1),
    # F_2^7: the third step would try 2,667 planes x 127 vectors
    ("brute_joins", lambda: groups.aut_order(
        groups.AbelianPGroupType.of(2, (1,) * 7), "brute_force"), 1),
    # a 61-bit times a 59-bit prime: trial division stops at 2^20
    ("trial_divisors", lambda: primes.factorize((2**61 - 1) * (2**59 - 55)), 1),
    ("cocyclic_dim", lambda: zeta.cocyclic_growth_constant(CAPS["cocyclic_dim"] + 1, 1000), 1),
    # the Hermite table of index 1 takes O(d^2) to build: 0.64 s at d = 20,000
    ("tally_rank", lambda: lattices.hnf_count(CAPS["tally_rank"] + 1, 1), 1),
]
AT_CAP = [
    ("type_labels",
     ("simulate", "matrix", "-d", "2", "-k", "5", "-p", "2", "-n", "5", "--type-cap", "61")),
    ("type_labels",
     ("simulate", "matrix", "-d", "20", "-k", "5", "-p", "2", "-n", "5", "--type-cap", "3")),
    ("corank_dim", ("density", "-d", str(CAPS["corank_dim"]), "-m", "1")),
    ("prime_cutoff", ("density", "-d", "8", "-m", "4", "--cutoff", str(CAPS["prime_cutoff"]))),
    ("qident_size", ("verify", "qident", "--n", str(CAPS["qident_size"]),
                     "--e", str(CAPS["qident_size"]), "--d", str(CAPS["qident_dim"]))),
    ("zidentity_dim", ("verify", "zidentity", "--d", str(CAPS["zidentity_dim"]))),
    ("local_factor_dim", ("zeta", "-d", str(CAPS["local_factor_dim"]), "print-local")),
    ("tally_rank", ("tally", "-d", str(CAPS["tally_rank"]), "-X", "3")),
    # 414,711 units of Smith work; --emax 6 is refused
    ("enum_work", ("verify", "oracle", "--d", "6", "--p", "2", "--emax", "5")),
    ("sublattice_index", ("simulate", "sublattice", "-d", str(CAPS["matrix_dim"]),
                          "-X", str(CAPS["sublattice_index"]), "-p", "2", "-n", "10")),
    ("entry_bits", ("simulate", "matrix", "-d", str(CAPS["matrix_dim"]),
                    "-k", str(2 ** CAPS["entry_bits"] - 1), "-p", "2", "-n", "2")),
]


def test_every_cap_has_a_case_past_it():
    assert {name for name, *_ in OVER_CAP + LIBRARY_OVER_CAP} == set(CAPS)


def test_only_check_cap_raises_the_resource_error():
    src = Path(cli.__file__).parent
    raisers = [path.name for path in sorted(src.glob("*.py"))
               if "raise ResourceLimitError" in path.read_text()]
    assert raisers == ["errors.py"]


def test_every_function_and_class_is_used():
    """Every non-dunder function or class in src/cotype is named somewhere in
    src/, tests/ or perfbench/ other than by its own definition: as a name, an
    attribute or an exact string constant (as getattr and perfbench's public()
    take it). It cannot see operator dunders, which operators reach without a
    name. _Parser.error is exempt: argparse calls it from its own code."""
    root = Path(cli.__file__).parents[2]
    used = set()
    for path in [p for top in ("src", "tests", "perfbench") for p in (root / top).rglob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.add(node.value)

    def unused(body, prefix):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                name = prefix + node.name
                if not node.name.startswith("__") and node.name not in used:
                    yield name
                yield from unused(node.body, name + ".")

    dead = [f"{path.stem}.{name}" for path in sorted(Path(cli.__file__).parent.glob("*.py"))
            for name in unused(ast.parse(path.read_text()).body, "")]
    assert [name for name in dead if name != "cli._Parser.error"] == []


def _writes(call: ast.Call, pipes: set[str]) -> bool:
    """A call that opens a file for writing: open() in a mode that writes, on
    anything but the write end of an os.pipe(), or Path.write_text/_bytes."""
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr in ("write_text", "write_bytes")
    if not (isinstance(func, ast.Name) and func.id == "open"):
        return False
    modes = call.args[1:2] + [kw.value for kw in call.keywords if kw.arg == "mode"]
    writing = any(not isinstance(m, ast.Constant) or set("wax+") & set(m.value)
                  for m in modes)
    target = call.args[0] if call.args else None
    return writing and not (isinstance(target, ast.Name) and target.id in pipes)


def test_only_cli_encodes_and_writes_documents():
    # the library returns counts, tables and dataclasses; cli encodes each
    # document and writes each --out file
    offenders = []
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        pipes = {name.id for node in ast.walk(tree) if isinstance(node, ast.Assign)
                 and ast.unparse(node.value) == "os.pipe()"
                 for name in ast.walk(node.targets[0]) if isinstance(name, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                modules = []
            if {m.split(".")[0] for m in modules} & {"json", "csv"}:
                offenders.append((path.name, node.lineno, "imports json or csv"))
            if isinstance(node, ast.Call) and _writes(node, pipes):
                offenders.append((path.name, node.lineno, "opens a file for writing"))
    assert {name for name, *_ in offenders} == {"cli.py"}, offenders
    # and within cli, only main writes stdout: the handlers return their text
    stray = [(top.name if hasattr(top, "name") else "module", node.lineno)
             for top in ast.parse(Path(cli.__file__).read_text()).body
             if getattr(top, "name", None) != "main"
             for node in ast.walk(top)
             if isinstance(node, ast.Attribute) and node.attr in ("stdout", "__stdout__")
             or isinstance(node, ast.Call) and ast.unparse(node.func) == "print"
             and "file" not in {kw.arg for kw in node.keywords}]
    assert not stray, stray


# what starts a process: subprocess or multiprocessing, the interpreter's path,
# or a call of an os function that forks, spawns or execs
_STARTS = re.compile(r"(subprocess|multiprocessing)(\..*)?|sys\.executable"
                     r"|os\.(fork|forkpty|system|popen|spawn\w*|exec\w*|posix_spawnp?)")


def test_only_helpers_starts_a_process():
    # run_process is the one way a test starts an interpreter. An os function
    # counts where it is called or imported: test_simulate's cpus fixture
    # refers to os.fork only to count the forks of the library
    offenders = []
    for path in sorted(Path(__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.Call):
                names = [ast.unparse(node.func)]
            elif isinstance(node, ast.Attribute) and ast.unparse(node) == "sys.executable":
                names = ["sys.executable"]
            else:
                names = []
            offenders += [(path.name, node.lineno, name) for name in names
                          if _STARTS.fullmatch(name)]
    assert {name for name, *_ in offenders} == {"helpers.py"}, offenders


def test_autorder_refuses_before_any_search(monkeypatch):
    def searched(*args):
        raise AssertionError("a brute-force search ran")

    monkeypatch.setattr(groups, "_generating_tuples_brute", searched)
    with pytest.raises(ResourceLimitError, match="^brute_joins cap exceeded"):
        cli._suite_autorder(argparse.Namespace(max_order=128))


@pytest.mark.parametrize("p, r", [(2, 6), (3, 4), (5, 3)])
def test_f_p_r_bounds_every_brute_step_of_its_order(p, r):
    # the brute_joins cost verify autorder checks before its searches, which
    # F_p^r attains: its most subspaces of one dimension times p^r - 1 vectors
    CHECKED.clear()
    for size in range(r + 1):
        for parts in groups.partitions_of(size):
            groups.aut_order(groups.AbelianPGroupType.of(p, parts), "brute_force")
    widest = max(qcomb.q_binomial(r, i)(p) for i in range(r + 1)) * (p**r - 1)
    assert CHECKED["brute_joins"][0] == widest


def test_readme_table_lists_every_cap():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = [line.split("|")[1:3] for line in readme.split("### Caps", 1)[1].splitlines()
            if line.startswith("| `")]
    assert {name.strip(" `"): int(limit.replace(",", "")) for name, limit in rows} == CAPS


@pytest.mark.parametrize("argv", [
    "simulate matrix -d 3 -k 5 -p 2 -n 20",
    "simulate matrix -d 2 -k 1 -p 3 -n 0 --exhaustive",
    "simulate sublattice -d 3 -X 50 -p 2 -n 20",
])
def test_a_simulate_run_checks_each_cap_once(argv, monkeypatch):
    calls = []

    def counted(name, cost, limit=None):
        calls.append(name)
        check_cap(name, cost, limit)

    for module in (cli, groups, lattices, primes, qcomb, simulate, zeta):
        if hasattr(module, "check_cap"):
            monkeypatch.setattr(module, "check_cap", counted)
    proc = run_cli(*argv.split())
    assert proc.returncode == 0
    assert len(calls) == len(set(calls)), calls
    manifest = json.loads(proc.stderr.splitlines()[-1])
    assert set(manifest["caps"]) == set(calls)


class TestInputContracts:
    @pytest.mark.parametrize("args", [
        ("zeta", "-d", "2", "coeff", "-p", "4", "--nu", "1,0"),
        ("verify", "oracle", "--p", "4"),
        ("simulate", "matrix", "-d", "2", "-k", "5", "-p", "1", "-n", "10"),
        # suites that do not read --p still refuse a non-prime one
        ("verify", "zidentity", "--p", "1"),
        ("verify", "qident", "--p", "4"),
    ])
    def test_non_prime_p_exits_1(self, args):
        # refused at parse time, before any suite or model runs
        proc = run_cli(*args, timeout=60)
        assert proc.returncode == 1, proc.stderr
        assert "must be prime" in proc.stderr
        assert "COUNTEREXAMPLE" not in proc.stderr

    def test_descent_cap_exits_2_promptly(self):
        proc = run_cli("verify", "descent", "--d", "10", timeout=20)
        assert proc.returncode == 2, proc.stderr
        assert "resource limit" in proc.stderr

    # d = 60000 spent 8 s building its table of index 1, d = 1000 3 s on its
    # tables up to index 4, before a cap refused them
    @pytest.mark.parametrize("d, emax", [("3", "14"), ("60", "40"), ("60000", "0"),
                                         ("1000", "2")])
    def test_oracle_cap_exits_2_promptly(self, d, emax):
        proc = run_cli("verify", "oracle", "--d", d, "--p", "2", "--emax", emax, timeout=2)
        assert proc.returncode == 2, proc.stderr
        assert "resource limit" in proc.stderr

    @pytest.mark.parametrize("emax, code", [("1", 0), ("2", 2)])
    def test_oracle_at_a_large_prime_ends_promptly(self, emax, code):
        # 2^61 - 1 is prime: factorizing p and p^2 must not trial-divide to sqrt
        proc = run_cli("verify", "oracle", "--d", "2", "--p", str(2**61 - 1),
                       "--emax", emax, timeout=20)
        assert proc.returncode == code, proc.stderr

    def test_negative_brute_force_cap_exits_1(self):
        proc = run_cli("verify", "autorder", "--max-order", "-1", timeout=20)
        assert proc.returncode == 1, proc.stderr
        assert "resource limit" not in proc.stderr

    def test_autorder_work_cap_exits_2_promptly(self):
        # order 128 admits F_2^7, whose search passes the work cap
        proc = run_cli("verify", "autorder", "--max-order", "128", timeout=20)
        assert proc.returncode == 2, proc.stderr
        assert "resource limit" in proc.stderr

    def test_matrix_dimension_cap_exits_2_promptly(self):
        proc = run_cli("simulate", "matrix", "-d", str(CAPS["matrix_dim"] + 1), "-k", "1000",
                       "-p", "2", "-n", "1", timeout=20)
        assert proc.returncode == 2, proc.stderr
        assert "resource limit" in proc.stderr

    def test_matrix_model_work_cap_exits_2_promptly(self):
        # the default -n 10000 at d = 20 is past the cap on trials * max(d, 3)^3
        proc = run_cli("simulate", "matrix", "-d", "20", "-k", "10000", "-p", "2",
                       timeout=20)
        assert proc.returncode == 2, proc.stderr
        assert "work cap" in proc.stderr

    def test_matrix_model_at_its_dimension_cap_ends_promptly(self):
        proc = run_cli("simulate", "matrix", "-d", "20", "-k", "10000", "-p", "2",
                       "-n", "3", timeout=20)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["empirical"]["rank"]["trials"] == 3

    @pytest.mark.parametrize("args", [argv for _, argv in OVER_CAP])
    def test_size_cap_exits_2_within_a_second(self, args):
        start = time.perf_counter()
        proc = run_cli(*args, timeout=20)
        assert time.perf_counter() - start < 1
        assert proc.returncode == 2, proc.stderr
        assert f"resource limit: {CAP_OF[args]} cap exceeded" in proc.stderr

    @pytest.mark.parametrize("name, call, seconds", LIBRARY_OVER_CAP)
    def test_library_cap_raises_promptly(self, name, call, seconds):
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError, match=f"^{name} cap exceeded"):
            call()
        assert time.perf_counter() - start < seconds

    @pytest.mark.parametrize("args", [argv for _, argv in AT_CAP])
    def test_largest_input_under_a_size_cap_exits_0(self, args):
        proc = run_cli(*args, timeout=60)
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("d, p, type_cap", [(4, 1000003, 2), (8, 1000003, 2),
                                                (15, 2**61 - 1, 0)])
    def test_theories_at_a_large_prime_are_printed(self, d, p, type_cap):
        # d = 15 at p = 2^61 - 1: the rank theory's denominators p^225 have
        # 13,725 bits, just under the cap
        proc = run_cli("simulate", "matrix", "-d", str(d), "-k", "5", "-p", str(p), "-n", "5",
                       "--type-cap", str(type_cap), timeout=60)
        assert proc.returncode == 0, proc.stderr
        theory = json.loads(proc.stdout)["theory"]
        assert Fraction(theory["rank"][f"rank {d}"]) == Fraction(1, p ** (d * d))
        assert sum(map(Fraction, theory["type"].values())) == 1

    @pytest.mark.parametrize("d, nu", [(3, (CAPS["coefficient_bits"] // 2 - 2, 0, 0)),
                                       (1, (CAPS["coefficient_bits"],))])
    def test_largest_coefficient_under_its_cap_is_printed(self, d, nu):
        proc = run_cli("zeta", "-d", str(d), "coeff", "-p", "2",
                       "--nu", ",".join(map(str, nu)), timeout=20)
        assert proc.returncode == 0, proc.stderr
        e = nu[0]
        # one index-2^e subgroup of Z/2^e when d = 1; 2^(2(e-1)) (4 + 2 + 1) cyclic
        # subgroups of order 2^e in (Z/2^e)^3
        want = 1 if d == 1 else 2 ** (2 * (e - 1)) * 7
        assert json.loads(proc.stdout)["coefficient"] == want

    @pytest.mark.parametrize("args", [
        ("verify", "descent", "--d", "0"),
        ("verify", "zidentity", "--d", "-3"),
        ("verify", "oracle", "--emax", "-1"),
        ("verify", "qident", "--n", "-1"),
        ("verify", "qident", "--e", "-1"),
        ("simulate", "matrix", "-d", "2", "-k", "5", "-p", "2", "-n", "10",
         "--z-threshold", "nan"),
        ("simulate", "matrix", "-d", "2", "-k", "5", "-p", "2", "-n", "10",
         "--z-threshold", "inf"),
        ("simulate", "matrix", "-d", "2", "-k", "5", "-p", "2", "-n", "10",
         "--z-threshold", "-1"),
        ("simulate", "matrix", "-d", "2", "-k", "5", "-p", "2", "-n", "10",
         "--type-cap", "-1"),
    ])
    def test_out_of_range_argument_exits_1(self, args):
        # refused at parse time: no suite runs, no verdict is printed
        proc = run_cli(*args, timeout=20)
        assert proc.returncode == 1, proc.stderr
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr

    def test_exhaustive_without_k_exits_1(self):
        proc = run_cli("simulate", "sublattice", "-d", "2", "-X", "50", "-p", "2",
                       "-n", "10", "--exhaustive", timeout=20)
        assert proc.returncode == 1, proc.stderr
        assert proc.stdout == ""


# Small values keep every accepted command well inside its caps, so that each
# case ends in well under a second and 100 of them in about 20 s.
SMALL = st.integers(-2, 4)
PRIME_OR_NOT = st.sampled_from([-1, 0, 1, 2, 3, 4, 6, 9])
NON_PRIMES = {"-1", "0", "1", "4", "6", "9"}
P_FLAG = {"verify": "--p", "simulate": "-p", "zeta": "-p"}


def _flags(*pairs):
    """argv fragments: each flag is absent, or present with one drawn value
    (alone when its values are None)."""
    frags = [st.one_of(st.just(()), st.just((flag,)) if values is None
                       else values.map(lambda v, f=flag: (f, str(v))))
             for flag, values in pairs]
    return st.tuples(*frags).map(lambda t: [a for frag in t for a in frag])


def _command(head, *pairs):
    return st.tuples(head, _flags(*pairs)).map(lambda t: [*t[0], *t[1]])


ARGVS = st.one_of(
    _command(st.just(["tally"]), ("-d", SMALL), ("-X", st.integers(-2, 40)),
             ("--method", st.sampled_from(["auto", "enumerate", "full"])),
             ("--format", st.just("csv"))),
    _command(st.just(["density"]), ("-d", SMALL), ("-m", SMALL),
             ("--cutoff", st.integers(-2, 200))),
    _command(st.sampled_from(["qident", "descent", "oracle", "autorder", "zidentity",
                              "nonsense"]).map(lambda s: ["verify", s]),
             ("--n", SMALL), ("--e", SMALL), ("--d", SMALL), ("--p", PRIME_OR_NOT),
             ("--emax", SMALL), ("--max-order", st.integers(-2, 40))),
    _command(st.sampled_from(["matrix", "sublattice"]).map(lambda m: ["simulate", m]),
             ("-d", SMALL), ("-k", SMALL), ("-X", st.integers(-2, 60)),
             ("-p", PRIME_OR_NOT), ("-n", st.integers(-2, 40)), ("--seed", SMALL),
             ("--type-cap", SMALL), ("--exhaustive", None),
             ("--z-threshold", st.sampled_from(["nan", "inf", "-1", "0", "4"]))),
    _command(st.sampled_from(["print-local", "coeff"]).map(lambda a: ["zeta", a]),
             ("-d", SMALL), ("-p", PRIME_OR_NOT),
             ("--nu", st.lists(SMALL, max_size=4).map(lambda v: ",".join(map(str, v))))),
)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(ARGVS)
def test_fuzzed_argv_exits_with_a_documented_code(argv):
    proc = run_cli(*argv, timeout=20)
    assert proc.returncode in (0, 1, 2, 3), (argv, proc.stderr)
    assert "Traceback" not in proc.stderr, (argv, proc.stderr)
    flag = P_FLAG.get(argv[0])
    if flag in argv and argv[argv.index(flag) + 1] in NON_PRIMES:
        assert proc.returncode == 1, (argv, proc.stderr)
    if argv[0] == "verify" and proc.returncode == 0:
        assert json.loads(proc.stdout)["cases"] > 0, argv


@pytest.mark.process
def test_runs_without_mpmath():
    # mpmath is a test-only oracle: blocking its import must change no output
    script = "\n".join([
        "import sys",
        "sys.modules['mpmath'] = None",
        "from cotype import cli",
        "assert cli.main(['density', '-d', '30', '-m', '1']) == 0",
        "cli.main(['--version'])",
    ])
    proc = run_process("-c", script, timeout=60)
    assert proc.returncode == 0, proc.stderr
    expected = run_cli("density", "-d", "30", "-m", "1", timeout=60).stdout
    assert proc.stdout == expected + run_cli("--version", timeout=60).stdout


@pytest.mark.process
def test_package_runs_as_a_module():
    proc = run_process("-m", "cotype", "--version", timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == run_cli("--version", timeout=60).stdout


# a verify suite rigged to fail, then the exit status of main as the shell sees it
RIGGED = ("import sys\n"
          "from cotype import cli\n"
          "cli.VERIFY_SUITES['qident'] = lambda args: [cli.CaseResult('rigged', False, '')]\n"
          "sys.exit(cli.main(sys.argv[1:]))\n")


@pytest.mark.process
@pytest.mark.parametrize("argv, code", [
    (("-m", "cotype", "zeta", "-d", "2", "print-local"), 0),
    (("-m", "cotype", "tally", "-d", "1"), 1),
    (("-m", "cotype", "verify", "descent", "--d", "10"), 2),
    (("-c", RIGGED, "verify", "qident"), 3),
])
def test_the_shell_sees_each_exit_code(argv, code):
    assert run_process(*argv, timeout=60).returncode == code


class TestZeta:
    def test_print_local(self):
        proc = run_cli("zeta", "-d", "2", "print-local")
        assert proc.stdout == "(1 + q*t1) / ((1-t1)(1-t2))\n"
        proc = run_cli("zeta", "-d", "1", "print-local")
        assert proc.stdout == "1 / (1-t1)\n"

    def test_coefficient(self):
        proc = run_cli("zeta", "-d", "2", "coeff", "-p", "3", "--nu", "1,0")
        doc = json.loads(proc.stdout)
        assert doc["coefficient"] == 4

    def test_bad_nu(self):
        assert run_cli("zeta", "-d", "2", "coeff", "-p", "3", "--nu", "0,1").returncode == 1
        assert run_cli("zeta", "-d", "2", "coeff", "-p", "3").returncode == 1


class TestSimulateCommand:
    def test_matrix_model_report(self):
        proc = run_cli("simulate", "matrix", "-d", "2", "-k", "500", "-p", "2",
                       "-n", "3000", "--seed", "7")
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["verdict"] is True
        assert doc["empirical"]["rank"]["trials"] == 3000
        assert 0 <= doc["tv_distance"] < 0.05
        labels = {row["label"] for row in doc["per_label"]}
        assert labels == {"rank 0", "rank 1", "rank 2"}
        for row in doc["per_label"]:
            assert set(row) == {"label", "count", "freq", "theory", "z"}

    def test_exhaustive_three_case(self):
        proc = run_cli("simulate", "matrix", "-d", "1", "-k", "1", "-p", "2",
                       "--exhaustive", "-n", "1")
        doc = json.loads(proc.stdout)
        assert doc["empirical"]["type"]["counts"]["type ()"] == 2
        assert doc["empirical"]["type"]["trials"] == 3

    def test_sublattice_model_report(self):
        proc = run_cli("simulate", "sublattice", "-d", "2", "-X", "200", "-p", "2",
                       "-n", "2000", "--seed", "7")
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["empirical"]["rank"]["trials"] == 2000

    def test_missing_model_argument(self):
        assert run_cli("simulate", "matrix", "-d", "2", "-p", "2").returncode == 1

    def test_exhaustive_config_records_the_matrices_visited(self):
        proc = run_cli("simulate", "matrix", "-d", "2", "-k", "1", "-p", "5", "-n", "0",
                       "--exhaustive", timeout=60)
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["config"]["trials"] == doc["empirical"]["rank"]["trials"] == 81
        assert doc["config"]["master_seed"] is None

    @pytest.mark.parametrize("args, digest", [
        ("simulate matrix -d 8 -k 1000 -p 2 -n 50 --seed 1",
         "ac17cb980589fb7b99024de4241e477b7dc995fb2b9989a6c5f298b2db5e57e1"),
        ("simulate matrix -d 6 -k 100 -p 2 -n 500 --seed 1",
         "7d40e7b27f28a23a63653d67a22d42c075831617894b8b7056e0ab3481512b2f"),
        ("simulate matrix -d 6 -k 100 -p 2 -n 5000 --seed 1",
         "2df1810369d6524106f083ee36130875aeca90552d73ae343a3de81de0e3059c"),
        ("simulate matrix -d 12 -k 3 -p 2 -n 2000 --seed 4",
         "33244c21c323530e52e1f740ca2ea777f607202ca2b313e49bd277fc033d7350"),
        ("simulate matrix -d 20 -k 10000 -p 2 -n 300 --seed 1",
         "d2a29988c717f2d0d2e8482d056d3f3cae5311f73e738382632dd3c27afe524f"),
        ("simulate matrix -d 2 -k 10000 -p 2 -n 3000 --seed 7",
         "622f28f577683a5174126e6963acbf37f602c86ea9ad9400e183f862abd4a33d"),
        ("simulate matrix -d 2 -k 5000000000 -p 2 -n 2000 --seed 3",
         "d7ae96dff02dd2f98f2699ee36bed6cbfc51c4e6bb473a2f983a37317e905d9d"),
        ("simulate matrix -d 3 -k 5000000000 -p 3 -n 500 --seed -4",
         "ebc21f9d9418d61cc891f87b29f628d5399a8a5ba950816df4c251a718c646d9"),
        ("simulate matrix -d 1 -k 3 -p 2 --exhaustive",
         "b918b4de16eda2ff2f84abc72d52a969f0455b30ed9350ab4d7681407eb69ca3"),
    ])
    def test_matrix_model_output_is_pinned(self, args, digest):
        # seeded draws and their Smith forms, byte for byte: dense d = 6, 8,
        # 12 and 20 matrices; d = 2 with k = 10^4 (one 32-bit word per draw)
        # and with k = 5 * 10^9 (several words), also at a negative seed; and
        # an exhaustive run
        proc = run_cli(*args.split(), timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert hashlib.sha256(proc.stdout.encode()).hexdigest() == digest


class TestManifestAndReproducibility:
    def test_seeded_runs_are_byte_identical(self):
        args = ("simulate", "sublattice", "-d", "2", "-X", "60", "-p", "2",
                "-n", "500", "--seed", "123")
        a, b = run_cli(*args), run_cli(*args)
        assert a.stdout == b.stdout
        assert a.returncode == b.returncode == 0

    @pytest.mark.parametrize("args, digest", [
        ("tally -d 3 -X 20 --format json",
         "a1488edc30cd82f89d3d3701726519eab374aa6f1c7e53958d4c4134a6db60ef"),
        ("tally -d 3 -X 20 --format csv",
         "1dfd2d86831b04673821520ff137174801b61953fefcec5cc685de43860cd4e7"),
        ("simulate matrix -d 2 -k 3 -p 2 -n 200 --seed 5",
         "8dbac0b457b88b3817c5820ba49274c8fa89db6b5476a4524e57ec4adf55936a"),
    ])
    def test_out_file_is_pinned(self, args, digest, tmp_path):
        # the --out file, byte for byte, and the stdout beside it is the one
        # of the same run without --out, less the tally's rows
        out = tmp_path / "out"
        proc = run_cli(*args.split(), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
        plain = json.loads(run_cli(*args.split()).stdout)
        plain.pop("rows", None)
        assert json.loads(proc.stdout) == plain

    @pytest.mark.parametrize("args", [
        "tally -d 2 -X 10",
        "simulate matrix -d 2 -k 3 -p 2 -n 10",
    ])
    def test_unwritable_out_exits_1(self, args, tmp_path):
        proc = run_cli(*args.split(), "--out", str(tmp_path / "missing" / "x"))
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1

    def test_unwritable_out_is_refused_before_the_work(self, tmp_path):
        # the tally alone takes over a second; the path is checked first
        started = time.perf_counter()
        proc = run_cli("tally", "-d", "3", "-X", "100000",
                       "--out", str(tmp_path / "missing" / "x.json"), timeout=60)
        assert time.perf_counter() - started < 1
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr == (f"error: cannot write --out {tmp_path}/missing/x.json: "
                               "No such file or directory\n")

    def test_out_that_is_a_directory_exits_1(self, tmp_path):
        proc = run_cli("tally", "-d", "2", "-X", "10", "--out", str(tmp_path))
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr == f"error: cannot write --out {tmp_path}: Is a directory\n"

    def test_a_run_over_a_cap_leaves_no_out_file(self, tmp_path):
        out = tmp_path / "x.json"
        proc = run_cli("tally", "-d", "3", "-X", "1000000", "--out", str(out))
        assert proc.returncode == 2, proc.stderr
        assert not out.exists()

    def test_manifest_checksum_matches_output(self):
        # X = 10000 prints 16,298 rows in 17 chunks of rows
        for X in (20, 10000):
            proc = run_cli("tally", "-d", "2", "-X", str(X))
            manifest = json.loads(proc.stderr.splitlines()[-1])
            assert manifest["subcommand"] == "tally"
            assert manifest["output_sha256"] == hashlib.sha256(
                proc.stdout.encode()
            ).hexdigest()
            assert manifest["version"]
            assert manifest["parameters"]["X"] == X

    def test_manifest_records_peak_rss(self):
        proc = run_cli("tally", "-d", "2", "-X", "20")
        manifest = json.loads(proc.stderr.splitlines()[-1])
        assert isinstance(manifest["peak_rss_kb"], int)
        assert manifest["peak_rss_kb"] > 0

    def test_manifest_peak_falls_back_to_ru_maxrss(self, monkeypatch):
        def no_proc(path, *args):
            raise FileNotFoundError(path)

        monkeypatch.setattr(errors, "open", no_proc, raising=False)
        proc = run_cli("tally", "-d", "1", "-X", "10")
        manifest = json.loads(proc.stderr.splitlines()[-1])
        assert manifest["peak_rss_source"] == "ru_maxrss" and manifest["peak_rss_kb"] > 0

    @pytest.mark.parametrize("args, counters", [
        # the lattice benchmark's sampler run: 18,487 of its 30,000 indices
        # have v_2(n) <= 1 and skip the Smith form
        ("simulate sublattice -d 3 -X 5000 -p 2 -n 30000 --seed 7",
         {"trials": 30000, "smith_forms": 11513}),
        ("simulate matrix -d 2 -k 10 -p 2 -n 500 --seed 7",
         {"trials": 500, "smith_forms": 500}),
        ("simulate matrix -d 2 -k 1 -p 3 --exhaustive", {"trials": 81, "smith_forms": 81}),
    ])
    def test_manifest_counts_the_trials_and_smith_forms(self, args, counters):
        proc = run_cli(*args.split(), timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stderr.splitlines()[-1])["counters"] == counters

    def test_manifest_reports_the_workers_peak_apart(self, monkeypatch):
        args = "simulate sublattice -d 3 -X 5000 -p 2 -n 30000 --seed 7".split()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        split = json.loads(run_cli(*args, timeout=60).stderr.splitlines()[-1])
        peak = split["worker_peak_rss_kb"]
        assert type(peak) is int and peak > 0
        assert split["counters"] == {"trials": 30000, "smith_forms": 11513}
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        serial = json.loads(run_cli(*args, timeout=60).stderr.splitlines()[-1])
        assert serial.get("worker_peak_rss_kb") is None
        assert serial["counters"] == split["counters"]
        tally = json.loads(run_cli("tally", "-d", "1", "-X", "10").stderr.splitlines()[-1])
        assert "worker_peak_rss_kb" not in tally and "counters" not in tally

    @pytest.mark.process
    def test_manifest_peak_is_the_run_not_its_spawner(self):
        # a parent holding 120 MB, against one holding nothing, starts the same
        # run. Through exec, ru_maxrss read 136,892 KB against 21,040 KB; VmHWM
        # read within 184 KB of each other in four pairs (2-vCPU Xeon)
        script = ("import subprocess, sys\n"
                  "hold = b'x' * int(sys.argv[1])\n"
                  "subprocess.run([sys.executable, '-m', 'cotype', 'tally', '-d', '1', '-X', '10'],"
                  " check=True)\n")
        small, large = (json.loads(run_process("-c", script, str(held), timeout=60)
                                   .stderr.splitlines()[-1])["peak_rss_kb"]
                        for held in (0, 120 << 20))
        assert abs(large - small) < 2048, (small, large)

    @pytest.mark.parametrize("args, caps", [
        ("density -d 4 -m 1 --cutoff 1000",
         {"cocyclic_dim": [4, CAPS["cocyclic_dim"]], "corank_dim": [4, CAPS["corank_dim"]],
          "prime_cutoff": [1000, CAPS["prime_cutoff"]]}),
        # index 2 of Z^3 has 3 diagonals, each with a one-row core
        ("tally -d 3 -X 3 --method enumerate",
         {"enum_work": [4, CAPS["enum_work"]], "hermite_table": [9, CAPS["hermite_table"]],
          "tally_rank": [3, CAPS["tally_rank"]], "tally_size": [9, CAPS["tally_size"]]}),
        ("zeta -d 2 print-local", {"local_factor_dim": [2, CAPS["local_factor_dim"]],
                                   "descent_table_dim": [2, CAPS["descent_table_dim"]]}),
        # 1,395 subspaces of dimension 3 in F_2^6, each tried with 63 vectors
        ("verify autorder --max-order 64",
         {"brute_joins": [87885, CAPS["brute_joins"]], "brute_order": [64, 64]}),
    ])
    def test_manifest_lists_the_caps_the_run_checked(self, args, caps):
        proc = run_cli(*args.split())
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stderr.splitlines()[-1])["caps"] == caps

    @pytest.mark.parametrize("args", [
        "density -d 4 -m 1 --cutoff 1000",
        "tally -d 3 -X 3 --method enumerate",
        "zeta -d 2 print-local",
        "verify autorder --max-order 64",
    ])
    @pytest.mark.process
    def test_a_warm_process_checks_the_same_caps(self, args):
        # a cap checked only on an lru_cache miss would be missing from a warm run;
        # the fresh run is its own interpreter, whatever this process has run
        fresh = json.loads(run_process("-m", "cotype", *args.split(), timeout=60)
                           .stderr.splitlines()[-1])["caps"]
        for _ in range(2):
            proc = run_cli(*args.split())
            assert proc.returncode == 0
            assert json.loads(proc.stderr.splitlines()[-1])["caps"] == fresh

    def test_manifest_records_seed(self):
        proc = run_cli("simulate", "matrix", "-d", "2", "-k", "10", "-p", "2",
                       "-n", "50", "--seed", "99")
        manifest = json.loads(proc.stderr.splitlines()[-1])
        assert manifest["seed"] == 99

    def test_benchmark_commands_give_their_reference_outputs(self):
        # every workload command, judged by the benchmark's own checks and tally
        # oracle; both modules are only read, as scripts
        bench = Path(cli.__file__).resolve().parents[2] / "perfbench"
        workloads = runpy.run_path(str(bench / "workloads.py"))["WORKLOADS"]
        checks = runpy.run_path(str(bench / "checks.py"))
        reference = checks["load_reference"]()
        problems = {}
        for cmd in [c for w in workloads.values() for c in w.commands]:
            proc = run_cli(*cmd.argv, timeout=60)
            found = checks["check_output"](cmd.argv, proc.returncode, proc.stdout.encode(),
                                           reference, checks["tally_oracle"](cmd.argv))
            if found:
                problems[cmd.key] = found
        assert not problems, problems
