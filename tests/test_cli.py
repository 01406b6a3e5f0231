"""End-to-end CLI tests: output contracts, exit codes, reproducibility."""

import hashlib
import json
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cotype import cli
from cotype.simulate import MAX_MATRIX_DIM, MAX_TRIAL_WORK
from cotype.zeta import (
    MAX_COEFFICIENT_BITS, MAX_CORANK_DIM, MAX_PRIME_CUTOFF, dirichlet_coefficients_upto)


def run_cli(*args, timeout=None):
    return subprocess.run(
        [sys.executable, "-m", "cotype.cli", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


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
        proc = run_cli("tally", "-d", "3", "-X", "100", "--method", "enumerate",
                       "--max-matrices", "10")
        assert proc.returncode == 2
        assert "resource limit" in proc.stderr

    def test_cap_above_the_default_exits_1_at_parse_time(self):
        proc = run_cli("tally", "-d", "3", "-X", "2000", "--method", "enumerate",
                       "--max-matrices", "10000000000", timeout=20)
        assert proc.returncode == 1, proc.stderr
        assert "--max-matrices" in proc.stderr

    def test_bad_arguments_exit_code(self):
        assert run_cli("tally", "-d", "1").returncode == 1
        assert run_cli("tally", "-d", "0", "-X", "5").returncode == 1
        assert run_cli("nonsense").returncode == 1

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
        # the cap counts the contracted cores, not every Hermite basis: at
        # (d, p, emax) = (6, 3, 4) and (8, 2, 4) n^(d-1) passes 10^8
        proc = run_cli("verify", "oracle", *extra, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["ok"]

    def test_failure_exits_3_with_counterexample(self, monkeypatch, capsys):
        def rigged(args):
            return [cli.CaseResult("rigged-case q=1", False, "forced failure")]

        monkeypatch.setitem(cli.VERIFY_SUITES, "qident", rigged)
        rc = cli.main(["verify", "qident"])
        captured = capsys.readouterr()
        assert rc == 3
        assert "COUNTEREXAMPLE rigged-case q=1: forced failure" in captured.err
        doc = json.loads(captured.out)
        assert not doc["ok"]
        assert doc["failures"][0]["case"] == "rigged-case q=1"


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

    @pytest.mark.parametrize("d, emax", [("3", "14"), ("60", "40")])
    def test_oracle_cap_exits_2_promptly(self, d, emax):
        proc = run_cli("verify", "oracle", "--d", d, "--p", "2", "--emax", emax, timeout=20)
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
        proc = run_cli("simulate", "matrix", "-d", str(MAX_MATRIX_DIM + 1), "-k", "1000",
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

    @pytest.mark.parametrize("args", [
        # C(2 + 62, 2) = 2016 and C(20 + 4, 20) = 10,626 types, past MAX_TYPE_LABELS
        ("simulate", "matrix", "-d", "2", "-k", "5", "-p", "2", "-n", "5", "--type-cap", "62"),
        ("simulate", "matrix", "-d", "20", "-k", "5", "-p", "2", "-n", "5", "--type-cap", "4"),
        ("simulate", "matrix", "-d", "2", "-k", "5", "-p", "2", "-n", "5",
         "--type-cap", "100000"),
        # refused before the first of the trials the work cap allows (about 11 s)
        ("simulate", "matrix", "-d", "2", "-k", "10000", "-p", "2",
         "-n", str(MAX_TRIAL_WORK // 27), "--type-cap", "62"),
        # the theories' denominators p^(c d^2 + d(d+1)/2) and p^(d^2) pass 14,000 bits
        ("simulate", "matrix", "-d", "20", "-k", "5", "-p", "2305843009213693951", "-n", "5"),
        ("simulate", "matrix", "-d", "16", "-k", "5", "-p", "2305843009213693951",
         "-n", str(MAX_TRIAL_WORK // 16**3), "--type-cap", "0"),
        ("density", "-d", str(MAX_CORANK_DIM + 1), "-m", "1"),
        ("density", "-d", "400", "-m", "1"),
        ("density", "-d", "2", "-m", "1", "--cutoff", str(MAX_PRIME_CUTOFF + 1)),
        # nu = (e, 0, 0) at p = 2 bounds the coefficient by 2^(3 + 2e)
        ("zeta", "-d", "3", "coeff", "-p", "2", "--nu", f"{MAX_COEFFICIENT_BITS // 2 - 1},0,0"),
        ("zeta", "-d", "3", "coeff", "-p", "2", "--nu", "1000000,0,0"),
        ("zeta", "-d", "1", "coeff", "-p", "2", "--nu", str(MAX_COEFFICIENT_BITS + 1)),
        ("verify", "qident", "--n", str(cli.MAX_QIDENT_SIZE + 1)),
        ("verify", "qident", "--e", str(cli.MAX_QIDENT_SIZE + 1)),
        ("verify", "qident", "--d", str(cli.MAX_QIDENT_DIM + 1)),
        ("verify", "zidentity", "--d", str(cli.MAX_ZIDENTITY_DIM + 1)),
    ])
    def test_size_cap_exits_2_within_a_second(self, args):
        start = time.perf_counter()
        proc = run_cli(*args, timeout=20)
        assert time.perf_counter() - start < 1
        assert proc.returncode == 2, proc.stderr
        assert "resource limit" in proc.stderr

    @pytest.mark.parametrize("args", [
        ("simulate", "matrix", "-d", "2", "-k", "5", "-p", "2", "-n", "5", "--type-cap", "61"),
        ("simulate", "matrix", "-d", "20", "-k", "5", "-p", "2", "-n", "5", "--type-cap", "3"),
        ("density", "-d", str(MAX_CORANK_DIM), "-m", "1"),
        ("density", "-d", "8", "-m", "4", "--cutoff", str(MAX_PRIME_CUTOFF)),
        ("verify", "qident", "--n", str(cli.MAX_QIDENT_SIZE), "--e", str(cli.MAX_QIDENT_SIZE),
         "--d", str(cli.MAX_QIDENT_DIM)),
        ("verify", "zidentity", "--d", str(cli.MAX_ZIDENTITY_DIM)),
    ])
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

    @pytest.mark.parametrize("d, nu", [(3, (MAX_COEFFICIENT_BITS // 2 - 2, 0, 0)),
                                       (1, (MAX_COEFFICIENT_BITS,))])
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
             ("--max-matrices", st.integers(-1, 50)), ("--format", st.just("csv"))),
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


def test_runs_without_mpmath():
    # mpmath is a test-only oracle: blocking its import must change no output
    script = "\n".join([
        "import sys",
        "sys.modules['mpmath'] = None",
        "from cotype import cli",
        "assert cli.main(['density', '-d', '30', '-m', '1']) == 0",
        "cli.main(['--version'])",
    ])
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    expected = run_cli("density", "-d", "30", "-m", "1", timeout=60).stdout
    assert proc.stdout == expected + run_cli("--version", timeout=60).stdout


def test_package_runs_as_a_module():
    proc = subprocess.run([sys.executable, "-m", "cotype", "--version"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == run_cli("--version", timeout=60).stdout


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

    def test_manifest_checksum_matches_output(self):
        proc = run_cli("tally", "-d", "2", "-X", "20")
        manifest = json.loads(proc.stderr.splitlines()[-1])
        assert manifest["subcommand"] == "tally"
        assert manifest["output_sha256"] == hashlib.sha256(
            proc.stdout.encode()
        ).hexdigest()
        assert manifest["version"]
        assert manifest["parameters"]["X"] == 20

    def test_manifest_records_peak_rss(self):
        proc = run_cli("tally", "-d", "2", "-X", "20")
        manifest = json.loads(proc.stderr.splitlines()[-1])
        assert isinstance(manifest["peak_rss_kb"], int)
        assert manifest["peak_rss_kb"] > 0

    def test_manifest_records_seed(self):
        proc = run_cli("simulate", "matrix", "-d", "2", "-k", "10", "-p", "2",
                       "-n", "50", "--seed", "99")
        manifest = json.loads(proc.stderr.splitlines()[-1])
        assert manifest["seed"] == 99
