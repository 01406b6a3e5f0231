"""Tests of the benchmark itself, on tiny inputs.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import checks  # noqa: E402
import harness  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from workloads import SLOTS, SMOKE_WORKLOADS, WORKLOADS, Command, validate  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


@pytest.fixture
def work(request):
    """A scratch directory inside the checkout's ignored output directory."""
    path = os.path.join(harness.OUT_DIR, "tests", request.node.name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _bench(*args, root=ROOT) -> tuple[int, dict | None, str]:
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"), "--smoke", "--seed", "3",
         "--seconds", "1", *args],
        capture_output=True, text=True, cwd=root, timeout=170)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 else None
    return proc.returncode, result, proc.stdout


def test_spec_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert set(SMOKE_WORKLOADS) == set(WORKLOADS)
    assert all(len(w.commands) >= SLOTS for w in WORKLOADS.values())
    assert all(len(cs) >= SLOTS for cs in SMOKE_WORKLOADS.values())
    assert {(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]} == {
        (m.name, m.unit, m.better) for m in layers.LAYER_METRICS}
    kernel_metrics = [n for _, names in layers.KERNELS for n in names]
    assert len(kernel_metrics) == len(set(kernel_metrics))
    assert set(kernel_metrics) | {"cli.self_s", "cli.tracing_overhead_s"} == {
        m.name for m in layers.LAYER_METRICS}


def test_smoke_end_to_end_reports_every_metric():
    code, result, _ = _bench("--workload", "lattice", "--trace", "0")
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_smoke_all_workloads_pass_their_checks():
    code, result, out = _bench("--workload", "all", "--trace", "0")
    assert code == 0 and result["correct"], out
    for w in WORKLOADS:
        assert result["metrics"][f"{w}.fail_frac"]["value"] == 0
        assert result["metrics"][f"{w}.wall_s"]["value"] > 0


def test_smoke_traced_run_reports_every_layer_metric():
    code, result, out = _bench("--workload", "lattice", "--trace", "1")
    assert code == 0 and result["correct"], out
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    with open(os.path.join(harness.OUT_DIR, "spans-lattice-seed3.json")) as fh:
        spans = json.load(fh)
    assert spans["env"]["python"]
    names = {s["name"] for s in spans["spans"]}
    assert {"cli.main", "simulate.run_matrix_model"} <= names
    assert all(s["parent"] is not None for s in spans["spans"] if s["name"] != "cli.main")


def _checkout_copy(work) -> str:
    """A checkout in `work` holding a copy of the benchmark and no program."""
    shutil.copytree(BENCH_DIR, os.path.join(work, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    return work


def test_corrupted_reference_raises_fail_frac(work):
    root = _checkout_copy(work)
    os.symlink(harness.SRC, os.path.join(root, "src"))
    with open(checks.REFERENCE_PATH) as fh:
        reference = json.load(fh)
    tally = " ".join(SMOKE_WORKLOADS["lattice"][0].argv)
    reference[tally]["doc"]["N"] += 1
    with open(os.path.join(root, "perfbench", "reference.json"), "w") as fh:
        json.dump(reference, fh)
    code, result, out = _bench("--workload", "lattice", "--trace", "0", root=root)
    assert code == 0
    assert not result["correct"] and result["failed"] > 0
    assert f"FAIL {tally}: N:" in out
    code, result, out = _bench("--workload", "lattice", "--trace", "1", root=root)
    assert code == 0 and result["failed"] > 0
    assert f"FAIL traced {tally}: N:" in out


def _density_ref():
    key = " ".join(SMOKE_WORKLOADS["analytic"][0].argv)
    return key, checks.load_reference()[key]


def _density_stdout(ref, **euler) -> bytes:
    doc = dict(ref["doc"])
    for field, value in ref["euler"].items():
        doc[field] = {**value, **euler.get(field, {})}
    return json.dumps(doc).encode()


def test_euler_value_within_the_tail_bounds_passes():
    key, ref = _density_ref()
    value = ref["euler"]["corank_zeta_residue"]
    reference = {key: ref}
    argv = key.split()
    # A tighter bound around a value closer to the limit is no failure ...
    moved = {"value": value["value"] + 0.5 * value["tail_bound"], "tail_bound": 0.0}
    assert checks.check_output(argv, 0, _density_stdout(ref, corank_zeta_residue=moved),
                               reference) == []
    # ... but an interval that misses the reference's is.
    far = {"value": value["value"] + 3 * value["tail_bound"],
           "tail_bound": value["tail_bound"]}
    assert checks.check_output(argv, 0, _density_stdout(ref, corank_zeta_residue=far),
                               reference)


def test_tally_oracle_is_checked():
    cmd = SMOKE_WORKLOADS["lattice"][0]
    out = subprocess.run(harness.cotype_argv(cmd.argv), capture_output=True,
                         env=harness.child_env(), cwd=ROOT, timeout=60).stdout
    reference = checks.load_reference()
    sys.path.insert(0, harness.SRC)
    n = checks.tally_oracle(cmd.argv)
    assert checks.check_output(cmd.argv, 0, out, reference, n) == []
    assert checks.check_output(cmd.argv, 0, out, reference, n + 1)


def test_missing_public_name_is_an_absent_metric():
    def k_gone(ctx):
        layers.public("cotype.zeta", "no_such_function")

    sys.path.insert(0, harness.SRC)
    kernels = ((k_gone, ("zeta.gone_s",)), layers.KERNELS[0])
    result = layers.run_kernels(seed=1, smoke=True, kernels=kernels)
    assert result["absent"] == {"zeta.gone_s": "missing public name cotype.zeta.no_such_function"}
    assert set(result["values"]) == set(layers.KERNELS[0][1])
    assert result["problems"] == []
    with pytest.raises(ValueError):
        layers.public("cotype.lattices", "_smith_diagonal")


def test_a_hanging_command_is_a_timed_out_failure(monkeypatch):
    # p=1 makes the matrix model loop forever; validation keeps it out of every
    # workload, and the timeout turns it into a recorded failure.
    cmd = Command("hang_s", tuple("simulate matrix -d 2 -k 5 -p 1 -n 10".split()))
    assert validate(cmd)
    monkeypatch.setattr(run, "COMMAND_TIMEOUT_S", 2.0)
    bench = run.Bench(seconds=1)
    r = bench.execute(cmd.argv)
    assert r.timed_out and r.returncode is None and r.wall_s < 30
    bench.record(cmd.key, run._command_problems(r, cmd, bench, {}, {}))
    assert bench.failed == 1 and "timed out" in bench.problems[0]


def test_plan_fits_the_budget_and_favours_cheap_commands():
    costs = {"slow": 13.0, "mid": 2.0, "cheap": 0.5}
    planned = run.plan(costs, budget=40.0)
    assert all(n >= run.MIN_SAMPLES - 1 for n in planned.values())
    assert sum(n * costs[k] for k, n in planned.items()) <= 40.0
    assert planned["slow"] == run.MIN_SAMPLES - 1 < planned["mid"] < planned["cheap"]
    # Past its budget, a run still takes the minimum of every command.
    assert run.plan(costs, budget=-1.0) == {k: run.MIN_SAMPLES - 1 for k in costs}


def test_workload_inputs_are_valid():
    for commands in [w.commands for w in WORKLOADS.values()] + list(SMOKE_WORKLOADS.values()):
        for cmd in commands:
            assert validate(cmd) == []
    for bad in ("zeta -d 2 coeff -p 4 --nu 1,0", "verify oracle --p 4", "density -d 2 -m 3",
                "tally -d 0 -X 10", "simulate sublattice -d 2 -X 10 -n 5"):
        assert validate(Command("bad_s", tuple(bad.split())))


def test_missing_program_exits_nonzero(work):
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "lattice",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, cwd=_checkout_copy(work), timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
