"""The cotype benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

W is one of analytic, lattice (see workloads.py), or `all`.
One client issues the workload's `cotype` commands one at a time as
subprocesses (a closed loop, no parallelism) and checks every output against
reference.json and an independent oracle. The first pass runs each command once,
in an order the seed shuffles. Its times plan the rest of the run (see plan):
every command gets MIN_SAMPLES samples, even past S seconds, and the commands
in the end-to-end slots get more, the cheap ones most, as many as fit in S
seconds. The planned samples of each command are spread evenly over the rest of
the run, so that each command's median averages over the same fast and slow
spells of the machine.

--trace 0 reports the end-to-end metrics (tracing off):
  wall_s       one pass with each command once: the sum of the command medians
  setup_s      median time of `cotype --version` (interpreter start and import),
               sampled at the start and before every command
  peak_rss_mb  the largest child max-RSS, from wait4
  cmd1_s ...   median time of the workload's first, second, third and fourth
  cmd4_s       command (see workloads.py)
Every command's own time is printed by name, with its sample count; fail_frac is
`failed` / `attempted`.

--trace 1 runs the workload once in-process with tracing on, in a fresh child
process, writes the spans to perfbench/out/, and reports every per-layer metric
of layers.py, cli.self_s and cli.tracing_overhead_s (see inproc.py). Its length
is fixed by that work; S does not apply.

The last line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import signal
import statistics
import sys
import time

import checks
import harness
from layers import LAYER_METRICS
from workloads import SLOTS, WORKLOADS, commands_of, validate

SETUP_RUNS = 3
MIN_SAMPLES = 2  # samples of every command in a run, whatever S says
# A run must end within 180 s; every child's timeout is cut to fit this budget.
RUN_BUDGET_S = 170.0
COMMAND_TIMEOUT_S = 120.0


class Bench:
    """Counts and problems of one benchmark invocation."""

    def __init__(self, seconds: float):
        self.deadline = time.perf_counter() + RUN_BUDGET_S
        self.seconds = seconds
        self.reference = checks.load_reference()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def timeout(self) -> float:
        return max(1.0, min(COMMAND_TIMEOUT_S, self.deadline - time.perf_counter()))

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{label}: {p}" for p in problems]

    def execute(self, args) -> harness.Run:
        return harness.run_process(harness.cotype_argv(args), self.timeout())


def _command_problems(run: harness.Run, cmd, bench: Bench, oracles, known) -> list[str]:
    if run.timed_out:
        return [f"timed out after {run.wall_s:.1f} s"]
    return known.get(cmd.key, []) + checks.check_output(
        cmd.argv, run.returncode, run.stdout, bench.reference, oracles.get(cmd.key))


def plan(costs: dict[str, float], budget: float) -> dict[str, int]:
    """Samples per command after the first pass: at least MIN_SAMPLES - 1, and
    beyond that each command gets samples until its sampling time reaches a level
    shared by all, the highest level whose total time fits in budget seconds."""
    def counts(level: float) -> dict[str, int]:
        return {k: max(MIN_SAMPLES - 1, int(level / c)) for k, c in costs.items()}

    lo, hi = 0.0, max(budget, 0.0)
    for _ in range(40):
        mid = (lo + hi) / 2
        if sum(n * costs[k] for k, n in counts(mid).items()) <= budget:
            lo = mid
        else:
            hi = mid
    return counts(lo)


def end_to_end(bench: Bench, workload: str, seed: int, smoke: bool) -> dict:
    commands = commands_of(workload, smoke)
    sys.path.insert(0, harness.SRC)
    oracles, known = checks.tally_oracles(commands)
    bench.execute(["--version"])  # compiles bytecode; not timed

    def setup_sample():
        run = bench.execute(["--version"])
        ok = run.returncode == 0 and run.stdout.strip()
        bench.record("cotype --version", [] if ok else [f"exit {run.returncode}"])
        setup.append(run.wall_s)

    # A few set-up samples first, then one before every command, so that the
    # median spans the whole run rather than one moment of a noisy machine.
    setup = []
    for _ in range(SETUP_RUNS):
        setup_sample()
    order = random.Random(seed).sample(commands, len(commands))
    rank = {cmd.key: i for i, cmd in enumerate(order)}
    samples = {cmd.key: [] for cmd in commands}
    peak_kb = 0
    started = time.perf_counter()

    def expected(cmd) -> float:
        return statistics.median(samples[cmd.key]) if samples[cmd.key] else 0.0

    def may_start(cmd) -> bool:
        now, n = time.perf_counter(), len(samples[cmd.key])
        if now + 2 * expected(cmd) > bench.deadline:
            return False
        return n < MIN_SAMPLES or now + expected(cmd) <= started + bench.seconds

    def sample(cmd) -> None:
        nonlocal peak_kb
        setup_sample()
        run = bench.execute(cmd.argv)
        bench.record(cmd.key, _command_problems(run, cmd, bench, oracles, known))
        samples[cmd.key].append(run.wall_s)
        peak_kb = max(peak_kb, run.maxrss_kb)

    for cmd in order:
        sample(cmd)
    # Plan the rest of the run, and plan again when a plan ends early; the run
    # ends when no planned sample may start. Each sample also costs a set-up
    # sample. Commands outside the end-to-end slots get MIN_SAMPLES, and the
    # spare time goes to those in them.
    while True:
        before = {c.key: len(samples[c.key]) for c in commands}
        costs = {c.key: expected(c) + statistics.median(setup) for c in commands}
        planned = {c.key: MIN_SAMPLES - 1 for c in commands[SLOTS:]}
        budget = started + bench.seconds - time.perf_counter()
        budget -= sum(costs[k] * n for k, n in planned.items())
        planned.update(plan({c.key: costs[c.key] for c in commands[:SLOTS]}, budget))

        def taken(c) -> int:
            return len(samples[c.key]) - before[c.key]

        # Next is the command whose next planned sample is due earliest, as a
        # share of its planned samples.
        while ready := [c for c in commands if taken(c) < planned[c.key] and may_start(c)]:
            sample(min(ready, key=lambda c: ((taken(c) + 0.5) / planned[c.key],
                                             -expected(c), rank[c.key])))
        if not any(map(taken, commands)):
            break
    per_command = {cmd.name: (statistics.median(samples[cmd.key]), "s", len(samples[cmd.key]))
                   for cmd in commands}
    metrics = {
        # one pass with each command once: the sum of the per-command medians
        "wall_s": (sum(v for v, _, _ in per_command.values()), "s",
                   min(map(len, samples.values()))),
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "peak_rss_mb": (peak_kb / 1024, "MB", sum(map(len, samples.values()))),
    }
    for i, cmd in enumerate(commands[:SLOTS]):
        metrics[f"cmd{i + 1}_s"] = per_command[cmd.name]
    return {"metrics": metrics, "per_command": per_command, "samples": samples,
            "setup": setup}


def _child(bench: Bench, script: str, args: list[str], out_path: str, label: str):
    """Run a benchmark child script; its JSON result, or None on failure."""
    argv = [sys.executable, os.path.join(harness.BENCH_DIR, script), *args, "--out", out_path]
    run = harness.run_process(argv, bench.timeout(), tag="child")
    if run.timed_out or run.returncode != 0:
        why = "timed out" if run.timed_out else f"exit {run.returncode}"
        tail = run.stderr.decode(errors="replace").strip().splitlines()[-3:]
        bench.record(label, [why + (": " + " | ".join(tail) if tail else "")])
        return None
    with open(out_path, encoding="utf-8") as fh:
        doc = json.load(fh)
    os.unlink(out_path)
    return doc


def traced(bench: Bench, workload: str, seed: int, smoke: bool, env: dict) -> dict:
    commands = commands_of(workload, smoke)
    order = random.Random(seed).sample(range(len(commands)), len(commands))
    args = ["--workload", workload, "--order", ",".join(map(str, order))]
    smoke_arg = ["--smoke"] if smoke else []
    out = os.path.join(harness.OUT_DIR, f".{os.getpid()}")
    trace = _child(bench, "inproc.py", args + smoke_arg, f"{out}-traced.json", "traced pass")
    if trace is not None:
        for t in trace["timings"]:
            bench.record(f"traced {t['command']}", trace["problems"].get(t["command"], []))
    kernels = _child(bench, "layers.py", ["--seed", str(seed)] + smoke_arg,
                     f"{out}-layers.json", "layer kernels")
    units = {m.name: m.unit for m in LAYER_METRICS}
    metrics, absent = {}, {}
    if kernels is not None:
        bench.record("layer kernels", kernels["problems"])
        metrics = {k: (v, units[k], None) for k, v in kernels["values"].items()}
        absent = kernels["absent"]
    if trace is not None:
        metrics["cli.self_s"] = (trace["cli_self_s"], "s", len(trace["timings"]))
        metrics["cli.tracing_overhead_s"] = (trace["tracing_overhead_s"], "s", None)
        span_path = os.path.join(harness.OUT_DIR, f"spans-{workload}-seed{seed}.json")
        harness.write_json(span_path, {"env": env, "workload": workload, "seed": seed,
                                       **{k: trace[k] for k in ("wrapped", "counts",
                                                                "self_times", "spans")}})
        print(f"spans written to {os.path.relpath(span_path, harness.ROOT)} "
              f"({len(trace['spans'])} spans)")
        for name, row in sorted(trace["self_times"].items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"  self {row['self_s']:10.4f} s  total {row['total_s']:10.4f} s  "
                  f"calls {row['calls']:6d}  {name}")
    for m in LAYER_METRICS:
        if m.name not in metrics and m.name not in absent:
            absent[m.name] = "not measured (its run failed)"
    return {"metrics": metrics, "absent": absent,
            "traced_pass": trace and {k: trace[k] for k in ("wall_s", "timings",
                                                              "per_span_s")}}


def _fmt(name: str, value: float, unit: str, n: int | None) -> str:
    """One metric line; n is the sample count behind a median, when there is one."""
    return f"  {name:40s} {value:14.6g} {unit:6s}" + ("" if n is None else f" (n={n})")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, for the tests")
    args = ap.parse_args(argv)
    # Turn SIGTERM into SystemExit, so that a running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not harness.program_present():
        sys.stderr.write(f"cotype sources not found under {harness.SRC}\n")
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    invalid = [p for w in names for c in commands_of(w, args.smoke) for p in validate(c)]
    if invalid:
        sys.stderr.write("invalid workload inputs:\n  " + "\n  ".join(invalid) + "\n")
        return 2
    bench = Bench(args.seconds)
    env = harness.environment()
    print("env " + json.dumps(env, sort_keys=True))

    results, metrics = {}, {}
    for w in names:
        print(f"workload {w} ({'traced' if args.trace else 'end to end'}, seed {args.seed})")
        before = (bench.attempted, bench.failed)
        if args.trace:
            res = traced(bench, w, args.seed, args.smoke, env)
            shown = dict(res["metrics"])
        else:
            res = end_to_end(bench, w, args.seed, args.smoke)
            shown = {**res["metrics"], **res["per_command"]}
        attempted, failed = bench.attempted - before[0], bench.failed - before[1]
        shown["fail_frac"] = (failed / max(attempted, 1), "1", attempted)
        for name, (value, unit, n) in shown.items():
            print(_fmt(name, value, unit, n))
        for name, why in sorted(res.get("absent", {}).items()):
            print(f"  {name:40s} absent: {why}")
        results[w] = res
        prefix = f"{w}." if args.workload == "all" else ""
        for name, (value, unit, _) in res["metrics"].items():
            metrics[prefix + name] = {"value": value, "unit": unit}
        if args.workload == "all":
            metrics[f"{w}.fail_frac"] = {"value": shown["fail_frac"][0], "unit": "1"}
            for name, (value, unit, _) in res.get("per_command", {}).items():
                metrics[name] = {"value": value, "unit": unit}
    for p in bench.problems:
        print(f"FAIL {p}")
    harness.write_json(
        os.path.join(harness.OUT_DIR, f"result-{args.workload}-seed{args.seed}"
                                      f"-trace{args.trace}.json"),
        {"env": env, "args": vars(args), "results": results, "problems": bench.problems,
         "attempted": bench.attempted, "failed": bench.failed})
    print(json.dumps({"correct": bench.failed == 0, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
