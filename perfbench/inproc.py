"""One traced in-process pass over a workload's commands through `cotype.cli.main`.

Run as a fresh child process, so caches start empty as they do for the CLI:

    python3 perfbench/inproc.py --workload W --order 0,2,1 --out FILE [--smoke]

Every public layer function that the CLI handlers call (each function in
`cotype.cli`'s namespace defined in another cotype module) is wrapped to record
a span (id, name, start, end, parent, workload, command) and a call count;
`cli.main` gets a span of its own. Spans stay in memory and are written with the
result when the pass ends. Generator functions are counted but not timed, since
their work interleaves with the caller's.

The tracing overhead is the span count times the cost of one span, measured on
a no-op function after the pass. The difference of a traced and an untraced pass
would be the same quantity, but two passes of many seconds differ by far more
than their spans cost.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import inspect
import io
import statistics
import sys
import time
from collections import Counter

import checks
import harness
from workloads import commands_of

clock = time.perf_counter


class Tracer:
    def __init__(self, workload: str):
        self.workload = workload
        self.command = None
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._next_id = 0

    @contextlib.contextmanager
    def span(self, name: str):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        self.counts[name] += 1
        start = clock()
        try:
            yield
        finally:
            end = clock()
            self._stack.pop()
            self.spans.append({"id": sid, "name": name, "start": start, "end": end,
                               "parent": parent, "workload": self.workload,
                               "command": self.command})

    def wrap(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                self.counts[name] += 1
                return fn(*args, **kwargs)
            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def instrument(self, cli) -> list[str]:
        """Wrap the layer functions in cli's namespace; returns their names."""
        wrapped = []
        for attr, obj in list(vars(cli).items()):
            module = getattr(obj, "__module__", "") or ""
            if (inspect.isfunction(obj) and not attr.startswith("_")
                    and module.startswith("cotype.") and module != cli.__name__):
                name = f"{module.split('.', 1)[1]}.{attr}"
                setattr(cli, attr, self.wrap(name, obj))
                wrapped.append(name)
        return sorted(wrapped)

    def self_times(self) -> dict[str, dict]:
        """Per span name: calls, total time and self time (total minus the part
        covered by child spans), in seconds."""
        child_time = Counter()
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        out: dict[str, dict] = {}
        for s in self.spans:
            row = out.setdefault(s["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            dur = s["end"] - s["start"]
            row["calls"] += 1
            row["total_s"] += dur
            row["self_s"] += dur - child_time[s["id"]]
        return out


def per_span_s(calls: int = 10000, rounds: int = 5) -> float:
    """Seconds one traced call costs beyond the bare call (wrapper, span record
    and clock reads): the median over rounds of `calls` calls of a no-op."""
    probe = Tracer("calibration")

    def noop():
        return None

    wrapped = probe.wrap("noop", noop)

    def loop(fn) -> float:
        t = clock()
        for _ in range(calls):
            fn()
        return clock() - t

    costs = []
    for _ in range(rounds):
        costs.append((loop(wrapped) - loop(noop)) / calls)
        probe.spans.clear()
    return statistics.median(costs)


def _call(main, argv) -> int:
    """main(argv) as an exit code, as the CLI's process would end."""
    try:
        return main(list(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1


def run_pass(workload: str, order: list[int], smoke: bool) -> dict:
    sys.path.insert(0, harness.SRC)
    cli = importlib.import_module("cotype.cli")
    commands = commands_of(workload, smoke)
    reference = checks.load_reference()
    oracles, problems = checks.tally_oracles(commands)
    tracer = Tracer(workload)
    wrapped = tracer.instrument(cli)
    timings = []
    for i in order:
        cmd = commands[i]
        tracer.command = cmd.key
        out, err = io.StringIO(), io.StringIO()
        t = clock()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with tracer.span("cli.main"):
                code = _call(cli.main, cmd.argv)
        wall = clock() - t
        timings.append({"command": cmd.key, "name": cmd.name, "wall_s": wall})
        found = checks.check_output(cmd.argv, code, out.getvalue().encode(), reference,
                                    oracles.get(cmd.key))
        if found:
            problems.setdefault(cmd.key, []).extend(found)
    layers = tracer.self_times()
    span_cost = per_span_s()
    return {
        "workload": workload,
        "timings": timings,
        "wall_s": sum(t["wall_s"] for t in timings),
        "problems": problems,
        "wrapped": wrapped,
        "counts": dict(sorted(tracer.counts.items())),
        "self_times": layers,
        "cli_self_s": layers.get("cli.main", {}).get("self_s", 0.0),
        "per_span_s": span_cost,
        "tracing_overhead_s": span_cost * len(tracer.spans),
        "spans": tracer.spans,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--order", required=True, help="comma-separated command indices")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    order = [int(i) for i in args.order.split(",")]
    result = run_pass(args.workload, order, args.smoke)
    harness.write_json(args.out, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
