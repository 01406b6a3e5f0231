"""The benchmark's workloads: fixed `cotype` command lines in two groups that
stress disjoint layers. `analytic` spends its time in the per-prime Euler step
of zeta, in qcomb polynomials and in groups; `lattice` in Hermite enumeration,
Smith form, the per-trial RNG and the sublattice sampler. Neither runs the
other's main kernels, so a change to one side shows on one workload and should
leave the other unchanged.

Each command has a metric name (median seconds of one run of that command).
The first SLOTS commands of each workload fill the generic end-to-end slots
`cmd1_s` to `cmd4_s` in the order listed, so that every workload reports the
same metric names. In `analytic` they are the four commands of a second or
more; the other three are mostly interpreter start-up, and their ten-seed
spread reaches the 0.25 bound, as that of `setup_s` does. In `lattice` they are
the enumeration (tally_d3), Smith form on dense d=8 matrices (matrix_d8), the
sampler (sublattice_d3) and the per-trial RNG (matrix_d2). Every command is
printed under its own name and counts towards `wall_s`.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Command:
    name: str  # metric name, e.g. "tally_d3_s"
    argv: tuple[str, ...]

    @property
    def key(self) -> str:
        """Reference key: the command line as typed after `cotype`."""
        return " ".join(self.argv)


def _cmd(name: str, line: str) -> Command:
    return Command(name, tuple(line.split()))


SLOTS = 4  # commands per workload that are end-to-end metrics


@dataclass(frozen=True)
class Workload:
    """A named command list; BENCHMARK.json records why each one exists."""

    name: str
    commands: tuple[Command, ...]  # commands[i] -> cmd{i+1}_s for the first SLOTS


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "analytic",
            (
                _cmd("density_d30_s", "density -d 30 -m 1"),
                _cmd("density_d8_s", "density -d 8 -m 4 --cutoff 100000"),
                _cmd("autorder_s", "verify autorder --max-order 64"),
                _cmd("print_local_d10_s", "zeta -d 10 print-local"),
                _cmd("descent_d8_s", "verify descent --d 8"),
                _cmd("oracle_d4_s", "verify oracle --d 4 --p 2 --emax 6"),
                _cmd("qident_s", "verify qident --n 12 --e 6"),
            ),
        ),
        Workload(
            "lattice",
            (
                _cmd("tally_d3_s", "tally -d 3 -X 200"),
                _cmd("matrix_d8_s", "simulate matrix -d 8 -k 1000 -p 2 -n 50 --seed 1"),
                _cmd("sublattice_d3_s",
                     "simulate sublattice -d 3 -X 5000 -p 2 -n 30000 --seed 7"),
                _cmd("matrix_d2_s", "simulate matrix -d 2 -k 10000 -p 2 -n 60000 --seed 7"),
                _cmd("matrix_d6_s", "simulate matrix -d 6 -k 100 -p 2 -n 5000 --seed 1"),
                _cmd("tally_d4_s", "tally -d 4 -X 60"),
                _cmd("tally_d2_s", "tally -d 2 -X 10000"),
            ),
        ),
    )
}

# Tiny inputs of the same shape, for the benchmark's own tests.
SMOKE_WORKLOADS = {
    "analytic": (
        _cmd("density_d30_s", "density -d 4 -m 1 --cutoff 1000"),
        _cmd("density_d8_s", "density -d 3 -m 2 --cutoff 1000"),
        _cmd("autorder_s", "verify autorder --max-order 8"),
        _cmd("print_local_d10_s", "zeta -d 3 print-local"),
        _cmd("descent_d8_s", "verify descent --d 4"),
        _cmd("oracle_d4_s", "verify oracle --d 2 --p 3 --emax 2"),
        _cmd("qident_s", "verify qident --n 4 --e 2"),
    ),
    "lattice": (
        _cmd("tally_d3_s", "tally -d 3 -X 20"),
        _cmd("matrix_d8_s", "simulate matrix -d 4 -k 100 -p 2 -n 10 --seed 1"),
        _cmd("sublattice_d3_s", "simulate sublattice -d 2 -X 50 -p 2 -n 100 --seed 7"),
        _cmd("matrix_d2_s", "simulate matrix -d 2 -k 100 -p 2 -n 200 --seed 7"),
        _cmd("matrix_d6_s", "simulate matrix -d 3 -k 10 -p 2 -n 50 --seed 1"),
        _cmd("tally_d4_s", "tally -d 4 -X 8"),
        _cmd("tally_d2_s", "tally -d 2 -X 100"),
    ),
}


def commands_of(workload: str, smoke: bool = False) -> tuple[Command, ...]:
    return SMOKE_WORKLOADS[workload] if smoke else WORKLOADS[workload].commands


# ---------------------------------------------------------------------------
# Input validation: a workload must never hold an input the program should
# reject (for example `-p 1`, which makes `simulate` loop forever).
# ---------------------------------------------------------------------------


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % f for f in range(2, int(n**0.5) + 1))


# flag -> (predicate, description) for every numeric flag a workload may use
_FLAG_RULES = {
    "-d": (lambda v: v >= 1, "d >= 1"),
    "--d": (lambda v: v >= 1, "d >= 1"),
    "-X": (lambda v: v >= 2, "X >= 2"),
    "-k": (lambda v: v >= 1, "k >= 1"),
    "-n": (lambda v: v >= 1, "n >= 1"),
    "--n": (lambda v: v >= 0, "n >= 0"),
    "-m": (lambda v: v >= 1, "m >= 1"),
    "-p": (_is_prime, "p prime"),
    "--p": (_is_prime, "p prime"),
    "--e": (lambda v: v >= 0, "e >= 0"),
    "--emax": (lambda v: v >= 0, "emax >= 0"),
    "--cutoff": (lambda v: v >= 2, "cutoff >= 2"),
    "--max-order": (lambda v: v >= 1, "max-order >= 1"),
    "--seed": (lambda v: v >= 0, "seed >= 0"),
}


def validate(cmd: Command) -> list[str]:
    """Problems with a command's inputs; empty when every input is valid."""
    problems = []
    argv = cmd.argv
    values = {}
    for flag, raw in zip(argv, argv[1:]):
        if flag in _FLAG_RULES:
            try:
                values[flag] = int(raw)
            except ValueError:
                problems.append(f"{flag} {raw!r} is not an integer")
    for flag, value in values.items():
        ok, what = _FLAG_RULES[flag]
        if not ok(value):
            problems.append(f"{flag} {value}: need {what}")
    if "-m" in values and "-d" in values and values["-m"] > values["-d"]:
        problems.append("need m <= d")
    if argv[0] == "simulate" and "-p" not in values:
        problems.append("simulate needs -p")
    return [f"{cmd.key}: {p}" for p in problems]
