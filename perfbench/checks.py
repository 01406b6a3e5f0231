"""Output checks for benchmark commands.

Each command's stdout is compared with a reference document captured once from
the program (see capture_reference.py):

- exact fields compare exactly: tally rows (by digest), corank sums, local
  densities, verify verdicts and case counts;
- `simulate` and `zeta print-local` stdout must be byte-identical, since each is
  a pure function of its arguments;
- an Euler-product `value` passes when its interval [value - tail_bound,
  value + tail_bound] meets the reference's, so a tighter derived bound or a
  value closer to the infinite product is not a failure;
- a tally's total `N` must also equal the sum of the Dirichlet coefficients of
  zeta(s) zeta(s-1) ... zeta(s-d+1) below X, an independent oracle.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

EULER_FIELDS = ("corank_density", "corank_zeta_residue", "cocyclic_constant")


def kind_of(argv) -> str:
    if argv[0] in ("simulate", "zeta"):
        return "bytes"
    return argv[0]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _rows_digest(rows) -> str:
    return _sha256(json.dumps(rows, sort_keys=True).encode())


def reference_entry(argv, stdout: bytes) -> dict:
    """The reference document kept for one command's stdout."""
    kind = kind_of(argv)
    if kind == "bytes":
        return {"kind": kind, "stdout_sha256": _sha256(stdout)}
    doc = json.loads(stdout)
    if kind == "tally":
        rows = doc.pop("rows")
        return {"kind": kind, "doc": doc, "rows_sha256": _rows_digest(rows)}
    if kind == "density":
        euler = {f: doc.pop(f) for f in EULER_FIELDS if f in doc}
        return {"kind": kind, "doc": doc, "euler": euler}
    if kind == "verify":
        return {"kind": kind, "doc": doc}
    raise ValueError(f"no reference rule for {argv[0]!r}")


def load_reference(path: str = REFERENCE_PATH) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _check_euler(name: str, got, ref: dict) -> list[str]:
    if not isinstance(got, dict) or set(got) != set(ref):
        return [f"{name}: keys {sorted(got) if isinstance(got, dict) else got} "
                f"!= {sorted(ref)}"]
    if got["prime_cutoff"] != ref["prime_cutoff"]:
        return [f"{name}: prime_cutoff {got['prime_cutoff']} != {ref['prime_cutoff']}"]
    tb = got["tail_bound"]
    if not (isinstance(tb, (int, float)) and math.isfinite(tb) and tb >= 0):
        return [f"{name}: tail_bound {tb!r} is not a finite bound"]
    gap = abs(got["value"] - ref["value"])
    if not gap <= tb + ref["tail_bound"]:
        return [f"{name}: value {got['value']!r} is {gap:.3g} from the reference "
                f"{ref['value']!r}, beyond the bounds {tb:.3g} + {ref['tail_bound']:.3g}"]
    return []


def check_output(argv, returncode: int, stdout: bytes, reference: dict,
                 oracle_n: int | None = None) -> list[str]:
    """Problems with one command's result; an empty list means it passed."""
    key = " ".join(argv)
    if returncode != 0:
        return [f"exit code {returncode}"]
    ref = reference.get(key)
    if ref is None:
        return [f"no reference for {key!r}"]
    if ref["kind"] == "bytes":
        digest = _sha256(stdout)
        return [] if digest == ref["stdout_sha256"] else [
            f"stdout sha256 {digest[:12]} != reference {ref['stdout_sha256'][:12]}"]
    try:
        doc = json.loads(stdout)
    except ValueError as exc:
        return [f"stdout is not JSON: {exc}"]
    problems = []
    if ref["kind"] == "tally":
        rows = doc.pop("rows", None)
        if rows is None or _rows_digest(rows) != ref["rows_sha256"]:
            problems.append("tally rows differ from the reference")
        if oracle_n is not None and doc.get("N") != oracle_n:
            problems.append(f"N={doc.get('N')} but the Dirichlet coefficients sum to "
                            f"{oracle_n}")
    elif ref["kind"] == "density":
        for field, ref_value in ref["euler"].items():
            problems += _check_euler(field, doc.pop(field, None), ref_value)
        extra = set(EULER_FIELDS) & set(doc)
        if extra:
            problems.append(f"unexpected Euler fields {sorted(extra)}")
    for field in sorted(set(doc) | set(ref["doc"])):
        if doc.get(field) != ref["doc"].get(field):
            problems.append(f"{field}: {str(doc.get(field))[:80]} != reference "
                            f"{str(ref['doc'].get(field))[:80]}")
    return problems


def tally_oracles(commands) -> tuple[dict, dict]:
    """(oracle N by command key, problems by command key). A public name the
    oracle needs being gone is a check failure of those commands, not a crash."""
    oracles, problems = {}, {}
    for cmd in commands:
        try:
            oracles[cmd.key] = tally_oracle(cmd.argv)
        except (ImportError, AttributeError) as exc:
            problems[cmd.key] = [f"tally oracle unavailable: {exc}"]
    return oracles, problems


def tally_oracle(argv) -> int | None:
    """Number of sublattices of index < X in Z^d, from `zeta` alone; None when
    the command is not a tally. Imports the program, so call it outside timing."""
    if argv[0] != "tally":
        return None
    from cotype.zeta import dirichlet_coefficients_upto

    d = int(argv[argv.index("-d") + 1])
    X = int(argv[argv.index("-X") + 1])
    return sum(dirichlet_coefficients_upto(d, X))
