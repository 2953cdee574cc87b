"""Output checks: byte identity with the reference, else numeric agreement
within a stated tolerance.

Numbers compare within ABS_TOL + REL_TOL * |reference|.  For scale, a
one-ulp change to an input table moves the 20-sweep |S_0| = 256 encoders by
at most about 4e-15, so a float reassociation stays many orders of magnitude
inside the tolerance while a changed update rule does not.  Strings, ids,
integers, booleans and structure must match exactly.
"""

from __future__ import annotations

import hashlib
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np

ABS_TOL = 1e-9
REL_TOL = 1e-9


class Mismatch(Exception):
    """An output differs from the reference beyond tolerance."""


def _close(actual: float, expected: float) -> bool:
    if math.isinf(expected) or math.isnan(expected):
        return actual == expected or (math.isnan(actual) and math.isnan(expected))
    return abs(actual - expected) <= ABS_TOL + REL_TOL * abs(expected)


def compare(actual, expected, where: str = "$") -> None:
    """Raise Mismatch at the first difference beyond tolerance."""
    if isinstance(expected, bool) or expected is None or isinstance(expected, str):
        if actual != expected or type(actual) is not type(expected):
            raise Mismatch(f"{where}: {actual!r} != {expected!r}")
    elif isinstance(expected, int) and not isinstance(actual, float):
        if isinstance(actual, bool) or actual != expected:
            raise Mismatch(f"{where}: {actual!r} != {expected!r}")
    elif isinstance(expected, (int, float)):
        if isinstance(actual, bool) or not isinstance(actual, (int, float)):
            raise Mismatch(f"{where}: {actual!r} is not a number")
        if not _close(float(actual), float(expected)):
            raise Mismatch(f"{where}: {actual!r} vs {expected!r} beyond tolerance")
    elif isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            raise Mismatch(f"{where}: list shape differs")
        for i, (a, e) in enumerate(zip(actual, expected)):
            compare(a, e, f"{where}[{i}]")
    elif isinstance(expected, dict):
        if not isinstance(actual, dict) or actual.keys() != expected.keys():
            raise Mismatch(f"{where}: keys differ")
        for key, e in expected.items():
            compare(actual[key], e, f"{where}.{key}")
    else:
        raise TypeError(f"{where}: unsupported reference value {expected!r}")


def _close_arrays(actual: np.ndarray, expected: np.ndarray) -> bool:
    if actual.shape != expected.shape:
        return False
    finite = np.isfinite(expected)
    close = np.abs(actual - expected) <= ABS_TOL + REL_TOL * np.abs(expected)
    return bool(np.all(np.where(finite, close, actual == expected)))


def check_problem(problem, expected: dict) -> bool:
    """Compare an in-memory HibProblem with the reference's problem file as
    ``files.save_problem`` wrote it and ``json`` parsed it: sizes and labels
    exactly, the prior and every table within tolerance.  True when every
    number is identical; raises Mismatch otherwise."""
    compare(problem.n, expected["n"], "problem.n")
    compare(list(problem.cluster_sizes), expected["cluster_sizes"], "problem.cluster_sizes")
    labels = problem.prior.labels
    compare(None if labels is None else list(labels), expected.get("prior_labels"), "problem.prior_labels")
    tables = problem.task_conditionals
    if len(tables) != len(expected["task_conditionals"]):
        raise Mismatch("problem.task_conditionals: level count differs")
    pairs = [("prior", problem.prior.values, expected["prior"])]
    for k, (table, want) in enumerate(zip(tables, expected["task_conditionals"])):
        where = f"problem.task_conditionals[{k}]"
        for side in ("row_labels", "col_labels"):
            got = getattr(table, side)
            compare(None if got is None else list(got), want.get(side), f"{where}.{side}")
        pairs.append((where, table.matrix, want["matrix"]))
    identical = True
    for where, got, want in pairs:
        want = np.asarray(want, dtype=float)
        if not _close_arrays(got, want):
            raise Mismatch(f"{where}: values beyond tolerance")
        identical &= bool(np.array_equal(got, want))
    return identical


def parse(name: str, data: bytes):
    """JSON files parse whole; .jsonl files parse line by line."""
    text = data.decode()
    if name.endswith(".jsonl"):
        return [json.loads(line) for line in text.splitlines()]
    return json.loads(text)


def check_file(actual: Path, expected: Path) -> None:
    """Raise Mismatch unless an output file agrees with its reference
    within tolerance."""
    try:
        compare(
            parse(actual.name, actual.read_bytes()),
            parse(expected.name, expected.read_bytes()),
            actual.name,
        )
    except ValueError as exc:
        raise Mismatch(f"{actual.name}: unreadable output ({exc})") from exc


class OutputChecker:
    """Checks one run's output files against their references.

    Byte identity is checked here.  A file that differs is parsed and
    compared in a child process: parsing a 7 MB solution in the measured
    process would raise its peak memory, which ``peak_rss_mb`` reports as
    the program's.  A file whose exact bytes already passed is not parsed
    again."""

    def __init__(self):
        self.passed: set[tuple[str, bytes]] = set()

    def check(self, out: Path, reference: Path, names) -> bool:
        """True when every output is byte-identical to the reference, False
        when some differ but all agree within tolerance; raises Mismatch
        otherwise."""
        identical = True
        for name in names:
            got = out / name
            if not got.is_file():
                raise Mismatch(f"{name}: output missing")
            data = got.read_bytes()
            if data == (reference / name).read_bytes():
                continue
            identical = False
            key = (str(reference / name), hashlib.sha256(data).digest())
            if key in self.passed:
                continue
            proc = subprocess.run(
                [sys.executable, __file__, str(got), str(reference / name)],
                capture_output=True, text=True, timeout=120,
            )
            if proc.returncode:
                raise Mismatch(proc.stderr.strip() or f"{name}: checker exited {proc.returncode}")
            self.passed.add(key)
        return identical


if __name__ == "__main__":
    try:
        check_file(Path(sys.argv[1]), Path(sys.argv[2]))
    except Mismatch as exc:
        print(exc, file=sys.stderr)
        sys.exit(1)
