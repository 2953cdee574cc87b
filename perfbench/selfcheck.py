#!/usr/bin/env python3
"""The benchmark's own checks.  Run from the root of a checkout:

    python3 perfbench/selfcheck.py

1. Inputs: one seed yields byte-identical inputs twice, another seed
   different ones, for every workload (smoke size).
2. Output checks: a change beyond tolerance is a mismatch; a change within
   it passes without counting as byte-identical.  The same holds for the
   in-memory check of graph-refine's next-round problem.
3. Tracing: installing and uninstalling the tracer leaves every hibtask
   function as it was.
4. Smoke: every workload runs through run.py at smoke size, traced and
   untraced, checks its outputs and prints exactly the metrics that
   BENCHMARK.json declares.

Exits 0 when every check passes; takes well under a minute.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import bench  # noqa: E402
import check  # noqa: E402
import generate  # noqa: E402
from tracing import Tracer  # noqa: E402

SEED = 7


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"self-check failed: {message}")


def tree_bytes(directory: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(directory)): p.read_bytes()
        for p in sorted(directory.rglob("*"))
        if p.is_file()
    }


def check_inputs() -> None:
    work = ROOT / ".perfbench_work"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        tmp = Path(tmp)
        for workload in generate.WRITERS:
            trees = []
            for run, seed in enumerate((SEED, SEED, SEED + 1)):
                out = tmp / f"{workload}-{run}"
                generate.write_inputs(workload, seed, "smoke", out)
                trees.append(tree_bytes(out))
            expect(trees[0] == trees[1], f"{workload}: seed {SEED} gave different inputs")
            expect(trees[0] != trees[2], f"{workload}: seeds {SEED} and {SEED + 1} agree")
            print(f"ok inputs {workload}: {len(trees[0])} files, deterministic per seed")


def check_tolerance() -> None:
    def write(directory: Path, p0: float, ident: str = "x") -> Path:
        directory.mkdir()
        (directory / "a.json").write_text(json.dumps({"p": [p0, 0.25], "id": ident, "n": 3}))
        return directory

    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench_work") as tmp:
        tmp = Path(tmp)
        want = write(tmp / "want", 0.5)
        checker = check.OutputChecker()
        expect(checker.check(want, want, ["a.json"]) is True, "identical outputs not byte-identical")
        tiny = write(tmp / "tiny", 0.5 + 1e-13)
        expect(checker.check(tiny, want, ["a.json"]) is False, "tiny change not tolerated")
        for bad in (write(tmp / "far", 0.5 + 1e-6), write(tmp / "id", 0.5, "y"), tmp / "none"):
            try:
                checker.check(bad, want, ["a.json"])
            except check.Mismatch:
                continue
            expect(False, f"accepted a wrong output: {bad.name}")

    want = {"n": 1, "prior": [0.5, 0.5], "cluster_sizes": [2, 1],
            "task_conditionals": [{"matrix": [[1.0, 1.0]], "col_labels": ["a", "b"]}]}

    def problem(m0: float) -> SimpleNamespace:
        table = SimpleNamespace(matrix=np.array([[m0, 1.0]]), row_labels=None, col_labels=("a", "b"))
        prior = SimpleNamespace(values=np.array([0.5, 0.5]), labels=None)
        return SimpleNamespace(n=1, prior=prior, cluster_sizes=(2, 1), task_conditionals=[table])

    expect(check.check_problem(problem(1.0), want) is True, "identical problem not identical")
    expect(check.check_problem(problem(1.0 + 1e-13), want) is False, "tiny problem change not tolerated")
    try:
        check.check_problem(problem(1.0 + 1e-6), want)
    except check.Mismatch:
        pass
    else:
        expect(False, "accepted a wrong problem")
    print("ok output checks: tolerance and byte identity")


def check_tracer_restores() -> None:
    import hibtask  # noqa: F401 - loads every module the tracer patches
    import hibtask.cli  # noqa: F401

    def snapshot():
        return {
            (name, attr): obj
            for name, module in sys.modules.items()
            if name == "hibtask" or name.startswith("hibtask.")
            for attr, obj in vars(module).items()
        } | {
            (cls.__name__, attr): obj
            for cls in (hibtask.CondTable, hibtask.Dist, hibtask.TaskHierarchy, hibtask.TableOracle)
            for attr, obj in vars(cls).items()
        }

    before = snapshot()
    tracer = Tracer()
    tracer.install()
    patched = sum(before[key] is not obj for key, obj in snapshot().items())
    tracer.uninstall()
    after = snapshot()
    expect(patched > 0, "the tracer wrapped nothing")
    expect(all(after[key] is obj for key, obj in before.items()), "uninstall left wrappers")
    print(f"ok tracer: wrapped {patched} names and restored them")


def check_smoke() -> None:
    declared = bench.declared_metrics()
    for workload in generate.WRITERS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                 "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
                cwd=ROOT, capture_output=True, text=True, timeout=300,
            )
            expect(proc.returncode == 0, f"{workload}: exit {proc.returncode}\n{proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            kind = "per_layer" if trace else "end_to_end"
            wanted = {name for name, m in declared.items() if m["kind"] == kind}
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}, "result keys")
            expect(set(result["metrics"]) == wanted, f"{workload}: metric names differ")
            expect(result["correct"] and result["failed"] == 0, f"{workload}: {proc.stdout}")
            print(f"ok smoke {workload} trace={trace}: {result['attempted']} ops checked")


def main() -> int:
    check_inputs()
    check_tolerance()
    check_tracer_restores()
    check_smoke()
    print("all benchmark self-checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
