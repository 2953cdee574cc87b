#!/usr/bin/env python3
"""Benchmark entry point.

    python3 perfbench/run.py --workload solve-large --seed 1 --seconds 12 --trace 0

Run from the root of a checkout.  The program under test is the checkout's
``src/hibtask``; outputs are checked against ``perfbench/hibtask_ref``, a
frozen copy of the package.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: with
``--trace 0`` the end-to-end metrics of BENCHMARK.json, with ``--trace 1``
its per-layer metrics from a traced run.  The line before it carries the
details: environment, sample counts and the tail percentile.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("solve-large", "pipeline", "graph-refine"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    return parser.parse_args(argv)


def cap_threads() -> int:
    """Run BLAS on one thread; must run before numpy is imported.  Returns
    the processors this process may use.

    On a shared 2-vCPU host, two BLAS threads made back-to-back identical
    solve-large operations differ by up to 30%, and a reference solve run
    beside the program's told nothing about it.  With one thread the two
    agreed within a few percent, which is what paced timing needs (see
    bench.py)."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "hibtask" / "__init__.py").is_file():
        print(f"error: no program to benchmark: {SRC / 'hibtask'} is missing", file=sys.stderr)
        return 2
    nproc = cap_threads()
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    import hibtask

    if Path(hibtask.__file__).resolve().parent != SRC / "hibtask":
        print(f"error: imported hibtask from {hibtask.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from bench import run_workload

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        details, result = run_workload(args, work, nproc)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
