#!/usr/bin/env python3
"""Generate a run's inputs and record its reference outputs.

    python3 perfbench/prepare.py --workload pipeline --seed 1 --size full --work DIR

run.py starts this in a child process before it loads the program, so the
measured process runs nothing but the program under test.  Everything here
uses the frozen package ``hibtask_ref``:

* ``DIR/inputs``: the generated inputs.  That the seed alone decides them
  is checked by ``selfcheck.py``; generating them twice here would cost a
  run up to seven seconds.
* ``DIR/reference/<instance>``: each instance's outputs and ``exit_code``.
* ``DIR/prepared.json``: the generation time.

With ``--serve`` it then stays up as the run's pace reference: it prints
``ready`` and, for each line ``setup`` or ``op <instance>`` read from
standard input, does that with the frozen package and prints the seconds
it took.  run.py alternates these with the program's own set-ups and
operations, so both see the same host speed (see bench.py).  It ends when
its standard input closes.

Exits 1 when a reference exits with a code that no successful operation
has; the generated inputs then do not make a valid workload.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from time import perf_counter

import hibtask_ref
import hibtask_ref.cli  # noqa: F401 - loads the submodules a workload uses

import generate
from workloads import WORKLOADS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=("full", "smoke"), required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--serve", action="store_true")
    args = parser.parse_args(argv)

    inputs = args.work / "inputs"
    start = perf_counter()
    generate.write_inputs(args.workload, args.seed, args.size, inputs)
    generate_s = perf_counter() - start

    workload = WORKLOADS[args.workload](args.size, hibtask_ref)
    workload.load(inputs)
    for instance in range(workload.instances):
        out = args.work / "reference" / str(instance)
        out.mkdir(parents=True)
        code = workload.record(instance, out)
        if code not in workload.exit_codes:
            print(
                f"error: {args.workload} instance {instance}: the reference exits with {code}; "
                "the generated inputs do not make a valid workload",
                file=sys.stderr,
            )
            return 1
        (out / "exit_code").write_text(f"{code}\n")
    (args.work / "prepared.json").write_text(
        json.dumps({"generate_s": generate_s})
    )
    if args.serve:
        serve(workload, inputs, args.work / "pace")
    return 0


def serve(workload, inputs: Path, out: Path) -> None:
    out.mkdir()
    print("ready", flush=True)
    for line in sys.stdin:
        match line.split():
            case ["setup"]:
                seconds = workload.set_up(inputs, out)
            case ["op", instance]:
                start = perf_counter()
                workload.op(int(instance), out)
                seconds = perf_counter() - start
            case _:
                raise SystemExit(f"error: unknown request {line!r}")
        print(seconds, flush=True)


if __name__ == "__main__":
    sys.exit(main())
