"""Set-up, measurement loop, output checks and metrics of one benchmark run.

Imported by run.py after the BLAS thread cap is set and the checkout's
``src`` is on the path.

Timed metrics are paced by the frozen reference.  On a shared host the same
code runs up to 1.8 times slower for spells of seconds to minutes, so a
run's raw median says more about the spells it met than about the program.
A child process (``prepare.py --serve``) therefore repeats each set-up and
each operation with ``hibtask_ref`` right beside the program's, in
blocks of reference, program, program, reference on the same instance,
and every program time is scaled by

    workload.nominal_<kind>_s / (mean reference time of its block)

This is the program's time on a host where the reference takes its
nominal time.  A change to the program moves it by the same share as the
raw time, while a slow spell slows both and cancels.  The raw times and
the reference's are in the details line.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import hibtask
import hibtask.cli  # noqa: F401 - loads the submodules a workload uses
from check import Mismatch, OutputChecker
from tracing import Tracer
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPS = 5
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile


def declared_metrics() -> dict[str, dict[str, str]]:
    """name -> {unit, kind} from BENCHMARK.json, kind being 'end_to_end' or
    'per_layer'."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        m["name"]: {"unit": m["unit"], "kind": kind}
        for kind in ("end_to_end", "per_layer")
        for m in spec[kind]
    }


def environment(nproc: int) -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        pass
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in info if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": nproc,
        "cpu": cpu,
        "loadavg_start": list(os.getloadavg()),
    }


class Reference:
    """``prepare.py --serve`` in a child process: it generates the inputs and
    records every reference output, so that this process runs only the
    program under test, then times set-ups and operations of the frozen
    package on request."""

    def __init__(self, args, work: Path):
        work.mkdir(parents=True)
        self._stderr = work / "prepare.err"
        with self._stderr.open("w") as err:
            self._proc = subprocess.Popen(
                [sys.executable, str(BENCH / "prepare.py"), "--workload", args.workload,
                 "--seed", str(args.seed), "--size", args.size, "--work", str(work), "--serve"],
                cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(BENCH)),
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=err, text=True,
            )
        try:
            if self._reply() != "ready":
                raise RuntimeError("prepare.py did not report ready")
        except BaseException:
            self.close()
            raise
        self.prepared = json.loads((work / "prepared.json").read_text())

    def _reply(self) -> str:
        line = self._proc.stdout.readline()
        if not line:
            code = self._proc.wait(timeout=30)
            raise RuntimeError(
                f"prepare.py exited with {code}: {self._stderr.read_text().strip()}"
            )
        return line.strip()

    def time(self, request: str) -> float:
        """Seconds the reference took for ``setup`` or ``op <instance>``."""
        self._proc.stdin.write(request + "\n")
        self._proc.stdin.flush()
        return float(self._reply())

    def close(self) -> None:
        try:
            self._proc.stdin.close()
        except OSError:
            pass
        try:
            self._proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()


def set_up(workload, inputs: Path, scratch: Path, reference: Reference):
    """Import in a fresh interpreter, load and warm up SETUP_REPS times,
    in blocks with the reference's set-ups (see the module docstring); the
    workload stays loaded.  This is the program's share of set-up: the
    inputs come from the frozen generator, whose time is reported apart.
    Returns the program's and the reference's samples."""
    samples, paced = [], []
    for rep in range(SETUP_REPS):
        if rep % 2 == 0:
            paced.append(reference.time("setup"))
        samples.append(workload.set_up(inputs, scratch))
        if rep % 2 == 1:
            paced.append(reference.time("setup"))
    return samples, paced


def at_nominal(samples: list[float], paced: list[float], nominal: float) -> list[float]:
    """Each program time scaled to the host speed at which the reference
    takes ``nominal`` seconds for the same work.  ``paced`` holds one
    reference time per sample; samples 2k and 2k + 1 form a block with
    reference times 2k and 2k + 1."""
    scaled = []
    for k in range(0, len(samples), 2):
        ref = statistics.fmean(paced[k:k + 2])
        scaled += [seconds * nominal / ref for seconds in samples[k:k + 2]]
    return scaled


def run_op(workload, instance: int, out: Path, reference: Path, checker: OutputChecker,
           tracer=None):
    """One timed operation and its check: (seconds, byte-identical, error).

    With a tracer, the program is wrapped for this operation only."""
    for name in workload.outputs:
        (out / name).unlink(missing_ok=True)
    error = None
    if tracer:
        tracer.install()
        tracer.begin_op()
    start = perf_counter()
    try:
        result = workload.op(instance, out)
    except Exception as exc:  # noqa: BLE001 - every failure is counted
        error = f"{type(exc).__name__}: {exc}"
    seconds = perf_counter() - start
    if tracer:
        tracer.end_op()
        tracer.uninstall()
    if error:
        return seconds, False, error
    try:
        code = workload.collect(result, out)
        want_code = int((reference / "exit_code").read_text())
        if code != want_code:
            return seconds, False, f"exit code {code}, expected {want_code}"
        same = checker.check(out, reference, workload.outputs)
        return seconds, workload.check_in_memory(result, reference) and same, None
    except Mismatch as exc:
        return seconds, False, f"output mismatch: {exc}"
    except Exception as exc:  # noqa: BLE001
        return seconds, False, f"unreadable outputs: {type(exc).__name__}: {exc}"


def measure(workload, seconds: float, out: Path, references: Path, tracer=None, reference=None):
    """Run operations, cycling through the instances, until their timed
    durations add up to ``seconds``; check each against its reference.

    With a tracer every instance runs twice in a row, untraced then traced,
    so both samples see the same inputs and machine conditions.  With a
    reference, operations run in blocks: the reference, two operations on
    the same instance, the reference again.  Returns (untraced seconds, traced seconds, reference
    seconds, byte-identical ops, failures).
    """
    plain, traced, paced, identical, failures = [], [], [], 0, []
    checker = OutputChecker()
    n = 0
    while sum(plain) + sum(traced) < seconds:
        instance = (n // 2 if reference else n) % workload.instances
        if reference and n % 2 == 0:
            paced.append(reference.time(f"op {instance}"))
        runs = [(plain, None)] + ([(traced, tracer)] if tracer else [])
        for samples, with_tracer in runs:
            took, same, error = run_op(
                workload, instance, out, references / str(instance), checker, with_tracer
            )
            samples.append(took)
            identical += same
            if error:
                failures.append(f"op {n} (instance {instance}): {error}")
        if reference and n % 2 == 1:
            paced.append(reference.time(f"op {instance}"))
        n += 1
    return plain, traced, paced, identical, failures


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least
    TAIL_BEYOND samples above it.  With too few samples no percentile
    qualifies, and the upper quartile stands in: the maximum of a handful
    of samples is the least steady value a run could report."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        if n == 1:
            return ordered[0], 100.0
        return statistics.quantiles(ordered, n=4, method="inclusive")[2], 75.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def run_workload(args, work: Path, nproc: int) -> tuple[dict, dict]:
    env = environment(nproc)
    reference = Reference(args, work)
    try:
        return paced_run(args, work, env, reference)
    finally:
        reference.close()


def paced_run(args, work: Path, env: dict, reference: Reference) -> tuple[dict, dict]:
    declared = declared_metrics()
    workload = WORKLOADS[args.workload](args.size, hibtask)
    out = work / "out"
    out.mkdir()
    setup_samples, setup_paced = set_up(workload, work / "inputs", out, reference)
    references = work / "reference"

    details = {
        "workload": workload.name,
        "seed": args.seed,
        "size": args.size,
        "instances": workload.instances,
        "environment": env,
        "generate_s": reference.prepared["generate_s"],
        "setup_s_samples": setup_samples,
    }
    if args.trace:
        reference.close()
        tracer = Tracer()
        plain, traced, _, identical, failures = measure(workload, args.seconds, out, references, tracer)
        trace_file = ROOT / ".perfbench_work" / "traces" / f"{workload.name}.jsonl"
        tracer.write_spans(trace_file)
        attempted = len(plain) + len(traced)
        metrics = tracer.layer_metrics()
        untraced_p50 = statistics.median(plain)
        traced_p50 = statistics.median(traced)
        metrics.update(
            {
                "trace.untraced_op_s_p50": untraced_p50,
                "trace.traced_op_s_p50": traced_p50,
                "trace.overhead_s": traced_p50 - untraced_p50,
                "trace.layer_self_s_p50": statistics.median(tracer.op_layer_self_s()),
                "files.outputs_byte_identical": identical / attempted,
                "error_rate": len(failures) / attempted,
            }
        )
        details.update(
            {"untraced_ops": len(plain), "traced_ops": len(traced), "spans": len(tracer.spans),
             "trace_file": str(trace_file.relative_to(ROOT))}
        )
        kind = "per_layer"
    else:
        raw, _, paced, identical, failures = measure(
            workload, args.seconds, out, references, reference=reference
        )
        samples = at_nominal(raw, paced, workload.nominal_op_s)
        attempted = len(samples)
        tail_s, tail_pct = tail(samples)
        completed = attempted - len(failures)
        metrics = {
            "setup_s": statistics.median(
                at_nominal(setup_samples, setup_paced, workload.nominal_setup_s)
            ),
            "op_s.p50": statistics.median(samples),
            "op_s.tail": tail_s,
            "ops_per_s": completed / sum(samples),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        details.update(
            {
                "raw": {
                    "setup_s": statistics.median(setup_samples),
                    "op_s.p50": statistics.median(raw),
                    "op_s.tail": tail(raw)[0],
                    "ops_per_s": completed / sum(raw),
                },
                "reference": {
                    "setup_s": statistics.median(setup_paced),
                    "op_s.p50": statistics.median(paced),
                },
                "op_samples": attempted,
                "op_s.tail_percentile": tail_pct,
                "error_rate": len(failures) / attempted,
                "files.outputs_byte_identical": identical / attempted,
            }
        )
        kind = "end_to_end"

    wanted = {name for name, m in declared.items() if m["kind"] == kind}
    if set(metrics) != wanted:
        raise RuntimeError(
            f"metrics disagree with BENCHMARK.json: missing {sorted(wanted - set(metrics))}, "
            f"undeclared {sorted(set(metrics) - wanted)}"
        )
    details["failures"] = failures[:5]
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            name: {"value": float(metrics[name]), "unit": declared[name]["unit"]}
            for name in sorted(metrics)
        },
    }
    return details, result
