"""The three workloads: the timed operation and how its outputs are read.

A workload runs on one package: the program under test (``hibtask``) in
the measured process, or the frozen copy (``hibtask_ref``) in the child
process that records the references (``prepare.py``).  Both run the same
operation on the same generated inputs.  ``op`` is the only timed call;
collecting and serializing outputs happens outside it.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import generate
from check import check_problem
from generate import TEMPERATURE

RELEVANCE = 0.8  # the pipeline defaults for selection and refinement
R_S = R_T = 0.8


class Workload:
    name = ""
    # the frozen reference's median set-up and operation times at full size
    # on a 2-vCPU Intel Xeon VM; timed metrics are given at this host speed
    # (see bench.py)
    nominal_setup_s = 0.0
    nominal_op_s = 0.0
    outputs: tuple[str, ...] = ()
    exit_codes = (0,)  # reference exit codes of a successful operation

    def __init__(self, size: str, pkg):
        """``pkg`` is the hibtask or hibtask_ref package, with its
        submodules imported."""
        self.size = size
        self.pkg = pkg
        self.inputs: Path | None = None

    @property
    def instances(self) -> int:
        return 1

    def load(self, inputs: Path) -> None:
        """Program-side set-up on the generated inputs."""
        self.inputs = inputs

    def warm_up(self, out: Path) -> None:
        self.op(0, out)

    def set_up(self, inputs: Path, out: Path) -> float:
        """Import the package's CLI in a fresh interpreter, as every command
        pays for it, then load the inputs and warm up; the seconds taken."""
        start = perf_counter()
        subprocess.run(
            [sys.executable, "-c", f"import {self.pkg.__name__}.cli"],
            check=True, stdout=subprocess.DEVNULL, timeout=120,
        )
        self.load(inputs)
        self.warm_up(out)
        return perf_counter() - start

    def op(self, instance: int, out: Path):
        """The timed operation; returns what ``collect`` needs."""
        raise NotImplementedError

    def collect(self, result, out: Path) -> int:
        """The operation's exit code, with its outputs written to ``out``."""
        return result

    def record(self, instance: int, out: Path) -> int:
        """Run the operation and leave its outputs in ``out``; the exit code."""
        return self.op(instance, out)

    def check_in_memory(self, result, reference: Path) -> bool:
        """Check outputs that are not files against the reference directory;
        True when they are identical, raises Mismatch beyond tolerance."""
        return True


class SolveLarge(Workload):
    name = "solve-large"
    nominal_setup_s = 0.85
    nominal_op_s = 1.85
    outputs = ("solution.json", "trace.jsonl")
    exit_codes = (0, 2)  # 2: the sweep limit came before the stop rule

    def _argv(self, out: Path, sweeps: int) -> list[str]:
        return [
            "solve", str(self.inputs / "problem.json"),
            "--beta", str(generate.SOLVE_BETA),
            "--min-iter", str(sweeps), "--max-iter", str(sweeps),
            "--out", str(out / "solution.json"), "--trace", str(out / "trace.jsonl"),
        ]

    def warm_up(self, out: Path) -> None:
        self.pkg.cli.main(self._argv(out, 2))

    def op(self, instance: int, out: Path):
        return self.pkg.cli.main(self._argv(out, generate.SOLVE_SWEEPS[self.size]))


class Pipeline(Workload):
    name = "pipeline"
    # a mean over the worlds: an operation's time is scaled by the
    # reference's on the same world, so the spread of world costs drops out
    nominal_setup_s = 0.42
    nominal_op_s = 0.39
    outputs = ("graph.json", "hierarchy.json", "reports.jsonl")

    @property
    def instances(self) -> int:
        return generate.PIPELINE_INSTANCES[self.size]

    def _argv(self, instance: int, out: Path, rounds: int = generate.PIPELINE_ROUNDS) -> list[str]:
        src = self.inputs / f"instance-{instance:02d}"
        return [
            "pipeline",
            *(str(src / f) for f in ("scene.json", "hierarchy.json", "word_bank.json", "oracle.json")),
            "--rounds", str(rounds),
            "--temperature", str(TEMPERATURE),
            "--out-graph", str(out / "graph.json"),
            "--out-hierarchy", str(out / "hierarchy.json"),
            "--reports", str(out / "reports.jsonl"),
        ]

    def warm_up(self, out: Path) -> None:
        # one round: its solve always stops at min_iter, so the cost does
        # not depend on the seed
        self.pkg.cli.main(self._argv(0, out, rounds=1))

    def op(self, instance: int, out: Path):
        return self.pkg.cli.main(self._argv(instance, out))


class GraphRefine(Workload):
    name = "graph-refine"
    nominal_setup_s = 0.60
    nominal_op_s = 0.16
    outputs = ("graph.json", "hierarchy.json")

    def load(self, inputs: Path) -> None:
        super().load(inputs)
        files = self.pkg.files
        state, _report = files.load_solution(inputs / "solution.json")
        self._args = (
            state,
            files.load_hierarchy(inputs / "hierarchy.json"),
            files.load_scene(inputs / "scene.json"),
            files.load_word_bank(inputs / "word_bank.json"),
            files.load_oracle(inputs / "oracle.json"),
        )
        self._want_problem = None

    def op(self, instance: int, out: Path):
        """The post-solve half of a pipeline round, then the next round's
        problem."""
        scene, update, hier = self.pkg.scene_graph, self.pkg.task_update, self.pkg.hierarchy
        state, hierarchy, primitives, bank, oracle = self._args
        full = scene.bottom_up_construct(state, hierarchy, primitives)
        graph = scene.prune_primitives(scene.top_down_prune(full))
        grounded = update.spatial_update(graph, hierarchy, primitives)
        kept = {n.id.removeprefix("prim:") for n in graph.nodes.values() if n.layer == 0}
        unmatched = [p for p in primitives if p.id not in kept]
        words = update.suggest_words(unmatched, bank)
        refined = update.refine_hierarchy(grounded, words, oracle, R_S, R_T, bank)
        selected = hier.select_relevant_primitives(
            primitives, refined.entities_of_kind(hier.KIND_ITEM), RELEVANCE
        )
        problem = update.derive_problem(refined, selected, TEMPERATURE)
        return graph, refined, problem

    def collect(self, result, out: Path):
        graph, refined, _problem = result
        self.pkg.files.save_graph(graph, out / "graph.json")
        self.pkg.files.save_hierarchy(refined, out / "hierarchy.json")
        return 0

    def record(self, instance: int, out: Path) -> int:
        result = self.op(instance, out)
        self.pkg.files.save_problem(result[2], out / "problem.json")
        return self.collect(result, out)

    def check_in_memory(self, result, reference: Path) -> bool:
        # the next-round problem is 1.6 MB of JSON: writing it on every
        # operation would cost about as much as the operation, so its
        # tables are compared in memory with the reference's saved problem
        if self._want_problem is None:
            self._want_problem = json.loads((reference / "problem.json").read_text())
        return check_problem(result[2], self._want_problem)


WORKLOADS = {w.name: w for w in (SolveLarge, Pipeline, GraphRefine)}
