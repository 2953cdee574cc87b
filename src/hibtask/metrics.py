"""Grounding and hierarchical-task-analysis metrics against a reference."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DimensionError, ValidationError
from .geometry import Box


@dataclass(frozen=True)
class ReferenceSubtask:
    """Ground truth for one subtask: either object ids or a geometric box."""

    objects: frozenset[str] = frozenset()
    box: Box | None = None

    def __post_init__(self):
        object.__setattr__(self, "objects", frozenset(self.objects))
        if not self.objects and self.box is None:
            raise ValidationError("reference subtask needs objects or a box")


@dataclass(frozen=True)
class ReferenceAnnotation:
    """Per task (keyed by task text/id): its ordered reference subtasks."""

    tasks: dict[str, tuple[ReferenceSubtask, ...]]

    def __post_init__(self):
        for task, subtasks in self.tasks.items():
            if not subtasks:
                raise ValidationError(f"reference task {task!r} has no subtasks")


@dataclass(frozen=True)
class PredictedSubtask:
    """One predicted subtask grounding: object ids and/or an estimated centroid."""

    objects: frozenset[str] = frozenset()
    centroid: tuple[float, float, float] | None = None

    def __post_init__(self):
        object.__setattr__(self, "objects", frozenset(self.objects))


def _single_grounding_correct(pred: PredictedSubtask, ref: ReferenceSubtask) -> bool:
    """The centroid lies in the reference box, or the object sets are equal.
    A reference without a box has objects, so an empty prediction never
    matches it."""
    if ref.box is not None:
        return pred.centroid is not None and ref.box.contains(pred.centroid)
    return pred.objects == ref.objects


def grounding_accuracy(predicted, reference: ReferenceAnnotation):
    """(s_acc, t_acc) for positionally aligned subtask lists.

    A subtask is correct when its estimated centroid falls inside the
    ground-truth box (geometric references) or its object set matches (id
    references).  A task is correct when all its subtasks are.
    """
    if set(predicted) != set(reference.tasks):
        raise DimensionError(
            f"task sets differ: {sorted(predicted)} vs {sorted(reference.tasks)}"
        )
    total = correct = tasks_correct = 0
    for task, refs in reference.tasks.items():
        preds = list(predicted[task])
        ok = 0
        for i, ref in enumerate(refs):
            total += 1
            if i < len(preds) and _single_grounding_correct(preds[i], ref):
                ok += 1
                correct += 1
        if ok == len(refs):
            tasks_correct += 1
    if total == 0:
        return 0.0, 0.0
    return correct / total, tasks_correct / len(reference.tasks)


def hta_metrics(predicted, reference: ReferenceAnnotation):
    """(s_rec, s_prec, t_acc) for a predicted hierarchy.

    A predicted subtask is correct when it grounds to the same object set as
    a not-yet-matched reference subtask (greedy in prediction order); the
    rest are incorrect.  Unmatched reference subtasks are missed.  s_rec is
    C/(C+M), s_prec is C/(C+I) (0 when nothing is predicted), and t_acc is
    the fraction of tasks with at least one prediction and no incorrect one.
    """
    c = i = m = 0
    accurate_tasks = 0
    for task, refs in reference.tasks.items():
        preds = list(predicted.get(task, ()))
        unmatched = list(refs)
        incorrect_here = 0
        for pred in preds:
            hit = next(
                (r for r in unmatched if _single_grounding_correct(pred, r)), None
            )
            if hit is not None:
                unmatched.remove(hit)
                c += 1
            else:
                i += 1
                incorrect_here += 1
        m += len(unmatched)
        if preds and incorrect_here == 0:
            accurate_tasks += 1
    # predictions for tasks absent from the reference are all incorrect
    for task in set(predicted) - set(reference.tasks):
        i += len(list(predicted[task]))
    s_rec = c / (c + m) if (c + m) else 0.0
    s_prec = c / (c + i) if (c + i) else 0.0
    t_acc = accurate_tasks / len(reference.tasks) if reference.tasks else 0.0
    return s_rec, s_prec, t_acc
