"""Axis-aligned boxes for primitives and scene-graph nodes."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True)
class Box:
    """Closed axis-aligned box in meters; touching faces count as intersecting."""

    lo: tuple[float, float, float]
    hi: tuple[float, float, float]

    def __post_init__(self):
        lo = tuple(float(v) for v in self.lo)
        hi = tuple(float(v) for v in self.hi)
        if len(lo) != 3 or len(hi) != 3:
            raise ValidationError("Box corners must be 3-vectors")
        if not all(map(math.isfinite, lo + hi)):
            raise ValidationError(f"Box corners must be finite: {lo}, {hi}")
        if any(a > b for a, b in zip(lo, hi)):
            raise ValidationError(f"Box min corner exceeds max corner: {lo} > {hi}")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def center(self) -> np.ndarray:
        return (np.asarray(self.lo) + np.asarray(self.hi)) / 2.0

    @property
    def extents(self) -> np.ndarray:
        return np.asarray(self.hi) - np.asarray(self.lo)

    @property
    def diagonal(self) -> float:
        return float(np.linalg.norm(self.extents))

    def contains(self, point) -> bool:
        p = np.asarray(point, dtype=float)
        return bool(np.all(p >= self.lo) and np.all(p <= self.hi))

    def intersects(self, other: "Box") -> bool:
        return bool(
            np.all(np.asarray(self.hi) >= other.lo)
            and np.all(np.asarray(other.hi) >= self.lo)
        )

    def union(self, other: "Box") -> "Box":
        return union_box((self, other))


def union_box(boxes) -> Box:
    """The smallest box holding all ``boxes``. Where corners tie on an axis,
    as 0.0 and -0.0 do, the later box's corner is kept: ``min`` and ``max``
    return the first of tied values, so each axis is scanned in reverse."""
    boxes = list(boxes)
    if not boxes:
        raise ValidationError("union of zero boxes is undefined")
    if len(boxes) == 1:
        return boxes[0]
    return Box(
        tuple(min(reversed(axis)) for axis in zip(*(b.lo for b in boxes))),
        tuple(max(reversed(axis)) for axis in zip(*(b.hi for b in boxes))),
    )
