"""Axis-aligned boxes for primitives and scene-graph nodes."""

from __future__ import annotations

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
        return Box(
            tuple(np.minimum(self.lo, other.lo)),
            tuple(np.maximum(self.hi, other.hi)),
        )


def union_box(boxes) -> Box:
    boxes = list(boxes)
    if not boxes:
        raise ValidationError("union of zero boxes is undefined")
    out = boxes[0]
    for b in boxes[1:]:
        out = out.union(b)
    return out
