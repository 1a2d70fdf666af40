"""Non-dominated bookkeeping for the two-objective policy search.

A Solution pairs a full policy set with the (average cycle time, average
cost) point its simulation produced.  The front holds mutually
non-dominated solutions sorted by cycle time; update operations are pure
functions returning fresh fronts, so concurrent readers can hold
snapshots without locks.
"""

from __future__ import annotations

import math

from .codec import ParseError, finite_number, read, reject_unknown_keys
from .policy import PolicySet, parse_policies, serialize_policies
from .records import Record

Point = tuple[float, float]

FRONT_CSV_HEADER = "avg_cycle_time,avg_cost"


class ParetoError(ValueError):
    pass


def dominates(a: Point, b: Point) -> bool:
    """True iff a is at least as good on both minimized objectives and
    strictly better on at least one."""
    return a[0] <= b[0] and a[1] <= b[1] and (a[0] < b[0] or a[1] < b[1])


class Solution(Record):
    """One evaluated policy set.

    lineage records the applied-delta documents that produced this
    solution from the initial one, oldest first; log_ref names the
    simulation that scored it.
    """

    __slots__ = ("policies", "point", "log_ref", "lineage")

    def __init__(self, policies: PolicySet, point: Point, log_ref: str = "",
                 lineage: tuple[dict, ...] = ()):
        self.policies = policies
        self.point = point
        self.log_ref = log_ref
        self.lineage = lineage
        x, y = self.point
        if not (math.isfinite(x) and math.isfinite(y)) or x < 0 or y < 0:
            raise ParetoError(f"objective point must be finite and >= 0, got {self.point!r}")


class ParetoFront(Record):
    __slots__ = ("solutions",)

    def __init__(self, solutions: tuple[Solution, ...] = ()):
        self.solutions = solutions
        points = [s.point for s in self.solutions]
        for i, a in enumerate(points):
            for b in points[i + 1 :]:
                if a == b or dominates(a, b) or dominates(b, a):
                    raise ParetoError(f"front members must be mutually non-dominated: {a} vs {b}")
        if points != sorted(points):
            raise ParetoError("front must be sorted by cycle time ascending")

    @property
    def points(self) -> tuple[Point, ...]:
        return tuple(s.point for s in self.solutions)

    def __len__(self) -> int:
        return len(self.solutions)


def update_front(front: ParetoFront, candidate: Solution) -> tuple[ParetoFront, bool]:
    """Insert candidate unless an incumbent dominates or exactly ties it;
    on insert, drop every incumbent the candidate dominates."""
    for s in front.solutions:
        if s.point == candidate.point or dominates(s.point, candidate.point):
            return front, False
    kept = [s for s in front.solutions if not dominates(candidate.point, s.point)]
    kept.append(candidate)
    kept.sort(key=lambda s: s.point)
    return ParetoFront(tuple(kept)), True


def distance_to_front(front: ParetoFront, point: Point) -> float:
    """0 for any non-dominated point; otherwise the smallest Euclidean
    distance to a front member, with each axis rescaled by the front's
    current maximum so the two objectives weigh comparably (an all-zero
    axis passes through unscaled)."""
    if not front.solutions:
        raise ParetoError("cannot measure distance to an empty front")
    if not any(dominates(s.point, point) for s in front.solutions):
        return 0.0
    max_ct = max(s.point[0] for s in front.solutions)
    max_cost = max(s.point[1] for s in front.solutions)

    def axis(delta: float, scale: float) -> float:
        return delta / scale if scale > 0 else delta

    return min(
        math.hypot(axis(point[0] - s.point[0], max_ct), axis(point[1] - s.point[1], max_cost))
        for s in front.solutions
    )


# -- serialization ------------------------------------------------------------


def solution_to_doc(solution: Solution) -> dict:
    return {
        "point": [solution.point[0], solution.point[1]],
        "logRef": solution.log_ref,
        "lineage": [dict(step) for step in solution.lineage],
        "policies": serialize_policies(solution.policies),
    }


def front_to_doc(front: ParetoFront, label: str = "") -> dict:
    return {
        "label": label,
        "solutions": [solution_to_doc(s) for s in front.solutions],
    }


_SOLUTION_KEYS = ("point", "logRef", "lineage", "policies")


def parse_front(doc) -> ParetoFront:
    """The front of a `front_to_doc` document.  Every malformed shape, the
    embedded policies included, raises ParetoError."""
    solutions = []
    try:
        reject_unknown_keys(doc, ("label", "solutions"), "$")
        read(doc, "label", "$", str, "")
        for i, entry in enumerate(read(doc, "solutions", "$", list)):
            where = f"$.solutions[{i}]"
            reject_unknown_keys(entry, _SOLUTION_KEYS, where)
            point = entry.get("point")
            coords = [finite_number(v) for v in point] if isinstance(point, list) else []
            if len(coords) != 2 or None in coords:
                raise ParseError(
                    f"{where}.point", f"expected a list of two finite numbers, got {point!r}"
                )
            lineage = read(entry, "lineage", where, list, [])
            if not all(isinstance(step, dict) for step in lineage):
                raise ParseError(f"{where}.lineage", f"expected a list of objects, got {lineage!r}")
            solutions.append(
                Solution(
                    policies=parse_policies(
                        read(entry, "policies", where, dict, {"policies": []}), f"{where}.policies"
                    ),
                    point=tuple(coords),
                    log_ref=read(entry, "logRef", where, str, ""),
                    lineage=tuple(dict(step) for step in lineage),
                )
            )
    except ParseError as err:
        raise ParetoError(str(err)) from err
    return ParetoFront(tuple(solutions))


def render_front_csv(front: ParetoFront) -> str:
    lines = [FRONT_CSV_HEADER]
    lines.extend(f"{s.point[0]!r},{s.point[1]!r}" for s in front.solutions)
    return "\n".join(lines) + "\n"
