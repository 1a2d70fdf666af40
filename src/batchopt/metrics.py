"""Front-quality metrics for comparing optimizer runs.

Runs are compared against a reference front: the non-dominated union of
every run's front. Convergence is measured with the averaged Hausdorff
distance (symmetric mean-RMS distance, raw objective units), diversity
with purity (the fraction of a run's points that survive into the
reference), and end-to-end benefit with the cycle time gain of the best
solution over the initial policy set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .engine import SimConfig, simulate
# case_cycle_time is not called here, but the benchmark's layer trace
# (perfbench/layers.py) wraps it under this module's name.
from .eventlog import EventLog, case_cycle_time, filter_warmup  # noqa: F401
from .model import ProcessModel
from .pareto import Point, Solution, dominates

PURITY_TOLERANCE = 1e-9

METRICS_CSV_HEADER = "label,points,hausdorff,purity,gain"


class MetricsError(ValueError):
    """Raised when a metric is evaluated on inputs it is not defined for."""


@dataclass(frozen=True)
class FrontPointSet:
    """A labelled set of objective points produced by one optimizer run."""

    points: tuple[Point, ...]
    label: str = ""

    def __post_init__(self) -> None:
        for x, y in self.points:
            if not (math.isfinite(x) and math.isfinite(y)):
                raise MetricsError(f"non-finite point ({x}, {y}) in {self.label!r}")
            if x < 0 or y < 0:
                raise MetricsError(f"negative point ({x}, {y}) in {self.label!r}")

    def __len__(self) -> int:
        return len(self.points)


def _point_set(obj: FrontPointSet | Sequence[Point]) -> list[Point]:
    points = list(obj.points if isinstance(obj, FrontPointSet) else obj)
    seen: dict[Point, None] = {}
    for p in points:
        seen[(float(p[0]), float(p[1]))] = None
    return list(seen)


def build_reference_front(
    runs: Sequence[FrontPointSet], label: str = "reference"
) -> FrontPointSet:
    """Non-dominated union of all runs' points, duplicates collapsed.

    Idempotent and independent of run order; the result is sorted by
    point for a stable serialization.
    """
    if not runs:
        raise MetricsError("reference front needs at least one run")
    pool: dict[Point, None] = {}
    for run in runs:
        for p in _point_set(run):
            pool[p] = None
    kept = [
        p
        for p in pool
        if not any(dominates(q, p) for q in pool if q != p)
    ]
    kept.sort()
    return FrontPointSet(tuple(kept), label)


def _rms_term(source: list[Point], target: list[Point]) -> float:
    total = 0.0
    for x in source:
        nearest = min(math.hypot(x[0] - y[0], x[1] - y[1]) for y in target)
        total += nearest * nearest
    return math.sqrt(total / len(source))


def averaged_hausdorff(
    approx: FrontPointSet | Sequence[Point], reference: FrontPointSet | Sequence[Point]
) -> float:
    """Symmetric mean-RMS distance between two point sets, raw units.

    Half the sum, over both directions, of the root mean squared
    nearest-neighbour distance. Zero exactly when the two sets hold the
    same points; lower is better convergence.
    """
    a = _point_set(approx)
    b = _point_set(reference)
    if not a or not b:
        raise MetricsError("averaged_hausdorff needs two non-empty point sets")
    return 0.5 * (_rms_term(a, b) + _rms_term(b, a))


def purity(
    approx: FrontPointSet | Sequence[Point],
    reference: FrontPointSet | Sequence[Point],
    tolerance: float = PURITY_TOLERANCE,
) -> float:
    """Fraction of the approximate front's points present in the reference.

    Membership is point equality within `tolerance` per axis, guarding
    float round-trips through serialization.
    """
    a = _point_set(approx)
    b = _point_set(reference)
    if not a:
        raise MetricsError("purity needs a non-empty approximate front")
    shared = sum(
        1
        for p in a
        if any(abs(p[0] - q[0]) <= tolerance and abs(p[1] - q[1]) <= tolerance for q in b)
    )
    return shared / len(a)


def mean_case_cycle_time(log: EventLog) -> float:
    """Mean wall-clock cycle time over the log's cases.

    One pass folds each case's first start and last completion, so this
    agrees with averaging `case_cycle_time` over `log.case_ids()`.
    """
    spans: dict[int, list[int]] = {}
    for r in log.instances:
        span = spans.get(r.case_id)
        if span is None:
            spans[r.case_id] = [r.start_time, r.end_time]
        else:
            if r.start_time < span[0]:
                span[0] = r.start_time
            if r.end_time > span[1]:
                span[1] = r.end_time
    if not spans:
        raise MetricsError("log has no cases")
    return sum(spans[c][1] - spans[c][0] for c in sorted(spans)) / len(spans)


def cycle_time_gain(
    initial_log: EventLog,
    solutions: Sequence[Solution],
    model: ProcessModel,
    config: SimConfig = SimConfig(),
) -> float:
    """Cycle time saved by the best solution relative to the initial run.

    Every solution is re-simulated under `config` and scored by its mean
    per-case cycle time; the gain is the initial mean minus the best
    (smallest) solution mean. Negative when every solution is slower.
    """
    if not solutions:
        raise MetricsError("cycle_time_gain needs at least one solution")
    baseline = mean_case_cycle_time(filter_warmup(initial_log, config.warmup))
    best = math.inf
    for sol in solutions:
        result = simulate(model, sol.policies, config)
        trimmed = filter_warmup(result.log, config.warmup)
        best = min(best, mean_case_cycle_time(trimmed))
    return baseline - best


def metrics_row(run: FrontPointSet, reference: FrontPointSet, gain: float | None = None) -> dict:
    """One metrics-table row comparing a run against the reference front.

    gain is optional because computing it needs the process model and the
    initial log; callers without them leave the column empty.
    """
    return {
        "label": run.label,
        "points": len(run),
        "hausdorff": averaged_hausdorff(run, reference),
        "purity": purity(run, reference),
        "gain": gain,
    }


def render_metrics_csv(rows: Sequence[dict]) -> str:
    lines = [METRICS_CSV_HEADER]
    for row in rows:
        gain = row.get("gain")
        gain_cell = "" if gain is None else repr(gain)
        lines.append(
            f"{row['label']},{row['points']},{row['hausdorff']!r},{row['purity']!r},{gain_cell}"
        )
    return "\n".join(lines) + "\n"
