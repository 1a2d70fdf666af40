"""Front-quality metrics for comparing optimizer runs.

Runs are compared against a reference front: the non-dominated union of
every run's front. Convergence is measured with the averaged Hausdorff
distance (symmetric mean-RMS distance, raw objective units), diversity
with purity (the fraction of a run's points that survive into the
reference), and end-to-end benefit with the cycle time gain of the best
solution over the initial policy set.  `compare_fronts` makes the whole
comparison, and `CycleTimes` prices the policy sets behind each gain.
"""

from __future__ import annotations

import math
from typing import Sequence

from .engine import CompiledModel, SamplePath, SimConfig, as_compiled, simulate
# case_cycle_time is not called here, but the benchmark's layer trace
# (perfbench/layers.py) wraps it under this module's name.
from .eventlog import EventLog, case_cycle_time, filter_warmup  # noqa: F401
from .model import ProcessModel
from .pareto import ParetoFront, Point, Solution, dominates
from .policy import PolicySet, policy_set_key
from .records import Record

PURITY_TOLERANCE = 1e-9

METRICS_CSV_HEADER = "label,points,hausdorff,purity,gain"


class MetricsError(ValueError):
    """Raised when a metric is evaluated on inputs it is not defined for."""


class FrontPointSet(Record):
    """A labelled set of objective points produced by one optimizer run."""

    __slots__ = ("points", "label")

    def __init__(self, points: tuple[Point, ...], label: str = ""):
        self.points = points
        self.label = label
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


def weakly_dominates(covering: FrontPointSet, covered: FrontPointSet) -> bool:
    """True when every point of `covered` is matched or beaten on both
    objectives by some point of `covering`."""
    return all(
        any(g[0] <= u[0] and g[1] <= u[1] for g in covering.points) for u in covered.points
    )


def mean_case_cycle_time(log: EventLog) -> float:
    """Mean wall-clock cycle time over the log's cases.

    One pass folds each case's first start and last completion, so this
    agrees with averaging `case_cycle_time` over the log's case ids.  The
    spans are ints, so their sum is exact in any order.
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
    return sum(last - first for first, last in spans.values()) / len(spans)


class CycleTimes:
    """Mean case cycle time per policy set, for one model and run config.

    The model is compiled once, and every simulation replays one
    `SamplePath` that the first fills.  Means are memoized by
    `policy_set_key`, so each distinct policy set simulates at most once.
    """

    __slots__ = ("compiled", "config", "path", "memo")

    def __init__(self, model: CompiledModel | ProcessModel, config: SimConfig):
        self.compiled = as_compiled(model)
        self.config = config
        self.path = SamplePath()
        self.memo: dict[tuple, float] = {}

    def mean(self, policies: PolicySet) -> float:
        """Mean cycle time of the cases after the warmup under `policies`."""
        key = policy_set_key(policies)
        mean = self.memo.get(key)
        if mean is None:
            log = simulate(self.compiled, policies, self.config, self.path).log
            mean = self.memo[key] = mean_case_cycle_time(filter_warmup(log, self.config.warmup))
        return mean


def cycle_time_gain(
    baseline: float, solutions: Sequence[Solution], cycle_times: CycleTimes
) -> float:
    """Cycle time saved by the best solution relative to `baseline`, the
    initial policy set's mean: the baseline minus the smallest solution
    mean.  Negative when every solution is slower."""
    if not solutions:
        raise MetricsError("cycle_time_gain needs at least one solution")
    return baseline - min(cycle_times.mean(sol.policies) for sol in solutions)


def metrics_row(run: FrontPointSet, reference: FrontPointSet, gain: float | None = None) -> dict:
    """One metrics-table row comparing a run against the reference front.

    gain is optional because computing it needs the process model and the
    initial policies; callers without them leave the column empty.
    """
    return {
        "label": run.label,
        "points": len(run),
        "hausdorff": averaged_hausdorff(run, reference),
        "purity": purity(run, reference),
        "gain": gain,
    }


def compare_fronts(
    labelled_fronts: Sequence[tuple[str, ParetoFront]],
    gains: Sequence[float | None] | None = None,
) -> tuple[ParetoFront, list[dict], bool | None]:
    """Score labelled fronts against the reference front of them all.

    Returns the reference front, holding for each point the first input
    solution that has it; one `metrics_row` per front in input order,
    with its gain from `gains` when given; and whether `++` weakly
    dominates `--`.  `++` and `--` are the reference fronts of the fronts
    whose labels end in `+` and in `-`; when both exist their rows follow
    the others, and otherwise the verdict is None.
    """
    runs = [FrontPointSet(front.points, label) for label, front in labelled_fronts]
    reference = build_reference_front(runs)
    rows = [
        metrics_row(run, reference, gain)
        for run, gain in zip(runs, gains or [None] * len(runs))
    ]
    covered = None
    guided = [r for r in runs if r.label.endswith("+")]
    unguided = [r for r in runs if r.label.endswith("-")]
    if guided and unguided:
        plus = build_reference_front(guided, label="++")
        minus = build_reference_front(unguided, label="--")
        rows += [metrics_row(plus, reference), metrics_row(minus, reference)]
        covered = weakly_dominates(plus, minus)
    first: dict[Point, Solution] = {}
    for _, front in labelled_fronts:
        for solution in front.solutions:
            first.setdefault(solution.point, solution)
    return ParetoFront(tuple(first[p] for p in reference.points)), rows, covered


def render_metrics_csv(rows: Sequence[dict]) -> str:
    lines = [METRICS_CSV_HEADER]
    for row in rows:
        gain = row.get("gain")
        gain_cell = "" if gain is None else repr(gain)
        lines.append(
            f"{row['label']},{row['points']},{row['hausdorff']!r},{row['purity']!r},{gain_cell}"
        )
    return "\n".join(lines) + "\n"
