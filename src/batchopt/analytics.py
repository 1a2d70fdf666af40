"""Event-log analytics: aggregate statistics and inefficiency detection.

compute_stats reduces an event log to one `ActivityStats` per activity
and one `ResourceStats` per resource: the only reduction of the log
that detection and the interventions module read.  detect_scenarios then
evaluates the nineteen inefficiency patterns against those stats and
emits one ScenarioInstance per (pattern, activity) hit.  An instance
carries the numbers that tripped the trigger and what detection computes
beyond the stats (the model-derived schedule histograms of patterns 4
and 8, the window-aligned waits of pattern 9); the fix of every other
pattern reads the activity's stats.  See docs/patterns.md.

Patterns by id:
  1/2   excessive first/last-instance waiting in batches
  3     enablement or execution peaks not reflected in the schedule
  4     batches starting when few resources are available
  5     oversized batches inflating waits
  6     long parallel work in undersized batches
  7     sequential batching (no processing-time advantage)
  8/9   mid-execution idle from availability misalignment
  10    subadditive variable cost (bulk discount unexploited)
  11/12 high-cost / high-frequency activities worth amortizing
  13/14 low-cost activities with(out) a similarly-timed partner
  15    cost per instance not improving with batch size
  16/17 resource over/under-utilization
  18/19 high/low resource switching between consecutive batches
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .calendars import (
    SECONDS_PER_DAY,
    SECONDS_PER_HOUR,
    SECONDS_PER_WEEK,
    Calendar,
    hour_of,
    weekday_of,
)
from .codec import check_fields
from .eventlog import EventLog
from .model import ProcessModel
from .policy import (
    DAILY_HOUR,
    PARALLEL,
    SEQUENTIAL,
    SIZE,
    WEEK_DAY,
    BatchingPolicy,
    PolicySet,
)
from .records import Config, Record
from .reduce import dot, mean, median, percentile, running_sum

SCENARIO_IDS = tuple(range(1, 20))

#: how far past a batch's start pattern 9 looks for a window that fits it
ALIGN_HORIZON = 4 * SECONDS_PER_WEEK


class AnalyticsError(ValueError):
    pass


Bucket = tuple[int, int]  # (weekday, hour of day)


def bucket_of(t: int) -> Bucket:
    return (weekday_of(t), hour_of(t))


class ActivityStats(NamedTuple):
    activity_id: str
    execution_count: int
    mean_processing_time: float
    mean_first_wait: float  # mean over batches of the longest member wait
    mean_last_wait: float  # mean over batches of the shortest member wait
    mean_batch_size: float
    total_waiting: float
    total_cost: float
    enablement_histogram: dict[Bucket, int]
    execution_histogram: dict[Bucket, int]
    # per-batch series, ordered by batch start
    batch_sizes: tuple[int, ...]
    batch_starts: tuple[int, ...]
    batch_resources: tuple[str, ...]
    per_batch_max_waits: tuple[int, ...]
    per_batch_min_waits: tuple[int, ...]
    per_batch_busy: tuple[int, ...]
    idle_batch_share: float  # fraction of batches interrupted by closed time
    switch_rate: float  # consecutive batch pairs handled by different resources
    distinct_resource_count: int
    # (size, mean cost per instance) by ascending size; only filled when
    # the activity ran batches of two or more sizes
    cost_by_size: tuple[tuple[int, float], ...]

    @property
    def batch_count(self) -> int:
        return len(self.batch_sizes)


class ResourceStats(NamedTuple):
    resource_id: str
    utilization: float  # busy seconds / calendar-open seconds over the log span


class LogStats(NamedTuple):
    activities: tuple[ActivityStats, ...]
    resources: tuple[ResourceStats, ...]

    def activity(self, activity_id: str) -> ActivityStats:
        for s in self.activities:
            if s.activity_id == activity_id:
                return s
        raise AnalyticsError(f"no stats for activity {activity_id!r}")

    def resource(self, resource_id: str) -> ResourceStats:
        for s in self.resources:
            if s.resource_id == resource_id:
                return s
        raise AnalyticsError(f"no stats for resource {resource_id!r}")


def compute_stats(log: EventLog, model: ProcessModel) -> LogStats:
    """Aggregate the log; raises AnalyticsError on an empty log."""
    if not log.instances:
        raise AnalyticsError("cannot analyze an empty event log")

    horizon = max(r.end_time for r in log.instances)
    enable_times = [r.enable_time for r in log.instances]
    by_activity: dict[str, list] = {}
    for batch in log.batches:
        by_activity.setdefault(batch.activity_id, []).append(batch)

    # `week[t % SECONDS_PER_WEEK // SECONDS_PER_HOUR]` is `bucket_of(t)`; a
    # table keyed by the hour since the epoch would grow with the log's span
    week = [(day, hour) for day in range(7) for hour in range(24)]

    activity_stats = []
    for activity_id in sorted(by_activity):
        in_log_order = by_activity[activity_id]
        batches = sorted(in_log_order, key=lambda b: (b.start_time, b.batch_id))
        instances = [log.instances[i] for b in batches for i in b.members]
        max_waits, min_waits, sizes, starts, executors, busy = [], [], [], [], [], []
        interrupted = 0
        for b in batches:
            enables = [enable_times[i] for i in b.members]
            max_waits.append(b.start_time - min(enables))
            min_waits.append(b.start_time - max(enables))
            sizes.append(b.size)
            starts.append(b.start_time)
            executors.append(b.resource_id)
            busy.append(b.busy_seconds)
            if (b.end_time - b.start_time) > b.busy_seconds:
                interrupted += 1
        switches = sum(x != y for x, y in zip(executors, executors[1:]))
        cost_by_size = ()
        if len(set(sizes)) >= 2:
            per_size: dict[int, list[float]] = {}
            for b in in_log_order:  # log order fixes the bits of each mean
                per_size.setdefault(b.size, []).append(b.cost / b.size)
            cost_by_size = tuple((s, mean(per_size[s])) for s in sorted(per_size))
        enablement_hist: dict[Bucket, int] = {}
        execution_hist: dict[Bucket, int] = {}
        for rec in instances:
            key = week[rec.enable_time % SECONDS_PER_WEEK // SECONDS_PER_HOUR]
            enablement_hist[key] = enablement_hist.get(key, 0) + 1
            key = week[rec.start_time % SECONDS_PER_WEEK // SECONDS_PER_HOUR]
            execution_hist[key] = execution_hist.get(key, 0) + 1
        activity_stats.append(
            ActivityStats(
                activity_id=activity_id,
                execution_count=len(instances),
                mean_processing_time=mean([r.work_seconds for r in instances]),
                mean_first_wait=mean(max_waits),
                mean_last_wait=mean(min_waits),
                mean_batch_size=mean(sizes),
                total_waiting=float(sum(r.start_time - r.enable_time for r in instances)),
                total_cost=float(running_sum(b.cost for b in batches)),
                enablement_histogram=enablement_hist,
                execution_histogram=execution_hist,
                batch_sizes=tuple(sizes),
                batch_starts=tuple(starts),
                batch_resources=tuple(executors),
                per_batch_max_waits=tuple(max_waits),
                per_batch_min_waits=tuple(min_waits),
                per_batch_busy=tuple(busy),
                idle_batch_share=interrupted / len(batches),
                switch_rate=switches / (len(batches) - 1) if len(batches) > 1 else 0.0,
                distinct_resource_count=len(set(executors)),
                cost_by_size=cost_by_size,
            )
        )

    busy_by_resource: dict[str, int] = {}
    for batch in log.batches:
        busy_by_resource[batch.resource_id] = (
            busy_by_resource.get(batch.resource_id, 0) + batch.busy_seconds
        )
    resource_stats = []
    for profile in model.resources:
        available = profile.calendar.open_seconds_between(0, horizon)
        busy = busy_by_resource.get(profile.id, 0)
        utilization = min(1.0, busy / available) if available > 0 else 0.0
        resource_stats.append(ResourceStats(resource_id=profile.id, utilization=utilization))

    return LogStats(activities=tuple(activity_stats), resources=tuple(resource_stats))


class DetectionConfig(Config):
    """Trigger thresholds for the nineteen patterns, one knob per predicate."""

    wait_quantile: float = 0.75  # patterns 1, 2, 5: wait above this quantile
    processing_quantile: float = 0.75  # pattern 6
    concentration_share: float = 0.5  # pattern 3: mass held by the top buckets
    top_k: int = 3  # pattern 3: bucket count examined
    size_cap: float = 10.0  # pattern 6: mean batch size considered small
    idle_share: float = 0.2  # patterns 8, 9: interrupted-batch fraction
    cost_share: float = 0.25  # patterns 11, 13, 14
    freq_share: float = 0.25  # patterns 12, 14
    similarity_threshold: float = 0.8  # patterns 13, 14: histogram cosine
    utilization_high: float = 0.8  # pattern 16
    utilization_low: float = 0.3  # pattern 17
    switch_high: float = 0.5  # pattern 18
    switch_low: float = 0.2  # pattern 19

    def _check(self) -> None:
        check_fields(self, AnalyticsError)
        for name in ("wait_quantile", "processing_quantile"):
            q = getattr(self, name)
            if not 0.0 < q < 1.0:
                raise AnalyticsError(f"{name} must lie in (0, 1), got {q}")
        for name in (
            "concentration_share",
            "idle_share",
            "cost_share",
            "freq_share",
            "similarity_threshold",
            "utilization_high",
            "utilization_low",
            "switch_high",
            "switch_low",
        ):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise AnalyticsError(f"{name} must lie in [0, 1], got {v}")
        if self.top_k < 1:
            raise AnalyticsError(f"top_k must be >= 1, got {self.top_k}")
        if self.size_cap < 1:
            raise AnalyticsError(f"size_cap must be >= 1, got {self.size_cap}")


class ScenarioInstance(Record):
    """One pattern hit on one activity.

    `observed` holds the numbers behind the trigger. The other fields hold
    what detection computes beyond the activity's stats: the model-derived
    schedule histograms of patterns 4 and 8, and the window-aligned waits
    of pattern 9. The fixes of the other patterns read the stats.
    """

    __slots__ = ("scenario_id", "activity_id", "observed", "histograms",
                 "aligned_first_waits", "aligned_last_waits")

    def __init__(
        self,
        scenario_id: int,
        activity_id: str,
        observed: tuple[tuple[str, float], ...] = (),
        histograms: tuple[tuple[tuple[Bucket, float], ...], ...] = (),
        aligned_first_waits: tuple[float, ...] = (),
        aligned_last_waits: tuple[float, ...] = (),
    ):
        self.scenario_id = scenario_id
        self.activity_id = activity_id
        self.observed = observed
        self.histograms = histograms
        self.aligned_first_waits = aligned_first_waits
        self.aligned_last_waits = aligned_last_waits
        if self.scenario_id not in SCENARIO_IDS:
            raise AnalyticsError(f"unknown scenario id {self.scenario_id}")


def _as_sorted_items(hist: dict[Bucket, float]) -> tuple[tuple[Bucket, float], ...]:
    return tuple(sorted(hist.items()))


def _quantile(values, q: float) -> float:
    return percentile(values, q * 100.0)


def _has_condition(policy: BatchingPolicy | None, kind: str) -> bool:
    return policy is not None and policy.rule.has_kind(kind)


def cosine_similarity(a: dict[Bucket, float], b: dict[Bucket, float]) -> float:
    keys = set(a) | set(b)
    if not keys:
        return 0.0
    va = [a.get(k, 0.0) for k in sorted(keys)]
    vb = [b.get(k, 0.0) for k in sorted(keys)]
    na, nb = math.sqrt(dot(va, va)), math.sqrt(dot(vb, vb))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return dot(va, vb) / (na * nb)


def _schedule_covers(policy: BatchingPolicy | None, buckets) -> bool:
    """True when every (weekday, hour) bucket can fire under some rule group
    holding a matching daily-hour condition."""
    if policy is None:
        return False
    for day, hour in buckets:
        covered = False
        for group in policy.rule.groups:
            hour_cond = group.find(DAILY_HOUR)
            if hour_cond is None or hour not in hour_cond.hours:
                continue
            day_cond = group.find(WEEK_DAY)
            if day_cond is not None and day not in day_cond.days:
                continue
            covered = True
            break
        if not covered:
            return False
    return True


def top_buckets(hist: dict[Bucket, float], k: int) -> list[Bucket]:
    """The k heaviest buckets; ties resolved by (weekday, hour) ascending."""
    ranked = sorted(hist.items(), key=lambda item: (-item[1], item[0]))
    return [bucket for bucket, count in ranked[:k] if count > 0]


def availability_histogram(model: ProcessModel, activity_id: str) -> dict[Bucket, float]:
    """Summed open-hour fractions of the activity's eligible resources."""
    hist: dict[Bucket, float] = {}
    for rid in model.activity(activity_id).resources:
        cal = model.resource(rid).calendar
        for d in range(7):
            for h in range(24):
                frac = cal.hour_fraction(d, h)
                if frac > 0.0:
                    hist[(d, h)] = hist.get((d, h), 0.0) + frac
    return hist


def weekly_windows(cal: Calendar) -> list[tuple[int, int]]:
    """Maximal open windows of one canonical week, as (start, end) seconds
    with start expressed within [0, one week)."""
    windows = []
    anchor = SECONDS_PER_WEEK
    for ws, we in cal.windows_from(anchor):
        if ws >= anchor + SECONDS_PER_WEEK:
            break
        if ws == anchor and cal.contains(anchor - 1):
            continue  # continuation of a window that began the previous week
        windows.append((ws - anchor, we - anchor))
    return windows


def window_start_histogram(model: ProcessModel, activity_id: str) -> dict[Bucket, float]:
    """Buckets holding availability-window beginnings, weighted by window
    length so longer windows rank first."""
    hist: dict[Bucket, float] = {}
    for rid in model.activity(activity_id).resources:
        for ws, we in weekly_windows(model.resource(rid).calendar):
            key = ((ws // SECONDS_PER_DAY) % 7, (ws % SECONDS_PER_DAY) // SECONDS_PER_HOUR)
            hist[key] = hist.get(key, 0.0) + float(we - ws)
    return hist


def open_runs(model: ProcessModel, activity_id: str) -> tuple[tuple[Bucket, int], ...]:
    """Each (weekday, hour) slot whose start an eligible resource's
    calendar holds open, with the open run from that start, resource by
    resource."""
    runs = []
    for rid in model.activity(activity_id).resources:
        cal = model.resource(rid).calendar
        for d in range(7):
            for h in range(24):
                t = SECONDS_PER_WEEK + d * SECONDS_PER_DAY + h * SECONDS_PER_HOUR
                if cal.contains(t):
                    runs.append(((d, h), cal.open_end(t) - t))
    return tuple(runs)


def fitting_slot_histogram(
    runs: tuple[tuple[Bucket, int], ...], mean_busy: float
) -> dict[Bucket, float]:
    """Buckets from whose start the open run (see `open_runs`) is long
    enough for a typical batch, weighted by that remaining open run."""
    hist: dict[Bucket, float] = {}
    for bucket, remaining in runs:
        if remaining >= mean_busy:
            hist[bucket] = max(hist.get(bucket, 0.0), float(remaining))
    return hist


class ScheduleTables:
    """The tables detection reads that depend on the model alone: per
    activity, its `availability_histogram` (pattern 4), its
    `window_start_histogram` and its `open_runs` (pattern 8).  Each is
    built on first use and kept, so detecting many logs of one model builds
    each once; a `CompiledModel` holds its model's in `schedules`."""

    __slots__ = ("model", "_tables")

    def __init__(self, model: ProcessModel):
        self.model = model
        self._tables: dict = {}

    def table(self, build, activity_id: str):
        """`build(model, activity_id)`, built on the first call only."""
        key = (build, activity_id)
        if key not in self._tables:
            self._tables[key] = build(self.model, activity_id)
        return self._tables[key]


def window_aligned_waits(
    a: ActivityStats, calendars: dict[str, Calendar]
) -> tuple[list[float], list[float]]:
    """Per-batch first/last waits the activity would have shown had each
    batch started at the beginning of the nearest availability window (at
    or after the observed start) long enough for a typical batch.

    Raises AnalyticsError when some batch finds no such window within
    `ALIGN_HORIZON` of its start.
    """
    estimate = mean(a.per_batch_busy)
    first, last = [], []
    for start, resource_id, max_wait, min_wait in zip(
        a.batch_starts, a.batch_resources, a.per_batch_max_waits, a.per_batch_min_waits
    ):
        chosen = None
        for ws, we in calendars[resource_id].windows_from(start):
            if ws - start > ALIGN_HORIZON:
                break
            if we - ws >= estimate:
                chosen = ws
                break
        if chosen is None:
            raise AnalyticsError(
                f"no availability window within {ALIGN_HORIZON}s fits batches of "
                f"activity {a.activity_id!r} (need {estimate:.0f}s)"
            )
        shift = chosen - start
        first.append(max(0.0, max_wait + shift))
        last.append(max(0.0, min_wait + shift))
    return first, last


def detect_scenarios(
    log: EventLog,
    model: ProcessModel,
    policies: PolicySet,
    config: DetectionConfig = DetectionConfig(),
    stats: LogStats | None = None,
) -> list[ScenarioInstance]:
    """Evaluate all nineteen trigger predicates; deterministic and pure.

    Pass `stats` when `compute_stats(log, model)` is already at hand.
    """
    if stats is None:
        stats = compute_stats(log, model)
    return detect_scenarios_from_stats(model, policies, stats, config)


def detect_scenarios_from_stats(
    model: ProcessModel,
    policies: PolicySet,
    stats: LogStats,
    config: DetectionConfig = DetectionConfig(),
    schedules: ScheduleTables | None = None,
) -> list[ScenarioInstance]:
    """`detect_scenarios` on stats at hand; pass a `CompiledModel`'s
    `schedules` to build the model's schedule tables once across calls."""
    if schedules is None:
        schedules = ScheduleTables(model)
    acts = stats.activities
    first_wait_threshold = _quantile([a.mean_first_wait for a in acts], config.wait_quantile)
    last_wait_threshold = _quantile([a.mean_last_wait for a in acts], config.wait_quantile)
    processing_threshold = _quantile(
        [a.mean_processing_time for a in acts], config.processing_quantile
    )
    process_cost = running_sum(a.total_cost for a in acts)
    process_count = sum(a.execution_count for a in acts)

    found: list[ScenarioInstance] = []

    def emit(scenario_id, activity_id, **fields):
        found.append(ScenarioInstance(scenario_id, activity_id, **fields))

    for a in acts:
        policy = policies.get(a.activity_id)

        # -- waiting time -------------------------------------------------
        if policy is not None and a.mean_first_wait > first_wait_threshold:
            emit(
                1,
                a.activity_id,
                observed=(("mean_first_wait", a.mean_first_wait), ("threshold", first_wait_threshold)),
            )
        if policy is not None and a.mean_last_wait > last_wait_threshold:
            emit(
                2,
                a.activity_id,
                observed=(("mean_last_wait", a.mean_last_wait), ("threshold", last_wait_threshold)),
            )
        if policy is not None:
            enable_total = sum(a.enablement_histogram.values())
            top = top_buckets(a.enablement_histogram, config.top_k)
            top_mass = sum(a.enablement_histogram[b] for b in top)
            if (
                enable_total > 0
                and top_mass / enable_total >= config.concentration_share
                and not _schedule_covers(policy, top)
            ):
                emit(3, a.activity_id, observed=(("top_bucket_share", top_mass / enable_total),))
        if policy is not None:
            avail = schedules.table(availability_histogram, a.activity_id)
            positive = [v for v in avail.values() if v > 0.0]
            if positive:
                typical = median(positive)
                if any(avail.get(bucket_of(t), 0.0) < typical for t in a.batch_starts):
                    emit(
                        4,
                        a.activity_id,
                        observed=(("availability_median", typical),),
                        histograms=(_as_sorted_items(avail),),
                    )
        if _has_condition(policy, SIZE) and a.mean_first_wait > first_wait_threshold:
            emit(5, a.activity_id, observed=(("mean_first_wait", a.mean_first_wait),))

        # -- processing time ----------------------------------------------
        if (
            policy is not None
            and policy.batch_type == PARALLEL
            and a.mean_processing_time > processing_threshold
            and a.mean_batch_size < config.size_cap
        ):
            emit(6, a.activity_id, observed=(("mean_processing_time", a.mean_processing_time),))
        if policy is not None and policy.batch_type == SEQUENTIAL:
            emit(7, a.activity_id)
        if policy is not None and a.idle_batch_share > config.idle_share:
            mean_busy = mean(a.per_batch_busy)
            emit(
                8,
                a.activity_id,
                observed=(("idle_batch_share", a.idle_batch_share), ("mean_busy", mean_busy)),
                histograms=(
                    _as_sorted_items(schedules.table(window_start_histogram, a.activity_id)),
                    _as_sorted_items(
                        fitting_slot_histogram(schedules.table(open_runs, a.activity_id), mean_busy)
                    ),
                ),
            )
            calendars = {r.id: r.calendar for r in model.resources}
            try:
                aligned_first, aligned_last = window_aligned_waits(a, calendars)
            except AnalyticsError:
                pass  # no usable window; the schedule-based fix still applies
            else:
                emit(
                    9,
                    a.activity_id,
                    observed=(("idle_batch_share", a.idle_batch_share),),
                    aligned_first_waits=tuple(aligned_first),
                    aligned_last_waits=tuple(aligned_last),
                )

        # -- cost ----------------------------------------------------------
        if policy is not None and policy.cost.variable_cost:
            witness = None
            for s in sorted(set(a.batch_sizes)):
                if policy.cost.variable_at(2 * s) < 2 * policy.cost.variable_at(s):
                    witness = s
                    break
            if witness is not None:
                emit(10, a.activity_id, observed=(("subadditive_at_size", float(witness)),))
        cost_share = a.total_cost / process_cost if process_cost > 0 else 0.0
        freq_share = a.execution_count / process_count
        if cost_share > config.cost_share:
            emit(11, a.activity_id, observed=(("cost_share", cost_share),))
        if freq_share > config.freq_share:
            emit(12, a.activity_id, observed=(("freq_share", freq_share),))
        similarity = max(
            (
                cosine_similarity(a.enablement_histogram, other.enablement_histogram)
                for other in acts
                if other.activity_id != a.activity_id
            ),
            default=0.0,
        )
        if cost_share < config.cost_share and similarity > config.similarity_threshold:
            emit(13, a.activity_id, observed=(("similarity", similarity), ("cost_share", cost_share)))
        if (
            cost_share < config.cost_share
            and freq_share < config.freq_share
            and similarity <= config.similarity_threshold
        ):
            emit(14, a.activity_id, observed=(("similarity", similarity), ("cost_share", cost_share)))
        if policy is not None and a.cost_by_size:
            means = [m for _, m in a.cost_by_size]
            if all(later >= earlier for earlier, later in zip(means, means[1:])):
                emit(
                    15,
                    a.activity_id,
                    observed=tuple((f"cost_at_{s}", m) for s, m in a.cost_by_size),
                )

        # -- resources -----------------------------------------------------
        eligible = model.activity(a.activity_id).resources
        utilizations = [stats.resource(rid).utilization for rid in eligible]
        if any(u > config.utilization_high for u in utilizations):
            emit(16, a.activity_id, observed=(("max_utilization", max(utilizations)),))
        if utilizations and all(u < config.utilization_low for u in utilizations):
            emit(17, a.activity_id, observed=(("max_utilization", max(utilizations)),))
        if a.switch_rate > config.switch_high:
            emit(18, a.activity_id, observed=(("switch_rate", a.switch_rate),))
        if a.switch_rate < config.switch_low and _has_condition(policy, SIZE):
            emit(19, a.activity_id, observed=(("switch_rate", a.switch_rate),))

    found.sort(key=lambda s: (s.scenario_id, s.activity_id))
    return found
