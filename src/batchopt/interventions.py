"""The policy moves of both search arms, and their application.

Each detected pattern prescribes a direction (shrink or grow the size
threshold, add or retune a waiting threshold, align firing with a
schedule).  derive_interventions expands a pattern instance into one
PolicyDelta per applicable scaling factor.  The numbers behind a delta
come from the activity's `ActivityStats` (wait series, batch sizes,
cost, count histograms), except for what only detection computes: the
model-derived schedule histograms of patterns 4 and 8 and the aligned
waits of pattern 9, which the `ScenarioInstance` carries.
random_perturbation draws the unguided arm's moves instead.  Both arms
build a waiting-threshold move with `wait_move`, a size move with
`size_move` and the fixed cost of a created policy with `cost_seed`, so
the arms differ only in where a move's parameters come from.  apply_delta
executes a delta as a pure function from policy set to policy set.  See
docs/patterns.md.
"""

from __future__ import annotations

from .analytics import (
    ActivityStats,
    AnalyticsError,
    Bucket,
    LogStats,
    ScenarioInstance,
    top_buckets,
)
from .codec import check_fields, finite_number
from .model import ProcessModel
from .policy import (
    DAILY_HOUR,
    PARALLEL,
    SEQUENTIAL,
    SIZE,
    WEEK_DAY,
    WT_FIRST,
    WT_LAST,
    BatchingPolicy,
    Condition,
    ConditionGroup,
    CostModel,
    ActivationRule,
    PolicySet,
    in_hours,
    size_at_least,
    wait_first_at_least,
    wait_last_at_least,
    on_days,
)
from .records import Config, Record
from .reduce import mean
from .rng import round_half_up, unit


#: patterns whose prescribed fix shrinks the size threshold
SHRINK_SIZE_SCENARIOS = (5, 7, 14, 15, 16, 19)
#: patterns whose prescribed fix grows the size threshold
GROW_SIZE_SCENARIOS = (6, 10, 11, 12, 13, 17, 18)


class InterventionError(ValueError):
    pass


class InterventionConfig(Config):
    scale_grid: tuple[float, ...] = (0.5, 0.8, 1.25, 2.0)
    min_size: int = 1
    max_size: int = 50
    top_k: int = 3

    def _check(self) -> None:
        check_fields(self, InterventionError)
        if any(finite_number(lam) is None for lam in self.scale_grid):
            raise InterventionError(f"scale grid must hold finite numbers, got {self.scale_grid}")
        if not self.scale_grid or any(lam <= 0 for lam in self.scale_grid):
            raise InterventionError(f"scale grid must be positive, got {self.scale_grid}")
        if self.min_size < 1 or self.max_size < self.min_size:
            raise InterventionError(
                f"need 1 <= min_size <= max_size, got [{self.min_size}, {self.max_size}]"
            )
        if self.top_k < 1:
            raise InterventionError(f"top_k must be >= 1, got {self.top_k}")

    @property
    def shrink_factors(self) -> tuple[float, ...]:
        return tuple(lam for lam in self.scale_grid if lam < 1.0)

    @property
    def grow_factors(self) -> tuple[float, ...]:
        return tuple(lam for lam in self.scale_grid if lam > 1.0)


ADD_CONDITION = "add-condition"
REPLACE_THRESHOLD = "replace-threshold"
ADD_SCHEDULE = "add-schedule"
SCALE_SIZE = "scale-size"
SET_WAIT_THRESHOLDS = "set-wait-thresholds"
TOGGLE_BATCH_TYPE = "toggle-batch-type"
DELTA_KINDS = (
    ADD_CONDITION,
    REPLACE_THRESHOLD,
    ADD_SCHEDULE,
    SCALE_SIZE,
    SET_WAIT_THRESHOLDS,
    TOGGLE_BATCH_TYPE,
)


class PolicyDelta(Record):
    """One reified policy edit, carrying its provenance for the audit trail."""

    __slots__ = ("activity_id", "kind", "scenario_id", "scale", "condition_kind",
                 "new_threshold", "new_last_threshold", "schedule", "constrain",
                 "new_policy_fixed_cost")

    def __init__(
        self,
        activity_id: str,
        kind: str,
        scenario_id: int = 0,
        scale: float = 1.0,
        condition_kind: str = "",
        new_threshold: float = 0.0,
        new_last_threshold: float = 0.0,
        schedule: tuple[Bucket, ...] = (),
        constrain: bool = False,
        new_policy_fixed_cost: float = 0.0,
    ):
        self.activity_id = activity_id
        self.kind = kind
        self.scenario_id = scenario_id  # 0 = random perturbation, no pattern behind it
        self.scale = scale
        self.condition_kind = condition_kind  # add-condition / replace-threshold target
        self.new_threshold = new_threshold
        self.new_last_threshold = new_last_threshold  # set-wait-thresholds only
        self.schedule = schedule  # add-schedule only
        self.constrain = constrain  # add-schedule: tighten existing groups instead
        self.new_policy_fixed_cost = new_policy_fixed_cost  # cost seed when the edit creates a policy
        if self.kind not in DELTA_KINDS:
            raise InterventionError(f"unknown delta kind {self.kind!r}")


def delta_to_doc(delta: PolicyDelta) -> dict:
    return {
        "activity": delta.activity_id,
        "kind": delta.kind,
        "scenario": delta.scenario_id,
        "scale": delta.scale,
        "conditionKind": delta.condition_kind,
        "threshold": delta.new_threshold,
        "lastThreshold": delta.new_last_threshold,
        "schedule": [list(b) for b in delta.schedule],
        "constrain": delta.constrain,
        "newPolicyFixedCost": delta.new_policy_fixed_cost,
    }


# -- threshold arithmetic ---------------------------------------------------


def scale_size_threshold(sizes, lam: float, config: InterventionConfig = InterventionConfig()) -> int:
    """New size threshold: the mean observed batch size scaled by lam,
    rounded half-up and clamped to the configured size range."""
    if not sizes:
        raise InterventionError("cannot scale a size threshold without observed batch sizes")
    if lam <= 0:
        raise InterventionError(f"scaling factor must be positive, got {lam}")
    scaled = lam * mean(sizes)
    # clamped before rounding: an inf product cannot be rounded, and
    # rounding max_size itself is off by one past 2**52
    size = config.max_size if scaled >= config.max_size else round_half_up(scaled)
    return max(config.min_size, size)


def compute_wt_first_threshold(per_batch_max_waits, lam: float) -> float:
    """Scaled mean of the longest member wait seen in each batch."""
    if not per_batch_max_waits:
        raise InterventionError("no batch waits to derive a wt-first threshold from")
    return lam * mean(per_batch_max_waits)


def compute_wt_last_threshold(per_batch_min_waits, lam: float) -> float:
    """Scaled mean of the shortest member wait seen in each batch."""
    if not per_batch_min_waits:
        raise InterventionError("no batch waits to derive a wt-last threshold from")
    return lam * mean(per_batch_min_waits)


def build_schedule_set(histogram, top_k: int) -> tuple[Bucket, ...]:
    """The heaviest (weekday, hour) buckets, heaviest first; ties resolved
    by (weekday, hour) ascending."""
    items = dict(histogram)
    chosen = top_buckets(items, top_k)
    if not chosen:
        raise InterventionError("schedule histogram holds no positive buckets")
    return tuple(chosen)


# -- the moves both arms share ------------------------------------------------


def cost_seed(astats: ActivityStats | None) -> float:
    """The fixed cost of a policy that a move creates: the activity's mean
    cost per execution, 0 when it never ran."""
    if astats is None or astats.execution_count == 0:
        return 0.0
    return astats.total_cost / astats.execution_count


def wait_move(policy: BatchingPolicy | None, activity_id: str, condition_kind: str,
              threshold: float, **provenance) -> PolicyDelta:
    """Set a waiting threshold: retune the rule's conditions of that kind
    when it has any, else add one in a group of its own.  `provenance`
    holds the other `PolicyDelta` fields."""
    retune = policy is not None and policy.rule.has_kind(condition_kind)
    kind = REPLACE_THRESHOLD if retune else ADD_CONDITION
    return PolicyDelta(
        activity_id, kind, condition_kind=condition_kind, new_threshold=threshold, **provenance
    )


def size_move(activity_id: str, sizes, lam: float, seed_cost: float,
              config: InterventionConfig, scenario_id: int = 0) -> PolicyDelta:
    """Set the size threshold to `scale_size_threshold(sizes, lam)`."""
    threshold = float(scale_size_threshold(sizes, lam, config))
    return PolicyDelta(activity_id, SCALE_SIZE, scenario_id, lam, new_threshold=threshold,
                       new_policy_fixed_cost=seed_cost)


# -- pattern -> deltas ------------------------------------------------------


def derive_interventions(
    instance: ScenarioInstance,
    stats: LogStats,
    policies: PolicySet,
    config: InterventionConfig = InterventionConfig(),
) -> list[PolicyDelta]:
    """Expand one detected pattern into concrete deltas, one per applicable
    scaling factor (or one per schedule criterion)."""
    sid = instance.scenario_id
    activity_id = instance.activity_id
    try:
        a = stats.activity(activity_id)
    except AnalyticsError as err:
        raise InterventionError(str(err)) from err
    policy = policies.get(activity_id)
    deltas: list[PolicyDelta] = []

    def schedule_delta(histogram, constrain=False):
        return PolicyDelta(
            activity_id=activity_id,
            kind=ADD_SCHEDULE,
            scenario_id=sid,
            schedule=build_schedule_set(histogram, config.top_k),
            constrain=constrain,
        )

    if sid in (1, 2):
        if policy is None:
            raise InterventionError(f"pattern {sid} requires a batched activity")
        kind, waits, compute = (
            (WT_FIRST, a.per_batch_max_waits, compute_wt_first_threshold)
            if sid == 1
            else (WT_LAST, a.per_batch_min_waits, compute_wt_last_threshold)
        )
        deltas.extend(
            wait_move(policy, activity_id, kind, compute(waits, lam), scenario_id=sid, scale=lam)
            for lam in config.shrink_factors
        )
    elif sid == 3:
        for histogram in (a.enablement_histogram, a.execution_histogram):
            delta = schedule_delta(histogram)
            if not deltas or deltas[0].schedule != delta.schedule:
                deltas.append(delta)
    elif sid == 4:
        deltas.append(schedule_delta(instance.histograms[0]))
    elif sid == 8:
        deltas.extend(schedule_delta(h, constrain=True) for h in instance.histograms if h)
    elif sid == 9:
        if not instance.aligned_first_waits or not instance.aligned_last_waits:
            raise InterventionError("pattern 9 instance lacks window-aligned waits")
        first, last = mean(instance.aligned_first_waits), mean(instance.aligned_last_waits)
        deltas.extend(
            PolicyDelta(activity_id, SET_WAIT_THRESHOLDS, sid, lam, new_threshold=lam * first,
                        new_last_threshold=lam * last)
            for lam in config.scale_grid
        )
    elif sid in SHRINK_SIZE_SCENARIOS or sid in GROW_SIZE_SCENARIOS:
        factors = (
            config.shrink_factors if sid in SHRINK_SIZE_SCENARIOS else config.grow_factors
        )
        deltas.extend(
            size_move(activity_id, a.batch_sizes, lam, cost_seed(a), config, scenario_id=sid)
            for lam in factors
        )
    else:
        raise InterventionError(f"no intervention mapping for pattern {sid}")
    return deltas


# -- random moves -------------------------------------------------------------

DEFAULT_PERTURBATIONS = 5
FALLBACK_MAX_WAIT = 8 * 3600.0  # waiting-threshold draw range when no batch waited


def random_perturbation(
    model: ProcessModel,
    stats: LogStats | None,
    policies: PolicySet,
    seed: int,
    config: InterventionConfig = InterventionConfig(),
    count: int = DEFAULT_PERTURBATIONS,
) -> list[PolicyDelta]:
    """count random moves of the unguided arm, uniform over five move
    kinds: rescale the first size threshold (1 when the rule has none),
    set either waiting threshold (drawn up to the longest per-batch wait
    seen), add a random weekly slot, or flip the batch type (batched
    activities only).

    Draws are keyed on (seed, move index) so a fixed seed reproduces the
    exact list regardless of call order."""
    activities = sorted(a.id for a in model.activities)
    by_activity = {a.activity_id: a for a in stats.activities} if stats is not None else {}
    waits = [max(a.per_batch_max_waits) for a in by_activity.values() if a.per_batch_max_waits]
    max_wait = float(max(waits, default=0)) or FALLBACK_MAX_WAIT

    deltas = []
    for i in range(count):
        activity_id = activities[int(unit(seed, i, "activity") * len(activities))]
        policy = policies.get(activity_id)
        seed_cost = cost_seed(by_activity.get(activity_id))
        kinds = [SCALE_SIZE, WT_FIRST, WT_LAST, ADD_SCHEDULE]
        if policy is not None:
            kinds.append(TOGGLE_BATCH_TYPE)
        kind = kinds[int(unit(seed, i, "kind") * len(kinds))]
        if kind == SCALE_SIZE:
            lam = config.scale_grid[int(unit(seed, i, "lambda") * len(config.scale_grid))]
            groups = policy.rule.groups if policy is not None else ()
            size = next((g.find(SIZE) for g in groups if g.find(SIZE)), None)
            base = size.threshold if size is not None else 1.0  # a new condition starts minimal
            deltas.append(size_move(activity_id, (base,), lam, seed_cost, config))
        elif kind in (WT_FIRST, WT_LAST):
            threshold = unit(seed, i, "wait") * max_wait
            deltas.append(
                wait_move(policy, activity_id, kind, threshold, new_policy_fixed_cost=seed_cost)
            )
        elif kind == ADD_SCHEDULE:
            slot = (int(unit(seed, i, "day") * 7), int(unit(seed, i, "hour") * 24))
            deltas.append(
                PolicyDelta(
                    activity_id, ADD_SCHEDULE, schedule=(slot,), new_policy_fixed_cost=seed_cost
                )
            )
        else:
            deltas.append(PolicyDelta(activity_id, TOGGLE_BATCH_TYPE))
    return deltas


# -- delta application ------------------------------------------------------


def _replace_thresholds(rule: ActivationRule, kind: str, value: float) -> ActivationRule:
    groups = []
    hits = 0
    for group in rule.groups:
        conditions = []
        for c in group.conditions:
            if c.kind == kind:
                conditions.append(c._replace(threshold=value))
                hits += 1
            else:
                conditions.append(c)
        groups.append(ConditionGroup(tuple(conditions)))
    if hits == 0:
        raise InterventionError(f"policy has no {kind!r} condition to retune")
    return ActivationRule(tuple(groups))


def _append_group(rule: ActivationRule, *conditions: Condition) -> ActivationRule:
    return ActivationRule(rule.groups + (ConditionGroup(tuple(conditions)),))


def _set_or_append(rule: ActivationRule, kind: str, condition: Condition, value: float) -> ActivationRule:
    if rule.has_kind(kind):
        return _replace_thresholds(rule, kind, value)
    return _append_group(rule, condition)


def _constrain_with_schedule(rule: ActivationRule, schedule) -> ActivationRule:
    """Tighten every group so it can only fire inside the schedule's slots."""
    new_groups = []
    for group in rule.groups:
        for day, hour in schedule:
            conditions = []
            feasible = True
            had_hour = had_day = False
            for c in group.conditions:
                if c.kind == DAILY_HOUR:
                    had_hour = True
                    if hour in c.hours:
                        conditions.append(c._replace(hours=(hour,)))
                    else:
                        feasible = False
                        break
                elif c.kind == WEEK_DAY:
                    had_day = True
                    if day in c.days:
                        conditions.append(c._replace(days=(day,)))
                    else:
                        feasible = False
                        break
                else:
                    conditions.append(c)
            if not feasible:
                continue
            if not had_day:
                conditions.append(on_days(day))
            if not had_hour:
                conditions.append(in_hours(hour))
            candidate = ConditionGroup(tuple(conditions))
            if candidate not in new_groups:
                new_groups.append(candidate)
    if not new_groups:
        raise InterventionError("schedule constraint would leave the rule unable to fire")
    return ActivationRule(tuple(new_groups))


def apply_delta(policies: PolicySet, delta: PolicyDelta) -> PolicySet:
    """Apply one delta, returning a new policy set; the input is untouched.

    A delta touching an unbatched activity first gives it a parallel
    policy with an empty rule, then edits that."""
    policy = policies.get(delta.activity_id)
    if policy is None:
        if delta.kind == TOGGLE_BATCH_TYPE:
            raise InterventionError(
                f"cannot toggle batch type: activity {delta.activity_id!r} is not batched"
            )
        policy = BatchingPolicy(delta.activity_id, PARALLEL, ActivationRule(),
                                CostModel(fixed_cost=delta.new_policy_fixed_cost))

    rule = policy.rule
    batch_type = policy.batch_type
    if delta.kind == ADD_CONDITION:
        if delta.condition_kind == WT_FIRST:
            rule = _append_group(rule, wait_first_at_least(delta.new_threshold))
        elif delta.condition_kind == WT_LAST:
            rule = _append_group(rule, wait_last_at_least(delta.new_threshold))
        else:
            raise InterventionError(f"cannot add condition of kind {delta.condition_kind!r}")
    elif delta.kind == REPLACE_THRESHOLD:
        rule = _replace_thresholds(rule, delta.condition_kind, delta.new_threshold)
    elif delta.kind == SCALE_SIZE:
        rule = _set_or_append(rule, SIZE, size_at_least(int(delta.new_threshold)), delta.new_threshold)
    elif delta.kind == SET_WAIT_THRESHOLDS:
        rule = _set_or_append(
            rule, WT_FIRST, wait_first_at_least(delta.new_threshold), delta.new_threshold
        )
        rule = _set_or_append(
            rule, WT_LAST, wait_last_at_least(delta.new_last_threshold), delta.new_last_threshold
        )
    elif delta.kind == ADD_SCHEDULE:
        if delta.constrain and rule.groups:
            rule = _constrain_with_schedule(rule, delta.schedule)
        else:
            for day, hour in delta.schedule:
                rule = _append_group(rule, on_days(day), in_hours(hour))
    elif delta.kind == TOGGLE_BATCH_TYPE:
        batch_type = SEQUENTIAL if batch_type == PARALLEL else PARALLEL
    else:
        raise InterventionError(f"unknown delta kind {delta.kind!r}")

    out = dict(policies)
    out[delta.activity_id] = BatchingPolicy(delta.activity_id, batch_type, rule, policy.cost)
    return out
