"""Batching policies: activation rules in disjunctive normal form plus a
batch cost model.

A rule is a disjunction of condition groups; a group fires when every one
of its conditions holds.  An empty rule never fires (such instances are
only flushed when the simulation drains).  Within a group each condition
kind appears at most once.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

from .calendars import hour_of, weekday_of, WEEKDAY_NAMES, parse_weekday

SEQUENTIAL = "sequential"
PARALLEL = "parallel"
BATCH_TYPES = (SEQUENTIAL, PARALLEL)

SIZE = "size"
WT_FIRST = "wt-first"  # time since the earliest waiting instance enabled
WT_LAST = "wt-last"  # time since the latest waiting instance enabled
DAILY_HOUR = "daily-hour"
WEEK_DAY = "week-day"
CONDITION_KINDS = (SIZE, WT_FIRST, WT_LAST, DAILY_HOUR, WEEK_DAY)

THRESHOLD_KINDS = (SIZE, WT_FIRST, WT_LAST)


class PolicyError(ValueError):
    pass


@dataclass(frozen=True)
class Condition:
    """One atomic activation test.

    size: threshold = minimum number of waiting instances.
    wt-first / wt-last: threshold = waiting seconds of the boundary instance.
    daily-hour: hours = allowed hours of day; week-day: days = allowed weekdays.
    """

    kind: str
    threshold: float = 0.0
    hours: tuple[int, ...] = ()
    days: tuple[int, ...] = ()

    def __post_init__(self):
        if self.kind not in CONDITION_KINDS:
            raise PolicyError(f"unknown condition kind {self.kind!r}")
        if not math.isfinite(self.threshold):
            raise PolicyError(f"{self.kind} threshold must be finite, got {self.threshold!r}")
        if self.kind == SIZE and (self.threshold < 1 or self.threshold != int(self.threshold)):
            raise PolicyError(f"size threshold must be an integer >= 1, got {self.threshold!r}")
        if self.kind in (WT_FIRST, WT_LAST) and self.threshold < 0:
            raise PolicyError(f"{self.kind} threshold must be >= 0")
        if self.kind == DAILY_HOUR:
            if not self.hours:
                raise PolicyError("daily-hour condition needs at least one hour")
            if any(not 0 <= h <= 23 for h in self.hours):
                raise PolicyError(f"daily-hour values out of range: {self.hours}")
        if self.kind == WEEK_DAY:
            if not self.days:
                raise PolicyError("week-day condition needs at least one day")
            if any(not 0 <= d <= 6 for d in self.days):
                raise PolicyError(f"week-day values out of range: {self.days}")


def size_at_least(n: int) -> Condition:
    return Condition(SIZE, threshold=float(n))


def wait_first_at_least(seconds: float) -> Condition:
    return Condition(WT_FIRST, threshold=float(seconds))


def wait_last_at_least(seconds: float) -> Condition:
    return Condition(WT_LAST, threshold=float(seconds))


def in_hours(*hours: int) -> Condition:
    return Condition(DAILY_HOUR, hours=tuple(sorted(set(hours))))


def on_days(*days: int) -> Condition:
    return Condition(WEEK_DAY, days=tuple(sorted(set(days))))


@dataclass(frozen=True)
class ConditionGroup:
    """A conjunction; at most one condition per kind."""

    conditions: tuple[Condition, ...]

    def __post_init__(self):
        kinds = [c.kind for c in self.conditions]
        if len(kinds) != len(set(kinds)):
            raise PolicyError(f"condition kind repeated within a group: {kinds}")
        if not self.conditions:
            raise PolicyError("a condition group cannot be empty")

    def find(self, kind: str) -> Condition | None:
        for c in self.conditions:
            if c.kind == kind:
                return c
        return None


@dataclass(frozen=True)
class ActivationRule:
    """Disjunction of groups; empty rule never activates."""

    groups: tuple[ConditionGroup, ...] = ()

    @property
    def is_empty(self) -> bool:
        return not self.groups

    def has_kind(self, kind: str) -> bool:
        return any(g.find(kind) is not None for g in self.groups)


def rule(*groups) -> ActivationRule:
    """Convenience: rule([condition, ...], ...) from lists of conditions."""
    return ActivationRule(tuple(ConditionGroup(tuple(g)) for g in groups))


@dataclass(frozen=True)
class BatchState:
    """What a rule sees: enable times of waiting instances, in waiting order."""

    waiting_enable_times: tuple[int, ...]

    def __post_init__(self):
        if any(
            a > b
            for a, b in zip(self.waiting_enable_times, self.waiting_enable_times[1:])
        ):
            raise PolicyError("waiting instances must be ordered by enable time")


def evaluate_condition(condition: Condition, state: BatchState, now: int) -> bool:
    """Truth of one condition against the waiting list at instant `now`."""
    waiting = state.waiting_enable_times
    if not waiting:
        raise PolicyError("evaluate_condition requires a non-empty waiting list")
    if condition.kind == SIZE:
        return len(waiting) >= condition.threshold
    if condition.kind == WT_FIRST:
        return now - waiting[0] >= condition.threshold
    if condition.kind == WT_LAST:
        return now - waiting[-1] >= condition.threshold
    if condition.kind == DAILY_HOUR:
        return hour_of(now) in condition.hours
    if condition.kind == WEEK_DAY:
        return weekday_of(now) in condition.days
    raise PolicyError(f"unknown condition kind {condition.kind!r}")


def evaluate_activation_rule(rule: ActivationRule, state: BatchState, now: int) -> bool:
    """DNF evaluation: any group whose conditions all hold."""
    if not state.waiting_enable_times:
        return False
    return any(
        all(evaluate_condition(c, state, now) for c in g.conditions) for g in rule.groups
    )


# ---------------------------------------------------------------------------
# cost model

PER_TIME = "per-time"
PROCESSING_SCALED = "processing-scaled"
RESOURCE_COST_MODES = (PER_TIME, PROCESSING_SCALED)


@dataclass(frozen=True)
class CostModel:
    """Batch cost = fixed + variable(size) + resource component.

    variable_cost is a piecewise-linear table of (size, money) points with
    strictly increasing sizes; values between points interpolate linearly
    and extrapolate flat beyond either end.  The resource component is
    either rate x wall duration (per-time) or
    (scale_factor / size) x total pure work time (processing-scaled).
    """

    fixed_cost: float = 0.0
    variable_cost: tuple[tuple[int, float], ...] = ()
    resource_cost_mode: str = PER_TIME
    processing_scale_factor: float = 1.0

    def __post_init__(self):
        if self.fixed_cost < 0:
            raise PolicyError("fixed cost must be >= 0")
        if self.resource_cost_mode not in RESOURCE_COST_MODES:
            raise PolicyError(f"unknown resource cost mode {self.resource_cost_mode!r}")
        if self.processing_scale_factor < 0:
            raise PolicyError("processing scale factor must be >= 0")
        sizes = [s for s, _ in self.variable_cost]
        if any(a >= b for a, b in zip(sizes, sizes[1:])):
            raise PolicyError("variable cost sizes must be strictly increasing")
        if any(s < 1 or m < 0 for s, m in self.variable_cost):
            raise PolicyError("variable cost entries must have size >= 1 and money >= 0")

    def variable_at(self, size: int) -> float:
        table = self.variable_cost
        if not table:
            return 0.0
        if size <= table[0][0]:
            return table[0][1]
        if size >= table[-1][0]:
            return table[-1][1]
        for (s0, m0), (s1, m1) in zip(table, table[1:]):
            if s0 <= size <= s1:
                return m0 + (m1 - m0) * (size - s0) / (s1 - s0)
        raise AssertionError("unreachable")


def compute_batch_cost(
    batch_size: int,
    processing_times: list[float],
    busy_duration: int,
    resource_rate: float,
    cost: CostModel,
) -> float:
    """Money charged to one batch.

    processing_times are the members' pure work times (idle excluded);
    busy_duration is the wall span from batch start to batch end.
    """
    if batch_size < 1 or len(processing_times) != batch_size:
        raise PolicyError("batch size and processing times disagree")
    if cost.resource_cost_mode == PER_TIME:
        resource_part = resource_rate * busy_duration
    else:
        resource_part = (cost.processing_scale_factor / batch_size) * sum(processing_times)
    return cost.fixed_cost + cost.variable_at(batch_size) + resource_part


@dataclass(frozen=True)
class BatchingPolicy:
    activity_id: str
    batch_type: str
    rule: ActivationRule
    cost: CostModel = field(default_factory=CostModel)

    def __post_init__(self):
        if self.batch_type not in BATCH_TYPES:
            raise PolicyError(f"unknown batch type {self.batch_type!r}")


PolicySet = dict[str, BatchingPolicy]  # activity id -> policy


def policy_set(*policies: BatchingPolicy) -> PolicySet:
    out: PolicySet = {}
    for p in policies:
        if p.activity_id in out:
            raise PolicyError(f"duplicate policy for activity {p.activity_id!r}")
        out[p.activity_id] = p
    return out


# ---------------------------------------------------------------------------
# JSON wire format

def _condition_to_doc(c: Condition) -> dict:
    if c.kind in THRESHOLD_KINDS:
        value = int(c.threshold) if c.kind == SIZE else c.threshold
        return {"kind": c.kind, "threshold": value}
    if c.kind == DAILY_HOUR:
        return {"kind": c.kind, "hours": list(c.hours)}
    return {"kind": c.kind, "days": [WEEKDAY_NAMES[d] for d in c.days]}


def _condition_from_doc(doc, where: str) -> Condition:
    from .model import ParseError  # local import to avoid a cycle

    if not isinstance(doc, dict) or "kind" not in doc:
        raise ParseError(where, "expected a condition object with a kind")
    kind = doc["kind"]
    try:
        if kind in THRESHOLD_KINDS:
            return Condition(kind, threshold=float(doc["threshold"]))
        if kind == DAILY_HOUR:
            return Condition(kind, hours=tuple(sorted(int(h) for h in doc["hours"])))
        if kind == WEEK_DAY:
            return Condition(kind, days=tuple(sorted(parse_weekday(d) for d in doc["days"])))
    except (KeyError, TypeError, ValueError, PolicyError) as err:
        raise ParseError(where, str(err)) from err
    raise ParseError(where, f"unknown condition kind {kind!r}")


def _cost_to_doc(cost: CostModel) -> dict:
    return {
        "fixedCost": cost.fixed_cost,
        "variableCost": [[s, m] for s, m in cost.variable_cost],
        "resourceCostMode": cost.resource_cost_mode,
        "processingScaleFactor": cost.processing_scale_factor,
    }


def _cost_from_doc(doc, where: str) -> CostModel:
    from .model import ParseError

    if doc is None:
        return CostModel()
    if not isinstance(doc, dict):
        raise ParseError(where, "expected a cost object")
    try:
        return CostModel(
            fixed_cost=float(doc.get("fixedCost", 0.0)),
            variable_cost=tuple((int(s), float(m)) for s, m in doc.get("variableCost", [])),
            resource_cost_mode=doc.get("resourceCostMode", PER_TIME),
            processing_scale_factor=float(doc.get("processingScaleFactor", 1.0)),
        )
    except (TypeError, ValueError, PolicyError) as err:
        raise ParseError(where, str(err)) from err


def serialize_policies(policies: PolicySet) -> dict:
    return {
        "policies": [
            {
                "activity": p.activity_id,
                "batchType": p.batch_type,
                "rule": [[_condition_to_doc(c) for c in g.conditions] for g in p.rule.groups],
                "cost": _cost_to_doc(p.cost),
            }
            for _, p in sorted(policies.items())
        ]
    }


def parse_policies(doc) -> PolicySet:
    from .model import ParseError

    if isinstance(doc, str):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as err:
            raise ParseError("$", f"invalid JSON: {err}") from err
    if not isinstance(doc, dict) or not isinstance(doc.get("policies"), list):
        raise ParseError("$", "expected an object with a policies list")
    out: PolicySet = {}
    for i, item in enumerate(doc["policies"]):
        where = f"$.policies[{i}]"
        if not isinstance(item, dict):
            raise ParseError(where, "expected an object")
        for key in ("activity", "batchType", "rule"):
            if key not in item:
                raise ParseError(f"{where}.{key}", "missing required field")
        if item["batchType"] not in BATCH_TYPES:
            raise ParseError(f"{where}.batchType", f"unknown batch type {item['batchType']!r}")
        if not isinstance(item["rule"], list):
            raise ParseError(f"{where}.rule", "expected a list of condition groups")
        groups = []
        for j, group_doc in enumerate(item["rule"]):
            if not isinstance(group_doc, list):
                raise ParseError(f"{where}.rule[{j}]", "expected a list of conditions")
            conditions = tuple(
                _condition_from_doc(c, f"{where}.rule[{j}][{k}]") for k, c in enumerate(group_doc)
            )
            try:
                groups.append(ConditionGroup(conditions))
            except PolicyError as err:
                raise ParseError(f"{where}.rule[{j}]", str(err)) from err
        activity_id = item["activity"]
        if activity_id in out:
            raise ParseError(f"{where}.activity", f"duplicate policy for {activity_id!r}")
        out[activity_id] = BatchingPolicy(
            activity_id=activity_id,
            batch_type=item["batchType"],
            rule=ActivationRule(tuple(groups)),
            cost=_cost_from_doc(item.get("cost"), f"{where}.cost"),
        )
    return out


def load_policies(path) -> PolicySet:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_policies(fh.read())


def clone_policy(policy: BatchingPolicy, **changes) -> BatchingPolicy:
    return replace(policy, **changes)
