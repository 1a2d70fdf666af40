"""Batching policies: activation rules in disjunctive normal form plus a
batch cost model.

A rule is a disjunction of condition groups; a group fires when every one
of its conditions holds.  An empty rule never fires (such instances are
only flushed when the simulation drains).  Within a group each condition
kind appears at most once.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .calendars import hour_of, weekday_of, WEEKDAY_NAMES, parse_weekday
from .codec import ParseError, finite_number, read, read_finite, read_strings, reject_unknown_keys
from .records import Record

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


class Condition(Record):
    """One atomic activation test.

    size: threshold = minimum number of waiting instances.
    wt-first / wt-last: threshold = waiting seconds of the boundary instance.
    daily-hour: hours = allowed hours of day; week-day: days = allowed weekdays.
    """

    __slots__ = ("kind", "threshold", "hours", "days")

    def __init__(self, kind: str, threshold: float = 0.0, hours: tuple[int, ...] = (),
                 days: tuple[int, ...] = ()):
        self.kind = kind
        self.threshold = threshold
        self.hours = hours
        self.days = days
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


class ConditionGroup(Record):
    """A conjunction; at most one condition per kind."""

    __slots__ = ("conditions",)

    def __init__(self, conditions: tuple[Condition, ...]):
        self.conditions = conditions
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


class ActivationRule(Record):
    """Disjunction of groups; empty rule never activates."""

    __slots__ = ("groups",)

    def __init__(self, groups: tuple[ConditionGroup, ...] = ()):
        self.groups = groups

    def has_kind(self, kind: str) -> bool:
        return any(g.find(kind) is not None for g in self.groups)


def rule(*groups) -> ActivationRule:
    """Convenience: rule([condition, ...], ...) from lists of conditions."""
    return ActivationRule(tuple(ConditionGroup(tuple(g)) for g in groups))


class BatchState(NamedTuple):
    """What a rule sees of an activity's waiting instances: how many wait,
    and the enable times of the earliest and the latest of them.

    Building one is O(1), whatever the queue length; the engine keeps its
    waiting queue in enable-time order, so `first_enable <= last_enable`.
    An empty state (size 0) never fires a rule.
    """

    size: int
    first_enable: int
    last_enable: int


def evaluate_condition(condition: Condition, state: BatchState, now: int) -> bool:
    """Truth of one condition against the waiting list at instant `now`."""
    if not state.size:
        raise PolicyError("evaluate_condition requires a non-empty waiting list")
    if condition.kind == SIZE:
        return state.size >= condition.threshold
    if condition.kind == WT_FIRST:
        return now - state.first_enable >= condition.threshold
    if condition.kind == WT_LAST:
        return now - state.last_enable >= condition.threshold
    if condition.kind == DAILY_HOUR:
        return hour_of(now) in condition.hours
    if condition.kind == WEEK_DAY:
        return weekday_of(now) in condition.days
    raise PolicyError(f"unknown condition kind {condition.kind!r}")


def evaluate_activation_rule(rule: ActivationRule, state: BatchState, now: int) -> bool:
    """DNF evaluation: any group whose conditions all hold."""
    if not state.size:
        return False
    for group in rule.groups:
        for condition in group.conditions:
            if not evaluate_condition(condition, state, now):
                break
        else:
            return True
    return False


# ---------------------------------------------------------------------------
# cost model

PER_TIME = "per-time"
PROCESSING_SCALED = "processing-scaled"
RESOURCE_COST_MODES = (PER_TIME, PROCESSING_SCALED)


class CostModel(Record):
    """Batch cost = fixed + variable(size) + resource component.

    variable_cost is a piecewise-linear table of (size, money) points with
    strictly increasing sizes; values between points interpolate linearly
    and extrapolate flat beyond either end.  The resource component is
    either rate x wall duration (per-time) or
    (scale_factor / size) x total pure work time (processing-scaled).
    """

    __slots__ = ("fixed_cost", "variable_cost", "resource_cost_mode", "processing_scale_factor")

    def __init__(self, fixed_cost: float = 0.0, variable_cost: tuple[tuple[int, float], ...] = (),
                 resource_cost_mode: str = PER_TIME, processing_scale_factor: float = 1.0):
        self.fixed_cost = fixed_cost
        self.variable_cost = variable_cost
        self.resource_cost_mode = resource_cost_mode
        self.processing_scale_factor = processing_scale_factor
        amounts = [("fixed cost", self.fixed_cost)]
        amounts += [("processing scale factor", self.processing_scale_factor)]
        amounts += [("variable cost", m) for _, m in self.variable_cost]
        for name, value in amounts:
            if not math.isfinite(value):
                raise PolicyError(f"{name} must be finite, got {value!r}")
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

    def price_terms(self, size: int) -> tuple[float, float | None]:
        """(base, scale) of a batch of `size`, as `batch_price` reads them:
        base = fixed + variable cost at that size; scale = the processing
        scale factor / size in processing-scaled mode, None in per-time."""
        base = self.fixed_cost + self.variable_at(size)
        if self.resource_cost_mode == PER_TIME:
            return base, None
        return base, self.processing_scale_factor / size

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
    base, scale = cost.price_terms(batch_size)
    return batch_price(base, scale, sum(processing_times), busy_duration, resource_rate)


def batch_price(base: float, scale: float | None, total_work: float, busy_duration: int,
                resource_rate: float) -> float:
    """Money charged to one batch, given its size's `CostModel.price_terms`:
    the base plus the resource component, rate x wall span in per-time
    mode (scale None), else scale x the members' total pure work."""
    if scale is None:
        return base + resource_rate * busy_duration
    return base + scale * total_work


class BatchingPolicy(Record):
    __slots__ = ("activity_id", "batch_type", "rule", "cost")

    def __init__(self, activity_id: str, batch_type: str, rule: ActivationRule,
                 cost: CostModel | None = None):
        self.activity_id = activity_id
        self.batch_type = batch_type
        self.rule = rule
        self.cost = CostModel() if cost is None else cost
        if self.batch_type not in BATCH_TYPES:
            raise PolicyError(f"unknown batch type {self.batch_type!r}")


PolicySet = dict[str, BatchingPolicy]  # activity id -> policy


def policy_set_key(policies: PolicySet) -> tuple:
    """Hashable identity of a policy set, whatever its insertion order:
    equal keys give equal simulations under one model and run config."""
    return tuple(sorted(policies.items()))


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
    """A condition from its document.  Its field is type-checked, not
    coerced: a threshold is a finite number, hours a list of integers and
    days a list of weekday names."""
    if not isinstance(doc, dict):
        raise ParseError(where, f"expected a condition object, got {doc!r}")
    kind = read(doc, "kind", where, str)
    if kind not in CONDITION_KINDS:
        raise ParseError(where, f"unknown condition kind {kind!r}")
    name = "threshold" if kind in THRESHOLD_KINDS else "hours" if kind == DAILY_HOUR else "days"
    reject_unknown_keys(doc, ("kind", name), where)
    if kind in THRESHOLD_KINDS:
        value = read_finite(doc, name, where)
    elif kind == DAILY_HOUR:
        value = read(doc, name, where, list)
        if not all(type(h) is int for h in value):
            raise ParseError(f"{where}.{name}", f"expected a list of integer hours, got {value!r}")
    else:
        value = read_strings(doc, name, where)
    try:  # the reads above raise ParseError, itself a ValueError
        if kind in THRESHOLD_KINDS:
            return Condition(kind, threshold=value)
        if kind == DAILY_HOUR:
            return Condition(kind, hours=tuple(sorted(value)))
        return Condition(kind, days=tuple(sorted(parse_weekday(d) for d in value)))
    except ValueError as err:
        raise ParseError(where, str(err)) from err


def _cost_to_doc(cost: CostModel) -> dict:
    return {
        "fixedCost": cost.fixed_cost,
        "variableCost": [[s, m] for s, m in cost.variable_cost],
        "resourceCostMode": cost.resource_cost_mode,
        "processingScaleFactor": cost.processing_scale_factor,
    }


_COST_KEYS = ("fixedCost", "variableCost", "resourceCostMode", "processingScaleFactor")


def _cost_from_doc(doc, where: str) -> CostModel:
    """A cost model from its document.  Its fields are type-checked, not
    coerced: amounts are finite numbers, a variable-cost size is an integer
    and the resource cost mode a string."""
    reject_unknown_keys(doc, _COST_KEYS, where)
    variable_cost = []
    for i, pair in enumerate(read(doc, "variableCost", where, list, [])):
        size = money = None
        if isinstance(pair, list) and len(pair) == 2:
            size, money = pair[0], finite_number(pair[1])
        if type(size) is not int or money is None:
            raise ParseError(
                f"{where}.variableCost[{i}]",
                f"expected an [integer size, finite amount] pair, got {pair!r}",
            )
        variable_cost.append((size, money))
    try:
        return CostModel(
            fixed_cost=read_finite(doc, "fixedCost", where, 0.0),
            variable_cost=tuple(variable_cost),
            resource_cost_mode=read(doc, "resourceCostMode", where, str, PER_TIME),
            processing_scale_factor=read_finite(doc, "processingScaleFactor", where, 1.0),
        )
    except PolicyError as err:
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


def parse_policies(doc, root: str = "$") -> PolicySet:
    """The policy set of a parsed JSON policies document.  Raises ParseError
    with paths from `root`, the path of the document itself."""
    reject_unknown_keys(doc, ("policies",), root)
    out: PolicySet = {}
    for i, item in enumerate(read(doc, "policies", root, list)):
        where = f"{root}.policies[{i}]"
        reject_unknown_keys(item, ("activity", "batchType", "rule", "cost"), where)
        activity_id = read(item, "activity", where, str)
        batch_type = read(item, "batchType", where, str)
        if batch_type not in BATCH_TYPES:
            raise ParseError(f"{where}.batchType", f"unknown batch type {batch_type!r}")
        groups = []
        for j, group_doc in enumerate(read(item, "rule", where, list)):
            if not isinstance(group_doc, list):
                raise ParseError(f"{where}.rule[{j}]", "expected a list of conditions")
            conditions = tuple(
                _condition_from_doc(c, f"{where}.rule[{j}][{k}]") for k, c in enumerate(group_doc)
            )
            try:
                groups.append(ConditionGroup(conditions))
            except PolicyError as err:
                raise ParseError(f"{where}.rule[{j}]", str(err)) from err
        if activity_id in out:
            raise ParseError(f"{where}.activity", f"duplicate policy for {activity_id!r}")
        out[activity_id] = BatchingPolicy(
            activity_id=activity_id,
            batch_type=batch_type,
            rule=ActivationRule(tuple(groups)),
            cost=_cost_from_doc(read(item, "cost", where, dict, {}), f"{where}.cost"),
        )
    return out
