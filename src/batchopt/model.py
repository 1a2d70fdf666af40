"""Process model: activities, gateways, resources, arrivals.

The model is a node graph (activities and gateways joined by arcs) plus
resource profiles with weekly calendars and an arrival model.  Documents
are plain JSON; see docs/model-schema.md for the wire format.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from . import rng
from .calendars import (
    Calendar,
    Interval,
    WEEKDAY_NAMES,
    format_clock,
    parse_clock,
    parse_weekday,
)
from .codec import ParseError, read, read_strings, reject_unknown_keys
from .eventlog import LAST_INSTANT
from .records import Record
from .reduce import running_sum

MAX_CASES = 1_000_000  # the most cases one simulation may run
UNBOUNDED_VISITS = ("a case's expected visits are unbounded: some loop sends back "
                    "on average at least one token per token it receives")
GATEWAY_KINDS = ("and-split", "and-join", "xor-split", "xor-join", "or-split", "or-join")
DISTRIBUTION_PARAMS = {  # each distribution kind and its parameters
    "fixed": ("value",),
    "uniform": ("low", "high"),
    "exponential": ("mean",),
    "normal": ("mean", "stddev"),
}


class DurationDistribution(Record):
    """Sampling spec for processing / inter-arrival times, in seconds."""

    __slots__ = ("kind", "params")

    def __init__(self, kind: str, params: tuple[tuple[str, float], ...]):
        self.kind = kind
        self.params = params

    def param(self, name: str) -> float:
        for k, v in self.params:
            if k == name:
                return v
        raise KeyError(name)

    def sample(self, u: float) -> float:
        """Map a uniform draw to a non-negative duration."""
        if self.kind == "fixed":
            return self.param("value")
        if self.kind == "uniform":
            return rng.uniform(u, self.param("low"), self.param("high"))
        if self.kind == "exponential":
            return rng.exponential(u, self.param("mean"))
        if self.kind == "normal":
            return rng.normal_truncated(u, self.param("mean"), self.param("stddev"))
        raise ValueError(f"unknown distribution kind {self.kind!r}")


def fixed(value: float) -> DurationDistribution:
    return DurationDistribution("fixed", (("value", float(value)),))


class Activity(NamedTuple):
    id: str
    name: str
    duration: DurationDistribution
    resources: tuple[str, ...]  # eligible resource ids
    fixed_cost_per_execution: float = 0.0


class Gateway(Record):
    """A gateway node; a record, not a named tuple, since the engine reads
    its kind at every gateway a token passes."""

    __slots__ = ("id", "kind", "branch_probabilities")

    def __init__(self, id: str, kind: str,
                 branch_probabilities: tuple[tuple[str, float], ...] = ()):
        self.id = id
        self.kind = kind
        # arc id ("source->target") -> probability; split kinds only
        self.branch_probabilities = branch_probabilities


class FlowArc(NamedTuple):
    source: str
    target: str

    @property
    def id(self) -> str:
        return f"{self.source}->{self.target}"


class ResourceProfile(Record):
    __slots__ = ("id", "calendar", "cost_per_time_unit")

    def __init__(self, id: str, calendar: Calendar, cost_per_time_unit: float = 0.0):
        self.id = id
        self.calendar = calendar
        self.cost_per_time_unit = cost_per_time_unit  # money per busy second in per-time mode


class ArrivalModel(NamedTuple):
    inter_arrival: DurationDistribution
    calendar: Calendar
    total_cases: int


class ProcessModel(NamedTuple):
    activities: tuple[Activity, ...]
    gateways: tuple[Gateway, ...]
    arcs: tuple[FlowArc, ...]
    resources: tuple[ResourceProfile, ...]
    arrival: ArrivalModel
    start_node: str
    end_nodes: tuple[str, ...]

    def activity(self, activity_id: str) -> Activity:
        for a in self.activities:
            if a.id == activity_id:
                return a
        raise KeyError(activity_id)

    def resource(self, resource_id: str) -> ResourceProfile:
        for r in self.resources:
            if r.id == resource_id:
                return r
        raise KeyError(resource_id)

    @property
    def node_ids(self) -> set[str]:
        return {a.id for a in self.activities} | {g.id for g in self.gateways}


# ---------------------------------------------------------------------------
# validation

def _distribution_violations(dist: DurationDistribution, where: str) -> list[str]:
    out = [
        f"{where}: {name} must be finite, got {value!r}"
        for name, value in dist.params
        if not math.isfinite(value)
    ]
    out += [
        f"{where}: {name} must be at most {LAST_INSTANT} s, the last instant of a log, "
        f"got {value!r}"
        for name, value in dist.params
        if math.isfinite(value) and value > LAST_INSTANT
    ]
    if out:
        return out
    try:
        if dist.kind == "fixed":
            if dist.param("value") < 0:
                out.append(f"{where}: fixed value must be >= 0")
        elif dist.kind == "uniform":
            low, high = dist.param("low"), dist.param("high")
            if low < 0 or high < low:
                out.append(f"{where}: uniform bounds must satisfy 0 <= low <= high")
        elif dist.kind == "exponential":
            if dist.param("mean") < 0:
                out.append(f"{where}: exponential mean must be >= 0")
        elif dist.kind == "normal":
            if dist.param("stddev") < 0:
                out.append(f"{where}: normal stddev must be >= 0")
        else:
            out.append(f"{where}: unknown distribution kind {dist.kind!r}")
    except KeyError as missing:
        out.append(f"{where}: missing parameter {missing.args[0]!r}")
    return out


def _calendar_violations(cal: Calendar, where: str) -> list[str]:
    out = []
    if not cal.intervals:
        out.append(f"{where}: calendar needs at least one interval")
    seen: dict[int, list[tuple[int, int]]] = {}
    for iv in cal.intervals:
        if not 0 <= iv.weekday <= 6:
            out.append(f"{where}: interval weekday {iv.weekday} out of range")
            continue
        if not (0 <= iv.start < iv.end <= 86400):
            out.append(
                f"{where}: interval {WEEKDAY_NAMES[iv.weekday]} "
                f"{format_clock(iv.start)}-{format_clock(iv.end)} must satisfy start < end within the day"
            )
            continue
        for s, e in seen.get(iv.weekday, []):
            if iv.start < e and s < iv.end:
                out.append(f"{where}: overlapping intervals on {WEEKDAY_NAMES[iv.weekday]}")
                break
        seen.setdefault(iv.weekday, []).append((iv.start, iv.end))
    return out


def validate_model(model: ProcessModel) -> list[str]:
    """All structural violations, sorted; empty means the model is sound."""
    out: list[str] = []
    node_ids = model.node_ids
    act_ids = {a.id for a in model.activities}
    res_ids = {r.id for r in model.resources}

    seen_nodes: set[str] = set()
    for a in model.activities:
        if a.id in seen_nodes:
            out.append(f"duplicate node id {a.id!r}")
        seen_nodes.add(a.id)
    for g in model.gateways:
        if g.id in seen_nodes:
            out.append(f"duplicate node id {g.id!r}")
        seen_nodes.add(g.id)
        if g.kind not in GATEWAY_KINDS:
            out.append(f"gateway {g.id!r}: unknown kind {g.kind!r}")

    arc_ids = set()
    outgoing: dict[str, list[FlowArc]] = {}
    incoming: dict[str, list[FlowArc]] = {}
    for arc in model.arcs:
        if arc.source not in node_ids:
            out.append(f"arc {arc.id!r}: unknown source node {arc.source!r}")
        if arc.target not in node_ids:
            out.append(f"arc {arc.id!r}: unknown target node {arc.target!r}")
        if arc.id in arc_ids:
            out.append(f"duplicate arc {arc.id!r}")
        arc_ids.add(arc.id)
        outgoing.setdefault(arc.source, []).append(arc)
        incoming.setdefault(arc.target, []).append(arc)

    if model.start_node not in node_ids:
        out.append(f"start node {model.start_node!r} is not a node")
    if not model.end_nodes:
        out.append("at least one end node is required")
    for e in model.end_nodes:
        if e not in node_ids:
            out.append(f"end node {e!r} is not a node")

    # reachability: every node from the start and to some end
    if model.start_node in node_ids:
        reached = {model.start_node}
        frontier = [model.start_node]
        while frontier:
            n = frontier.pop()
            for arc in outgoing.get(n, []):
                if arc.target in node_ids and arc.target not in reached:
                    reached.add(arc.target)
                    frontier.append(arc.target)
        for n in sorted(node_ids - reached):
            out.append(f"node {n!r} unreachable from start node")
        ends = set(model.end_nodes) & node_ids
        reaches_end = set(ends)
        rev: dict[str, list[str]] = {}
        for arc in model.arcs:
            rev.setdefault(arc.target, []).append(arc.source)
        frontier = list(ends)
        while frontier:
            n = frontier.pop()
            for p in rev.get(n, []):
                if p not in reaches_end:
                    reaches_end.add(p)
                    frontier.append(p)
        for kind, nodes in (("activity", model.activities), ("gateway", model.gateways)):
            for n in nodes:
                if n.id not in reaches_end:
                    out.append(f"{kind} {n.id!r} has no path to an end node")

    for g in model.gateways:
        outs = outgoing.get(g.id, [])
        probs = dict(g.branch_probabilities)
        if g.kind in ("xor-split", "or-split"):
            for arc in outs:
                if arc.id not in probs:
                    out.append(f"gateway {g.id!r}: no probability for arc {arc.id!r}")
            for arc_id in sorted(set(probs) - {arc.id for arc in outs}):
                out.append(f"gateway {g.id!r}: probability for non-outgoing arc {arc_id!r}")
            xor = g.kind == "xor-split"  # an xor arc of probability 0 is never taken
            for arc in outs:
                p = probs.get(arc.id)
                if p is not None and not (0.0 <= p <= 1.0 and (xor or p > 0.0)):
                    out.append(f"gateway {g.id!r}: arc {arc.id!r} probability {p!r} outside "
                               + ("[0, 1]" if xor else "(0, 1]"))
        if g.kind == "xor-split":
            if outs and all(arc.id in probs for arc in outs):
                total = running_sum(probs[arc.id] for arc in outs)
                if not abs(total - 1.0) <= 1e-9:
                    out.append(f"gateway {g.id!r}: branch probabilities sum to {total!r}, expected 1")
        if g.kind.endswith("-join") and len(incoming.get(g.id, [])) < 2:
            out.append(f"gateway {g.id!r}: join needs at least 2 incoming arcs")

    # the pairing and the solve read arcs and probabilities vouched for above
    if not out:
        or_join_of = pair_or_splits(model)
        out += [f"gateway {g.id!r}: no or-join lies on every path out of this or-split, "
                "so its branches never reconverge"
                for g in model.gateways if g.kind == "or-split" and g.id not in or_join_of]
        out += [f"gateway {g.id!r}: no or-split's branches reconverge at this or-join"
                for g in model.gateways if g.kind == "or-join" and g.id not in or_join_of.values()]
        if not out and expected_visits(model, or_join_of) is None:
            out.append(UNBOUNDED_VISITS)

    for a in model.activities:
        if not a.resources:
            out.append(f"activity {a.id!r}: no eligible resources")
        for r in a.resources:
            if r not in res_ids:
                out.append(f"activity {a.id!r}: unknown resource {r!r}")
        if not 0 <= a.fixed_cost_per_execution < math.inf:
            out.append(f"activity {a.id!r}: fixed cost must be finite and >= 0")
        out.extend(_distribution_violations(a.duration, f"activity {a.id!r} duration"))

    for r in model.resources:
        if not 0 <= r.cost_per_time_unit < math.inf:
            out.append(f"resource {r.id!r}: cost per time unit must be finite and >= 0")
        out.extend(_calendar_violations(r.calendar, f"resource {r.id!r}"))

    if not 1 <= model.arrival.total_cases <= MAX_CASES:
        out.append(f"arrival: totalCases must lie in [1, {MAX_CASES}]")
    out.extend(_calendar_violations(model.arrival.calendar, "arrival"))
    out.extend(_distribution_violations(model.arrival.inter_arrival, "arrival interArrival"))

    return sorted(out)


def pair_or_splits(model: ProcessModel) -> dict[str, str]:
    """Each or-split paired with the nearest or-join that every path out of
    it reconverges at; an or-split with no such join is left out.  Reads a
    model whose every node has a path to an end node."""
    or_splits = [g.id for g in model.gateways if g.kind == "or-split"]
    if not or_splits:
        return {}
    or_joins = {g.id for g in model.gateways if g.kind == "or-join"}
    # iterative postdominator sets over the node graph with a virtual sink
    nodes = sorted(model.node_ids)
    sink = "\x00sink"
    succ: dict[str, list[str]] = {n: [] for n in nodes}
    for arc in model.arcs:
        succ[arc.source].append(arc.target)
    for e in model.end_nodes:
        succ[e].append(sink)
    post: dict[str, set[str]] = {n: set(nodes) | {sink} for n in nodes}
    post[sink] = {sink}
    changed = True
    while changed:
        changed = False
        for n in nodes:
            new = set.intersection(*(post[s] for s in succ[n])) | {n}
            if new != post[n]:
                post[n] = new
                changed = True
    pairing = {}
    for s in or_splits:
        # nearest = the join postdominated by every other candidate
        joins = sorted((len(post[j]), j) for j in post[s] & or_joins)
        if joins:
            pairing[s] = joins[0][1]
    return pairing


def expected_visits(model: ProcessModel, or_join_of: dict[str, str]) -> dict[str, float] | None:
    """Each node's expected visits per case, the v that solves
    v = e_start + Mᵀv, M[n][t] being the tokens n passes to t per token it
    receives; None when that is singular or some visit is negative, i.e.
    when M's spectral radius is not below 1 (Kemeny & Snell, Finite Markov
    Chains, 1960; Harris, The Theory of Branching Processes, 1963).  Reads
    a model whose graph and probabilities `validate_model` found sound."""
    gateways = {g.id: g for g in model.gateways}
    probs = {arc_id: p for g in model.gateways if g.kind in ("xor-split", "or-split")
             for arc_id, p in g.branch_probabilities}
    # arc weights are scaled by 1/k out of an and-join with k incoming arcs,
    # by 1 + P0/sum p out of an or-split (whose draws all fail with chance P0,
    # when the engine draws one branch) and by 1/(sum p + P0) out of its or-join
    scale = {g.id: 1.0 / sum(arc.target == g.id for arc in model.arcs)
             for g in model.gateways if g.kind == "and-join"}
    for s, j in or_join_of.items():
        ps = [p for _, p in gateways[s].branch_probabilities]
        none = math.prod(1.0 - p for p in ps)
        scale[s], scale[j] = 1.0 + none / math.fsum(ps), 1.0 / (math.fsum(ps) + none)
    index = {n: i for i, n in enumerate(sorted(model.node_ids))}
    # the augmented matrix [I - Mᵀ | e_start]; a token stops at an end node
    a = [[float(r == c) for c in range(len(index))] + [float(n == model.start_node)]
         for n, r in index.items()]
    for arc in model.arcs:
        if arc.source not in model.end_nodes:
            weight = probs.get(arc.id, 1.0) * scale.get(arc.source, 1.0)
            a[index[arc.target]][index[arc.source]] -= weight
    # Gauss-Jordan elimination with partial pivoting
    for col in range(len(index)):
        pivot = max(range(col, len(index)), key=lambda r: abs(a[r][col]))
        if abs(a[pivot][col]) < 1e-9:
            return None
        a[col], a[pivot] = a[pivot], a[col]
        for r, row in enumerate(a):
            if r != col and row[col]:
                factor = row[col] / a[col][col]
                a[r] = [x - factor * y for x, y in zip(row, a[col])]
    visits = [row[-1] / row[r] for r, row in enumerate(a)]
    # round-off may leave a node fed only by p = 0 arcs a hair below 0
    return None if any(v < -1e-9 for v in visits) else dict(zip(index, visits))


# ---------------------------------------------------------------------------
# JSON wire format, read through `codec.read`: every object rejects unknown
# keys; NaN and inf parse, so that `validate_model` reports them.

def _parse_distribution(doc: dict, path: str) -> DurationDistribution:
    kind = read(doc, "kind", path, str)
    if kind not in DISTRIBUTION_PARAMS:
        raise ParseError(f"{path}.kind", f"unknown distribution kind {kind!r}")
    wanted = DISTRIBUTION_PARAMS[kind]
    reject_unknown_keys(doc, ("kind", *wanted), path)
    return DurationDistribution(kind, tuple((name, read(doc, name, path, float)) for name in wanted))


def _parse_calendar(doc: list, path: str) -> Calendar:
    intervals = []
    for i, item in enumerate(doc):
        where = f"{path}[{i}]"
        reject_unknown_keys(item, ("weekday", "start", "end"), where)
        day, start, end = (read(item, key, where, str) for key in ("weekday", "start", "end"))
        try:
            intervals.append(Interval(parse_weekday(day), parse_clock(start), parse_clock(end)))
        except ValueError as err:
            raise ParseError(where, str(err)) from err
    return Calendar(tuple(intervals))


def parse_model(doc) -> ProcessModel:
    """The model of a parsed JSON model document.  Raises ParseError."""
    reject_unknown_keys(doc, ("startNode", "endNodes", "activities", "gateways", "arcs",
                              "resources", "arrival"), "$")

    activities = []
    for i, item in enumerate(read(doc, "activities", "$", list)):
        where = f"$.activities[{i}]"
        reject_unknown_keys(item, ("id", "name", "duration", "resources",
                                   "fixedCostPerExecution"), where)
        activity_id = read(item, "id", where, str)
        activities.append(
            Activity(
                id=activity_id,
                name=read(item, "name", where, str, "") or activity_id,
                duration=_parse_distribution(read(item, "duration", where, dict), f"{where}.duration"),
                resources=read_strings(item, "resources", where),
                fixed_cost_per_execution=read(item, "fixedCostPerExecution", where, float, 0.0),
            )
        )

    gateways = []
    for i, item in enumerate(read(doc, "gateways", "$", list, [])):
        where = f"$.gateways[{i}]"
        reject_unknown_keys(item, ("id", "kind", "branchProbabilities"), where)
        probs_doc = read(item, "branchProbabilities", where, dict, {})
        probs_where = f"{where}.branchProbabilities"
        probs = tuple(sorted((k, read(probs_doc, k, probs_where, float)) for k in probs_doc))
        gateways.append(Gateway(id=read(item, "id", where, str), kind=read(item, "kind", where, str), branch_probabilities=probs))

    arcs = []
    for i, item in enumerate(read(doc, "arcs", "$", list)):
        where = f"$.arcs[{i}]"
        reject_unknown_keys(item, ("source", "target"), where)
        arcs.append(FlowArc(source=read(item, "source", where, str), target=read(item, "target", where, str)))

    resources = []
    for i, item in enumerate(read(doc, "resources", "$", list)):
        where = f"$.resources[{i}]"
        reject_unknown_keys(item, ("id", "calendar", "costPerTimeUnit"), where)
        resources.append(
            ResourceProfile(
                id=read(item, "id", where, str),
                calendar=_parse_calendar(read(item, "calendar", where, list), f"{where}.calendar"),
                cost_per_time_unit=read(item, "costPerTimeUnit", where, float, 0.0),
            )
        )

    arr_doc = read(doc, "arrival", "$", dict)
    reject_unknown_keys(arr_doc, ("interArrival", "calendar", "totalCases"), "$.arrival")
    arrival = ArrivalModel(
        inter_arrival=_parse_distribution(read(arr_doc, "interArrival", "$.arrival", dict), "$.arrival.interArrival"),
        calendar=_parse_calendar(read(arr_doc, "calendar", "$.arrival", list), "$.arrival.calendar"),
        total_cases=read(arr_doc, "totalCases", "$.arrival", int),
    )

    return ProcessModel(
        activities=tuple(activities),
        gateways=tuple(gateways),
        arcs=tuple(arcs),
        resources=tuple(resources),
        arrival=arrival,
        start_node=read(doc, "startNode", "$", str),
        end_nodes=read_strings(doc, "endNodes", "$"),
    )
