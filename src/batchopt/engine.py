"""Discrete-event simulator for batched process execution.

Cases arrive on the arrival calendar, flow token-wise through the node
graph, and accumulate per activity until the activity's activation rule
fires; the fired batch takes every waiting instance, seizes one eligible
resource for its whole span, and works only inside that resource's
calendar.  Activities without a policy run as size-1 batches immediately.

Time advances from event to event (next-event time advance).  After each
event one pass, in activity-id order, fires every rule that holds.  The
events are an arrival or completion (the only things that enable an
instance), a wake at the exact instant a waiting-time threshold crosses,
and a tick at the next hour boundary at which some waiting activity's
daily-hour / week-day conditions hold.  Clock conditions change truth
only on hour boundaries, so no rule can newly hold at any other instant.
A rule is evaluated only once its queue holds its activity's `fire_at`,
the fewest waiting instances that can fire it: the least over its groups
of the group's size threshold, 1 for a group without one.  A group holds
at most one condition of each kind, so no group holds below it, and a
pass runs only while some queue holds its `fire_at`.  A size-only rule
holds as soon as its queue reaches it, so it is evaluated once, at the
event that fills the queue, and fires; a rule that reads a waiting time
or the clock is evaluated after every event from then on until it fires.
Rules still fire as if all were evaluated after every event.  When no
case event is pending and no queue holds its `fire_at`, no future event
can fire a rule, and the remaining waiting instances are flushed.

The event set has two parts.  Every case's arrival is generated before
the first event, into the sample path's tuple, which is already in event
order; the completions, wakes and ticks that the run schedules as it goes
are kept in a heap.  The loop takes the earlier of the next arrival and
the heap's first event, both ordered on (time, kind, seq), so events are
processed in the order one heap of all of them would give, while the heap
holds only the events in flight, not every case's arrival.

An activity's waiting queue only grows by appends at the current instant
and is emptied whole when a batch forms, so it stays in enable-time order.
A rule therefore reads just the queue's length and its first and last
enable times, and one evaluation costs the same however long the queue.

All randomness is drawn from counter-based streams keyed by case /
activity / gateway visit, so two runs with the same seed are
bit-identical and a policy change never perturbs arrivals or duration
samples.  Every draw goes through one path, a `SamplePath`: it keeps one
keyed hasher for its seed and draws through `rng.visit_unit` with label
and ids encoded once at set-up (see rng.py); a `fixed` duration draws
nothing, which shifts no other draw because every draw is keyed.  A
`fixed` inter-arrival time draws nothing either, so a model with fixed
inter-arrival times and durations and no xor- or or-split draws nothing
at all and simulates to the same result under every seed.

Whatever depends only on the model is computed once per model, not once
per simulation: `compile_model` validates it and builds its
`CompiledModel` (the hops a token takes on leaving each node, none at an
end node, branch tables, or-join pairing, encoded ids, fixed durations,
and each activity's eligible resources as (id, calendar, whether it is
always open, rate), sorted by id), and the CLI commands, the search's
`CandidateEvaluator` and `metrics.CycleTimes` compile once and pass it to
every `simulate`.  `simulate` compiles a bare `ProcessModel` itself.  A
`CompiledModel` holds only what the engine reads; detection's schedule
tables are kept by the search that reads them
(`optimize.CandidateEvaluator.schedules`).  What depends on the policy
set (each activity's `fire_at`, the clock-hour masks, the waiting-time
wakes, the cost model and a batch of one's `CostModel.price_terms`) is
set up once per simulation.  What depends on the model, seed and case
count but not on the policy set (the arrival events and every keyed
draw) is kept in the `SamplePath` a simulation runs on: the first
simulation given one fills it and later ones replay it, with the same
bytes as drawing afresh.  The path keeps the batch-id texts too, which
depend on nothing but a batch's index, so a replay formats none.
Whatever simulates many policy sets under one seed passes one: a search
run (`optimize.CandidateEvaluator`, which simulates every candidate under
one seed and so compares them under common random numbers) and
`metrics.CycleTimes` (`batchopt evaluate`).  A lone simulation runs on a
fresh path of its own.

Records are tuples.  The log's `InstanceRecord` / `BatchRecord` and the
`BatchState` a rule reads are each built with one `tuple.__new__` call,
not the Python `__new__` that `NamedTuple` generates: the same record at
half the cost.  A waiting instance is a plain `(case_id, enable_time,
work)` tuple.  An activity without a policy never queues: each instance
is started at once as a batch of one.  A batch of one (from a rule or a
flush too) is priced by `policy.batch_price` from its set-up price terms,
the float operations of `compute_batch_cost` in the same order, and
skips the cost-sharing arithmetic of larger batches, whose last member
absorbs float drift.  On an always-open calendar a batch starts at
max(now, when its resource frees) without `next_open`, and a batch of
one ends its work later without `work_end`.  A case's visit count at a
node is kept only where a draw is keyed by it.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import math
from typing import NamedTuple

from . import rng
from .calendars import SECONDS_PER_HOUR, SECONDS_PER_WEEK
from .codec import check_fields, from_doc
from .eventlog import (
    BatchRecord,
    CYCLE_TIME_FULL,
    CYCLE_TIME_MODES,
    EventLog,
    InstanceRecord,
    LAST_INSTANT,
    LogTimeError,
    ObjectiveValues,
    evaluate_objectives,
    filter_warmup,
)
from .model import (
    MAX_CASES,
    Activity,
    Gateway,
    ProcessModel,
    ResourceProfile,
    pair_or_splits,
    validate_model,
)
from .policy import (
    BatchState,
    BatchingPolicy,
    CostModel,
    DAILY_HOUR,
    PolicySet,
    SEQUENTIAL,
    SIZE,
    WEEK_DAY,
    WT_FIRST,
    WT_LAST,
    batch_price,
    compute_batch_cost,
    evaluate_activation_rule,
)
from .records import Config
from .reduce import running_sum


class SimulationError(RuntimeError):
    pass


class SimConfig(Config):
    """Run controls; total_cases of None defers to the model's arrival block."""

    seed: int = 0
    total_cases: int | None = None
    warmup: int = 0
    cycle_time_mode: str = CYCLE_TIME_FULL

    def _check(self) -> None:
        check_fields(self, SimulationError)
        if self.warmup < 0:
            raise SimulationError("warmup must be >= 0")
        if self.total_cases is not None and not 1 <= self.total_cases <= MAX_CASES:
            raise SimulationError(f"total_cases must lie in [1, {MAX_CASES}]")
        if self.cycle_time_mode not in CYCLE_TIME_MODES:
            raise SimulationError(f"unknown cycle time mode {self.cycle_time_mode!r}")


class SimResult(NamedTuple):
    log: EventLog
    objectives: ObjectiveValues


class SamplePath:
    """The arrival events and keyed draws of one (compiled model, seed,
    case count): the engine's only source of randomness, shared by
    simulations of different policy sets.

    A new path is empty.  The first simulation given it binds it to its
    compiled model, seed and case count, which generates every arrival
    event; each draw is then taken on its first request and kept, so
    every later simulation replays the same arrivals and draws.  A draw
    is stored under (case, node, visit), its key without the stream
    label, which the node implies; the value is what the draw decides,
    which depends on nothing else under the bound model and seed: a
    duration's seconds, an xor-split's hop, or the hops an or-split's
    per-branch and fallback draws activate.  A simulation under any other
    compiled model, seed or case count raises SimulationError rather than
    replay the wrong draws.

    The path also keeps the batch ids its simulations have spelt, in
    order: an id depends on nothing but its batch's index in the log, so a
    later simulation reads the text instead of formatting it again.
    """

    __slots__ = ("compiled", "seed", "total_cases", "hasher", "arrivals", "draws", "batch_ids")

    def __init__(self):
        self.compiled: CompiledModel | None = None
        self.seed: int | None = None
        self.total_cases: int | None = None
        self.hasher = None  # rng.hasher(seed), which every keyed draw starts from
        self.arrivals: tuple = ()  # the arrival events, in event order
        self.draws: dict[tuple[int, str, int], object] = {}
        self.batch_ids: list[str] = []  # batch_ids[i] is the id of a log's batch i

    def bind(self, compiled: CompiledModel, seed: int, total_cases: int) -> None:
        """Bind an empty path to a run and generate its arrivals; check a
        bound one against the run."""
        if self.compiled is None:
            self.compiled, self.seed, self.total_cases = compiled, seed, total_cases
            self.hasher = rng.hasher(seed)
            self._generate_arrivals()
        elif self.compiled is not compiled:
            raise SimulationError("sample path was filled under another compiled model")
        elif self.seed != seed:
            raise SimulationError(f"sample path was filled under seed {self.seed}, not {seed}")
        elif self.total_cases != total_cases:
            raise SimulationError(
                f"sample path was filled for {self.total_cases} cases, not {total_cases}"
            )

    def _generate_arrivals(self) -> None:
        """Set `arrivals` to every case's arrival event, in event order:
        case i arrives with sequence number i, and arrival times never
        decrease, so the events are sorted on (time, kind, seq) as built."""
        arrival = self.compiled.model.arrival
        inter_arrival = arrival.inter_arrival
        # a fixed gap is not drawn; the arrivals stream has no other consumer
        fixed_gap = inter_arrival.param("value") if inter_arrival.kind == "fixed" else None
        stream = rng.Stream(self.seed, "arrivals")
        cal = arrival.calendar
        events = []
        raw = 0.0
        for case_id in range(self.total_cases):
            if fixed_gap is None:
                raw += inter_arrival.sample(stream.next_unit())
            else:
                raw += fixed_gap
            events.append((cal.next_open(rng.round_half_up(raw)), _ARRIVAL, case_id, case_id))
        self.arrivals = tuple(events)

    def work(self, case_id: int, activity_id: str, visit: int) -> int:
        """The processing seconds of a visit to an activity that draws."""
        key = (case_id, activity_id, visit)
        work = self.draws.get(key)
        if work is None:
            compiled = self.compiled
            u = rng.visit_unit(self.hasher, _DURATIONS, case_id,
                               compiled.activity_keys[activity_id], visit)
            work = self.draws[key] = rng.round_half_up(
                compiled.activities[activity_id].duration.sample(u)
            )
        return work

    def hop(self, case_id: int, gw_id: str, visit: int) -> tuple[str, str]:
        """The (target, arc id) hop an xor-split picks."""
        key = (case_id, gw_id, visit)
        hop = self.draws.get(key)
        if hop is None:
            u = rng.visit_unit(self.hasher, _BRANCHING, case_id,
                               self.compiled.gateway_keys[gw_id], visit)
            hop = self.draws[key] = _pick(self.compiled.branches[gw_id], u)
        return hop

    def or_hops(self, case_id: int, gw_id: str, visit: int) -> tuple[tuple[str, str], ...]:
        """The (target, arc id) hops an or-split activates: each branch
        whose own draw falls below its probability, else the one branch a
        fallback draw picks in proportion to the probabilities."""
        key = (case_id, gw_id, visit)
        hops = self.draws.get(key)
        if hops is None:
            hasher, gw_key = self.hasher, self.compiled.gateway_keys[gw_id]
            table = self.compiled.branches[gw_id]
            hops = tuple(
                hop
                for hop, probability, arc_key in table
                if rng.visit_unit(hasher, _BRANCHING, case_id, gw_key, visit, arc_key)
                < probability
            )
            if not hops:
                total = running_sum(probability for _, probability, _ in table)
                u = rng.visit_unit(hasher, _BRANCHING, case_id, gw_key, visit, _FALLBACK)
                hops = (_pick(table, u * total),)
            self.draws[key] = hops
        return hops


def _pick(table, u: float) -> tuple[str, str]:
    """The hop of a split's branch table on whose cumulative probability
    interval `u` falls; the last hop when float drift leaves `u` past them."""
    acc = 0.0
    for hop, probability, _ in table:
        acc += probability
        if u < acc:
            return hop
    return table[-1][0]


# event kinds, in same-instant processing order
_COMPLETE, _ARRIVAL, _WAKE, _TICK = 0, 1, 2, 3

_WEEK_HOURS = SECONDS_PER_WEEK // SECONDS_PER_HOUR

# stream labels and the or-split fallback part, as rng.message encodes them
_DURATIONS = rng.message("durations")
_BRANCHING = rng.message("branching")
_FALLBACK = rng.message("fallback")

# builds a named tuple from a tuple of its fields in one C call
_tuple_new = tuple.__new__


def _clock_hours(policy: BatchingPolicy | None) -> tuple[int, ...]:
    """Sorted week-hours (0 = Monday 00:00-01:00) in which some condition
    group that reads the clock has all its daily-hour / week-day conditions
    true; the union of those groups' 168-slot masks.  A group holds at most
    one condition of each kind, and a daily-hour condition reads only the
    hour of the day and a week-day condition only the day, so a group's
    mask is its hours times its days (all 24 or all 7 when it lacks one)."""
    if policy is None:
        return ()
    hours: set[int] = set()
    for group in policy.rule.groups:
        daily, weekly = group.find(DAILY_HOUR), group.find(WEEK_DAY)
        if daily is not None or weekly is not None:
            day_hours = range(24) if daily is None else daily.hours
            days = range(7) if weekly is None else weekly.days
            hours.update(d * 24 + h for d in days for h in day_hours)
    return tuple(sorted(hours))


_SPLITS = ("xor-split", "or-split")
_JOINS = ("xor-join", "and-join", "or-join")


class CompiledModel:
    """A validated model and the tables the engine reads from it (its
    or-join pairing is `model.pair_or_splits`, checked by validation),
    built once by `compile_model` and shared by every simulation of the
    model.  Nothing in it depends on a policy set, a seed or a run, and
    the search keeps detection's schedule tables (`CandidateEvaluator`)."""

    __slots__ = ("model", "activities", "resources", "gateways", "hops", "branches",
                 "join_arcs", "or_join_of", "activity_keys", "gateway_keys",
                 "fixed_work", "eligible", "default_costs")

    def __init__(self, model: ProcessModel):
        hops: dict[str, list[tuple[str, str]]] = {}
        join_arcs: dict[str, list[str]] = {}
        for arc in model.arcs:
            hops.setdefault(arc.source, []).append((arc.target, arc.id))
            join_arcs.setdefault(arc.target, []).append(arc.id)
        self.model = model
        self.activities: dict[str, Activity] = {a.id: a for a in model.activities}
        self.resources: dict[str, ResourceProfile] = {r.id: r for r in model.resources}
        self.gateways: dict[str, Gateway] = {g.id: g for g in model.gateways}
        # node -> the (target, arc id) hops a token takes on leaving it, one
        # per outgoing arc in model order; none for an end node
        self.hops = {
            node: () if node in model.end_nodes else tuple(hops.get(node, ()))
            for node in (*self.activities, *self.gateways)
        }
        # xor/or split -> one (hop, probability, arc key) per hop, the hop
        # being the (target, arc id) tuple of `self.hops` itself
        self.branches: dict[str, tuple[tuple[tuple[str, str], float, bytes], ...]] = {}
        for g in model.gateways:
            if g.kind in _SPLITS:
                probs = dict(g.branch_probabilities)
                self.branches[g.id] = tuple(
                    (hop, probs[hop[1]], rng.message(hop[1])) for hop in self.hops[g.id]
                )
        # and-join -> its incoming arc ids
        self.join_arcs = {
            g.id: tuple(join_arcs.get(g.id, ())) for g in model.gateways if g.kind == "and-join"
        }
        # or-split -> the or-join its branches reconverge at
        self.or_join_of = pair_or_splits(model)
        # rng.message(id), the id part of a draw
        self.activity_keys = {a.id: rng.message(a.id) for a in model.activities}
        self.gateway_keys = {g.id: rng.message(g.id) for g in model.gateways}
        # the duration of a `fixed` distribution
        self.fixed_work = {
            a.id: rng.round_half_up(a.duration.param("value"))
            if a.duration.kind == "fixed"
            else None
            for a in model.activities
        }
        # (id, calendar, always open, rate) per eligible resource, sorted by id
        entries = {
            r.id: (r.id, r.calendar, r.calendar.always_open, r.cost_per_time_unit)
            for r in model.resources
        }
        self.eligible = {
            a.id: tuple(entries[rid] for rid in sorted(a.resources)) for a in model.activities
        }
        # the cost of a batch with no policy
        self.default_costs = {
            a.id: CostModel(fixed_cost=a.fixed_cost_per_execution) for a in model.activities
        }


def compile_model(model: ProcessModel) -> CompiledModel:
    """Validate `model` and build its engine tables.  Raises
    SimulationError, naming every violation, when `validate_model` finds
    any; a model it accepts compiles."""
    violations = validate_model(model)
    if violations:
        raise SimulationError("model failed validation: " + "; ".join(violations))
    return CompiledModel(model)


def as_compiled(model: CompiledModel | ProcessModel) -> CompiledModel:
    """`model` itself when it is compiled, else its compilation."""
    return model if isinstance(model, CompiledModel) else compile_model(model)


class _ActivityState:
    """What the engine reads of one activity under one policy set."""

    __slots__ = ("policy", "fire_at", "cost", "base_price", "price_scale",
                 "clock_hours", "wakes", "fixed_work", "resources", "waiting")

    def __init__(self, compiled: CompiledModel, activity: Activity,
                 policy: BatchingPolicy | None):
        self.policy = policy
        self.fire_at = _fire_at(policy)
        # the policy's cost model, else the activity's default
        self.cost = policy.cost if policy else compiled.default_costs[activity.id]
        # the `CostModel.price_terms` of a batch of one
        self.base_price, self.price_scale = self.cost.price_terms(1)
        self.clock_hours = _clock_hours(policy)
        # (delay, wt-first) per waiting-time condition with a positive
        # threshold, in rule order: the wakes an enablement schedules
        self.wakes = _wakes(policy)
        self.fixed_work = compiled.fixed_work[activity.id]  # the duration of a `fixed` one
        # (id, calendar, always open, rate) per eligible resource, sorted by id
        self.resources = compiled.eligible[activity.id]
        # (case_id, enable_time, work) in enable-time order, checked in
        # _enable_instance
        self.waiting: list[tuple[int, int, int]] = []


def _fire_at(policy: BatchingPolicy | None) -> float:
    """The fewest waiting instances that can fire the rule of `policy`:
    the least over its groups of the group's size threshold, 1 for a group
    without one.  A group holds at most one condition of each kind, so no
    group holds below it; an empty rule, which never fires, never reaches
    it.  A rule without a clock or waiting-time condition holds whenever
    its queue reaches it."""
    if policy is None:
        return 1
    sizes = (group.find(SIZE) for group in policy.rule.groups)
    return min((1 if size is None else int(size.threshold) for size in sizes), default=math.inf)


def _wakes(policy: BatchingPolicy | None) -> tuple[tuple[int, bool], ...]:
    """The `_ActivityState.wakes` of an activity under `policy`."""
    if policy is None:
        return ()
    return tuple(
        (math.ceil(cond.threshold), cond.kind == WT_FIRST)
        for group in policy.rule.groups
        for cond in group.conditions
        if cond.kind in (WT_FIRST, WT_LAST) and cond.threshold > 0
    )


class _Engine:
    def __init__(self, compiled: CompiledModel, policies: PolicySet, config: SimConfig,
                 path: SamplePath | None = None):
        for activity_id in policies:
            if activity_id not in compiled.activities:
                raise SimulationError(f"policy references unknown activity {activity_id!r}")
        self.model = compiled.model
        total = config.total_cases or compiled.model.arrival.total_cases
        if path is None:
            path = SamplePath()
        path.bind(compiled, config.seed, total)
        self.path = path  # the arrival events and every draw
        self.now = 0

        self.gateways = compiled.gateways
        self.hops = compiled.hops
        self.join_arcs = compiled.join_arcs
        self.or_join_of = compiled.or_join_of

        self.act_states = {}
        for activity_id, activity in compiled.activities.items():
            self.act_states[activity_id] = _ActivityState(
                compiled, activity, policies.get(activity_id)
            )
        # activities with a rule, in evaluation order
        self.ruled = [
            (a, s) for a, s in sorted(self.act_states.items()) if s.policy is not None
        ]
        self.clocked = [s for _, s in self.ruled if s.clock_hours]
        # how many activities hold at least their `fire_at` waiting instances
        self.ready = 0
        self.batch_ids = path.batch_ids
        self.free_at = dict.fromkeys(compiled.resources, 0)  # resource id -> when it frees

        self.or_expectations: dict[tuple[int, str], list[int]] = {}
        self.and_counts: dict[tuple[int, str], dict[str, int]] = {}

        # the events scheduled while the simulation runs; the path's arrival
        # events took the sequence numbers 0..total-1
        self.heap: list = []
        self.seq = itertools.count(total)
        self.pending_case_events = total
        self.tick_at: int | None = None  # earliest pending tick

        self.instances: list[InstanceRecord] = []
        self.batches: list[BatchRecord] = []
        # (case, node) -> visits so far; kept only where a draw is keyed by it
        self.visit_counts: dict[tuple[int, str], int] = {}

    # -- event plumbing --------------------------------------------------------

    def _push(self, time: int, kind: int, payload) -> None:
        """Schedule a wake or tick; completions are pushed where batches
        start, which count them in `pending_case_events`."""
        heapq.heappush(self.heap, (time, kind, next(self.seq), payload))

    def _schedule_tick(self) -> None:
        """Tick at the first hour boundary after now that lies in a clock
        hour of some waiting activity, unless an earlier tick is pending."""
        hour = self.now // SECONDS_PER_HOUR + 1
        slot = hour % _WEEK_HOURS
        best = None
        for state in self.clocked:
            if not state.waiting:
                continue
            hours = state.clock_hours
            i = bisect.bisect_left(hours, slot)
            ahead = hours[i] - slot if i < len(hours) else hours[0] + _WEEK_HOURS - slot
            if best is None or ahead < best:
                best = ahead
        if best is None:
            return
        boundary = (hour + best) * SECONDS_PER_HOUR
        if self.tick_at is None or boundary < self.tick_at:
            self._push(boundary, _TICK, None)
            self.tick_at = boundary

    def _schedule_timeout_wakes(self, activity_id: str) -> None:
        """Wake the activity at the first integer instant at which a waiting
        threshold of the instance just enabled holds.  wt-first only counts
        from the first waiting instance; wt-last restarts with each one."""
        state = self.act_states[activity_id]
        first = len(state.waiting) == 1
        for delay, wt_first in state.wakes:
            if first or not wt_first:
                self._push(self.now + delay, _WAKE, activity_id)

    # -- token routing -----------------------------------------------------------

    def _route(self, case_id: int, node_id: str, via_arc_id: str | None = None) -> None:
        """Walk a token through gateways until it rests at activities or
        ends, depth first: a single hop is followed in place, and only a
        fan-out keeps its other hops on a stack."""
        act_states = self.act_states
        gateways = self.gateways
        hops = self.hops
        visit_counts = self.visit_counts
        path = self.path
        draws = path.draws
        stack: list[tuple[str, str]] = []
        node, via = node_id, via_arc_id
        while True:
            if node in act_states:
                self._enable_instance(case_id, node)
                outs = ()
            else:
                gw = gateways.get(node)
                if gw is None:
                    raise SimulationError(f"token reached unknown node {node!r}")
                kind = gw.kind
                outs = hops[node]
                if kind in _JOINS:
                    if not self._join_ready(case_id, gw, via):
                        outs = ()
                elif outs and kind == "xor-split":
                    # the keyed draw of `_drawn`, looked up inline
                    key = (case_id, node)
                    visit = visit_counts.get(key, 0)
                    visit_counts[key] = visit + 1
                    hop = draws.get((case_id, node, visit))
                    if hop is None:
                        hop = path.hop(case_id, node, visit)
                    outs = (hop,)
                elif outs and kind == "or-split":
                    outs = self._activate_or_branches(case_id, node)
                # an and-split fans out; a join forwards along its outgoing arc(s)
            if outs:
                node, via = outs[0]
                if len(outs) > 1:
                    stack.extend(reversed(outs[1:]))
            elif stack:
                node, via = stack.pop()
            else:
                return

    def _join_ready(self, case_id: int, gw, via_arc_id: str | None) -> bool:
        key = (case_id, gw.id)
        if gw.kind == "xor-join":
            return True
        if gw.kind == "and-join":
            counts = self.and_counts.setdefault(key, {})
            arc_key = via_arc_id or ""
            counts[arc_key] = counts.get(arc_key, 0) + 1
            needed = self.join_arcs[gw.id]
            if all(counts.get(a, 0) >= 1 for a in needed):
                for a in needed:
                    counts[a] -= 1
                return True
            return False
        # or-join: wait for exactly the number of branches its split activated
        pending = self.or_expectations.get(key)
        if not pending:
            raise SimulationError(
                f"or-join {gw.id!r} received a token with no registered or-split activation"
            )
        pending[0] -= 1
        if pending[0] == 0:
            pending.pop(0)
            return True
        return False

    def _drawn(self, draw, case_id: int, node: str):
        """What the path's `draw(case_id, node, visit)` decides at this
        visit of the case to `node`, the visit counted here."""
        key = (case_id, node)
        visit = self.visit_counts.get(key, 0)
        self.visit_counts[key] = visit + 1
        return draw(case_id, node, visit)

    def _activate_or_branches(self, case_id: int, gw_id: str) -> tuple[tuple[str, str], ...]:
        hops = self._drawn(self.path.or_hops, case_id, gw_id)
        join = self.or_join_of[gw_id]
        self.or_expectations.setdefault((case_id, join), []).append(len(hops))
        return hops

    # -- activity lifecycle ---------------------------------------------------

    def _enable_instance(self, case_id: int, activity_id: str) -> None:
        state = self.act_states[activity_id]
        work = state.fixed_work
        if work is None:
            work = self._drawn(self.path.work, case_id, activity_id)
        now = self.now
        if state.policy is None:
            # nothing ever waits: the instance is a batch of one at once
            self._start_batch(activity_id, state, ((case_id, now, work),))
            return
        waiting = state.waiting
        if waiting and now < waiting[-1][1]:
            raise SimulationError(
                f"activity {activity_id!r} enabled at {now}, "
                f"before its last waiting instance ({waiting[-1][1]})"
            )
        waiting.append((case_id, now, work))
        if len(waiting) == state.fire_at:
            self.ready += 1
        if state.wakes:
            self._schedule_timeout_wakes(activity_id)

    def _evaluate_rules(self) -> None:
        """Fire every activity whose rule holds right now.  A queue shorter
        than its `fire_at` is not evaluated: no group of its rule can hold."""
        now = self.now
        for activity_id, state in self.ruled:
            waiting = state.waiting
            if len(waiting) >= state.fire_at and evaluate_activation_rule(
                state.policy.rule,
                _tuple_new(BatchState, (len(waiting), waiting[0][1], waiting[-1][1])),
                now,
            ):
                self._form_batch(activity_id)

    def _form_batch(self, activity_id: str) -> None:
        """Start every waiting instance of the activity as one batch."""
        state = self.act_states[activity_id]
        members = state.waiting
        state.waiting = []
        if len(members) >= state.fire_at:  # a flush may form a shorter one
            self.ready -= 1
        self._start_batch(activity_id, state, members)

    def _start_batch(self, activity_id: str, state: _ActivityState, members) -> None:
        """Start `members`, (case_id, enable_time, work) entries in waiting
        order, as one batch on the eligible resource that can start it
        earliest (ties by id).  Most batches hold one instance: a batch of
        one is priced from its set-up price terms and, on an always-open
        calendar, ends its work later without `work_end`."""
        now = self.now
        free_at = self.free_at
        best = None  # validation guarantees an eligible resource
        for resource in state.resources:
            rid, calendar, always_open, _ = resource
            start = free_at[rid]
            if start < now:
                start = now
            if not always_open:
                start = calendar.next_open(start)
            if best is None or start < best_start:
                best, best_start = resource, start
        rid, calendar, always_open, rate = best
        start = best_start
        index = len(self.batches)
        batch_ids = self.batch_ids
        if index == len(batch_ids):
            batch_ids.append(f"b{index + 1:05d}")
        batch_id = batch_ids[index]
        instances = self.instances
        heap = self.heap
        seq = self.seq
        first_index = len(instances)
        size = len(members)
        if size == 1:
            ((case_id, enable_time, work),) = members
            end = start + work if always_open else calendar.work_end(start, work)
            cost = batch_price(state.base_price, state.price_scale, work, end - start, rate)
            instances.append(_tuple_new(InstanceRecord, (
                case_id, activity_id, rid, enable_time, start, end, batch_id, cost, work
            )))
            heapq.heappush(heap, (end, _COMPLETE, next(seq), (case_id, activity_id, first_index)))
            self.pending_case_events += 1
            self.batches.append(_tuple_new(
                BatchRecord, (batch_id, activity_id, rid, start, end, (first_index,), cost, work)
            ))
            free_at[rid] = end
            return

        works = [work for _, _, work in members]
        if state.policy.batch_type == SEQUENTIAL:
            # member i works from bounds[i] to bounds[i + 1]
            bounds = [start]
            for work in works:
                bounds.append(calendar.work_end(bounds[-1], work))
            batch_end = bounds[-1]
            busy = sum(works)
        else:
            bounds = None
            busy = max(works)
            batch_end = calendar.work_end(start, busy)
        cost = compute_batch_cost(
            size, [float(work) for work in works], batch_end - start, rate, state.cost
        )
        # equal shares, with the last member absorbing float drift so the
        # members always sum back to the batch cost exactly
        share = cost / size
        last = size - 1
        allocated = share
        allocated_so_far = 0.0
        s, e = start, batch_end
        for i, (case_id, enable_time, work) in enumerate(members):
            if bounds is not None:
                s, e = bounds[i], bounds[i + 1]
            if i == last:
                allocated = cost - allocated_so_far
            allocated_so_far += allocated
            instances.append(_tuple_new(
                InstanceRecord,
                (case_id, activity_id, rid, enable_time, s, e, batch_id, allocated, work),
            ))
            heapq.heappush(heap, (e, _COMPLETE, next(seq), (case_id, activity_id, first_index + i)))
        self.pending_case_events += size
        indices = tuple(range(first_index, first_index + size))
        self.batches.append(_tuple_new(
            BatchRecord, (batch_id, activity_id, rid, start, batch_end, indices, cost, busy)
        ))
        free_at[rid] = batch_end

    # -- termination ------------------------------------------------------------

    def _any_waiting(self) -> bool:
        return any(s.waiting for s in self.act_states.values())

    def _flush_all(self) -> None:
        for activity_id in sorted(self.act_states):
            if self.act_states[activity_id].waiting:
                self._form_batch(activity_id)

    # -- main loop ----------------------------------------------------------------

    def run(self) -> EventLog:
        arrivals = self.path.arrivals
        total = len(arrivals)
        arrived = 0  # arrivals[arrived] is the next arrival
        heap = self.heap
        heappop = heapq.heappop
        act_states = self.act_states
        hops = self.hops
        start_node = self.model.start_node
        enable = self._enable_instance
        route = self._route
        # with no clock condition this would do nothing
        schedule_tick = self._schedule_tick if self.clocked else None
        while True:
            if self.pending_case_events == 0 and not self.ready:
                # the waiting sets are final and none can reach a rule
                if not self._any_waiting():
                    break
                self._flush_all()
                continue
            # the earlier of the next arrival and the heap's first event;
            # both are ordered on (time, kind, seq)
            if arrived < total and (not heap or arrivals[arrived] < heap[0]):
                time, kind, _, payload = arrivals[arrived]
                arrived += 1
            elif heap:
                time, kind, _, payload = heappop(heap)
            else:
                break
            if time > self.now:
                self.now = time
            if kind == _ARRIVAL:
                self.pending_case_events -= 1
                if start_node in act_states:
                    enable(payload, start_node)
                else:
                    route(payload, start_node)
            elif kind == _COMPLETE:
                self.pending_case_events -= 1
                case_id, activity_id, _idx = payload
                for target, arc_id in hops[activity_id]:
                    if target in act_states:
                        enable(case_id, target)
                    else:
                        route(case_id, target, arc_id)
            elif kind == _TICK and time == self.tick_at:
                self.tick_at = None
            # state changed, a threshold crossed or a clock hour began; a
            # pass can fire only while some queue holds its `fire_at`
            if self.ready:
                self._evaluate_rules()
            if schedule_tick is not None:
                schedule_tick()
        return EventLog(tuple(self.instances), tuple(self.batches))


def simulate(
    model: CompiledModel | ProcessModel,
    policies: PolicySet,
    config: SimConfig,
    path: SamplePath | None = None,
) -> SimResult:
    """Run one deterministic simulation and fold its objectives.

    A bare `ProcessModel` is compiled first; callers that simulate one
    model many times compile it once and pass the `CompiledModel`, and
    may pass a `SamplePath` to replay the arrivals and draws of an earlier
    simulation of that compiled model under the same seed and case count;
    without one the run draws on a fresh path.
    The returned log is complete (warmup included); the objective values
    exclude the warmup cases.  A log that runs past `LAST_INSTANT`, the
    last instant it can spell, and a cycle time or cost total that
    overflows to inf raise SimulationError.
    """
    compiled = as_compiled(model)
    total = config.total_cases or compiled.model.arrival.total_cases
    if config.warmup >= total:
        raise SimulationError("warmup must be smaller than the case count")
    log = _Engine(compiled, policies, config, path).run()
    if log.horizon > LAST_INSTANT:  # no instant of a log comes after its last batch end
        raise SimulationError(str(LogTimeError(log.horizon)))
    trimmed = filter_warmup(log, config.warmup)
    objectives = evaluate_objectives(trimmed, config.cycle_time_mode)
    if not (math.isfinite(objectives.total_cycle_time) and math.isfinite(objectives.total_cost)):
        raise SimulationError(
            f"objective totals overflow: cycle time {objectives.total_cycle_time!r}, "
            f"cost {objectives.total_cost!r}"
        )
    return SimResult(log, objectives)


def parse_sim_config(doc) -> SimConfig:
    """Read a run-control document (see `codec.from_doc`)."""
    return from_doc(SimConfig, doc, SimulationError)
