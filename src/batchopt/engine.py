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
only on hour boundaries, so no rule can newly hold at any other instant;
a size-only rule changes its answer only when its activity enables an
instance, so a pass evaluates it only after such an event.  Rules still
fire as if all were evaluated after every event.  When no future event
can ever fire a rule, the remaining waiting instances are flushed.

The event set has two parts.  Every case's arrival is generated before
the first event, into a list that is already in event order; the
completions, wakes and ticks that the run schedules as it goes are kept
in a heap.  The loop takes the earlier of the next arrival and the heap's
first event, both ordered on (time, kind, seq), so events are processed
in the order one heap of all of them would give, while the heap holds
only the events in flight, not every case's arrival.

An activity's waiting queue only grows by appends at the current instant
and is emptied whole when a batch forms, so it stays in enable-time order.
A rule therefore reads just the queue's length and its first and last
enable times, and one evaluation costs the same however long the queue.

All randomness is drawn from counter-based streams keyed by case /
activity / gateway visit, so two runs with the same seed are bit-identical
and a policy change never perturbs arrivals or duration samples.  The
engine keeps one keyed hasher for its seed and draws through
`rng.visit_unit` with label and ids encoded once at set-up (see rng.py); a
`fixed` duration draws nothing, which shifts no other draw because every
draw is keyed.  A `fixed` inter-arrival time draws nothing either, so a
model for which `seed_free` holds draws nothing at all and simulates to
the same result under every seed.

Whatever depends only on the model is computed once per model, not once
per simulation: `compile_model` validates it and builds its
`CompiledModel` (node and branch tables, or-join pairing, encoded ids,
fixed durations, sorted eligible resources), and the CLI commands, the
search's `CandidateEvaluator` and `metrics.CycleTimes` compile once and
pass it to every `simulate`.  `simulate` compiles a bare
`ProcessModel` itself.  A `CompiledModel` holds only what the engine
reads; detection's schedule tables are kept by the search that reads
them (`optimize.CandidateEvaluator.schedules`).  What depends on the
policy set (the clock-hour masks, the waiting-time wakes) is set up once
per simulation.  What depends on the model, seed and case count but not
on the policy set (the arrival events and every keyed draw) can be kept
in a `SamplePath`: the first simulation given one fills it and later
ones replay it, with the same bytes as drawing afresh.  Only
`metrics.CycleTimes` builds one, because `batchopt evaluate`
re-simulates many policy sets through it under one seed; a lone
simulation keeps nothing, and a search gives each simulation its own
seed.  The search keeps its own per-run memo of
results, and only for seed-free models (see optimize.py).

Records are tuples.  The log's `InstanceRecord` / `BatchRecord` and the
`BatchState` a rule reads are each built with one `tuple.__new__` call,
not the Python `__new__` that `NamedTuple` generates: the same record at
half the cost.  A waiting instance is a plain `(case_id, enable_time,
work)` tuple.  An activity without a policy never queues: each instance
is started at once as a batch of one, and a batch of one (from a rule or
a flush too) skips the cost-sharing arithmetic of larger batches, whose
last member absorbs float drift.  A case's visit count at a node is kept
only where a draw is keyed by it.
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
    case count), shared by simulations of different policy sets.

    A new path is empty.  The first simulation given it binds it to its
    compiled model, seed and case count and fills it as it runs; every
    later one replays it: it copies the arrival events and looks each
    draw up, drawing only what the path misses.  A draw is stored under
    (case, node, visit), its key without the stream label, which the node
    implies; the value is what the draw decides, which depends on nothing
    else under the bound model and seed: a duration's seconds, an
    xor-split's hop, or the hops an or-split's per-branch and fallback
    draws activate.  A simulation under any other compiled model, seed or
    case count raises SimulationError rather than replay the wrong draws.
    """

    __slots__ = ("compiled", "seed", "total_cases", "arrivals", "draws")

    def __init__(self):
        self.compiled: CompiledModel | None = None
        self.seed: int | None = None
        self.total_cases: int | None = None
        self.arrivals: tuple | None = None  # the arrival events, in event order
        self.draws: dict[tuple[int, str, int], object] = {}

    def bind(self, compiled: CompiledModel, seed: int, total_cases: int) -> None:
        """Bind an empty path to a run; check a bound one against it."""
        if self.compiled is None:
            self.compiled, self.seed, self.total_cases = compiled, seed, total_cases
        elif self.compiled is not compiled:
            raise SimulationError("sample path was filled under another compiled model")
        elif self.seed != seed:
            raise SimulationError(f"sample path was filled under seed {self.seed}, not {seed}")
        elif self.total_cases != total_cases:
            raise SimulationError(
                f"sample path was filled for {self.total_cases} cases, not {total_cases}"
            )


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
                 "join_arcs", "end_nodes", "or_join_of", "activity_keys", "gateway_keys",
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
        # node -> one (target, arc id) hop per outgoing arc, in model order
        self.hops = {node: tuple(h) for node, h in hops.items()}
        # xor/or split -> one (hop, probability, arc key) per hop, the hop
        # being the (target, arc id) tuple of `self.hops` itself
        self.branches: dict[str, tuple[tuple[tuple[str, str], float, bytes], ...]] = {}
        for g in model.gateways:
            if g.kind in _SPLITS:
                probs = dict(g.branch_probabilities)
                self.branches[g.id] = tuple(
                    (hop, probs[hop[1]], rng.message(hop[1])) for hop in self.hops.get(g.id, ())
                )
        # and-join -> its incoming arc ids
        self.join_arcs = {
            g.id: tuple(join_arcs.get(g.id, ())) for g in model.gateways if g.kind == "and-join"
        }
        self.end_nodes = frozenset(model.end_nodes)
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
        # eligible resources, sorted by id
        self.eligible = {
            a.id: tuple((rid, self.resources[rid]) for rid in sorted(a.resources))
            for a in model.activities
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

    __slots__ = ("policy", "size_only", "cost", "clock_hours", "wakes", "key", "duration",
                 "fixed_work", "resources", "waiting", "enabled")

    def __init__(self, compiled: CompiledModel, activity: Activity,
                 policy: BatchingPolicy | None):
        self.policy = policy
        # only an enablement can change a size-only rule's answer
        self.size_only = policy is not None and all(
            cond.kind == SIZE for group in policy.rule.groups for cond in group.conditions
        )
        # the policy's cost model, else the activity's default
        self.cost = policy.cost if policy else compiled.default_costs[activity.id]
        self.clock_hours = _clock_hours(policy)
        # (delay, wt-first) per waiting-time condition with a positive
        # threshold, in rule order: the wakes an enablement schedules
        self.wakes = _wakes(policy)
        self.key = compiled.activity_keys[activity.id]  # the id part of its draws
        self.duration = activity.duration
        self.fixed_work = compiled.fixed_work[activity.id]  # the duration of a `fixed` one
        self.resources = compiled.eligible[activity.id]  # (id, profile), sorted by id
        # (case_id, enable_time, work) in enable-time order, checked in
        # _enable_instance
        self.waiting: list[tuple[int, int, int]] = []
        # an instance was enabled since the last rule pass
        self.enabled = False


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
        self.total_cases = config.total_cases or compiled.model.arrival.total_cases
        if path is not None:
            path.bind(compiled, config.seed, self.total_cases)
        self.path = path
        # the path's draws, read before and filled after each draw
        self.draws = None if path is None else path.draws
        self.seed = config.seed
        self.hasher = rng.hasher(config.seed)
        self.now = 0

        self.gateways = compiled.gateways
        self.hops = compiled.hops
        self.branches = compiled.branches
        self.join_arcs = compiled.join_arcs
        self.end_nodes = compiled.end_nodes
        self.or_join_of = compiled.or_join_of
        self.gateway_keys = compiled.gateway_keys

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
        self.free_at = dict.fromkeys(compiled.resources, 0)  # resource id -> when it frees

        self.or_expectations: dict[tuple[int, str], list[int]] = {}
        self.and_counts: dict[tuple[int, str], dict[str, int]] = {}

        # every arrival event, in event order (see _generate_arrivals), and a
        # heap of the events scheduled while the simulation runs
        self.arrivals: list = []
        self.heap: list = []
        self.seq = itertools.count()
        self.pending_case_events = 0
        self.tick_at: int | None = None  # earliest pending tick

        self.instances: list[InstanceRecord] = []
        self.batches: list[BatchRecord] = []
        # (case, node) -> visits so far; kept only where a draw is keyed by it
        self.visit_counts: dict[tuple[int, str], int] = {}

    # -- event plumbing --------------------------------------------------------

    def _push(self, time: int, kind: int, payload) -> None:
        heapq.heappush(self.heap, (time, kind, next(self.seq), payload))
        if kind == _COMPLETE:
            self.pending_case_events += 1

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

    # -- arrivals --------------------------------------------------------------

    def _load_arrivals(self) -> None:
        """Fill `self.arrivals`: a copy of the path's arrival events when it
        holds them (`run` frees the slots it takes), else generated, and
        kept in the path when there is one."""
        path = self.path
        if path is None or path.arrivals is None:
            self._generate_arrivals()
            if path is not None:
                path.arrivals = tuple(self.arrivals)
            return
        self.arrivals = list(path.arrivals)
        # the generated events took the sequence numbers 0..total-1
        self.seq = itertools.count(self.total_cases)
        self.pending_case_events += self.total_cases

    def _generate_arrivals(self) -> None:
        """Fill `self.arrivals` with every case's arrival event, in event
        order: arrival times never decrease and their sequence numbers
        rise, so the list is sorted on (time, kind, seq) as it is built."""
        total = self.total_cases
        inter_arrival = self.model.arrival.inter_arrival
        # a fixed gap is not drawn; the arrivals stream has no other consumer
        fixed_gap = inter_arrival.param("value") if inter_arrival.kind == "fixed" else None
        stream = rng.Stream(self.seed, "arrivals")
        cal = self.model.arrival.calendar
        seq = self.seq
        arrivals = self.arrivals
        raw = 0.0
        for case_id in range(total):
            if fixed_gap is None:
                raw += inter_arrival.sample(stream.next_unit())
            else:
                raw += fixed_gap
            arrivals.append((cal.next_open(rng.round_half_up(raw)), _ARRIVAL, next(seq), case_id))
        self.pending_case_events += total

    # -- token routing -----------------------------------------------------------

    def _route(self, case_id: int, node_id: str, via_arc_id: str | None = None) -> None:
        """Walk a token through gateways until it rests at activities or ends."""
        act_states = self.act_states
        stack: list[tuple[str, str | None]] = [(node_id, via_arc_id)]
        while stack:
            node, via = stack.pop()
            if node in act_states:
                self._enable_instance(case_id, node)
                continue
            gw = self.gateways.get(node)
            if gw is None:
                raise SimulationError(f"token reached unknown node {node!r}")
            kind = gw.kind
            if kind in _JOINS and not self._join_ready(case_id, gw, via):
                continue
            outs = self.hops.get(node)
            if not outs or node in self.end_nodes:
                continue
            if kind == "xor-split":
                stack.append(self._drawn(self._draw_branch, case_id, node))
            elif kind == "or-split":
                stack.extend(reversed(self._activate_or_branches(case_id, node)))
            else:
                # and-split fans out; joins forward along their outgoing arc(s)
                stack.extend(reversed(outs))

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
        """What `draw(case_id, node, visit)` decides at this visit of the
        case to `node`; with a sample path, looked up there and drawn only
        when the path misses it.  The visit is counted either way."""
        key = (case_id, node)
        visit = self.visit_counts.get(key, 0)
        self.visit_counts[key] = visit + 1
        draws = self.draws
        if draws is None:
            return draw(case_id, node, visit)
        key = (case_id, node, visit)
        value = draws.get(key)
        if value is None:
            value = draws[key] = draw(case_id, node, visit)
        return value

    def _draw_work(self, case_id: int, activity_id: str, visit: int) -> int:
        """The processing seconds of a visit to an activity that draws."""
        state = self.act_states[activity_id]
        u = rng.visit_unit(self.hasher, _DURATIONS, case_id, state.key, visit)
        return rng.round_half_up(state.duration.sample(u))

    def _draw_branch(self, case_id: int, gw_id: str, visit: int) -> tuple[str, str]:
        """The (target, arc id) hop an xor-split picks."""
        u = rng.visit_unit(self.hasher, _BRANCHING, case_id, self.gateway_keys[gw_id], visit)
        table = self.branches[gw_id]
        acc = 0.0
        for hop, probability, _ in table:
            acc += probability
            if u < acc:
                return hop
        return table[-1][0]

    def _draw_or_branches(
        self, case_id: int, gw_id: str, visit: int
    ) -> tuple[tuple[str, str], ...]:
        """The (target, arc id) hops an or-split activates: each branch
        whose own draw falls below its probability, else the one branch a
        fallback draw picks in proportion to the probabilities."""
        gw_key = self.gateway_keys[gw_id]
        table = self.branches[gw_id]
        chosen = tuple(
            hop
            for hop, probability, arc_key in table
            if rng.visit_unit(self.hasher, _BRANCHING, case_id, gw_key, visit, arc_key)
            < probability
        )
        if not chosen:
            total = running_sum(probability for _, probability, _ in table)
            u = rng.visit_unit(self.hasher, _BRANCHING, case_id, gw_key, visit, _FALLBACK) * total
            acc = 0.0
            for hop, probability, _ in table:
                acc += probability
                if u < acc:
                    return (hop,)
            return (table[-1][0],)
        return chosen

    def _activate_or_branches(self, case_id: int, gw_id: str) -> tuple[tuple[str, str], ...]:
        hops = self._drawn(self._draw_or_branches, case_id, gw_id)
        join = self.or_join_of[gw_id]
        self.or_expectations.setdefault((case_id, join), []).append(len(hops))
        return hops

    # -- activity lifecycle ---------------------------------------------------

    def _enable_instance(self, case_id: int, activity_id: str) -> None:
        state = self.act_states[activity_id]
        work = state.fixed_work
        if work is None:
            work = self._drawn(self._draw_work, case_id, activity_id)
        now = self.now
        if state.policy is None:
            # nothing ever waits: the instance is a batch of one at once
            self._start_single(activity_id, state, case_id, now, work)
            return
        waiting = state.waiting
        if waiting and now < waiting[-1][1]:
            raise SimulationError(
                f"activity {activity_id!r} enabled at {now}, "
                f"before its last waiting instance ({waiting[-1][1]})"
            )
        waiting.append((case_id, now, work))
        state.enabled = True
        if state.wakes:
            self._schedule_timeout_wakes(activity_id)

    def _evaluate_rules(self) -> None:
        """Fire every activity whose rule holds right now.  A size-only
        rule whose activity enabled nothing since the last pass is not
        evaluated: it answered false then, and its queue has not grown."""
        now = self.now
        for activity_id, state in self.ruled:
            waiting = state.waiting
            if not waiting or (state.size_only and not state.enabled):
                continue
            state.enabled = False
            if evaluate_activation_rule(
                state.policy.rule,
                _tuple_new(BatchState, (len(waiting), waiting[0][1], waiting[-1][1])),
                now,
            ):
                self._form_batch(activity_id)

    def _choose_resource(self, state: _ActivityState) -> tuple[str, ResourceProfile, int]:
        """The eligible resource that can start earliest (ties by id), its
        profile and its start time."""
        now = self.now
        free_at = self.free_at
        best = None
        for rid, profile in state.resources:
            start = profile.calendar.next_open(max(now, free_at[rid]))
            if best is None or start < best[2]:
                best = (rid, profile, start)
        assert best is not None  # validation guarantees eligible resources
        return best

    def _start_single(
        self, activity_id: str, state: _ActivityState, case_id: int, enable_time: int, work: int
    ) -> None:
        """Form and start a batch of one instance."""
        rid, profile, start = self._choose_resource(state)
        end = profile.calendar.work_end(start, work)
        batch_id = f"b{len(self.batches) + 1:05d}"
        cost = compute_batch_cost(
            1, [float(work)], end - start, profile.cost_per_time_unit, state.cost
        )
        index = len(self.instances)
        self.instances.append(_tuple_new(InstanceRecord, (
            case_id, activity_id, rid, enable_time, start, end, batch_id, cost, work
        )))
        heapq.heappush(self.heap, (end, _COMPLETE, next(self.seq), (case_id, activity_id, index)))
        self.pending_case_events += 1
        self.batches.append(
            _tuple_new(BatchRecord, (batch_id, activity_id, rid, start, end, (index,), cost, work))
        )
        self.free_at[rid] = end

    def _form_batch(self, activity_id: str) -> None:
        state = self.act_states[activity_id]
        members = state.waiting
        state.waiting = []
        if len(members) == 1:
            self._start_single(activity_id, state, *members[0])
            return
        rid, profile, start = self._choose_resource(state)
        calendar = profile.calendar
        works = [work for _, _, work in members]
        spans: list[tuple[int, int]] = []
        if state.policy.batch_type == SEQUENTIAL:
            cursor = start
            for work in works:
                end = calendar.work_end(cursor, work)
                spans.append((cursor, end))
                cursor = end
            batch_end = cursor
            busy = sum(works)
        else:
            longest = max(works)
            batch_end = calendar.work_end(start, longest)
            spans = [(start, batch_end)] * len(members)
            busy = longest

        batch_id = f"b{len(self.batches) + 1:05d}"
        cost = compute_batch_cost(
            len(members),
            [float(work) for work in works],
            batch_end - start,
            profile.cost_per_time_unit,
            state.cost,
        )
        # equal shares, with the last member absorbing float drift so the
        # members always sum back to the batch cost exactly
        share = cost / len(members)
        allocated_so_far = 0.0
        first_index = len(self.instances)
        for i, ((case_id, enable_time, work), (s, e)) in enumerate(zip(members, spans)):
            allocated = cost - allocated_so_far if i == len(members) - 1 else share
            allocated_so_far += allocated
            self.instances.append(_tuple_new(
                InstanceRecord,
                (case_id, activity_id, rid, enable_time, s, e, batch_id, allocated, work),
            ))
            self._push(e, _COMPLETE, (case_id, activity_id, len(self.instances) - 1))
        indices = tuple(range(first_index, first_index + len(members)))
        self.batches.append(_tuple_new(
            BatchRecord, (batch_id, activity_id, rid, start, batch_end, indices, cost, busy)
        ))
        self.free_at[rid] = batch_end

    # -- termination ------------------------------------------------------------

    def _any_waiting(self) -> bool:
        return any(s.waiting for s in self.act_states.values())

    def _time_can_fire_something(self) -> bool:
        """Can pure time passage still fire some waiting rule?

        With no case events pending the waiting sets are final, so a group
        is reachable iff its size condition (if any) already holds; wt and
        schedule conditions always come true eventually.
        """
        for state in self.act_states.values():
            if not state.waiting or state.policy is None:
                continue
            count = len(state.waiting)
            for group in state.policy.rule.groups:
                size_cond = group.find(SIZE)
                if size_cond is None or count >= size_cond.threshold:
                    return True
        return False

    def _flush_all(self) -> None:
        for activity_id in sorted(self.act_states):
            if self.act_states[activity_id].waiting:
                self._form_batch(activity_id)

    # -- main loop ----------------------------------------------------------------

    def run(self) -> EventLog:
        self._load_arrivals()
        arrivals = self.arrivals
        arrived = 0  # arrivals[arrived] is the next arrival
        heap = self.heap
        heappop = heapq.heappop
        act_states = self.act_states
        hops = self.hops
        end_nodes = self.end_nodes
        start_node = self.model.start_node
        enable = self._enable_instance
        route = self._route
        # with no rule (or no clock condition) these would do nothing
        evaluate_rules = self._evaluate_rules if self.ruled else None
        schedule_tick = self._schedule_tick if self.clocked else None
        while True:
            if self.pending_case_events == 0:
                if not self._any_waiting():
                    break
                if not self._time_can_fire_something():
                    self._flush_all()
                    continue
            # the earlier of the next arrival and the heap's first event;
            # both are ordered on (time, kind, seq)
            if arrived < len(arrivals) and (not heap or arrivals[arrived] < heap[0]):
                time, kind, _, payload = arrivals[arrived]
                arrivals[arrived] = None  # free it, as popping it from the heap would
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
                if activity_id not in end_nodes:
                    for target, arc_id in hops.get(activity_id, ()):
                        if target in act_states:
                            enable(case_id, target)
                        else:
                            route(case_id, target, arc_id)
            elif kind == _TICK and time == self.tick_at:
                self.tick_at = None
            # state changed, a threshold crossed or a clock hour began
            if evaluate_rules is not None:
                evaluate_rules()
            if schedule_tick is not None:
                schedule_tick()
        return EventLog(tuple(self.instances), tuple(self.batches))


def seed_free(model: ProcessModel) -> bool:
    """True when a simulation of `model` draws nothing: its inter-arrival
    time and every duration are `fixed` and it has no xor- or or-split.
    Its result is then the same under every seed."""
    return (
        model.arrival.inter_arrival.kind == "fixed"
        and all(a.duration.kind == "fixed" for a in model.activities)
        and not any(g.kind in ("xor-split", "or-split") for g in model.gateways)
    )


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
    simulation of that compiled model under the same seed and case count.
    The returned log is complete (warmup included); the objective values
    exclude the warmup cases.
    """
    compiled = as_compiled(model)
    total = config.total_cases or compiled.model.arrival.total_cases
    if config.warmup >= total:
        raise SimulationError("warmup must be smaller than the case count")
    log = _Engine(compiled, policies, config, path).run()
    trimmed = filter_warmup(log, config.warmup)
    return SimResult(log, evaluate_objectives(trimmed, config.cycle_time_mode))


def parse_sim_config(doc) -> SimConfig:
    """Read a run-control document (see `codec.from_doc`)."""
    return from_doc(SimConfig, doc, SimulationError)
