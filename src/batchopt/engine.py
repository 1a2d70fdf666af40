"""Discrete-event simulator for batched process execution.

Cases arrive on the arrival calendar, flow token-wise through the node
graph, and accumulate per activity until the activity's activation rule
fires; the fired batch takes every waiting instance, seizes one eligible
resource for its whole span, and works only inside that resource's
calendar.  Activities without a policy run as size-1 batches immediately.

Time advances from event to event (next-event time advance).  Rules are
re-evaluated after every event: an arrival or completion (the only things
that change a size condition), a wake at the exact instant a waiting-time
threshold crosses, and a tick at the next hour boundary at which some
waiting activity's daily-hour / week-day conditions hold.  Clock
conditions change truth only on hour boundaries, so no rule can newly hold
at any other instant.  When no future event can ever fire a rule, the
remaining waiting instances are flushed as final batches.

All randomness is drawn from counter-based streams keyed by case /
activity / gateway visit, so two runs with the same seed are bit-identical
and a policy change never perturbs arrivals or duration samples.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

from . import rng
from .calendars import SECONDS_PER_HOUR, SECONDS_PER_WEEK
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
from .model import ProcessModel, validate_model
from .policy import (
    BatchState,
    BatchingPolicy,
    CostModel,
    DAILY_HOUR,
    PARALLEL,
    PolicySet,
    SEQUENTIAL,
    SIZE,
    WEEK_DAY,
    WT_FIRST,
    WT_LAST,
    compute_batch_cost,
    evaluate_activation_rule,
    evaluate_condition,
)


class SimulationError(RuntimeError):
    pass


@dataclass(frozen=True)
class SimConfig:
    """Run controls; total_cases of None defers to the model's arrival block."""

    seed: int = 0
    total_cases: int | None = None
    warmup: int = 0
    cycle_time_mode: str = CYCLE_TIME_FULL

    def __post_init__(self):
        if self.warmup < 0:
            raise ValueError("warmup must be >= 0")
        if self.total_cases is not None and self.total_cases < 1:
            raise ValueError("total_cases must be >= 1")
        if self.cycle_time_mode not in CYCLE_TIME_MODES:
            raise ValueError(f"unknown cycle time mode {self.cycle_time_mode!r}")


class SimResult(NamedTuple):
    log: EventLog
    objectives: ObjectiveValues


# event kinds, in same-instant processing order
_COMPLETE, _ARRIVAL, _WAKE, _TICK = 0, 1, 2, 3

_WEEK_HOURS = SECONDS_PER_WEEK // SECONDS_PER_HOUR


def _clock_hours(policy: BatchingPolicy | None) -> tuple[int, ...]:
    """Sorted week-hours (0 = Monday 00:00-01:00) in which some condition
    group that reads the clock has all its daily-hour / week-day conditions
    true; the union of those groups' 168-slot masks."""
    if policy is None:
        return ()
    probe = BatchState((0,))  # clock conditions ignore the waiting list
    hours: set[int] = set()
    for group in policy.rule.groups:
        clock = [c for c in group.conditions if c.kind in (DAILY_HOUR, WEEK_DAY)]
        if clock:
            hours.update(
                h
                for h in range(_WEEK_HOURS)
                if all(evaluate_condition(c, probe, h * SECONDS_PER_HOUR) for c in clock)
            )
    return tuple(sorted(hours))


@dataclass
class _WaitingInstance:
    case_id: int
    enable_time: int
    work: int  # sampled processing seconds


@dataclass
class _ActivityState:
    policy: BatchingPolicy | None
    default_cost: CostModel
    clock_hours: tuple[int, ...]  # see _clock_hours
    waiting: list[_WaitingInstance] = field(default_factory=list)

    def enable_times(self) -> tuple[int, ...]:
        return tuple(w.enable_time for w in self.waiting)


@dataclass
class _ResourceState:
    free_at: int = 0


class _Engine:
    def __init__(self, model: ProcessModel, policies: PolicySet, config: SimConfig):
        violations = validate_model(model)
        if violations:
            raise SimulationError("model failed validation: " + "; ".join(violations))
        for activity_id in policies:
            if not any(a.id == activity_id for a in model.activities):
                raise SimulationError(f"policy references unknown activity {activity_id!r}")
        self.model = model
        self.config = config
        self.seed = config.seed
        self.now = 0

        self.activities = {a.id: a for a in model.activities}
        self.resources = {r.id: r for r in model.resources}
        self.gateways = {g.id: g for g in model.gateways}
        self.outgoing: dict[str, list] = {}
        for arc in model.arcs:
            self.outgoing.setdefault(arc.source, []).append(arc)
        self.incoming: dict[str, list] = {}
        for arc in model.arcs:
            self.incoming.setdefault(arc.target, []).append(arc)

        self.act_states = {
            a.id: _ActivityState(
                policy=policies.get(a.id),
                default_cost=CostModel(fixed_cost=a.fixed_cost_per_execution),
                clock_hours=_clock_hours(policies.get(a.id)),
            )
            for a in model.activities
        }
        # activities with a rule, in evaluation order
        self.ruled = [
            (a, s) for a, s in sorted(self.act_states.items()) if s.policy is not None
        ]
        self.clocked = [s for _, s in self.ruled if s.clock_hours]
        self.res_states = {r.id: _ResourceState() for r in model.resources}

        self.or_join_of = self._pair_or_splits()
        self.or_expectations: dict[tuple[int, str], list[int]] = {}
        self.and_counts: dict[tuple[int, str], dict[str, int]] = {}

        self.heap: list = []
        self.seq = itertools.count()
        self.pending_case_events = 0
        self.tick_at: int | None = None  # earliest pending tick

        self.instances: list[InstanceRecord] = []
        self.batches: list[BatchRecord] = []
        self.visit_counts: dict[tuple[int, str], int] = {}

    # -- graph preparation ---------------------------------------------------

    def _pair_or_splits(self) -> dict[str, str]:
        """Match each or-split to the or-join every path reconverges at."""
        or_splits = [g.id for g in self.model.gateways if g.kind == "or-split"]
        if not or_splits:
            return {}
        # iterative postdominator sets over the node graph with a virtual sink
        nodes = sorted(self.model.node_ids)
        sink = "\x00sink"
        succ = {n: [a.target for a in self.outgoing.get(n, [])] for n in nodes}
        for e in self.model.end_nodes:
            succ.setdefault(e, []).append(sink)
        succ[sink] = []
        post: dict[str, set[str]] = {n: set(nodes) | {sink} for n in nodes}
        post[sink] = {sink}
        changed = True
        while changed:
            changed = False
            for n in nodes:
                if not succ[n]:
                    new = {n}
                else:
                    new = set.intersection(*(post[s] for s in succ[n])) | {n}
                if new != post[n]:
                    post[n] = new
                    changed = True
        pairing = {}
        for s in or_splits:
            joins = [
                j
                for j in post[s] - {s}
                if j in self.gateways and self.gateways[j].kind == "or-join"
            ]
            if not joins:
                raise SimulationError(
                    f"or-split {s!r} has no or-join on all outgoing paths; "
                    "or-branches must reconverge"
                )
            # nearest = the join postdominated by every other candidate
            joins.sort(key=lambda j: (len(post[j]), j))
            pairing[s] = joins[0]
        return pairing

    # -- event plumbing --------------------------------------------------------

    def _push(self, time: int, kind: int, payload) -> None:
        heapq.heappush(self.heap, (time, kind, next(self.seq), payload))
        if kind in (_COMPLETE, _ARRIVAL):
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
        for group in state.policy.rule.groups:
            for cond in group.conditions:
                if cond.kind == WT_LAST or (cond.kind == WT_FIRST and first):
                    if cond.threshold > 0:
                        self._push(self.now + math.ceil(cond.threshold), _WAKE, activity_id)

    # -- arrivals --------------------------------------------------------------

    def _generate_arrivals(self) -> None:
        total = self.config.total_cases or self.model.arrival.total_cases
        stream = rng.Stream(self.seed, "arrivals")
        cal = self.model.arrival.calendar
        raw = 0.0
        for case_id in range(total):
            raw += self.model.arrival.inter_arrival.sample(stream.next_unit())
            arrival = cal.next_open(rng.round_half_up(raw))
            self._push(arrival, _ARRIVAL, case_id)

    # -- token routing -----------------------------------------------------------

    def _route(self, case_id: int, node_id: str, via_arc_id: str | None = None) -> None:
        """Walk a token through gateways until it rests at activities or ends."""
        stack: list[tuple[str, str | None]] = [(node_id, via_arc_id)]
        while stack:
            node, via = stack.pop()
            if node in self.activities:
                self._enable_instance(case_id, node)
                continue
            gw = self.gateways.get(node)
            if gw is None:
                raise SimulationError(f"token reached unknown node {node!r}")
            outs = self.outgoing.get(node, [])
            if gw.kind in ("xor-join", "and-join", "or-join"):
                if not self._join_ready(case_id, gw, via):
                    continue
            if node in self.model.end_nodes or not outs:
                continue
            if gw.kind == "xor-split":
                arc = self._pick_branch(case_id, gw, outs)
                stack.append((arc.target, arc.id))
            elif gw.kind == "or-split":
                for arc in reversed(self._activate_or_branches(case_id, gw, outs)):
                    stack.append((arc.target, arc.id))
            else:
                # and-split fans out; joins forward along their outgoing arc(s)
                for arc in reversed(outs):
                    stack.append((arc.target, arc.id))

    def _join_ready(self, case_id: int, gw, via_arc_id: str | None) -> bool:
        key = (case_id, gw.id)
        if gw.kind == "xor-join":
            return True
        if gw.kind == "and-join":
            counts = self.and_counts.setdefault(key, {})
            arc_key = via_arc_id or ""
            counts[arc_key] = counts.get(arc_key, 0) + 1
            needed = [a.id for a in self.incoming.get(gw.id, [])]
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

    def _pick_branch(self, case_id: int, gw, outs):
        visit = self.visit_counts.get((case_id, gw.id), 0)
        self.visit_counts[(case_id, gw.id)] = visit + 1
        probs = dict(gw.branch_probabilities)
        u = rng.unit(self.seed, "branching", case_id, gw.id, visit)
        acc = 0.0
        for arc in outs:
            acc += probs[arc.id]
            if u < acc:
                return arc
        return outs[-1]

    def _activate_or_branches(self, case_id: int, gw, outs) -> list:
        visit = self.visit_counts.get((case_id, gw.id), 0)
        self.visit_counts[(case_id, gw.id)] = visit + 1
        probs = dict(gw.branch_probabilities)
        chosen = []
        for arc in outs:
            u = rng.unit(self.seed, "branching", case_id, gw.id, visit, arc.id)
            if u < probs[arc.id]:
                chosen.append(arc)
        if not chosen:
            total = sum(probs[arc.id] for arc in outs)
            u = rng.unit(self.seed, "branching", case_id, gw.id, visit, "fallback") * total
            acc = 0.0
            for arc in outs:
                acc += probs[arc.id]
                if u < acc:
                    chosen = [arc]
                    break
            if not chosen:
                chosen = [outs[-1]]
        join = self.or_join_of[gw.id]
        self.or_expectations.setdefault((case_id, join), []).append(len(chosen))
        return chosen

    # -- activity lifecycle ---------------------------------------------------

    def _enable_instance(self, case_id: int, activity_id: str) -> None:
        visit = self.visit_counts.get((case_id, activity_id), 0)
        self.visit_counts[(case_id, activity_id)] = visit + 1
        u = rng.unit(self.seed, "durations", case_id, activity_id, visit)
        work = rng.round_half_up(self.activities[activity_id].duration.sample(u))
        state = self.act_states[activity_id]
        state.waiting.append(_WaitingInstance(case_id, self.now, work))
        if state.policy is None:
            self._form_batch(activity_id)
        else:
            self._schedule_timeout_wakes(activity_id)

    def _evaluate_rules(self) -> None:
        """Fire every activity whose rule holds right now."""
        for activity_id, state in self.ruled:
            if not state.waiting:
                continue
            batch_state = BatchState(state.enable_times())
            if evaluate_activation_rule(state.policy.rule, batch_state, self.now):
                self._form_batch(activity_id)

    def _choose_resource(self, activity_id: str) -> tuple[str, int]:
        best = None
        for rid in sorted(self.activities[activity_id].resources):
            res = self.res_states[rid]
            start = self.resources[rid].calendar.next_open(max(self.now, res.free_at))
            if best is None or (start, rid) < best:
                best = (start, rid)
        assert best is not None  # validation guarantees eligible resources
        return best[1], best[0]

    def _form_batch(self, activity_id: str) -> None:
        state = self.act_states[activity_id]
        members = state.waiting
        state.waiting = []
        rid, start = self._choose_resource(activity_id)
        calendar = self.resources[rid].calendar
        policy = state.policy
        batch_type = policy.batch_type if policy else PARALLEL
        cost_model = policy.cost if policy else state.default_cost

        spans: list[tuple[int, int]] = []
        if batch_type == SEQUENTIAL:
            cursor = start
            for w in members:
                end = calendar.work_end(cursor, w.work)
                spans.append((cursor, end))
                cursor = end
            batch_end = cursor
            busy = sum(w.work for w in members)
        else:
            longest = max(w.work for w in members)
            batch_end = calendar.work_end(start, longest)
            spans = [(start, batch_end)] * len(members)
            busy = longest

        batch_id = f"b{len(self.batches) + 1:05d}"
        cost = compute_batch_cost(
            len(members),
            [float(w.work) for w in members],
            batch_end - start,
            self.resources[rid].cost_per_time_unit,
            cost_model,
        )
        # equal shares, with the last member absorbing float drift so the
        # members always sum back to the batch cost exactly
        share = cost / len(members)
        allocated_so_far = 0.0
        first_index = len(self.instances)
        for i, (w, (s, e)) in enumerate(zip(members, spans)):
            allocated = cost - allocated_so_far if i == len(members) - 1 else share
            allocated_so_far += allocated
            self.instances.append(
                InstanceRecord(
                    case_id=w.case_id,
                    activity_id=activity_id,
                    resource_id=rid,
                    enable_time=w.enable_time,
                    start_time=s,
                    end_time=e,
                    batch_id=batch_id,
                    allocated_cost=allocated,
                    work_seconds=w.work,
                )
            )
            self._push(e, _COMPLETE, (w.case_id, activity_id, len(self.instances) - 1))
        self.batches.append(
            BatchRecord(
                batch_id=batch_id,
                activity_id=activity_id,
                resource_id=rid,
                start_time=start,
                end_time=batch_end,
                members=tuple(range(first_index, first_index + len(members))),
                cost=cost,
                busy_seconds=busy,
            )
        )
        self.res_states[rid].free_at = batch_end

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
        self._generate_arrivals()
        while True:
            if self.pending_case_events == 0:
                if not self._any_waiting():
                    break
                if not self._time_can_fire_something():
                    self._flush_all()
                    continue
            if not self.heap:
                break
            time, kind, _, payload = heapq.heappop(self.heap)
            self.now = max(self.now, time)
            if kind == _ARRIVAL:
                self.pending_case_events -= 1
                self._route(payload, self.model.start_node)
            elif kind == _COMPLETE:
                self.pending_case_events -= 1
                case_id, activity_id, _idx = payload
                if activity_id not in self.model.end_nodes:
                    for arc in self.outgoing.get(activity_id, []):
                        self._route(case_id, arc.target, arc.id)
            elif kind == _TICK and time == self.tick_at:
                self.tick_at = None
            # state changed, a threshold crossed or a clock hour began
            self._evaluate_rules()
            self._schedule_tick()
        return EventLog(tuple(self.instances), tuple(self.batches))


def simulate(model: ProcessModel, policies: PolicySet, config: SimConfig) -> SimResult:
    """Run one deterministic simulation and fold its objectives.

    The returned log is complete (warmup included); the objective values
    exclude the warmup cases.
    """
    total = config.total_cases or model.arrival.total_cases
    if config.warmup >= total:
        raise SimulationError("warmup must be smaller than the case count")
    log = _Engine(model, policies, config).run()
    trimmed = filter_warmup(log, config.warmup)
    return SimResult(log, evaluate_objectives(trimmed, config.cycle_time_mode))


_SIM_DOC_KEYS = {
    "seed": "seed",
    "totalCases": "total_cases",
    "warmup": "warmup",
    "cycleTimeMode": "cycle_time_mode",
}


def parse_sim_config(doc) -> SimConfig:
    """Parse a run-control document (dict or JSON text)."""
    import json

    if isinstance(doc, str):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as err:
            raise SimulationError(f"invalid JSON: {err}") from err
    if not isinstance(doc, dict):
        raise SimulationError("expected a JSON object")
    kwargs = {}
    for key, value in doc.items():
        if key not in _SIM_DOC_KEYS:
            raise SimulationError(f"unknown run-control key {key!r}")
        kwargs[_SIM_DOC_KEYS[key]] = value
    try:
        return SimConfig(**kwargs)
    except (TypeError, ValueError) as err:
        raise SimulationError(str(err)) from err


def sim_config_to_doc(config: SimConfig) -> dict:
    return {
        "seed": config.seed,
        "totalCases": config.total_cases,
        "warmup": config.warmup,
        "cycleTimeMode": config.cycle_time_mode,
    }
