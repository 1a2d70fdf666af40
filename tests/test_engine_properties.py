"""Randomized invariants for the simulator.

Small chain models with random durations and random batching policies;
every run must satisfy the structural laws of the log regardless of the
draw: batches partition instances, allocations conserve cost, member
spans obey the batch type, and arrivals ignore the policy.  A differential
test checks the next-event engine against an hourly-tick reference loop.
"""

import heapq
import math

from hypothesis import given, settings, strategies as st

from batchopt import model as m
from batchopt import policy as pol
from batchopt.calendars import SECONDS_PER_HOUR, WEEKDAY_NAMES
from batchopt.engine import _ARRIVAL, _COMPLETE, _TICK, _WAKE, SimConfig, _Engine, simulate
from batchopt.eventlog import EventLog

ALL_WEEK = [
    {"weekday": d, "start": "00:00", "end": "24:00"}
    for d in ("Monday", "Tuesday", "Wednesday", "Thursday", "Friday", "Saturday", "Sunday")
]
BUSINESS_WEEK = [
    {"weekday": d, "start": "09:00", "end": "17:00"}
    for d in ("Monday", "Tuesday", "Wednesday", "Thursday", "Friday")
]


durations = st.one_of(
    st.fixed_dictionaries({"kind": st.just("fixed"), "value": st.integers(60, 7200)}),
    st.fixed_dictionaries(
        {"kind": st.just("exponential"), "mean": st.integers(300, 3600)}
    ),
    st.integers(60, 3000).flatmap(
        lambda lo: st.fixed_dictionaries(
            {
                "kind": st.just("uniform"),
                "low": st.just(lo),
                "high": st.integers(lo + 1, lo + 3600),
            }
        )
    ),
)


conditions = st.one_of(
    st.builds(pol.size_at_least, st.integers(1, 6)),
    st.builds(pol.wait_first_at_least, st.integers(60, 6 * 3600)),
    st.builds(pol.wait_last_at_least, st.integers(60, 6 * 3600)),
    st.builds(pol.in_hours, st.integers(0, 23)),
    st.builds(pol.on_days, st.integers(0, 6)),
)


@st.composite
def rules(draw):
    n_groups = draw(st.integers(0, 2))
    groups = []
    for _ in range(n_groups):
        conds = draw(st.lists(conditions, min_size=1, max_size=3, unique_by=lambda c: c.kind))
        groups.append(conds)
    return pol.rule(*groups)


@st.composite
def scenarios(draw):
    n_acts = draw(st.integers(1, 3))
    acts = [f"step{i}" for i in range(n_acts)]
    doc = {
        "startNode": acts[0],
        "endNodes": [acts[-1]],
        "activities": [
            {
                "id": a,
                "duration": draw(durations),
                "resources": ["shared"],
                "fixedCostPerExecution": draw(st.floats(0, 5)),
            }
            for a in acts
        ],
        "arcs": [{"source": acts[i], "target": acts[i + 1]} for i in range(n_acts - 1)],
        "resources": [
            {
                "id": "shared",
                "calendar": draw(st.sampled_from([ALL_WEEK, BUSINESS_WEEK])),
                "costPerTimeUnit": draw(st.floats(0, 2)),
            }
        ],
        "arrival": {
            "interArrival": draw(durations),
            "calendar": ALL_WEEK,
            "totalCases": draw(st.integers(1, 8)),
        },
    }
    policies = {}
    for a in acts:
        if draw(st.booleans()):
            policies[a] = pol.BatchingPolicy(
                activity_id=a,
                batch_type=draw(st.sampled_from([pol.PARALLEL, pol.SEQUENTIAL])),
                rule=draw(rules()),
                cost=pol.CostModel(
                    fixed_cost=draw(st.floats(0, 10)),
                    resource_cost_mode=draw(
                        st.sampled_from([pol.PER_TIME, pol.PROCESSING_SCALED])
                    ),
                ),
            )
    seed = draw(st.integers(0, 2**31))
    return m.parse_model(doc), policies, seed


@settings(deadline=None)
@given(scenarios())
def test_structural_invariants(scenario):
    model, policies, seed = scenario
    log, objectives = simulate(model, policies, SimConfig(seed=seed))

    n_acts = len(model.activities)
    assert len(log.instances) == model.arrival.total_cases * n_acts

    seen = set()
    for batch in log.batches:
        assert batch.members, "no empty batches"
        for i in batch.members:
            assert i not in seen
            seen.add(i)
            rec = log.instances[i]
            assert rec.batch_id == batch.batch_id
            assert rec.activity_id == batch.activity_id
        member_recs = [log.instances[i] for i in batch.members]
        assert batch.start_time == min(r.start_time for r in member_recs)
        assert batch.end_time == max(r.end_time for r in member_recs)
        assert all(r.enable_time <= batch.start_time for r in member_recs)
        assert sum(r.allocated_cost for r in member_recs) == batch.cost
        assert math.isfinite(batch.cost) and batch.cost >= 0.0
    assert seen == set(range(len(log.instances)))

    assert objectives.instance_count == len(log.instances)
    assert objectives.total_cost >= 0.0


@settings(deadline=None)
@given(scenarios())
def test_batch_type_laws(scenario):
    model, policies, seed = scenario
    log, _ = simulate(model, policies, SimConfig(seed=seed))
    cal = model.resource("shared").calendar
    for batch in log.batches:
        member_recs = [log.instances[i] for i in batch.members]
        policy = policies.get(batch.activity_id)
        batch_type = policy.batch_type if policy else pol.PARALLEL
        if batch_type == pol.PARALLEL:
            assert all(r.start_time == batch.start_time for r in member_recs)
            assert all(r.end_time == batch.end_time for r in member_recs)
            assert batch.busy_seconds == max(r.work_seconds for r in member_recs)
        else:
            ordered = sorted(member_recs, key=lambda r: r.start_time)
            assert ordered[0].start_time == batch.start_time
            for prev, cur in zip(ordered, ordered[1:]):
                assert cur.start_time == prev.end_time
            assert batch.busy_seconds == sum(r.work_seconds for r in member_recs)
        assert cal.open_seconds_between(batch.start_time, batch.end_time) == batch.busy_seconds


@settings(deadline=None)
@given(scenarios())
def test_policy_never_perturbs_arrivals(scenario):
    model, policies, seed = scenario
    first = model.start_node
    plain, _ = simulate(model, {}, SimConfig(seed=seed))
    batched, _ = simulate(model, policies, SimConfig(seed=seed))
    enables = lambda log: sorted(
        (r.case_id, r.enable_time) for r in log.instances if r.activity_id == first
    )
    assert enables(plain) == enables(batched)


@settings(deadline=None)
@given(scenarios())
def test_same_seed_reproduces_everything(scenario):
    model, policies, seed = scenario
    assert simulate(model, policies, SimConfig(seed=seed)) == simulate(
        model, policies, SimConfig(seed=seed)
    )


class HourlyTickEngine(_Engine):
    """Reference loop: re-evaluate every rule after every event and at
    every hour boundary while anything waits, the plain time-stepped
    schedule that the engine's clock ticks must agree with.  Waiting-time
    wakes are recomputed from the whole waiting list on every enablement."""

    def _schedule_timeout_wakes(self, activity_id: str) -> None:
        state = self.act_states[activity_id]
        first = state.waiting[0].enable_time
        last = state.waiting[-1].enable_time
        for group in state.policy.rule.groups:
            for cond in group.conditions:
                if cond.kind in (pol.WT_FIRST, pol.WT_LAST):
                    since = first if cond.kind == pol.WT_FIRST else last
                    when = since + math.ceil(cond.threshold)
                    if when > self.now:
                        self._push(when, _WAKE, activity_id)

    def run(self) -> EventLog:
        self._generate_arrivals()
        tick_pending = False
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
            self.now = time
            if kind == _ARRIVAL:
                self.pending_case_events -= 1
                self._route(payload, self.model.start_node)
            elif kind == _COMPLETE:
                self.pending_case_events -= 1
                case_id, activity_id, _ = payload
                if activity_id not in self.model.end_nodes:
                    for arc in self.outgoing.get(activity_id, []):
                        self._route(case_id, arc.target, arc.id)
            elif kind == _TICK:
                tick_pending = False
            self._evaluate_rules()
            if self._any_waiting() and not tick_pending:
                self._push((self.now // SECONDS_PER_HOUR + 1) * SECONDS_PER_HOUR, _TICK, None)
                tick_pending = True
        return EventLog(tuple(self.instances), tuple(self.batches))


def _clock(minute: int) -> str:
    return f"{minute // 60:02d}:{minute % 60:02d}"


@st.composite
def calendars(draw):
    """One random open stretch on each of 1-4 distinct weekdays."""
    intervals = []
    for day in draw(st.lists(st.integers(0, 6), min_size=1, max_size=4, unique=True)):
        start = draw(st.integers(0, 24 * 60 - 1))
        end = draw(st.integers(start + 1, 24 * 60))
        intervals.append({"weekday": WEEKDAY_NAMES[day], "start": _clock(start), "end": _clock(end)})
    return intervals


hour_sets = st.lists(st.integers(0, 23), min_size=1, max_size=3)
day_sets = st.lists(st.integers(0, 6), min_size=1, max_size=2)
clock_conditions = st.one_of(
    hour_sets.map(lambda hs: pol.in_hours(*hs)),
    day_sets.map(lambda ds: pol.on_days(*ds)),
)
mixed_conditions = st.one_of(
    st.builds(pol.size_at_least, st.integers(1, 5)),
    st.builds(pol.wait_first_at_least, st.floats(0, 12 * 3600)),
    st.builds(pol.wait_last_at_least, st.floats(0, 12 * 3600)),
    clock_conditions,
)


@st.composite
def clocked_groups(draw):
    """A group that reads the clock, plus up to two other conditions."""
    others = draw(st.lists(mixed_conditions, max_size=2, unique_by=lambda c: c.kind))
    clock = draw(clock_conditions)
    return [c for c in others if c.kind != clock.kind] + [clock]


# spread arrivals over the hours of a day or two
arrival_gaps = st.one_of(
    st.fixed_dictionaries({"kind": st.just("fixed"), "value": st.integers(600, 6 * 3600)}),
    st.fixed_dictionaries({"kind": st.just("exponential"), "mean": st.integers(600, 6 * 3600)}),
)


@st.composite
def clocked_scenarios(draw):
    n_acts = draw(st.integers(1, 3))
    acts = [f"step{i}" for i in range(n_acts)]
    resources = ["r0", "r1"]
    doc = {
        "startNode": acts[0],
        "endNodes": [acts[-1]],
        "activities": [
            {
                "id": a,
                "duration": draw(durations),
                "resources": draw(
                    st.lists(st.sampled_from(resources), min_size=1, max_size=2, unique=True)
                ),
                "fixedCostPerExecution": 1.0,
            }
            for a in acts
        ],
        "arcs": [{"source": acts[i], "target": acts[i + 1]} for i in range(n_acts - 1)],
        "resources": [
            {"id": r, "calendar": draw(calendars()), "costPerTimeUnit": 0.5} for r in resources
        ],
        "arrival": {
            "interArrival": draw(arrival_gaps),
            "calendar": draw(st.one_of(st.just(ALL_WEEK), calendars())),
            "totalCases": draw(st.integers(1, 16)),
        },
    }
    policies = {}
    for a in acts:
        if draw(st.integers(0, 3)):  # three in four activities batch
            groups = draw(
                st.lists(
                    st.one_of(
                        clocked_groups(),
                        st.lists(mixed_conditions, min_size=1, max_size=3, unique_by=lambda c: c.kind),
                    ),
                    max_size=3,
                )
            )
            policies[a] = pol.BatchingPolicy(
                activity_id=a,
                batch_type=draw(st.sampled_from([pol.PARALLEL, pol.SEQUENTIAL])),
                rule=pol.rule(*groups),
            )
    seed = draw(st.integers(0, 2**31))
    return m.parse_model(doc), policies, seed


@settings(deadline=None)
@given(clocked_scenarios())
def test_next_event_engine_matches_hourly_reference(scenario):
    model, policies, seed = scenario
    config = SimConfig(seed=seed)
    assert _Engine(model, policies, config).run() == HourlyTickEngine(model, policies, config).run()
