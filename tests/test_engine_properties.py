"""Randomized invariants for the simulator.

Small chain models, some with one loop, with random durations and random
batching policies; every run must satisfy the structural laws of the log
regardless of the draw: batches partition instances, allocations conserve
cost, member spans obey the batch type, arrivals ignore the policy, and a
model that validation accepts finishes.  A differential
test checks the next-event engine against an hourly-tick reference loop.
"""

import heapq
import math

from hypothesis import Phase, assume, example, given, settings, strategies as st

from batchopt import model as m
from batchopt import policy as pol
from batchopt.calendars import SECONDS_PER_HOUR, WEEKDAY_NAMES
from batchopt.engine import (
    _ARRIVAL,
    _COMPLETE,
    _TICK,
    _WAKE,
    SimConfig,
    _Engine,
    compile_model,
    simulate,
)
from batchopt.eventlog import EventLog
from batchopt.fixtures import all_fixtures

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
def chain_graphs(draw, acts, looped=False):
    """The arcs and gateways of the chain `acts`, with one loop when
    `looped` and at times otherwise: after step j the xor-split `back`
    returns to step i <= j with probability p (on a 0.1 grid in [0, 0.9]),
    else goes on to step j + 1.  It may return through the and-split
    `fork`, which sends one token to step i and one either on to step
    j + 1 or back to `back`; the latter returns 2p tokens per token, which
    validation rejects from p = 0.5 on."""
    arcs = [(acts[n], acts[n + 1]) for n in range(len(acts) - 1)]
    gateways = []
    if len(acts) > 1 and (looped or draw(st.booleans())):
        j = draw(st.integers(0, len(acts) - 2))
        i = draw(st.integers(0, j))
        p = draw(st.integers(0, 9)) / 10
        fork = draw(st.sampled_from([None, acts[j + 1], "back"]))
        target = acts[i] if fork is None else "fork"
        arcs[j] = (acts[j], "back")
        arcs += [("back", acts[j + 1]), ("back", target)]
        gateways.append({"id": "back", "kind": "xor-split", "branchProbabilities": {
            f"back->{acts[j + 1]}": 1.0 - p, f"back->{target}": p}})
        if fork is not None:
            arcs += [("fork", acts[i]), ("fork", fork)]
            gateways.append({"id": "fork", "kind": "and-split"})
    return {"arcs": [{"source": s, "target": t} for s, t in arcs], "gateways": gateways}


@st.composite
def scenarios(draw, looped=False):
    n_acts = draw(st.integers(2 if looped else 1, 3))
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
        **draw(chain_graphs(acts, looped)),
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
    model = m.parse_model(doc)
    assume(not m.validate_model(model))  # a loop may return too many tokens
    return model, policies, seed


class CappedEngine(_Engine):
    """The engine with a cap on enablements, so that a case whose tokens
    multiply fails a test instead of running for ever."""

    enablements = 0

    def _enable_instance(self, case_id: int, activity_id: str) -> None:
        self.enablements += 1
        if self.enablements > 2_000:
            raise AssertionError("more than 2 000 enablements")
        super()._enable_instance(case_id, activity_id)


def fork_loop(p):
    """step0 -> the xor-split `back`, which goes on to step1 (the end) with
    probability 1 - p, else to the and-split `fork` into step0 and `back`:
    2p tokens return per token.  Validation must reject it from p = 0.5 on,
    and a run of `scenarios(looped=True)` may draw no such loop."""
    arcs = [("step0", "back"), ("back", "step1"), ("back", "fork"), ("fork", "step0"),
            ("fork", "back")]
    doc = {
        "startNode": "step0",
        "endNodes": ["step1"],
        "activities": [{"id": a, "duration": {"kind": "fixed", "value": 600},
                        "resources": ["shared"]} for a in ("step0", "step1")],
        "gateways": [{"id": "back", "kind": "xor-split",
                      "branchProbabilities": {"back->step1": 1.0 - p, "back->fork": p}},
                     {"id": "fork", "kind": "and-split"}],
        "arcs": [{"source": s, "target": t} for s, t in arcs],
        "resources": [{"id": "shared", "calendar": ALL_WEEK}],
        "arrival": {"interArrival": {"kind": "fixed", "value": 600}, "calendar": ALL_WEEK,
                    "totalCases": 8},
    }
    return m.parse_model(doc), {}, 0


# without the explain phase, which would re-run a capped example for
# minutes before a failure is reported
@settings(deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.shrink])
@given(scenarios(looped=True))
@example(fork_loop(0.9))
def test_every_accepted_model_finishes(scenario):
    # the accepted loops return at most 0.9 tokens per token, so a case
    # makes a few dozen enablements at most on average
    model, policies, seed = scenario
    if not m.validate_model(model):
        CappedEngine(compile_model(model), policies, SimConfig(seed=seed)).run()


@settings(deadline=None)
@given(scenarios())
def test_structural_invariants(scenario):
    model, policies, seed = scenario
    log, objectives = simulate(model, policies, SimConfig(seed=seed))

    n_acts = len(model.activities)
    if not model.gateways:  # a loop visits some activities more than once
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

    def arrivals(log):
        # each case's first enablement of the start node; a loop's returns
        # there come later, at times that the batching decides
        enables = {}
        for r in log.instances:
            if r.activity_id == first:
                enables[r.case_id] = min(r.enable_time, enables.get(r.case_id, r.enable_time))
        return enables

    assert arrivals(plain) == arrivals(batched)


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
    schedule that the engine's clock ticks and its skipping of size-only
    rules must agree with.  Waiting-time wakes are recomputed from the
    whole waiting list on every enablement."""

    def _evaluate_rules(self) -> None:
        for activity_id, state in self.ruled:
            waiting = state.waiting  # (case_id, enable_time, work) entries
            if waiting and pol.evaluate_activation_rule(
                state.policy.rule, pol.BatchState(len(waiting), waiting[0][1], waiting[-1][1]),
                self.now,
            ):
                self._form_batch(activity_id)

    def _schedule_timeout_wakes(self, activity_id: str) -> None:
        state = self.act_states[activity_id]
        first = state.waiting[0][1]
        last = state.waiting[-1][1]
        for group in state.policy.rule.groups:
            for cond in group.conditions:
                if cond.kind in (pol.WT_FIRST, pol.WT_LAST):
                    since = first if cond.kind == pol.WT_FIRST else last
                    when = since + math.ceil(cond.threshold)
                    if when > self.now:
                        self._push(when, _WAKE, activity_id)

    def run(self) -> EventLog:
        # one heap for every event, arrivals included, so the engine's merge
        # of its pre-sorted arrivals with its heap is checked against it
        self._generate_arrivals()
        for event in self.arrivals:
            heapq.heappush(self.heap, event)
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
                    for target, arc_id in self.hops.get(activity_id, ()):
                        self._route(case_id, target, arc_id)
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
def calendars(draw, step: int = 1):
    """One random open stretch on each of 1-4 distinct weekdays, its
    bounds on a grid of `step` minutes."""
    intervals = []
    for day in draw(st.lists(st.integers(0, 6), min_size=1, max_size=4, unique=True)):
        start = draw(st.integers(0, 24 * 60 // step - 1)) * step
        end = draw(st.integers(start // step + 1, 24 * 60 // step)) * step
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

# On a grid of GRID seconds (which divides an hour) durations, arrival
# gaps, waiting thresholds and calendar bounds make completions, arrivals,
# wakes and ticks fall on one instant, so their (time, kind) order counts.
GRID = 600
grid_fixed = st.integers(1, 6).map(lambda k: {"kind": "fixed", "value": k * GRID})
grid_waits = st.integers(0, 6).map(lambda k: k * GRID)
grid_wait_conditions = st.one_of(
    st.builds(pol.wait_first_at_least, grid_waits),
    st.builds(pol.wait_last_at_least, grid_waits),
)
grid_conditions = st.one_of(
    st.builds(pol.size_at_least, st.integers(1, 5)), grid_wait_conditions, clock_conditions
)


@st.composite
def clocked_groups(draw, conditions=mixed_conditions):
    """A group that reads the clock, plus up to two other conditions."""
    others = draw(st.lists(conditions, max_size=2, unique_by=lambda c: c.kind))
    clock = draw(clock_conditions)
    return [c for c in others if c.kind != clock.kind] + [clock]


@st.composite
def waiting_groups(draw):
    """A group of one or two grid waiting-time conditions, with or without
    a size one: a rule of such groups fires only on an enablement or on a
    waiting-time wake."""
    waits = draw(
        st.lists(grid_wait_conditions, min_size=1, max_size=2, unique_by=lambda c: c.kind)
    )
    return waits + draw(st.lists(st.builds(pol.size_at_least, st.integers(1, 5)), max_size=1))


# spread arrivals over the hours of a day or two
arrival_gaps = st.one_of(
    st.fixed_dictionaries({"kind": st.just("fixed"), "value": st.integers(600, 6 * 3600)}),
    st.fixed_dictionaries({"kind": st.just("exponential"), "mean": st.integers(600, 6 * 3600)}),
)


@st.composite
def clocked_scenarios(draw, on_grid: bool = False):
    if on_grid:
        # one calendar for the resources and the arrivals, so that work runs
        # while cases still arrive and completions meet arrivals
        shared = st.just(draw(st.one_of(st.just(ALL_WEEK), calendars(GRID // 60))))
        duration, gap, conditions = grid_fixed, grid_fixed, grid_conditions
        resource_calendar, arrival_calendar, cases = shared, shared, st.integers(4, 16)
    else:
        duration, gap, conditions = durations, arrival_gaps, mixed_conditions
        resource_calendar = calendars()
        arrival_calendar = st.one_of(st.just(ALL_WEEK), calendars())
        cases = st.integers(1, 16)
    n_acts = draw(st.integers(1, 3))
    acts = [f"step{i}" for i in range(n_acts)]
    resources = ["r0", "r1"]
    doc = {
        "startNode": acts[0],
        "endNodes": [acts[-1]],
        "activities": [
            {
                "id": a,
                "duration": draw(duration),
                "resources": draw(
                    st.lists(st.sampled_from(resources), min_size=1, max_size=2, unique=True)
                ),
                "fixedCostPerExecution": 1.0,
            }
            for a in acts
        ],
        "arcs": [{"source": acts[i], "target": acts[i + 1]} for i in range(n_acts - 1)],
        "resources": [
            {"id": r, "calendar": draw(resource_calendar), "costPerTimeUnit": 0.5}
            for r in resources
        ],
        "arrival": {
            "interArrival": draw(gap),
            "calendar": draw(arrival_calendar),
            "totalCases": draw(cases),
        },
    }
    policies = {}
    for a in acts:
        if draw(st.integers(0, 3)):  # three in four activities batch
            groups = st.lists(
                st.one_of(
                    clocked_groups(conditions),
                    st.lists(conditions, min_size=1, max_size=3, unique_by=lambda c: c.kind),
                ),
                max_size=3,
            )
            if on_grid:
                # or waiting-time groups alone: only enablements and
                # waiting-time wakes can make such a rule fire
                groups = st.one_of(groups, st.lists(waiting_groups(), min_size=1, max_size=2))
            policies[a] = pol.BatchingPolicy(
                activity_id=a,
                batch_type=draw(st.sampled_from([pol.PARALLEL, pol.SEQUENTIAL])),
                rule=pol.rule(*draw(groups)),
            )
    seed = draw(st.integers(0, 2**31))
    return m.parse_model(doc), policies, seed


def _assert_matches_hourly_reference(scenario) -> None:
    model, policies, seed = scenario
    config = SimConfig(seed=seed)
    compiled = compile_model(model)
    assert (
        _Engine(compiled, policies, config).run()
        == HourlyTickEngine(compiled, policies, config).run()
    )


@settings(deadline=None)
@given(clocked_scenarios())
def test_next_event_engine_matches_hourly_reference(scenario):
    _assert_matches_hourly_reference(scenario)


@settings(deadline=None)
@given(clocked_scenarios(on_grid=True))
def test_next_event_engine_matches_hourly_reference_on_a_grid(scenario):
    _assert_matches_hourly_reference(scenario)


def seed_free(model: m.ProcessModel) -> bool:
    """True when a simulation of `model` draws nothing: its inter-arrival
    time and every duration are `fixed` and it has no xor- or or-split."""
    return (
        model.arrival.inter_arrival.kind == "fixed"
        and all(a.duration.kind == "fixed" for a in model.activities)
        and not any(g.kind in ("xor-split", "or-split") for g in model.gateways)
    )


SEED_FREE_FIXTURES = [f for f in all_fixtures() if seed_free(f.model())]


def test_only_the_branching_fixtures_draw():
    drawing = {f.name for f in all_fixtures()} - {f.name for f in SEED_FREE_FIXTURES}
    assert drawing == {"busy-step", "stray-branch"}


@given(
    st.sampled_from(SEED_FREE_FIXTURES),
    st.integers(0, 2**64 - 1),
    st.integers(0, 2**64 - 1),
)
def test_seed_free_model_simulates_the_same_under_any_seed(fixture, a, b):
    model, policies = fixture.model(), fixture.policies()
    first = simulate(model, policies, SimConfig(seed=a))
    second = simulate(model, policies, SimConfig(seed=b))
    assert first.log == second.log
    assert first.objectives == second.objectives


def test_completion_arrival_and_wake_at_one_instant_keep_event_order():
    # 600 s of work after a 600 s arrival gap: at t = 1800 case 1 completes
    # `intake`, case 2 arrives and the wt-first 600 wake that case 0 set at
    # `review` falls due.  The completion goes first and fires the review
    # batch onto the shared clerk, so case 2's intake waits until 2400.
    doc = {
        "startNode": "intake",
        "endNodes": ["review"],
        "activities": [
            {"id": a, "duration": {"kind": "fixed", "value": 600}, "resources": ["clerk"]}
            for a in ("intake", "review")
        ],
        "arcs": [{"source": "intake", "target": "review"}],
        "resources": [{"id": "clerk", "calendar": ALL_WEEK}],
        "arrival": {
            "interArrival": {"kind": "fixed", "value": 600},
            "calendar": ALL_WEEK,
            "totalCases": 4,
        },
    }
    compiled = compile_model(m.parse_model(doc))
    policies = {
        "review": pol.BatchingPolicy(
            activity_id="review",
            batch_type=pol.PARALLEL,
            rule=pol.rule([pol.wait_first_at_least(600)]),
        )
    }
    config = SimConfig(seed=0)
    log = _Engine(compiled, policies, config).run()
    assert log == HourlyTickEngine(compiled, policies, config).run()
    assert [r[:7] for r in log.instances[:5]] == [
        (0, "intake", "clerk", 600, 600, 1200, "b00001"),
        (1, "intake", "clerk", 1200, 1200, 1800, "b00002"),
        (0, "review", "clerk", 1200, 1800, 2400, "b00003"),
        (1, "review", "clerk", 1800, 1800, 2400, "b00003"),
        (2, "intake", "clerk", 1800, 2400, 3000, "b00004"),
    ]
