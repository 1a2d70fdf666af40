import json
import math
import struct
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from batchopt import engine
from batchopt import model as m
from batchopt import policy as pol
from batchopt.calendars import SECONDS_PER_HOUR, SECONDS_PER_WEEK
from batchopt.engine import SimConfig, SimulationError, simulate
from batchopt.eventlog import (
    LAST_INSTANT,
    BatchRecord,
    InstanceRecord,
    evaluate_objectives,
    filter_warmup,
)
from batchopt.fixtures import all_fixtures, get_fixture

H = SECONDS_PER_HOUR

ALL_WEEK = [
    {"weekday": d, "start": "00:00", "end": "24:00"}
    for d in ("Monday", "Tuesday", "Wednesday", "Thursday", "Friday", "Saturday", "Sunday")
]


def single_activity_doc(total_cases=3, inter_arrival=3600, duration=3600, resource_calendar=None, fixed_cost=0.0):
    return {
        "startNode": "work",
        "endNodes": ["work"],
        "activities": [
            {
                "id": "work",
                "duration": {"kind": "fixed", "value": duration},
                "resources": ["r1"],
                "fixedCostPerExecution": fixed_cost,
            }
        ],
        "arcs": [],
        "resources": [{"id": "r1", "calendar": resource_calendar or ALL_WEEK, "costPerTimeUnit": 0.0}],
        "arrival": {
            "interArrival": {"kind": "fixed", "value": inter_arrival},
            "calendar": ALL_WEEK,
            "totalCases": total_cases,
        },
    }


def single_activity_model(**kwargs):
    return m.parse_model(single_activity_doc(**kwargs))


def by_case(log, activity_id="work"):
    return {r.case_id: r for r in log.instances if r.activity_id == activity_id}


class TestUnbatchedExecution:
    def test_three_case_hand_trace(self):
        # arrivals at 1h, 2h, 3h; fixed 1h work; size-1 batches back to back
        log, objectives = simulate(single_activity_model(), {}, SimConfig(seed=1))
        recs = by_case(log)
        assert (recs[0].enable_time, recs[0].start_time, recs[0].end_time) == (H, H, 2 * H)
        assert (recs[1].enable_time, recs[1].start_time, recs[1].end_time) == (2 * H, 2 * H, 3 * H)
        assert (recs[2].enable_time, recs[2].start_time, recs[2].end_time) == (3 * H, 3 * H, 4 * H)
        assert len(log.batches) == 3
        assert all(b.size == 1 for b in log.batches)
        assert objectives.avg_cycle_time == H
        assert objectives.avg_cost == 0.0

    def test_queue_builds_when_arrivals_outpace_service(self):
        # 20-job FIFO single-server queue oracle:
        #   start_i = max(arrival_i, end_{i-1});  end_i = start_i + 2700
        log, _ = simulate(
            single_activity_model(total_cases=20, inter_arrival=1800, duration=2700),
            {},
            SimConfig(seed=5),
        )
        recs = by_case(log)
        prev_end = 0
        for case_id in range(20):
            arrival = 1800 * (case_id + 1)
            start = max(arrival, prev_end)
            end = start + 2700
            assert recs[case_id].enable_time == arrival
            assert recs[case_id].start_time == start
            assert recs[case_id].end_time == end
            prev_end = end

    def test_unpoliced_activity_charges_its_fixed_cost(self):
        _, objectives = simulate(single_activity_model(fixed_cost=4.0), {}, SimConfig(seed=1))
        assert objectives.avg_cost == pytest.approx(4.0)


def size_policy(threshold, batch_type=pol.PARALLEL, cost=None):
    return {
        "work": pol.BatchingPolicy(
            activity_id="work",
            batch_type=batch_type,
            rule=pol.rule([pol.size_at_least(threshold)]),
            cost=cost or pol.CostModel(),
        )
    }


class TestBatchSemantics:
    def test_parallel_members_share_start_and_end(self):
        log, _ = simulate(single_activity_model(), size_policy(3), SimConfig(seed=1))
        recs = by_case(log)
        assert all(recs[c].start_time == 3 * H for c in range(3))
        assert all(recs[c].end_time == 4 * H for c in range(3))
        (batch,) = log.batches
        assert batch.size == 3
        assert batch.busy_seconds == H  # longest member, not the sum

    def test_sequential_members_chain_exactly(self):
        log, _ = simulate(
            single_activity_model(), size_policy(3, batch_type=pol.SEQUENTIAL), SimConfig(seed=1)
        )
        recs = by_case(log)
        assert (recs[0].start_time, recs[0].end_time) == (3 * H, 4 * H)
        assert (recs[1].start_time, recs[1].end_time) == (4 * H, 5 * H)
        assert (recs[2].start_time, recs[2].end_time) == (5 * H, 6 * H)
        (batch,) = log.batches
        assert batch.busy_seconds == 3 * H

    def test_batch_is_sealed_when_rule_fires(self):
        # the rule fires on the waiting queue; the sealed batch then queues
        # for the busy resource, and later arrivals start a fresh queue
        log, _ = simulate(
            single_activity_model(total_cases=5, inter_arrival=600, duration=3600),
            size_policy(2),
            SimConfig(seed=1),
        )
        assert [b.size for b in log.batches] == [2, 2, 1]
        assert [b.start_time for b in log.batches] == [1200, 4800, 8400]

    def test_cost_allocation_sums_exactly_to_batch_cost(self):
        cost = pol.CostModel(fixed_cost=10.0, variable_cost=((1, 1.0), (3, 2.0)))
        log, _ = simulate(single_activity_model(), size_policy(3, cost=cost), SimConfig(seed=1))
        (batch,) = log.batches
        assert sum(log.instances[i].allocated_cost for i in batch.members) == batch.cost
        assert batch.cost == pytest.approx(12.0)


class TestCalendars:
    MON_8_12 = [{"weekday": "Monday", "start": "08:00", "end": "12:00"}]

    def test_work_pauses_over_closed_time(self):
        # 5h of work in a 4h Monday window resumes the following Monday
        model = single_activity_model(total_cases=1, duration=5 * H, resource_calendar=self.MON_8_12)
        log, _ = simulate(model, {}, SimConfig(seed=1))
        (rec,) = log.instances
        assert rec.enable_time == H
        assert rec.start_time == 8 * H
        assert rec.end_time == SECONDS_PER_WEEK + 9 * H
        (batch,) = log.batches
        assert batch.busy_seconds == 5 * H

    def test_no_work_outside_calendar(self):
        model = single_activity_model(total_cases=4, inter_arrival=2 * H, duration=3 * H, resource_calendar=self.MON_8_12)
        log, _ = simulate(model, {}, SimConfig(seed=1))
        cal = model.resource("r1").calendar
        for batch in log.batches:
            assert cal.open_seconds_between(batch.start_time, batch.end_time) == batch.busy_seconds
            assert cal.contains(batch.start_time)

    def test_sequential_chain_crosses_window_boundary(self):
        model = single_activity_model(total_cases=3, inter_arrival=600, duration=2 * H, resource_calendar=self.MON_8_12)
        log, _ = simulate(model, size_policy(3, batch_type=pol.SEQUENTIAL), SimConfig(seed=1))
        recs = by_case(log)
        # member 2 starts exactly where member 1 ended (window edge), works next week
        assert recs[0].start_time == 8 * H and recs[0].end_time == 10 * H
        assert recs[1].start_time == 10 * H and recs[1].end_time == 12 * H
        assert recs[2].start_time == 12 * H
        assert recs[2].end_time == SECONDS_PER_WEEK + 10 * H


class TestActivationTiming:
    def test_wait_first_threshold_fires_exactly(self):
        policies = {
            "work": pol.BatchingPolicy(
                activity_id="work",
                batch_type=pol.PARALLEL,
                rule=pol.rule([pol.wait_first_at_least(90 * 60)]),
            )
        }
        log, _ = simulate(single_activity_model(), policies, SimConfig(seed=1))
        assert [b.start_time for b in log.batches] == [H + 90 * 60, 3 * H + 90 * 60]
        assert [b.size for b in log.batches] == [2, 1]

    def test_wait_last_resets_with_each_arrival(self):
        policies = {
            "work": pol.BatchingPolicy(
                activity_id="work",
                batch_type=pol.PARALLEL,
                rule=pol.rule([pol.wait_last_at_least(90 * 60)]),
            )
        }
        # arrivals 1h apart keep resetting a 1.5h inactivity timer; it only
        # expires 1.5h after the final arrival
        log, _ = simulate(single_activity_model(), policies, SimConfig(seed=1))
        (batch,) = log.batches
        assert batch.size == 3
        assert batch.start_time == 3 * H + 90 * 60

    def test_scheduled_hour_fires_at_boundary(self):
        arrival_cal = [{"weekday": "Monday", "start": "06:00", "end": "07:00"}]
        model_doc = single_activity_doc(total_cases=3, inter_arrival=600)
        model_doc["arrival"]["calendar"] = arrival_cal
        model = m.parse_model(model_doc)
        policies = {
            "work": pol.BatchingPolicy(
                activity_id="work",
                batch_type=pol.PARALLEL,
                rule=pol.rule([pol.in_hours(8)]),
            )
        }
        log, _ = simulate(model, policies, SimConfig(seed=1))
        (batch,) = log.batches
        assert batch.start_time == 8 * H  # the hour tick, not the arrivals
        assert batch.size == 3

    def test_scheduled_hour_fires_immediately_within_hour(self):
        arrival_cal = [{"weekday": "Monday", "start": "08:00", "end": "09:00"}]
        model_doc = single_activity_doc(total_cases=2, inter_arrival=600)
        model_doc["arrival"]["calendar"] = arrival_cal
        model = m.parse_model(model_doc)
        policies = {
            "work": pol.BatchingPolicy(
                activity_id="work",
                batch_type=pol.PARALLEL,
                rule=pol.rule([pol.in_hours(8)]),
            )
        }
        log, _ = simulate(model, policies, SimConfig(seed=1))
        # each arrival lands inside the allowed hour, so each batches alone
        assert all(b.start_time == b.end_time - H for b in log.batches)
        assert [b.size for b in log.batches] == [1, 1]

    def test_week_day_condition(self):
        policies = {
            "work": pol.BatchingPolicy(
                activity_id="work",
                batch_type=pol.PARALLEL,
                rule=pol.rule([pol.on_days(1)]),  # Tuesdays only
            )
        }
        log, _ = simulate(single_activity_model(), policies, SimConfig(seed=1))
        (batch,) = log.batches
        assert batch.start_time == 24 * H  # Tuesday 00:00 tick
        assert batch.size == 3

    def test_week_day_rule_is_evaluated_only_on_its_day(self, monkeypatch):
        instants = []

        def spy(rule, state, now):
            instants.append(now)
            return pol.evaluate_activation_rule(rule, state, now)

        monkeypatch.setattr(engine, "evaluate_activation_rule", spy)
        policies = {
            "work": pol.BatchingPolicy(
                activity_id="work",
                batch_type=pol.PARALLEL,
                rule=pol.rule([pol.on_days(4)]),  # Fridays only
            )
        }
        log, _ = simulate(single_activity_model(), policies, SimConfig(seed=1))
        (batch,) = log.batches
        assert batch.start_time == 4 * 24 * H
        # the three Monday enablements, then no hourly ticks until Friday 00:00
        assert instants == [H, 2 * H, 3 * H, 4 * 24 * H]

    def test_earlier_clock_hour_preempts_a_pending_tick(self):
        doc = single_activity_doc(total_cases=2)
        doc["activities"].append(dict(doc["activities"][0], id="file", name="file"))
        doc["arcs"] = [{"source": "work", "target": "file"}]
        doc["endNodes"] = ["file"]
        model = m.parse_model(doc)
        policies = {
            # the first case waits for 22:00; the second one fires it at 02:00
            "work": pol.BatchingPolicy(
                activity_id="work",
                batch_type=pol.PARALLEL,
                rule=pol.rule([pol.in_hours(22)], [pol.size_at_least(2)]),
            ),
            "file": pol.BatchingPolicy(
                activity_id="file", batch_type=pol.PARALLEL, rule=pol.rule([pol.in_hours(10)])
            ),
        }
        log, _ = simulate(model, policies, SimConfig(seed=1))
        assert [(b.activity_id, b.start_time) for b in log.batches] == [
            ("work", 2 * H),
            ("file", 10 * H),  # not 22:00, the tick still pending from "work"
        ]


    @given(
        st.lists(
            st.tuples(
                st.one_of(st.none(), st.sets(st.integers(0, 23), min_size=1)),
                st.one_of(st.none(), st.sets(st.integers(0, 6), min_size=1)),
                st.booleans(),
            ),
            max_size=3,
        )
    )
    def test_clock_hours_mask_equals_a_probe_of_every_week_hour(self, groups):
        # each group: optional daily-hour set, optional week-day set, and
        # whether it also holds a size condition (always, when it has no
        # clock condition), which the mask ignores
        rule = pol.rule(*[
            ([pol.in_hours(*h)] if h else []) + ([pol.on_days(*d)] if d else [])
            + ([pol.size_at_least(3)] if sized or not (h or d) else [])
            for h, d, sized in groups
        ])
        probe = pol.BatchState(1, 0, 0)
        expected = set()
        for group in rule.groups:
            clock = [c for c in group.conditions if c.kind in (pol.DAILY_HOUR, pol.WEEK_DAY)]
            if clock:
                expected.update(
                    h for h in range(168)
                    if all(pol.evaluate_condition(c, probe, h * H) for c in clock)
                )
        policy = pol.BatchingPolicy("work", pol.PARALLEL, rule)
        assert engine._clock_hours(policy) == tuple(sorted(expected))


class BoundedEngine(engine._Engine):
    """The engine with a bound on its rule passes, one per event, so that a
    rule starved of evaluations fails a test instead of ticking forever."""

    passes = 0

    def _evaluate_rules(self) -> None:
        self.passes += 1
        if self.passes > 1000:
            raise AssertionError("more than 1000 events")
        super()._evaluate_rules()


def run_bounded(model, policies):
    return BoundedEngine(engine.compile_model(model), policies, SimConfig(seed=1)).run()


def spy_on_rules(monkeypatch, outcomes=None):
    """The instant of every rule evaluation, seen through the module
    global that the engine calls and the benchmark's tracer wraps; each
    answer is appended to `outcomes` when it is given."""
    calls = []

    def spy(rule, state, now):
        assert type(state) is pol.BatchState
        calls.append(now)
        fires = pol.evaluate_activation_rule(rule, state, now)
        if outcomes is not None:
            outcomes.append(fires)
        return fires

    monkeypatch.setattr(engine, "evaluate_activation_rule", spy)
    return calls


def overlapping_model():
    """Five cases an hour apart whose 2.5-hour work overlaps the next
    arrivals, so completions fall while an instance waits."""
    return single_activity_model(total_cases=5, duration=5 * H // 2)


def size_only(policies) -> bool:
    """Whether every rule of `policies` reads nothing but queue sizes."""
    return all(
        cond.kind == pol.SIZE
        for policy in policies.values()
        for group in policy.rule.groups
        for cond in group.conditions
    )


class TestRuleEvaluations:
    def test_size_only_rule_is_evaluated_once_its_queue_reaches_the_threshold(
        self, monkeypatch
    ):
        calls = spy_on_rules(monkeypatch)
        log = run_bounded(overlapping_model(), size_policy(2))
        assert [(b.start_time, b.size) for b in log.batches] == [
            (2 * H, 2), (9 * H // 2, 2), (7 * H, 1)
        ]
        # the enablements at 1 h, 3 h and 5 h leave one instance waiting,
        # below the threshold, and the completions at 4.5 h and 7 h enable
        # nothing, so the rule is evaluated only where it fires
        assert calls == [2 * H, 4 * H]

    # a group holding a size condition cannot fire below it, so each rule
    # is evaluated only at the enablements that make two wait, and holds
    # there; the wake or tick at 6 h and the completions at 4.5 h and 7 h
    # find one instance waiting
    @pytest.mark.parametrize("other", [
        pol.wait_first_at_least(0),
        pol.wait_last_at_least(0),
        pol.wait_first_at_least(H),
        pol.in_hours(*range(24)),
        pol.on_days(*range(7)),
    ], ids=["wt-first-0", "wt-last-0", "wt-first-1h", "daily-hour", "week-day"])
    def test_rule_with_a_time_condition_is_evaluated_from_its_size_threshold(
        self, monkeypatch, other
    ):
        calls = spy_on_rules(monkeypatch)
        policies = {
            "work": pol.BatchingPolicy("work", pol.PARALLEL,
                                       pol.rule([pol.size_at_least(2), other]))
        }
        log = run_bounded(overlapping_model(), policies)
        assert calls == [2 * H, 4 * H]
        assert [(b.start_time, b.size) for b in log.batches] == [
            (2 * H, 2), (9 * H // 2, 2), (7 * H, 1)
        ]

    def test_a_group_without_a_size_condition_is_evaluated_after_every_event(
        self, monkeypatch
    ):
        # the wt-first group can fire a single instance, so the rule is
        # evaluated after every event while one waits: the enablements, and
        # the wake at 6 h that fires case 4; nothing waits at 4.5 h or 7 h
        calls = spy_on_rules(monkeypatch)
        policies = {
            "work": pol.BatchingPolicy("work", pol.PARALLEL, pol.rule(
                [pol.size_at_least(2)], [pol.wait_first_at_least(H)]
            ))
        }
        log = run_bounded(overlapping_model(), policies)
        assert calls == [H, 2 * H, 3 * H, 4 * H, 5 * H, 6 * H]
        assert [(b.start_time, b.size) for b in log.batches] == [
            (2 * H, 2), (9 * H // 2, 2), (7 * H, 1)
        ]

    def test_one_completion_enables_two_ruled_activities_sharing_a_resource(
        self, monkeypatch
    ):
        doc = single_activity_doc(total_cases=2, duration=600)
        work = doc["activities"][0]
        doc["activities"] += [dict(work, id="b", resources=["shared"]),
                              dict(work, id="c", resources=["shared"])]
        doc["resources"].append(dict(doc["resources"][0], id="shared"))
        doc["arcs"] = [{"source": "work", "target": "b"}, {"source": "work", "target": "c"}]
        doc["endNodes"] = ["b", "c"]
        policies = {
            a: pol.BatchingPolicy(a, pol.PARALLEL, pol.rule([pol.size_at_least(2)]))
            for a in ("b", "c")
        }
        calls = spy_on_rules(monkeypatch)
        log = run_bounded(m.parse_model(doc), policies)
        done = [H + 600, 2 * H + 600]  # when each case's "work" completes
        # each completion enables both; the second makes two wait at each,
        # and both rules are evaluated there, in id order
        assert calls == [done[1], done[1]]
        assert [(b.activity_id, b.start_time, b.size) for b in log.batches[2:]] == [
            ("b", done[1], 2), ("c", done[1] + 600, 2)
        ]

    def test_an_empty_rule_is_never_evaluated(self, monkeypatch):
        # `"rule": []` never fires: two-batch's six tickets wait until the
        # run drains at the last arrival, and leave as one flushed batch
        calls = spy_on_rules(monkeypatch)
        policies = {"ticket": pol.BatchingPolicy("ticket", pol.PARALLEL, pol.ActivationRule())}
        log = simulate(get_fixture("two-batch").model(), policies, SimConfig(total_cases=6)).log
        assert calls == []
        assert [(b.start_time, b.size) for b in log.batches] == [(10_800, 6)]

    @pytest.mark.parametrize(
        "fixture", [f for f in all_fixtures() if size_only(f.policies())], ids=lambda f: f.name
    )
    def test_every_evaluation_of_a_size_only_rule_fires(self, monkeypatch, fixture):
        outcomes = []
        calls = spy_on_rules(monkeypatch, outcomes)
        log = simulate(fixture.model(), fixture.policies(), fixture.sim_config()).log
        assert all(outcomes)
        # one evaluation per batch a rule formed; the rest are flushes or
        # activities without a policy
        batched = [b for b in log.batches if b.activity_id in fixture.policies()]
        assert len(calls) <= len(batched)

    @pytest.mark.parametrize("fixture", all_fixtures(), ids=lambda f: f.name)
    def test_no_queue_is_left_at_its_fire_at(self, fixture):
        run = engine._Engine(
            engine.compile_model(fixture.model()), fixture.policies(), fixture.sim_config()
        )
        run.run()
        assert run.ready == 0


def test_a_timed_rule_fires_at_a_completion_before_its_wake_at_that_instant():
    # heavy-parallel-work with both activities batched in parallel.  At
    # 16 260 s inspection's first batch completes, case 2's wt-first wake
    # falls due and intake's completion enables case 3, in that order: the
    # pass after the inspection completion already fires case 2 alone.  A
    # pass held back until the wake, or until an enablement, would take
    # case 3 with it.
    fixture = get_fixture("heavy-parallel-work")
    model = fixture.model()
    intake_cost = pol.CostModel(fixed_cost=model.activities[0].fixed_cost_per_execution)
    policies = {
        "inspection": pol.BatchingPolicy("inspection", pol.PARALLEL, pol.rule(
            [pol.size_at_least(2)], [pol.wait_first_at_least(3600)]
        ), fixture.policies()["inspection"].cost),
        "intake": pol.BatchingPolicy("intake", pol.PARALLEL, pol.rule(
            [pol.size_at_least(3)], [pol.wait_first_at_least(1800)]
        ), intake_cost),
    }
    log = simulate(model, policies, SimConfig()).log
    batch = log.batches[5]
    assert (batch.batch_id, batch.activity_id, batch.start_time) == ("b00006", "inspection", 16260)
    assert [(log.instances[i].case_id, log.instances[i].enable_time)
            for i in batch.members] == [(2, 12660)]


class TestRecords:
    @pytest.mark.parametrize("fixture", all_fixtures(), ids=lambda f: f.name)
    def test_records_are_their_named_tuples(self, fixture):
        log, _ = simulate(fixture.model(), fixture.policies(), fixture.sim_config())
        assert log.instances and log.batches
        assert all(type(r) is InstanceRecord for r in log.instances)
        assert all(type(b) is BatchRecord for b in log.batches)
        first = log.instances[0]
        moved = first._replace(start_time=first.start_time + 1)
        assert type(moved) is InstanceRecord
        assert moved == InstanceRecord(*first[:4], first.start_time + 1, *first[5:])
        batch = log.batches[0]
        assert batch._replace(cost=1.5) == (*batch[:6], 1.5, batch.busy_seconds)
        assert batch.size == len(batch.members)


class TestFlush:
    def test_empty_rule_flushes_at_drain(self):
        policies = {
            "work": pol.BatchingPolicy(
                activity_id="work", batch_type=pol.PARALLEL, rule=pol.ActivationRule()
            )
        }
        log, _ = simulate(single_activity_model(), policies, SimConfig(seed=1))
        (batch,) = log.batches
        assert batch.size == 3
        assert batch.start_time == 3 * H  # the last arrival instant

    def test_unreachable_size_flushes(self):
        log, _ = simulate(single_activity_model(), size_policy(50), SimConfig(seed=1))
        (batch,) = log.batches
        assert batch.size == 3
        assert batch.start_time == 3 * H

    def test_satisfiable_conjunction_waits_for_timeout(self):
        policies = {
            "work": pol.BatchingPolicy(
                activity_id="work",
                batch_type=pol.PARALLEL,
                rule=pol.rule([pol.size_at_least(2), pol.wait_first_at_least(10 * H)]),
            )
        }
        log, _ = simulate(single_activity_model(), policies, SimConfig(seed=1))
        (batch,) = log.batches
        assert batch.start_time == 11 * H  # first enablement 1h + 10h timeout
        assert batch.size == 3


class TestDeterminism:
    def test_same_seed_same_log(self):
        model = single_activity_model(total_cases=10, inter_arrival=1200)
        a, _ = simulate(model, size_policy(2), SimConfig(seed=77))
        b, _ = simulate(model, size_policy(2), SimConfig(seed=77))
        assert a == b

    def test_policy_change_keeps_arrivals(self):
        model = single_activity_model(total_cases=10, inter_arrival=1200)
        log_plain, _ = simulate(model, {}, SimConfig(seed=42))
        log_batched, _ = simulate(model, size_policy(3), SimConfig(seed=42))
        enables = lambda log: sorted((r.case_id, r.enable_time) for r in log.instances)
        assert enables(log_plain) == enables(log_batched)

    def test_different_seed_different_log(self):
        model_doc = single_activity_doc(total_cases=10)
        model_doc["arrival"]["interArrival"] = {"kind": "exponential", "mean": 1800}
        model = m.parse_model(model_doc)
        a, _ = simulate(model, {}, SimConfig(seed=1))
        b, _ = simulate(model, {}, SimConfig(seed=2))
        assert a != b


class TestWarmup:
    def test_warmup_cases_excluded_from_objectives(self):
        model = single_activity_model(total_cases=4, fixed_cost=2.0)
        full = simulate(model, {}, SimConfig(seed=1, warmup=0))
        trimmed = simulate(model, {}, SimConfig(seed=1, warmup=2))
        assert full.log == trimmed.log  # log always complete
        assert trimmed.objectives.instance_count == 2
        assert trimmed.objectives.avg_cost == pytest.approx(2.0)

    def test_warmup_filter_preserves_cost_conservation(self):
        model = single_activity_model(total_cases=5, inter_arrival=600)
        cost = pol.CostModel(fixed_cost=9.0)
        log, _ = simulate(model, size_policy(2, cost=cost), SimConfig(seed=1))
        trimmed = filter_warmup(log, 1)
        for batch in trimmed.batches:
            assert sum(trimmed.instances[i].allocated_cost for i in batch.members) == pytest.approx(batch.cost)

    def test_warmup_must_be_below_case_count(self):
        with pytest.raises(SimulationError):
            simulate(single_activity_model(total_cases=3), {}, SimConfig(seed=1, warmup=3))


class TestErrors:
    def test_unvalidated_model_rejected(self):
        doc = single_activity_doc()
        doc["activities"][0]["resources"] = ["ghost"]
        with pytest.raises(SimulationError) as err:
            simulate(m.parse_model(doc), {}, SimConfig(seed=1))
        assert "ghost" in str(err.value)

    def test_policy_for_unknown_activity_rejected(self):
        policies = {
            "nope": pol.BatchingPolicy(
                activity_id="nope", batch_type=pol.PARALLEL, rule=pol.ActivationRule()
            )
        }
        with pytest.raises(SimulationError) as err:
            simulate(single_activity_model(), policies, SimConfig(seed=1))
        assert "nope" in str(err.value)

    @pytest.mark.parametrize("cases, fails", [(1, False), (3, True)])
    def test_a_cost_total_that_overflows_is_rejected(self, cases, fails):
        # one execution at 1e308 is a finite total; three overflow to inf,
        # which no objectives document or front may hold
        model = single_activity_model(total_cases=cases, fixed_cost=1e308)
        if not fails:
            assert simulate(model, {}, SimConfig(seed=1)).objectives.total_cost == 1e308
            return
        with pytest.raises(SimulationError, match="objective totals overflow: .* cost inf"):
            simulate(model, {}, SimConfig(seed=1))

    @pytest.mark.parametrize("cases, fails", [(1, False), (3, True)])
    def test_a_log_past_the_last_instant_is_rejected(self, cases, fails):
        # one execution of 1e11 s ends before the last instant a log can
        # spell; three in a row end after it
        model = single_activity_model(total_cases=cases, duration=1e11)
        if not fails:
            assert simulate(model, {}, SimConfig(seed=1)).log.horizon < LAST_INSTANT
            return
        with pytest.raises(SimulationError, match="lies past 9999-12-31T23:59:59"):
            simulate(model, {}, SimConfig(seed=1))

    def test_enablement_before_the_last_waiting_instance_rejected(self):
        # rules read only the ends of the waiting queue, so it must stay
        # in enable-time order
        sim = engine._Engine(
            engine.compile_model(single_activity_model()), size_policy(5), SimConfig()
        )
        sim.now = 2 * H
        sim._enable_instance(0, "work")
        sim.now = H
        with pytest.raises(SimulationError, match="before its last waiting instance"):
            sim._enable_instance(1, "work")


class TestCompiledModel:
    @pytest.mark.parametrize("fixture", all_fixtures(), ids=lambda f: f.name)
    def test_compiled_and_bare_models_simulate_alike(self, fixture):
        model, policies, config = fixture.model(), fixture.policies(), fixture.sim_config()
        compiled = engine.compile_model(model)
        assert simulate(compiled, policies, config) == simulate(model, policies, config)
        # a compiled model is shared: a second run reads the same tables
        assert simulate(compiled, policies, config) == simulate(model, policies, config)

    def test_compiling_validates_once_and_simulating_never(self, monkeypatch):
        calls = []
        real = engine.validate_model
        monkeypatch.setattr(engine, "validate_model", lambda mdl: calls.append(mdl) or real(mdl))
        compiled = engine.compile_model(single_activity_model())
        for seed in range(3):
            simulate(compiled, size_policy(2), SimConfig(seed=seed))
        assert len(calls) == 1
        simulate(single_activity_model(), {}, SimConfig())
        assert len(calls) == 2

    def test_invalid_model_does_not_compile(self):
        doc = single_activity_doc()
        doc["activities"][0]["resources"] = ["ghost"]
        with pytest.raises(SimulationError, match="ghost"):
            engine.compile_model(m.parse_model(doc))


@st.composite
def variable_tables(draw):
    """A variable-cost table: strictly increasing sizes from 1 up, its first
    size often above 1."""
    sizes = draw(st.lists(st.integers(1, 12), max_size=4, unique=True))
    return tuple((size, draw(st.floats(0, 1e4))) for size in sorted(sizes))


cost_models = st.builds(
    pol.CostModel,
    fixed_cost=st.one_of(st.floats(0, 1e6), st.integers(0, 100)),
    variable_cost=variable_tables(),
    resource_cost_mode=st.sampled_from(pol.RESOURCE_COST_MODES),
    processing_scale_factor=st.one_of(st.floats(0, 1e3), st.integers(0, 10)),
)
MON_8_12 = [{"weekday": "Monday", "start": "08:00", "end": "12:00"}]


def bits(x) -> tuple:
    return type(x), struct.pack("<d", x)


class TestBatchOfOne:
    """A batch of one is priced and timed from what `_ActivityState`
    resolves at set-up: it must equal the general path bit for bit."""

    @settings(deadline=None)
    @given(cost=cost_models, work=st.integers(0, 10**7),
           rate=st.one_of(st.floats(0, 1e3), st.integers(0, 5)),
           free_at=st.integers(0, 3 * SECONDS_PER_WEEK), now=st.integers(0, 2 * SECONDS_PER_WEEK),
           always_open=st.booleans())
    @example(cost=pol.CostModel(1.5, ((3, 7.25), (6, 0.5)), pol.PER_TIME), work=5400, rate=0.1,
             free_at=0, now=0, always_open=True)
    # 5 h of work in a 4 h window spans a week; (0.1 + 0.2) + 0.1 x span
    # differs from 0.1 + (0.2 + 0.1 x span) in its last bit
    @example(cost=pol.CostModel(0.1, ((1, 0.2),), pol.PER_TIME), work=5 * H, rate=0.1,
             free_at=0, now=0, always_open=False)
    @example(cost=pol.CostModel(0.1, ((2, 0.2),), pol.PROCESSING_SCALED, 0.3), work=7,
             free_at=0, now=0, rate=0.7, always_open=True)
    def test_single_start_matches_next_open_work_end_and_compute_batch_cost(
        self, cost, work, rate, free_at, now, always_open
    ):
        doc = single_activity_doc(resource_calendar=None if always_open else MON_8_12)
        doc["resources"][0]["costPerTimeUnit"] = rate
        policies = {"work": pol.BatchingPolicy("work", pol.PARALLEL, pol.rule(), cost)}
        run = engine._Engine(engine.compile_model(m.parse_model(doc)), policies, SimConfig())
        run.now, run.free_at["r1"] = now, free_at
        run._start_batch("work", run.act_states["work"], [(0, now, work)])
        (record,), (batch,) = run.instances, run.batches

        calendar = run.model.resource("r1").calendar
        start = calendar.next_open(max(now, free_at))
        end = calendar.work_end(start, work)
        assert (record.start_time, record.end_time) == (start, end)
        if always_open:
            assert (start, end) == (max(now, free_at), max(now, free_at) + work)
        price = pol.compute_batch_cost(1, [float(work)], end - start, rate, cost)
        assert bits(batch.cost) == bits(record.allocated_cost) == bits(price)


class TestCaseCountBound:
    def test_run_config_count_is_bounded(self):
        SimConfig(total_cases=m.MAX_CASES)
        with pytest.raises(SimulationError, match="total_cases must lie in"):
            SimConfig(total_cases=m.MAX_CASES + 1)

    def test_model_count_is_bounded(self):
        doc = single_activity_doc()
        doc["arrival"]["totalCases"] = m.MAX_CASES + 1
        violations = m.validate_model(m.parse_model(doc))
        assert violations == [f"arrival: totalCases must lie in [1, {m.MAX_CASES}]"]


def gateway_model(gateways, arcs, activities, end_nodes, total_cases=8):
    acts = [
        {
            "id": a,
            "duration": {"kind": "fixed", "value": 600},
            "resources": [f"r_{a}"],
        }
        for a in activities
    ]
    resources = [
        {"id": f"r_{a}", "calendar": ALL_WEEK, "costPerTimeUnit": 0.0} for a in activities
    ]
    return m.parse_model(
        {
            "startNode": activities[0],
            "endNodes": end_nodes,
            "activities": acts,
            "gateways": gateways,
            "arcs": [{"source": s, "target": t} for s, t in arcs],
            "resources": resources,
            "arrival": {
                "interArrival": {"kind": "fixed", "value": 3600},
                "calendar": ALL_WEEK,
                "totalCases": total_cases,
            },
        }
    )


def executed(log):
    out = {}
    for rec in log.instances:
        out.setdefault(rec.case_id, []).append(rec.activity_id)
    return out


class TestGateways:
    def test_xor_split_takes_exactly_one_branch(self):
        model = gateway_model(
            gateways=[
                {
                    "id": "x",
                    "kind": "xor-split",
                    "branchProbabilities": {"x->b": 0.5, "x->c": 0.5},
                }
            ],
            arcs=[("a", "x"), ("x", "b"), ("x", "c")],
            activities=["a", "b", "c"],
            end_nodes=["b", "c"],
            total_cases=40,
        )
        log, _ = simulate(model, {}, SimConfig(seed=3))
        paths = executed(log)
        for case_id, acts in paths.items():
            assert len(acts) == 2 and acts[0] == "a"
        taken = {acts[1] for acts in paths.values()}
        assert taken == {"b", "c"}  # 40 draws at 0.5 hit both

    def test_xor_split_certain_branch(self):
        model = gateway_model(
            gateways=[
                {
                    "id": "x",
                    "kind": "xor-split",
                    "branchProbabilities": {"x->b": 1.0, "x->c": 0.0},
                }
            ],
            arcs=[("a", "x"), ("x", "b"), ("x", "c")],
            activities=["a", "b", "c"],
            end_nodes=["b", "c"],
        )
        log, _ = simulate(model, {}, SimConfig(seed=3))
        assert all(acts == ["a", "b"] for acts in executed(log).values())

    def test_and_split_runs_all_branches_and_join_waits(self):
        model = gateway_model(
            gateways=[
                {"id": "fork", "kind": "and-split"},
                {"id": "meet", "kind": "and-join"},
            ],
            arcs=[
                ("a", "fork"),
                ("fork", "b"),
                ("fork", "c"),
                ("b", "meet"),
                ("c", "meet"),
                ("meet", "d"),
            ],
            activities=["a", "b", "c", "d"],
            end_nodes=["d"],
            total_cases=3,
        )
        log, _ = simulate(model, {}, SimConfig(seed=3))
        for case_id, acts in executed(log).items():
            assert sorted(acts) == ["a", "b", "c", "d"]
        recs = {(r.case_id, r.activity_id): r for r in log.instances}
        for case_id in range(3):
            both_done = max(recs[(case_id, "b")].end_time, recs[(case_id, "c")].end_time)
            assert recs[(case_id, "d")].enable_time == both_done

    def test_a_fan_out_enables_its_branches_in_arc_order(self):
        # each branch has its own resource and starts as a batch of one when
        # enabled, so the log lists the branches in the order they enabled
        model = gateway_model(
            gateways=[{"id": "fork", "kind": "and-split"}],
            arcs=[("a", "fork"), ("fork", "b"), ("fork", "c"), ("fork", "d")],
            activities=["a", "b", "c", "d"],
            end_nodes=["b", "c", "d"],
            total_cases=2,
        )
        log, _ = simulate(model, {}, SimConfig(seed=3))
        assert executed(log) == {0: ["a", "b", "c", "d"], 1: ["a", "b", "c", "d"]}

    @pytest.mark.parametrize("end", ["a", "fork"])
    def test_a_token_stops_at_an_end_node_that_has_outgoing_arcs(self, end):
        model = gateway_model(
            gateways=[{"id": "fork", "kind": "and-split"}],
            arcs=[("a", "fork"), ("fork", "b")],
            activities=["a", "b"],
            end_nodes=[end, "b"],
            total_cases=2,
        )
        log, _ = simulate(model, {}, SimConfig(seed=3))
        assert executed(log) == {0: ["a"], 1: ["a"]}

    def test_or_split_activates_subset_and_join_collects_it(self):
        model = gateway_model(
            gateways=[
                {
                    "id": "pick",
                    "kind": "or-split",
                    "branchProbabilities": {"pick->b": 0.5, "pick->c": 0.5},
                },
                {"id": "gather", "kind": "or-join"},
            ],
            arcs=[
                ("a", "pick"),
                ("pick", "b"),
                ("pick", "c"),
                ("b", "gather"),
                ("c", "gather"),
                ("gather", "d"),
            ],
            activities=["a", "b", "c", "d"],
            end_nodes=["d"],
            total_cases=60,
        )
        log, _ = simulate(model, {}, SimConfig(seed=9))
        sizes = set()
        for case_id, acts in executed(log).items():
            middle = sorted(set(acts) - {"a", "d"})
            assert acts.count("d") == 1  # join fires once per case
            assert middle in (["b"], ["c"], ["b", "c"])
            sizes.add(len(middle))
        assert sizes == {1, 2}  # 60 cases exercise both subset shapes

    def test_xor_loop_reexecutes_activity(self):
        model = gateway_model(
            gateways=[
                {
                    "id": "redo",
                    "kind": "xor-split",
                    "branchProbabilities": {"redo->b": 0.4, "redo->c": 0.6},
                }
            ],
            arcs=[("a", "b"), ("b", "redo"), ("redo", "b"), ("redo", "c")],
            activities=["a", "b", "c"],
            end_nodes=["c"],
            total_cases=40,
        )
        log, _ = simulate(model, {}, SimConfig(seed=11))
        counts = [acts.count("b") for acts in executed(log).values()]
        assert all(c >= 1 for c in counts)
        assert any(c >= 2 for c in counts)  # 40 cases at 40% rework
        for acts in executed(log).values():
            assert acts.count("c") == 1

    @pytest.mark.parametrize("name", ["busy-step", "stray-branch", "xor-loop", "token-loop"])
    def test_mean_instances_per_case_match_the_solved_visits(self, name):
        if name == "xor-loop":  # b goes back to itself with probability 0.5
            model = gateway_model(
                gateways=[{"id": "redo", "kind": "xor-split",
                           "branchProbabilities": {"redo->b": 0.5, "redo->file": 0.5}}],
                arcs=[("a", "b"), ("b", "redo"), ("redo", "b"), ("redo", "file")],
                activities=["a", "b", "file"],
                end_nodes=["file"],
            )
        elif name == "token-loop":  # b sends 0.4 x 2 tokens back: b 5, x 2, file 8
            model = gateway_model(
                gateways=[{"id": "redo", "kind": "xor-split",
                           "branchProbabilities": {"redo->s": 0.4, "redo->file": 0.6}},
                          {"id": "s", "kind": "and-split"}],
                arcs=[("a", "b"), ("b", "file"), ("b", "redo"), ("redo", "s"),
                      ("redo", "file"), ("s", "b"), ("s", "x"), ("x", "b")],
                activities=["a", "b", "x", "file"],
                end_nodes=["file"],
            )
        else:
            model = next(f for f in all_fixtures() if f.name == name).model()
        visits = m.expected_visits(model, m.pair_or_splits(model))
        cases = 2000
        for seed in range(3):
            log, _ = simulate(model, {}, SimConfig(seed=seed, total_cases=cases))
            for activity in model.activities:
                counts = [0] * cases
                for rec in log.instances:
                    if rec.activity_id == activity.id:
                        counts[rec.case_id] += 1
                mean = sum(counts) / cases
                sd = math.sqrt(sum((c - mean) ** 2 for c in counts) / (cases - 1))
                # within 4 standard errors of the sample's own mean
                assert abs(mean - visits[activity.id]) <= 4 * sd / math.sqrt(cases) + 1e-9

    def test_or_split_without_join_is_rejected(self):
        model = gateway_model(
            gateways=[
                {
                    "id": "pick",
                    "kind": "or-split",
                    "branchProbabilities": {"pick->b": 0.5, "pick->c": 0.5},
                }
            ],
            arcs=[("a", "pick"), ("pick", "b"), ("pick", "c")],
            activities=["a", "b", "c"],
            end_nodes=["b", "c"],
        )
        with pytest.raises(SimulationError) as err:
            simulate(model, {}, SimConfig(seed=1))
        assert "pick" in str(err.value)

    def test_xor_join_forwards_each_branch_token_at_once(self):
        # the exclusive-choice example of the model schema document
        text = (Path(__file__).resolve().parents[1] / "docs" / "model-schema.md").read_text()
        section = text[text.index("### Example: exclusive choice (`xor`)"):]
        block = section[section.index("```json") + len("```json"):]
        model = m.parse_model(json.loads(block[: block.index("```")]))
        log, _ = simulate(model, {}, SimConfig(seed=0))
        by_case = {}
        for rec in log.instances:
            by_case.setdefault(rec.case_id, {}).setdefault(rec.activity_id, []).append(rec)
        assert len(by_case) == model.arrival.total_cases
        taken = set()
        for runs in by_case.values():
            assert len(runs.pop("intake")) == 1
            (close,) = runs.pop("close")
            # the rest is exactly one run of exactly one branch
            ((branch, (run,)),) = runs.items()
            assert branch in ("fast-track", "full-review")
            assert close.enable_time == run.end_time
            taken.add(branch)
        assert taken == {"fast-track", "full-review"}  # 12 draws at 0.7 / 0.3
