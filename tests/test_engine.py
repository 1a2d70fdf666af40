import pytest

from batchopt import engine
from batchopt import model as m
from batchopt import policy as pol
from batchopt.calendars import SECONDS_PER_HOUR, SECONDS_PER_WEEK
from batchopt.engine import SimConfig, SimulationError, simulate
from batchopt.eventlog import evaluate_objectives, filter_warmup

H = SECONDS_PER_HOUR

ALL_WEEK = [
    {"weekday": d, "start": "00:00", "end": "24:00"}
    for d in ("Monday", "Tuesday", "Wednesday", "Thursday", "Friday", "Saturday", "Sunday")
]


def single_activity_model(total_cases=3, inter_arrival=3600, duration=3600, resource_calendar=None, fixed_cost=0.0):
    return m.parse_model(
        {
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
    )


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
        model_doc = m.serialize_model(single_activity_model(total_cases=3, inter_arrival=600))
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
        model_doc = m.serialize_model(single_activity_model(total_cases=2, inter_arrival=600))
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
        doc = m.serialize_model(single_activity_model(total_cases=2))
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
        model_doc = m.serialize_model(single_activity_model(total_cases=10))
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
        doc = m.serialize_model(single_activity_model())
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
