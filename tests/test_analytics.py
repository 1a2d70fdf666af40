from collections import Counter

import pytest
from hypothesis import given, strategies as st

from batchopt import analytics as an
from batchopt import eventlog as ev
from batchopt import model as m
from batchopt import policy as pol
from batchopt.calendars import Calendar, Interval, SECONDS_PER_DAY, SECONDS_PER_HOUR
from batchopt.engine import SimConfig, simulate
from batchopt.fixtures import all_fixtures
from batchopt.reduce import mean

H = SECONDS_PER_HOUR

ALL_WEEK = [
    {"weekday": d, "start": "00:00", "end": "24:00"}
    for d in ("Monday", "Tuesday", "Wednesday", "Thursday", "Friday", "Saturday", "Sunday")
]


def instance(case_id, enable, start, end, batch_id, cost=0.0, activity="work", resource="r1"):
    return ev.InstanceRecord(
        case_id=case_id,
        activity_id=activity,
        resource_id=resource,
        enable_time=enable,
        start_time=start,
        end_time=end,
        batch_id=batch_id,
        allocated_cost=cost,
        work_seconds=end - start,
    )


def batch(batch_id, start, end, members, cost=0.0, busy=None, activity="work", resource="r1"):
    return ev.BatchRecord(
        batch_id=batch_id,
        activity_id=activity,
        resource_id=resource,
        start_time=start,
        end_time=end,
        members=members,
        cost=cost,
        busy_seconds=busy if busy is not None else end - start,
    )


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


def activity_stats(activity_id="work", **fields):
    """An ActivityStats of one batch of one instance; `fields` override."""
    defaults = dict(
        execution_count=1,
        mean_processing_time=0.0,
        mean_first_wait=0.0,
        mean_last_wait=0.0,
        mean_batch_size=1.0,
        total_waiting=0.0,
        total_cost=0.0,
        enablement_histogram={},
        execution_histogram={},
        batch_sizes=(1,),
        batch_starts=(0,),
        batch_resources=("r1",),
        per_batch_max_waits=(0,),
        per_batch_min_waits=(0,),
        per_batch_busy=(0,),
        idle_batch_share=0.0,
        switch_rate=0.0,
        distinct_resource_count=1,
        cost_by_size=(),
    )
    return an.ActivityStats(activity_id=activity_id, **{**defaults, **fields})


def log_stats(*activities):
    return an.LogStats(activities=activities, resources=())


class TestComputeStats:
    def test_single_batch_wait_aggregation(self):
        # member waits at batch start: 5h, 3h, 1h
        start = 6 * H
        log = ev.EventLog(
            instances=(
                instance(0, start - 5 * H, start, start + H, "b0", 2.0),
                instance(1, start - 3 * H, start, start + H, "b0", 2.0),
                instance(2, start - 1 * H, start, start + H, "b0", 2.0),
            ),
            batches=(batch("b0", start, start + H, (0, 1, 2), cost=6.0, busy=H),),
        )
        stats = an.compute_stats(log, single_activity_model())
        (a,) = stats.activities
        assert a.mean_first_wait == 5 * H
        assert a.mean_last_wait == 1 * H
        assert a.mean_batch_size == 3.0
        assert a.total_cost == 6.0
        assert a.total_waiting == 9 * H
        assert a.batch_sizes == (3,)
        assert a.per_batch_max_waits == (5 * H,)
        assert a.per_batch_min_waits == (1 * H,)

    def test_histograms_follow_timestamps(self):
        # enable Monday 06:xx, start Monday 08:xx
        log = ev.EventLog(
            instances=(
                instance(0, 6 * H + 120, 8 * H, 9 * H, "b0"),
                instance(1, 6 * H + 600, 8 * H, 9 * H, "b0"),
            ),
            batches=(batch("b0", 8 * H, 9 * H, (0, 1), busy=H),),
        )
        stats = an.compute_stats(log, single_activity_model())
        (a,) = stats.activities
        assert a.enablement_histogram == {(0, 6): 2}
        assert a.execution_histogram == {(0, 8): 2}
        assert sum(a.enablement_histogram.values()) == a.execution_count

    @given(st.lists(st.tuples(st.integers(0, 10**9), st.integers(0, 10**6)), min_size=1,
                    max_size=12))
    def test_histograms_equal_a_bucket_of_reference(self, spans):
        # instants anywhere in ~30 years, each its own batch of one
        instances = tuple(
            instance(i, enable, enable + wait, enable + wait + H, f"b{i}")
            for i, (enable, wait) in enumerate(spans)
        )
        batches = tuple(
            batch(r.batch_id, r.start_time, r.end_time, (i,), busy=H)
            for i, r in enumerate(instances)
        )
        log = ev.EventLog(instances, batches)
        (a,) = an.compute_stats(log, single_activity_model()).activities
        assert a.enablement_histogram == Counter(an.bucket_of(r.enable_time) for r in instances)
        assert a.execution_histogram == Counter(an.bucket_of(r.start_time) for r in instances)

    def test_utilization_ratio(self):
        # resource open Monday 08:00-16:00, busy 4h, horizon ends Monday 16:00
        cal = [{"weekday": "Monday", "start": "08:00", "end": "16:00"}]
        log = ev.EventLog(
            instances=(instance(0, 8 * H, 8 * H, 12 * H, "b0"),),
            batches=(batch("b0", 8 * H, 12 * H, (0,), busy=4 * H),),
        )
        model = single_activity_model(resource_calendar=cal)
        # stretch horizon to the calendar close with a zero-work marker
        log = ev.EventLog(
            instances=log.instances + (instance(1, 16 * H, 16 * H, 16 * H, "b1"),),
            batches=log.batches + (batch("b1", 16 * H, 16 * H, (1,), busy=0),),
        )
        stats = an.compute_stats(log, model)
        assert stats.resource("r1").utilization == pytest.approx(0.5)

    def test_idle_share_counts_interrupted_batches(self):
        log = ev.EventLog(
            instances=(
                instance(0, 0, 8 * H, 10 * H, "b0"),
                instance(1, 0, 30 * H, 31 * H, "b1"),
            ),
            batches=(
                batch("b0", 8 * H, 10 * H, (0,), busy=2 * H),  # uninterrupted
                batch("b1", 30 * H, 31 * H, (1,), busy=int(0.5 * H)),  # idle inside
            ),
        )
        stats = an.compute_stats(log, single_activity_model())
        assert stats.activity("work").idle_batch_share == 0.5

    def test_switch_rate(self):
        log = ev.EventLog(
            instances=(
                instance(0, 0, H, 2 * H, "b0", resource="r1"),
                instance(1, 0, 3 * H, 4 * H, "b1", resource="r2"),
                instance(2, 0, 5 * H, 6 * H, "b2", resource="r1"),
            ),
            batches=(
                batch("b0", H, 2 * H, (0,), resource="r1"),
                batch("b1", 3 * H, 4 * H, (1,), resource="r2"),
                batch("b2", 5 * H, 6 * H, (2,), resource="r1"),
            ),
        )
        doc = single_activity_doc()
        doc["resources"].append({"id": "r2", "calendar": ALL_WEEK, "costPerTimeUnit": 0.0})
        doc["activities"][0]["resources"] = ["r1", "r2"]
        stats = an.compute_stats(log, m.parse_model(doc))
        a = stats.activity("work")
        assert a.distinct_resource_count == 2
        assert a.switch_rate == 1.0
        assert a.batch_resources == ("r1", "r2", "r1")
        assert a.batch_starts == (H, 3 * H, 5 * H)

    def test_cost_by_size_averages_per_instance_cost_by_size(self):
        log = ev.EventLog(
            instances=(
                instance(0, 0, H, 2 * H, "b0"),
                instance(1, 0, 3 * H, 4 * H, "b1"),
                instance(2, 0, 3 * H, 4 * H, "b1"),
                instance(3, 0, 5 * H, 6 * H, "b2"),
            ),
            batches=(
                batch("b0", H, 2 * H, (0,), cost=3.0),
                batch("b1", 3 * H, 4 * H, (1, 2), cost=4.0),
                batch("b2", 5 * H, 6 * H, (3,), cost=5.0),
            ),
        )
        a = an.compute_stats(log, single_activity_model()).activity("work")
        assert a.cost_by_size == ((1, 4.0), (2, 2.0))

    def test_cost_by_size_empty_for_one_size(self):
        log = ev.EventLog(
            instances=(instance(0, 0, H, 2 * H, "b0"), instance(1, 0, 3 * H, 4 * H, "b1")),
            batches=(batch("b0", H, 2 * H, (0,), cost=3.0), batch("b1", 3 * H, 4 * H, (1,))),
        )
        assert an.compute_stats(log, single_activity_model()).activity("work").cost_by_size == ()

    def test_empty_log_rejected(self):
        with pytest.raises(an.AnalyticsError):
            an.compute_stats(ev.EventLog(instances=(), batches=()), single_activity_model())


class TestHelpers:
    def test_top_buckets_ranks_by_count_then_position(self):
        hist = {(0, 8): 10.0, (1, 9): 10.0, (2, 3): 4.0, (5, 5): 0.0}
        assert an.top_buckets(hist, 1) == [(0, 8)]
        assert an.top_buckets(hist, 3) == [(0, 8), (1, 9), (2, 3)]
        assert an.top_buckets(hist, 10) == [(0, 8), (1, 9), (2, 3)]

    def test_cosine_similarity_extremes(self):
        a = {(0, 8): 3.0, (0, 9): 4.0}
        assert an.cosine_similarity(a, a) == pytest.approx(1.0)
        assert an.cosine_similarity(a, {(5, 1): 2.0}) == 0.0
        assert an.cosine_similarity(a, {}) == 0.0

    def test_weekly_windows_business_week(self):
        cal = Calendar(tuple(Interval(d, 9 * H, 17 * H) for d in range(5)))
        wins = an.weekly_windows(cal)
        assert len(wins) == 5
        assert wins[0] == (9 * H, 17 * H)
        assert all(we - ws == 8 * H for ws, we in wins)

    def test_weekly_windows_merges_week_wrap(self):
        cal = Calendar((Interval(6, 23 * H, 24 * H), Interval(0, 0, 2 * H)))
        wins = an.weekly_windows(cal)
        (w,) = wins
        assert w[1] - w[0] == 3 * H  # Sunday 23:00 through Monday 02:00
        assert (w[0] // SECONDS_PER_DAY) % 7 == 6

    def test_availability_histogram_fractional_hours(self):
        cal = [{"weekday": "Monday", "start": "08:30", "end": "12:00"}]
        model = single_activity_model(resource_calendar=cal)
        hist = an.availability_histogram(model, "work")
        assert hist[(0, 8)] == pytest.approx(0.5)
        assert hist[(0, 9)] == pytest.approx(1.0)
        assert (0, 12) not in hist


def reference_window_aligned_waits(log, calendars, activity_id):
    """The log-scanning form of `window_aligned_waits`: batches in log
    order, waits read from the member instances."""
    batches = [b for b in log.batches if b.activity_id == activity_id]
    if not batches:
        raise an.AnalyticsError(f"activity {activity_id!r} has no batches to align")
    estimate = mean([b.busy_seconds for b in batches])
    first, last = [], []
    for b in batches:
        chosen = None
        for ws, we in calendars[b.resource_id].windows_from(b.start_time):
            if ws - b.start_time > an.ALIGN_HORIZON:
                break
            if we - ws >= estimate:
                chosen = ws
                break
        if chosen is None:
            raise an.AnalyticsError(f"no window fits batches of activity {activity_id!r}")
        shift = chosen - b.start_time
        enables = [log.instances[i].enable_time for i in b.members]
        first.append(max(0.0, (b.start_time - min(enables)) + shift))
        last.append(max(0.0, (b.start_time - max(enables)) + shift))
    return first, last


def assert_aligned_waits_match_reference(log, model, calendars, activity_id):
    """The stats-based waits equal the reference's as sorted lists, or
    both raise."""
    a = an.compute_stats(log, model).activity(activity_id)
    try:
        expected = reference_window_aligned_waits(log, calendars, activity_id)
    except an.AnalyticsError:
        with pytest.raises(an.AnalyticsError):
            an.window_aligned_waits(a, calendars)
        return None
    first, last = an.window_aligned_waits(a, calendars)
    assert (sorted(first), sorted(last)) == (sorted(expected[0]), sorted(expected[1]))
    return first, last


class TestWindowAlignment:
    def make_log(self, ready, first_wait, last_wait, busy):
        return ev.EventLog(
            instances=(
                instance(0, ready - first_wait, ready, ready + busy, "b0"),
                instance(1, ready - last_wait, ready, ready + busy, "b0"),
            ),
            batches=(batch("b0", ready, ready + busy, (0, 1), busy=busy),),
        )

    def aligned(self, cal, **log_args):
        log = self.make_log(**log_args)
        return assert_aligned_waits_match_reference(
            log, single_activity_model(), {"r1": cal}, "work"
        )

    def test_shift_to_window_start(self):
        # ready 2h before an 8h window; batch needs 3h; waits (6h, 1h)
        cal = Calendar((Interval(0, 10 * H, 18 * H),))
        first, last = self.aligned(cal, ready=8 * H, first_wait=6 * H, last_wait=1 * H, busy=3 * H)
        assert first == [8 * H]
        assert last == [3 * H]

    def test_short_window_is_skipped(self):
        # a 1h window cannot host a 3h batch; the next 6h window can
        cal = Calendar((Interval(0, 9 * H, 10 * H), Interval(0, 12 * H, 18 * H)))
        first, last = self.aligned(cal, ready=8 * H, first_wait=6 * H, last_wait=1 * H, busy=3 * H)
        assert first == [6 * H + 4 * H]
        assert last == [1 * H + 4 * H]

    def test_ready_inside_roomy_window_keeps_waits(self):
        cal = Calendar((Interval(0, 6 * H, 18 * H),))
        first, last = self.aligned(cal, ready=8 * H, first_wait=6 * H, last_wait=1 * H, busy=3 * H)
        assert first == [6 * H]
        assert last == [1 * H]

    def test_no_fitting_window_raises(self):
        cal = Calendar((Interval(0, 9 * H, 10 * H),))  # only 1h of weekly capacity
        log = self.make_log(ready=8 * H, first_wait=6 * H, last_wait=1 * H, busy=3 * H)
        assert assert_aligned_waits_match_reference(
            log, single_activity_model(), {"r1": cal}, "work"
        ) is None
        a = an.compute_stats(log, single_activity_model()).activity("work")
        with pytest.raises(an.AnalyticsError) as err:
            an.window_aligned_waits(a, {"r1": cal})
        assert "work" in str(err.value)

    @pytest.mark.parametrize("fixture", all_fixtures(), ids=lambda f: f.name)
    def test_every_fixture_activity_matches_the_reference(self, fixture):
        model, policies = fixture.model(), fixture.policies()
        log = simulate(model, policies, fixture.sim_config()).log
        calendars = {r.id: r.calendar for r in model.resources}
        for activity_id in sorted({b.activity_id for b in log.batches}):
            assert_aligned_waits_match_reference(log, model, calendars, activity_id)


def size_policy(threshold, batch_type=pol.PARALLEL):
    return {
        "work": pol.BatchingPolicy(
            activity_id="work",
            batch_type=batch_type,
            rule=pol.rule([pol.size_at_least(threshold)]),
            cost=pol.CostModel(),
        )
    }


class TestDetectors:
    def detected(self, log, model, policies, config=None):
        instances = an.detect_scenarios(log, model, policies, config or an.DetectionConfig())
        return {(s.scenario_id, s.activity_id) for s in instances}

    def test_unbatched_activity_without_delays_skips_wait_patterns(self):
        model = single_activity_model()
        log, _ = simulate(model, {}, SimConfig(seed=1))
        ids = self.detected(log, model, {})
        assert not {(1, "work"), (2, "work"), (5, "work")} & ids

    def test_sequential_batching_triggers_pattern_7(self):
        model = single_activity_model()
        policies = size_policy(3, batch_type=pol.SEQUENTIAL)
        log, _ = simulate(model, policies, SimConfig(seed=1))
        ids = self.detected(log, model, policies)
        assert (7, "work") in ids

    def test_busy_resource_triggers_pattern_16(self):
        model = single_activity_model(total_cases=20, inter_arrival=600, duration=3600)
        log, _ = simulate(model, {}, SimConfig(seed=1))
        ids = self.detected(log, model, {})
        assert (16, "work") in ids
        assert (17, "work") not in ids

    def test_idle_resource_triggers_pattern_17(self):
        model = single_activity_model(total_cases=3, inter_arrival=10 * H, duration=600)
        log, _ = simulate(model, {}, SimConfig(seed=1))
        ids = self.detected(log, model, {})
        assert (17, "work") in ids
        assert (16, "work") not in ids

    def test_raising_high_threshold_shrinks_pattern_16(self):
        model = single_activity_model(total_cases=20, inter_arrival=600, duration=3600)
        log, _ = simulate(model, {}, SimConfig(seed=1))
        loose = self.detected(log, model, {}, an.DetectionConfig(utilization_high=0.5))
        tight = self.detected(log, model, {}, an.DetectionConfig(utilization_high=0.99))
        assert {s for s in tight if s[0] == 16} <= {s for s in loose if s[0] == 16}

    def test_single_resource_low_switching_needs_size_condition(self):
        model = single_activity_model()
        policies = size_policy(2)
        log, _ = simulate(model, policies, SimConfig(seed=1))
        assert (19, "work") in self.detected(log, model, policies)
        log2, _ = simulate(model, {}, SimConfig(seed=1))
        assert (19, "work") not in self.detected(log2, model, {})

    def test_detection_is_deterministic(self):
        model = single_activity_model(total_cases=10, inter_arrival=900)
        policies = size_policy(2)
        log, _ = simulate(model, policies, SimConfig(seed=5))
        a = an.detect_scenarios(log, model, policies)
        b = an.detect_scenarios(log, model, policies)
        assert a == b

    def test_every_instance_names_a_known_pattern_and_activity(self):
        model = single_activity_model(total_cases=12, inter_arrival=900)
        policies = size_policy(3, batch_type=pol.SEQUENTIAL)
        log, _ = simulate(model, policies, SimConfig(seed=2))
        for inst in an.detect_scenarios(log, model, policies):
            assert inst.scenario_id in an.SCENARIO_IDS
            assert inst.activity_id == "work"

    def test_at_most_one_instance_per_pattern_and_activity(self):
        model = single_activity_model(total_cases=12, inter_arrival=900)
        policies = size_policy(3)
        log, _ = simulate(model, policies, SimConfig(seed=2))
        out = an.detect_scenarios(log, model, policies)
        keys = [(s.scenario_id, s.activity_id) for s in out]
        assert len(keys) == len(set(keys))
        assert keys == sorted(keys)
