import pytest
from hypothesis import example, given, settings, strategies as st

from batchopt import analytics as an
from batchopt import interventions as iv
from batchopt import policy as pol
from batchopt.calendars import Calendar, Interval, SECONDS_PER_HOUR
from batchopt.engine import SimConfig, simulate
from batchopt.eventlog import EventLog
from batchopt.fixtures import all_fixtures
from batchopt.reduce import mean
from batchopt.rng import round_half_up

from test_analytics import activity_stats, batch, instance, log_stats, single_activity_model

H = SECONDS_PER_HOUR


class TestSizeScaling:
    def test_identity_factor_returns_mean(self):
        assert iv.scale_size_threshold([2, 4, 6], 1.0) == 4

    def test_half_factor(self):
        assert iv.scale_size_threshold([2, 4, 6], 0.5) == 2

    def test_clamped_to_min_size(self):
        assert iv.scale_size_threshold([3], 0.4) == 1  # round(1.2) = 1

    def test_rounds_half_up(self):
        assert iv.scale_size_threshold([1, 2], 1.0) == 2  # mean 1.5
        assert iv.scale_size_threshold([5], 0.5) == 3  # 2.5 rounds up

    def test_clamped_to_max_size(self):
        assert iv.scale_size_threshold([40], 2.0) == 50
        cfg = iv.InterventionConfig(max_size=10)
        assert iv.scale_size_threshold([40], 2.0, cfg) == 10

    def test_empty_sizes_rejected(self):
        with pytest.raises(iv.InterventionError):
            iv.scale_size_threshold([], 1.0)

    def test_a_product_that_overflows_is_max_size(self):
        # 1e308 x 40 is inf, which no integer can hold
        assert iv.scale_size_threshold([40], 1e308) == 50
        cfg = iv.InterventionConfig(max_size=10**18)
        assert iv.scale_size_threshold([1.0], 1e300, cfg) == 10**18


@settings(deadline=None)
@given(
    sizes=st.lists(st.integers(1, 10**6) | st.floats(1.0, 1e6), min_size=1, max_size=5),
    lam=st.floats(min_value=5e-324, max_value=1.7976931348623157e308),
    bounds=st.tuples(st.integers(1, 10**18), st.integers(1, 10**18)).map(sorted),
)
@example(sizes=[1], lam=4503599627370497.0, bounds=[1, 4503599627370497])
def test_clamping_before_rounding_matches_rounding_before_clamping(sizes, lam, bounds):
    # wherever the round-then-clamp formula returns at all, the
    # clamp-then-round one gives the same size; the example is a max_size
    # past 2**52, which round_half_up would turn into max_size + 1
    cfg = iv.InterventionConfig(min_size=bounds[0], max_size=bounds[1])
    try:
        old = max(cfg.min_size, min(cfg.max_size, round_half_up(lam * mean(sizes))))
    except OverflowError:
        return
    assert iv.scale_size_threshold(sizes, lam, cfg) == old


class TestWaitThresholds:
    def test_ten_hours_scaled_down_ten_percent(self):
        assert iv.compute_wt_first_threshold([10 * H], 0.9) == 9 * H

    def test_mean_of_two(self):
        assert iv.compute_wt_first_threshold([4 * H, 6 * H], 1.0) == 5 * H
        assert iv.compute_wt_first_threshold([4 * H, 6 * H], 0.5) == 2.5 * H

    def test_last_wait_variants(self):
        assert iv.compute_wt_last_threshold([2 * H], 1.0) == 2 * H
        assert iv.compute_wt_last_threshold([1 * H, 3 * H], 0.5) == 1 * H
        assert iv.compute_wt_last_threshold([0, 0], 2.0) == 0.0

    def test_empty_waits_rejected(self):
        with pytest.raises(iv.InterventionError):
            iv.compute_wt_first_threshold([], 1.0)
        with pytest.raises(iv.InterventionError):
            iv.compute_wt_last_threshold([], 0.5)


class TestScheduleSet:
    def test_picks_heaviest_bucket(self):
        assert iv.build_schedule_set({(0, 8): 10.0, (1, 9): 2.0}, 1) == ((0, 8),)

    def test_tie_breaks_by_position(self):
        assert iv.build_schedule_set({(1, 9): 5.0, (0, 8): 5.0}, 1) == ((0, 8),)

    def test_capped_by_nonzero_buckets(self):
        hist = {(0, 8): 3.0, (1, 9): 2.0, (2, 10): 1.0, (3, 11): 0.0}
        assert len(iv.build_schedule_set(hist, 5)) == 3

    def test_all_zero_rejected(self):
        with pytest.raises(iv.InterventionError):
            iv.build_schedule_set({(0, 8): 0.0}, 3)


class TestWindowAlignedThresholds:
    def test_worked_example(self):
        cal = Calendar((Interval(0, 10 * H, 18 * H),))
        log = EventLog(
            instances=(
                instance(0, 2 * H, 8 * H, 11 * H, "b0"),
                instance(1, 7 * H, 8 * H, 11 * H, "b0"),
            ),
            batches=(batch("b0", 8 * H, 11 * H, (0, 1), busy=3 * H),),
        )
        stats = an.compute_stats(log, single_activity_model())
        first, last = an.window_aligned_waits(stats.activity("work"), {"r1": cal})
        inst = an.ScenarioInstance(
            9, "work", aligned_first_waits=tuple(first), aligned_last_waits=tuple(last)
        )
        config = iv.InterventionConfig(scale_grid=(1.0, 0.5))
        deltas = iv.derive_interventions(inst, stats, {}, config)
        assert [(d.new_threshold, d.new_last_threshold) for d in deltas] == [
            (8 * H, 3 * H),
            (4 * H, 1.5 * H),
        ]


def simulated(policies=None, **kwargs):
    model = single_activity_model(**kwargs)
    log, _ = simulate(model, policies or {}, SimConfig(seed=3))
    return model, log


class TestDerive:
    def test_shrink_patterns_emit_only_shrinking_factors(self):
        stats = log_stats(activity_stats(batch_sizes=(4, 6)))
        for sid in iv.SHRINK_SIZE_SCENARIOS:
            inst = an.ScenarioInstance(sid, "work")
            deltas = iv.derive_interventions(inst, stats, {})
            assert deltas, sid
            for d in deltas:
                assert d.kind == iv.SCALE_SIZE
                assert d.scale < 1.0
                assert d.new_threshold <= 5.0
                assert d.scenario_id == sid

    def test_grow_patterns_emit_only_growing_factors(self):
        stats = log_stats(activity_stats(batch_sizes=(4, 6)))
        for sid in iv.GROW_SIZE_SCENARIOS:
            inst = an.ScenarioInstance(sid, "work")
            deltas = iv.derive_interventions(inst, stats, {})
            assert deltas, sid
            for d in deltas:
                assert d.kind == iv.SCALE_SIZE and d.scale > 1.0
                assert d.new_threshold >= 5.0

    def test_pattern_1_replaces_existing_wt_first(self):
        policy = pol.BatchingPolicy(
            activity_id="work",
            batch_type=pol.PARALLEL,
            rule=pol.rule([pol.wait_first_at_least(4 * H)]),
        )
        stats = log_stats(activity_stats(per_batch_max_waits=(10 * H,)))
        deltas = iv.derive_interventions(an.ScenarioInstance(1, "work"), stats, {"work": policy})
        assert {d.kind for d in deltas} == {iv.REPLACE_THRESHOLD}
        assert {d.scale for d in deltas} == set(iv.InterventionConfig().shrink_factors)
        by_scale = {d.scale: d.new_threshold for d in deltas}
        assert by_scale[0.5] == 5 * H

    def test_pattern_1_adds_condition_when_missing(self):
        policy = pol.BatchingPolicy(
            activity_id="work",
            batch_type=pol.PARALLEL,
            rule=pol.rule([pol.size_at_least(4)]),
        )
        stats = log_stats(activity_stats(per_batch_max_waits=(10 * H,)))
        deltas = iv.derive_interventions(an.ScenarioInstance(1, "work"), stats, {"work": policy})
        assert all(d.kind == iv.ADD_CONDITION and d.condition_kind == pol.WT_FIRST for d in deltas)

    def test_pattern_1_on_unbatched_activity_rejected(self):
        stats = log_stats(activity_stats(per_batch_max_waits=(10 * H,)))
        with pytest.raises(iv.InterventionError):
            iv.derive_interventions(an.ScenarioInstance(1, "work"), stats, {})

    def test_activity_missing_from_stats_rejected(self):
        stats = log_stats(activity_stats("other"))
        for sid in an.SCENARIO_IDS:
            with pytest.raises(iv.InterventionError):
                iv.derive_interventions(an.ScenarioInstance(sid, "work"), stats, {})

    def test_pattern_3_emits_enablement_and_execution_schedules(self):
        stats = log_stats(
            activity_stats(enablement_histogram={(0, 8): 10}, execution_histogram={(0, 9): 10})
        )
        deltas = iv.derive_interventions(an.ScenarioInstance(3, "work"), stats, {})
        assert [d.schedule for d in deltas] == [((0, 8),), ((0, 9),)]
        assert all(not d.constrain for d in deltas)

    def test_pattern_3_deduplicates_equal_schedules(self):
        stats = log_stats(
            activity_stats(enablement_histogram={(0, 8): 10}, execution_histogram={(0, 8): 4})
        )
        deltas = iv.derive_interventions(an.ScenarioInstance(3, "work"), stats, {})
        assert len(deltas) == 1

    def test_pattern_8_constrains_per_criterion(self):
        inst = an.ScenarioInstance(
            8,
            "work",
            histograms=((((0, 9), 8.0 * H),), (((0, 9), 8.0 * H), ((0, 10), 7.0 * H))),
        )
        deltas = iv.derive_interventions(inst, log_stats(activity_stats()), {})
        assert len(deltas) == 2
        assert all(d.constrain for d in deltas)

    def test_pattern_9_uses_full_grid(self):
        inst = an.ScenarioInstance(
            9, "work", aligned_first_waits=(8.0 * H,), aligned_last_waits=(3.0 * H,)
        )
        deltas = iv.derive_interventions(inst, log_stats(activity_stats()), {})
        cfg = iv.InterventionConfig()
        assert [d.scale for d in deltas] == list(cfg.scale_grid)
        one = next(d for d in deltas if d.scale == 1.25)
        assert one.kind == iv.SET_WAIT_THRESHOLDS
        assert one.new_threshold == 10 * H
        assert one.new_last_threshold == 3.75 * H


def base_policy(rule=None, batch_type=pol.PARALLEL, cost=None):
    return pol.BatchingPolicy(
        activity_id="work",
        batch_type=batch_type,
        rule=rule if rule is not None else pol.rule([pol.size_at_least(4)]),
        cost=cost or pol.CostModel(fixed_cost=2.0),
    )


class TestApply:
    def test_scale_size_changes_only_that_condition(self):
        rule = pol.rule([pol.size_at_least(4), pol.wait_first_at_least(3 * H)])
        policies = {"work": base_policy(rule)}
        out = iv.apply_delta(policies, iv.PolicyDelta("work", iv.SCALE_SIZE, 5, 0.5, new_threshold=2))
        (group,) = out["work"].rule.groups
        assert group.find(pol.SIZE).threshold == 2
        assert group.find(pol.WT_FIRST).threshold == 3 * H
        assert out["work"].cost == policies["work"].cost
        # input untouched
        assert policies["work"].rule.groups[0].find(pol.SIZE).threshold == 4

    def test_scale_size_adds_group_when_absent(self):
        policies = {"work": base_policy(pol.rule([pol.wait_first_at_least(3 * H)]))}
        out = iv.apply_delta(policies, iv.PolicyDelta("work", iv.SCALE_SIZE, 11, 2.0, new_threshold=8))
        groups = out["work"].rule.groups
        assert len(groups) == 2
        assert groups[1].find(pol.SIZE).threshold == 8

    def test_add_schedule_appends_one_group_per_slot(self):
        policies = {"work": base_policy()}
        delta = iv.PolicyDelta("work", iv.ADD_SCHEDULE, 3, schedule=((0, 8), (1, 9)))
        out = iv.apply_delta(policies, delta)
        groups = out["work"].rule.groups
        assert len(groups) == 3
        assert groups[1].find(pol.WEEK_DAY).days == (0,)
        assert groups[1].find(pol.DAILY_HOUR).hours == (8,)
        assert groups[2].find(pol.WEEK_DAY).days == (1,)

    def test_constrained_schedule_tightens_existing_groups(self):
        policies = {"work": base_policy(pol.rule([pol.size_at_least(3)]))}
        delta = iv.PolicyDelta("work", iv.ADD_SCHEDULE, 8, schedule=((0, 9),), constrain=True)
        out = iv.apply_delta(policies, delta)
        (group,) = out["work"].rule.groups
        assert group.find(pol.SIZE).threshold == 3
        assert group.find(pol.WEEK_DAY).days == (0,)
        assert group.find(pol.DAILY_HOUR).hours == (9,)

    def test_constrained_schedule_intersects_hours(self):
        rule = pol.rule([pol.in_hours(8, 9, 10)])
        policies = {"work": base_policy(rule)}
        delta = iv.PolicyDelta("work", iv.ADD_SCHEDULE, 8, schedule=((2, 9),), constrain=True)
        out = iv.apply_delta(policies, delta)
        (group,) = out["work"].rule.groups
        assert group.find(pol.DAILY_HOUR).hours == (9,)
        assert group.find(pol.WEEK_DAY).days == (2,)

    def test_infeasible_constraint_rejected(self):
        rule = pol.rule([pol.in_hours(8)])
        policies = {"work": base_policy(rule)}
        delta = iv.PolicyDelta("work", iv.ADD_SCHEDULE, 8, schedule=((2, 14),), constrain=True)
        with pytest.raises(iv.InterventionError):
            iv.apply_delta(policies, delta)
        assert policies["work"].rule == rule  # untouched on failure

    def test_replace_threshold_round_trip(self):
        rule = pol.rule([pol.wait_first_at_least(4 * H)])
        policies = {"work": base_policy(rule)}
        forward = iv.PolicyDelta(
            "work", iv.REPLACE_THRESHOLD, 1, 0.5, condition_kind=pol.WT_FIRST, new_threshold=2 * H
        )
        backward = iv.PolicyDelta(
            "work", iv.REPLACE_THRESHOLD, 1, 2.0, condition_kind=pol.WT_FIRST, new_threshold=4 * H
        )
        assert iv.apply_delta(iv.apply_delta(policies, forward), backward) == policies

    def test_replace_missing_condition_rejected(self):
        policies = {"work": base_policy()}
        delta = iv.PolicyDelta(
            "work", iv.REPLACE_THRESHOLD, 2, condition_kind=pol.WT_LAST, new_threshold=H
        )
        with pytest.raises(iv.InterventionError):
            iv.apply_delta(policies, delta)

    def test_unbatched_activity_gains_parallel_policy(self):
        delta = iv.PolicyDelta(
            "work", iv.SCALE_SIZE, 12, 2.0, new_threshold=3, new_policy_fixed_cost=1.5
        )
        out = iv.apply_delta({}, delta)
        created = out["work"]
        assert created.batch_type == pol.PARALLEL
        assert created.cost.fixed_cost == 1.5
        (group,) = created.rule.groups
        assert group.find(pol.SIZE).threshold == 3

    def test_set_wait_thresholds_covers_both_kinds(self):
        policies = {"work": base_policy(pol.rule([pol.wait_first_at_least(5 * H)]))}
        delta = iv.PolicyDelta(
            "work", iv.SET_WAIT_THRESHOLDS, 9, 1.0, new_threshold=2 * H, new_last_threshold=H
        )
        out = iv.apply_delta(policies, delta)
        groups = out["work"].rule.groups
        assert groups[0].find(pol.WT_FIRST).threshold == 2 * H
        assert groups[1].find(pol.WT_LAST).threshold == H

    def test_toggle_batch_type_flips(self):
        policies = {"work": base_policy()}
        delta = iv.PolicyDelta("work", iv.TOGGLE_BATCH_TYPE)
        out = iv.apply_delta(policies, delta)
        assert out["work"].batch_type == pol.SEQUENTIAL
        assert iv.apply_delta(out, delta)["work"].batch_type == pol.PARALLEL

    def test_toggle_on_unbatched_rejected(self):
        with pytest.raises(iv.InterventionError):
            iv.apply_delta({}, iv.PolicyDelta("work", iv.TOGGLE_BATCH_TYPE))


class TestEndToEnd:
    def test_detect_derive_apply_yields_valid_changed_policies(self):
        policies = {
            "work": pol.BatchingPolicy(
                activity_id="work",
                batch_type=pol.SEQUENTIAL,
                rule=pol.rule([pol.size_at_least(3)]),
                cost=pol.CostModel(fixed_cost=4.0),
            )
        }
        model, log = simulated(policies, total_cases=12, inter_arrival=900)
        stats = an.compute_stats(log, model)
        found = an.detect_scenarios(log, model, policies)
        assert found
        changed = 0
        for inst in found:
            for delta in iv.derive_interventions(inst, stats, policies):
                out = iv.apply_delta(policies, delta)
                pol.parse_policies(pol.serialize_policies(out))  # round-trips
                if out != policies:
                    changed += 1
        assert changed > 0

    @pytest.mark.parametrize("fixture", all_fixtures(), ids=lambda f: f.name)
    def test_wait_and_size_deltas_follow_their_formulas(self, fixture):
        model, policies = fixture.model(), fixture.policies()
        log = simulate(model, policies, fixture.sim_config()).log
        stats = an.compute_stats(log, model)
        config = iv.InterventionConfig()
        for inst in an.detect_scenarios(log, model, policies, stats=stats):
            a = stats.activity(inst.activity_id)
            sid = inst.scenario_id
            if sid not in (1, 2) + iv.SHRINK_SIZE_SCENARIOS + iv.GROW_SIZE_SCENARIOS:
                continue
            deltas = iv.derive_interventions(inst, stats, policies, config)
            grows = sid in iv.GROW_SIZE_SCENARIOS
            factors = config.grow_factors if grows else config.shrink_factors
            assert [d.scale for d in deltas] == list(factors), (fixture.name, sid)
            for d in deltas:
                if sid == 1:
                    assert d.new_threshold == iv.compute_wt_first_threshold(
                        a.per_batch_max_waits, d.scale
                    )
                elif sid == 2:
                    assert d.new_threshold == iv.compute_wt_last_threshold(
                        a.per_batch_min_waits, d.scale
                    )
                else:
                    assert d.new_threshold == iv.scale_size_threshold(
                        a.batch_sizes, d.scale, config
                    )
                    assert d.new_policy_fixed_cost == a.total_cost / a.execution_count

    def test_delta_doc_round_trip_fields(self):
        delta = iv.PolicyDelta(
            "work", iv.ADD_SCHEDULE, 8, schedule=((0, 8),), constrain=True
        )
        doc = iv.delta_to_doc(delta)
        assert doc["kind"] == iv.ADD_SCHEDULE
        assert doc["schedule"] == [[0, 8]]
        assert doc["constrain"] is True


@settings(deadline=None)
@given(
    sid=st.sampled_from(iv.SHRINK_SIZE_SCENARIOS + iv.GROW_SIZE_SCENARIOS),
    sizes=st.lists(st.integers(1, 50), min_size=1, max_size=20),
    has_policy=st.booleans(),
)
def test_size_deltas_always_apply_cleanly(sid, sizes, has_policy):
    policies = {}
    if has_policy:
        policies["work"] = pol.BatchingPolicy(
            activity_id="work",
            batch_type=pol.PARALLEL,
            rule=pol.rule([pol.size_at_least(2), pol.wait_first_at_least(3600)]),
            cost=pol.CostModel(),
        )
    stats = log_stats(activity_stats(batch_sizes=tuple(sizes)))
    for delta in iv.derive_interventions(an.ScenarioInstance(sid, "work"), stats, policies):
        out = iv.apply_delta(policies, delta)
        new_policy = out["work"]
        assert new_policy.rule.has_kind(pol.SIZE)
        threshold = next(
            g.find(pol.SIZE).threshold for g in new_policy.rule.groups if g.find(pol.SIZE)
        )
        assert 1 <= threshold <= 50
