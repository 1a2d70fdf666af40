import json
import math

import pytest
from hypothesis import given, strategies as st

from batchopt import policy as pol
from batchopt.calendars import SECONDS_PER_DAY, SECONDS_PER_HOUR

H = SECONDS_PER_HOUR


def state(*enable_times):
    return pol.BatchState(tuple(enable_times))


MON_0830 = 8 * H + 1800  # Monday 08:30
MON_0900 = 9 * H


class TestConditions:
    def test_size_boundary_inclusive(self):
        c = pol.size_at_least(3)
        assert pol.evaluate_condition(c, state(0, 10, 20), now=20)
        assert not pol.evaluate_condition(c, state(0, 10), now=20)

    def test_wt_first_measures_earliest(self):
        c = pol.wait_first_at_least(2 * H)
        assert pol.evaluate_condition(c, state(0, H), now=2 * H)
        assert not pol.evaluate_condition(c, state(H, H), now=2 * H)

    def test_wt_last_measures_latest(self):
        c = pol.wait_last_at_least(H)
        assert not pol.evaluate_condition(c, state(0, 2 * H), now=2 * H)
        assert pol.evaluate_condition(c, state(0, H), now=2 * H)

    def test_daily_hour_true_throughout_hour(self):
        c = pol.in_hours(8)
        assert pol.evaluate_condition(c, state(0), now=MON_0830)
        assert pol.evaluate_condition(c, state(0), now=8 * H)
        assert not pol.evaluate_condition(c, state(0), now=MON_0900)

    def test_week_day(self):
        c = pol.on_days(0, 2)
        assert pol.evaluate_condition(c, state(0), now=0)
        assert not pol.evaluate_condition(c, state(0), now=SECONDS_PER_DAY)

    def test_empty_waiting_list_rejected(self):
        with pytest.raises(pol.PolicyError):
            pol.evaluate_condition(pol.size_at_least(1), state(), now=0)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(pol.PolicyError):
            pol.size_at_least(0)
        with pytest.raises(pol.PolicyError):
            pol.Condition(pol.WT_FIRST, threshold=-1)
        for kind in pol.THRESHOLD_KINDS:
            for value in (math.nan, math.inf, -math.inf):
                with pytest.raises(pol.PolicyError):
                    pol.Condition(kind, threshold=value)
        with pytest.raises(pol.PolicyError):
            pol.in_hours(24)
        with pytest.raises(pol.PolicyError):
            pol.Condition(pol.DAILY_HOUR, hours=())
        with pytest.raises(pol.PolicyError):
            pol.on_days(7)


class TestRule:
    def test_empty_rule_never_fires(self):
        r = pol.ActivationRule()
        assert not pol.evaluate_activation_rule(r, state(0, 1, 2), now=10**9)

    def test_group_is_conjunction(self):
        r = pol.rule([pol.size_at_least(2), pol.in_hours(8)])
        assert pol.evaluate_activation_rule(r, state(0, 10), now=MON_0830)
        assert not pol.evaluate_activation_rule(r, state(0), now=MON_0830)
        assert not pol.evaluate_activation_rule(r, state(0, 10), now=MON_0900)

    def test_rule_is_disjunction(self):
        r = pol.rule([pol.size_at_least(5)], [pol.wait_first_at_least(H)])
        assert pol.evaluate_activation_rule(r, state(0), now=H)
        assert not pol.evaluate_activation_rule(r, state(0), now=H - 1)

    def test_duplicate_kind_in_group_rejected(self):
        with pytest.raises(pol.PolicyError):
            pol.rule([pol.size_at_least(2), pol.size_at_least(3)])

    def test_monotone_in_waiting_count(self):
        # adding a later-enabled instance can only keep or turn on a
        # size/wt-first rule (wt-last excluded by construction)
        r = pol.rule([pol.size_at_least(3)], [pol.wait_first_at_least(H)])
        small, large = state(0, 10), state(0, 10, 20)
        for now in (20, H, 2 * H):
            if pol.evaluate_activation_rule(r, small, now):
                assert pol.evaluate_activation_rule(r, large, now)


# brute-force oracle: evaluate each condition into a truth table first,
# then fold the DNF explicitly
def _oracle(rule_obj, st_obj, now):
    any_group = False
    for group in rule_obj.groups:
        table = []
        for c in group.conditions:
            w = st_obj.waiting_enable_times
            if c.kind == pol.SIZE:
                table.append(len(w) >= c.threshold)
            elif c.kind == pol.WT_FIRST:
                table.append(now - min(w) >= c.threshold)
            elif c.kind == pol.WT_LAST:
                table.append(now - max(w) >= c.threshold)
            elif c.kind == pol.DAILY_HOUR:
                table.append((now % 86400) // 3600 in c.hours)
            elif c.kind == pol.WEEK_DAY:
                table.append((now // 86400) % 7 in c.days)
        any_group = any_group or all(table)
    return any_group


@st.composite
def rules(draw):
    def condition(_):
        kind = draw(st.sampled_from(pol.CONDITION_KINDS))
        if kind == pol.SIZE:
            return pol.size_at_least(draw(st.integers(1, 6)))
        if kind == pol.WT_FIRST:
            return pol.wait_first_at_least(draw(st.integers(0, 3 * H)))
        if kind == pol.WT_LAST:
            return pol.wait_last_at_least(draw(st.integers(0, 3 * H)))
        if kind == pol.DAILY_HOUR:
            return pol.in_hours(*draw(st.lists(st.integers(0, 23), min_size=1, max_size=4)))
        return pol.on_days(*draw(st.lists(st.integers(0, 6), min_size=1, max_size=3)))

    groups = []
    for _ in range(draw(st.integers(0, 3))):
        kinds_used = set()
        conds = []
        for _ in range(draw(st.integers(1, 3))):
            c = condition(None)
            if c.kind in kinds_used:
                continue
            kinds_used.add(c.kind)
            conds.append(c)
        groups.append(conds)
    return pol.rule(*groups)


@given(
    rules(),
    st.lists(st.integers(0, 5 * H), min_size=1, max_size=6),
    st.integers(0, 9 * H),
)
def test_rule_agrees_with_truth_table_oracle(r, enables, now_offset):
    enables = sorted(enables)
    now = enables[-1] + now_offset
    s = state(*enables)
    assert pol.evaluate_activation_rule(r, s, now) == _oracle(r, s, now)


class TestCostModel:
    def test_flat_zero_cost(self):
        c = pol.CostModel()
        assert pol.compute_batch_cost(1, [100.0], 100, 0.0, c) == 0.0

    def test_per_time_mode_uses_wall_duration(self):
        c = pol.CostModel(fixed_cost=5.0, resource_cost_mode=pol.PER_TIME)
        # idle inside the span is charged in this mode
        assert pol.compute_batch_cost(2, [600.0, 600.0], 7200, 0.01, c) == 5.0 + 72.0

    def test_processing_scaled_mode_excludes_idle(self):
        c = pol.CostModel(resource_cost_mode=pol.PROCESSING_SCALED, processing_scale_factor=1.0)
        got = pol.compute_batch_cost(3, [3600.0, 7200.0, 10800.0], 10**6, 99.0, c)
        assert got == pytest.approx(7200.0, abs=1e-9)  # (1/3) * 21600

    def test_processing_scaled_half_factor(self):
        c = pol.CostModel(resource_cost_mode=pol.PROCESSING_SCALED, processing_scale_factor=0.5)
        got = pol.compute_batch_cost(3, [3600.0, 7200.0, 10800.0], 0, 0.0, c)
        assert got == pytest.approx(3600.0, abs=1e-9)

    def test_variable_cost_interpolates_and_extrapolates_flat(self):
        c = pol.CostModel(variable_cost=((2, 10.0), (4, 20.0), (8, 24.0)))
        assert c.variable_at(1) == 10.0  # below table: flat
        assert c.variable_at(2) == 10.0
        assert c.variable_at(3) == 15.0  # linear between 2 and 4
        assert c.variable_at(6) == 22.0
        assert c.variable_at(8) == 24.0
        assert c.variable_at(50) == 24.0  # beyond table: flat

    def test_variable_cost_against_numpy_interp(self):
        import numpy as np

        table = ((1, 3.0), (3, 9.0), (7, 11.0), (10, 30.0))
        c = pol.CostModel(variable_cost=table)
        xs = [s for s, _ in table]
        ys = [m for _, m in table]
        for size in range(1, 15):
            assert c.variable_at(size) == pytest.approx(float(np.interp(size, xs, ys)))

    def test_fixed_cost_additivity(self):
        base = pol.CostModel(fixed_cost=0.0)
        bumped = pol.CostModel(fixed_cost=7.5)
        a = pol.compute_batch_cost(2, [10.0, 20.0], 30, 1.0, base)
        b = pol.compute_batch_cost(2, [10.0, 20.0], 30, 1.0, bumped)
        assert b - a == pytest.approx(7.5)

    def test_bad_tables_rejected(self):
        with pytest.raises(pol.PolicyError):
            pol.CostModel(variable_cost=((3, 1.0), (3, 2.0)))
        with pytest.raises(pol.PolicyError):
            pol.CostModel(variable_cost=((0, 1.0),))
        with pytest.raises(pol.PolicyError):
            pol.CostModel(fixed_cost=-1)


class TestPolicyDocuments:
    def make_set(self):
        return pol.policy_set(
            pol.BatchingPolicy(
                activity_id="a",
                batch_type=pol.PARALLEL,
                rule=pol.rule(
                    [pol.size_at_least(3), pol.in_hours(8, 9)],
                    [pol.wait_first_at_least(2 * H), pol.on_days(0, 4)],
                ),
                cost=pol.CostModel(fixed_cost=4.0, variable_cost=((1, 1.0), (5, 3.0))),
            ),
            pol.BatchingPolicy(
                activity_id="b",
                batch_type=pol.SEQUENTIAL,
                rule=pol.ActivationRule(),
                cost=pol.CostModel(resource_cost_mode=pol.PROCESSING_SCALED),
            ),
        )

    def test_round_trip(self):
        ps = self.make_set()
        doc = pol.serialize_policies(ps)
        assert pol.parse_policies(doc) == ps
        assert pol.parse_policies(json.dumps(doc)) == ps

    def test_parse_rejects_bad_condition(self):
        from batchopt.model import ParseError

        doc = pol.serialize_policies(self.make_set())
        doc["policies"][0]["rule"][0][0] = {"kind": "size", "threshold": 0}
        with pytest.raises(ParseError) as err:
            pol.parse_policies(doc)
        assert "rule[0][0]" in str(err.value)

    def test_parse_rejects_duplicate_activity(self):
        from batchopt.model import ParseError

        doc = pol.serialize_policies(self.make_set())
        doc["policies"].append(doc["policies"][0])
        with pytest.raises(ParseError):
            pol.parse_policies(doc)
