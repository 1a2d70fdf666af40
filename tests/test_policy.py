import json
import math

import pytest
from hypothesis import given, strategies as st

from batchopt import policy as pol
from batchopt.calendars import SECONDS_PER_DAY, SECONDS_PER_HOUR
from batchopt.codec import check_fields
from batchopt.records import Config

H = SECONDS_PER_HOUR


def state(*enable_times):
    """The engine's view of a waiting list given by its enable times."""
    if not enable_times:
        return pol.BatchState(0, 0, 0)
    return pol.BatchState(len(enable_times), enable_times[0], enable_times[-1])


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


# brute-force oracle over the full waiting list: evaluate each condition
# into a truth table first, then fold the DNF explicitly
def _oracle(rule_obj, w, now):
    any_group = False
    for group in rule_obj.groups:
        table = []
        for c in group.conditions:
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
    assert pol.evaluate_activation_rule(r, state(*enables), now) == _oracle(r, enables, now)


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
        def interp(x, xs, ys):
            # np.interp: flat outside the table, linear between its points
            if x <= xs[0]:
                return ys[0]
            for x0, x1, y0, y1 in zip(xs, xs[1:], ys, ys[1:]):
                if x <= x1:
                    return y0 + (y1 - y0) * (x - x0) / (x1 - x0)
            return ys[-1]

        table = ((1, 3.0), (3, 9.0), (7, 11.0), (10, 30.0))
        c = pol.CostModel(variable_cost=table)
        xs = [s for s, _ in table]
        ys = [m for _, m in table]
        for size in range(1, 15):
            assert c.variable_at(size) == pytest.approx(interp(size, xs, ys))

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
        for value in (math.nan, math.inf, -math.inf):
            for fields in (
                {"fixed_cost": value},
                {"processing_scale_factor": value},
                {"variable_cost": ((1, value),)},
            ):
                with pytest.raises(pol.PolicyError, match="finite"):
                    pol.CostModel(**fields)


class TestPolicyDocuments:
    def make_set(self):
        return {
            "a": pol.BatchingPolicy(
                activity_id="a",
                batch_type=pol.PARALLEL,
                rule=pol.rule(
                    [pol.size_at_least(3), pol.in_hours(8, 9)],
                    [pol.wait_first_at_least(2 * H), pol.on_days(0, 4)],
                ),
                cost=pol.CostModel(fixed_cost=4.0, variable_cost=((1, 1.0), (5, 3.0))),
            ),
            "b": pol.BatchingPolicy(
                activity_id="b",
                batch_type=pol.SEQUENTIAL,
                rule=pol.ActivationRule(),
                cost=pol.CostModel(resource_cost_mode=pol.PROCESSING_SCALED),
            ),
        }

    def test_round_trip(self):
        ps = self.make_set()
        doc = pol.serialize_policies(ps)
        assert pol.parse_policies(doc) == ps
        assert pol.parse_policies(json.loads(json.dumps(doc))) == ps

    def test_parse_rejects_bad_condition(self):
        from batchopt.model import ParseError

        doc = pol.serialize_policies(self.make_set())
        doc["policies"][0]["rule"][0][0] = {"kind": "size", "threshold": 0}
        with pytest.raises(ParseError) as err:
            pol.parse_policies(doc)
        assert "rule[0][0]" in str(err.value)

    @pytest.mark.parametrize(
        "condition",
        [
            {"kind": "daily-hour", "hours": "12"},
            {"kind": "daily-hour", "hours": 12},
            {"kind": "week-day", "days": "Monday"},
            {"kind": "week-day", "days": {"Monday": 1}},
            {"kind": "week-day", "days": [0]},
            {"kind": "daily-hour", "hours": [9, 10.0]},
            {"kind": "daily-hour", "hours": [9, "10"]},
            {"kind": "daily-hour", "hours": [False]},
            {"kind": "size", "threshold": "5"},
            {"kind": "wt-first", "threshold": True},
            {"kind": "wt-last", "threshold": None},
            {"kind": "wt-last", "threshold": 10**400},
        ],
    )
    def test_parse_rejects_mistyped_condition_fields(self, condition):
        from batchopt.model import ParseError

        doc = pol.serialize_policies(self.make_set())
        doc["policies"][0]["rule"][0][0] = condition
        with pytest.raises(ParseError) as err:
            pol.parse_policies(doc)
        assert "rule[0][0]" in str(err.value)

    @pytest.mark.parametrize(
        "where, key, path",
        [
            ("top", "polices", "$.polices"),
            ("policy", "costs", "$.policies[0].costs"),
            ("condition", "treshold", "$.policies[0].rule[0][0].treshold"),
            ("cost", "fixdCost", "$.policies[0].cost.fixdCost"),
        ],
    )
    def test_parse_rejects_unknown_keys(self, where, key, path):
        from batchopt.model import ParseError

        doc = pol.serialize_policies(self.make_set())
        target = {
            "top": doc,
            "policy": doc["policies"][0],
            "condition": doc["policies"][0]["rule"][0][0],
            "cost": doc["policies"][0]["cost"],
        }[where]
        target[key] = 5
        with pytest.raises(ParseError) as err:
            pol.parse_policies(doc)
        assert err.value.path == path
        assert "unknown key" in str(err.value)

    @pytest.mark.parametrize("activity", [5, ["ticket"], None])
    def test_parse_rejects_a_non_string_activity(self, activity):
        from batchopt.model import ParseError

        doc = pol.serialize_policies(self.make_set())
        doc["policies"][0]["activity"] = activity
        with pytest.raises(ParseError) as err:
            pol.parse_policies(doc)
        assert err.value.path == "$.policies[0].activity"

    def test_parse_rejects_duplicate_activity(self):
        from batchopt.model import ParseError

        doc = pol.serialize_policies(self.make_set())
        doc["policies"].append(doc["policies"][0])
        with pytest.raises(ParseError):
            pol.parse_policies(doc)

    @pytest.mark.parametrize(
        "cost",
        [
            {"fixedCost": "5"},
            {"fixedCost": True},
            {"fixedCost": None},
            {"processingScaleFactor": "1"},
            {"processingScaleFactor": 10**400},
            {"variableCost": [[1.5, 2.0]]},
            {"variableCost": [[True, 2.0]]},
            {"variableCost": [[1, True]]},
            {"variableCost": [[1, "2"]]},
            {"variableCost": [[1, 2.0, 3.0]]},
            {"variableCost": [(1, 2.0)]},
            {"variableCost": "1,2"},
            {"resourceCostMode": 5},
        ],
    )
    def test_parse_rejects_mistyped_cost_fields(self, cost):
        from batchopt.model import ParseError

        doc = pol.serialize_policies(self.make_set())
        doc["policies"][0]["cost"].update(cost)
        with pytest.raises(ParseError) as err:
            pol.parse_policies(doc)
        assert "$.policies[0].cost" in str(err.value)

    def test_parse_keeps_integer_cost_amounts_exact(self):
        doc = pol.serialize_policies(self.make_set())
        doc["policies"][0]["cost"] = {"fixedCost": 4, "variableCost": [[1, 1], [5, 3]]}
        assert pol.parse_policies(doc) == self.make_set()


def test_policy_set_key_ignores_insertion_order():
    a = pol.BatchingPolicy("a", pol.PARALLEL, pol.rule([pol.size_at_least(2)]))
    b = pol.BatchingPolicy("b", pol.SEQUENTIAL, pol.rule([pol.wait_last_at_least(60.0)]))
    assert pol.policy_set_key({"a": a, "b": b}) == pol.policy_set_key({"b": b, "a": a})
    assert pol.policy_set_key({"a": a}) != pol.policy_set_key({"a": a, "b": b})


class TestCheckFields:
    """`check_fields` reads each field's annotation, written as a string
    (`from __future__ import annotations`) or as the type itself, from the
    field table that `records.Config` builds when the class is created."""

    @staticmethod
    def make(n="int", x="float", flag="bool", cap="int | None", name="str"):
        annotations = {"n": n, "x": x, "flag": flag, "cap": cap, "name": name}
        return type("Settings", (Config,), {"__annotations__": annotations})

    @pytest.mark.parametrize("types", [{}, {"n": int, "x": float, "flag": bool,
                                            "cap": int | None, "name": str}],
                             ids=["string", "type"])
    @pytest.mark.parametrize(
        "values, message",
        [
            ((1, 0.5, True, None, "a"), None),
            ((1, 2, False, 3, "b"), None),
            ((1.0, 0.5, True, None, "a"), "n must be an integer"),
            ((True, 0.5, True, None, "a"), "n must be an integer"),
            ((1, "0.5", True, None, "a"), "x must be a finite number"),
            ((1, math.inf, True, None, "a"), "x must be a finite number"),
            ((1, 0.5, 1, None, "a"), "flag must be true or false"),
            ((1, 0.5, True, 2.5, "a"), "cap must be an integer"),
            ((1, 0.5, True, None, 5), "name must be a string"),
        ],
    )
    def test_annotation_decides_the_check(self, types, values, message):
        config = self.make(**types)(*values)
        if message is None:
            check_fields(config, ValueError)
        else:
            with pytest.raises(ValueError, match=message):
                check_fields(config, ValueError)
