import math

import pytest
from hypothesis import given, strategies as st

from batchopt import metrics as mx
from batchopt.engine import SamplePath, SimConfig, compile_model, simulate
from batchopt.eventlog import EventLog, case_cycle_time
from batchopt.fixtures import enumerate_oracle_front, get_fixture
from batchopt.model import parse_model
from batchopt.pareto import Solution
from batchopt.policy import (
    BatchingPolicy,
    CostModel,
    PARALLEL,
    in_hours,
    parse_policies,
    rule,
)

# integer-valued coordinates keep nearest-neighbour distances well away
# from the underflow range, so zero distance means equal sets exactly
coords = st.integers(min_value=0, max_value=10**6).map(float)
points = st.tuples(coords, coords)
point_sets = st.lists(points, min_size=1, max_size=8).map(lambda ps: tuple(sorted(set(ps))))


def front(*pts, label=""):
    return mx.FrontPointSet(tuple(pts), label=label)


class TestFrontPointSet:
    def test_rejects_nan(self):
        with pytest.raises(mx.MetricsError):
            front((float("nan"), 1.0))

    def test_rejects_negative(self):
        with pytest.raises(mx.MetricsError):
            front((1.0, -0.5))

    def test_len(self):
        assert len(front((1.0, 2.0), (3.0, 4.0))) == 2


class TestAveragedHausdorff:
    def test_single_point_pair(self):
        assert mx.averaged_hausdorff(front((0.0, 0.0)), front((3.0, 4.0))) == 5.0

    def test_asymmetric_pair(self):
        # one direction matches exactly, the other averages 0 and 5 in RMS
        a = front((0.0, 0.0))
        b = front((0.0, 0.0), (5.0, 0.0))
        expected = 0.5 * math.sqrt(12.5)
        assert mx.averaged_hausdorff(a, b) == pytest.approx(expected, abs=1e-12)
        assert abs(mx.averaged_hausdorff(a, b) - 1.7678) < 1e-4

    def test_equal_sets_zero(self):
        a = front((1.0, 2.0), (3.0, 1.0))
        assert mx.averaged_hausdorff(a, a) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(mx.MetricsError):
            mx.averaged_hausdorff(front((1.0, 1.0)), mx.FrontPointSet(()))

    def test_accepts_bare_sequences(self):
        assert mx.averaged_hausdorff([(0.0, 0.0)], [(3.0, 4.0)]) == 5.0

    @given(point_sets, point_sets)
    def test_symmetric(self, a, b):
        assert mx.averaged_hausdorff(a, b) == mx.averaged_hausdorff(b, a)

    @given(point_sets, point_sets)
    def test_zero_iff_set_equality(self, a, b):
        d = mx.averaged_hausdorff(a, b)
        if set(a) == set(b):
            assert d == 0.0
        else:
            assert d > 0.0


class TestPurity:
    def test_all_points_survive(self):
        ref = front((1.0, 2.0), (3.0, 1.0))
        assert mx.purity(front((1.0, 2.0), (3.0, 1.0)), ref) == 1.0

    def test_no_points_survive(self):
        ref = front((1.0, 2.0))
        assert mx.purity(front((5.0, 5.0)), ref) == 0.0

    def test_half_survive(self):
        ref = front((1.0, 2.0), (3.0, 1.0))
        assert mx.purity(front((1.0, 2.0), (9.0, 9.0)), ref) == 0.5

    def test_tolerance_window(self):
        ref = front((1.0, 2.0))
        inside = front((1.0 + 5e-10, 2.0))
        outside = front((1.0 + 1e-8, 2.0))
        assert mx.purity(inside, ref) == 1.0
        assert mx.purity(outside, ref) == 0.0

    def test_empty_approx_rejected(self):
        with pytest.raises(mx.MetricsError):
            mx.purity(mx.FrontPointSet(()), front((1.0, 1.0)))


class TestReferenceFront:
    def test_dominated_points_filtered(self):
        runs = [front((1.0, 5.0), (3.0, 3.0)), front((2.0, 2.0))]
        ref = mx.build_reference_front(runs)
        assert ref.points == ((1.0, 5.0), (2.0, 2.0))

    def test_duplicates_collapse(self):
        runs = [front((1.0, 1.0)), front((1.0, 1.0))]
        assert mx.build_reference_front(runs).points == ((1.0, 1.0),)

    def test_idempotent(self):
        runs = [front((1.0, 5.0), (4.0, 1.0)), front((2.0, 3.0))]
        once = mx.build_reference_front(runs)
        twice = mx.build_reference_front([once])
        assert once.points == twice.points

    def test_order_independent(self):
        runs = [front((1.0, 5.0)), front((2.0, 2.0)), front((0.5, 9.0))]
        forward = mx.build_reference_front(runs)
        backward = mx.build_reference_front(list(reversed(runs)))
        assert forward.points == backward.points

    def test_empty_rejected(self):
        with pytest.raises(mx.MetricsError):
            mx.build_reference_front([])

    def test_label(self):
        ref = mx.build_reference_front([front((1.0, 1.0))], label="joint")
        assert ref.label == "joint"


class TestWeaklyDominates:
    def test_equal_and_better_points_cover(self):
        covering = front((1.0, 5.0), (3.0, 2.0))
        assert mx.weakly_dominates(covering, front((1.0, 5.0), (4.0, 2.0)))

    def test_one_uncovered_point_fails(self):
        covering = front((1.0, 5.0), (3.0, 2.0))
        assert not mx.weakly_dominates(covering, front((1.0, 5.0), (2.0, 3.0)))

    def test_each_point_needs_one_cover_on_both_axes(self):
        # (2, 2) is beaten on cost by one point and on cycle time by the other
        assert not mx.weakly_dominates(front((1.0, 5.0), (5.0, 1.0)), front((2.0, 2.0)))

    def test_empty_covered_set_is_covered(self):
        assert mx.weakly_dominates(front((1.0, 1.0)), mx.FrontPointSet(()))

    def test_reflexive(self):
        run = front((1.0, 5.0), (3.0, 2.0))
        assert mx.weakly_dominates(run, run)


class TestMetricsTable:
    def test_row_fields(self):
        ref = front((1.0, 1.0), label="reference")
        row = mx.metrics_row(front((1.0, 1.0), label="run"), ref)
        assert row == {
            "label": "run",
            "points": 1,
            "hausdorff": 0.0,
            "purity": 1.0,
            "gain": None,
        }

    def test_csv_gain_cell_empty_when_missing(self):
        ref = front((1.0, 1.0))
        rows = [mx.metrics_row(front((1.0, 1.0), label="a"), ref)]
        text = mx.render_metrics_csv(rows)
        assert text.splitlines()[0] == mx.METRICS_CSV_HEADER
        assert text.splitlines()[1] == "a,1,0.0,1.0,"

    def test_csv_gain_cell_filled(self):
        ref = front((1.0, 1.0))
        rows = [mx.metrics_row(front((1.0, 1.0), label="a"), ref, gain=3600.0)]
        text = mx.render_metrics_csv(rows)
        assert text.rstrip("\n").splitlines()[-1] == "a,1,0.0,1.0,3600.0"


# -- cycle time gain ----------------------------------------------------------
#
# A two-step chain where the review step fires on a daily-hour schedule:
# moving the hour moves every case's completion by exactly that many
# hours, so the expected gains are exact integers.


def _chain_doc() -> dict:
    doc = get_fixture("upstream-first-waits").model_doc  # intake -> review
    doc["activities"][1]["fixedCostPerExecution"] = 2.0
    doc["arrival"]["interArrival"]["value"] = 86400.0
    doc["arrival"]["totalCases"] = 3
    doc["arrival"]["calendar"] = [
        {"weekday": day, "start": "06:00", "end": "06:30"}
        for day in ("Monday", "Tuesday", "Wednesday")
    ]
    return doc


def _schedule_policies(hour: int):
    return {
        "review": BatchingPolicy(
            "review", PARALLEL, rule([in_hours(hour)]), CostModel(fixed_cost=2.0)
        )
    }


def _solution(hour: int) -> Solution:
    return Solution(policies=_schedule_policies(hour), point=(0.0, 0.0))


class TestCycleTimeGain:
    def setup_method(self):
        self.model = parse_model(_chain_doc())
        self.config = SimConfig(seed=0)
        self.initial = simulate(self.model, _schedule_policies(8), self.config)

    def test_initial_only_is_zero(self):
        gain = mx.cycle_time_gain(
            self.initial.log, [_solution(8)], self.model, self.config
        )
        assert gain == 0.0

    def test_one_hour_faster_everywhere(self):
        gain = mx.cycle_time_gain(
            self.initial.log, [_solution(7)], self.model, self.config
        )
        assert gain == 3600.0

    def test_negative_when_all_solutions_slower(self):
        gain = mx.cycle_time_gain(
            self.initial.log, [_solution(9)], self.model, self.config
        )
        assert gain == -3600.0

    def test_best_of_many(self):
        gain = mx.cycle_time_gain(
            self.initial.log,
            [_solution(9), _solution(7), _solution(8)],
            self.model,
            self.config,
        )
        assert gain == 3600.0

    def test_mean_case_cycle_time_matches_hand_value(self):
        # intake starts 06:00, review runs 08:00-08:10: 2h10m per case
        assert mx.mean_case_cycle_time(self.initial.log) == 2 * 3600 + 600

    def test_no_solutions_rejected(self):
        with pytest.raises(mx.MetricsError):
            mx.cycle_time_gain(self.initial.log, [], self.model, self.config)

    def test_warmup_config_respected(self):
        # dropping the first case leaves the per-case time unchanged here,
        # so the gain stays exact under a warmup window
        config = SimConfig(seed=0, warmup=1)
        gain = mx.cycle_time_gain(
            self.initial.log, [_solution(7)], self.model, config
        )
        assert gain == 3600.0


    def test_memo_simulates_each_distinct_policy_set_once(self, monkeypatch):
        fronts = [
            [_solution(7), _solution(8)],
            [_solution(9), _solution(7)],
        ]
        plain = [
            mx.cycle_time_gain(self.initial.log, f, self.model, self.config) for f in fronts
        ]
        simulated = []

        def spy(model, policies, config, path=None):
            simulated.append(mx.policy_set_key(policies))
            return simulate(model, policies, config, path)

        monkeypatch.setattr(mx, "simulate", spy)
        # seeded with the initial run, as `batchopt evaluate` does
        memo = {
            mx.policy_set_key(_schedule_policies(8)): mx.mean_case_cycle_time(self.initial.log)
        }
        gains = [
            mx.cycle_time_gain(self.initial.log, f, self.model, self.config, memo)
            for f in fronts
        ]
        assert gains == plain == [3600.0, 3600.0]
        keys = [mx.policy_set_key(_schedule_policies(h)) for h in (7, 9)]
        assert simulated == keys
        assert set(memo) == set(keys) | {mx.policy_set_key(_schedule_policies(8))}


@pytest.mark.parametrize("name", ["busy-step", "stray-branch"])
def test_gain_is_the_same_with_and_without_a_shared_path(name):
    fixture = get_fixture(name)
    model, config = fixture.model(), fixture.sim_config()
    compiled = compile_model(model)
    solutions = enumerate_oracle_front(fixture).solutions
    assert len(solutions) >= 2
    # shared: the initial run fills the path, as `batchopt evaluate` does
    path = SamplePath()
    initial = simulate(compiled, fixture.policies(), config, path)
    shared = mx.cycle_time_gain(initial.log, solutions, compiled, config, path=path)
    assert path.draws  # both fixtures branch at random
    own = mx.cycle_time_gain(initial.log, solutions, compiled, config)
    # no path at all: every solution drawn afresh
    fresh = mx.mean_case_cycle_time(initial.log) - min(
        mx.mean_case_cycle_time(simulate(model, s.policies, config).log) for s in solutions
    )
    assert shared == own == fresh


class TestMeanCaseCycleTime:
    def test_empty_log_rejected(self):
        with pytest.raises(mx.MetricsError):
            mx.mean_case_cycle_time(EventLog(instances=(), batches=()))

    def test_agrees_with_per_case_cycle_times(self):
        fixture = get_fixture("busy-step")
        log, _ = simulate(
            parse_model(fixture.model_doc),
            parse_policies(fixture.policies_doc),
            SimConfig(seed=3, total_cases=200),
        )
        ids = sorted({r.case_id for r in log.instances})
        per_case = [case_cycle_time(log, c) for c in ids]
        assert mx.mean_case_cycle_time(log) == sum(per_case) / len(ids)
