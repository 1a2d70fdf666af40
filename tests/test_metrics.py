import math

import pytest
from hypothesis import given, strategies as st

from batchopt import metrics as mx
from batchopt.engine import SimConfig, compile_model, simulate
from batchopt.eventlog import EventLog, case_cycle_time
from batchopt.fixtures import enumerate_oracle_front, get_fixture
from batchopt.model import parse_model
from batchopt.pareto import ParetoFront, Solution
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

    def gain(self, solutions, config=None):
        cycle_times = mx.CycleTimes(self.model, config or self.config)
        baseline = cycle_times.mean(_schedule_policies(8))
        return mx.cycle_time_gain(baseline, solutions, cycle_times)

    def test_initial_only_is_zero(self):
        assert self.gain([_solution(8)]) == 0.0

    def test_one_hour_faster_everywhere(self):
        assert self.gain([_solution(7)]) == 3600.0

    def test_negative_when_all_solutions_slower(self):
        assert self.gain([_solution(9)]) == -3600.0

    def test_best_of_many(self):
        assert self.gain([_solution(9), _solution(7), _solution(8)]) == 3600.0

    def test_mean_case_cycle_time_matches_hand_value(self):
        # intake starts 06:00, review runs 08:00-08:10: 2h10m per case
        assert mx.mean_case_cycle_time(self.initial.log) == 2 * 3600 + 600

    def test_no_solutions_rejected(self):
        with pytest.raises(mx.MetricsError):
            self.gain([])

    def test_warmup_config_respected(self):
        # dropping the first case leaves the per-case time unchanged here,
        # so the gain stays exact under a warmup window
        assert self.gain([_solution(7)], SimConfig(seed=0, warmup=1)) == 3600.0

    def test_memo_simulates_each_distinct_policy_set_once(self, monkeypatch):
        fronts = [
            [_solution(7), _solution(8)],
            [_solution(9), _solution(7)],
        ]
        plain = [self.gain(f) for f in fronts]
        simulated = []

        def spy(model, policies, config, path=None):
            simulated.append(mx.policy_set_key(policies))
            return simulate(model, policies, config, path)

        monkeypatch.setattr(mx, "simulate", spy)
        # one baseline and one CycleTimes for every front, as `batchopt evaluate` does
        cycle_times = mx.CycleTimes(self.model, self.config)
        baseline = cycle_times.mean(_schedule_policies(8))
        gains = [mx.cycle_time_gain(baseline, f, cycle_times) for f in fronts]
        assert gains == plain == [3600.0, 3600.0]
        keys = [mx.policy_set_key(_schedule_policies(h)) for h in (8, 7, 9)]
        assert simulated == keys
        assert set(cycle_times.memo) == set(keys)


@pytest.mark.parametrize("name", ["busy-step", "stray-branch"])
def test_gain_is_the_same_with_and_without_a_shared_path(name):
    fixture = get_fixture(name)
    model, config = fixture.model(), fixture.sim_config()
    compiled = compile_model(model)
    solutions = enumerate_oracle_front(fixture).solutions
    assert len(solutions) >= 2
    # the initial run fills the path, as `batchopt evaluate` does
    shared = mx.CycleTimes(compiled, config)
    baseline = shared.mean(fixture.policies())
    gain = mx.cycle_time_gain(baseline, solutions, shared)
    assert shared.path.draws  # both fixtures branch at random
    # the first solution fills it
    initial = simulate(model, fixture.policies(), config)
    own = mx.cycle_time_gain(
        mx.mean_case_cycle_time(initial.log), solutions, mx.CycleTimes(compiled, config)
    )
    # no path at all: every solution drawn afresh
    fresh = mx.mean_case_cycle_time(initial.log) - min(
        mx.mean_case_cycle_time(simulate(model, s.policies, config).log) for s in solutions
    )
    assert gain == own == fresh


def _pareto(*entries) -> ParetoFront:
    """A front of (schedule hour, point) solutions."""
    return ParetoFront(tuple(Solution(_schedule_policies(h), p) for h, p in entries))


class TestCompareFronts:
    def test_reference_keeps_the_first_solution_of_each_point(self):
        a = _pareto((7, (1.0, 5.0)), (8, (3.0, 2.0)))
        b = _pareto((9, (1.0, 5.0)), (10, (2.0, 2.0)))
        reference, rows, covered = mx.compare_fronts([("a", a), ("b", b)])
        assert reference.points == ((1.0, 5.0), (2.0, 2.0))
        assert [s.policies for s in reference.solutions] == [
            _schedule_policies(7),
            _schedule_policies(10),
        ]
        assert [(r["label"], r["points"], r["purity"]) for r in rows] == [
            ("a", 2, 0.5),
            ("b", 2, 1.0),
        ]
        assert covered is None

    def test_rows_carry_the_given_gains(self):
        a = _pareto((7, (1.0, 5.0)))
        b = _pareto((8, (2.0, 2.0)))
        _, rows, _ = mx.compare_fronts([("a", a), ("b", b)], [60.0, -1.5])
        assert [r["gain"] for r in rows] == [60.0, -1.5]
        _, rows, _ = mx.compare_fronts([("a", a), ("b", b)])
        assert [r["gain"] for r in rows] == [None, None]

    def test_arms_pool_by_label_suffix(self):
        fronts = [
            ("hc+", _pareto((7, (1.0, 5.0)), (8, (3.0, 2.0)))),
            ("other", _pareto((9, (0.5, 9.0)))),
            ("hc-", _pareto((10, (1.0, 5.0)), (11, (4.0, 2.0)))),
            ("sa+", _pareto((12, (2.0, 3.0)))),
        ]
        reference, rows, covered = mx.compare_fronts(fronts)
        assert [r["label"] for r in rows] == ["hc+", "other", "hc-", "sa+", "++", "--"]
        plus = mx.build_reference_front(
            [mx.FrontPointSet(f.points) for label, f in fronts if label.endswith("+")], "++"
        )
        assert rows[4] == mx.metrics_row(plus, mx.FrontPointSet(reference.points))
        assert rows[4]["points"] == 3 and rows[5]["points"] == 2
        assert covered is True
        swapped = [(label.translate(str.maketrans("+-", "-+")), f) for label, f in fronts]
        assert mx.compare_fronts(swapped)[2] is False


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
