"""Value semantics of the slotted records, and what importing the CLI loads."""

import math
import subprocess
import sys
from pathlib import Path

import pytest

from batchopt import policy as pol
from batchopt.analytics import AnalyticsError, ScenarioInstance
from batchopt.calendars import Calendar, Interval
from batchopt.engine import SimConfig, SimulationError
from batchopt.interventions import InterventionError, PolicyDelta
from batchopt.metrics import FrontPointSet, MetricsError
from batchopt.optimize import OptimizerConfig
from batchopt.pareto import ParetoError, ParetoFront, Solution
from batchopt.records import Config

SRC = str(Path(__file__).resolve().parent.parent / "src")

STARTUP_PROBE = """
import sys
import batchopt.cli
print(sorted(name for name in ("dataclasses", "inspect", "statistics") if name in sys.modules))
"""


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect_nor_statistics():
    # the probe itself imports nothing but `sys` before the CLI
    out = subprocess.run(
        [sys.executable, "-c", STARTUP_PROBE],
        env={"PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.splitlines() == ["[]"]


def policy_set(size=2, wait=60.0, fixed_cost=1.0, batch_type=pol.PARALLEL, reverse=False):
    items = [
        ("a", pol.BatchingPolicy("a", batch_type, pol.rule([pol.size_at_least(size)]),
                                 pol.CostModel(fixed_cost=fixed_cost))),
        ("b", pol.BatchingPolicy("b", pol.SEQUENTIAL, pol.rule([pol.wait_last_at_least(wait)]))),
    ]
    return dict(reversed(items) if reverse else items)


class TestPolicySetKey:
    def test_equal_sets_share_a_key_in_any_insertion_order(self):
        a, b = policy_set(), policy_set(reverse=True)
        assert list(a) != list(b)
        assert pol.policy_set_key(a) == pol.policy_set_key(b)
        assert hash(pol.policy_set_key(a)) == hash(pol.policy_set_key(b))
        assert {pol.policy_set_key(a): 1}[pol.policy_set_key(b)] == 1

    @pytest.mark.parametrize(
        "change",
        [{"size": 3}, {"wait": 61.0}, {"fixed_cost": 2.0}, {"batch_type": pol.SEQUENTIAL}],
        ids=["condition", "other-policy-condition", "cost", "batch-type"],
    )
    def test_one_differing_field_gives_another_key(self, change):
        assert pol.policy_set_key(policy_set(**change)) != pol.policy_set_key(policy_set())


class TestEquality:
    def test_records_never_equal_a_tuple_of_their_fields(self):
        condition = pol.size_at_least(2)
        assert condition != ("size", 2.0, (), ())
        policy = policy_set()["a"]
        assert policy != (policy.activity_id, policy.batch_type, policy.rule, policy.cost)
        assert policy == policy_set()["a"]

    def test_calendars_compare_by_intervals_alone(self):
        day = (Interval(0, 0, 3600),)
        split = (Interval(0, 0, 1800), Interval(0, 1800, 3600))
        assert Calendar(day) == Calendar(day)
        assert hash(Calendar(day)) == hash(Calendar(day))
        # the same open span, spelled by other intervals
        assert Calendar(split)._spans == Calendar(day)._spans
        assert Calendar(split) != Calendar(day)

    def test_repr_names_each_field(self):
        assert repr(pol.size_at_least(2)) == "Condition(kind='size', threshold=2.0, hours=(), days=())"
        assert repr(Calendar((Interval(0, 0, 60),))) == (
            "Calendar(intervals=(Interval(weekday=0, start=0, end=60),))"
        )

    def test_a_front_has_the_length_of_its_solutions(self):
        front = ParetoFront((Solution({}, (1.0, 2.0)), Solution({}, (2.0, 1.0))))
        assert len(front) == 2
        assert len(ParetoFront()) == 0


@pytest.mark.parametrize(
    "make, error, message",
    [
        (lambda: pol.Condition("bogus"), pol.PolicyError, "unknown condition kind 'bogus'"),
        (lambda: pol.Condition(pol.SIZE, threshold=math.nan), pol.PolicyError,
         "size threshold must be finite, got nan"),
        (lambda: pol.Condition(pol.SIZE, threshold=0.0), pol.PolicyError,
         "size threshold must be an integer >= 1, got 0.0"),
        (lambda: pol.size_at_least(2)._replace(threshold=1.5), pol.PolicyError,
         "size threshold must be an integer >= 1, got 1.5"),
        (lambda: pol.Condition(pol.DAILY_HOUR, hours=(24,)), pol.PolicyError,
         "daily-hour values out of range: (24,)"),
        (lambda: pol.ConditionGroup((pol.size_at_least(1), pol.size_at_least(2))),
         pol.PolicyError, "condition kind repeated within a group: ['size', 'size']"),
        (lambda: pol.ConditionGroup(()), pol.PolicyError, "a condition group cannot be empty"),
        (lambda: pol.CostModel(fixed_cost=-1.0, resource_cost_mode="x"), pol.PolicyError,
         "fixed cost must be >= 0"),
        (lambda: pol.CostModel(variable_cost=((2, 1.0), (2, 3.0))), pol.PolicyError,
         "variable cost sizes must be strictly increasing"),
        (lambda: pol.BatchingPolicy("a", "serial", pol.ActivationRule()), pol.PolicyError,
         "unknown batch type 'serial'"),
        (lambda: Solution({}, (-1.0, 2.0)), ParetoError,
         "objective point must be finite and >= 0, got (-1.0, 2.0)"),
        (lambda: ParetoFront((Solution({}, (2.0, 1.0)), Solution({}, (1.0, 2.0)))), ParetoError,
         "front must be sorted by cycle time ascending"),
        (lambda: ParetoFront((Solution({}, (1.0, 1.0)), Solution({}, (2.0, 2.0)))), ParetoError,
         "front members must be mutually non-dominated: (1.0, 1.0) vs (2.0, 2.0)"),
        (lambda: PolicyDelta("a", "bogus"), InterventionError, "unknown delta kind 'bogus'"),
        (lambda: ScenarioInstance(20, "a"), AnalyticsError, "unknown scenario id 20"),
        (lambda: FrontPointSet(((-1.0, 0.0),), "run"), MetricsError,
         "negative point (-1.0, 0.0) in 'run'"),
    ],
    ids=[
        "condition-kind", "condition-nan-first", "condition-size", "condition-replace",
        "condition-hours", "group-repeated", "group-empty", "cost-fixed-first",
        "cost-sizes", "policy-batch-type", "solution-negative", "front-unsorted",
        "front-dominated", "delta-kind", "scenario-id", "point-set-negative",
    ],
)
def test_each_record_checks_its_fields_with_its_own_error(make, error, message):
    with pytest.raises(error) as caught:
        make()
    assert type(caught.value) is error
    assert str(caught.value) == message


class Window(Config):
    """A config with a required field, checked as the five configs are."""

    start: int
    length: float = 1.0
    label: str | None = None

    def _check(self) -> None:
        if self.length <= 0:
            raise ValueError(f"length must be positive, got {self.length}")


class TestConfig:
    def test_fields_come_from_the_annotations_in_order_with_their_defaults(self):
        assert Window._fields == ("start", "length", "label")
        assert Window._kinds == {"start": "int", "length": "float", "label": "str | None"}
        assert Window._defaults == {"length": 1.0, "label": None}

    def test_fields_are_taken_by_position_or_keyword(self):
        assert Window(3) == Window(start=3) == Window(3, 1.0, None)
        assert Window(3, label="x").label == "x"
        assert repr(Window(3, 2)) == "Window(start=3, length=2, label=None)"

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: Window(), "missing required argument 'start'"),
            (lambda: Window(1, width=2), "unexpected keyword argument 'width'"),
            (lambda: Window(1, 2.0, None, 4), "takes at most 3 positional arguments, got 4"),
            (lambda: Window(1, start=2), "multiple values for 'start'"),
        ],
        ids=["missing", "unknown", "too-many", "twice"],
    )
    def test_a_call_that_does_not_name_each_field_once_is_a_type_error(self, make, message):
        with pytest.raises(TypeError, match=message):
            make()

    def test_replace_runs_the_checks_again(self):
        window = Window(1)
        assert window._replace(length=2.5) == Window(1, 2.5)
        assert window == Window(1)
        with pytest.raises(ValueError, match="length must be positive, got -1"):
            window._replace(length=-1)
        with pytest.raises(SimulationError, match="warmup must be >= 0"):
            SimConfig()._replace(warmup=-1)
        with pytest.raises(TypeError, match="unexpected keyword argument 'sed'"):
            SimConfig()._replace(sed=1)

    def test_a_config_is_frozen(self):
        config = SimConfig()
        with pytest.raises(AttributeError, match="cannot assign to field 'seed'"):
            config.seed = 1
        with pytest.raises(AttributeError, match="cannot delete field 'seed'"):
            del config.seed
        assert config.seed == 0

    def test_equality_and_hash_follow_the_fields_of_one_class(self):
        a, b = OptimizerConfig(seed=1), OptimizerConfig(seed=1)
        assert a == b and hash(a) == hash(b)
        assert {a: 1}[b] == 1
        assert a != OptimizerConfig(seed=2)
        assert a.sim != (0, None, 0, "full") and a.sim != Window(0)
        assert hash(a.sim) == hash((0, None, 0, "full"))
