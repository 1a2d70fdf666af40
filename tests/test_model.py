import math

import pytest

from batchopt import model as m
from batchopt.calendars import Calendar, Interval


def tiny_model_doc():
    return {
        "startNode": "a",
        "endNodes": ["a"],
        "activities": [
            {
                "id": "a",
                "name": "Task A",
                "duration": {"kind": "fixed", "value": 3600},
                "resources": ["r1"],
                "fixedCostPerExecution": 2.0,
            }
        ],
        "gateways": [],
        "arcs": [],
        "resources": [
            {
                "id": "r1",
                "costPerTimeUnit": 0.0,
                "calendar": [{"weekday": "Monday", "start": "00:00", "end": "24:00"}],
            }
        ],
        "arrival": {
            "interArrival": {"kind": "fixed", "value": 1800},
            "calendar": [{"weekday": "Monday", "start": "00:00", "end": "24:00"}],
            "totalCases": 5,
        },
    }


def branching_model_doc():
    def act(aid):
        return {
            "id": aid,
            "duration": {"kind": "fixed", "value": 600},
            "resources": ["r1"],
        }

    return {
        "startNode": "a",
        "endNodes": ["d"],
        "activities": [act("a"), act("b"), act("c"), act("d")],
        "gateways": [
            {
                "id": "split",
                "kind": "xor-split",
                "branchProbabilities": {"split->b": 0.5, "split->c": 0.5},
            },
            {"id": "join", "kind": "xor-join"},
        ],
        "arcs": [
            {"source": "a", "target": "split"},
            {"source": "split", "target": "b"},
            {"source": "split", "target": "c"},
            {"source": "b", "target": "join"},
            {"source": "c", "target": "join"},
            {"source": "join", "target": "d"},
        ],
        "resources": [
            {
                "id": "r1",
                "calendar": [
                    {"weekday": d, "start": "00:00", "end": "24:00"}
                    for d in ("Monday", "Tuesday", "Wednesday", "Thursday", "Friday", "Saturday", "Sunday")
                ],
            }
        ],
        "arrival": {
            "interArrival": {"kind": "exponential", "mean": 1200},
            "calendar": [{"weekday": "Monday", "start": "08:00", "end": "12:00"}],
            "totalCases": 20,
        },
    }


def test_parse_reports_path_of_bad_field():
    doc = tiny_model_doc()
    del doc["activities"][0]["duration"]
    with pytest.raises(m.ParseError) as err:
        m.parse_model(doc)
    assert "$.activities[0].duration" in str(err.value)

    doc = tiny_model_doc()
    doc["arrival"]["interArrival"]["kind"] = "zeta"
    with pytest.raises(m.ParseError) as err:
        m.parse_model(doc)
    assert "$.arrival.interArrival.kind" in str(err.value)


def test_validate_clean_model():
    assert m.validate_model(m.parse_model(branching_model_doc())) == []


def test_validate_catches_structural_problems():
    doc = branching_model_doc()
    doc["arcs"].append({"source": "b", "target": "ghost"})
    doc["gateways"][0]["branchProbabilities"]["split->b"] = 0.25  # sums to 0.75
    doc["activities"][1]["resources"] = ["nope"]
    parsed = m.parse_model(doc)
    violations = m.validate_model(parsed)
    text = "\n".join(violations)
    assert "ghost" in text
    assert "sum" in text
    assert "nope" in text
    assert violations == sorted(violations)


def test_validate_is_order_insensitive():
    doc = branching_model_doc()
    doc["activities"][0]["resources"] = ["nope"]
    doc["arcs"].append({"source": "split", "target": "ghost"})
    base = m.validate_model(m.parse_model(doc))
    doc2 = dict(doc)
    doc2["activities"] = list(reversed(doc["activities"]))
    doc2["resources"] = list(reversed(doc["resources"]))
    assert m.validate_model(m.parse_model(doc2)) == base


def test_validate_unreachable_and_dead_end():
    doc = branching_model_doc()
    doc["arcs"] = [a for a in doc["arcs"] if not (a["source"] == "join" and a["target"] == "d")]
    violations = m.validate_model(m.parse_model(doc))
    text = "\n".join(violations)
    assert "unreachable" in text  # d cannot be reached
    assert "no path to an end node" in text  # a, b, c cannot reach d


def test_validate_gateway_without_path_to_an_end():
    # the cases routed to `sink`, an and-split with no outgoing arc, would
    # end there unfinished
    doc = branching_model_doc()
    doc["endNodes"] = ["b"]
    doc["activities"] = doc["activities"][:2]
    doc["gateways"] = [
        {
            "id": "route",
            "kind": "xor-split",
            "branchProbabilities": {"route->b": 0.5, "route->sink": 0.5},
        },
        {"id": "sink", "kind": "and-split"},
    ]
    doc["arcs"] = [
        {"source": "a", "target": "route"},
        {"source": "route", "target": "b"},
        {"source": "route", "target": "sink"},
    ]
    assert m.validate_model(m.parse_model(doc)) == ["gateway 'sink' has no path to an end node"]


def looping_model_doc(redo):
    """a -> b, b -> c (the end) and b -> redo, where `redo` is the gateway
    `redo` (its id and kind given) with an arc back to b."""
    doc = branching_model_doc()
    doc["endNodes"] = ["c"]
    doc["activities"] = doc["activities"][:3]
    doc["gateways"] = [redo]
    doc["arcs"] = [
        {"source": "a", "target": "b"},
        {"source": "b", "target": "c"},
        {"source": "b", "target": "redo"},
        {"source": "redo", "target": "b"},
    ]
    return doc


CERTAIN_CYCLE = "lies on a cycle whose every arc is taken with certainty"


@pytest.mark.parametrize(
    "redo",
    [
        {"id": "redo", "kind": "xor-split", "branchProbabilities": {"redo->b": 1.0}},
        {"id": "redo", "kind": "or-split", "branchProbabilities": {"redo->b": 1.0}},
        {"id": "redo", "kind": "and-split"},
    ],
    ids=["xor-split", "or-split", "and-split"],
)
def test_validate_cycle_taken_with_certainty(redo):
    # each visit of b sends one token to the end c and one round the loop
    # for certain, so a case would make events for ever
    violations = m.validate_model(m.parse_model(looping_model_doc(redo)))
    assert violations == [f"node 'b': {CERTAIN_CYCLE}", f"node 'redo': {CERTAIN_CYCLE}"]


def test_validate_cycle_with_an_uncertain_arc_or_a_join_passes():
    # the loop back to b is taken with probability 0.5: cases end
    doc = looping_model_doc(
        {"id": "redo", "kind": "xor-split",
         "branchProbabilities": {"redo->b": 0.5, "redo->c": 0.5}}
    )
    doc["arcs"].append({"source": "redo", "target": "c"})
    assert m.validate_model(m.parse_model(doc)) == []
    # a join on the cycle may hold the token: such cycles are left out
    for kind in ("and-join", "or-join"):
        doc = looping_model_doc({"id": "redo", "kind": kind})
        doc["arcs"] = [{"source": "a", "target": "redo"}, {"source": "redo", "target": "b"},
                       {"source": "b", "target": "redo"}, {"source": "b", "target": "c"}]
        assert not [v for v in m.validate_model(m.parse_model(doc)) if CERTAIN_CYCLE in v]


def test_validate_cycle_through_an_end_node_passes():
    # a token that reaches an end node stops there, whatever its arcs
    doc = looping_model_doc({"id": "redo", "kind": "xor-join"})
    doc["endNodes"] = ["b"]
    doc["activities"] = doc["activities"][:2]
    doc["arcs"] = [{"source": "a", "target": "redo"}, {"source": "redo", "target": "b"},
                   {"source": "b", "target": "redo"}, {"source": "a", "target": "b"}]
    assert m.validate_model(m.parse_model(doc)) == []


def test_validate_join_arity():
    doc = branching_model_doc()
    doc["arcs"] = [a for a in doc["arcs"] if not (a["source"] == "c" and a["target"] == "join")]
    violations = m.validate_model(m.parse_model(doc))
    assert any("join" in v and "2 incoming" in v for v in violations)


def test_validate_calendar_and_distribution():
    doc = tiny_model_doc()
    doc["resources"][0]["calendar"] = [
        {"weekday": "Monday", "start": "08:00", "end": "12:00"},
        {"weekday": "Monday", "start": "11:00", "end": "13:00"},
    ]
    doc["arrival"]["interArrival"] = {"kind": "uniform", "low": 500, "high": 100}
    violations = m.validate_model(m.parse_model(doc))
    text = "\n".join(violations)
    assert "overlapping" in text
    assert "uniform" in text


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_validate_rejects_non_finite_numbers(value):
    doc = tiny_model_doc()
    doc["arrival"]["interArrival"] = {"kind": "exponential", "mean": value}
    doc["activities"][0]["fixedCostPerExecution"] = value
    doc["resources"][0]["costPerTimeUnit"] = value
    text = "\n".join(m.validate_model(m.parse_model(doc)))
    assert "arrival interArrival: mean must be finite" in text
    assert "fixed cost must be finite" in text
    assert "cost per time unit must be finite" in text


def test_validate_rejects_nan_branch_probability():
    doc = branching_model_doc()
    doc["gateways"][0]["branchProbabilities"]["split->b"] = math.nan
    violations = m.validate_model(m.parse_model(doc))
    assert any("sum" in v for v in violations)


def test_distribution_sampling_kinds():
    assert m.fixed(60).sample(0.9) == 60
    D = m.DurationDistribution
    assert D("uniform", (("low", 10.0), ("high", 20.0))).sample(0.5) == 15
    assert D("exponential", (("mean", 100.0),)).sample(0.0) == 0.0
    assert D("normal", (("mean", 50.0), ("stddev", 0.0))).sample(0.3) == 50


def test_arc_id_format():
    arc = m.FlowArc("x", "y")
    assert arc.id == "x->y"
