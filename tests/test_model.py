import math

import pytest

from batchopt import model as m
from batchopt.calendars import Calendar, Interval
from batchopt.eventlog import LAST_INSTANT


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


NEVER_RECONVERGES = ("gateway 'redo': no or-join lies on every path out of this or-split, "
                     "so its branches never reconverge")


@pytest.mark.parametrize(
    "redo, violation",
    [
        ({"id": "redo", "kind": "xor-split", "branchProbabilities": {"redo->b": 1.0}},
         m.UNBOUNDED_VISITS),
        ({"id": "redo", "kind": "or-split", "branchProbabilities": {"redo->b": 1.0}},
         NEVER_RECONVERGES),
        ({"id": "redo", "kind": "and-split"}, m.UNBOUNDED_VISITS),
    ],
    ids=["xor-split", "or-split", "and-split"],
)
def test_validate_cycle_taken_with_certainty(redo, violation):
    # each visit of b sends one token to the end c and one round the loop
    # for certain, so a case would make events for ever; the or-split,
    # which no or-join pairs with, is rejected before its visits are solved
    violations = m.validate_model(m.parse_model(looping_model_doc(redo)))
    assert violations == [violation]


def xor_loop_doc(back):
    """looping_model_doc with `redo` an xor-split back to b with
    probability `back`, else on to c."""
    doc = looping_model_doc(
        {"id": "redo", "kind": "xor-split",
         "branchProbabilities": {"redo->b": back, "redo->c": 1.0 - back}}
    )
    doc["arcs"].append({"source": "redo", "target": "c"})
    return doc


def token_loop_doc(back):
    """a -> b, b -> c (the end) and b -> redo, an xor-split into the
    and-split s with probability `back` (else on to c); s sends one token to
    b and one through d to b, so each visit of b sends 2 x `back` back."""
    doc = looping_model_doc(
        {"id": "redo", "kind": "xor-split",
         "branchProbabilities": {"redo->s": back, "redo->c": 1.0 - back}}
    )
    doc["activities"] = branching_model_doc()["activities"]
    doc["gateways"].append({"id": "s", "kind": "and-split"})
    doc["arcs"] = [{"source": s, "target": t} for s, t in (
        ("a", "b"), ("b", "c"), ("b", "redo"), ("redo", "s"), ("redo", "c"),
        ("s", "b"), ("s", "d"), ("d", "b"))]
    return doc


def solved_visits(doc):
    model = m.parse_model(doc)
    return m.expected_visits(model, m.pair_or_splits(model))


def test_validate_cycle_with_an_uncertain_arc_or_a_join_passes():
    # the loop back to b is taken with probability 0.5: cases end
    doc = xor_loop_doc(0.5)
    assert m.validate_model(m.parse_model(doc)) == []
    # an and-join on the cycle waits for a token that never comes: the
    # case starves, but its visits are bounded; an or-join needs an or-split
    unpaired = "gateway 'redo': no or-split's branches reconverge at this or-join"
    for kind, violations in (("and-join", []), ("or-join", [unpaired])):
        doc = looping_model_doc({"id": "redo", "kind": kind})
        doc["arcs"] = [{"source": "a", "target": "redo"}, {"source": "redo", "target": "b"},
                       {"source": "b", "target": "redo"}, {"source": "b", "target": "c"}]
        assert m.validate_model(m.parse_model(doc)) == violations


@pytest.mark.parametrize("back, b, c", [(0.0, 1.0, 2.0), (0.5, 2.0, 3.0), (0.999, 1000.0, 1001.0)])
def test_expected_visits_of_an_xor_loop(back, b, c):
    # each visit of b goes on to c and to redo, which sends it back to b
    # with probability `back`
    visits = solved_visits(xor_loop_doc(back))
    assert visits == pytest.approx({"a": 1.0, "b": b, "c": c, "redo": b})


def test_expected_visits_of_a_loop_that_sends_back_two_tokens():
    visits = solved_visits(token_loop_doc(0.4))
    assert visits == pytest.approx({"a": 1.0, "b": 5.0, "c": 8.0, "d": 2.0, "redo": 5.0, "s": 2.0})
    assert m.validate_model(m.parse_model(token_loop_doc(0.4))) == []


@pytest.mark.parametrize("doc", [xor_loop_doc(1.0), token_loop_doc(0.5), token_loop_doc(0.9)],
                         ids=["xor-back-1", "two-tokens-back-0.5", "two-tokens-back-0.9"])
def test_validate_rejects_a_loop_that_returns_a_token_per_token(doc):
    # 1, 2 x 0.5 and 2 x 0.9 tokens return per visit of b: the expected
    # visits have no finite non-negative solution
    assert solved_visits(doc) is None
    assert m.validate_model(m.parse_model(doc)) == [m.UNBOUNDED_VISITS]


def test_expected_visits_of_or_branches_and_never_taken_arcs():
    # or-split 0.5 / 0.5: a branch runs alone 0.25 of the time, both 0.25,
    # and the fallback picks one branch when neither draws (0.25), so each
    # runs with probability 0.625; the join receives 1.25 tokens per case
    # and passes on one
    doc = branching_model_doc()
    doc["gateways"] = [
        {"id": "split", "kind": "or-split",
         "branchProbabilities": {"split->b": 0.5, "split->c": 0.5}},
        {"id": "join", "kind": "or-join"},
    ]
    assert solved_visits(doc) == pytest.approx(
        {"a": 1.0, "split": 1.0, "b": 0.625, "c": 0.625, "join": 1.25, "d": 1.0}
    )
    # an arc of probability 0 is never taken
    doc = branching_model_doc()
    doc["gateways"][0]["branchProbabilities"] = {"split->b": 1.0, "split->c": 0.0}
    assert solved_visits(doc)["c"] == pytest.approx(0.0, abs=1e-12)
    assert m.validate_model(m.parse_model(doc)) == []


def test_validate_or_join_that_no_or_split_pairs_with():
    # it would wait for as many tokens as its split activated, and the
    # engine would fail on the first token to reach it
    doc = branching_model_doc()
    doc["gateways"][1]["kind"] = "or-join"
    assert m.validate_model(m.parse_model(doc)) == [
        "gateway 'join': no or-split's branches reconverge at this or-join"
    ]


def test_validate_split_probability_outside_its_range():
    # the xor probabilities sum to 1, but no draw can follow -0.5
    doc = branching_model_doc()
    doc["gateways"][0]["branchProbabilities"] = {"split->b": 1.5, "split->c": -0.5}
    assert m.validate_model(m.parse_model(doc)) == [
        "gateway 'split': arc 'split->b' probability 1.5 outside [0, 1]",
        "gateway 'split': arc 'split->c' probability -0.5 outside [0, 1]",
    ]
    # an or branch of probability 0 would never run
    doc["gateways"] = [
        {"id": "split", "kind": "or-split",
         "branchProbabilities": {"split->b": 0.0, "split->c": 1.0}},
        {"id": "join", "kind": "or-join"},
    ]
    assert m.validate_model(m.parse_model(doc)) == [
        "gateway 'split': arc 'split->b' probability 0.0 outside (0, 1]"
    ]


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


@pytest.mark.parametrize("dist, name", [
    ({"kind": "fixed", "value": LAST_INSTANT + 1}, "value"),
    ({"kind": "uniform", "low": 0, "high": 1e300}, "high"),
    ({"kind": "exponential", "mean": 1e308}, "mean"),
    ({"kind": "normal", "mean": 3600, "stddev": 1e300}, "stddev"),
])
def test_validate_rejects_a_parameter_past_the_last_instant(dist, name):
    # no duration or gap can be longer than a log can hold
    doc = tiny_model_doc()
    doc["activities"][0]["duration"] = dist
    doc["arrival"]["interArrival"] = dist
    violations = m.validate_model(m.parse_model(doc))
    bound = f"{name} must be at most {LAST_INSTANT} s, the last instant of a log"
    assert [v for v in violations if bound in v] == [
        f"activity 'a' duration: {bound}, got {float(dist[name])!r}",
        f"arrival interArrival: {bound}, got {float(dist[name])!r}",
    ]


def test_validate_accepts_a_parameter_at_the_last_instant():
    doc = tiny_model_doc()
    doc["activities"][0]["duration"] = {"kind": "fixed", "value": LAST_INSTANT}
    assert m.validate_model(m.parse_model(doc)) == []


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
