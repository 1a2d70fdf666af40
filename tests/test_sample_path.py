"""A simulation that replays a `SamplePath` writes the same bytes as one
that draws afresh.

Each path here is filled under one policy set and replayed under another,
since the point of a path is that arrivals and keyed draws do not depend
on the policy set.  Covered: every fixture, the randomized chain models of
test_engine_properties (drawn durations and drawn inter-arrival times),
and the xor-loop (draws at visits after the first) and or-split models of
test_engine.
"""

import pytest
from hypothesis import given, settings
from test_engine import gateway_model
from test_engine_properties import scenarios

from batchopt import engine, rng
from batchopt import model as m
from batchopt import policy as pol
from batchopt.engine import SamplePath, SimConfig, SimulationError, compile_model, simulate
from batchopt.eventlog import render_batch_csv, render_event_csv
from batchopt.fixtures import all_fixtures


def csv_bytes(result):
    return render_event_csv(result.log), render_batch_csv(result.log)


def assert_replay_matches(model, filled_under, replayed_under, config):
    """Fill a path under one policy set, then check both a replay under
    another and the filling run itself against fresh simulations."""
    compiled = compile_model(model)
    path = SamplePath()
    filled = simulate(compiled, filled_under, config, path)
    assert csv_bytes(filled) == csv_bytes(simulate(model, filled_under, config))
    replayed = simulate(compiled, replayed_under, config, path)
    fresh = simulate(model, replayed_under, config)
    assert csv_bytes(replayed) == csv_bytes(fresh)
    assert replayed.objectives == fresh.objectives
    return path


def size_policy(activity_id: str, size: int) -> pol.BatchingPolicy:
    return pol.BatchingPolicy(activity_id, pol.PARALLEL, pol.rule([pol.size_at_least(size)]))


def drawn_durations(model: m.ProcessModel) -> m.ProcessModel:
    """`model` with every activity's duration exponential (mean 600 s)."""
    exponential = m.DurationDistribution("exponential", (("mean", 600.0),))
    return model._replace(
        activities=tuple(a._replace(duration=exponential) for a in model.activities)
    )


def xor_loop_model() -> m.ProcessModel:
    return drawn_durations(
        gateway_model(
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
    )


def or_split_model() -> m.ProcessModel:
    return drawn_durations(
        gateway_model(
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
    )


@pytest.mark.parametrize("fixture", all_fixtures(), ids=lambda f: f.name)
def test_fixture_replay_writes_the_fresh_bytes(fixture):
    model, policies, config = fixture.model(), fixture.policies(), fixture.sim_config()
    assert_replay_matches(model, {}, policies, config)
    assert_replay_matches(model, policies, {}, config)


@settings(deadline=None)
@given(scenarios())
def test_chain_replay_writes_the_fresh_bytes(scenario):
    model, policies, seed = scenario
    assert_replay_matches(model, {}, policies, SimConfig(seed=seed))


def test_xor_loop_replay_writes_the_fresh_bytes():
    path = assert_replay_matches(
        xor_loop_model(), {}, {"b": size_policy("b", 3)}, SimConfig(seed=11)
    )
    # the loop re-enters b, so draws at later visits are stored and replayed
    assert any(node == "redo" and visit > 0 for _, node, visit in path.draws)
    assert any(node == "b" and visit > 0 for _, node, visit in path.draws)


def test_or_split_replay_writes_the_fresh_bytes():
    path = assert_replay_matches(
        or_split_model(), {"d": size_policy("d", 4)}, {"b": size_policy("b", 2)},
        SimConfig(seed=9),
    )
    splits = {hops for (_, node, _), hops in path.draws.items() if node == "pick"}
    assert {len(hops) for hops in splits} == {1, 2}


def test_replay_draws_nothing(monkeypatch):
    model = xor_loop_model()
    compiled, config = compile_model(model), SimConfig(seed=11)
    path = SamplePath()
    simulate(compiled, {}, config, path)
    expected = csv_bytes(simulate(model, {"b": size_policy("b", 2)}, config))

    def no_draw(*args):
        raise AssertionError("a replay drew a unit")

    def no_arrivals(self):
        raise AssertionError("a replay generated arrivals")

    monkeypatch.setattr(rng, "visit_unit", no_draw)
    monkeypatch.setattr(engine._Engine, "_generate_arrivals", no_arrivals)
    assert csv_bytes(simulate(compiled, {"b": size_policy("b", 2)}, config, path)) == expected


@pytest.mark.parametrize(
    "config, match",
    [
        (SimConfig(seed=12), "seed 11, not 12"),
        (SimConfig(seed=11, total_cases=39), "40 cases, not 39"),
    ],
)
def test_a_path_rejects_another_seed_or_case_count(config, match):
    compiled = compile_model(xor_loop_model())
    path = SamplePath()
    simulate(compiled, {}, SimConfig(seed=11), path)
    with pytest.raises(SimulationError, match=match):
        simulate(compiled, {}, config, path)


def test_a_path_rejects_another_compiled_model():
    model = xor_loop_model()
    compiled = compile_model(model)
    config = SimConfig(seed=11)
    path = SamplePath()
    simulate(compiled, {}, config, path)
    # an equal model compiled again is another compiled model, and so is
    # the compilation `simulate` makes of a bare model
    with pytest.raises(SimulationError, match="another compiled model"):
        simulate(compile_model(model), {}, config, path)
    with pytest.raises(SimulationError, match="another compiled model"):
        simulate(model, {}, config, path)
    # a rejected run leaves the path bound to its own run
    assert csv_bytes(simulate(compiled, {}, config, path)) == csv_bytes(
        simulate(model, {}, config)
    )


def test_warmup_and_cycle_time_mode_do_not_bind_a_path():
    compiled = compile_model(xor_loop_model())
    path = SamplePath()
    simulate(compiled, {}, SimConfig(seed=11), path)
    config = SimConfig(seed=11, warmup=5, cycle_time_mode="waiting-and-idle-only")
    assert simulate(compiled, {}, config, path) == simulate(compiled, {}, config)
