"""The document codec: config round trips, canonical committed inputs, and
a fuzzer that feeds mutated committed documents through the CLI."""

import copy
import json
import operator
from functools import reduce
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from batchopt.analytics import DetectionConfig
from batchopt.cli import main
from batchopt.codec import from_doc, to_doc
from batchopt.engine import SimConfig, SimulationError, parse_sim_config
from batchopt.eventlog import CYCLE_TIME_MODES
from batchopt.interventions import InterventionConfig
from batchopt.model import MAX_CASES
from batchopt.optimize import STRATEGIES, OptimizerConfig, OptimizerError, RLConfig
from batchopt.policy import parse_policies, serialize_policies

ROOT = Path(__file__).resolve().parents[1]


def canonical(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# -- config round trips -------------------------------------------------------

unit = st.floats(0.0, 1.0)
open_unit = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
positive = st.floats(0.0, 1e12, exclude_min=True)

sim_configs = st.builds(
    SimConfig,
    seed=st.integers(),
    total_cases=st.none() | st.integers(1, MAX_CASES),
    warmup=st.integers(0, 10**6),
    cycle_time_mode=st.sampled_from(CYCLE_TIME_MODES),
)

detection_configs = st.builds(
    DetectionConfig,
    wait_quantile=open_unit,
    processing_quantile=open_unit,
    top_k=st.integers(1, 100),
    size_cap=st.floats(1.0, 1e6),
    **{
        name: unit
        for name in ("concentration_share", "idle_share", "cost_share", "freq_share",
                     "similarity_threshold", "utilization_high", "utilization_low",
                     "switch_high", "switch_low")
    },
)


@st.composite
def intervention_configs(draw):
    min_size = draw(st.integers(1, 100))
    return InterventionConfig(
        scale_grid=tuple(draw(st.lists(positive | st.integers(1, 10), min_size=1, max_size=5))),
        min_size=min_size,
        max_size=min_size + draw(st.integers(0, 100)),
        top_k=draw(st.integers(1, 100)),
    )


@st.composite
def rl_configs(draw):
    penalty, improves, dominates = sorted(
        draw(st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=3, unique=True))
    )
    return RLConfig(
        max_iterations=draw(st.integers(0, 1000)),
        reward_dominates=dominates,
        reward_improves=improves,
        reward_penalty=penalty,
        buffer_size=draw(st.integers(1, 1000)),
        update_epochs=draw(st.integers(0, 100)),
        clip_ratio=draw(open_unit),
        learning_rate=draw(positive),
    )


# rl has no unguided form: the config rejects it
optimizer_configs = st.builds(
    lambda strategy_guided, **fields: OptimizerConfig(*strategy_guided, **fields),
    strategy_guided=st.sampled_from(
        [(s, g) for s in STRATEGIES for g in (True, False) if s != "rl" or g]
    ),
    max_solutions=st.integers(1, 10**6),
    radius=st.floats(0.0, 1e6),
    initial_temperature=positive,
    cooling_factor=open_unit,
    temp_epsilon=positive,
    seed=st.integers(),
    sim=sim_configs,
    detection=detection_configs,
    intervention=intervention_configs(),
    rl=rl_configs(),
)


@pytest.mark.parametrize(
    "configs",
    [sim_configs, detection_configs, intervention_configs(), rl_configs(), optimizer_configs],
    ids=["sim", "detection", "intervention", "rl", "optimizer"],
)
def test_config_round_trips_through_its_document(configs):
    @given(configs)
    def check(config):
        doc = to_doc(config)
        assert from_doc(type(config), doc, ValueError) == config
        assert from_doc(type(config), json.loads(json.dumps(doc)), ValueError) == config

    check()


@pytest.mark.parametrize(
    "config, key, value",
    [
        (SimConfig(seed=7, total_cases=12), "totalCases", 12),
        (DetectionConfig(size_cap=4, wait_quantile=0.5), "sizeCap", 4),
        (InterventionConfig(scale_grid=(2, 0.5)), "scaleGrid", [2, 0.5]),
        (RLConfig(learning_rate=1, reward_dominates=2), "learningRate", 1),
        (OptimizerConfig(radius=0, initial_temperature=5, rl=RLConfig(clip_ratio=0.5)),
         "initialTemperature", 5),
    ],
    ids=["sim", "detection", "intervention", "rl", "optimizer"],
)
def test_each_config_round_trips_and_writes_an_int_as_given(config, key, value):
    doc = to_doc(config)
    assert from_doc(type(config), doc, ValueError) == config
    # an int given for a float field stays an int, as the manifest writes it
    assert doc[key] == value
    assert json.dumps(doc[key]) == json.dumps(value)


@pytest.mark.parametrize(
    "cls, doc, error, message",
    [
        (SimConfig, {"sped": 1}, SimulationError, "$.sped: unknown key"),
        (SimConfig, [], SimulationError, "$: expected an object"),
        (OptimizerConfig, {"rl": {"gamma": 1}}, OptimizerError, "$.rl.gamma: unknown key"),
        (OptimizerConfig, {"intervention": {"minSize": 0}}, OptimizerError,
         "$.intervention: need 1 <= min_size"),
        (OptimizerConfig, {"strategy": 5}, OptimizerError, "$: strategy must be a string"),
    ],
    ids=["unknown", "not-object", "nested-unknown", "nested-invalid", "strategy-type"],
)
def test_errors_name_the_path_and_raise_the_given_class(cls, doc, error, message):
    with pytest.raises(error, match=message.replace("$", r"\$").replace("[", r"\[")):
        from_doc(cls, doc, error)


def test_documented_default_config_is_the_default():
    text = (ROOT / "docs" / "model-schema.md").read_text()
    section = text[text.index("## Run and optimizer configs"):]
    block = section[section.index("```json") + len("```json"):]
    assert json.loads(block[: block.index("```")]) == to_doc(OptimizerConfig())


# -- committed inputs are canonical ------------------------------------------


@pytest.mark.parametrize(
    "name, parse, serialize",
    [
        ("policies.json", parse_policies, serialize_policies),
        ("simconfig.json", parse_sim_config, to_doc),
    ],
)
def test_fixture_inputs_are_the_canonical_serialization_of_their_parse(name, parse, serialize):
    paths = sorted((ROOT / "fixtures").glob(f"*/{name}"))
    assert len(paths) == 22
    for path in paths:
        text = path.read_text()
        assert canonical(serialize(parse(json.loads(text)))) == text, path


# -- fuzzing the CLI with mutated committed documents ------------------------

REPLACEMENTS = st.one_of(
    st.booleans(),
    st.text(max_size=4),
    st.none(),
    st.lists(st.integers(0, 3), max_size=2),
    st.just(10**400),
)


def _paths(doc, prefix=()):
    yield prefix
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, value in items:
        yield from _paths(value, prefix + (key,))


def _at(doc, path):
    return reduce(operator.getitem, path, doc)


def mutate(doc, data, replacements=REPLACEMENTS):
    """`doc` with one key dropped, one unknown key added, or one value
    swapped for one of `replacements` (by default a bool, a string, None,
    a list or a 400-digit integer)."""
    doc = copy.deepcopy(doc)
    op = data.draw(st.sampled_from(("drop", "add", "swap")))
    if op == "add":
        objects = [p for p in _paths(doc) if isinstance(_at(doc, p), dict)]
        _at(doc, data.draw(st.sampled_from(objects)))["unknownKey"] = 1
        return doc
    path = data.draw(st.sampled_from([p for p in _paths(doc) if p]))
    parent = _at(doc, path[:-1])
    if op == "drop":
        del parent[path[-1]]
    else:
        parent[path[-1]] = data.draw(replacements)
    return doc


def load(relative: str):
    return json.loads((ROOT / relative).read_text())


INPUTS = {"two-batch": "fixtures/two-batch", "circadian": "perfbench/inputs/circadian"}
CIRCADIAN = INPUTS["circadian"]


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def run_cli(scratch, argv_with_docs):
    """Write each document argument to a file and run the CLI on the list."""
    argv = []
    for i, arg in enumerate(argv_with_docs):
        if isinstance(arg, str):
            argv.append(arg)
        else:
            path = scratch / f"doc-{i}.json"
            path.write_text(json.dumps(arg))
            argv.append(str(path))
    return main([*argv, "--out", str(scratch / "out")])


@pytest.mark.parametrize("kind", ["model", "policies"])
@pytest.mark.parametrize("source", sorted(INPUTS))
def test_mutated_model_and_policies_exit_0_or_3(scratch, source, kind):
    model = load(f"{INPUTS[source]}/model.json")
    policies = load(f"{INPUTS[source]}/policies.json")

    @settings(deadline=None)
    @given(st.data())
    def check(data):
        docs = {"model": model, "policies": policies}
        docs[kind] = mutate(docs[kind], data)
        code = run_cli(scratch, ["simulate", "--model", docs["model"],
                                 "--policies", docs["policies"]])
        assert code in (0, 3)

    check()


def test_mutated_fronts_exit_0_or_3(scratch):
    front = load(f"{CIRCADIAN}/front-hc-guided.json")
    other = str(ROOT / CIRCADIAN / "front-sa-guided.json")
    model = str(ROOT / CIRCADIAN / "model.json")
    policies = str(ROOT / CIRCADIAN / "policies.json")

    @settings(deadline=None)
    @given(st.data())
    def check(data):
        code = run_cli(scratch, ["evaluate", mutate(front, data), other,
                                 "--model", model, "--policies", policies])
        assert code in (0, 3)

    check()


# small counts reach the warmup check (exit 4), and a count just past the
# bound must be refused before it runs
RUN_CONFIG_REPLACEMENTS = st.one_of(
    REPLACEMENTS, st.integers(-1, 40), st.just(MAX_CASES + 1), st.just(MAX_CASES * 10)
)


@pytest.mark.parametrize("source", ["two-batch", "circadian"])
def test_mutated_run_configs_exit_0_3_or_4(scratch, source):
    fixture = ROOT / "fixtures" / source
    config = load(f"fixtures/{source}/simconfig.json")

    @settings(deadline=None)
    @given(st.data())
    def check(data):
        code = run_cli(scratch, ["simulate", "--model", str(fixture / "model.json"),
                                 "--policies", str(fixture / "policies.json"),
                                 "--config", mutate(config, data, RUN_CONFIG_REPLACEMENTS)])
        assert code in (0, 3, 4)

    check()


def _budget(doc, *path, default):
    """The count at `path` of a mutated optimizer config, or its default
    when a mutation dropped it."""
    for key in path:
        if not isinstance(doc, dict):
            return None
        doc = doc.get(key, default if key == path[-1] else {})
    return doc if isinstance(doc, int) and not isinstance(doc, bool) else None


OPTIMIZER_CONFIGS = {
    strategy: to_doc(OptimizerConfig(strategy=strategy, max_solutions=3,
                                     rl=RLConfig(max_iterations=3)))
    for strategy in STRATEGIES
}


@pytest.mark.parametrize("command", ["optimize", "analyze"])
@pytest.mark.parametrize("strategy", sorted(OPTIMIZER_CONFIGS))
def test_mutated_optimizer_configs_exit_0_3_or_4(scratch, command, strategy):
    fixture = ROOT / "fixtures" / "two-batch"

    @settings(deadline=None)
    @given(st.data())
    def check(data):
        config = mutate(OPTIMIZER_CONFIGS[strategy], data, RUN_CONFIG_REPLACEMENTS)
        max_solutions = _budget(config, "maxSolutions", default=50)
        if command == "optimize":
            # a search runs at most three simulations or RL iterations
            assume(max_solutions is None or max_solutions <= 3)
            assume((_budget(config, "rl", "maxIterations", default=50) or 0) <= 3)
        argv = [command, "--model", str(fixture / "model.json"),
                "--policies", str(fixture / "policies.json"), "--config", config]
        try:
            code = run_cli(scratch, argv)
        except SystemExit as exc:  # argparse's usage error, for a budget below 1
            assert max_solutions is not None and max_solutions < 1
            assert exc.code == 2
            return
        assert code in (0, 3, 4)

    check()
