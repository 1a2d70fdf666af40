import ast
import itertools
import json
from collections import Counter
from pathlib import Path

import pytest
from test_engine_properties import seed_free

from batchopt import engine, interventions, policy
from batchopt import optimize as opt
from batchopt import rl as rlmod
from batchopt.analytics import compute_stats
from batchopt.codec import to_doc
from batchopt.engine import SimulationError, simulate
from batchopt.fixtures import all_fixtures, enumerate_oracle_front, get_fixture
from batchopt.interventions import (
    InterventionConfig,
    InterventionError,
    SCALE_SIZE,
    TOGGLE_BATCH_TYPE,
    PolicyDelta,
    apply_delta,
    delta_to_doc,
    derive_interventions,
)
from batchopt.model import parse_model
from batchopt.pareto import front_to_doc
from batchopt.policy import (
    BatchingPolicy,
    CostModel,
    PARALLEL,
    SIZE,
    policy_set_key,
    rule,
    size_at_least,
    wait_first_at_least,
)
from batchopt.optimize import render_convergence_csv
from batchopt.rng import derive_seed


def front_points(front):
    return sorted(s.point for s in front.solutions)


def run(fixture, **overrides):
    config = opt.OptimizerConfig(**overrides)
    return opt.optimize_hc_sa(fixture.model(), fixture.policies(), config)


def test_one_search_run_validates_its_model_once(monkeypatch):
    # the evaluator compiles the model once; no simulation validates again
    calls = []
    real = engine.validate_model
    monkeypatch.setattr(engine, "validate_model", lambda model: calls.append(model) or real(model))
    result = run(get_fixture("two-batch"), max_solutions=12)
    assert result.simulations == 12
    assert len(calls) == 1


class TestConfigValidation:
    def test_unknown_strategy(self):
        with pytest.raises(opt.OptimizerError):
            opt.OptimizerConfig(strategy="tabu")

    def test_budget_must_be_positive(self):
        with pytest.raises(opt.OptimizerError):
            opt.OptimizerConfig(max_solutions=0)

    def test_document_budgets_are_bounded_by_a_million(self):
        at_bound = {"maxSolutions": 10**6, "rl": {"maxIterations": 10**6, "updateEpochs": 10**6}}
        config = opt.parse_optimizer_config(at_bound)
        assert config.max_solutions == config.rl.max_iterations == opt.MAX_BUDGET
        zero = opt.parse_optimizer_config({"rl": {"maxIterations": 0, "updateEpochs": 0}})
        assert zero.rl.max_iterations == zero.rl.update_epochs == 0
        for doc in ({"maxSolutions": 10**6 + 1}, {"rl": {"updateEpochs": 10**6 + 1}}):
            with pytest.raises(opt.OptimizerError, match="must be at most 1000000"):
                opt.parse_optimizer_config(doc)

    def test_radius_must_be_nonnegative(self):
        with pytest.raises(opt.OptimizerError):
            opt.OptimizerConfig(radius=-0.1)

    @pytest.mark.parametrize("factor", [0.0, 1.0, 1.5])
    def test_cooling_factor_open_interval(self, factor):
        with pytest.raises(opt.OptimizerError):
            opt.OptimizerConfig(cooling_factor=factor)

    @pytest.mark.parametrize("kwargs", [
        {"initial_temperature": 0.0},
        {"temp_epsilon": 0.0},
        {"initial_temperature": -1.0},
    ])
    def test_temperatures_must_be_positive(self, kwargs):
        with pytest.raises(opt.OptimizerError):
            opt.OptimizerConfig(**kwargs)

    def test_hc_sa_entry_rejects_rl(self):
        fx = get_fixture("monotone-tradeoff")
        config = opt.OptimizerConfig(strategy="rl")
        with pytest.raises(opt.OptimizerError):
            opt.optimize_hc_sa(fx.model(), fx.policies(), config)


class TestConfigDocs:
    def test_round_trip(self):
        config = opt.OptimizerConfig(
            strategy="sa",
            guided=False,
            max_solutions=7,
            radius=0.1,
            initial_temperature=5.0,
            cooling_factor=0.5,
            temp_epsilon=0.01,
            seed=3,
            intervention=InterventionConfig(max_size=8),
        )
        doc = to_doc(config)
        assert opt.parse_optimizer_config(doc) == config

    def test_strategy_case_insensitive(self):
        assert opt.parse_optimizer_config({"strategy": "HC"}).strategy == "hc"

    def test_unknown_top_key(self):
        with pytest.raises(opt.OptimizerError):
            opt.parse_optimizer_config({"budget": 10})

    @pytest.mark.parametrize("section,key", [
        ("sim", "speed"),
        ("detection", "bogus"),
        ("intervention", "floor"),
        ("rl", "gamma"),
    ])
    def test_unknown_section_key(self, section, key):
        with pytest.raises(opt.OptimizerError):
            opt.parse_optimizer_config({section: {key: 1}})

    def test_non_object_rejected(self):
        with pytest.raises(opt.OptimizerError):
            opt.parse_optimizer_config(["hc"])


class TestRandomPerturbation:
    def setup_method(self):
        self.fixture = get_fixture("monotone-tradeoff")
        self.model = self.fixture.model()
        self.policies = self.fixture.policies()
        result = simulate(self.model, self.policies, self.fixture.sim_config())
        self.stats = compute_stats(result.log, self.model)

    def draws(self, seed=0, count=40, policies=None, config=InterventionConfig()):
        return opt.random_perturbation(
            self.model,
            self.stats,
            self.policies if policies is None else policies,
            seed=seed,
            config=config,
            count=count,
        )

    def test_same_seed_reproduces_exactly(self):
        assert self.draws(seed=7) == self.draws(seed=7)

    def test_different_seeds_differ(self):
        assert self.draws(seed=0) != self.draws(seed=1)

    @pytest.mark.parametrize("with_stats", [True, False], ids=["stats", "no-stats"])
    @pytest.mark.parametrize("fixture", all_fixtures(), ids=lambda f: f.name)
    def test_every_delta_applies(self, fixture, with_stats):
        # the unguided search draws with its parent's stats, criterion 01
        # without any; no draw may be a move that cannot apply
        model, policies = fixture.model(), fixture.policies()
        stats = None
        if with_stats:
            stats = compute_stats(simulate(model, policies, fixture.sim_config()).log, model)
        for delta in opt.random_perturbation(model, stats, policies, seed=0, count=40):
            assert delta.activity_id in apply_delta(policies, delta)

    def test_the_search_draws_the_moves_of_the_interventions_module(self):
        # the search names no move kind and draws nothing itself
        assert opt.random_perturbation is interventions.random_perturbation
        tree = ast.parse(Path(opt.__file__).read_text(encoding="utf-8"))
        imported = {
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            for alias in node.names
        }
        kinds = set(interventions.DELTA_KINDS + policy.CONDITION_KINDS)
        spelled = {name for module in (interventions, policy)
                   for name, value in vars(module).items()
                   if isinstance(value, str) and value in kinds}
        assert spelled >= {"ADD_CONDITION", "SCALE_SIZE", "SIZE", "WT_FIRST"}
        assert imported & (spelled | {"unit"}) == set()

    def test_size_draws_respect_bounds(self):
        config = InterventionConfig(min_size=2, max_size=4)
        sizes = [
            d.new_threshold for d in self.draws(config=config, count=80)
            if d.kind == SCALE_SIZE
        ]
        assert sizes
        assert all(2 <= s <= 4 for s in sizes)

    def test_new_size_condition_starts_from_one(self):
        # no size condition on the policy: the rescale seeds from 1.0, so
        # the default grid can only land on 1 or 2
        policies = {
            "issue": BatchingPolicy(
                "issue",
                PARALLEL,
                rule([wait_first_at_least(600.0)]),
                CostModel(fixed_cost=10.0),
            )
        }
        assert not policies["issue"].rule.has_kind(SIZE)
        sizes = [
            d.new_threshold for d in self.draws(policies=policies, count=120)
            if d.kind == SCALE_SIZE
        ]
        assert sizes
        assert set(sizes) <= {1.0, 2.0}

    def test_toggle_requires_existing_policy(self):
        kinds = {d.kind for d in self.draws(policies={}, count=120)}
        assert TOGGLE_BATCH_TYPE not in kinds

    def test_count_respected(self):
        assert len(self.draws(count=11)) == 11


def test_a_candidate_whose_cost_overflows_is_audited_as_failed():
    # one batch of four at 1e308 is a finite total; four batches of one
    # overflow, so that child is a failed simulation, not a front point
    policies = {
        "ticket": BatchingPolicy(
            "ticket", PARALLEL, rule([size_at_least(4)]), CostModel(fixed_cost=1e308)
        )
    }
    search = opt.CandidateEvaluator(
        get_fixture("two-batch").model(), opt.OptimizerConfig(), simulate, compute_stats,
        apply_delta,
    )
    root, _ = search.start(policies)
    assert root.point[1] == 2.5e307
    assert search.evaluate(1, root, PolicyDelta("ticket", SCALE_SIZE, new_threshold=1.0)) is None
    row = search.audit[-1]
    assert row["failed"] and row["sim"] == 1
    assert row["error"] == "objective totals overflow: cycle time 2400.0, cost inf"
    assert (search.simulations, search.failures) == (2, 1)


def test_a_candidate_that_runs_past_the_last_instant_is_audited_as_failed():
    # one batch of four ends near 1e11 s; four batches of one end past the
    # last instant a log can spell, so that child is a failed simulation
    model_doc = json.loads(json.dumps(get_fixture("two-batch").model_doc))
    model_doc["activities"][0]["duration"] = {"kind": "fixed", "value": 1e11}
    policies = {"ticket": BatchingPolicy("ticket", PARALLEL, rule([size_at_least(4)]))}
    search = opt.CandidateEvaluator(
        parse_model(model_doc), opt.OptimizerConfig(), simulate, compute_stats, apply_delta
    )
    root, _ = search.start(policies)
    assert search.evaluate(1, root, PolicyDelta("ticket", SCALE_SIZE, new_threshold=1.0)) is None
    row = search.audit[-1]
    assert row["failed"] and row["sim"] == 1
    assert row["error"] == (
        "instant 400000001800 s lies past 9999-12-31T23:59:59, the last instant a log can spell"
    )
    assert (search.simulations, search.failures) == (2, 1)


class TestPatternMoves:
    """HC, SA and RL read one move list per evaluated log: HC and SA
    expand every delta of every instance, RL's grid the first instance per
    pattern."""

    @staticmethod
    def root_moves(fixture):
        search = opt.CandidateEvaluator(
            fixture.model(), opt.OptimizerConfig(), simulate, compute_stats, apply_delta
        )
        root, evaluation = search.start(fixture.policies(), dist=0.0, enqueued=True)
        return search.moves(evaluation, root.policies)

    @staticmethod
    def root_expansion(fixture, strategy):
        """The deltas a guided search simulates from the initial set."""
        config = opt.OptimizerConfig(strategy=strategy, max_solutions=50)
        result = opt.optimize_hc_sa(fixture.model(), fixture.policies(), config)
        return [row["delta"] for row in result.audit if row["iteration"] == 1]

    @staticmethod
    def fail_first_derivation(monkeypatch, sid):
        """Make the search's derivation raise for the first instance of
        pattern `sid` it is given, and derive every other as before."""
        failed = []

        def derive(instance, *args):
            if instance.scenario_id == sid and not failed:
                failed.append(instance)
                raise InterventionError("cannot derive")
            return derive_interventions(instance, *args)

        monkeypatch.setattr(opt, "derive_interventions", derive)

    def test_a_failed_derivation_drops_its_rl_pattern_but_not_the_other_instances(
        self, monkeypatch
    ):
        fx = get_fixture("cost-hog")
        moves = self.root_moves(fx)
        sid = 12
        first, second = [i for i, (s, _) in enumerate(moves) if s == sid]
        assert moves[first][1] and moves[second][1]

        self.fail_first_derivation(monkeypatch, sid)
        patched = self.root_moves(fx)
        assert patched == [(s, [] if i == first else d) for i, (s, d) in enumerate(moves)]
        actions = rlmod.available_actions(patched)
        assert {a // rlmod.ACTION_SLOTS + 1 for a in actions} == {s for s, _ in moves} - {sid}
        assert actions == {
            a: delta for a, delta in rlmod.available_actions(moves).items()
            if a // rlmod.ACTION_SLOTS + 1 != sid
        }
        for strategy in ("hc", "sa"):
            self.fail_first_derivation(monkeypatch, sid)
            expansion = self.root_expansion(fx, strategy)
            assert expansion == [delta_to_doc(d) for _, deltas in patched for d in deltas]
            assert all(delta_to_doc(d) in expansion for d in moves[second][1])

    @pytest.mark.parametrize("fixture", all_fixtures(), ids=lambda f: f.name)
    def test_every_rl_action_is_a_move_hc_and_sa_expand(self, fixture):
        actions = rlmod.available_actions(self.root_moves(fixture))
        assert actions
        for strategy in ("hc", "sa"):
            expansion = self.root_expansion(fixture, strategy)
            assert all(delta_to_doc(d) in expansion for d in actions.values())


class TestHillClimbing:
    def test_guided_recovers_oracle_front(self):
        fx = get_fixture("monotone-tradeoff")
        oracle = enumerate_oracle_front(fx)
        res = run(
            fx,
            strategy="hc",
            guided=True,
            max_solutions=80,
            seed=0,
            intervention=InterventionConfig(max_size=5),
        )
        assert front_points(res.front) == front_points(oracle)

    def test_budget_is_a_hard_cap(self):
        fx = get_fixture("monotone-tradeoff")
        res = run(fx, strategy="hc", guided=True, max_solutions=12, seed=0)
        assert res.simulations <= 12

    def test_budget_one_returns_initial_point_only(self):
        fx = get_fixture("monotone-tradeoff")
        res = run(fx, strategy="hc", guided=True, max_solutions=1, seed=0)
        assert res.simulations == 1
        initial = simulate(fx.model(), fx.policies(), fx.sim_config())
        assert front_points(res.front) == [initial.objectives.point]

    def test_audit_starts_with_accepted_initial(self):
        fx = get_fixture("monotone-tradeoff")
        res = run(fx, strategy="hc", guided=True, max_solutions=10, seed=0)
        first = res.audit[0]
        assert first["sim"] == 0
        assert first["accepted"] is True
        assert first["delta"] is None
        assert first["parent"] == ""

    def test_convergence_rows_monotone(self):
        fx = get_fixture("monotone-tradeoff")
        res = run(fx, strategy="hc", guided=True, max_solutions=40, seed=0)
        cts = [r["best_cycle_time"] for r in res.convergence]
        costs = [r["best_cost"] for r in res.convergence]
        assert all(a >= b for a, b in zip(cts, cts[1:]))
        assert all(a >= b for a, b in zip(costs, costs[1:]))
        assert res.convergence[-1]["simulations"] == res.simulations

    def test_rerun_is_deterministic(self):
        fx = get_fixture("monotone-tradeoff")
        a = run(fx, strategy="hc", guided=False, max_solutions=25, seed=5)
        b = run(fx, strategy="hc", guided=False, max_solutions=25, seed=5)
        assert a.audit == b.audit
        assert a.convergence == b.convergence
        assert front_points(a.front) == front_points(b.front)

    def test_guided_walks_the_seasonal_size_ladder(self):
        # weekly paired arrivals: the prescriptions shrink and grow the
        # five-case floor straight onto every rung of the ladder
        fx = get_fixture("circadian")
        res = run(
            fx,
            strategy="hc",
            guided=True,
            max_solutions=30,
            seed=0,
            intervention=InterventionConfig(max_size=8),
        )
        assert front_points(res.front) == [
            (300.0, 5.0),
            (151350.0, 2.5),
            (189112.5, 1.875),
            (226875.0, 1.25),
        ]


class TestSimulatedAnnealing:
    def test_guided_recovers_oracle_front(self):
        fx = get_fixture("monotone-tradeoff")
        oracle = enumerate_oracle_front(fx)
        res = run(
            fx,
            strategy="sa",
            guided=True,
            max_solutions=80,
            seed=0,
            intervention=InterventionConfig(max_size=5),
        )
        assert front_points(res.front) == front_points(oracle)

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("guided", [True, False])
    def test_cold_annealer_degenerates_to_strict_climber(self, seed, guided):
        fx = get_fixture("monotone-tradeoff")
        sa = run(
            fx,
            strategy="sa",
            guided=guided,
            max_solutions=30,
            seed=seed,
            initial_temperature=1e-6,
            temp_epsilon=1e-3,
        )
        hc = run(
            fx,
            strategy="hc",
            guided=guided,
            max_solutions=30,
            seed=seed,
            radius=0.0,
        )
        assert front_points(sa.front) == front_points(hc.front)
        assert sa.simulations == hc.simulations
        assert [r["delta"] for r in sa.audit] == [r["delta"] for r in hc.audit]

    def test_annealer_cools_into_a_strict_climber_mid_run(self):
        # from 1.0, halved each iteration, the temperature falls below 0.1
        # after the fourth: later iterations climb with radius 0 and so
        # enqueue exactly the front points
        result = run(
            get_fixture("circadian"),
            strategy="sa",
            max_solutions=60,
            initial_temperature=1.0,
            cooling_factor=0.5,
            temp_epsilon=0.1,
        )
        rows = [r for r in result.audit if not r["failed"]]
        assert any(r["enqueued"] and r["dist"] > 0 for r in rows if r["iteration"] <= 4)
        late = [r for r in rows if r["iteration"] >= 5]
        assert any(r["dist"] > 0 for r in late)
        assert all(r["enqueued"] == (r["dist"] == 0.0) for r in late)


def _without_cached(rows):
    return [{k: v for k, v in row.items() if k != "cached"} for row in rows]


def _never_repeating_key():
    """A `policy_set_key` under which no two requests share a key: the
    memo then never replays, and every request is simulated."""
    count = itertools.count()
    return lambda policies: next(count)


class TestMemo:
    """Every simulation of a run uses one seed and one sample path, so a
    repeated policy set is replayed from the run's memo, not simulated
    again, on every model; nothing but the audit's `cached` flags may tell
    the two apart."""

    @staticmethod
    def search(monkeypatch, fixture, strategy, guided, memo, doomed=None, calls=None, **config):
        """Run one search with a spy on the simulate its strategy calls; the
        spy lists the key of every set it is asked for (and, in `calls`,
        the seed and path it is asked under) and fails the set whose key
        is `doomed`."""
        module = rlmod if strategy == "rl" else opt
        runner = rlmod.optimize_rl if strategy == "rl" else opt.optimize_hc_sa
        simulated = []
        real = module.simulate

        def spy(model, policies, config, path):
            key = policy_set_key(policies)
            simulated.append(key)
            if calls is not None:
                calls.append((config.seed, path))
            if key == doomed:
                raise SimulationError("doomed policy set")
            return real(model, policies, config, path)

        monkeypatch.setattr(module, "simulate", spy)
        if not memo:
            monkeypatch.setattr(opt, "policy_set_key", _never_repeating_key())
        config = opt.OptimizerConfig(
            strategy=strategy, guided=guided, max_solutions=50, seed=3, **config
        )
        try:
            return runner(fixture.model(), fixture.policies(), config), simulated
        finally:
            monkeypatch.undo()

    @pytest.mark.parametrize("name", ["circadian", "monotone-tradeoff", "busy-step", "stray-branch"])
    @pytest.mark.parametrize(
        "strategy,guided", [("hc", True), ("hc", False), ("sa", True), ("rl", True)]
    )
    def test_memo_changes_nothing_but_the_cached_flags(self, monkeypatch, name, strategy, guided):
        fx = get_fixture(name)
        fresh, every = self.search(monkeypatch, fx, strategy, guided, memo=False)
        memo, distinct = self.search(monkeypatch, fx, strategy, guided, memo=True)
        assert front_to_doc(memo.front) == front_to_doc(fresh.front)
        assert render_convergence_csv(memo.convergence) == render_convergence_csv(
            fresh.convergence
        )
        assert _without_cached(memo.audit) == _without_cached(fresh.audit)
        assert (memo.simulations, memo.failures) == (fresh.simulations, fresh.failures)
        # without the memo every requested simulation runs; with it, each
        # distinct set runs once and every other request is a replay
        assert len(every) == fresh.simulations
        assert not any(row["cached"] for row in fresh.audit)
        assert len(distinct) == len(set(distinct)) == len(set(every))
        cached = sum(row["cached"] for row in memo.audit)
        assert cached == memo.simulations - len(distinct)

    def test_guided_climb_on_circadian_replays_most_requests(self, monkeypatch):
        result, distinct = self.search(monkeypatch, get_fixture("circadian"), "hc", True, memo=True)
        assert result.simulations == 50
        assert len(distinct) < result.simulations / 2

    @pytest.mark.parametrize("name", ["busy-step", "stray-branch"])
    @pytest.mark.parametrize("strategy,guided", [("hc", True), ("hc", False), ("rl", True)])
    def test_a_drawing_model_simulates_each_distinct_set_once_on_one_path(
        self, monkeypatch, name, strategy, guided
    ):
        fx = get_fixture(name)
        assert not seed_free(fx.model())
        calls = []
        result, simulated = self.search(monkeypatch, fx, strategy, guided, memo=True, calls=calls)
        assert len(simulated) == len(set(simulated)) < result.simulations
        assert sum(row["cached"] for row in result.audit) == result.simulations - len(simulated)
        # one seed, derived from the optimizer seed, and one sample path
        assert {seed for seed, _ in calls} == {derive_seed(3, "sim", 0)}
        path = calls[0][1]
        assert isinstance(path, engine.SamplePath)
        assert all(p is path for _, p in calls)

    def test_the_search_does_not_read_the_run_seed(self, monkeypatch):
        fx = get_fixture("busy-step")
        first, _ = self.search(monkeypatch, fx, "hc", True, memo=True)
        other = opt.SimConfig(seed=99)
        second, _ = self.search(monkeypatch, fx, "hc", True, memo=True, sim=other)
        assert first.audit == second.audit

    @pytest.mark.parametrize("name", ["busy-step", "stray-branch", "circadian"])
    @pytest.mark.parametrize(
        "strategy,guided", [("hc", True), ("hc", False), ("sa", False), ("rl", True)]
    )
    def test_a_dropped_log_is_simulated_again_to_the_same_bytes(
        self, monkeypatch, name, strategy, guided
    ):
        # an evaluation that never keeps its log re-simulates it for every
        # stats computation, on the run's seed and path
        class Forgetful(opt.Evaluation):
            __slots__ = ()
            log = property(lambda self: None, lambda self, log: None)

        fx = get_fixture(name)
        kept, distinct = self.search(monkeypatch, fx, strategy, guided, memo=True)
        monkeypatch.setattr(opt, "Evaluation", Forgetful)
        calls = []
        dropped, simulated = self.search(
            monkeypatch, fx, strategy, guided, memo=True, calls=calls
        )
        assert front_to_doc(dropped.front) == front_to_doc(kept.front)
        assert dropped.audit == kept.audit
        assert dropped.convergence == kept.convergence
        assert len(simulated) > len(distinct) and set(simulated) == set(distinct)
        assert all(c == calls[0] for c in calls)

    @pytest.mark.parametrize(
        "strategy,config",
        [("hc", {"radius": 0.0}), ("sa", {"initial_temperature": 1.0, "cooling_factor": 0.01})],
        ids=["hc", "sa"],
    )
    def test_the_memo_keeps_only_the_logs_of_queued_sets(self, monkeypatch, strategy, config):
        # both end as radius-0 climbs, whose queue holds only front points;
        # the annealing run drops the distant candidates it queued first
        evaluators = []

        class Watched(opt.CandidateEvaluator):
            def __init__(self, *args):
                super().__init__(*args)
                evaluators.append(self)

        monkeypatch.setattr(opt, "CandidateEvaluator", Watched)
        fx = get_fixture("busy-step")
        result, _ = self.search(monkeypatch, fx, strategy, False, memo=True, **config)
        (search,) = evaluators
        held = [e for e in search.memo.values() if e.log is not None]
        # every expanded set computed its stats and dropped its log; the
        # queue holds at most the enqueued rows less one per expansion
        assert all(e.stats is opt._PENDING for e in held)
        iterations = max(row["iteration"] for row in result.audit)
        queued = sum(row["enqueued"] for row in result.audit) - iterations
        assert len(held) <= queued < len(search.memo)
        front_points = {
            tuple(row["point"]) for row in result.audit if row["enqueued"] and row["dist"] == 0.0
        }
        assert all(e.point in front_points for e in held)
        if strategy == "sa":
            assert any(row["enqueued"] and row["dist"] > 0 for row in result.audit)

    @pytest.mark.parametrize("memo", [True, False])
    def test_replayed_failure_is_audited_and_counted_like_a_fresh_one(self, monkeypatch, memo):
        fx = get_fixture("circadian")
        model, policies = fx.model(), fx.policies()
        if not memo:
            monkeypatch.setattr(opt, "policy_set_key", _never_repeating_key())
        calls = []

        def doomed(model, candidate, config, path):
            calls.append(candidate)
            if candidate != policies:
                raise SimulationError("doomed policy set")
            return simulate(model, candidate, config, path)

        search = opt.CandidateEvaluator(
            model, opt.OptimizerConfig(seed=3), doomed, compute_stats, apply_delta
        )
        root, _ = search.start(policies, dist=0.0, enqueued=True)
        delta = PolicyDelta(next(iter(policies)), TOGGLE_BATCH_TYPE)
        assert search.evaluate(1, root, delta, dist=None, enqueued=False) is None
        with pytest.raises(opt.OptimizerError) as err:
            search.evaluate(2, root, delta, dist=None, enqueued=False)
        assert str(err.value) == (
            "aborting: 2 of 3 simulations failed; last error: doomed policy set"
        )
        assert len(calls) == (2 if memo else 3)
        rows = search.audit[1:]
        assert [r["cached"] for r in rows] == [False, memo]
        assert _without_cached(rows) == [
            {
                "sim": sim,
                "iteration": sim,
                "parent": "sim-00000",
                "delta": delta_to_doc(delta),
                "point": None,
                "dist": None,
                "accepted": False,
                "enqueued": False,
                "failed": True,
                "error": "doomed policy set",
            }
            for sim in (1, 2)
        ]
        assert [c["simulations"] for c in search.convergence] == [1, 2, 3]
        assert (search.simulations, search.failures) == (3, 2)

    @pytest.mark.parametrize("name", ["circadian", "busy-step"])
    def test_replayed_failure_in_a_search_matches_a_fresh_one(self, monkeypatch, name):
        # doom a set the climb requests more than once
        fx = get_fixture(name)
        _, every = self.search(monkeypatch, fx, "hc", True, memo=False)
        repeats = Counter(every[1:])
        doomed_key = max(repeats, key=lambda k: (repeats[k], every.index(k)))
        assert repeats[doomed_key] > 1

        fresh, _ = self.search(monkeypatch, fx, "hc", True, memo=False, doomed=doomed_key)
        memo, distinct = self.search(monkeypatch, fx, "hc", True, memo=True, doomed=doomed_key)
        assert fresh.failures > 1  # so the memo run replays a failure
        assert (memo.simulations, memo.failures) == (fresh.simulations, fresh.failures)
        assert _without_cached(memo.audit) == _without_cached(fresh.audit)
        failed = [r for r in memo.audit if r["failed"]]
        assert [r["cached"] for r in failed] == [False] + [True] * (len(failed) - 1)
        assert distinct.count(doomed_key) == 1


@pytest.mark.parametrize(
    "fixture_name, strategy, tables",
    [
        ("circadian", "hc", {"availability_histogram"}),
        ("window-overrun", "hc", {"availability_histogram", "window_start_histogram", "open_runs"}),
        ("window-overrun", "rl", {"availability_histogram", "window_start_histogram", "open_runs"}),
    ],
)
def test_a_search_builds_each_schedule_table_once(monkeypatch, fixture_name, strategy, tables):
    # the tables depend on the model alone: one search's compiled model
    # builds each once per activity, however many logs it detects
    from batchopt import analytics

    builds, detects = Counter(), Counter()
    for name in ("availability_histogram", "window_start_histogram", "open_runs"):
        def counted(model, activity_id, build=getattr(analytics, name), name=name):
            builds[name, activity_id] += 1
            return build(model, activity_id)

        monkeypatch.setattr(analytics, name, counted)
    for module in (opt, rlmod):
        def detect(*args, detect=module.detect_scenarios_from_stats):
            detects["calls"] += 1
            return detect(*args)

        monkeypatch.setattr(module, "detect_scenarios_from_stats", detect)
    fixture = get_fixture(fixture_name)
    config = opt.OptimizerConfig(strategy=strategy, rl=opt.RLConfig(max_iterations=10))
    runner = rlmod.optimize_rl if strategy == "rl" else opt.optimize_hc_sa
    runner(engine.compile_model(fixture.model()), fixture.policies(), config)
    assert detects["calls"] >= 3
    assert {name for name, _ in builds} == tables
    assert set(builds.values()) == {1}
