import pytest

from batchopt import rl as rlmod
from batchopt.analytics import compute_stats
from batchopt.engine import simulate
from batchopt.fixtures import enumerate_oracle_front, get_fixture
from batchopt.interventions import InterventionConfig
from batchopt.optimize import OptimizerConfig, OptimizerError, RLConfig
from batchopt.pareto import ParetoFront, Solution


def front_of(*points):
    return ParetoFront(tuple(Solution({}, p) for p in sorted(points)))


def front_points(front):
    return sorted(s.point for s in front.solutions)


def rl_config(fixture, **overrides):
    overrides.setdefault("strategy", "rl")
    overrides.setdefault("guided", True)
    overrides.setdefault("max_solutions", 10**9)
    return OptimizerConfig(**overrides)


class TestRewardShape:
    def setup_method(self):
        self.rl = RLConfig()
        self.front = front_of((5.0, 5.0))

    def test_dominating_move_earns_full_reward(self):
        assert rlmod.reward(self.front, (4.0, 4.0), self.rl) == self.rl.reward_dominates

    def test_front_extension_earns_improvement(self):
        assert rlmod.reward(self.front, (4.0, 6.0), self.rl) == self.rl.reward_improves

    def test_dominated_move_is_penalized(self):
        assert rlmod.reward(self.front, (6.0, 6.0), self.rl) == self.rl.reward_penalty

    def test_duplicate_point_is_penalized(self):
        assert rlmod.reward(self.front, (5.0, 5.0), self.rl) == self.rl.reward_penalty

    def test_empty_front_rejected(self):
        with pytest.raises(OptimizerError):
            rlmod.reward(ParetoFront(), (1.0, 1.0), self.rl)

    def test_dominate_needs_every_member_beaten(self):
        two = front_of((5.0, 5.0), (1.0, 9.0))
        assert rlmod.reward(two, (4.0, 4.0), self.rl) == self.rl.reward_improves


class TestRLConfigValidation:
    def test_reward_ordering_enforced(self):
        with pytest.raises(OptimizerError):
            RLConfig(reward_dominates=0.1, reward_improves=0.2)

    def test_negative_iterations_rejected(self):
        with pytest.raises(OptimizerError):
            RLConfig(max_iterations=-1)

    def test_clip_ratio_open_interval(self):
        with pytest.raises(OptimizerError):
            RLConfig(clip_ratio=1.0)


class TestActionGrid:
    def setup_method(self):
        self.fixture = get_fixture("circadian")
        self.model = self.fixture.model()
        self.policies = self.fixture.policies()
        result = simulate(self.model, self.policies, self.fixture.sim_config())
        self.stats = compute_stats(result.log, self.model)

    def test_grid_covers_exactly_the_detected_patterns(self):
        config = rl_config(self.fixture, intervention=InterventionConfig(max_size=8))
        actions = rlmod.available_actions(self.model, self.policies, config, self.stats)
        sids = {a // rlmod.ACTION_SLOTS + 1 for a in actions}
        assert sids == set(self.fixture.scenario_ids)

    def test_action_ids_line_up_with_slots(self):
        config = rl_config(self.fixture, intervention=InterventionConfig(max_size=8))
        actions = rlmod.available_actions(self.model, self.policies, config, self.stats)
        for action_id in actions:
            assert 0 <= action_id < rlmod.N_ACTIONS
            assert action_id % rlmod.ACTION_SLOTS < rlmod.ACTION_SLOTS

    def test_no_stats_no_actions(self):
        config = rl_config(self.fixture)
        assert rlmod.available_actions(self.model, self.policies, config, None) == {}

    def test_state_vector_length(self):
        point = (100.0, 10.0)
        state = rlmod.state_vector(self.model, self.stats, point, point)
        expected = rlmod.FEATURES_PER_ACTIVITY * len(self.model.activities) + 2
        assert len(state) == expected

    def test_state_vector_scales_objectives_to_one_at_start(self):
        point = (100.0, 10.0)
        state = rlmod.state_vector(self.model, self.stats, point, point)
        assert state[-2] == 1.0
        assert state[-1] == 1.0


class TestOptimizeRL:
    def test_requires_rl_strategy(self):
        fx = get_fixture("monotone-tradeoff")
        config = OptimizerConfig(strategy="hc", guided=True)
        with pytest.raises(OptimizerError):
            rlmod.optimize_rl(fx.model(), fx.policies(), config)

    def test_requires_guided_mode(self):
        # the config itself rejects rl without guidance, before any search
        with pytest.raises(OptimizerError, match="strategy rl needs guided"):
            OptimizerConfig(strategy="rl", guided=False)

    def test_zero_iterations_returns_initial_point(self):
        fx = get_fixture("monotone-tradeoff")
        config = rl_config(fx, rl=RLConfig(max_iterations=0))
        res = rlmod.optimize_rl(fx.model(), fx.policies(), config)
        assert res.simulations == 1
        initial = simulate(fx.model(), fx.policies(), fx.sim_config())
        assert front_points(res.front) == [initial.objectives.point]

    def test_rerun_is_deterministic(self):
        fx = get_fixture("monotone-tradeoff")
        config = rl_config(
            fx,
            seed=3,
            rl=RLConfig(max_iterations=40),
            intervention=InterventionConfig(max_size=5),
        )
        a = rlmod.optimize_rl(fx.model(), fx.policies(), config)
        b = rlmod.optimize_rl(fx.model(), fx.policies(), config)
        assert a.audit == b.audit
        assert front_points(a.front) == front_points(b.front)
        assert a.simulations == b.simulations

    def test_walk_advances_even_after_penalty(self):
        fx = get_fixture("monotone-tradeoff")
        config = rl_config(
            fx,
            seed=0,
            rl=RLConfig(max_iterations=30),
            intervention=InterventionConfig(max_size=5),
        )
        res = rlmod.optimize_rl(fx.model(), fx.policies(), config)
        penalized = [
            r for r in res.audit
            if r["reward"] == config.rl.reward_penalty and not r["failed"]
        ]
        assert penalized, "a 30-step walk on a 10-point grid must revisit ground"
        # successors keep coming after the first penalty
        first = res.audit.index(penalized[0])
        assert any(r["sim"] is not None for r in res.audit[first + 1:])

    def test_long_walk_recovers_oracle_front(self):
        fx = get_fixture("monotone-tradeoff")
        oracle = enumerate_oracle_front(fx)
        config = rl_config(
            fx,
            seed=0,
            rl=RLConfig(max_iterations=200),
            intervention=InterventionConfig(max_size=5),
        )
        res = rlmod.optimize_rl(fx.model(), fx.policies(), config)
        assert front_points(res.front) == front_points(oracle)
        assert res.simulations == 201
