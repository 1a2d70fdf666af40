"""Policy-gradient search over the fixed intervention action space.

The agent walks the policy space one intervention per iteration: it
takes the pattern moves of the current candidate's log (the list HC and
SA expand, `optimize.pattern_moves`), masks the fixed (pattern id,
option slot) action grid down to the interventions they make available,
samples one from a linear softmax policy, simulates it, and scores the
move against the current front (dominate > improve > penalty).  A
linear state-value head provides the baseline and training uses the
clipped-ratio surrogate on full experience buffers.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .analytics import SCENARIO_IDS, AnalyticsError, LogStats, compute_stats
from .engine import CompiledModel, simulate
from .interventions import PolicyDelta, apply_delta
from .model import ProcessModel
from .optimize import (
    RL,
    CandidateEvaluator,
    Moves,
    OptimizeResult,
    OptimizerConfig,
    OptimizerError,
    RLConfig,
)
from .pareto import ParetoFront, Point, Solution, dominates, update_front
from .policy import PolicySet
from .reduce import dot, mean, pairwise_sum, running_sum
from .rng import unit

# not called here (optimize.pattern_moves derives RL's moves), but the
# benchmark's layer trace (perfbench/layers.py) wraps them under this name
from .analytics import detect_scenarios_from_stats  # noqa: F401
from .interventions import derive_interventions  # noqa: F401

ACTION_SLOTS = 4  # options kept per pattern id (one per scaling factor slot)
N_ACTIONS = len(SCENARIO_IDS) * ACTION_SLOTS
FEATURES_PER_ACTIVITY = 5
BATCH_SIZE_SCALE = 10.0  # soft normalizer for the mean-batch-size feature


def reward(front: ParetoFront, new_point: Point, rl: RLConfig) -> float:
    """Score of moving to new_point against the current front: full
    reward when it dominates every member, the improvement reward when
    the front accepts it, the penalty otherwise."""
    if not front.solutions:
        raise OptimizerError("reward needs a non-empty front")
    if all(dominates(new_point, s.point) for s in front.solutions):
        return rl.reward_dominates
    _, accepted = update_front(front, Solution({}, (new_point[0], new_point[1])))
    return rl.reward_improves if accepted else rl.reward_penalty


def state_vector(
    model: ProcessModel,
    stats: LogStats | None,
    point: Point,
    initial_point: Point,
) -> list[float]:
    """Fixed-length observation: five features per activity (sorted by
    id) plus the two objectives, everything scaled against the initial
    solution so magnitudes stay comparable across models."""
    ct0 = initial_point[0] if initial_point[0] > 0 else 1.0
    cost0 = initial_point[1] if initial_point[1] > 0 else 1.0
    features: list[float] = []
    total_cost = 0.0
    if stats is not None:
        total_cost = running_sum(a.total_cost for a in stats.activities)
    for activity in sorted(model.activities, key=lambda a: a.id):
        row = [0.0] * FEATURES_PER_ACTIVITY
        if stats is not None:
            try:
                a = stats.activity(activity.id)
            except AnalyticsError:
                a = None
            if a is not None:
                utilizations = [
                    stats.resource(rid).utilization for rid in activity.resources
                ]
                row = [
                    a.mean_first_wait / ct0,
                    a.mean_last_wait / ct0,
                    a.mean_batch_size / BATCH_SIZE_SCALE,
                    mean(utilizations) if utilizations else 0.0,
                    a.total_cost / total_cost if total_cost > 0 else 0.0,
                ]
        features.extend(row)
    features.append(point[0] / ct0)
    features.append(point[1] / cost0)
    return features


def available_actions(moves: Moves) -> dict[int, PolicyDelta]:
    """The unmasked slice of the action grid for a log's `pattern_moves`.

    Action id (pattern_id - 1) * ACTION_SLOTS + j selects the j-th delta
    derived for the first detected instance of that pattern (instances
    are ordered by activity, so the mapping is deterministic); a first
    instance whose derivation failed gives its pattern no action."""
    first_of = dict(reversed(moves))  # the first instance of each pattern
    return {
        (sid - 1) * ACTION_SLOTS + j: delta
        for sid, deltas in sorted(first_of.items())
        for j, delta in enumerate(deltas[:ACTION_SLOTS])
    }


class _Transition(NamedTuple):
    state: list[float]
    action: int
    reward: float
    mask: tuple[int, ...]
    logp: float


class _Agent:
    """Linear softmax policy over the masked action grid plus a linear
    value baseline, trained with the clipped-ratio objective."""

    def __init__(self, state_dim: int, rl: RLConfig):
        self.rl = rl
        self.weights = [[0.0] * state_dim for _ in range(N_ACTIONS)]
        self.bias = [0.0] * N_ACTIONS
        self.value_weights = [0.0] * state_dim
        self.value_bias = 0.0

    def probabilities(self, state: list[float], mask: tuple[int, ...]) -> list[float]:
        logits = [dot(self.weights[a], state) + self.bias[a] for a in mask]
        top = max(logits)
        exp = [math.exp(logit - top) for logit in logits]
        total = pairwise_sum(exp)
        return [e / total for e in exp]

    def sample(self, state: list[float], mask: tuple[int, ...], u: float) -> tuple[int, float]:
        probs = self.probabilities(state, mask)
        # the first position whose cumulative probability exceeds u
        position, cumulative = 0, probs[0]
        while cumulative <= u and position < len(mask) - 1:
            position += 1
            cumulative += probs[position]
        return mask[position], math.log(probs[position])

    def value(self, state: list[float]) -> float:
        return dot(self.value_weights, state) + self.value_bias

    def train(self, batch: list[_Transition]) -> None:
        lr = self.rl.learning_rate
        clip = self.rl.clip_ratio
        for _ in range(self.rl.update_epochs):
            for t in batch:
                advantage = t.reward - self.value(t.state)
                probs = self.probabilities(t.state, t.mask)
                position = t.mask.index(t.action)
                ratio = probs[position] / math.exp(t.logp)
                clipped_out = (advantage >= 0 and ratio > 1 + clip) or (
                    advantage < 0 and ratio < 1 - clip
                )
                if not clipped_out:
                    # d log pi(a|s) / d logits = onehot(a) - pi over the mask
                    step = lr * advantage * ratio
                    for i, action_id in enumerate(t.mask):
                        g = 1.0 - probs[i] if i == position else -probs[i]
                        scale = step * g
                        self.weights[action_id] = [
                            w + scale * s for w, s in zip(self.weights[action_id], t.state)
                        ]
                        self.bias[action_id] += scale
                error = self.value(t.state) - t.reward
                scale = lr * error
                self.value_weights = [w - scale * s for w, s in zip(self.value_weights, t.state)]
                self.value_bias -= scale


def optimize_rl(
    model: CompiledModel | ProcessModel, initial_policies: PolicySet, config: OptimizerConfig
) -> OptimizeResult:
    if config.strategy != RL:
        raise OptimizerError(f"strategy must be {RL!r}, got {config.strategy!r}")
    rl = config.rl

    search = CandidateEvaluator(model, config, simulate, compute_stats, apply_delta)
    model = search.model
    root, evaluation = search.start(initial_policies, reward=None)
    current = root
    state = state_vector(model, search.stats(evaluation), root.point, root.point)
    agent = _Agent(len(state), rl)
    buffer: list[_Transition] = []

    for iteration in range(1, rl.max_iterations + 1):
        actions = available_actions(search.moves(evaluation, current.policies))
        if not actions:
            break
        mask = tuple(sorted(actions))
        action, logp = agent.sample(state, mask, unit(config.seed, "action", iteration))
        evaluated = search.evaluate(iteration, current, actions[action], reward=None)
        if evaluated is None:
            continue
        child, child_evaluation, row = evaluated
        move_reward = reward(search.front, child.point, rl)
        search.front, row["accepted"] = update_front(search.front, child)
        next_state = state_vector(model, search.stats(child_evaluation), child.point, root.point)
        buffer.append(_Transition(state, action, move_reward, mask, logp))
        if len(buffer) >= rl.buffer_size:
            agent.train(buffer)
            buffer = []
        row["reward"] = move_reward
        search.record(row)
        # the walk always advances, even onto a penalized candidate
        current, evaluation, state = child, child_evaluation, next_state

    return search.result()
