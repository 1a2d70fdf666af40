"""Search over batching policy sets with a shared hill-climbing /
simulated-annealing skeleton.

Both strategies expand one queued candidate per outer iteration into a
set of policy deltas (guided: derived from the candidate's own detected
inefficiency patterns; unguided: the same number of random moves),
simulate each delta, and keep non-dominated results.  Hill climbing also
keeps near-front candidates within a distance radius; annealing keeps
distant candidates with probability e^(-dist/temperature) and cools
until it degenerates into radius-0 hill climbing.

Every random draw is keyed to an isolated named stream so the two
strategies consume identical simulation seeds along identical paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .analytics import (
    AnalyticsError,
    DetectionConfig,
    LogStats,
    compute_stats,
    detect_scenarios_from_stats,
)
from .engine import SimConfig, SimulationError, simulate
from .eventlog import EventLog
from .interventions import (
    ADD_CONDITION,
    ADD_SCHEDULE,
    REPLACE_THRESHOLD,
    SCALE_SIZE,
    TOGGLE_BATCH_TYPE,
    InterventionConfig,
    InterventionError,
    PolicyDelta,
    apply_delta,
    delta_to_doc,
    derive_interventions,
)
from .model import ProcessModel
from .pareto import ParetoFront, Solution, distance_to_front, update_front
from .policy import SIZE, WT_FIRST, WT_LAST, PolicySet
from .rng import Stream, derive_seed, round_half_up, unit

HC = "hc"
SA = "sa"
RL = "rl"
STRATEGIES = (HC, SA, RL)

DEFAULT_PERTURBATIONS = 5
FALLBACK_MAX_WAIT = 8 * 3600.0  # threshold draw range when nothing was observed

CONVERGENCE_CSV_HEADER = "simulations,best_cycle_time,best_cost"


class OptimizerError(RuntimeError):
    pass


@dataclass(frozen=True)
class RLConfig:
    """Learning controls; rewards must keep dominate > improve > penalty."""

    max_iterations: int = 50
    reward_dominates: float = 1.0
    reward_improves: float = 0.25
    reward_penalty: float = -0.05
    buffer_size: int = 16
    update_epochs: int = 4
    clip_ratio: float = 0.2
    learning_rate: float = 0.05

    def __post_init__(self):
        if not (self.reward_dominates > self.reward_improves > self.reward_penalty):
            raise OptimizerError(
                "rewards must be ordered dominate > improve > penalty, got "
                f"({self.reward_dominates}, {self.reward_improves}, {self.reward_penalty})"
            )
        if self.max_iterations < 0:
            raise OptimizerError("max_iterations must be >= 0")
        if self.buffer_size < 1:
            raise OptimizerError("buffer_size must be >= 1")
        if not 0 < self.clip_ratio < 1:
            raise OptimizerError("clip_ratio must lie in (0, 1)")
        if self.learning_rate <= 0:
            raise OptimizerError("learning_rate must be positive")


@dataclass(frozen=True)
class OptimizerConfig:
    strategy: str = HC
    guided: bool = True
    max_solutions: int = 50
    radius: float = 0.05
    initial_temperature: float = 1e9
    cooling_factor: float = 0.95
    temp_epsilon: float = 1e-3
    seed: int = 0
    sim: SimConfig = SimConfig()
    detection: DetectionConfig = DetectionConfig()
    intervention: InterventionConfig = InterventionConfig()
    rl: RLConfig = RLConfig()

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise OptimizerError(f"unknown strategy {self.strategy!r}")
        if self.max_solutions < 1:
            raise OptimizerError("max_solutions must be >= 1")
        if self.radius < 0:
            raise OptimizerError("radius must be >= 0")
        if not 0 < self.cooling_factor < 1:
            raise OptimizerError("cooling_factor must lie in (0, 1)")
        if self.initial_temperature <= 0 or self.temp_epsilon <= 0:
            raise OptimizerError("temperatures must be positive")


@dataclass
class OptimizeResult:
    front: ParetoFront
    audit: list[dict]
    convergence: list[dict]  # rows keyed simulations / best_cycle_time / best_cost
    simulations: int
    failures: int


@dataclass
class _Candidate:
    solution: Solution
    log: EventLog
    dist: float
    index: int  # insertion order, the hill-climbing tiebreaker


def _sim_config(config: OptimizerConfig, sim_index: int) -> SimConfig:
    return replace(config.sim, seed=derive_seed(config.seed, "sim", sim_index))


def guided_deltas(
    model: ProcessModel,
    log: EventLog,
    policies: PolicySet,
    stats: LogStats | None,
    config: OptimizerConfig,
) -> list[PolicyDelta]:
    """All deltas the detected patterns of this log prescribe, given its
    stats (None when they could not be computed: no deltas).

    Pattern instances whose derivation cannot be completed are skipped so
    one odd activity never stalls the search.
    """
    if stats is None:
        return []
    try:
        instances = detect_scenarios_from_stats(log, model, policies, stats, config.detection)
    except AnalyticsError:
        return []
    deltas: list[PolicyDelta] = []
    for instance in instances:
        try:
            deltas.extend(derive_interventions(instance, stats, policies, config.intervention))
        except InterventionError:
            continue
    return deltas


def random_perturbation(
    model: ProcessModel,
    stats: LogStats | None,
    policies: PolicySet,
    seed: int,
    config: InterventionConfig = InterventionConfig(),
    count: int = DEFAULT_PERTURBATIONS,
) -> list[PolicyDelta]:
    """count random neighborhood moves, uniform over five move kinds:
    rescale a size threshold, retune either waiting threshold, add a
    random weekly slot, or flip the batch type (batched activities only).

    Draws are keyed on (seed, move index) so a fixed seed reproduces the
    exact list regardless of call order."""
    activities = sorted(a.id for a in model.activities)
    stats_by_activity = {}
    max_wait = 0.0
    if stats is not None:
        for a in stats.activities:
            stats_by_activity[a.activity_id] = a
            if a.per_batch_max_waits:
                max_wait = max(max_wait, float(max(a.per_batch_max_waits)))
    if max_wait <= 0:
        max_wait = FALLBACK_MAX_WAIT

    deltas = []
    for i in range(count):
        activity_id = activities[int(unit(seed, i, "activity") * len(activities))]
        policy = policies.get(activity_id)
        astats = stats_by_activity.get(activity_id)
        cost_seed = 0.0
        if astats is not None and astats.execution_count > 0:
            cost_seed = astats.total_cost / astats.execution_count
        kinds = [SCALE_SIZE, WT_FIRST, WT_LAST, ADD_SCHEDULE]
        if policy is not None:
            kinds.append(TOGGLE_BATCH_TYPE)
        kind = kinds[int(unit(seed, i, "kind") * len(kinds))]

        if kind == SCALE_SIZE:
            grid = config.scale_grid
            lam = grid[int(unit(seed, i, "lambda") * len(grid))]
            if policy is not None and policy.rule.has_kind(SIZE):
                base = next(
                    g.find(SIZE).threshold for g in policy.rule.groups if g.find(SIZE)
                )
            else:
                base = 1.0  # a brand-new size condition starts minimal
            threshold = max(config.min_size, min(config.max_size, round_half_up(lam * base)))
            deltas.append(
                PolicyDelta(
                    activity_id,
                    SCALE_SIZE,
                    scale=lam,
                    new_threshold=float(threshold),
                    new_policy_fixed_cost=cost_seed,
                )
            )
        elif kind in (WT_FIRST, WT_LAST):
            threshold = unit(seed, i, "wait") * max_wait
            op = (
                REPLACE_THRESHOLD
                if policy is not None and policy.rule.has_kind(kind)
                else ADD_CONDITION
            )
            deltas.append(
                PolicyDelta(
                    activity_id,
                    op,
                    condition_kind=kind,
                    new_threshold=threshold,
                    new_policy_fixed_cost=cost_seed,
                )
            )
        elif kind == ADD_SCHEDULE:
            day = int(unit(seed, i, "day") * 7)
            hour = int(unit(seed, i, "hour") * 24)
            deltas.append(
                PolicyDelta(
                    activity_id,
                    ADD_SCHEDULE,
                    schedule=((day, hour),),
                    new_policy_fixed_cost=cost_seed,
                )
            )
        else:
            deltas.append(PolicyDelta(activity_id, TOGGLE_BATCH_TYPE))
    return deltas


def _candidate_deltas(
    model: ProcessModel,
    candidate: _Candidate,
    config: OptimizerConfig,
    iteration: int,
) -> list[PolicyDelta]:
    try:
        stats = compute_stats(candidate.log, model)
    except AnalyticsError:
        stats = None
    derived = guided_deltas(model, candidate.log, candidate.solution.policies, stats, config)
    if config.guided:
        return derived
    # the unguided baseline spends exactly the budget the guided search
    # would have spent on this candidate, but on random moves
    return random_perturbation(
        model,
        stats,
        candidate.solution.policies,
        seed=derive_seed(config.seed, "perturb", iteration),
        config=config.intervention,
        count=len(derived),
    )


def optimize_hc_sa(
    model: ProcessModel, initial_policies: PolicySet, config: OptimizerConfig
) -> OptimizeResult:
    if config.strategy not in (HC, SA):
        raise OptimizerError(f"strategy must be {HC!r} or {SA!r}, got {config.strategy!r}")

    audit: list[dict] = []
    convergence: list[dict] = []
    simulations = 0
    failures = 0

    def record_convergence(front: ParetoFront) -> None:
        convergence.append(
            {
                "simulations": simulations,
                "best_cycle_time": min(s.point[0] for s in front.solutions),
                "best_cost": min(s.point[1] for s in front.solutions),
            }
        )

    try:
        initial = simulate(model, initial_policies, _sim_config(config, 0))
    except SimulationError as err:
        raise OptimizerError(f"initial solution failed to simulate: {err}") from err
    simulations = 1
    root = Solution(dict(initial_policies), initial.objectives.point, log_ref="sim-00000")
    front = ParetoFront((root,))
    queue = [_Candidate(root, initial.log, 0.0, 0)]
    next_insert = 1
    audit.append(
        {
            "sim": 0,
            "iteration": 0,
            "parent": "",
            "delta": None,
            "point": list(root.point),
            "dist": 0.0,
            "accepted": True,
            "enqueued": True,
            "failed": False,
        }
    )
    record_convergence(front)

    mode = config.strategy
    radius = config.radius
    temperature = config.initial_temperature
    if mode == SA and temperature < config.temp_epsilon:
        mode = HC
        radius = 0.0

    pop_stream = Stream(config.seed, "sa-pop")
    accept_stream = Stream(config.seed, "sa-accept")
    requeue_stream = Stream(config.seed, "sa-requeue")

    iteration = 0
    while queue and simulations < config.max_solutions:
        iteration += 1
        if mode == HC:
            at = min(range(len(queue)), key=lambda i: (queue[i].dist, queue[i].index))
        else:
            at = int(pop_stream.next_unit() * len(queue))
        parent = queue.pop(at)

        for delta in _candidate_deltas(model, parent, config, iteration):
            if simulations >= config.max_solutions:
                break
            row = {
                "sim": None,
                "iteration": iteration,
                "parent": parent.solution.log_ref,
                "delta": delta_to_doc(delta),
                "point": None,
                "dist": None,
                "accepted": False,
                "enqueued": False,
                "failed": False,
            }
            try:
                policies = apply_delta(parent.solution.policies, delta)
            except InterventionError as err:
                row["failed"] = True
                row["error"] = f"delta not applicable: {err}"
                audit.append(row)
                continue
            sim_index = simulations
            row["sim"] = sim_index
            try:
                result = simulate(model, policies, _sim_config(config, sim_index))
            except SimulationError as err:
                simulations += 1
                failures += 1
                row["failed"] = True
                row["error"] = str(err)
                audit.append(row)
                record_convergence(front)
                if failures * 2 > simulations:
                    raise OptimizerError(
                        f"aborting: {failures} of {simulations} simulations failed; "
                        f"last error: {err}"
                    ) from err
                continue
            simulations += 1
            child = Solution(
                policies,
                result.objectives.point,
                log_ref=f"sim-{sim_index:05d}",
                lineage=parent.solution.lineage + (delta_to_doc(delta),),
            )
            dist = distance_to_front(front, child.point)
            row["point"] = list(child.point)
            row["dist"] = dist
            if dist == 0.0:
                front, accepted = update_front(front, child)
                row["accepted"] = accepted
                queue.append(_Candidate(child, result.log, 0.0, next_insert))
                next_insert += 1
                row["enqueued"] = True
            elif mode == HC:
                if dist < radius:
                    queue.append(_Candidate(child, result.log, dist, next_insert))
                    next_insert += 1
                    row["enqueued"] = True
            else:
                if accept_stream.next_unit() < math.exp(-dist / temperature):
                    queue.append(_Candidate(child, result.log, dist, next_insert))
                    next_insert += 1
                    row["enqueued"] = True
            audit.append(row)
            record_convergence(front)

        if mode == SA:
            temperature *= config.cooling_factor
            queue = [
                c
                for c in queue
                if c.dist == 0.0
                or requeue_stream.next_unit() < math.exp(-c.dist / temperature)
            ]
            if temperature < config.temp_epsilon:
                mode = HC
                radius = 0.0
                queue = [c for c in queue if c.dist == 0.0]

    return OptimizeResult(front, audit, convergence, simulations, failures)


def render_convergence_csv(rows: list[dict]) -> str:
    lines = [CONVERGENCE_CSV_HEADER]
    lines.extend(
        f"{r['simulations']},{r['best_cycle_time']!r},{r['best_cost']!r}" for r in rows
    )
    return "\n".join(lines) + "\n"


# -- config documents ---------------------------------------------------------


def _build(cls, doc: dict, where: str, field_map: dict[str, str]):
    unknown = set(doc) - set(field_map)
    if unknown:
        raise OptimizerError(f"{where}: unknown keys {sorted(unknown)}")
    kwargs = {field_map[k]: v for k, v in doc.items()}
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as err:
        raise OptimizerError(f"{where}: {err}") from err


_SIM_KEYS = {
    "seed": "seed",
    "totalCases": "total_cases",
    "warmup": "warmup",
    "cycleTimeMode": "cycle_time_mode",
}
_DETECTION_KEYS = {
    "waitQuantile": "wait_quantile",
    "processingQuantile": "processing_quantile",
    "concentrationShare": "concentration_share",
    "topK": "top_k",
    "sizeCap": "size_cap",
    "idleShare": "idle_share",
    "costShare": "cost_share",
    "freqShare": "freq_share",
    "similarityThreshold": "similarity_threshold",
    "utilizationHigh": "utilization_high",
    "utilizationLow": "utilization_low",
    "switchHigh": "switch_high",
    "switchLow": "switch_low",
}
_INTERVENTION_KEYS = {
    "scaleGrid": "scale_grid",
    "minSize": "min_size",
    "maxSize": "max_size",
    "topK": "top_k",
}
_RL_KEYS = {
    "maxIterations": "max_iterations",
    "rewardDominates": "reward_dominates",
    "rewardImproves": "reward_improves",
    "rewardPenalty": "reward_penalty",
    "bufferSize": "buffer_size",
    "updateEpochs": "update_epochs",
    "clipRatio": "clip_ratio",
    "learningRate": "learning_rate",
}
_TOP_KEYS = {
    "strategy": "strategy",
    "guided": "guided",
    "maxSolutions": "max_solutions",
    "radius": "radius",
    "initialTemperature": "initial_temperature",
    "coolingFactor": "cooling_factor",
    "tempEpsilon": "temp_epsilon",
    "seed": "seed",
}


def parse_optimizer_config(doc) -> OptimizerConfig:
    """Read the JSON optimizer-config document shape."""
    if not isinstance(doc, dict):
        raise OptimizerError("optimizer config must be an object")
    top = {k: v for k, v in doc.items() if k in _TOP_KEYS}
    rest = set(doc) - set(_TOP_KEYS) - {"sim", "detection", "intervention", "rl"}
    if rest:
        raise OptimizerError(f"optimizer config: unknown keys {sorted(rest)}")
    sim_doc = dict(doc.get("sim", {}))
    intervention_doc = dict(doc.get("intervention", {}))
    if "scaleGrid" in intervention_doc:
        intervention_doc["scaleGrid"] = tuple(intervention_doc["scaleGrid"])
    kwargs = {_TOP_KEYS[k]: v for k, v in top.items()}
    if "strategy" in kwargs:
        kwargs["strategy"] = str(kwargs["strategy"]).lower()
    return OptimizerConfig(
        sim=_build(SimConfig, sim_doc, "sim", _SIM_KEYS),
        detection=_build(DetectionConfig, dict(doc.get("detection", {})), "detection", _DETECTION_KEYS),
        intervention=_build(InterventionConfig, intervention_doc, "intervention", _INTERVENTION_KEYS),
        rl=_build(RLConfig, dict(doc.get("rl", {})), "rl", _RL_KEYS),
        **kwargs,
    )


def optimizer_config_to_doc(config: OptimizerConfig) -> dict:
    return {
        "strategy": config.strategy,
        "guided": config.guided,
        "maxSolutions": config.max_solutions,
        "radius": config.radius,
        "initialTemperature": config.initial_temperature,
        "coolingFactor": config.cooling_factor,
        "tempEpsilon": config.temp_epsilon,
        "seed": config.seed,
        "sim": {
            "seed": config.sim.seed,
            "totalCases": config.sim.total_cases,
            "warmup": config.sim.warmup,
            "cycleTimeMode": config.sim.cycle_time_mode,
        },
        "detection": {k: getattr(config.detection, v) for k, v in _DETECTION_KEYS.items()},
        "intervention": {
            "scaleGrid": list(config.intervention.scale_grid),
            "minSize": config.intervention.min_size,
            "maxSize": config.intervention.max_size,
            "topK": config.intervention.top_k,
        },
        "rl": {k: getattr(config.rl, v) for k, v in _RL_KEYS.items()},
    }
