"""Search over batching policy sets with a shared hill-climbing /
simulated-annealing skeleton.

Both strategies expand one queued candidate per outer iteration into a
set of policy deltas (guided: derived from the candidate's own detected
inefficiency patterns; unguided: the same number of random moves from
`interventions.random_perturbation`, built by the same move constructors),
simulate each delta, and keep non-dominated results.  Hill climbing also
keeps near-front candidates within a distance radius; annealing keeps
distant candidates with probability e^(-dist/temperature) and cools
until it degenerates into radius-0 hill climbing.  This module spells no
move itself: every delta kind lives in `interventions`.

Every random draw is keyed to an isolated named stream, so no draw of
one stream shifts another's.

All three strategies read one move list per evaluated log, derived once
by `pattern_moves`; rl.py projects it onto its action grid.

HC/SA and RL (rl.py) evaluate candidates through one `CandidateEvaluator`:
it simulates the initial set, applies each delta, simulates the child,
audits it, records convergence and aborts once more than half the
simulations failed.  Candidates are compared under common random
numbers: every simulation of a run uses one seed, derived from the
optimizer seed (`sim.seed` is not read), and replays one
`engine.SamplePath`, so two policy sets see the same arrivals, durations
and branch draws.  A policy set therefore simulates to the same bytes
whenever the run asks for it, and the evaluator keeps a per-run memo
keyed by `policy_set_key` that replays a repeated set's result or
failure instead of simulating it again, together with its log stats and
the moves derived from its log.  A replay still counts as a simulation:
sim indices, log refs, convergence rows, the budget and the abort rule
are the same as without the memo, and the audit row says
`"cached": true`.  The memo keeps a log only until its stats are
computed or no queued candidate can expand it; a set whose log was
dropped is simulated again on the run's path when its stats are needed.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .analytics import (
    AnalyticsError,
    DetectionConfig,
    LogStats,
    ScheduleTables,
    compute_stats,
    detect_scenarios_from_stats,
)
from .codec import check_fields, from_doc
from .engine import (
    CompiledModel,
    SamplePath,
    SimConfig,
    SimulationError,
    as_compiled,
    simulate,
)
from .eventlog import EventLog
from .interventions import (
    InterventionConfig,
    InterventionError,
    PolicyDelta,
    apply_delta,
    delta_to_doc,
    derive_interventions,
    random_perturbation,
)
from .model import ProcessModel
from .pareto import ParetoFront, Solution, distance_to_front, update_front
from .policy import PolicySet, policy_set_key
from .records import Config
from .rng import Stream, derive_seed

HC = "hc"
SA = "sa"
RL = "rl"
STRATEGIES = (HC, SA, RL)

MAX_BUDGET = 1_000_000  # the most simulations, iterations or epochs a config document may ask

CONVERGENCE_CSV_HEADER = "simulations,best_cycle_time,best_cost"


class OptimizerError(RuntimeError):
    pass


class RLConfig(Config):
    """Learning controls; rewards must keep dominate > improve > penalty."""

    max_iterations: int = 50
    reward_dominates: float = 1.0
    reward_improves: float = 0.25
    reward_penalty: float = -0.05
    buffer_size: int = 16
    update_epochs: int = 4
    clip_ratio: float = 0.2
    learning_rate: float = 0.05

    def _check(self) -> None:
        check_fields(self, OptimizerError)
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


class OptimizerConfig(Config):
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

    def _check(self) -> None:
        check_fields(self, OptimizerError)
        if self.strategy not in STRATEGIES:
            raise OptimizerError(f"unknown strategy {self.strategy!r}")
        if self.strategy == RL and not self.guided:
            raise OptimizerError(
                "strategy rl needs guided: its action space is the intervention set"
            )
        if self.max_solutions < 1:
            raise OptimizerError("max_solutions must be >= 1")
        if self.radius < 0:
            raise OptimizerError("radius must be >= 0")
        if not 0 < self.cooling_factor < 1:
            raise OptimizerError("cooling_factor must lie in (0, 1)")
        if self.initial_temperature <= 0 or self.temp_epsilon <= 0:
            raise OptimizerError("temperatures must be positive")


def simulation_seed(config: OptimizerConfig) -> int:
    """The seed every simulation of a search run under `config` uses,
    derived from the optimizer seed; `config.sim.seed` is not read."""
    return derive_seed(config.seed, "sim", 0)


class OptimizeResult(NamedTuple):
    front: ParetoFront
    audit: list[dict]
    convergence: list[dict]  # rows keyed simulations / best_cycle_time / best_cost
    simulations: int
    failures: int


_PENDING = object()  # a lazily computed Evaluation field not computed yet

Moves = list[tuple[int, list[PolicyDelta]]]  # see pattern_moves


class Evaluation:
    """One simulated policy set: the objective point of its result, or the
    error its simulation raised, plus what the search derives from its
    log, each computed at most once.  Every candidate with an equal set
    shares it.  `log` is the result's log until its stats are computed or
    the search drops it (None from then on, and for a failure)."""

    __slots__ = ("policies", "point", "log", "error", "stats", "moves")

    def __init__(self, policies: PolicySet):
        self.policies = policies
        self.point: tuple[float, float] | None = None
        self.log: EventLog | None = None
        self.error: SimulationError | None = None
        self.stats: object = _PENDING  # LogStats, or None when they cannot be computed
        self.moves: Moves | None = None


class CandidateEvaluator:
    """The evaluate-candidate step of one search run, shared by HC/SA and RL.

    It owns the run's front, audit rows, convergence rows, simulation and
    failure counts, and the memo of `Evaluation`s keyed by
    `policy_set_key`.  Every simulation of the run uses `sim_config`, whose
    seed is derived from the optimizer seed, and replays `path`, so a
    replay is exactly what a fresh simulation of the set would give.
    `simulate`, `compute_stats` and `apply_delta` are the caller's module
    attributes, so each strategy's calls go through its own module's names.
    The model is compiled here unless it comes compiled, and every
    simulation of the run shares that compilation, as every detection
    shares the model's `ScheduleTables` in `schedules`.
    """

    def __init__(self, model: CompiledModel | ProcessModel, config: OptimizerConfig,
                 simulate, compute_stats, apply_delta):
        try:
            self.compiled = as_compiled(model)
        except SimulationError as err:
            raise OptimizerError(f"model cannot be simulated: {err}") from err
        self.model = self.compiled.model
        self.config = config
        self.sim_config = config.sim._replace(seed=simulation_seed(config))
        self.path = SamplePath()
        self._simulate = simulate
        self._compute_stats = compute_stats
        self._apply_delta = apply_delta
        self.schedules = ScheduleTables(self.model)
        self.memo: dict[tuple, Evaluation] = {}
        self.front: ParetoFront | None = None
        self.audit: list[dict] = []
        self.convergence: list[dict] = []
        self.simulations = 0
        self.failures = 0

    def _run(self, policies: PolicySet) -> tuple[Evaluation, bool]:
        """Simulation number `simulations` of `policies`, or the replay of
        an equal set's, and whether it was replayed."""
        key = policy_set_key(policies)
        evaluation = self.memo.get(key)
        cached = evaluation is not None
        if not cached:
            evaluation = self.memo[key] = Evaluation(policies)
            try:
                result = self._simulate(self.compiled, policies, self.sim_config, self.path)
            except SimulationError as err:
                evaluation.error = err
            else:
                evaluation.point, evaluation.log = result.objectives.point, result.log
        self.simulations += 1
        return evaluation, cached

    def start(self, initial_policies: PolicySet, **row) -> tuple[Solution, Evaluation]:
        """Simulate the initial set and make it the root of the front; `row`
        holds the strategy's own audit keys."""
        evaluation, _ = self._run(initial_policies)
        if evaluation.error is not None:
            raise OptimizerError(
                f"initial solution failed to simulate: {evaluation.error}"
            ) from evaluation.error
        root = Solution(dict(initial_policies), evaluation.point, log_ref="sim-00000")
        self.front = ParetoFront((root,))
        self.record(
            {
                "sim": 0,
                "iteration": 0,
                "parent": "",
                "delta": None,
                "point": list(root.point),
                "accepted": True,
                "failed": False,
                "cached": False,
                **row,
            }
        )
        return root, evaluation

    def evaluate(
        self, iteration: int, parent: Solution, delta: PolicyDelta, **row
    ) -> tuple[Solution, Evaluation, dict] | None:
        """Apply `delta` to `parent` and evaluate the child.

        Returns the child, its evaluation and its audit row (with the
        strategy's own keys from `row`), which the caller completes and
        passes to `record`.  Returns None when the delta does not apply or
        the simulation fails; both are audited here.  Raises OptimizerError
        once more than half the simulations have failed.
        """
        delta_doc = delta_to_doc(delta)
        row = {
            "sim": None,
            "iteration": iteration,
            "parent": parent.log_ref,
            "delta": delta_doc,
            "point": None,
            "accepted": False,
            "failed": False,
            "cached": False,
            **row,
        }
        try:
            policies = self._apply_delta(parent.policies, delta)
        except InterventionError as err:
            row["failed"] = True
            row["error"] = f"delta not applicable: {err}"
            self.audit.append(row)
            return None
        sim_index = self.simulations
        row["sim"] = sim_index
        evaluation, row["cached"] = self._run(policies)
        if evaluation.error is not None:
            self.failures += 1
            row["failed"] = True
            row["error"] = str(evaluation.error)
            self.record(row)
            if self.failures * 2 > self.simulations:
                raise OptimizerError(
                    f"aborting: {self.failures} of {self.simulations} simulations failed; "
                    f"last error: {evaluation.error}"
                ) from evaluation.error
            return None
        child = Solution(
            policies,
            evaluation.point,
            log_ref=f"sim-{sim_index:05d}",
            lineage=parent.lineage + (delta_doc,),
        )
        row["point"] = list(child.point)
        return child, evaluation, row

    def record(self, row: dict) -> None:
        """Audit `row` and note the front's best objectives after it."""
        self.audit.append(row)
        self.convergence.append(
            {
                "simulations": self.simulations,
                "best_cycle_time": min(s.point[0] for s in self.front.solutions),
                "best_cost": min(s.point[1] for s in self.front.solutions),
            }
        )

    def stats(self, evaluation: Evaluation) -> LogStats | None:
        """The stats of the evaluation's log, computed on first use (None
        when they cannot be computed).  A dropped log is simulated again on
        the run's path, which gives the same bytes; the log is dropped once
        its stats are computed."""
        if evaluation.stats is _PENDING:
            log = evaluation.log
            if log is None:
                log = self._simulate(
                    self.compiled, evaluation.policies, self.sim_config, self.path
                ).log
            evaluation.log = None
            try:
                evaluation.stats = self._compute_stats(log, self.model)
            except AnalyticsError:
                evaluation.stats = None
        return evaluation.stats

    def moves(self, evaluation: Evaluation, policies: PolicySet) -> Moves:
        """The `pattern_moves` of the evaluation's log under `policies`,
        derived on first use."""
        if evaluation.moves is None:
            evaluation.moves = pattern_moves(
                self.model, policies, self.stats(evaluation), self.config, self.schedules
            )
        return evaluation.moves

    def result(self) -> OptimizeResult:
        return OptimizeResult(
            self.front, self.audit, self.convergence, self.simulations, self.failures
        )


class _Candidate(NamedTuple):
    solution: Solution
    evaluation: Evaluation
    dist: float


def pattern_moves(
    model: ProcessModel,
    policies: PolicySet,
    stats: LogStats | None,
    config: OptimizerConfig,
    schedules: ScheduleTables,
) -> Moves:
    """The moves the detected patterns of a log prescribe, given its stats
    (None when they could not be computed: no moves) and the model's
    schedule tables: one `(scenario_id, deltas)` per detected instance, in
    detection order.  HC and SA expand every delta, RL's action grid
    projects them.  A detection that raises gives no moves, and an
    instance whose derivation raises gives `[]`, so one odd activity never
    stalls the search.
    """
    if stats is None:
        return []
    try:
        instances = detect_scenarios_from_stats(
            model, policies, stats, config.detection, schedules
        )
    except AnalyticsError:
        return []
    moves = []
    for instance in instances:
        try:
            deltas = derive_interventions(instance, stats, policies, config.intervention)
        except InterventionError:
            deltas = []
        moves.append((instance.scenario_id, deltas))
    return moves


def optimize_hc_sa(
    model: CompiledModel | ProcessModel, initial_policies: PolicySet, config: OptimizerConfig
) -> OptimizeResult:
    if config.strategy not in (HC, SA):
        raise OptimizerError(f"strategy must be {HC!r} or {SA!r}, got {config.strategy!r}")

    search = CandidateEvaluator(model, config, simulate, compute_stats, apply_delta)
    root, evaluation = search.start(initial_policies, dist=0.0, enqueued=True)
    queue = [_Candidate(root, evaluation, 0.0)]  # kept in insertion order

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
    while queue and search.simulations < config.max_solutions:
        iteration += 1
        if mode == HC:
            # the first of the nearest: insertion order breaks ties
            at = min(range(len(queue)), key=lambda i: queue[i].dist)
        else:
            at = int(pop_stream.next_unit() * len(queue))
        parent = queue.pop(at)
        policies = parent.solution.policies
        deltas = [d for _, derived in search.moves(parent.evaluation, policies) for d in derived]
        if not config.guided:
            # the unguided baseline spends exactly the budget the guided
            # search would have spent on this candidate, but on random moves
            deltas = random_perturbation(
                search.model,
                search.stats(parent.evaluation),
                policies,
                seed=derive_seed(config.seed, "perturb", iteration),
                config=config.intervention,
                count=len(deltas),
            )

        for delta in deltas:
            if search.simulations >= config.max_solutions:
                break
            evaluated = search.evaluate(
                iteration, parent.solution, delta, dist=None, enqueued=False
            )
            if evaluated is None:
                continue
            child, evaluation, row = evaluated
            dist = distance_to_front(search.front, child.point)
            row["dist"] = dist
            if dist == 0.0:
                search.front, row["accepted"] = update_front(search.front, child)
                enqueue = True
            elif mode == HC:
                enqueue = dist < radius
            else:
                enqueue = accept_stream.next_unit() < math.exp(-dist / temperature)
            if enqueue:
                queue.append(_Candidate(child, evaluation, dist))
                row["enqueued"] = True
            elif not row["cached"]:
                evaluation.log = None  # no queued candidate can expand it
            search.record(row)

        if mode == SA:
            temperature *= config.cooling_factor
            kept = [
                c
                for c in queue
                if c.dist == 0.0
                or requeue_stream.next_unit() < math.exp(-c.dist / temperature)
            ]
            if temperature < config.temp_epsilon:
                mode = HC
                radius = 0.0
                kept = [c for c in kept if c.dist == 0.0]
            held = {c.evaluation for c in kept}
            for c in queue:
                if c.evaluation not in held:
                    c.evaluation.log = None
            queue = kept

    return search.result()


def render_convergence_csv(rows: list[dict]) -> str:
    lines = [CONVERGENCE_CSV_HEADER]
    lines.extend(
        f"{r['simulations']},{r['best_cycle_time']!r},{r['best_cost']!r}" for r in rows
    )
    return "\n".join(lines) + "\n"


def parse_optimizer_config(doc) -> OptimizerConfig:
    """Read an optimizer-config document (see `codec.from_doc`); a string
    strategy is matched without regard to case, and `maxSolutions`,
    `rl.maxIterations` and `rl.updateEpochs` may be at most `MAX_BUDGET`."""
    if isinstance(doc, dict) and isinstance(doc.get("strategy"), str):
        doc = {**doc, "strategy": doc["strategy"].lower()}
    config = from_doc(OptimizerConfig, doc, OptimizerError)
    for key, value in (
        ("maxSolutions", config.max_solutions),
        ("rl.maxIterations", config.rl.max_iterations),
        ("rl.updateEpochs", config.rl.update_epochs),
    ):
        if value > MAX_BUDGET:
            raise OptimizerError(f"$.{key}: must be at most {MAX_BUDGET}")
    return config
