"""Command line front end: simulate, optimize, analyze, evaluate.

Each subcommand reads JSON documents, writes its outputs into one
directory, and finishes with a manifest recording the command, inputs,
effective configuration (and its hash), seed, tool version, and output
names. Primary outputs are deterministic for a given seed; the manifest
additionally carries the wall-clock duration and so is not compared
byte-for-byte.

Exit codes: 0 success, 2 missing input or usage error, 3 schema
violation in an input document, 4 runtime failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import replace

from . import __version__
from .analytics import AnalyticsError, compute_stats, detect_scenarios
from .codec import ParseError, to_doc
from .engine import (
    SimConfig,
    SimulationError,
    compile_model,
    parse_sim_config,
    simulate,
)
from .eventlog import (
    LAST_INSTANT,
    LogTimeError,
    filter_warmup,
    render_batch_csv,
    render_event_csv,
)
from .metrics import (
    FrontPointSet,
    MetricsError,
    build_reference_front,
    cycle_time_gain,
    mean_case_cycle_time,
    metrics_row,
    render_metrics_csv,
    weakly_dominates,
)
from .model import parse_model
from .optimize import (
    OptimizerConfig,
    OptimizerError,
    optimize_hc_sa,
    parse_optimizer_config,
    render_convergence_csv,
)
from .pareto import (
    ParetoError,
    ParetoFront,
    front_to_doc,
    parse_front,
    render_front_csv,
)
from .policy import PolicyError, parse_policies, policy_set_key
from .rl import optimize_rl

EXIT_OK = 0
EXIT_MISSING_INPUT = 2
EXIT_SCHEMA = 3
EXIT_RUNTIME = 4

OUT_ROOT_ENV = "BATCHOPT_OUT"

MANIFEST_FILE = "manifest.json"

_SCHEMA_ERRORS = (
    ParseError,
    PolicyError,
    ParetoError,
    SimulationError,
    OptimizerError,
)


class CliError(Exception):
    """A diagnosed failure carrying its exit code."""

    def __init__(self, exit_code: int, message: str):
        super().__init__(message)
        self.exit_code = exit_code


# -- document IO --------------------------------------------------------------


def _json_text(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def config_hash(doc) -> str:
    """Hash of a config document, invariant under key reordering."""
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _read_json(path: str, what: str):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except FileNotFoundError:
        raise CliError(EXIT_MISSING_INPUT, f"{what} file not found: {path}") from None
    except OSError as err:
        raise CliError(EXIT_MISSING_INPUT, f"cannot read {what} file {path}: {err}") from err
    try:
        return json.loads(text)
    except ValueError as err:  # a JSONDecodeError, or an integer too long to convert
        raise CliError(EXIT_SCHEMA, f"{what} file {path} is not valid JSON: {err}") from err


def _parse_doc(path: str, what: str, parser):
    doc = _read_json(path, what)
    try:
        return parser(doc)
    except _SCHEMA_ERRORS as err:
        raise CliError(EXIT_SCHEMA, f"{what} file {path}: {err}") from err


def _load_inputs(args):
    """The model file compiled (so validated once) and the policies file
    parsed, with every policy checked to name an activity of the model."""
    compiled = _parse_doc(args.model, "model", lambda doc: compile_model(parse_model(doc)))
    if args.policies is None:
        return compiled, {}
    policies = _parse_doc(args.policies, "policies", parse_policies)
    _check_activities(compiled.model, policies, f"policies file {args.policies}")
    return compiled, policies


def _check_activities(model, policies, where: str) -> None:
    """Exit 3 unless every policy names an activity of the model."""
    known = {a.id for a in model.activities}
    for activity_id in sorted(policies):
        if activity_id not in known:
            raise CliError(
                EXIT_SCHEMA, f"{where}: policy references unknown activity {activity_id!r}"
            )


# -- output plumbing ----------------------------------------------------------


class _OutputDir:
    """Collects written file names so the manifest can list them."""

    def __init__(self, root: str):
        self.root = root
        self.written: list[str] = []
        os.makedirs(root, exist_ok=True)

    def write(self, name: str, text: str) -> None:
        with open(os.path.join(self.root, name), "w", encoding="utf-8") as fh:
            fh.write(text)
        self.written.append(name)


def _resolve_out(args) -> _OutputDir:
    if args.out:
        return _OutputDir(args.out)
    root = os.environ.get(OUT_ROOT_ENV, ".")
    return _OutputDir(os.path.join(root, args.command))


def _write_manifest(out: _OutputDir, command: str, inputs: dict, effective_config: dict,
                    seed: int, started: float) -> None:
    manifest = {
        "command": command,
        "inputs": inputs,
        "configHash": config_hash(effective_config),
        "effectiveConfig": effective_config,
        "seed": seed,
        "version": __version__,
        "outputs": list(out.written),
        "durationSeconds": round(time.monotonic() - started, 6),
    }
    out.write(MANIFEST_FILE, _json_text(manifest))


# -- simulate -----------------------------------------------------------------


def cmd_simulate(args) -> int:
    started = time.monotonic()
    compiled, policies = _load_inputs(args)
    config = (
        _parse_doc(args.config, "run config", parse_sim_config) if args.config else SimConfig()
    )
    if args.seed is not None:
        config = replace(config, seed=args.seed)

    try:
        result = simulate(compiled, policies, config)
    except SimulationError as err:
        raise CliError(EXIT_RUNTIME, f"simulation failed: {err}") from err
    # no instant of a log comes after its last batch end
    if result.log.horizon > LAST_INSTANT:
        raise CliError(EXIT_RUNTIME, f"cannot write the log: {LogTimeError(result.log.horizon)}")

    out = _resolve_out(args)
    out.write("events.csv", render_event_csv(result.log))
    out.write("batches.csv", render_batch_csv(result.log))
    obj = result.objectives
    out.write(
        "objectives.json",
        _json_text(
            {
                "avgCycleTime": obj.avg_cycle_time,
                "avgCost": obj.avg_cost,
                "totalCycleTime": obj.total_cycle_time,
                "totalCost": obj.total_cost,
                "instances": obj.instance_count,
            }
        ),
    )
    _write_manifest(
        out,
        "simulate",
        {"model": args.model, "policies": args.policies or "", "config": args.config or ""},
        to_doc(config),
        config.seed,
        started,
    )
    print(
        f"simulated {obj.instance_count} instances: "
        f"avg cycle time {obj.avg_cycle_time!r}, avg cost {obj.avg_cost!r}"
    )
    return EXIT_OK


# -- optimize -----------------------------------------------------------------


def _effective_optimizer_config(args, parser: argparse.ArgumentParser) -> OptimizerConfig:
    if args.config:
        doc = _read_json(args.config, "optimizer config")
        budget = doc.get("maxSolutions") if isinstance(doc, dict) else None
        if type(budget) is int and budget < 1:  # a bool is no budget: exit 3 below
            parser.error("maxSolutions must be at least 1")
        try:
            config = parse_optimizer_config(doc)
        except OptimizerError as err:
            raise CliError(EXIT_SCHEMA, f"optimizer config file {args.config}: {err}") from err
    else:
        config = OptimizerConfig()
    overrides = {"seed": args.seed, "strategy": args.strategy, "guided": args.guided}
    try:
        config = replace(config, **{k: v for k, v in overrides.items() if v is not None})
    except OptimizerError as err:
        raise CliError(EXIT_SCHEMA, str(err)) from err
    return config


def cmd_optimize(args, parser: argparse.ArgumentParser) -> int:
    started = time.monotonic()
    compiled, policies = _load_inputs(args)
    config = _effective_optimizer_config(args, parser)

    runner = optimize_rl if config.strategy == "rl" else optimize_hc_sa
    try:
        result = runner(compiled, policies, config)
    except OptimizerError as err:
        raise CliError(EXIT_RUNTIME, f"optimization failed: {err}") from err

    label = config.strategy + ("+" if config.guided else "-")
    out = _resolve_out(args)
    out.write("front.json", _json_text(front_to_doc(result.front, label=label)))
    out.write("front.csv", render_front_csv(result.front))
    out.write(
        "audit.jsonl",
        "".join(json.dumps(row, sort_keys=True) + "\n" for row in result.audit),
    )
    out.write("convergence.csv", render_convergence_csv(result.convergence))
    _write_manifest(
        out,
        "optimize",
        {"model": args.model, "policies": args.policies or "", "config": args.config or ""},
        to_doc(config),
        config.seed,
        started,
    )
    print(
        f"{label}: front of {len(result.front)} after {result.simulations} simulations "
        f"({result.failures} failed)"
    )
    return EXIT_OK


# -- analyze ------------------------------------------------------------------


def _histogram_doc(hist) -> dict:
    return {f"{day}-{hour:02d}": value for (day, hour), value in sorted(hist.items())}


def cmd_analyze(args) -> int:
    started = time.monotonic()
    compiled, policies = _load_inputs(args)
    model = compiled.model
    config = (
        _parse_doc(args.config, "optimizer config", parse_optimizer_config)
        if args.config
        else OptimizerConfig()
    )
    sim_config = config.sim
    if args.seed is not None:
        sim_config = replace(sim_config, seed=args.seed)

    try:
        result = simulate(compiled, policies, sim_config)
        stats = compute_stats(result.log, model)
        scenarios = detect_scenarios(result.log, model, policies, config.detection, stats)
    except (SimulationError, AnalyticsError) as err:
        raise CliError(EXIT_RUNTIME, f"analysis failed: {err}") from err

    report = {
        "activities": [
            {
                "id": a.activity_id,
                "executions": a.execution_count,
                "batches": a.batch_count,
                "meanProcessingTime": a.mean_processing_time,
                "meanFirstWait": a.mean_first_wait,
                "meanLastWait": a.mean_last_wait,
                "meanBatchSize": a.mean_batch_size,
                "totalWaiting": a.total_waiting,
                "totalCost": a.total_cost,
                "idleBatchShare": a.idle_batch_share,
                "enablementHistogram": _histogram_doc(a.enablement_histogram),
                "executionHistogram": _histogram_doc(a.execution_histogram),
            }
            for a in stats.activities
        ],
        "resources": [
            {"id": r.resource_id, "utilization": r.utilization} for r in stats.resources
        ],
        "allocation": [
            {
                "activity": a.activity_id,
                "distinctResources": a.distinct_resource_count,
                "switchRate": a.switch_rate,
            }
            for a in stats.activities
        ],
        "scenarios": sorted(
            ({"activity": s.activity_id, "scenarioId": s.scenario_id} for s in scenarios),
            key=lambda row: (row["activity"], row["scenarioId"]),
        ),
    }
    out = _resolve_out(args)
    out.write("report.json", _json_text(report))
    _write_manifest(
        out,
        "analyze",
        {"model": args.model, "policies": args.policies or "", "config": args.config or ""},
        to_doc(replace(config, sim=sim_config)),
        sim_config.seed,
        started,
    )
    print(
        f"analyzed {len(stats.activities)} activities: "
        f"{len(report['scenarios'])} scenario hits"
    )
    return EXIT_OK


# -- evaluate -----------------------------------------------------------------


def _front_label(doc: dict, path: str) -> str:
    return doc.get("label") or os.path.splitext(os.path.basename(path))[0]


def _reference_solutions(reference: FrontPointSet, fronts: list[ParetoFront]) -> ParetoFront:
    """Rebuild a full front document for the reference point set by picking,
    per surviving point, the first input solution that produced it."""
    by_point = {}
    for front in fronts:
        for solution in front.solutions:
            by_point.setdefault(solution.point, solution)
    return ParetoFront(tuple(by_point[p] for p in reference.points))


def cmd_evaluate(args) -> int:
    started = time.monotonic()
    fronts: list[ParetoFront] = []
    runs: list[FrontPointSet] = []
    for path in args.fronts:
        doc = _read_json(path, "front")
        try:
            front = parse_front(doc)
            run = FrontPointSet(front.points, label=_front_label(doc, path))
        except (_SCHEMA_ERRORS + (MetricsError,)) as err:
            raise CliError(EXIT_SCHEMA, f"front file {path}: {err}") from err
        if not front.solutions:
            raise CliError(EXIT_SCHEMA, f"front file {path}: front has no solutions")
        fronts.append(front)
        runs.append(run)

    gain_context = None
    if args.model:
        compiled, policies = _load_inputs(args)
        for path, front in zip(args.fronts, fronts):
            for i, solution in enumerate(front.solutions):
                _check_activities(
                    compiled.model, solution.policies, f"front file {path}, solution {i}"
                )
        sim_config = (
            _parse_doc(args.config, "run config", parse_sim_config)
            if args.config
            else SimConfig()
        )
        try:
            initial = simulate(compiled, policies, sim_config)
        except SimulationError as err:
            raise CliError(EXIT_RUNTIME, f"initial simulation failed: {err}") from err
        # one memo for every front: each distinct policy set simulates once
        memo = {
            policy_set_key(policies): mean_case_cycle_time(
                filter_warmup(initial.log, sim_config.warmup)
            )
        }
        gain_context = (initial.log, compiled, sim_config, memo)

    reference = build_reference_front(runs)

    def gain_for(front: ParetoFront) -> float | None:
        if gain_context is None:
            return None
        initial_log, compiled, sim_config, memo = gain_context
        try:
            return cycle_time_gain(initial_log, front.solutions, compiled, sim_config, memo)
        except (SimulationError, MetricsError) as err:
            raise CliError(EXIT_RUNTIME, f"gain computation failed: {err}") from err

    rows = [metrics_row(run, reference, gain_for(front)) for run, front in zip(runs, fronts)]

    guided = [r for r in runs if r.label.endswith("+")]
    unguided = [r for r in runs if r.label.endswith("-")]
    verdict = ""
    if guided and unguided:
        plus = build_reference_front(guided, label="++")
        minus = build_reference_front(unguided, label="--")
        rows.append(metrics_row(plus, reference))
        rows.append(metrics_row(minus, reference))
        covered = weakly_dominates(plus, minus)
        verdict = f"++ weakly dominates --: {'yes' if covered else 'no'}"

    out = _resolve_out(args)
    out.write("metrics.csv", render_metrics_csv(rows))
    out.write("metrics.txt", _render_metrics_text(reference, rows, verdict))
    out.write(
        "reference_front.json",
        _json_text(front_to_doc(_reference_solutions(reference, fronts), label="reference")),
    )
    _write_manifest(
        out,
        "evaluate",
        {
            "fronts": list(args.fronts),
            "model": args.model or "",
            "policies": args.policies or "",
            "config": args.config or "",
        },
        {"fronts": [r.label for r in runs]},
        0,
        started,
    )
    print(f"evaluated {len(runs)} fronts against a reference of {len(reference)} points")
    return EXIT_OK


def _render_metrics_text(reference: FrontPointSet, rows: list[dict], verdict: str) -> str:
    lines = [f"reference front: {len(reference)} points"]
    header = f"{'label':<24} {'points':>6} {'hausdorff':>16} {'purity':>8} {'gain':>16}"
    lines.append(header)
    lines.append("-" * len(header))
    for row in rows:
        gain = row.get("gain")
        gain_cell = "" if gain is None else f"{gain:.6g}"
        lines.append(
            f"{row['label']:<24} {row['points']:>6} "
            f"{row['hausdorff']:>16.6g} {row['purity']:>8.4g} {gain_cell:>16}"
        )
    if verdict:
        lines.append(verdict)
    return "\n".join(lines) + "\n"


# -- entry point --------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="batchopt",
        description="Simulation-driven Pareto search over activity batching policies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def io_flags(p, model_required=True):
        p.add_argument("--model", required=model_required, help="process model JSON")
        p.add_argument("--policies", help="batching policies JSON")
        p.add_argument("--config", help="configuration JSON")
        p.add_argument("--out", help=f"output directory (default ${OUT_ROOT_ENV}/<command>)")
        p.add_argument("--seed", type=int, help="override the configured seed")

    p_sim = sub.add_parser("simulate", help="run one simulation and dump its log")
    io_flags(p_sim)

    p_opt = sub.add_parser("optimize", help="search for a Pareto front of policies")
    io_flags(p_opt)
    p_opt.add_argument("--strategy", choices=["hc", "sa", "rl"], help="override the strategy")
    guided = p_opt.add_mutually_exclusive_group()
    guided.add_argument(
        "--guided", dest="guided", action="store_true", default=None,
        help="use log-driven perturbations",
    )
    guided.add_argument(
        "--unguided", dest="guided", action="store_false",
        help="use random perturbations",
    )

    p_ana = sub.add_parser("analyze", help="dump per-activity stats and detected patterns")
    io_flags(p_ana)

    p_eval = sub.add_parser("evaluate", help="score two or more fronts against their reference")
    p_eval.add_argument("fronts", nargs="+", help="front JSON documents (at least two)")
    p_eval.add_argument("--model", help="process model JSON, enables the gain column")
    p_eval.add_argument("--policies", help="initial policies JSON for the gain baseline")
    p_eval.add_argument("--config", help="simulation run-control JSON for the gain baseline")
    p_eval.add_argument("--out", help=f"output directory (default ${OUT_ROOT_ENV}/<command>)")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "simulate":
            return cmd_simulate(args)
        if args.command == "optimize":
            return cmd_optimize(args, parser)
        if args.command == "analyze":
            return cmd_analyze(args)
        if args.command == "evaluate":
            if len(args.fronts) < 2:
                parser.error("evaluate needs at least two front documents")
            return cmd_evaluate(args)
    except CliError as err:
        print(f"error: {err}", file=sys.stderr)
        return err.exit_code
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
