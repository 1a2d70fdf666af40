"""Command line front end: simulate, optimize, analyze, evaluate.

Each `cmd_*` function reads JSON documents and computes, touching no
file: it returns its outputs as an ordered `{name: text}` dict, the
effective configuration document, its seed fields and a one-line summary.
`main` dispatches to it and, once it has succeeded, `_write_outputs`
creates the output directory, writes the outputs in order and finishes
with a manifest recording the command, inputs, effective configuration
(and its hash), seed (and, for `optimize`, `simSeed`, the seed its
simulations ran under), tool version, and output names. A failed command
thus leaves no directory. The price is memory: a command's rendered
outputs are all held at once until they are written (for `simulate`,
`events.csv` and `batches.csv` together). Primary outputs are deterministic for a given
seed; the manifest additionally carries the wall-clock duration and so
is not compared byte-for-byte.

Exit codes: 0 success, 2 missing input or usage error, 3 schema
violation in an input document, 4 runtime failure.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
import time

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
from .eventlog import render_batch_csv, render_event_csv
from .metrics import (
    CycleTimes,
    MetricsError,
    compare_fronts,
    cycle_time_gain,
    render_metrics_csv,
)
from .model import parse_model
from .optimize import (
    OptimizerConfig,
    OptimizerError,
    optimize_hc_sa,
    parse_optimizer_config,
    render_convergence_csv,
    simulation_seed,
)
from .pareto import (
    ParetoError,
    ParetoFront,
    front_to_doc,
    parse_front,
    render_front_csv,
)
from .policy import PolicyError, parse_policies
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


# what a command returns: its outputs in write order ({name: text}), the
# effective config document, its manifest's seed fields and its one-line
# summary
CommandResult = tuple[dict[str, str], dict, dict[str, int], str]


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


# -- configs ------------------------------------------------------------------


def _check_warmup(sim: SimConfig, model, where: str) -> None:
    """Exit 3 unless the warmup is below the case count: the config's
    `totalCases`, else the model's."""
    total = sim.total_cases or model.arrival.total_cases
    if sim.warmup >= total:
        message = f"warmup {sim.warmup} must be smaller than the case count {total}"
        raise CliError(EXIT_SCHEMA, f"{where}: {message}")


def _run_config(args, model) -> SimConfig:
    """The run config file parsed, or the defaults without one; its warmup
    is checked against `model`'s case count."""
    if not args.config:
        return SimConfig()
    config = _parse_doc(args.config, "run config", parse_sim_config)
    _check_warmup(config, model, f"run config file {args.config}")
    return config


def _optimizer_config(args, parser: argparse.ArgumentParser, model) -> OptimizerConfig:
    """The optimizer config file parsed, or the defaults without one; an
    integer `maxSolutions` below 1 is a usage error (exit 2), and the
    `sim` warmup is checked against `model`'s case count."""

    def parse(doc) -> OptimizerConfig:
        budget = doc.get("maxSolutions") if isinstance(doc, dict) else None
        if type(budget) is int and budget < 1:  # a bool is no budget: exit 3
            parser.error("maxSolutions must be at least 1")
        return parse_optimizer_config(doc)

    if not args.config:
        return OptimizerConfig()
    config = _parse_doc(args.config, "optimizer config", parse)
    _check_warmup(config.sim, model, f"optimizer config file {args.config}")
    return config


# -- simulate -----------------------------------------------------------------


def cmd_simulate(args, parser: argparse.ArgumentParser) -> CommandResult:
    compiled, policies = _load_inputs(args)
    config = _run_config(args, compiled.model)
    if args.seed is not None:
        config = config._replace(seed=args.seed)

    try:
        result = simulate(compiled, policies, config)
    except SimulationError as err:
        raise CliError(EXIT_RUNTIME, f"simulation failed: {err}") from err

    obj = result.objectives
    outputs = {
        "events.csv": render_event_csv(result.log),
        "batches.csv": render_batch_csv(result.log),
        "objectives.json": _json_text(
            {
                "avgCycleTime": obj.avg_cycle_time,
                "avgCost": obj.avg_cost,
                "totalCycleTime": obj.total_cycle_time,
                "totalCost": obj.total_cost,
                "instances": obj.instance_count,
            }
        ),
    }
    summary = (
        f"simulated {obj.instance_count} instances: "
        f"avg cycle time {obj.avg_cycle_time!r}, avg cost {obj.avg_cost!r}"
    )
    return outputs, to_doc(config), {"seed": config.seed}, summary


# -- optimize -----------------------------------------------------------------


def cmd_optimize(args, parser: argparse.ArgumentParser) -> CommandResult:
    compiled, policies = _load_inputs(args)
    config = _optimizer_config(args, parser, compiled.model)
    overrides = {"seed": args.seed, "strategy": args.strategy, "guided": args.guided}
    try:
        config = config._replace(**{k: v for k, v in overrides.items() if v is not None})
    except OptimizerError as err:
        raise CliError(EXIT_SCHEMA, str(err)) from err

    runner = optimize_rl if config.strategy == "rl" else optimize_hc_sa
    try:
        result = runner(compiled, policies, config)
    except OptimizerError as err:
        raise CliError(EXIT_RUNTIME, f"optimization failed: {err}") from err

    label = config.strategy + ("+" if config.guided else "-")
    outputs = {
        "front.json": _json_text(front_to_doc(result.front, label=label)),
        "front.csv": render_front_csv(result.front),
        "audit.jsonl": "".join(json.dumps(row, sort_keys=True) + "\n" for row in result.audit),
        "convergence.csv": render_convergence_csv(result.convergence),
    }
    summary = (
        f"{label}: front of {len(result.front)} after {result.simulations} simulations "
        f"({result.failures} failed)"
    )
    seeds = {"seed": config.seed, "simSeed": simulation_seed(config)}
    return outputs, to_doc(config), seeds, summary


# -- analyze ------------------------------------------------------------------


def _histogram_doc(hist) -> dict:
    return {f"{day}-{hour:02d}": value for (day, hour), value in sorted(hist.items())}


def cmd_analyze(args, parser: argparse.ArgumentParser) -> CommandResult:
    compiled, policies = _load_inputs(args)
    model = compiled.model
    config = _optimizer_config(args, parser, model)
    if args.seed is not None:
        config = config._replace(sim=config.sim._replace(seed=args.seed))

    try:
        result = simulate(compiled, policies, config.sim)
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
    summary = (
        f"analyzed {len(stats.activities)} activities: "
        f"{len(report['scenarios'])} scenario hits"
    )
    seeds = {"seed": config.sim.seed}
    return {"report.json": _json_text(report)}, to_doc(config), seeds, summary


# -- evaluate -----------------------------------------------------------------


def _front_label(doc: dict, path: str) -> str:
    return doc.get("label") or os.path.splitext(os.path.basename(path))[0]


def cmd_evaluate(args, parser: argparse.ArgumentParser) -> CommandResult:
    if len(args.fronts) < 2:
        parser.error("evaluate needs at least two front documents")
    if not args.model and (args.policies is not None or args.config is not None):
        parser.error("evaluate --policies and --config need --model")
    fronts: list[tuple[str, ParetoFront]] = []
    for path in args.fronts:
        doc = _read_json(path, "front")
        try:
            front = parse_front(doc)
        except _SCHEMA_ERRORS as err:
            raise CliError(EXIT_SCHEMA, f"front file {path}: {err}") from err
        if not front.solutions:
            raise CliError(EXIT_SCHEMA, f"front file {path}: front has no solutions")
        fronts.append((_front_label(doc, path), front))

    gains = None
    if args.model:
        compiled, policies = _load_inputs(args)
        for path, (_, front) in zip(args.fronts, fronts):
            for i, solution in enumerate(front.solutions):
                _check_activities(
                    compiled.model, solution.policies, f"front file {path}, solution {i}"
                )
        cycle_times = CycleTimes(compiled, _run_config(args, compiled.model))
        try:
            baseline = cycle_times.mean(policies)
        except (SimulationError, MetricsError) as err:
            raise CliError(EXIT_RUNTIME, f"initial simulation failed: {err}") from err
        try:
            gains = [cycle_time_gain(baseline, front.solutions, cycle_times) for _, front in fronts]
        except (SimulationError, MetricsError) as err:
            raise CliError(EXIT_RUNTIME, f"gain computation failed: {err}") from err

    reference, rows, covered = compare_fronts(fronts, gains)
    verdict = "" if covered is None else f"++ weakly dominates --: {'yes' if covered else 'no'}"
    outputs = {
        "metrics.csv": render_metrics_csv(rows),
        "metrics.txt": _render_metrics_text(reference, rows, verdict),
        "reference_front.json": _json_text(front_to_doc(reference, label="reference")),
    }
    summary = f"evaluated {len(fronts)} fronts against a reference of {len(reference)} points"
    return outputs, {"fronts": [label for label, _ in fronts]}, {"seed": 0}, summary


def _render_metrics_text(reference: ParetoFront, rows: list[dict], verdict: str) -> str:
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` uses, built on its first call and kept for the
    process: `parse_args` returns a fresh namespace each time and keeps
    nothing from one call to the next."""
    return build_parser()


_COMMANDS = {
    "simulate": cmd_simulate,
    "optimize": cmd_optimize,
    "analyze": cmd_analyze,
    "evaluate": cmd_evaluate,
}


def _write_outputs(args, outputs: dict[str, str], effective_config: dict,
                   seeds: dict[str, int], started: float) -> None:
    """Create the output directory, write the outputs in order, and the
    manifest last.  A directory that cannot be made or written, such as an
    `--out` naming a file or a path under one, is a CliError naming it."""
    root = args.out or os.path.join(os.environ.get(OUT_ROOT_ENV, "."), args.command)
    inputs = {name: getattr(args, name) or "" for name in ("model", "policies", "config")}
    if args.command == "evaluate":
        inputs["fronts"] = list(args.fronts)

    def write(name: str, text: str) -> None:
        with open(os.path.join(root, name), "w", encoding="utf-8") as fh:
            fh.write(text)

    try:
        os.makedirs(root, exist_ok=True)
        for name, text in outputs.items():
            write(name, text)
        manifest = {
            "command": args.command,
            "inputs": inputs,
            "configHash": config_hash(effective_config),
            "effectiveConfig": effective_config,
            **seeds,
            "version": __version__,
            "outputs": list(outputs),
            "durationSeconds": round(time.monotonic() - started, 6),
        }
        write(MANIFEST_FILE, _json_text(manifest))
    except OSError as err:
        raise CliError(EXIT_MISSING_INPUT, f"cannot write outputs to {root}: {err.strerror}") from err


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    started = time.monotonic()
    try:
        outputs, effective_config, seeds, summary = _COMMANDS[args.command](args, parser)
        _write_outputs(args, outputs, effective_config, seeds, started)
    except CliError as err:
        print(f"error: {err}", file=sys.stderr)
        return err.exit_code
    print(summary)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
