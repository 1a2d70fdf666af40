"""Outside-in layer tracing for the benchmark.

A `Tracer` replaces the module attributes that `batchopt` callers resolve
at call time (``batchopt.optimize.simulate``, ``Calendar.next_open``, ...)
with wrappers that record one span per call: name, start, end, parent span
and the id of the CLI command that caused it. Spans stay in memory until
the run ends. The program's own code is not changed, and the wrappers only
observe: arguments and results pass through untouched.

Layer names are the ``batchopt`` module names. `layer_metrics` folds the
spans into the per-layer metrics listed in ``BENCHMARK.json``.
"""

from __future__ import annotations

import importlib
import json
from collections import defaultdict
from time import perf_counter

# (span name, owner, attribute). The owner is a module path or
# "module:Class"; one span name may cover several call sites.
WRAPPED = (
    ("cli.main", "batchopt.cli", "main"),
    ("model.parse_model", "batchopt.cli", "parse_model"),
    ("engine.simulate", "batchopt.cli", "simulate"),
    ("engine.simulate", "batchopt.optimize", "simulate"),
    ("engine.simulate", "batchopt.rl", "simulate"),
    ("engine.simulate", "batchopt.metrics", "simulate"),
    ("model.validate_model", "batchopt.engine", "validate_model"),
    ("policy.evaluate_activation_rule", "batchopt.engine", "evaluate_activation_rule"),
    ("policy.compute_batch_cost", "batchopt.engine", "compute_batch_cost"),
    ("calendars.next_open", "batchopt.calendars:Calendar", "next_open"),
    ("calendars.work_end", "batchopt.calendars:Calendar", "work_end"),
    ("eventlog.evaluate_objectives", "batchopt.engine", "evaluate_objectives"),
    ("eventlog.render_csv", "batchopt.cli", "render_event_csv"),
    ("eventlog.render_csv", "batchopt.cli", "render_batch_csv"),
    ("eventlog.case_cycle_time", "batchopt.metrics", "case_cycle_time"),
    ("analytics.compute_stats", "batchopt.cli", "compute_stats"),
    ("analytics.compute_stats", "batchopt.analytics", "compute_stats"),
    ("analytics.compute_stats", "batchopt.optimize", "compute_stats"),
    ("analytics.compute_stats", "batchopt.rl", "compute_stats"),
    ("analytics.detect", "batchopt.cli", "detect_scenarios"),
    ("analytics.detect", "batchopt.optimize", "detect_scenarios_from_stats"),
    ("analytics.detect", "batchopt.rl", "detect_scenarios_from_stats"),
    ("interventions.derive", "batchopt.optimize", "derive_interventions"),
    ("interventions.derive", "batchopt.rl", "derive_interventions"),
    ("interventions.apply_delta", "batchopt.optimize", "apply_delta"),
    ("interventions.apply_delta", "batchopt.rl", "apply_delta"),
    ("pareto.update_front", "batchopt.optimize", "update_front"),
    ("pareto.update_front", "batchopt.rl", "update_front"),
    ("pareto.distance_to_front", "batchopt.optimize", "distance_to_front"),
    ("optimize.optimize_hc_sa", "batchopt.cli", "optimize_hc_sa"),
    ("rl.optimize_rl", "batchopt.cli", "optimize_rl"),
    ("rl.available_actions", "batchopt.rl", "available_actions"),
    ("rl.state_vector", "batchopt.rl", "state_vector"),
    ("metrics.cycle_time_gain", "batchopt.cli", "cycle_time_gain"),
    ("metrics.mean_case_cycle_time", "batchopt.metrics", "mean_case_cycle_time"),
)

OPTIMIZER_SPANS = ("optimize.optimize_hc_sa", "rl.optimize_rl")

# span record fields
NAME, START, END, PARENT, COMMAND, FAILED = range(6)


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


class Tracer:
    """Records spans around the wrapped attributes while installed.

    Use as a context manager; `begin_command` tags the spans that follow
    with a new command id.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.commands: list[str] = []
        self.counts: dict[str, int] = defaultdict(int)
        # optimizer span index -> policy documents it simulated, in order
        self.policy_docs: dict[int, list[str]] = defaultdict(list)
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def begin_command(self, label: str) -> None:
        self.commands.append(label)

    def __enter__(self) -> "Tracer":
        for name, owner, attr in WRAPPED:
            target = _resolve(owner)
            original = target.__dict__[attr] if isinstance(target, type) else getattr(target, attr)
            self._saved.append((target, attr, original))
            setattr(target, attr, self._wrap(name, original))
        return self

    def __exit__(self, *exc) -> None:
        for target, attr, original in reversed(self._saved):
            setattr(target, attr, original)
        self._saved.clear()

    def _wrap(self, name: str, fn):
        observe = getattr(self, "_observe_" + name.replace(".", "_"), None)
        spans = self.spans
        stack = self._stack

        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, len(self.commands) - 1, False]
            stack.append(len(spans))
            spans.append(record)
            record[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                record[END] = perf_counter()
                record[FAILED] = True
                stack.pop()
                raise
            record[END] = perf_counter()
            stack.pop()
            if observe is not None:
                observe(record, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- counts taken from arguments and results --------------------------

    def _observe_engine_simulate(self, record, args, result) -> None:
        self.counts["engine.instances"] += len(result.log.instances)
        optimizer = self.ancestor(record, OPTIMIZER_SPANS)
        if optimizer >= 0:
            from batchopt.policy import serialize_policies

            doc = json.dumps(serialize_policies(args[1]), sort_keys=True)
            self.policy_docs[optimizer].append(doc)

    def _observe_policy_evaluate_activation_rule(self, record, args, result) -> None:
        if result is True:
            self.counts["engine.rule_fires"] += 1

    def _observe_analytics_detect(self, record, args, result) -> None:
        self.counts["analytics.instances"] += len(result)

    def _observe_interventions_derive(self, record, args, result) -> None:
        self.counts["interventions.deltas"] += len(result)

    def _observe_pareto_update_front(self, record, args, result) -> None:
        if result[1]:
            self.counts["pareto.accepted"] += 1

    def ancestor(self, record, names) -> int:
        """Index of the nearest enclosing span with one of `names`, or -1."""
        parent = record[PARENT]
        while parent >= 0:
            if self.spans[parent][NAME] in names:
                return parent
            parent = self.spans[parent][PARENT]
        return -1

    def write(self, path: str) -> None:
        """Write the command labels, then every span as one CSV row with
        its start and end in nanoseconds after the first span started."""
        origin = self.spans[0][START] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, label in enumerate(self.commands):
                fh.write(f"# command {i}: {label}\n")
            fh.write("name,start_ns,end_ns,parent,command,failed\n")
            fh.writelines(
                f"{name},{round((start - origin) * 1e9)},{round((end - origin) * 1e9)},"
                f"{parent},{command},{int(failed)}\n"
                for name, start, end, parent, command, failed in self.spans
            )


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of its interval that its child
    spans cover (overlapping children are counted once)."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append((span[START], span[END]))
    result = []
    for i, span in enumerate(spans):
        start, end = span[START], span[END]
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        result.append((end - start) - covered)
    return result


def ratio(part: float, base: float) -> float:
    return part / base if base else 0.0


def layer_metrics(tracer: Tracer) -> tuple[dict, list[str]]:
    """Per-layer metrics from the tracer's spans, plus report lines that
    give every ratio with its base."""
    spans = tracer.spans
    own = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    incl_s: dict[str, float] = defaultdict(float)
    failed: dict[str, int] = defaultdict(int)
    for span, s in zip(spans, own):
        name = span[NAME]
        calls[name] += 1
        self_s[name] += s
        incl_s[name] += span[END] - span[START]
        failed[name] += span[FAILED]
    counts = tracer.counts

    rule_evals = calls["policy.evaluate_activation_rule"]
    instances = counts["engine.instances"]
    updates = calls["pareto.update_front"]

    optimizer_runs = [i for i, s in enumerate(spans) if s[NAME] in OPTIMIZER_SPANS]
    simulations = sum(len(tracer.policy_docs[i]) for i in optimizer_runs)
    distinct = sum(len(set(tracer.policy_docs[i])) for i in optimizer_runs)
    optimize_incl = sum(spans[i][END] - spans[i][START] for i in optimizer_runs)
    simulate_in_optimize = sum(
        s[END] - s[START]
        for s in spans
        if s[NAME] == "engine.simulate" and tracer.ancestor(s, OPTIMIZER_SPANS) >= 0
    )
    evaluate_ids = {i for i, label in enumerate(tracer.commands) if label.startswith("evaluate")}
    evaluate_incl = sum(
        s[END] - s[START] for s in spans if s[NAME] == "cli.main" and s[COMMAND] in evaluate_ids
    )
    mcct_incl = incl_s["metrics.mean_case_cycle_time"]

    metrics = {
        "engine.simulate.calls": calls["engine.simulate"],
        "engine.simulate.self_s": self_s["engine.simulate"],
        "engine.simulate.incl_s": incl_s["engine.simulate"],
        "engine.instances": instances,
        "engine.instances_per_s": ratio(instances, incl_s["engine.simulate"]),
        "engine.rule_evals": rule_evals,
        "engine.rule_evals_per_instance": ratio(rule_evals, instances),
        "engine.rule_fire_share": ratio(counts["engine.rule_fires"], rule_evals),
        "policy.evaluate_activation_rule.self_s": self_s["policy.evaluate_activation_rule"],
        "policy.compute_batch_cost.calls": calls["policy.compute_batch_cost"],
        "calendars.next_open.calls": calls["calendars.next_open"],
        "calendars.next_open.self_s": self_s["calendars.next_open"],
        "calendars.work_end.calls": calls["calendars.work_end"],
        "calendars.work_end.self_s": self_s["calendars.work_end"],
        "model.validate_model.calls": calls["model.validate_model"],
        "model.validate_model.self_s": self_s["model.validate_model"],
        "model.parse_model.self_s": self_s["model.parse_model"],
        "eventlog.evaluate_objectives.self_s": self_s["eventlog.evaluate_objectives"],
        "eventlog.render_csv.self_s": self_s["eventlog.render_csv"],
        "eventlog.case_cycle_time.calls": calls["eventlog.case_cycle_time"],
        "analytics.compute_stats.calls": calls["analytics.compute_stats"],
        "analytics.compute_stats.self_s": self_s["analytics.compute_stats"],
        "analytics.detect.calls": calls["analytics.detect"],
        "analytics.detect.self_s": self_s["analytics.detect"],
        "analytics.instances": counts["analytics.instances"],
        "interventions.derive.calls": calls["interventions.derive"],
        "interventions.derive.self_s": self_s["interventions.derive"],
        "interventions.deltas": counts["interventions.deltas"],
        "interventions.apply_delta.calls": calls["interventions.apply_delta"],
        "interventions.apply_delta.self_s": self_s["interventions.apply_delta"],
        "interventions.apply_failed": failed["interventions.apply_delta"],
        "pareto.update_front.calls": updates,
        "pareto.update_front.self_s": self_s["pareto.update_front"],
        "pareto.accept_share": ratio(counts["pareto.accepted"], updates),
        "pareto.distance_to_front.self_s": self_s["pareto.distance_to_front"],
        "optimize.simulations": simulations,
        "optimize.self_s": self_s["optimize.optimize_hc_sa"],
        "optimize.distinct_share": ratio(distinct, simulations),
        "optimize.simulate_share": ratio(simulate_in_optimize, optimize_incl),
        "rl.available_actions.self_s": self_s["rl.available_actions"],
        "rl.state_vector.self_s": self_s["rl.state_vector"],
        "rl.optimize_rl.self_s": self_s["rl.optimize_rl"],
        "metrics.mean_case_cycle_time.calls": calls["metrics.mean_case_cycle_time"],
        "metrics.mean_case_cycle_time.self_s": self_s["metrics.mean_case_cycle_time"],
        "metrics.cycle_time_gain.self_s": self_s["metrics.cycle_time_gain"],
        "metrics.mean_case_cycle_time.evaluate_share": ratio(mcct_incl, evaluate_incl),
        "cli.main.self_s": self_s["cli.main"],
    }

    lines = [
        f"engine.rule_fire_share = {counts['engine.rule_fires']} fired / {rule_evals} rule evaluations",
        f"engine.rule_evals_per_instance = {rule_evals} rule evaluations / {instances} instances",
        f"interventions.apply_failed = {failed['interventions.apply_delta']} failed"
        f" / {calls['interventions.apply_delta']} apply_delta calls",
        f"pareto.accept_share = {counts['pareto.accepted']} accepted / {updates} update_front calls",
        f"optimize.distinct_share = {distinct} distinct policy sets / {simulations} simulations",
        f"optimize.simulate_share = {simulate_in_optimize:.4f} s simulating"
        f" / {optimize_incl:.4f} s optimizing",
        f"metrics.mean_case_cycle_time.evaluate_share = {mcct_incl:.4f} s"
        f" / {evaluate_incl:.4f} s evaluating",
    ]
    for i in optimizer_runs:
        docs = tracer.policy_docs[i]
        label = tracer.commands[spans[i][COMMAND]]
        lines.append(
            f"optimize.distinct_share[{label}] = {len(set(docs))} distinct / {len(docs)} simulations"
        )
    return metrics, lines
