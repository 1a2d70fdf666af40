"""The batchopt benchmark: one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The benchmark imports ``batchopt`` from
``src/`` and drives its public CLI in-process, ``batchopt.cli.main([...])``,
one command after another with a single client (a closed loop); it starts
no threads or pools. Workloads, their frozen inputs and their front
scales are in ``perfbench/workloads.json`` and ``perfbench/inputs/``.

1. Correctness gate, before any timing: the golden tree is unchanged,
   and the primary outputs of the workload's simulate, analyze and
   evaluate commands at the default seed match ``perfbench/digests.json``.
2. Untraced sessions at ``--seed``, repeated while another one is
   expected to end within ``--seconds`` (at least one). Each optimize
   strategy runs at ``session.OPTIMIZE_SEEDS`` optimizer seeds derived
   from ``--seed``. Every session's outputs are checked (exit codes,
   fronts, audit rows) and must be identical from session to session.
   A command time is its median over the sessions of its wall time scaled
   to a nominal host speed: the benchmark times its own fixed reference
   work before every command and multiplies a session's times by the
   nominal over the session's mean reference time, because the shared
   host's speed drifts by up to 2x over minutes. The mean, not the
   median, because the host switches between a fast and a slow state and
   a command's time sums over both. The raw samples go to
   ``.perfbench_out/<workload>/samples.json``.
3. ``setup_s``: after each session, SETUP_PROBES fresh interpreters import
   ``batchopt.cli`` and parse the workload's documents; ``setup_s`` is the
   median over all probes of the run of their wall times, each scaled
   like the times of the session it follows.
4. With ``--trace 1``, one more session at the same seed with every layer
   wrapped (see ``layers.py``). Its primary outputs must equal the untraced
   ones. Spans go to ``.perfbench_out/<workload>/spans.csv``.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics untraced, per-layer metrics
traced). Outputs are written under ``.perfbench_out/`` in the working
directory. A failed check exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from checks import (  # noqa: E402
    check_goldens,
    check_optimize_outputs,
    directory_bytes,
    hypervolume,
    output_digest,
)
from session import load_workloads, run_session, write_inputs  # noqa: E402

DEFAULT_SEED = 0
SETUP_PROBES = 2  # per session
# Typical seconds of `reference_work` on the benchmark host (2 cores,
# CPython 3.11); all times are scaled to this host speed.
REFERENCE_SECONDS = 0.035
GOLDEN_FILES = 134
OUT_DIR = ".perfbench_out"


class CheckFailed(Exception):
    pass


def declared_units(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in declared}


def _primary_digests(session) -> dict[str, str]:
    return {c.label: output_digest(c.out) for c in session.commands}


def gate(name: str, spec: dict, out_root: str) -> None:
    """Golden tree and default-seed digests; raises CheckFailed."""
    golden_files, problems = check_goldens("fixtures")
    if golden_files != GOLDEN_FILES:
        problems.append(f"golden check saw {golden_files} files, expected {GOLDEN_FILES}")
    commands = write_inputs(spec, DEFAULT_SEED, os.path.join(out_root, "gate-inputs"))
    session = run_session(commands, os.path.join(out_root, "gate"),
                          kinds=("simulate", "analyze", "evaluate"))
    problems += _exit_problems(session)
    if not problems:
        with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as fh:
            expected = json.load(fh)[name]
        actual = _primary_digests(session)
        for label, digest in actual.items():
            if expected.get(label) != digest:
                problems.append(f"default-seed outputs of {label!r} differ from digests.json")
        if set(actual) != set(expected):
            problems.append(f"digests.json lists {sorted(expected)}, the gate ran {sorted(actual)}")
    if problems:
        raise CheckFailed("; ".join(problems))
    print(f"gate: {GOLDEN_FILES} golden files unchanged; "
          f"{len(session.commands)} default-seed outputs match digests.json")


def _exit_problems(session) -> list[str]:
    return [
        f"{c.label!r} exited {c.exit_code}: {c.stderr.strip()[-300:]}"
        for c in session.commands
        if c.exit_code != 0
    ]


def setup_probe(commands: list[tuple[str, list[str]]]) -> list[str]:
    """The argument vector of a fresh interpreter that imports the CLI and
    parses the workload's model, policies and config documents with its
    parsers."""
    parsers = {"simulate": "parse_sim_config", "evaluate": "parse_sim_config",
               "optimize": "parse_optimizer_config", "analyze": "parse_optimizer_config"}
    first = commands[0][1]
    docs = [
        "parse_model=" + first[first.index("--model") + 1],
        "parse_policies=" + first[first.index("--policies") + 1],
    ]
    for _, argv in commands:
        docs.append(f"{parsers[argv[0]]}=" + argv[argv.index("--config") + 1])
    return [sys.executable, os.path.join(HERE, "setup_probe.py"), os.path.abspath("src"), *docs]


def measure_setup(probe: list[str]) -> float:
    """Wall time of one set-up probe."""
    t0 = perf_counter()
    done = subprocess.run(probe, capture_output=True, text=True, timeout=120)
    seconds = perf_counter() - t0
    if done.returncode != 0:
        raise CheckFailed(f"setup probe failed: {done.stderr.strip()[-300:]}")
    return seconds


class Tally:
    """Attempted and failed operations: CLI commands plus audit rows."""

    def __init__(self) -> None:
        self.audit_rows = 0
        self.audit_failed = 0
        self.commands = 0
        self.commands_failed = 0

    @property
    def attempted(self) -> int:
        return self.commands + self.audit_rows

    @property
    def failed(self) -> int:
        return self.commands_failed + self.audit_failed

    def check_session(self, session, spec: dict) -> tuple[dict[str, str], float, list[str]]:
        """Count the session's operations and validate its outputs.
        Returns the primary-output digests, the mean front hypervolume
        and the problems found."""
        problems = _exit_problems(session)
        self.commands += len(session.commands)
        self.commands_failed += sum(1 for c in session.commands if c.exit_code != 0)
        volumes = []
        for c in session.commands:
            if c.kind != "optimize" or c.exit_code != 0:
                continue
            points, rows, failed, found = check_optimize_outputs(c.out)
            problems += found
            self.audit_rows += rows
            self.audit_failed += failed
            hv = spec["front_hv"]
            volumes.append(hypervolume(points, hv["scale"], hv["reference"]))
        digests = _primary_digests(session) if not problems else {}
        return digests, (statistics.fmean(volumes) if volumes else 0.0), problems


def _summary(values: list[float]) -> str:
    if len(values) == 1:
        return f"{values[0]:.6g} (n=1)"
    return (f"median {statistics.median(values):.6g} min {min(values):.6g} "
            f"max {max(values):.6g} (n={len(values)})")


def _fail(tally: Tally, message: str) -> int:
    print(f"check failed: {message}", file=sys.stderr)
    print(json.dumps({"correct": False, "attempted": max(tally.attempted, 1),
                      "failed": tally.failed, "metrics": {}}))
    return 1


def run(args) -> int:
    workloads = load_workloads()
    spec = workloads[args.workload]
    out_root = os.path.join(OUT_DIR, args.workload)
    shutil.rmtree(out_root, ignore_errors=True)
    os.makedirs(out_root)
    tally = Tally()

    try:
        gate(args.workload, spec, out_root)
        commands = write_inputs(spec, args.seed, os.path.join(out_root, "inputs"))
        probe = setup_probe(commands)

        # Sessions repeat while another one is expected to end within
        # --seconds; the first always runs. SETUP_PROBES set-up probes
        # follow each session, so that they sample the host over the run.
        sessions = []
        setup = []
        reference = None
        started = perf_counter()
        last_wall = 0.0
        while not sessions or perf_counter() - started + last_wall <= args.seconds:
            session_started = perf_counter()
            session = run_session(commands, os.path.join(out_root, "untraced"), sample_speed=True)
            setup.append([measure_setup(probe) for _ in range(SETUP_PROBES)])
            last_wall = perf_counter() - session_started
            digests, front_hv, problems = tally.check_session(session, spec)
            if problems:
                raise CheckFailed("; ".join(problems))
            if reference is None:
                reference = digests
            elif digests != reference:
                raise CheckFailed("two sessions with the same seed wrote different outputs")
            sessions.append(session)
        measured = perf_counter() - started
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        traced = None
        if args.trace:
            from layers import Tracer, layer_metrics

            with Tracer() as tracer:
                traced = run_session(commands, os.path.join(out_root, "traced"), tracer=tracer)
            digests, _, problems = tally.check_session(traced, spec)
            if problems:
                raise CheckFailed("; ".join(problems))
            if digests != reference:
                raise CheckFailed("the traced session wrote different outputs than the untraced ones")
    except CheckFailed as err:
        return _fail(tally, str(err))

    print(f"workload {args.workload}, seed {args.seed}: {len(sessions)} untraced sessions "
          f"in {measured:.3f} s")
    kinds = {
        "simulate_s": "simulate",
        "optimize_s": "optimize",
        "analyze_s": "analyze",
        "evaluate_s": "evaluate",
    }
    # Each session's times, and those of the set-up probes that follow it,
    # are scaled by the nominal over the session's mean reference time.
    speeds = [REFERENCE_SECONDS / statistics.fmean(s.reference) for s in sessions]
    samples = {"setup_s": [t * speed for speed, probes in zip(speeds, setup) for t in probes]}
    for metric, kind in kinds.items():
        samples[metric] = [s.kind_seconds(kind) * speed for speed, s in zip(speeds, sessions)]
    print(f"host speed factor per session: {_summary(speeds)}; reference work "
          f"{_summary([r for s in sessions for r in s.reference])}, {REFERENCE_SECONDS} s nominal")
    for metric, values in samples.items():
        print(f"{metric} (scaled): {_summary(values)}")
    with open(os.path.join(out_root, "samples.json"), "w", encoding="utf-8") as fh:
        json.dump({
            "sessions": [{"commands": [[c.label, c.seconds] for c in s.commands],
                          "reference": s.reference} for s in sessions],
            "setup": setup,
        }, fh)
    print(f"front_hv: {front_hv:.6g} (mean over {sum(1 for c in sessions[0].commands if c.kind == 'optimize')} optimize runs)")
    success = tally.attempted - tally.failed
    print(f"success_share = {success} succeeded / {tally.attempted} attempted "
          f"({tally.commands} CLI commands, {tally.commands_failed} failed; "
          f"{tally.audit_rows} audit rows, {tally.audit_failed} failed)")
    print(f"failed_share = {tally.failed} failed / {tally.attempted} attempted")
    print(f"peak_rss_mb: {peak_rss_mb:.6g}")

    if traced is None:
        metrics = {m: statistics.median(v) for m, v in samples.items()}
        metrics["front_hv"] = front_hv
        metrics["success_share"] = success / tally.attempted
        metrics["peak_rss_mb"] = peak_rss_mb
    else:
        metrics, lines = layer_metrics(tracer)
        metrics["cli.bytes_written"] = sum(directory_bytes(c.out) for c in traced.commands)
        metrics["trace.overhead_s"] = traced.seconds - statistics.median(s.seconds for s in sessions)
        for line in lines:
            print(line)
        print(f"trace: {len(tracer.spans)} spans, traced session {traced.seconds:.3f} s")
        tracer.write(os.path.join(out_root, "spans.csv"))

    units = declared_units(traced is not None)
    if set(metrics) != set(units):
        return _fail(tally, f"metrics {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json")
    result = {
        "correct": True,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one batchopt benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not os.path.isdir("src/batchopt") or not os.path.isdir("fixtures"):
        print("run from the repository root: src/batchopt and fixtures/ are missing", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath("src"))
    if args.workload not in load_workloads():
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
