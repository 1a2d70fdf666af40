"""Workload sessions: the CLI commands of one workload, run in-process.

A session calls ``batchopt.cli.main([...])`` for each command of the
workload in turn, as one client in a closed loop: each command starts only
after the previous one returned. Commands write into their own output
directories; their stdout is captured so that the benchmark's own output
stays parseable.
"""

from __future__ import annotations

import contextlib
import heapq
import io
import json
import os
from dataclasses import dataclass, field
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
INPUTS = os.path.join(HERE, "inputs")

COMMAND_KINDS = ("simulate", "optimize", "analyze", "evaluate")
# Each optimize strategy runs at this many optimizer seeds per session,
# which damps the seed-to-seed variance of optimize_s and front_hv.
OPTIMIZE_SEEDS = 4


def load_workloads() -> dict:
    with open(os.path.join(HERE, "workloads.json"), encoding="utf-8") as fh:
        return json.load(fh)


@dataclass
class CommandRun:
    label: str
    kind: str
    exit_code: int
    seconds: float
    out: str
    stderr: str


@dataclass
class Session:
    commands: list[CommandRun] = field(default_factory=list)
    reference: list[float] = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return sum(c.seconds for c in self.commands)

    def kind_seconds(self, kind: str) -> float:
        return sum(c.seconds for c in self.commands if c.kind == kind)


class _Record:
    __slots__ = ("key", "slot", "value")

    def __init__(self, key: int, slot: int, value: float):
        self.key = key
        self.slot = slot
        self.value = value


def reference_work() -> float:
    """Seconds taken by a fixed piece of pure-Python work that shares no
    code with the program: small objects, a dict index, heap operations, a
    sort and string formatting, as in the engine and the CSV writers. It
    measures how fast the shared host runs such code at this moment."""
    started = perf_counter()
    n = 20000
    records = [_Record(i, (i * 7919) % 100003, i * 0.5) for i in range(n)]
    index = {r.slot: r for r in records}
    heap: list[tuple[int, int]] = []
    total = 0.0
    for i in range(0, n, 2):
        found = index.get((i * 31) % 100003)
        if found is not None:
            total += found.value
        heapq.heappush(heap, (records[(i * 17) % n].slot, i))
        if len(heap) > 500:
            heapq.heappop(heap)
    records.sort(key=lambda r: r.slot)
    json.dumps([f"{r.key}:{r.value!r}" for r in records[:2000]] + [total])
    return perf_counter() - started


def _seeded_config(kind: str, config: dict, seed: int) -> dict:
    """The command's frozen config document with the run seed filled in."""
    doc = json.loads(json.dumps(config))
    doc["seed"] = seed
    if kind == "analyze":
        doc.setdefault("sim", {})["seed"] = seed
    return doc


def optimizer_seeds(seed: int) -> list[int]:
    """The optimizer seeds a session uses for each strategy: OPTIMIZE_SEEDS
    consecutive seeds that no other run seed shares."""
    return [seed * OPTIMIZE_SEEDS + j for j in range(OPTIMIZE_SEEDS)]


def write_inputs(spec: dict, seed: int, directory: str) -> list[tuple[str, list[str]]]:
    """Write each command's config document for `seed` into `directory` and
    return the session's (label, argument vector) pairs in order."""
    os.makedirs(directory, exist_ok=True)
    model = os.path.join(INPUTS, spec["inputs"], "model.json")
    policies = os.path.join(INPUTS, spec["inputs"], "policies.json")
    commands = []
    for command in spec["commands"]:
        kind = command["label"].split()[0]
        if kind == "optimize":
            variants = [(f"{command['label']} seed {s}", s) for s in optimizer_seeds(seed)]
        else:
            variants = [(command["label"], seed)]
        for label, command_seed in variants:
            config_path = os.path.join(directory, label.replace(" ", "-") + ".json")
            with open(config_path, "w", encoding="utf-8") as fh:
                json.dump(_seeded_config(kind, command["config"], command_seed), fh,
                          indent=2, sort_keys=True)
            if kind == "evaluate":
                fronts = [os.path.join(INPUTS, spec["inputs"], name) for name in command["fronts"]]
                argv = ["evaluate", *fronts]
            else:
                argv = [kind, "--seed", str(command_seed)]
            argv += ["--model", model, "--policies", policies, "--config", config_path]
            commands.append((label, argv))
    return commands


def run_session(commands: list[tuple[str, list[str]]], out_root: str, kinds=COMMAND_KINDS,
                tracer=None, sample_speed: bool = False) -> Session:
    """Run the session's commands of the given kinds, one after another.
    With `sample_speed`, `reference_work` is timed before every command."""
    from batchopt import cli

    session = Session()
    for label, argv in commands:
        kind = label.split()[0]
        if kind not in kinds:
            continue
        out = os.path.join(out_root, label.replace(" ", "-"))
        if tracer is not None:
            tracer.begin_command(label)
        if sample_speed:
            session.reference.append(reference_work())
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            t0 = perf_counter()
            try:
                code = cli.main(argv + ["--out", out])
            except SystemExit as exc:  # argparse usage errors
                code = exc.code if isinstance(exc.code, int) else 2
            seconds = perf_counter() - t0
        session.commands.append(CommandRun(label, kind, code, seconds, out, stderr.getvalue()))
    return session
