"""Benchmark the working tree against a parent commit in alternating pairs.

Usage:
    python3 scripts/bench_pairs.py --tag TAG --workload NAME [--workload NAME ...]
        --seeds FIRST-LAST [--parent HEAD] [--out BENCH_TAG.json]

Run from the repository root. The parent commit is extracted with
``git archive`` into a temporary directory. For each seed, one pair runs
``python3 perfbench/run.py --workload NAME --seed SEED --seconds S --trace 0``
in both trees, one after the other, S being the ``run_seconds`` that
BENCHMARK.json sets; even pairs run the parent first, odd pairs the change
first, so that a drift of the host's speed does not favour one side. Nothing under ``perfbench/`` is changed or needed beyond
what the benchmark itself runs.

After a workload's pairs, each tree runs one traced gate at the first
seed, ``python3 perfbench/run.py --workload NAME --seed FIRST --seconds 1
--trace 1`` (parent first), and the output records, next to the
end-to-end summary, every per-layer metric that BENCHMARK.json declares
as parent and change values of that one run: counts such as
``calendars.next_open.calls`` compare exactly, and self times such as
``eventlog.evaluate_objectives.self_s`` show where a change moved time.

Both trees run under the same bytecode conditions: the benchmark's
processes may write ``__pycache__`` (``PYTHONDONTWRITEBYTECODE`` is
dropped from their environment), and before the first pair each tree
does one short warm-up run whose result is discarded, so every timed
run, its set-up probes included, imports from bytecode in both trees.
That makes ``setup_s`` here lower than in a run without bytecode: a
set-up probe that finds none also compiles the 17 ``batchopt`` modules
that importing ``batchopt.cli`` loads (some 45-55 ms of ``compile()`` on a
2-core host, CPython 3.11) before it parses anything. The output's ``host`` block records the host and
whether the runs wrote bytecode, read from the extracted parent tree,
which holds none until a run writes it.

For every end-to-end metric that BENCHMARK.json declares, the output
records the parent and change medians, the parent's quartiles (inclusive
method) and their distance, the change's win count (better in the
direction the metric declares; a tie is no win), the per-pair values, the
seeds and the pair count. Each run writes a fresh output file, and each
pair prints every end-to-end metric, parent -> change, as it ends.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile


def parse_seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def extract(rev: str, directory: str) -> str:
    """Write the tree of `rev` into `directory`; return the full commit id."""
    commit = subprocess.run(["git", "rev-parse", rev], capture_output=True, text=True,
                            check=True).stdout.strip()
    archive = subprocess.run(["git", "archive", "--format=tar", commit], capture_output=True,
                             check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(directory, filter="data")
    return commit


# the benchmark's environment: free to write bytecode in either tree
CHILD_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}


def wrote_bytecode(tree: str) -> bool:
    """Whether `tree` holds compiled bytecode (a ``.pyc`` file) under
    ``src/``."""
    return any(name.endswith(".pyc")
               for _, _, names in os.walk(os.path.join(tree, "src")) for name in names)


def host_block(parent_tree: str) -> dict:
    """The host of a run and whether its benchmark runs wrote bytecode."""
    return {
        "cores": os.cpu_count(),
        "python": sys.version.split()[0],
        "wrote_bytecode": wrote_bytecode(parent_tree),
    }


def run_once(tree: str, workload: str, seed: int, seconds: float,
             trace: int = 0) -> dict[str, float]:
    """The metrics of one benchmark run in `tree`: end-to-end ones
    untraced, per-layer ones traced."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True, env=CHILD_ENV,
    )
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if done.returncode != 0 or not result.get("correct"):
        raise SystemExit(f"benchmark failed in {tree} (seed {seed}): {done.stderr.strip()[-500:]}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summarize(parent: list[float], change: list[float], better: str) -> dict:
    q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    wins = sum(1 for p, c in zip(parent, change) if (c < p if better == "lower" else c > p))
    return {
        "better": better,
        "parent_median": statistics.median(parent),
        "change_median": statistics.median(change),
        "parent_quartiles": [q1, q3],
        "parent_iqr": q3 - q1,
        "change_wins": wins,
        "parent": parent,
        "change": change,
    }


def compare_layers(parent: dict[str, float], change: dict[str, float],
                   declared: dict[str, str]) -> dict:
    """Each declared per-layer metric of one traced run per tree: its
    direction and both values (None where a run does not report it)."""
    return {
        name: {"better": better, "parent": parent.get(name), "change": change.get(name)}
        for name, better in declared.items()
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tag", required=True)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", required=True, help="FIRST-LAST, one pair per seed")
    parser.add_argument("--parent", default="HEAD", help="commit to compare against")
    parser.add_argument("--out", help="output file (default BENCH_<tag>.json)")
    args = parser.parse_args(argv)

    seeds = parse_seeds(args.seeds)
    if len(seeds) < 2:
        parser.error("need at least two seeds, one pair each")
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        benchmark = json.load(fh)
    seconds = benchmark["run_seconds"]
    declared = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    layers = {m["name"]: m["better"] for m in benchmark["per_layer"]}
    out_path = args.out or f"BENCH_{args.tag}.json"

    with tempfile.TemporaryDirectory() as parent_tree:
        commit = extract(args.parent, parent_tree)
        report = {
            "tag": args.tag,
            "parent": commit,
            "command": f"python3 perfbench/run.py --seconds {seconds:g} --trace 0",
            "workloads": {},
        }
        for tree in (parent_tree, "."):
            run_once(tree, args.workload[0], seeds[0], 1)  # warm-up, discarded
        report["host"] = host_block(parent_tree)
        for workload in args.workload:
            runs = {"parent": [], "change": []}
            for i, seed in enumerate(seeds):
                order = [("parent", parent_tree), ("change", ".")]
                for side, tree in order if i % 2 == 0 else order[::-1]:
                    runs[side].append(run_once(tree, workload, seed, seconds))
                print(f"{workload} seed {seed}: " + ", ".join(
                    f"{m} {runs['parent'][-1][m]:.4g} -> {runs['change'][-1][m]:.4g}"
                    for m in declared), flush=True)
            traced = {side: run_once(tree, workload, seeds[0], 1, trace=1)
                      for side, tree in (("parent", parent_tree), ("change", "."))}
            changed = [m for m in layers if m.endswith(".calls")
                       and traced["parent"].get(m) != traced["change"].get(m)]
            print(f"{workload} traced gate, seed {seeds[0]}, call counts that changed: "
                  + (", ".join(f"{m} {traced['parent'].get(m)} -> {traced['change'].get(m)}"
                               for m in changed) or "none"), flush=True)
            report["workloads"][workload] = {
                "seeds": seeds,
                "pairs": len(seeds),
                "metrics": {
                    name: summarize([r[name] for r in runs["parent"]],
                                    [r[name] for r in runs["change"]], better)
                    for name, better in declared.items()
                },
                "traced": {
                    "command": f"python3 perfbench/run.py --seed {seeds[0]} --seconds 1 --trace 1",
                    "layers": compare_layers(traced["parent"], traced["change"], layers),
                },
            }
            with open(out_path, "w", encoding="utf-8") as fh:
                json.dump(report, fh, indent=2, sort_keys=True)
                fh.write("\n")
    print(f"wrote {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
