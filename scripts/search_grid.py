"""Run the search grid (fixture x strategy x arm x seed), pin and score it.

Usage:
    python scripts/search_grid.py [--check] [--fixture NAME] [--seeds N]
        [--budget N] [--max-size K] [--out DIR]

Each run is `batchopt optimize` on a fixture under one strategy and arm:
hc and sa guided (+) and unguided (-), rl guided only, since its actions
are the interventions. Its digest is the sha256 over the front.json,
audit.jsonl and convergence.csv it writes, keyed `fixture/arm/seedN`.
For each fixture and strategy with both arms the script prints the
`metrics.compare_fronts` rows, the mean averaged Hausdorff of each arm
and whether ++ weakly dominates --. --check compares the default grid's
digests with tests/search_digests.json and exits 1 on any difference.
Otherwise a default-grid run rewrites that file, and the exit is 1
unless on every pair the + arm has the lower mean and ++ covers --.
--out keeps each run under DIR/fixture/arm/seedN/ and each pair's
metrics in DIR/fixture/<strategy>-metrics.csv.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from batchopt import cli
from batchopt.codec import to_doc
from batchopt.fixtures import FIXTURES_ROOT, MANIFEST_NAME, FixtureError, get_fixture
from batchopt.interventions import InterventionConfig, InterventionError
from batchopt.metrics import compare_fronts, render_metrics_csv
from batchopt.optimize import OptimizerConfig, OptimizerError
from batchopt.pareto import parse_front

DIGESTS_PATH = ROOT / "tests" / "search_digests.json"
ARMS = {"hc": "+-", "sa": "+-", "rl": "+"}  # OptimizerConfig rejects unguided rl
SEEDS, BUDGET, MAX_SIZE = 2, 30, InterventionConfig().max_size
HASHED_OUTPUTS = ("front.json", "audit.jsonl", "convergence.csv")


def run_grid(fixtures, seeds: int, config: Path, root: Path) -> tuple[dict, dict]:
    """The digest and the front of each run, keyed fixture/arm/seedN; it writes to root/key/."""
    digests, fronts = {}, {}
    grid = [(f, s, a, n) for f in fixtures for s, arms in ARMS.items() for a in arms
            for n in range(seeds)]
    for fixture, strategy, arm, seed in grid:
        key, inputs = f"{fixture}/{strategy}{arm}/seed{seed}", FIXTURES_ROOT / fixture
        argv = ["optimize", "--model", str(inputs / "model.json"),
                "--policies", str(inputs / "policies.json"), "--config", str(config),
                "--strategy", strategy, "--guided" if arm == "+" else "--unguided",
                "--seed", str(seed), "--out", str(root / key)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != cli.EXIT_OK:
            raise SystemExit(f"{key}: batchopt optimize exited {code}")
        texts = [(root / key / name).read_bytes() for name in HASHED_OUTPUTS]
        digests[key] = hashlib.sha256(b"".join(texts)).hexdigest()
        fronts[key] = parse_front(json.loads(texts[0]))
    return digests, fronts


def score(fixture: str, strategy: str, fronts: dict, seeds: int, root: Path) -> bool:
    """Print (and write under `root/<fixture>/`) the metrics of the +
    and - runs of `strategy` on `fixture`; whether the guided arm has the
    lower mean Hausdorff and `++` weakly dominates `--`."""
    labelled = [(f"seed{seed}-{strategy}{arm}", fronts[f"{fixture}/{strategy}{arm}/seed{seed}"])
                for arm in "+-" for seed in range(seeds)]
    _, rows, covered = compare_fronts(labelled)
    # the first rows score the + runs, the next the - runs
    plus, minus = (sum(r["hausdorff"] for r in rows[i : i + seeds]) / seeds for i in (0, seeds))
    (root / fixture / f"{strategy}-metrics.csv").write_text(render_metrics_csv(rows))
    print(f"{fixture} {strategy}:")
    print(render_metrics_csv(rows), end="")
    print(f"mean hausdorff: {strategy}+ {plus!r}, {strategy}- {minus!r}")
    print(f"++ weakly dominates --: {'yes' if covered else 'no'}")
    return plus < minus and covered


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true", help="compare the pinned digests only")
    parser.add_argument("--fixture", help="run one fixture (default: all)")
    parser.add_argument("--seeds", type=int, default=SEEDS)
    parser.add_argument("--budget", type=int, default=BUDGET)
    parser.add_argument("--max-size", type=int, default=MAX_SIZE)
    parser.add_argument("--out", help="directory for every run's outputs and the metrics CSVs")
    args = parser.parse_args(argv)
    default_grid = (args.fixture, args.seeds, args.budget, args.max_size) == (
        None, SEEDS, BUDGET, MAX_SIZE)
    if args.check and not default_grid:
        parser.error("--check pins the default grid: drop --fixture, --seeds, --budget, --max-size")
    if args.seeds < 1:
        parser.error(f"--seeds must be >= 1, got {args.seeds}")
    try:
        fixtures = [get_fixture(args.fixture).name] if args.fixture else list(
            json.loads((FIXTURES_ROOT / MANIFEST_NAME).read_text()))
        config = to_doc(OptimizerConfig(
            max_solutions=args.budget, intervention=InterventionConfig(max_size=args.max_size)))
    except (FixtureError, InterventionError, OptimizerError) as err:
        parser.error(str(err))

    with tempfile.TemporaryDirectory() as tmp:
        root, config_path = Path(args.out or tmp), Path(tmp) / "optimizer.json"
        config_path.write_text(json.dumps(config))
        digests, fronts = run_grid(fixtures, args.seeds, config_path, root)
        scored = [score(fixture, strategy, fronts, args.seeds, root)
                  for fixture in fixtures for strategy, arms in ARMS.items() if arms == "+-"]
    print(f"guided arm better on {sum(scored)} of {len(scored)} pairs")

    if args.check:
        pinned = json.loads(DIGESTS_PATH.read_text())
        differing = sorted(k for k in {*pinned, *digests} if pinned.get(k) != digests.get(k))
        for key in differing:
            print(f"differs  {key}")
        same = len(digests) - len(differing)
        print(f"{len(digests)} runs: {same} unchanged, {len(differing)} differ")
        return 1 if differing else 0
    if default_grid:
        DIGESTS_PATH.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
        print(f"wrote {len(digests)} digests to {DIGESTS_PATH.relative_to(ROOT)}")
    return 0 if all(scored) else 1


if __name__ == "__main__":
    sys.exit(main())
