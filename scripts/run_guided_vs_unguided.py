"""Compare guided against unguided hill climbing on one fixture.

Usage:
    python scripts/run_guided_vs_unguided.py [--fixture NAME] [--budget N]
        [--seeds N] [--max-size K] [--out DIR]

Runs HC+ and HC- with equal simulation budgets over several seeds,
scores every run against the joint reference front, and prints the
metrics table plus the joint ++/-- comparison. With --out the front
documents and the metrics CSV are written for later inspection.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from batchopt.fixtures import FixtureError, get_fixture
from batchopt.interventions import InterventionConfig, InterventionError
from batchopt.metrics import compare_fronts, render_metrics_csv
from batchopt.optimize import OptimizerConfig, OptimizerError, optimize_hc_sa
from batchopt.pareto import front_to_doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fixture", default="circadian")
    parser.add_argument("--budget", type=int, default=30)
    parser.add_argument("--seeds", type=int, default=5)
    parser.add_argument("--max-size", type=int, default=8)
    parser.add_argument("--out", help="directory for front documents and metrics CSV")
    args = parser.parse_args(argv)
    if args.seeds < 1:
        parser.error(f"--seeds must be >= 1, got {args.seeds}")
    try:
        fixture = get_fixture(args.fixture)
        config = OptimizerConfig(
            strategy="hc",
            max_solutions=args.budget,
            intervention=InterventionConfig(max_size=args.max_size),
        )
    except (FixtureError, InterventionError, OptimizerError) as err:
        parser.error(str(err))
    model = fixture.model()
    policies = fixture.policies()

    fronts = {}
    for guided in (True, False):
        for seed in range(args.seeds):
            label = f"seed{seed}-hc{'+' if guided else '-'}"
            run = config._replace(guided=guided, seed=seed)
            fronts[label] = optimize_hc_sa(model, policies, run).front

    _, rows, covered = compare_fronts(list(fronts.items()))
    # the first rows score the hc+ runs, the next the hc- runs
    mean_plus = sum(r["hausdorff"] for r in rows[: args.seeds]) / args.seeds
    mean_minus = sum(r["hausdorff"] for r in rows[args.seeds : 2 * args.seeds]) / args.seeds

    print(render_metrics_csv(rows), end="")
    print(f"mean hausdorff: hc+ {mean_plus!r}, hc- {mean_minus!r}")
    print(f"++ weakly dominates --: {'yes' if covered else 'no'}")

    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        for label, front in fronts.items():
            doc = front_to_doc(front, label=label)
            (out / f"{label}.json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        (out / "metrics.csv").write_text(render_metrics_csv(rows))
        print(f"wrote {len(fronts) + 1} files to {out}")

    return 0 if (mean_plus < mean_minus and covered) else 1


if __name__ == "__main__":
    sys.exit(main())
