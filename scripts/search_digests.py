"""Write (or verify) the sha256 digests of the search outputs.

Usage:
    python scripts/search_digests.py [--check]

The goldens pin the simulated logs and the detected patterns, not what
the searches make of them. This script runs every fixture under four
arms (hc+, sa+, rl+ and hc-) at seeds 0 and 1 with a budget of 30
simulations, and takes one sha256 per run over the text of its front
document, audit rows and convergence rows, as `batchopt optimize`
writes them. Without --check the digests are written to
tests/search_digests.json; with --check they are compared with that
file, a nonzero exit names each run that differs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from batchopt.fixtures import all_fixtures
from batchopt.optimize import OptimizerConfig, optimize_hc_sa, render_convergence_csv
from batchopt.pareto import front_to_doc
from batchopt.rl import optimize_rl

DIGESTS_PATH = ROOT / "tests" / "search_digests.json"
ARMS = (("hc", True), ("sa", True), ("rl", True), ("hc", False))
SEEDS = (0, 1)
BUDGET = 30


def run_text(model, policies, strategy: str, guided: bool, seed: int) -> str:
    """The front, audit and convergence text of one search run."""
    config = OptimizerConfig(strategy=strategy, guided=guided, max_solutions=BUDGET, seed=seed)
    runner = optimize_rl if strategy == "rl" else optimize_hc_sa
    result = runner(model, policies, config)
    label = strategy + ("+" if guided else "-")
    return (
        json.dumps(front_to_doc(result.front, label=label), indent=2, sort_keys=True)
        + "\n"
        + "".join(json.dumps(row, sort_keys=True) + "\n" for row in result.audit)
        + render_convergence_csv(result.convergence)
    )


def compute_digests() -> dict[str, str]:
    digests = {}
    for fixture in all_fixtures():
        model, policies = fixture.model(), fixture.policies()
        for strategy, guided in ARMS:
            for seed in SEEDS:
                text = run_text(model, policies, strategy, guided, seed)
                key = f"{fixture.name}/{strategy}{'+' if guided else '-'}/seed{seed}"
                digests[key] = hashlib.sha256(text.encode()).hexdigest()
    return digests


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true", help="compare only, write nothing")
    args = parser.parse_args(argv)

    digests = compute_digests()
    if not args.check:
        DIGESTS_PATH.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
        print(f"wrote {len(digests)} digests to {DIGESTS_PATH.relative_to(ROOT)}")
        return 0

    pinned = json.loads(DIGESTS_PATH.read_text())
    differing = sorted(k for k in pinned.keys() | digests.keys() if pinned.get(k) != digests.get(k))
    for key in differing:
        print(f"differs  {key}")
    print(f"{len(digests)} runs: {len(digests) - len(differing)} unchanged, {len(differing)} differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
