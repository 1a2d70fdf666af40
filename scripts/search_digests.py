"""Write (or verify) the sha256 digests of the search outputs.

Usage:
    python scripts/search_digests.py [--check]

The goldens pin the simulated logs and the detected patterns, not what
the searches make of them. This script runs `batchopt optimize` on every
fixture under four arms (hc+, sa+, rl+ and hc-) at seeds 0 and 1 with a
budget of 30 simulations, and takes one sha256 per run over the
front.json, audit.jsonl and convergence.csv it writes, in that order.
Without --check the digests are written to tests/search_digests.json;
with --check they are compared with that file, a nonzero exit names each
run that differs.
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
from batchopt.fixtures import FIXTURES_ROOT, MANIFEST_NAME

DIGESTS_PATH = ROOT / "tests" / "search_digests.json"
ARMS = (("hc", True), ("sa", True), ("rl", True), ("hc", False))
SEEDS = (0, 1)
BUDGET = 30
HASHED_OUTPUTS = ("front.json", "audit.jsonl", "convergence.csv")


def compute_digests() -> dict[str, str]:
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "optimizer.json"
        config.write_text(json.dumps({"maxSolutions": BUDGET}))
        for fixture in json.loads((FIXTURES_ROOT / MANIFEST_NAME).read_text()):
            inputs = FIXTURES_ROOT / fixture
            for strategy, guided in ARMS:
                for seed in SEEDS:
                    key = f"{fixture}/{strategy}{'+' if guided else '-'}/seed{seed}"
                    out = Path(tmp) / key
                    argv = ["optimize", "--model", str(inputs / "model.json"),
                            "--policies", str(inputs / "policies.json"), "--config", str(config),
                            "--strategy", strategy, "--guided" if guided else "--unguided",
                            "--seed", str(seed), "--out", str(out)]
                    with contextlib.redirect_stdout(io.StringIO()):
                        code = cli.main(argv)
                    if code != cli.EXIT_OK:
                        raise SystemExit(f"{key}: batchopt optimize exited {code}")
                    digest = hashlib.sha256()
                    for name in HASHED_OUTPUTS:
                        digest.update((out / name).read_bytes())
                    digests[key] = digest.hexdigest()
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
