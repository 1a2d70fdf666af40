"""Regenerate (or verify) the committed fixture tree under fixtures/.

Usage:
    python scripts/regenerate_goldens.py [--check] [NAME ...]

Each fixture's committed model.json, policies.json and simconfig.json,
with its manifest.json entry (description, targetActivity, scenarios),
are the source. Without --check the derived files (events.csv,
batches.csv, detected.json, the oracle_front.csv of monotone-tradeoff
and the manifest's `files` lists) are rewritten from them, the inputs
are rewritten in canonical form, and each file's status is printed.
With --check nothing is written; a nonzero exit flags any stale,
missing or non-canonical file, so CI catches a code change that
silently altered fixture behavior. See docs/fixtures.md.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from batchopt.fixtures import FIXTURES_ROOT, get_fixture, regenerate_goldens


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="fixture names (default: all)")
    parser.add_argument("--check", action="store_true", help="diff only, write nothing")
    args = parser.parse_args(argv)

    fixtures = tuple(get_fixture(n) for n in args.names) if args.names else None
    report = regenerate_goldens(FIXTURES_ROOT, fixtures=fixtures, check=args.check)

    stale = 0
    for fixture, name, status in report:
        if status != "unchanged":
            print(f"{status:>9}  {fixture + '/' if fixture else ''}{name}")
        if status in ("differs", "missing"):
            stale += 1
    unchanged = sum(1 for _, _, s in report if s == "unchanged")
    print(f"{len(report)} files: {unchanged} unchanged, {len(report) - unchanged} other")

    if args.check and stale:
        print(f"stale golden tree: {stale} files differ; rerun without --check", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
