"""Correctness checks and the front-quality measure of the benchmark.

Every helper here reads program outputs; none of them changes what the
program computes.
"""

from __future__ import annotations

import hashlib
import json
import os

MANIFEST = "manifest.json"  # carries durationSeconds, so never digested


def output_digest(directory: str) -> str:
    """SHA-256 over the primary outputs of one CLI command: every file in
    its output directory except the manifest, in name order."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(directory)):
        if name == MANIFEST:
            continue
        with open(os.path.join(directory, name), "rb") as fh:
            data = fh.read()
        h.update(name.encode("utf-8") + b"\0")
        h.update(len(data).to_bytes(8, "big"))
        h.update(data)
    return h.hexdigest()


def directory_bytes(directory: str) -> int:
    return sum(os.path.getsize(os.path.join(directory, n)) for n in os.listdir(directory))


def hypervolume(points, scale, reference) -> float:
    """Area dominated by `points` (both objectives minimised) inside the box
    bounded by `reference`, after dividing each objective by `scale`.

    Points outside the box add nothing; dominated points add nothing.
    """
    sx, sy = scale
    rx, ry = reference
    scaled = sorted((x / sx, y / sy) for x, y in points)
    area = 0.0
    ceiling = ry
    for x, y in scaled:
        if x >= rx:
            break
        if y < ceiling:
            area += (rx - x) * (ceiling - y)
            ceiling = y
    return area


def check_optimize_outputs(directory: str) -> tuple[list[tuple[float, float]], int, int, list[str]]:
    """Validate one `optimize` output directory.

    Returns the front points, the audit row count, the failed audit row
    count and a list of problems (empty when the outputs are correct). The
    front must parse with the program's own `parse_front`, which requires
    sorted, finite, mutually non-dominated points, and every front point
    must be the point of the audit row of the simulation it names.
    """
    from batchopt.pareto import ParetoError, parse_front

    problems = []
    with open(os.path.join(directory, "front.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    try:
        front = parse_front(doc)
    except (ParetoError, KeyError, TypeError, ValueError) as err:
        return [], 0, 0, [f"{directory}: front.json does not parse: {err}"]
    audit_points = {}
    rows = failed = 0
    with open(os.path.join(directory, "audit.jsonl"), encoding="utf-8") as fh:
        for line in fh:
            row = json.loads(line)
            rows += 1
            if row["failed"]:
                failed += 1
            elif row["point"] is not None:
                audit_points[row["sim"]] = tuple(row["point"])
    if not front.solutions:
        problems.append(f"{directory}: empty front")
    for solution in front.solutions:
        sim = int(solution.log_ref.rpartition("-")[2]) if solution.log_ref else -1
        if audit_points.get(sim) != solution.point:
            problems.append(
                f"{directory}: front point {solution.point} ({solution.log_ref}) not in audit.jsonl"
            )
    return list(front.points), rows, failed, problems


def check_goldens(fixtures_root: str) -> tuple[int, list[str]]:
    """File count and problems of the program's own golden-tree check."""
    from batchopt.fixtures import regenerate_goldens

    report = regenerate_goldens(fixtures_root, check=True)
    return len(report), [f"golden {f}/{n}: {s}" for f, n, s in report if s != "unchanged"]
