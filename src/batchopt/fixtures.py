"""The curated synthetic fixtures, read from the repository's `fixtures/` tree.

Each fixture is a tiny process model (at most five activities, at most
two hundred cases) plus an initial policy set and a simulation seed,
engineered so that a specific inefficiency shows up in its log. The
tree covers every trigger pattern at least once, the exhaustively
enumerable size-threshold grid used as an optimizer oracle, and the
calendar-misalignment model used for the guided-versus-unguided
comparison (see docs/fixtures.md).

A fixture is one directory under `fixtures/`: its committed
`model.json`, `policies.json` and `simconfig.json` are its source, and
its description, target activity and pattern ids are its entry in
`fixtures/manifest.json`. The logs, detections and oracle front beside
them are derived; `regenerate_goldens` writes or checks them. The tree
sits next to `src/`, so an installed wheel does not ship it and this
module only works from a source checkout.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .analytics import DetectionConfig, detect_scenarios
from .codec import to_doc
from .engine import SimConfig, parse_sim_config, simulate
from .eventlog import EventLog, render_batch_csv, render_event_csv
from .model import ProcessModel, parse_model
from .pareto import (
    ParetoFront,
    Solution,
    render_front_csv,
    update_front,
)
from .policy import (
    PARALLEL,
    SEQUENTIAL,
    PolicySet,
    parse_policies,
    rule,
    serialize_policies,
    size_at_least,
)

FIXTURES_ROOT = Path(__file__).resolve().parents[2] / "fixtures"

ORACLE_SIZES = (1, 2, 3, 4, 5)
ORACLE_BATCH_TYPES = (SEQUENTIAL, PARALLEL)

MANIFEST_NAME = "manifest.json"


class FixtureError(ValueError):
    pass


@dataclass(frozen=True)
class Fixture:
    """A named model + initial policies + seed with documented behavior."""

    name: str
    description: str
    model_doc: dict
    policies_doc: dict
    sim_seed: int = 0
    target_activity: str = ""
    scenario_ids: tuple[int, ...] = ()

    def model(self) -> ProcessModel:
        return parse_model(self.model_doc)

    def policies(self) -> PolicySet:
        return parse_policies(self.policies_doc)

    def sim_config(self) -> SimConfig:
        return SimConfig(seed=self.sim_seed)


# ---------------------------------------------------------------------------
# the committed tree

# pattern id -> the fixture committed to trigger it; several fixtures list
# some patterns in their manifest `scenarios`, so this is its own table
SCENARIO_BUILDERS = {
    1: "upstream-first-waits",
    2: "trailing-last-waits",
    3: "burst-arrivals",
    4: "off-window-starts",
    5: "oversize-threshold",
    6: "heavy-parallel-work",
    7: "sequential-grind",
    8: "window-overrun",
    9: "window-misfit",
    10: "bulk-discount",
    11: "cost-hog",
    12: "busy-step",
    13: "split-twins",
    14: "stray-branch",
    15: "premium-singles",
    16: "hot-resource",
    17: "sleepy-resource",
    18: "ping-pong",
    19: "frozen-assignment",
}


def _read_json(path: Path):
    return json.loads(path.read_text())


def _manifest() -> dict:
    return _read_json(FIXTURES_ROOT / MANIFEST_NAME)


def _load(name: str, entry: dict) -> Fixture:
    """Fixture `name` read from its directory, with the description,
    target activity and pattern ids of its manifest `entry`."""
    directory = FIXTURES_ROOT / name
    return Fixture(
        name=name,
        description=entry["description"],
        model_doc=_read_json(directory / "model.json"),
        policies_doc=_read_json(directory / "policies.json"),
        sim_seed=parse_sim_config(_read_json(directory / "simconfig.json")).seed,
        target_activity=entry["targetActivity"],
        scenario_ids=tuple(entry["scenarios"]),
    )


def scenario_fixture(scenario_id: int) -> Fixture:
    """The dedicated fixture committed to trigger `scenario_id`."""
    name = SCENARIO_BUILDERS.get(scenario_id)
    if name is None:
        raise FixtureError(f"no fixture for scenario {scenario_id}")
    fixture = get_fixture(name)
    if scenario_id not in fixture.scenario_ids:
        raise FixtureError(
            f"fixture {fixture.name!r} does not commit to scenario {scenario_id}"
        )
    return fixture


def all_fixtures() -> tuple[Fixture, ...]:
    return tuple(_load(name, entry) for name, entry in _manifest().items())


def get_fixture(name: str) -> Fixture:
    entry = _manifest().get(name)
    if entry is None:
        raise FixtureError(f"unknown fixture {name!r}")
    return _load(name, entry)


# ---------------------------------------------------------------------------
# exhaustive size-grid oracle

def size_grid_policies(fixture: Fixture, size: int, batch_type: str) -> PolicySet:
    """The fixture's policy set with the target activity's rule replaced
    by a bare size threshold of the given type."""
    policies = dict(fixture.policies())
    base = policies[fixture.target_activity]
    policies[fixture.target_activity] = base._replace(
        batch_type=batch_type, rule=rule([size_at_least(size)])
    )
    return policies


def enumerate_oracle_front(
    fixture: Fixture,
    sizes: tuple[int, ...] = ORACLE_SIZES,
    batch_types: tuple[str, ...] = ORACLE_BATCH_TYPES,
) -> ParetoFront:
    """Brute-force non-dominated set over the size-threshold grid.

    One simulation per grid point (|sizes| x |batch_types| runs) against
    the fixture's own seed.
    """
    model = fixture.model()
    config = fixture.sim_config()
    front = ParetoFront()
    for batch_type in batch_types:
        for size in sizes:
            policies = size_grid_policies(fixture, size, batch_type)
            result = simulate(model, policies, config)
            candidate = Solution(
                policies=policies,
                point=result.objectives.point,
                log_ref=f"grid-{batch_type}-{size}",
            )
            front, _ = update_front(front, candidate)
    return front


# ---------------------------------------------------------------------------
# golden files

def detected_scenarios_doc(log: EventLog, model: ProcessModel, policies: PolicySet) -> dict:
    """Scenario ids per activity detected on `log`, simulated from `model`
    under `policies`."""
    found = detect_scenarios(log, model, policies, DetectionConfig())
    by_activity: dict[str, list[int]] = {}
    for inst in found:
        ids = by_activity.setdefault(inst.activity_id, [])
        if inst.scenario_id not in ids:
            ids.append(inst.scenario_id)
    return {a: sorted(ids) for a, ids in sorted(by_activity.items())}


def _json_bytes(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def fixture_files(fixture: Fixture) -> dict[str, str]:
    """All golden file contents for one fixture, keyed by file name."""
    model = fixture.model()
    policies = fixture.policies()
    config = fixture.sim_config()
    result = simulate(model, policies, config)
    files = {
        "model.json": _json_bytes(fixture.model_doc),
        "policies.json": _json_bytes(serialize_policies(policies)),
        "simconfig.json": _json_bytes(to_doc(config)),
        "events.csv": render_event_csv(result.log),
        "batches.csv": render_batch_csv(result.log),
        "detected.json": _json_bytes(detected_scenarios_doc(result.log, model, policies)),
    }
    if fixture.name == "monotone-tradeoff":
        files["oracle_front.csv"] = render_front_csv(enumerate_oracle_front(fixture))
    return files


def regenerate_goldens(
    root: str | Path,
    fixtures: tuple[Fixture, ...] | None = None,
    check: bool = False,
) -> list[tuple[str, str, str]]:
    """Write (or, with check=True, diff) every fixture's files under `root`.

    The three input documents are written in canonical form: a policies
    file is the serialization of its own parse. The manifest entries of
    `fixtures` are merged into the manifest already at `root`, so
    regenerating some fixtures keeps the others' entries. Returns
    (fixture, file, status) rows where status is one of "written",
    "unchanged", "differs" or "missing". In check mode nothing is
    written and any "differs"/"missing" row marks a stale tree.
    """
    root = Path(root)
    if fixtures is None:
        fixtures = all_fixtures()
    report: list[tuple[str, str, str]] = []
    manifest_path = root / MANIFEST_NAME
    manifest = _read_json(manifest_path) if manifest_path.exists() else {}
    for fixture in fixtures:
        directory = root / fixture.name
        files = fixture_files(fixture)
        manifest[fixture.name] = {
            "description": fixture.description,
            "targetActivity": fixture.target_activity,
            "scenarios": list(fixture.scenario_ids),
            "files": sorted(files),
        }
        for name, content in sorted(files.items()):
            path = directory / name
            if path.exists() and path.read_text() == content:
                report.append((fixture.name, name, "unchanged"))
                continue
            if check:
                status = "differs" if path.exists() else "missing"
                report.append((fixture.name, name, status))
                continue
            directory.mkdir(parents=True, exist_ok=True)
            path.write_text(content)
            report.append((fixture.name, name, "written"))
    manifest_text = _json_bytes(manifest)
    if manifest_path.exists() and manifest_path.read_text() == manifest_text:
        report.append(("", MANIFEST_NAME, "unchanged"))
    elif check:
        report.append(("", MANIFEST_NAME, "differs" if manifest_path.exists() else "missing"))
    else:
        root.mkdir(parents=True, exist_ok=True)
        manifest_path.write_text(manifest_text)
        report.append(("", MANIFEST_NAME, "written"))
    return report
