"""Curated synthetic fixtures with known behavior.

Each fixture is a tiny process model (at most five activities, at most
two hundred cases) plus an initial policy set and a simulation seed,
engineered so that a specific inefficiency shows up in its log. The
registry covers every trigger scenario at least once, the exhaustively
enumerable size-threshold grid used as an optimizer oracle, and the
calendar-misalignment model used for the guided-versus-unguided
comparison.

Golden files live under ``fixtures/`` (one directory per fixture plus a
manifest index) and regenerate bit-identically from the seeds here; see
``regenerate_goldens``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

from .analytics import DetectionConfig, detect_scenarios
from .codec import to_doc
from .engine import SimConfig, simulate
from .eventlog import render_batch_csv, render_event_csv
from .model import WEEKDAY_NAMES, ProcessModel, parse_model
from .pareto import (
    ParetoFront,
    Solution,
    render_front_csv,
    update_front,
)
from .policy import (
    PARALLEL,
    SEQUENTIAL,
    BatchingPolicy,
    CostModel,
    PolicySet,
    parse_policies,
    policy_set,
    rule,
    serialize_policies,
    size_at_least,
    wait_first_at_least,
    wait_last_at_least,
)

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
# document building blocks

def _spans(*entries) -> list[dict]:
    return [{"weekday": d, "start": s, "end": e} for d, s, e in entries]


def _all_week() -> list[dict]:
    return _spans(*[(d, "00:00", "24:00") for d in WEEKDAY_NAMES])


def _business_mornings() -> list[dict]:
    return _spans(*[(d, "08:00", "12:00") for d in WEEKDAY_NAMES[:5]])


def _fixed(value: float) -> dict:
    return {"kind": "fixed", "value": value}


def _activity(activity_id: str, duration: float, resource: str, fixed_cost: float = 0.0) -> dict:
    return {
        "id": activity_id,
        "duration": _fixed(duration),
        "resources": [resource],
        "fixedCostPerExecution": fixed_cost,
    }


def _resource(resource_id: str, calendar: list[dict], rate: float = 0.0) -> dict:
    return {"id": resource_id, "calendar": calendar, "costPerTimeUnit": rate}


def _single_activity_model(
    activity_id: str,
    duration: float,
    inter_arrival: float,
    total_cases: int,
    arrival_calendar: list[dict] | None = None,
    resource_calendar: list[dict] | None = None,
    resources: list[dict] | None = None,
) -> dict:
    if resources is None:
        resources = [_resource("clerk", resource_calendar or _all_week())]
    return {
        "startNode": activity_id,
        "endNodes": [activity_id],
        "activities": [
            {
                "id": activity_id,
                "duration": _fixed(duration),
                "resources": [r["id"] for r in resources],
                "fixedCostPerExecution": 0.0,
            }
        ],
        "arcs": [],
        "resources": resources,
        "arrival": {
            "interArrival": _fixed(inter_arrival),
            "calendar": arrival_calendar or _all_week(),
            "totalCases": total_cases,
        },
    }


def _chain_model(
    activities: list[dict],
    resources: list[dict],
    inter_arrival: float,
    total_cases: int,
    arrival_calendar: list[dict] | None = None,
) -> dict:
    ids = [a["id"] for a in activities]
    return {
        "startNode": ids[0],
        "endNodes": [ids[-1]],
        "activities": activities,
        "arcs": [{"source": a, "target": b} for a, b in zip(ids, ids[1:])],
        "resources": resources,
        "arrival": {
            "interArrival": _fixed(inter_arrival),
            "calendar": arrival_calendar or _all_week(),
            "totalCases": total_cases,
        },
    }


def _policies_doc(*policies: BatchingPolicy) -> dict:
    return serialize_policies(policy_set(*policies))


# ---------------------------------------------------------------------------
# oracle and comparison fixtures

def monotone_tradeoff() -> Fixture:
    """Single activity where batch size trades cycle time against cost.

    Work (10 min) is much shorter than the inter-arrival gap (1 h), so
    every extra member a batch waits for adds a full gap to its span
    while the fixed batch fee is split one more way. The non-dominated
    set over the size grid is exactly one point per parallel threshold.
    """
    model = _single_activity_model("issue", 600.0, 3600.0, 60)
    policies = _policies_doc(
        BatchingPolicy(
            "issue", PARALLEL, rule([size_at_least(3)]), CostModel(fixed_cost=10.0)
        )
    )
    return Fixture(
        name="monotone-tradeoff",
        description=(
            "fast work behind slow arrivals: batch size buys average cost "
            "at a fixed cycle-time price per extra member"
        ),
        model_doc=model,
        policies_doc=policies,
        sim_seed=0,
        target_activity="issue",
        scenario_ids=(11, 12, 17, 19),
    )


def circadian() -> Fixture:
    """Monday-morning arrival peak against a mornings-only resource.

    Two cases hit the queue together when the office opens each Monday
    and the clerk works weekday mornings, but the initial five-case
    floor strands every Monday pair across week boundaries. Batch sizes
    that divide the weekly pair rhythm form the entire non-dominated
    set, and the log-driven size prescriptions walk straight along it.
    """
    model = _single_activity_model(
        "claim",
        600.0,
        302400.0,
        32,
        arrival_calendar=_spans(("Monday", "08:00", "08:30")),
        resource_calendar=_business_mornings(),
    )
    policies = _policies_doc(
        BatchingPolicy(
            "claim",
            PARALLEL,
            rule([size_at_least(5)]),
            CostModel(fixed_cost=10.0),
        )
    )
    return Fixture(
        name="circadian",
        description=(
            "arrivals peak Mondays 08:00, the resource works 08:00-12:00, "
            "and a five-case floor misaligns batches with the weekly rhythm"
        ),
        model_doc=model,
        policies_doc=policies,
        sim_seed=0,
        target_activity="claim",
        scenario_ids=(3, 11, 12, 17, 19),
    )


def two_batch() -> Fixture:
    """Four cases in two parallel batches with hand-computable objectives.

    Arrivals every 30 min, work 10 min, release at two members: each batch
    spans 40 min from its first enablement, costs 6 fixed plus 4 variable.
    Totals: cycle time 4800 s, cost 20, four instances.
    """
    model = _single_activity_model("ticket", 600.0, 1800.0, 4)
    policies = _policies_doc(
        BatchingPolicy(
            "ticket",
            PARALLEL,
            rule([size_at_least(2)]),
            CostModel(fixed_cost=6.0, variable_cost=((2, 4.0),)),
        )
    )
    return Fixture(
        name="two-batch",
        description="two hand-checked batches for the objective formulas",
        model_doc=model,
        policies_doc=policies,
        sim_seed=0,
        target_activity="ticket",
        scenario_ids=(),
    )


# ---------------------------------------------------------------------------
# one fixture per trigger scenario

def _waits_chain(slow_policy: BatchingPolicy, total_cases: int = 24) -> dict:
    activities = [
        _activity("intake", 60.0, "desk"),
        _activity("review", 600.0, "examiner"),
    ]
    resources = [_resource("desk", _all_week()), _resource("examiner", _all_week())]
    return _chain_model(activities, resources, 3600.0, total_cases)


def scenario_01() -> Fixture:
    policy = BatchingPolicy(
        "review", PARALLEL, rule([wait_first_at_least(4 * 3600.0)]), CostModel(fixed_cost=8.0)
    )
    return Fixture(
        name="upstream-first-waits",
        description="review batches hold their oldest member four hours",
        model_doc=_waits_chain(policy),
        policies_doc=_policies_doc(policy),
        target_activity="review",
        scenario_ids=(1,),
    )


def scenario_02() -> Fixture:
    policy = BatchingPolicy(
        "review", PARALLEL, rule([wait_last_at_least(2 * 3600.0)]), CostModel(fixed_cost=8.0)
    )
    return Fixture(
        name="trailing-last-waits",
        description=(
            "hourly arrivals keep resetting a two-hour newest-member timer, "
            "so the batch releases only when the stream ends"
        ),
        model_doc=_waits_chain(policy),
        policies_doc=_policies_doc(policy),
        target_activity="review",
        scenario_ids=(2,),
    )


def scenario_03() -> Fixture:
    model = _single_activity_model(
        "claim",
        600.0,
        900.0,
        16,
        arrival_calendar=_spans(("Monday", "08:00", "10:00")),
    )
    policy = BatchingPolicy(
        "claim", PARALLEL, rule([size_at_least(4)]), CostModel(fixed_cost=8.0)
    )
    return Fixture(
        name="burst-arrivals",
        description="all enablements crowd two Monday-morning hour buckets",
        model_doc=model,
        policies_doc=_policies_doc(policy),
        target_activity="claim",
        scenario_ids=(3,),
    )


def scenario_04() -> Fixture:
    calendar = _spans(("Monday", "08:00", "12:00"), ("Tuesday", "08:00", "08:30"))
    model = _single_activity_model(
        "claim",
        600.0,
        1800.0,
        8,
        arrival_calendar=_spans(("Monday", "13:00", "15:00")),
        resource_calendar=calendar,
    )
    policy = BatchingPolicy(
        "claim", PARALLEL, rule([size_at_least(2)]), CostModel(fixed_cost=8.0)
    )
    return Fixture(
        name="off-window-starts",
        description=(
            "Monday-afternoon batches spill into a half-open Tuesday slot "
            "instead of the full Monday window"
        ),
        model_doc=model,
        policies_doc=_policies_doc(policy),
        target_activity="claim",
        scenario_ids=(4,),
    )


def scenario_05() -> Fixture:
    policy = BatchingPolicy(
        "review", PARALLEL, rule([size_at_least(6)]), CostModel(fixed_cost=8.0)
    )
    return Fixture(
        name="oversize-threshold",
        description="a six-member floor makes the first arrival wait five hours",
        model_doc=_waits_chain(policy),
        policies_doc=_policies_doc(policy),
        target_activity="review",
        scenario_ids=(1, 5),
    )


def scenario_06() -> Fixture:
    activities = [
        _activity("intake", 60.0, "desk"),
        _activity("inspection", 7200.0, "examiner"),
    ]
    resources = [_resource("desk", _all_week()), _resource("examiner", _all_week())]
    model = _chain_model(activities, resources, 3600.0, 24)
    policy = BatchingPolicy(
        "inspection", PARALLEL, rule([size_at_least(2)]), CostModel(fixed_cost=8.0)
    )
    return Fixture(
        name="heavy-parallel-work",
        description="two-hour inspections batched in pairs dwarf the intake step",
        model_doc=model,
        policies_doc=_policies_doc(policy),
        target_activity="inspection",
        scenario_ids=(6,),
    )


def scenario_07() -> Fixture:
    model = _single_activity_model("claim", 600.0, 3600.0, 18)
    policy = BatchingPolicy(
        "claim", SEQUENTIAL, rule([size_at_least(3)]), CostModel(fixed_cost=9.0)
    )
    return Fixture(
        name="sequential-grind",
        description="members run back to back although the work is parallelizable",
        model_doc=model,
        policies_doc=_policies_doc(policy),
        target_activity="claim",
        scenario_ids=(7,),
    )


def scenario_08() -> Fixture:
    model = _single_activity_model(
        "claim",
        2700.0,
        900.0,
        16,
        arrival_calendar=_spans(("Monday", "08:00", "10:00")),
        resource_calendar=_business_mornings(),
    )
    policy = BatchingPolicy(
        "claim", SEQUENTIAL, rule([size_at_least(8)]), CostModel(fixed_cost=12.0)
    )
    return Fixture(
        name="window-overrun",
        description=(
            "six hours of back-to-back work can never fit a four-hour "
            "morning, so every batch straddles closed time"
        ),
        model_doc=model,
        policies_doc=_policies_doc(policy),
        target_activity="claim",
        scenario_ids=(7, 8),
    )


def scenario_09() -> Fixture:
    model = _single_activity_model(
        "claim",
        1000.0,
        37800.0,
        32,
        arrival_calendar=_spans(("Monday", "08:00", "08:30")),
        resource_calendar=_business_mornings(),
    )
    policy = BatchingPolicy(
        "claim", SEQUENTIAL, rule([size_at_least(8)]), CostModel(fixed_cost=12.0)
    )
    return Fixture(
        name="window-misfit",
        description=(
            "the second Monday batch starts at 10:13 and stalls overnight, "
            "though a later window would hold its two hours in one piece"
        ),
        model_doc=model,
        policies_doc=_policies_doc(policy),
        target_activity="claim",
        scenario_ids=(7, 8, 9),
    )


def scenario_10() -> Fixture:
    model = _single_activity_model("claim", 600.0, 3600.0, 16)
    policy = BatchingPolicy(
        "claim",
        PARALLEL,
        rule([size_at_least(2)]),
        CostModel(variable_cost=((1, 5.0), (2, 8.0))),
    )
    return Fixture(
        name="bulk-discount",
        description="doubling a batch costs less than twice the money, unused",
        model_doc=model,
        policies_doc=_policies_doc(policy),
        target_activity="claim",
        scenario_ids=(10,),
    )


def scenario_11() -> Fixture:
    activities = [
        _activity("intake", 60.0, "desk"),
        _activity("appraisal", 600.0, "examiner"),
    ]
    resources = [_resource("desk", _all_week()), _resource("examiner", _all_week())]
    model = _chain_model(activities, resources, 3600.0, 24)
    pricey = BatchingPolicy(
        "appraisal", PARALLEL, rule([size_at_least(2)]), CostModel(fixed_cost=50.0)
    )
    cheap = BatchingPolicy(
        "intake", PARALLEL, rule([size_at_least(2)]), CostModel(fixed_cost=1.0)
    )
    return Fixture(
        name="cost-hog",
        description="one step carries nearly the whole process cost",
        model_doc=model,
        policies_doc=_policies_doc(pricey, cheap),
        target_activity="appraisal",
        scenario_ids=(11,),
    )


def scenario_12() -> Fixture:
    model = {
        "startNode": "triage",
        "endNodes": ["standard", "escalate"],
        "activities": [
            _activity("triage", 60.0, "desk"),
            _activity("standard", 600.0, "examiner"),
            _activity("escalate", 600.0, "examiner"),
        ],
        "gateways": [
            {
                "id": "route",
                "kind": "xor-split",
                "branchProbabilities": {"route->standard": 0.8, "route->escalate": 0.2},
            }
        ],
        "arcs": [
            {"source": "triage", "target": "route"},
            {"source": "route", "target": "standard"},
            {"source": "route", "target": "escalate"},
        ],
        "resources": [
            _resource("desk", _all_week()),
            _resource("examiner", _all_week()),
        ],
        "arrival": {
            "interArrival": _fixed(3600.0),
            "calendar": _all_week(),
            "totalCases": 30,
        },
    }
    policy = BatchingPolicy(
        "standard", PARALLEL, rule([size_at_least(2)]), CostModel(fixed_cost=8.0)
    )
    return Fixture(
        name="busy-step",
        description="the standard route handles most executions",
        model_doc=model,
        policies_doc=_policies_doc(policy),
        target_activity="standard",
        scenario_ids=(12,),
    )


def scenario_13() -> Fixture:
    model = {
        "startNode": "fork",
        "endNodes": ["ledger", "audit"],
        "activities": [
            _activity("ledger", 300.0, "desk"),
            _activity("audit", 600.0, "examiner"),
        ],
        "gateways": [{"id": "fork", "kind": "and-split"}],
        "arcs": [
            {"source": "fork", "target": "ledger"},
            {"source": "fork", "target": "audit"},
        ],
        "resources": [
            _resource("desk", _all_week()),
            _resource("examiner", _all_week()),
        ],
        "arrival": {
            "interArrival": _fixed(3600.0),
            "calendar": _all_week(),
            "totalCases": 20,
        },
    }
    cheap = BatchingPolicy(
        "ledger", PARALLEL, rule([size_at_least(2)]), CostModel(fixed_cost=1.0)
    )
    pricey = BatchingPolicy(
        "audit", PARALLEL, rule([size_at_least(2)]), CostModel(fixed_cost=50.0)
    )
    return Fixture(
        name="split-twins",
        description=(
            "a cheap ledger step mirrors the audit step's enablement "
            "pattern exactly and could ride along in its batches"
        ),
        model_doc=model,
        policies_doc=_policies_doc(cheap, pricey),
        target_activity="ledger",
        scenario_ids=(13,),
    )


def scenario_14() -> Fixture:
    model = {
        "startNode": "assess",
        "endNodes": ["archive", "deep-dive"],
        "activities": [
            _activity("assess", 1800.0, "desk"),
            _activity("archive", 300.0, "desk"),
            _activity("deep-dive", 600.0, "examiner"),
        ],
        "gateways": [
            {
                "id": "route",
                "kind": "xor-split",
                "branchProbabilities": {"route->archive": 0.9, "route->deep-dive": 0.1},
            }
        ],
        "arcs": [
            {"source": "assess", "target": "route"},
            {"source": "route", "target": "archive"},
            {"source": "route", "target": "deep-dive"},
        ],
        "resources": [
            _resource("desk", _all_week()),
            _resource("examiner", _all_week()),
        ],
        "arrival": {
            "interArrival": _fixed(3600.0),
            "calendar": _all_week(),
            "totalCases": 30,
        },
    }
    main = BatchingPolicy(
        "assess", PARALLEL, rule([size_at_least(2)]), CostModel(fixed_cost=10.0)
    )
    rare = BatchingPolicy(
        "deep-dive", PARALLEL, rule([size_at_least(2)]), CostModel(fixed_cost=1.0)
    )
    return Fixture(
        name="stray-branch",
        description=(
            "a rare, cheap side branch resembles no other step; its batching "
            "needs its own look"
        ),
        model_doc=model,
        policies_doc=_policies_doc(main, rare),
        target_activity="deep-dive",
        scenario_ids=(14,),
    )


def scenario_15() -> Fixture:
    model = _single_activity_model("claim", 600.0, 3600.0, 15)
    policy = BatchingPolicy(
        "claim",
        PARALLEL,
        rule([size_at_least(2)]),
        CostModel(variable_cost=((1, 4.0), (2, 10.0))),
    )
    return Fixture(
        name="premium-singles",
        description=(
            "the leftover case ends up in a single-member batch although "
            "per-instance cost never improves with size"
        ),
        model_doc=model,
        policies_doc=_policies_doc(policy),
        target_activity="claim",
        scenario_ids=(15,),
    )


def scenario_16() -> Fixture:
    model = _single_activity_model("claim", 7000.0, 3600.0, 40)
    policy = BatchingPolicy(
        "claim", PARALLEL, rule([size_at_least(2)]), CostModel(fixed_cost=9.0)
    )
    return Fixture(
        name="hot-resource",
        description="the clerk is busy over 97 percent of the horizon",
        model_doc=model,
        policies_doc=_policies_doc(policy),
        target_activity="claim",
        scenario_ids=(16,),
    )


def scenario_17() -> Fixture:
    model = _single_activity_model("claim", 600.0, 3600.0, 24)
    policy = BatchingPolicy(
        "claim", PARALLEL, rule([size_at_least(3)]), CostModel(fixed_cost=9.0)
    )
    return Fixture(
        name="sleepy-resource",
        description="ten-minute jobs an hour apart leave the clerk mostly idle",
        model_doc=model,
        policies_doc=_policies_doc(policy),
        target_activity="claim",
        scenario_ids=(17,),
    )


def scenario_18() -> Fixture:
    resources = [
        _resource("clerk-a", _all_week()),
        _resource("clerk-b", _all_week()),
    ]
    model = _single_activity_model(
        "claim", 3000.0, 1800.0, 24, resources=resources
    )
    policy = BatchingPolicy(
        "claim", PARALLEL, rule([size_at_least(1)]), CostModel(fixed_cost=4.0)
    )
    return Fixture(
        name="ping-pong",
        description="overlapping jobs bounce between two clerks every batch",
        model_doc=model,
        policies_doc=_policies_doc(policy),
        target_activity="claim",
        scenario_ids=(18,),
    )


def scenario_19() -> Fixture:
    model = _single_activity_model("claim", 600.0, 3600.0, 18)
    policy = BatchingPolicy(
        "claim", PARALLEL, rule([size_at_least(3)]), CostModel(fixed_cost=9.0)
    )
    return Fixture(
        name="frozen-assignment",
        description="one clerk takes every batch; the size floor is untested",
        model_doc=model,
        policies_doc=_policies_doc(policy),
        target_activity="claim",
        scenario_ids=(17, 19),
    )


SCENARIO_BUILDERS = {
    1: scenario_01,
    2: scenario_02,
    3: scenario_03,
    4: scenario_04,
    5: scenario_05,
    6: scenario_06,
    7: scenario_07,
    8: scenario_08,
    9: scenario_09,
    10: scenario_10,
    11: scenario_11,
    12: scenario_12,
    13: scenario_13,
    14: scenario_14,
    15: scenario_15,
    16: scenario_16,
    17: scenario_17,
    18: scenario_18,
    19: scenario_19,
}


def scenario_fixture(scenario_id: int) -> Fixture:
    """The dedicated fixture committed to trigger `scenario_id`."""
    try:
        fixture = SCENARIO_BUILDERS[scenario_id]()
    except KeyError:
        raise FixtureError(f"no fixture for scenario {scenario_id}") from None
    if scenario_id not in fixture.scenario_ids:
        raise FixtureError(
            f"fixture {fixture.name!r} does not commit to scenario {scenario_id}"
        )
    return fixture


def all_fixtures() -> tuple[Fixture, ...]:
    builders = [monotone_tradeoff, circadian, two_batch]
    builders.extend(SCENARIO_BUILDERS[i] for i in sorted(SCENARIO_BUILDERS))
    return tuple(b() for b in builders)


def get_fixture(name: str) -> Fixture:
    for f in all_fixtures():
        if f.name == name:
            return f
    raise FixtureError(f"unknown fixture {name!r}")


# ---------------------------------------------------------------------------
# exhaustive size-grid oracle

def size_grid_policies(fixture: Fixture, size: int, batch_type: str) -> PolicySet:
    """The fixture's policy set with the target activity's rule replaced
    by a bare size threshold of the given type."""
    policies = dict(fixture.policies())
    base = policies[fixture.target_activity]
    policies[fixture.target_activity] = replace(
        base, batch_type=batch_type, rule=rule([size_at_least(size)])
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

def detected_scenarios_doc(fixture: Fixture) -> dict:
    """Scenario ids per activity on the fixture's initial log."""
    model = fixture.model()
    policies = fixture.policies()
    result = simulate(model, policies, fixture.sim_config())
    found = detect_scenarios(result.log, model, policies, DetectionConfig())
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
        "policies.json": _json_bytes(fixture.policies_doc),
        "simconfig.json": _json_bytes(to_doc(config)),
        "events.csv": render_event_csv(result.log),
        "batches.csv": render_batch_csv(result.log),
        "detected.json": _json_bytes(detected_scenarios_doc(fixture)),
    }
    if fixture.name == "monotone-tradeoff":
        files["oracle_front.csv"] = render_front_csv(enumerate_oracle_front(fixture))
    return files


def regenerate_goldens(
    root: str | Path,
    fixtures: tuple[Fixture, ...] | None = None,
    check: bool = False,
) -> list[tuple[str, str, str]]:
    """Write (or, with check=True, diff) every fixture's golden files.

    Returns (fixture, file, status) rows where status is one of
    "written", "unchanged", or "differs". In check mode nothing is
    written and any "differs"/"missing" row marks a stale tree.
    """
    root = Path(root)
    if fixtures is None:
        fixtures = all_fixtures()
    report: list[tuple[str, str, str]] = []
    manifest = {}
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
    manifest_path = root / MANIFEST_NAME
    if manifest_path.exists() and manifest_path.read_text() == manifest_text:
        report.append(("", MANIFEST_NAME, "unchanged"))
    elif check:
        report.append(("", MANIFEST_NAME, "differs" if manifest_path.exists() else "missing"))
    else:
        root.mkdir(parents=True, exist_ok=True)
        manifest_path.write_text(manifest_text)
        report.append(("", MANIFEST_NAME, "written"))
    return report
