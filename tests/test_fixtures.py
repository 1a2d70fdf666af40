from dataclasses import replace
from pathlib import Path

import pytest

from batchopt import fixtures as fx
from batchopt.analytics import DetectionConfig, compute_stats, detect_scenarios
from batchopt.engine import simulate
from batchopt.interventions import InterventionConfig, apply_delta, derive_interventions

REPO_FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


class TestCatalog:
    def test_names_are_unique(self):
        names = [f.name for f in fx.all_fixtures()]
        assert len(names) == len(set(names))

    def test_lookup_by_name(self):
        for f in fx.all_fixtures():
            assert fx.get_fixture(f.name).name == f.name

    def test_unknown_name_rejected(self):
        with pytest.raises(fx.FixtureError):
            fx.get_fixture("no-such-fixture")

    def test_pattern_ids_cover_one_to_nineteen(self):
        assert sorted(fx.SCENARIO_BUILDERS) == list(range(1, 20))

    def test_unknown_pattern_id_rejected(self):
        with pytest.raises(fx.FixtureError):
            fx.scenario_fixture(20)

    def test_models_stay_small(self):
        for f in fx.all_fixtures():
            model = f.model()
            assert len(model.activities) <= 5, f.name
            assert f.model_doc["arrival"]["totalCases"] <= 200, f.name

    def test_every_fixture_names_its_target(self):
        for f in fx.all_fixtures():
            assert f.target_activity in {a.id for a in f.model().activities}, f.name


class TestPatternCoverage:
    @pytest.mark.parametrize("sid", sorted(fx.SCENARIO_BUILDERS))
    def test_detect_derive_apply_round_trip(self, sid):
        fixture = fx.scenario_fixture(sid)
        assert sid in fixture.scenario_ids
        model = fixture.model()
        policies = fixture.policies()
        result = simulate(model, policies, fixture.sim_config())
        stats = compute_stats(result.log, model)
        instances = detect_scenarios(result.log, model, policies, DetectionConfig())
        mine = [i for i in instances if i.scenario_id == sid]
        assert mine, f"pattern {sid} silent on its own fixture"
        deltas = []
        for instance in mine:
            deltas.extend(
                derive_interventions(instance, stats, policies, InterventionConfig())
            )
        assert deltas, f"pattern {sid} produced no interventions"
        # a rescale can round back onto the current threshold, so the
        # guarantee is that the list contains at least one effective edit
        assert any(apply_delta(policies, d) != policies for d in deltas)

    def test_committed_ids_are_detected(self):
        for fixture in fx.all_fixtures():
            model, policies = fixture.model(), fixture.policies()
            log = simulate(model, policies, fixture.sim_config()).log
            doc = fx.detected_scenarios_doc(log, model, policies)
            found = set(doc.get(fixture.target_activity, []))
            assert set(fixture.scenario_ids) <= found, fixture.name


class TestOracle:
    def test_grid_needs_at_most_ten_simulations(self):
        assert len(fx.ORACLE_SIZES) * len(fx.ORACLE_BATCH_TYPES) == 10

    def test_front_is_a_clean_tradeoff(self):
        front = fx.enumerate_oracle_front(fx.get_fixture("monotone-tradeoff"))
        points = sorted(s.point for s in front.solutions)
        cts = [p[0] for p in points]
        costs = [p[1] for p in points]
        assert cts == sorted(cts)
        assert all(a < b for a, b in zip(cts, cts[1:]))
        assert all(a > b for a, b in zip(costs, costs[1:]))

    def test_known_front(self):
        front = fx.enumerate_oracle_front(fx.get_fixture("monotone-tradeoff"))
        assert sorted(s.point for s in front.solutions) == [
            (600.0, 10.0),
            (2100.0, 5.0),
            (2600.0, 3.3333333333333335),
            (2850.0, 2.5),
            (3000.0, 2.0),
        ]


class TestTwoBatchNumbers:
    def test_objectives_by_hand(self):
        fixture = fx.get_fixture("two-batch")
        result = simulate(fixture.model(), fixture.policies(), fixture.sim_config())
        o = result.objectives
        assert o.instance_count == 4
        assert o.total_cycle_time == pytest.approx(4800.0, abs=1e-9)
        assert o.total_cost == pytest.approx(20.0, abs=1e-9)
        assert o.avg_cycle_time == pytest.approx(1200.0, abs=1e-9)
        assert o.avg_cost == pytest.approx(5.0, abs=1e-9)


class TestGoldenTree:
    def test_committed_tree_is_current(self):
        report = fx.regenerate_goldens(REPO_FIXTURES, check=True)
        stale = [r for r in report if r[2] != "unchanged"]
        assert stale == []

    def test_regeneration_is_idempotent(self, tmp_path):
        fx.regenerate_goldens(tmp_path)
        report = fx.regenerate_goldens(tmp_path, check=True)
        assert all(r[2] == "unchanged" for r in report)

    def test_one_changed_fixture_stays_local(self, tmp_path):
        fx.regenerate_goldens(tmp_path)
        flipped = tuple(
            replace(f, sim_seed=f.sim_seed + 1) if f.name == "monotone-tradeoff" else f
            for f in fx.all_fixtures()
        )
        report = fx.regenerate_goldens(tmp_path, fixtures=flipped, check=True)
        touched = {r[0] for r in report if r[2] != "unchanged"}
        assert touched == {"monotone-tradeoff"}
        # inputs that do not depend on the seed stay byte-identical
        stale_files = {r[1] for r in report if r[2] != "unchanged"}
        assert "model.json" not in stale_files
        assert "policies.json" not in stale_files
