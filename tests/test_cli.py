import json
from pathlib import Path

import pytest

from batchopt.cli import EXIT_OK, MANIFEST_FILE, config_hash, main
from batchopt.fixtures import enumerate_oracle_front, get_fixture
from batchopt.pareto import render_front_csv


def write_json(path: Path, doc) -> str:
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return str(path)


def fixture_inputs(tmp_path: Path, name: str) -> tuple[str, str]:
    fixture = get_fixture(name)
    model = write_json(tmp_path / "model.json", fixture.model_doc)
    policies = write_json(tmp_path / "policies.json", fixture.policies_doc)
    return model, policies


def oracle_config(tmp_path: Path, **extra) -> str:
    doc = {
        "strategy": "hc",
        "guided": True,
        "maxSolutions": 80,
        "seed": 0,
        "intervention": {"maxSize": 5},
    }
    doc.update(extra)
    return write_json(tmp_path / "optimizer.json", doc)


def read(out_dir: Path, name: str) -> str:
    return (out_dir / name).read_text()


class TestSimulate:
    def test_writes_log_and_objectives(self, tmp_path):
        model, policies = fixture_inputs(tmp_path, "two-batch")
        out = tmp_path / "out"
        code = main(["simulate", "--model", model, "--policies", policies, "--out", str(out)])
        assert code == EXIT_OK
        events = read(out, "events.csv").rstrip("\n").splitlines()
        assert len(events) == 1 + 4  # header plus one row per instance
        objectives = json.loads(read(out, "objectives.json"))
        assert objectives == {
            "avgCycleTime": 1200.0,
            "avgCost": 5.0,
            "totalCycleTime": 4800.0,
            "totalCost": 20.0,
            "instances": 4,
        }
        manifest = json.loads(read(out, MANIFEST_FILE))
        assert manifest["command"] == "simulate"
        assert set(manifest["outputs"]) == {"events.csv", "batches.csv", "objectives.json"}

    def test_missing_model_is_a_usage_failure(self, tmp_path, capsys):
        absent = str(tmp_path / "absent.json")
        code = main(["simulate", "--model", absent, "--out", str(tmp_path / "out")])
        assert code == 2
        assert absent in capsys.readouterr().err

    def test_bad_policy_document_is_a_schema_failure(self, tmp_path, capsys):
        model, _ = fixture_inputs(tmp_path, "two-batch")
        bad = write_json(
            tmp_path / "bad.json",
            {"policies": [{"activity": "stamp", "batchType": "parallel",
                           "rule": [[{"kind": "size", "threshold": 0}]],
                           "cost": {"fixedCost": 1.0}}]},
        )
        code = main(["simulate", "--model", model, "--policies", bad, "--out", str(tmp_path / "out")])
        assert code == 3
        assert "bad.json" in capsys.readouterr().err

    @pytest.mark.parametrize("threshold", ["NaN", "1e400"])
    def test_non_finite_threshold_is_a_schema_failure(self, tmp_path, capsys, threshold):
        model, _ = fixture_inputs(tmp_path, "two-batch")
        bad = tmp_path / "bad.json"
        bad.write_text(
            '{"policies": [{"activity": "stamp", "batchType": "parallel", "rule": '
            f'[[{{"kind": "wt-first", "threshold": {threshold}}}]]}}]}}'
        )
        code = main(["simulate", "--model", model, "--policies", str(bad),
                     "--out", str(tmp_path / "out")])
        assert code == 3
        assert "finite" in capsys.readouterr().err

    def test_seed_flag_overrides_config(self, tmp_path):
        model, policies = fixture_inputs(tmp_path, "monotone-tradeoff")
        out = tmp_path / "out"
        main(["simulate", "--model", model, "--policies", policies,
              "--out", str(out), "--seed", "9"])
        manifest = json.loads(read(out, MANIFEST_FILE))
        assert manifest["seed"] == 9
        assert manifest["effectiveConfig"]["seed"] == 9

    def test_env_var_supplies_default_output_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BATCHOPT_OUT", str(tmp_path / "runs"))
        model, policies = fixture_inputs(tmp_path, "two-batch")
        code = main(["simulate", "--model", model, "--policies", policies])
        assert code == EXIT_OK
        assert (tmp_path / "runs" / "simulate" / "events.csv").exists()


class TestOptimize:
    def test_guided_climb_matches_the_oracle(self, tmp_path):
        model, policies = fixture_inputs(tmp_path, "monotone-tradeoff")
        config = oracle_config(tmp_path)
        out = tmp_path / "out"
        code = main(["optimize", "--model", model, "--policies", policies,
                     "--config", config, "--out", str(out)])
        assert code == EXIT_OK
        oracle = enumerate_oracle_front(get_fixture("monotone-tradeoff"))
        assert read(out, "front.csv") == render_front_csv(oracle)

    def test_rerun_is_byte_identical(self, tmp_path):
        model, policies = fixture_inputs(tmp_path, "monotone-tradeoff")
        config = oracle_config(tmp_path, strategy="sa", guided=False, maxSolutions=30, seed=7)
        first, second = tmp_path / "a", tmp_path / "b"
        for out in (first, second):
            assert main(["optimize", "--model", model, "--policies", policies,
                         "--config", config, "--out", str(out)]) == EXIT_OK
        for name in ("front.json", "front.csv", "audit.jsonl", "convergence.csv"):
            assert read(first, name) == read(second, name), name

    def test_zero_budget_is_a_usage_error(self, tmp_path):
        model, policies = fixture_inputs(tmp_path, "monotone-tradeoff")
        config = oracle_config(tmp_path, maxSolutions=0)
        with pytest.raises(SystemExit) as exc:
            main(["optimize", "--model", model, "--policies", policies,
                  "--config", config, "--out", str(tmp_path / "out")])
        assert exc.value.code == 2

    def test_rl_with_zero_iterations_keeps_the_initial_point(self, tmp_path):
        model, policies = fixture_inputs(tmp_path, "monotone-tradeoff")
        config = write_json(
            tmp_path / "rl.json",
            {"strategy": "rl", "guided": True, "rl": {"maxIterations": 0}},
        )
        out = tmp_path / "out"
        code = main(["optimize", "--model", model, "--policies", policies,
                     "--config", config, "--out", str(out)])
        assert code == EXIT_OK
        rows = read(out, "front.csv").rstrip("\n").splitlines()
        assert len(rows) == 2  # header plus the initial solution

    def test_unguided_flag_flips_the_label(self, tmp_path):
        model, policies = fixture_inputs(tmp_path, "monotone-tradeoff")
        config = oracle_config(tmp_path, maxSolutions=5)
        out = tmp_path / "out"
        main(["optimize", "--model", model, "--policies", policies,
              "--config", config, "--out", str(out), "--unguided"])
        assert json.loads(read(out, "front.json"))["label"] == "hc-"

    def test_seed_flag_lands_in_manifest_and_config_hash(self, tmp_path):
        model, policies = fixture_inputs(tmp_path, "monotone-tradeoff")
        config = oracle_config(tmp_path, maxSolutions=5)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["optimize", "--model", model, "--policies", policies,
              "--config", config, "--out", str(out_a), "--seed", "11"])
        main(["optimize", "--model", model, "--policies", policies,
              "--config", config, "--out", str(out_b)])
        manifest_a = json.loads(read(out_a, MANIFEST_FILE))
        manifest_b = json.loads(read(out_b, MANIFEST_FILE))
        assert manifest_a["seed"] == 11
        assert manifest_a["configHash"] != manifest_b["configHash"]


class TestAnalyze:
    def test_report_names_the_detected_patterns(self, tmp_path):
        model, policies = fixture_inputs(tmp_path, "monotone-tradeoff")
        out = tmp_path / "out"
        code = main(["analyze", "--model", model, "--policies", policies, "--out", str(out)])
        assert code == EXIT_OK
        report = json.loads(read(out, "report.json"))
        assert report["scenarios"] == [
            {"activity": "issue", "scenarioId": sid} for sid in (11, 12, 17, 19)
        ]
        (activity,) = report["activities"]
        assert activity["id"] == "issue"
        assert activity["executions"] == 60
        assert report["resources"][0]["id"] == "clerk"

    def test_rerun_is_byte_identical(self, tmp_path):
        model, policies = fixture_inputs(tmp_path, "circadian")
        first, second = tmp_path / "a", tmp_path / "b"
        for out in (first, second):
            assert main(["analyze", "--model", model, "--policies", policies,
                         "--out", str(out)]) == EXIT_OK
        assert read(first, "report.json") == read(second, "report.json")


class TestEvaluate:
    def optimize_front(self, tmp_path, label: str, guided: bool) -> str:
        model, policies = fixture_inputs(tmp_path, "monotone-tradeoff")
        config = oracle_config(tmp_path, maxSolutions=40, guided=guided)
        out = tmp_path / f"run-{label}"
        main(["optimize", "--model", model, "--policies", policies,
              "--config", config, "--out", str(out)] + ([] if guided else ["--unguided"]))
        doc = json.loads(read(out, "front.json"))
        doc["label"] = label
        return write_json(tmp_path / f"{label}.json", doc)

    def test_identical_fronts_score_perfectly(self, tmp_path):
        a = self.optimize_front(tmp_path, "first", guided=True)
        doc = json.loads(Path(a).read_text())
        doc["label"] = "second"
        b = write_json(tmp_path / "second.json", doc)
        out = tmp_path / "out"
        code = main(["evaluate", a, b, "--out", str(out)])
        assert code == EXIT_OK
        lines = read(out, "metrics.csv").rstrip("\n").splitlines()
        assert lines[0] == "label,points,hausdorff,purity,gain"
        for line in lines[1:]:
            label, points, hausdorff, purity, gain = line.split(",")
            assert hausdorff == "0.0"
            assert purity == "1.0"
            assert gain == ""

    def test_plus_minus_labels_pool_into_verdict(self, tmp_path):
        plus = self.optimize_front(tmp_path, "hc+", guided=True)
        minus = self.optimize_front(tmp_path, "hc-", guided=False)
        out = tmp_path / "out"
        code = main(["evaluate", plus, minus, "--out", str(out)])
        assert code == EXIT_OK
        labels = [line.split(",")[0] for line in read(out, "metrics.csv").splitlines()[1:]]
        assert labels == ["hc+", "hc-", "++", "--"]
        assert "++ weakly dominates --:" in read(out, "metrics.txt")

    def test_gain_column_appears_with_a_model(self, tmp_path):
        a = self.optimize_front(tmp_path, "first", guided=True)
        doc = json.loads(Path(a).read_text())
        doc["label"] = "second"
        b = write_json(tmp_path / "second.json", doc)
        model, policies = fixture_inputs(tmp_path, "monotone-tradeoff")
        out = tmp_path / "out"
        code = main(["evaluate", a, b, "--model", model, "--policies", policies,
                     "--out", str(out)])
        assert code == EXIT_OK
        for line in read(out, "metrics.csv").rstrip("\n").splitlines()[1:]:
            assert line.split(",")[4] != ""

    def test_fewer_than_two_fronts_is_a_usage_error(self, tmp_path):
        a = self.optimize_front(tmp_path, "only", guided=True)
        with pytest.raises(SystemExit) as exc:
            main(["evaluate", a, "--out", str(tmp_path / "out")])
        assert exc.value.code == 2

    def test_malformed_front_is_a_schema_failure(self, tmp_path, capsys):
        a = self.optimize_front(tmp_path, "good", guided=True)
        bad = tmp_path / "bad.json"
        bad.write_text("{ not json")
        code = main(["evaluate", a, str(bad), "--out", str(tmp_path / "out")])
        assert code == 3
        assert "bad.json" in capsys.readouterr().err

    def test_front_without_solutions_is_rejected(self, tmp_path, capsys):
        a = self.optimize_front(tmp_path, "good", guided=True)
        empty = write_json(tmp_path / "empty.json", {"label": "x", "solutions": []})
        code = main(["evaluate", a, empty, "--out", str(tmp_path / "out")])
        assert code == 3
        assert "empty.json" in capsys.readouterr().err


class TestConfigHash:
    def test_stable_under_key_reordering(self):
        assert config_hash({"a": 1, "b": [1, 2]}) == config_hash({"b": [1, 2], "a": 1})

    def test_sensitive_to_values(self):
        assert config_hash({"a": 1}) != config_hash({"a": 2})
