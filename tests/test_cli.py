import gc
import json
from pathlib import Path

import pytest

from batchopt import cli, engine, metrics
from batchopt.cli import EXIT_OK, MANIFEST_FILE, config_hash, main
from batchopt.codec import to_doc
from batchopt.engine import SimConfig
from batchopt.fixtures import enumerate_oracle_front, get_fixture
from batchopt.model import UNBOUNDED_VISITS
from batchopt.pareto import front_to_doc, render_front_csv
from batchopt.policy import policy_set_key
from batchopt.rng import derive_seed


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

    def test_without_policies_every_instance_is_a_batch_of_one(self, tmp_path):
        model, _ = fixture_inputs(tmp_path, "two-batch")
        out = tmp_path / "out"
        assert main(["simulate", "--model", model, "--out", str(out)]) == EXIT_OK
        events = read(out, "events.csv").rstrip("\n").splitlines()[1:]
        batches = read(out, "batches.csv").rstrip("\n").splitlines()[1:]
        assert len(events) == len(batches) == 4
        assert all(row.split(",")[5] == "1" for row in batches)  # the size column
        assert len({row.split(",")[6] for row in events}) == 4  # one batch id each

    def test_missing_model_is_a_usage_failure(self, tmp_path, capsys):
        absent = str(tmp_path / "absent.json")
        code = main(["simulate", "--model", absent, "--out", str(tmp_path / "out")])
        assert code == 2
        assert absent in capsys.readouterr().err

    @pytest.mark.parametrize("under", ["", "sub"], ids=["file", "path-under-file"])
    def test_out_that_cannot_be_a_directory_is_a_usage_failure(self, tmp_path, capsys, under):
        model, policies = fixture_inputs(tmp_path, "two-batch")
        taken = tmp_path / "taken"
        taken.write_text("kept\n")
        out = str(taken / under) if under else str(taken)
        code = main(["simulate", "--model", model, "--policies", policies, "--out", out])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write outputs to {out}: ")
        assert "Traceback" not in err
        assert taken.read_text() == "kept\n"

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
            '{"policies": [{"activity": "ticket", "batchType": "parallel", "rule": '
            f'[[{{"kind": "wt-first", "threshold": {threshold}}}]]}}]}}'
        )
        code = main(["simulate", "--model", model, "--policies", str(bad),
                     "--out", str(tmp_path / "out")])
        assert code == 3
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "analyze", "optimize"])
    def test_policy_for_unknown_activity_is_a_schema_failure(self, tmp_path, capsys, command):
        model, _ = fixture_inputs(tmp_path, "two-batch")
        bad = write_json(
            tmp_path / "bad.json",
            {"policies": [{"activity": "stamp", "batchType": "parallel",
                           "rule": [[{"kind": "wt-first", "threshold": 60}]]}]},
        )
        out = tmp_path / "out"
        code = main([command, "--model", model, "--policies", bad, "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert "bad.json" in err and "'stamp'" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "condition",
        [
            {"kind": "daily-hour", "hours": "12"},
            {"kind": "daily-hour", "hours": [9.5]},
            {"kind": "daily-hour", "hours": [True]},
            {"kind": "week-day", "days": "Monday"},
            {"kind": "size", "threshold": "5"},
        ],
        ids=["hours-string", "hours-fraction", "hours-bool", "days-string", "threshold-string"],
    )
    def test_mistyped_condition_field_is_a_schema_failure(self, tmp_path, capsys, condition):
        model, _ = fixture_inputs(tmp_path, "two-batch")
        bad = write_json(
            tmp_path / "bad.json",
            {"policies": [{"activity": "ticket", "batchType": "parallel", "rule": [[condition]]}]},
        )
        code = main(["simulate", "--model", model, "--policies", bad,
                     "--out", str(tmp_path / "out")])
        assert code == 3
        assert "rule[0][0]" in capsys.readouterr().err

    @pytest.mark.parametrize("amount", ["NaN", "1e400"])
    def test_non_finite_fixed_cost_is_a_schema_failure(self, tmp_path, capsys, amount):
        model, _ = fixture_inputs(tmp_path, "two-batch")
        bad = tmp_path / "bad.json"
        bad.write_text(
            '{"policies": [{"activity": "ticket", "batchType": "parallel", '
            f'"rule": [[{{"kind": "size", "threshold": 2}}]], "cost": {{"fixedCost": {amount}}}}}]}}'
        )
        out = tmp_path / "out"
        code = main(["simulate", "--model", model, "--policies", str(bad), "--out", str(out)])
        assert code == 3
        assert "finite" in capsys.readouterr().err
        assert not (out / "objectives.json").exists()

    @pytest.mark.parametrize(
        "cost",
        [
            {"fixedCost": "5"},
            {"fixedCost": True},
            {"variableCost": [[1.5, 2.0]]},
            {"variableCost": [[1, True]]},
            {"processingScaleFactor": "1"},
            {"resourceCostMode": 1},
        ],
        ids=["fixed-string", "fixed-bool", "size-fraction", "amount-bool", "scale-string",
             "mode-number"],
    )
    def test_mistyped_cost_field_is_a_schema_failure(self, tmp_path, capsys, cost):
        model, _ = fixture_inputs(tmp_path, "two-batch")
        bad = write_json(
            tmp_path / "bad.json",
            {"policies": [{"activity": "ticket", "batchType": "parallel",
                           "rule": [[{"kind": "size", "threshold": 2}]], "cost": cost}]},
        )
        out = tmp_path / "out"
        code = main(["simulate", "--model", model, "--policies", bad, "--out", str(out)])
        assert code == 3
        assert "$.policies[0].cost" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "doc",
        [
            {"polices": []},
            {"policies": [{"activity": "ticket", "batchType": "parallel",
                           "rule": [[{"kind": "size", "threshold": 2}]], "costs": {}}]},
            {"policies": [{"activity": "ticket", "batchType": "parallel",
                           "rule": [[{"kind": "size", "treshold": 2, "threshold": 2}]]}]},
            {"policies": [{"activity": "ticket", "batchType": "parallel",
                           "rule": [[{"kind": "size", "threshold": 2}]],
                           "cost": {"fixdCost": 5}}]},
        ],
        ids=["top-level", "policy", "condition", "cost"],
    )
    def test_unknown_policies_key_is_a_schema_failure(self, tmp_path, capsys, doc):
        if "policies" not in doc:
            doc["policies"] = [{"activity": "ticket", "batchType": "parallel",
                                "rule": [[{"kind": "size", "threshold": 2}]]}]
        model, _ = fixture_inputs(tmp_path, "two-batch")
        bad = write_json(tmp_path / "bad.json", doc)
        out = tmp_path / "out"
        code = main(["simulate", "--model", model, "--policies", bad, "--out", str(out)])
        assert code == 3
        assert "unknown key" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "config, message",
        [
            ({"totalCases": 2.5}, "total_cases must be an integer"),
            ({"seed": "a"}, "seed must be an integer"),
            ({"seed": True}, "seed must be an integer"),
            ({"warmup": False}, "warmup must be an integer"),
        ],
        ids=["cases-fraction", "seed-string", "seed-bool", "warmup-bool"],
    )
    def test_mistyped_run_config_is_a_schema_failure(self, tmp_path, capsys, config, message):
        model, policies = fixture_inputs(tmp_path, "two-batch")
        bad = write_json(tmp_path / "run.json", config)
        out = tmp_path / "out"
        code = main(["simulate", "--model", model, "--policies", policies,
                     "--config", bad, "--out", str(out)])
        assert code == 3
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "where, count",
        [("model", 10**6 + 1), ("model", 10**300), ("config", 10**6 + 1), ("config", 10**400)],
        ids=["model-million-and-one", "model-300-digits", "config-million-and-one",
             "config-400-digits"],
    )
    def test_case_count_beyond_a_million_is_a_schema_failure(
        self, tmp_path, capsys, where, count
    ):
        model, policies = fixture_inputs(tmp_path, "two-batch")
        argv = ["simulate", "--model", model, "--policies", policies]
        if where == "model":
            doc = json.loads(Path(model).read_text())
            doc["arrival"]["totalCases"] = count
            write_json(Path(model), doc)
        else:
            argv += ["--config", write_json(tmp_path / "run.json", {"totalCases": count})]
        out = tmp_path / "out"
        code = main(argv + ["--out", str(out)])
        assert code == 3
        assert "must lie in [1, 1000000]" in capsys.readouterr().err
        assert not out.exists()

    def test_log_past_year_9999_is_a_runtime_failure(self, tmp_path, capsys):
        # 400 cases a billion seconds apart: both within bounds, but the
        # log reaches past the last instant `datetime` can spell
        model, policies = fixture_inputs(tmp_path, "two-batch")
        doc = json.loads(Path(model).read_text())
        doc["arrival"]["interArrival"] = {"kind": "fixed", "value": 1e9}
        doc["arrival"]["totalCases"] = 400
        write_json(Path(model), doc)
        out = tmp_path / "out"
        code = main(["simulate", "--model", model, "--policies", policies, "--out", str(out)])
        assert code == 4
        err = capsys.readouterr().err
        assert "instant 400000000600 s lies past 9999-12-31T23:59:59" in err
        assert not out.exists()

    @pytest.mark.parametrize("mean", ["NaN", "Infinity", "-1e400"])
    def test_non_finite_distribution_parameter_is_a_schema_failure(
        self, tmp_path, capsys, mean
    ):
        model, policies = fixture_inputs(tmp_path, "two-batch")
        doc = json.loads(Path(model).read_text())
        doc["arrival"]["interArrival"] = {"kind": "exponential", "mean": "MEAN"}
        Path(model).write_text(json.dumps(doc).replace('"MEAN"', mean))
        code = main(["simulate", "--model", model, "--policies", policies,
                     "--out", str(tmp_path / "out")])
        assert code == 3
        assert "mean must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "path, value, message",
        [
            (("activitiez",), [], "unknown key"),
            (("activities", 0, "duration", "mean"), 5, "unknown key"),
            (("arrival", "calendar", 0, "note"), "x", "unknown key"),
            (("arrival", "totalCases"), True, "expected an integer, got True"),
            (("activities", 0, "duration", "value"), True, "expected a number, got True"),
            (("activities", 0, "fixedCostPerExecution"), True, "expected a number, got True"),
            (("resources", 0, "costPerTimeUnit"), 10**400, "number out of range"),
            (("activities", 0, "duration", "value"), 10**400, "number out of range"),
            (("arrival", "totalCases"), 10**400, "number out of range"),
            (("endNodes",), [["ticket"]], "expected a list of strings"),
            (("activities", 0, "resources"), [["clerk"]], "expected a list of strings"),
            (("activities", 0, "fixedCostPerExecution"), "5", "expected a number, got '5'"),
            (("arrival", "totalCases"), 2.5, "expected an integer, got 2.5"),
            (("startNode",), 5, "expected a string, got 5"),
            (("arcs",), {}, "expected a list, got {}"),
            (("arrival",), [], "expected an object, got []"),
        ],
        ids=["top-level-key", "duration-key", "interval-key", "cases-bool", "value-bool",
             "fixed-cost-bool", "rate-400-digits", "value-400-digits", "cases-400-digits",
             "end-node-list", "resource-list", "fixed-cost-string", "cases-fraction",
             "start-node-number", "arcs-object", "arrival-list"],
    )
    def test_malformed_model_is_a_schema_failure(self, tmp_path, capsys, path, value,
                                                  message):
        model, policies = fixture_inputs(tmp_path, "two-batch")
        doc = json.loads(Path(model).read_text())
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        write_json(Path(model), doc)
        out = tmp_path / "out"
        code = main(["simulate", "--model", model, "--policies", policies, "--out", str(out)])
        assert code == 3
        where = "$" + "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path)
        assert f"{where}: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_integer_too_long_to_read_is_a_schema_failure(self, tmp_path, capsys):
        model, policies = fixture_inputs(tmp_path, "two-batch")
        config = tmp_path / "run.json"
        config.write_text('{"seed": %s}' % ("1" * 5000))
        code = main(["simulate", "--model", model, "--policies", policies,
                     "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == 3
        assert "run.json is not valid JSON" in capsys.readouterr().err

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
        for command in ("optimize", "analyze"):
            out = tmp_path / command
            with pytest.raises(SystemExit) as exc:
                main([command, "--model", model, "--policies", policies,
                      "--config", config, "--out", str(out)])
            assert exc.value.code == 2, command
            assert not out.exists()

    @pytest.mark.parametrize(
        "config, message",
        [
            ({"sim": 5}, "sim: expected an object"),
            ({"detection": [1]}, "detection: expected an object"),
            ({"intervention": {"scaleGrid": 3}}, "scaleGrid must be a list"),
            ({"intervention": {"scaleGrid": ["2"]}}, "scale grid must hold finite numbers"),
            ({"intervention": {"minSize": 1.0}}, "min_size must be an integer"),
            ({"seed": "a"}, "seed must be an integer"),
            ({"seed": True}, "seed must be an integer"),
            ({"sim": {"seed": 1.5}}, "sim: seed must be an integer"),
            ({"guided": "no"}, "guided must be true or false"),
            ({"maxSolutions": 2.5}, "max_solutions must be an integer"),
            ({"maxSolutions": False}, "max_solutions must be an integer"),
            ({"radius": True}, "radius must be a finite number"),
            ({"coolingFactor": "0.5"}, "cooling_factor must be a finite number"),
            ({"detection": {"topK": 2.0}}, "top_k must be an integer"),
            ({"rl": {"bufferSize": True}}, "buffer_size must be an integer"),
            ({"rl": {"learningRate": "x"}}, "learning_rate must be a finite number"),
            ({"strategy": 5}, "strategy must be a string"),
        ],
        ids=["sim-number", "detection-list", "grid-number", "grid-string", "min-size-float",
             "seed-string", "seed-bool", "sim-seed-fraction", "guided-string",
             "budget-fraction", "budget-false", "radius-bool", "cooling-string", "top-k-float",
             "buffer-bool", "rate-string", "strategy-number"],
    )
    def test_mistyped_optimizer_config_is_a_schema_failure(
        self, tmp_path, capsys, config, message
    ):
        model, policies = fixture_inputs(tmp_path, "two-batch")
        bad = write_json(tmp_path / "optimizer.json", {"maxSolutions": 3, **config})
        out = tmp_path / "out"
        code = main(["optimize", "--model", model, "--policies", policies,
                     "--config", bad, "--out", str(out)])
        assert code == 3
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "config, key",
        [
            ({"maxSolutions": 10**6 + 1}, "$.maxSolutions"),
            ({"maxSolutions": 10**400}, "$.maxSolutions"),
            ({"strategy": "rl", "rl": {"maxIterations": 10**6 + 1}}, "$.rl.maxIterations"),
            ({"strategy": "rl", "rl": {"maxIterations": 10**12}}, "$.rl.maxIterations"),
            ({"strategy": "rl", "rl": {"updateEpochs": 10**6 + 1}}, "$.rl.updateEpochs"),
        ],
        ids=["budget-million-and-one", "budget-400-digits", "iterations-million-and-one",
             "iterations-10e12", "epochs-million-and-one"],
    )
    @pytest.mark.parametrize("command", ["optimize", "analyze"])
    def test_budget_beyond_a_million_is_a_schema_failure(
        self, tmp_path, capsys, command, config, key
    ):
        model, policies = fixture_inputs(tmp_path, "two-batch")
        bad = write_json(tmp_path / "optimizer.json", config)
        out = tmp_path / "out"
        code = main([command, "--model", model, "--policies", policies,
                     "--config", bad, "--out", str(out)])
        assert code == 3
        assert f"{key}: must be at most 1000000" in capsys.readouterr().err
        assert not out.exists()

    # a negative count of epochs would train no epoch at all
    @pytest.mark.parametrize(
        "rl, message",
        [
            ({"updateEpochs": -3}, "update_epochs must be >= 0"),
            ({"updateEpochs": -1}, "update_epochs must be >= 0"),
            ({"maxIterations": -1}, "max_iterations must be >= 0"),
        ],
        ids=["epochs-minus-three", "epochs-minus-one", "iterations-minus-one"],
    )
    @pytest.mark.parametrize("command", ["optimize", "analyze"])
    def test_negative_rl_budget_is_a_schema_failure(
        self, tmp_path, capsys, command, rl, message
    ):
        model, policies = fixture_inputs(tmp_path, "two-batch")
        bad = write_json(tmp_path / "optimizer.json", {"strategy": "rl", "rl": rl})
        out = tmp_path / "out"
        code = main([command, "--model", model, "--policies", policies,
                     "--config", bad, "--out", str(out)])
        assert code == 3
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["NaN", "Infinity"])
    def test_non_finite_optimizer_number_is_a_schema_failure(self, tmp_path, capsys, value):
        model, policies = fixture_inputs(tmp_path, "two-batch")
        path = tmp_path / "optimizer.json"
        path.write_text('{"maxSolutions": 3, "radius": %s}' % value)
        code = main(["optimize", "--model", model, "--policies", policies,
                     "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 3
        assert "radius must be a finite number" in capsys.readouterr().err

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

    @pytest.mark.parametrize(
        "config, flags",
        [
            ({"maxSolutions": 3}, ["--strategy", "rl", "--unguided"]),
            ({"strategy": "rl", "guided": False}, []),
        ],
        ids=["flags", "config"],
    )
    def test_rl_without_guidance_is_a_schema_failure(self, tmp_path, capsys, config, flags):
        model, policies = fixture_inputs(tmp_path, "two-batch")
        path = write_json(tmp_path / "optimizer.json", config)
        out = tmp_path / "out"
        code = main(["optimize", "--model", model, "--policies", policies,
                     "--config", path, "--out", str(out), *flags])
        assert code == 3
        assert "strategy rl needs guided" in capsys.readouterr().err
        assert not out.exists()

    def test_flags_override_the_config_together(self, tmp_path):
        # rl with the config's guided: false would be rejected; the
        # --guided given with --strategy rl replaces it in the same step
        model, policies = fixture_inputs(tmp_path, "two-batch")
        config = write_json(
            tmp_path / "optimizer.json", {"guided": False, "rl": {"maxIterations": 2}}
        )
        out = tmp_path / "out"
        code = main(["optimize", "--model", model, "--policies", policies, "--config", config,
                     "--out", str(out), "--strategy", "rl", "--guided"])
        assert code == EXIT_OK
        assert json.loads(read(out, "front.json"))["label"] == "rl+"

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


    @pytest.mark.parametrize("fixture", ["circadian", "busy-step"])
    def test_sim_seed_in_manifest_reproduces_every_front_point(self, tmp_path, fixture):
        # the manifest's simSeed, given to simulate with the config's sim
        # block and a solution's policies, gives that solution's point; the
        # sim block's own seed is not what the candidates ran under
        model, policies = fixture_inputs(tmp_path, fixture)
        config = write_json(tmp_path / "optimizer.json",
                            {"maxSolutions": 12, "seed": 5, "sim": {"seed": 1}})
        out = tmp_path / "out"
        assert main(["optimize", "--model", model, "--policies", policies,
                     "--config", config, "--out", str(out)]) == EXIT_OK
        manifest = json.loads(read(out, MANIFEST_FILE))
        assert manifest["seed"] == 5
        assert manifest["simSeed"] == derive_seed(5, "sim", 0)
        sim = write_json(tmp_path / "sim.json", manifest["effectiveConfig"]["sim"])
        solutions = json.loads(read(out, "front.json"))["solutions"]
        assert solutions
        for i, solution in enumerate(solutions):
            chosen = write_json(tmp_path / f"policies-{i}.json", solution["policies"])
            replay = tmp_path / f"replay-{i}"
            assert main(["simulate", "--model", model, "--policies", chosen, "--config", sim,
                         "--seed", str(manifest["simSeed"]), "--out", str(replay)]) == EXIT_OK
            objectives = json.loads(read(replay, "objectives.json"))
            assert [objectives["avgCycleTime"], objectives["avgCost"]] == solution["point"]


class TestParser:
    def test_main_builds_its_parser_once(self):
        assert cli._parser() is cli._parser()

    def test_consecutive_calls_parse_independently(self, tmp_path, capsys):
        # one parser serves every call: a --guided given to one call does
        # not carry into the next, whose config says unguided
        model, policies = fixture_inputs(tmp_path, "monotone-tradeoff")
        config = oracle_config(tmp_path, guided=False, maxSolutions=5)
        labels = []
        for name, flags in (("a", ["--guided"]), ("b", [])):
            out = tmp_path / name
            assert main(["optimize", "--model", model, "--policies", policies,
                         "--config", config, "--out", str(out)] + flags) == EXIT_OK
            labels.append(json.loads(read(out, "front.json"))["label"])
        assert labels == ["hc+", "hc-"]
        # and a usage error after them still exits 2
        with pytest.raises(SystemExit) as exc:
            main(["optimize", "--model", model, "--guided", "--unguided"])
        assert exc.value.code == 2
        assert "not allowed with argument --guided" in capsys.readouterr().err


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

    def test_total_costs_are_sequential_sums(self, tmp_path):
        # costs of many batches whose sum builtin sum would compensate from
        # CPython 3.12 on; a sequential fold writes these bytes on every version
        fixture = get_fixture("busy-step")
        doc = json.loads(json.dumps(fixture.model_doc))
        for resource in doc["resources"]:
            resource["costPerTimeUnit"] = 0.0013
        doc["arrival"]["totalCases"] = 3000
        model = write_json(tmp_path / "model.json", doc)
        policies = write_json(tmp_path / "policies.json", fixture.policies_doc)
        out = tmp_path / "out"
        assert main(["analyze", "--model", model, "--policies", policies,
                     "--out", str(out)]) == EXIT_OK
        report = json.loads(read(out, "report.json"))
        assert {a["id"]: a["totalCost"] for a in report["activities"]} == {
            "escalate": 444.59999999999377,
            "standard": 10667.700000000106,
            "triage": 234.00000000000747,
        }

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

    @pytest.mark.parametrize("flag", ["--policies", "--config"])
    def test_baseline_flag_without_model_is_a_usage_error(self, tmp_path, capsys, flag):
        inputs = Path(__file__).resolve().parents[1] / "perfbench" / "inputs" / "circadian"
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["evaluate", str(inputs / "front-hc-guided.json"),
                  str(inputs / "front-sa-guided.json"), flag, str(tmp_path / "missing.json"),
                  "--out", str(out)])
        assert exc.value.code == 2
        assert "need --model" in capsys.readouterr().err
        assert not out.exists()

    def test_malformed_front_is_a_schema_failure(self, tmp_path, capsys):
        a = self.optimize_front(tmp_path, "good", guided=True)
        bad = tmp_path / "bad.json"
        bad.write_text("{ not json")
        code = main(["evaluate", a, str(bad), "--out", str(tmp_path / "out")])
        assert code == 3
        assert "bad.json" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "point", [[1.0, 2.0, 3.0], [1.0], "1,2", [1.0, "2"], [True, 2.0], [10**400, 1.0]]
    )
    def test_malformed_front_point_is_a_schema_failure(self, tmp_path, capsys, point):
        a = self.optimize_front(tmp_path, "good", guided=True)
        doc = json.loads(Path(a).read_text())
        doc["solutions"][0]["point"] = point
        bad = write_json(tmp_path / "bad.json", doc)
        code = main(["evaluate", a, bad, "--out", str(tmp_path / "out")])
        assert code == 3
        assert "list of two finite numbers" in capsys.readouterr().err

    def test_front_policy_for_unknown_activity_is_a_schema_failure(self, tmp_path, capsys):
        a = self.optimize_front(tmp_path, "good", guided=True)
        doc = json.loads(Path(a).read_text())
        doc["solutions"][-1]["policies"]["policies"].append(
            {"activity": "stamp", "batchType": "parallel",
             "rule": [[{"kind": "wt-first", "threshold": 60}]]}
        )
        bad = write_json(tmp_path / "bad.json", doc)
        model, policies = fixture_inputs(tmp_path, "monotone-tradeoff")
        out = tmp_path / "out"
        code = main(["evaluate", a, bad, "--model", model, "--policies", policies,
                     "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert "bad.json" in err and "'stamp'" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "mutation, message",
        [
            (lambda d: d["solutions"][0].update(lineage="ab"), "$.solutions[0].lineage"),
            (lambda d: d.update(label=5), "$.label"),
            (lambda d: d.update(solutions={"a": 1}), "$.solutions: expected a list, got {'a': 1}"),
            (lambda d: d["solutions"][0].update(logRef=5), "$.solutions[0].logRef"),
            (lambda d: d["solutions"][0].update(note="x"), "$.solutions[0].note: unknown key"),
            (lambda d: d.update(note="x"), "$.note: unknown key"),
            (lambda d: d["solutions"][0].pop("point"), "$.solutions[0].point"),
        ],
        ids=["lineage-string", "label-number", "solutions-object", "log-ref-number",
             "solution-key", "top-level-key", "no-point"],
    )
    def test_malformed_front_document_is_a_schema_failure(self, tmp_path, capsys, mutation,
                                                          message):
        inputs = Path(__file__).resolve().parents[1] / "perfbench" / "inputs" / "circadian"
        doc = json.loads((inputs / "front-hc-guided.json").read_text())
        mutation(doc)
        bad = write_json(tmp_path / "bad.json", doc)
        out = tmp_path / "out"
        code = main(["evaluate", str(inputs / "front-sa-guided.json"), bad, "--out", str(out)])
        assert code == 3
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_front_policies_given_as_json_text_are_a_schema_failure(self, tmp_path, capsys):
        inputs = Path(__file__).resolve().parents[1] / "perfbench" / "inputs" / "circadian"
        doc = json.loads((inputs / "front-hc-guided.json").read_text())
        doc["solutions"][0]["policies"] = json.dumps({"policies": []})
        bad = write_json(tmp_path / "bad.json", doc)
        out = tmp_path / "out"
        code = main(["evaluate", str(inputs / "front-sa-guided.json"), bad, "--out", str(out)])
        assert code == 3
        assert "$.solutions[0].policies: expected an object" in capsys.readouterr().err
        assert not out.exists()

    def test_error_in_embedded_policies_names_the_solution(self, tmp_path, capsys):
        inputs = Path(__file__).resolve().parents[1] / "perfbench" / "inputs" / "circadian"
        doc = json.loads((inputs / "front-hc-guided.json").read_text())
        doc["solutions"][1]["policies"]["policies"][0]["batchType"] = "serial"
        bad = write_json(tmp_path / "bad.json", doc)
        out = tmp_path / "out"
        code = main(["evaluate", str(inputs / "front-sa-guided.json"), bad, "--out", str(out)])
        assert code == 3
        assert (
            "$.solutions[1].policies.policies[0].batchType: unknown batch type 'serial'"
            in capsys.readouterr().err
        )
        assert not out.exists()

    def test_front_without_solutions_is_rejected(self, tmp_path, capsys):
        a = self.optimize_front(tmp_path, "good", guided=True)
        empty = write_json(tmp_path / "empty.json", {"label": "x", "solutions": []})
        code = main(["evaluate", a, empty, "--out", str(tmp_path / "out")])
        assert code == 3
        assert "empty.json" in capsys.readouterr().err

    def test_each_distinct_policy_set_simulates_once_on_one_sample_path(
        self, tmp_path, monkeypatch
    ):
        fixture = get_fixture("busy-step")
        model, policies = fixture_inputs(tmp_path, "busy-step")
        oracle = enumerate_oracle_front(fixture)
        assert len(oracle.solutions) >= 2
        distinct = {policy_set_key(fixture.policies())} | {
            policy_set_key(s.policies) for s in oracle.solutions
        }
        front = front_to_doc(oracle, label="oracle")
        # the second front repeats the first's solutions and adds the initial set
        again = {"label": "again", "solutions": front["solutions"] + [
            {"point": [1e9, 0.0], "policies": fixture.policies_doc}
        ]}
        fronts = [write_json(tmp_path / "a.json", front), write_json(tmp_path / "b.json", again)]
        simulated, generated = [], []
        real_simulate, real_generate = engine.simulate, engine.SamplePath._generate_arrivals

        def spy(model, policies, config, path=None):
            simulated.append(policy_set_key(policies))
            return real_simulate(model, policies, config, path)

        def generate(self):
            generated.append(self.total_cases)
            real_generate(self)

        monkeypatch.setattr(cli, "simulate", spy)
        monkeypatch.setattr(metrics, "simulate", spy)
        monkeypatch.setattr(engine.SamplePath, "_generate_arrivals", generate)
        out = tmp_path / "out"
        assert main(["evaluate", *fronts, "--model", model, "--policies", policies,
                     "--out", str(out)]) == EXIT_OK
        assert len(simulated) == len(set(simulated))
        assert set(simulated) == distinct
        assert generated == [fixture.model().arrival.total_cases]

    def test_manifest_names_the_run_config_of_the_gain_simulations(self, tmp_path):
        fixture = get_fixture("busy-step")  # it draws, so the seed moves the gains
        model, policies = fixture_inputs(tmp_path, "busy-step")
        front = front_to_doc(enumerate_oracle_front(fixture), label="oracle")
        fronts = [write_json(tmp_path / "a.json", front),
                  write_json(tmp_path / "b.json", {**front, "label": "copy"})]

        def evaluate(name: str, run_config: dict) -> Path:
            out = tmp_path / name
            config = write_json(tmp_path / f"{name}.json", run_config)
            assert main(["evaluate", *fronts, "--model", model, "--policies", policies,
                         "--config", config, "--out", str(out)]) == EXIT_OK
            return out

        out = evaluate("one", {"seed": 1, "totalCases": 50})
        manifest = json.loads(read(out, MANIFEST_FILE))
        assert manifest["seed"] == 1
        run = to_doc(SimConfig(seed=1, total_cases=50))
        assert manifest["effectiveConfig"] == {**run, "fronts": ["oracle", "copy"]}
        # the manifest's run config reproduces the gain column; seed 0 does not
        assert read(evaluate("again", run), "metrics.csv") == read(out, "metrics.csv")
        zero = evaluate("zero", {"totalCases": 50})
        assert read(zero, "metrics.csv") != read(out, "metrics.csv")
        assert json.loads(read(zero, MANIFEST_FILE))["seed"] == 0


class TestConfigHash:
    def test_stable_under_key_reordering(self):
        assert config_hash({"a": 1, "b": [1, 2]}) == config_hash({"b": [1, 2], "a": 1})

    def test_sensitive_to_values(self):
        assert config_hash({"a": 1}) != config_hash({"a": 2})


def or_split_without_join(tmp_path: Path) -> str:
    """two-batch's model with an or-split after `ticket` whose two
    branches end apart: it validates, but cannot be compiled."""
    doc = get_fixture("two-batch").model_doc
    ticket = doc["activities"][0]
    doc["activities"] += [{**ticket, "id": "file"}, {**ticket, "id": "mail"}]
    doc["gateways"] = [
        {"id": "pick", "kind": "or-split",
         "branchProbabilities": {"pick->file": 0.5, "pick->mail": 0.5}}
    ]
    doc["arcs"] = [
        {"source": "ticket", "target": "pick"},
        {"source": "pick", "target": "file"},
        {"source": "pick", "target": "mail"},
    ]
    doc["endNodes"] = ["file", "mail"]
    return write_json(tmp_path / "model.json", doc)


@pytest.mark.parametrize("command", ["simulate", "optimize", "analyze", "evaluate"])
def test_or_split_that_never_reconverges_is_a_schema_failure(tmp_path, capsys, command):
    model = or_split_without_join(tmp_path)
    out = tmp_path / "out"
    if command == "evaluate":
        inputs = Path(__file__).resolve().parents[1] / "perfbench" / "inputs" / "circadian"
        argv = [command, str(inputs / "front-hc-guided.json"),
                str(inputs / "front-sa-guided.json"), "--model", model]
    else:
        argv = [command, "--model", model]
    code = main(argv + ["--out", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert "model.json" in err and "'pick'" in err and "reconverge" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "optimize", "analyze", "evaluate"])
def test_each_command_validates_its_model_once(tmp_path, monkeypatch, command):
    calls = []
    real = engine.validate_model

    def spy(model):
        calls.append(model)
        return real(model)

    monkeypatch.setattr(engine, "validate_model", spy)
    # the name a separate load-time check in the CLI would call
    monkeypatch.setattr(cli, "validate_model", spy, raising=False)
    inputs = Path(__file__).resolve().parents[1] / "perfbench" / "inputs" / "circadian"
    argv = ["--model", str(inputs / "model.json"), "--policies", str(inputs / "policies.json"),
            "--out", str(tmp_path / "out")]
    if command == "evaluate":
        argv = [str(inputs / "front-hc-guided.json"), str(inputs / "front-sa-guided.json")] + argv
    elif command == "optimize":
        argv += ["--config", write_json(tmp_path / "optimizer.json", {"maxSolutions": 3})]
    assert main([command] + argv) == EXIT_OK
    assert len(calls) == 1


CIRCADIAN = Path(__file__).resolve().parents[1] / "perfbench" / "inputs" / "circadian"


def _set(doc, path, value):
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value


@pytest.mark.parametrize(
    "kind, path, value, message",
    [
        ("model", ("activities", 0, "fixedCostPerExecution"), "5",
         "$.activities[0].fixedCostPerExecution: expected a number, got '5'"),
        ("policies", ("policies", 0, "cost", "fixedCost"), "5",
         "$.policies[0].cost.fixedCost: expected a number, got '5'"),
        ("policies", ("policies", 0, "rule", 0, 0, "threshold"), "5",
         "$.policies[0].rule[0][0].threshold: expected a number, got '5'"),
        ("front", ("solutions", 0, "logRef"), 5,
         "$.solutions[0].logRef: expected a string, got 5"),
    ],
    ids=["model-fixed-cost", "policies-fixed-cost", "policies-threshold", "front-log-ref"],
)
def test_a_mistyped_field_reads_the_same_in_every_document(tmp_path, capsys, kind, path, value,
                                                           message):
    if kind == "front":
        doc = json.loads((CIRCADIAN / "front-hc-guided.json").read_text())
        _set(doc, path, value)
        argv = ["evaluate", str(CIRCADIAN / "front-sa-guided.json"),
                write_json(tmp_path / "bad.json", doc)]
    else:
        model, policies = fixture_inputs(tmp_path, "two-batch")
        target = model if kind == "model" else policies
        doc = json.loads(Path(target).read_text())
        _set(doc, path, value)
        write_json(Path(target), doc)
        argv = ["simulate", "--model", model, "--policies", policies]
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 3
    assert message in capsys.readouterr().err
    assert not out.exists()


def gateway_cycle_model(tmp_path: Path, gateways, arcs) -> str:
    """two-batch's model with `ticket` leading into `gateways` and a second
    activity `file` as its end."""
    doc = get_fixture("two-batch").model_doc
    doc["activities"].append({**doc["activities"][0], "id": "file"})
    doc["gateways"] = gateways
    doc["arcs"] = arcs
    doc["endNodes"] = ["file"]
    return write_json(tmp_path / "model.json", doc)


def gateway_loop(back: float) -> tuple[list, list]:
    """The gateways and arcs of a loop of gateways only: `ticket` -> the
    xor-join `j` -> the xor-split `s`, which sends the token back to `j`
    with probability `back`, else on to `file`."""
    gateways = [{"id": "j", "kind": "xor-join"},
                {"id": "s", "kind": "xor-split",
                 "branchProbabilities": {"s->j": back, "s->file": 1.0 - back}}]
    arcs = [("ticket", "j"), ("j", "s"), ("s", "j"), ("s", "file")]
    return gateways, [{"source": s, "target": t} for s, t in arcs]


@pytest.mark.parametrize(
    "gateways, arcs",
    [
        ([{"id": "g", "kind": "and-split"}],
         [{"source": s, "target": t} for s, t in (("ticket", "g"), ("g", "g"), ("g", "file"))]),
        gateway_loop(1.0),
    ],
    ids=["and-split-self-loop", "xor-join-split-loop"],
)
def test_a_cycle_of_gateways_only_is_a_schema_failure(tmp_path, capsys, gateways, arcs):
    # a token entering such a cycle goes round it for ever (and the
    # and-split sends one more token on at each pass)
    model = gateway_cycle_model(tmp_path, gateways, arcs)
    out = tmp_path / "out"
    assert main(["simulate", "--model", model, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert UNBOUNDED_VISITS in err
    assert not out.exists()


def test_a_gateway_only_loop_left_with_some_probability_simulates(tmp_path):
    # each pass through s leaves the loop with probability 0.5
    model = gateway_cycle_model(tmp_path, *gateway_loop(0.5))
    out = tmp_path / "out"
    assert main(["simulate", "--model", model, "--out", str(out)]) == 0
    events = (out / "events.csv").read_text().splitlines()
    assert sum(",file," in line for line in events) == 4  # each case reaches the end once


def test_a_gateway_without_path_to_an_end_is_a_schema_failure(tmp_path, capsys):
    # half the cases would stop at `sink`, an and-split with no outgoing arc
    gateways = [
        {"id": "route", "kind": "xor-split",
         "branchProbabilities": {"route->file": 0.5, "route->sink": 0.5}},
        {"id": "sink", "kind": "and-split"},
    ]
    arcs = [("ticket", "route"), ("route", "file"), ("route", "sink")]
    model = gateway_cycle_model(
        tmp_path, gateways, [{"source": s, "target": t} for s, t in arcs]
    )
    out = tmp_path / "out"
    assert main(["simulate", "--model", model, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "model.json" in err and "gateway 'sink' has no path to an end node" in err
    assert not out.exists()


def looping_model(tmp_path: Path, back: float) -> str:
    """`ticket` -> `b`, `b` -> the end `file` and `b` -> the xor-split
    `redo`, which leads back to `b` with probability `back` (else to
    `file`)."""
    probs = {"redo->b": back, "redo->file": 1.0 - back} if back < 1.0 else {"redo->b": 1.0}
    arcs = [("ticket", "b"), ("b", "file"), ("b", "redo"), ("redo", "b")]
    if back < 1.0:
        arcs.append(("redo", "file"))
    model = gateway_cycle_model(
        tmp_path, [{"id": "redo", "kind": "xor-split", "branchProbabilities": probs}],
        [{"source": s, "target": t} for s, t in arcs],
    )
    doc = json.loads(Path(model).read_text())
    doc["activities"].append({**doc["activities"][0], "id": "b"})
    doc["arrival"]["totalCases"] = 3
    return write_json(Path(model), doc)


@pytest.mark.parametrize("command", ["simulate", "analyze", "optimize", "evaluate"])
def test_a_cycle_taken_with_certainty_is_a_schema_failure_of_every_command(
    tmp_path, capsys, command
):
    # each visit of `b` sends a token to `file` and one round the loop, so
    # a case would make events for ever
    model = looping_model(tmp_path, 1.0)
    out = tmp_path / "out"
    argv = [command, "--model", model, "--out", str(out)]
    if command == "evaluate":
        argv[1:1] = [str(CIRCADIAN / f"front-{s}-guided.json") for s in ("hc", "sa")]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert UNBOUNDED_VISITS in err
    assert not out.exists()


def token_loop_model(tmp_path: Path, back: float) -> str:
    """`ticket` -> `b`, `b` -> the end `file` and `b` -> the xor-split
    `redo`, which leads with probability `back` (else to `file`) to the
    and-split `s` into `b` and, through `x`, back into `b`: each visit of
    `b` sends on average 2 x `back` tokens back to it."""
    probs = {"redo->s": back, "redo->file": 1.0 - back}
    arcs = [("ticket", "b"), ("b", "file"), ("b", "redo"), ("redo", "s"), ("redo", "file"),
            ("s", "b"), ("s", "x"), ("x", "b")]
    model = gateway_cycle_model(
        tmp_path,
        [{"id": "redo", "kind": "xor-split", "branchProbabilities": probs},
         {"id": "s", "kind": "and-split"}],
        [{"source": s, "target": t} for s, t in arcs],
    )
    doc = json.loads(Path(model).read_text())
    doc["activities"] += [{**doc["activities"][0], "id": a} for a in ("b", "x")]
    doc["arrival"]["totalCases"] = 3
    return write_json(Path(model), doc)


@pytest.mark.parametrize("command", ["simulate", "analyze", "optimize", "evaluate"])
def test_a_loop_that_multiplies_tokens_is_a_schema_failure_of_every_command(
    tmp_path, capsys, command
):
    # 0.9 x 2 = 1.8 tokens return to `b` per visit, so a case's tokens may
    # grow without bound: rejected at load, before anything is simulated
    model = token_loop_model(tmp_path, 0.9)
    out = tmp_path / "out"
    argv = [command, "--model", model, "--out", str(out)]
    if command == "evaluate":
        argv[1:1] = [str(CIRCADIAN / f"front-{s}-guided.json") for s in ("hc", "sa")]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert "model.json" in err and UNBOUNDED_VISITS in err
    assert not out.exists()


def test_an_xor_probability_outside_0_1_is_a_schema_failure(tmp_path, capsys):
    # the two probabilities sum to 1, but every draw would go one way
    model, _ = fixture_inputs(tmp_path, "busy-step")
    doc = json.loads(Path(model).read_text())
    doc["gateways"][0]["branchProbabilities"] = {"route->standard": 1.5, "route->escalate": -0.5}
    write_json(Path(model), doc)
    out = tmp_path / "out"
    assert main(["simulate", "--model", model, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "gateway 'route': arc 'route->escalate' probability -0.5 outside [0, 1]" in err
    assert "gateway 'route': arc 'route->standard' probability 1.5 outside [0, 1]" in err
    assert not out.exists()


def test_a_loop_left_with_some_probability_simulates(tmp_path):
    out = tmp_path / "out"
    assert main(["simulate", "--model", looping_model(tmp_path, 0.5), "--out", str(out)]) == 0
    assert (out / "events.csv").exists()


@pytest.mark.parametrize("day", [" tUESDAY ", "tuesday", "Tuesday ", "TUESDAY"])
def test_a_weekday_not_spelled_exactly_is_a_schema_failure(tmp_path, capsys, day):
    model, policies = fixture_inputs(tmp_path, "two-batch")
    doc = json.loads(Path(model).read_text())
    doc["resources"][0]["calendar"][1]["weekday"] = day
    write_json(Path(model), doc)
    out = tmp_path / "out"
    assert main(["simulate", "--model", model, "--policies", policies, "--out", str(out)]) == 3
    assert f"$.resources[0].calendar[1]: unknown weekday name: {day!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("days", [["monday"], [" Monday"], ["Monday", "FRIDAY"]])
def test_a_week_day_condition_not_spelled_exactly_is_a_schema_failure(tmp_path, capsys, days):
    model, _ = fixture_inputs(tmp_path, "two-batch")
    bad = write_json(
        tmp_path / "bad.json",
        {"policies": [{"activity": "ticket", "batchType": "parallel",
                       "rule": [[{"kind": "week-day", "days": days}]]}]},
    )
    out = tmp_path / "out"
    assert main(["simulate", "--model", model, "--policies", bad, "--out", str(out)]) == 3
    assert "$.policies[0].rule[0][0]: unknown weekday name" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("clock", ["1_0:00", "9:5", "+1:00", " 9 : 05", "\u0663:00"])
def test_a_clock_not_spelled_hh_mm_is_a_schema_failure(tmp_path, capsys, clock):
    model, policies = fixture_inputs(tmp_path, "two-batch")
    doc = json.loads(Path(model).read_text())
    doc["resources"][0]["calendar"][1]["start"] = clock
    write_json(Path(model), doc)
    out = tmp_path / "out"
    assert main(["simulate", "--model", model, "--policies", policies, "--out", str(out)]) == 3
    assert "$.resources[0].calendar[1]: bad clock value" in capsys.readouterr().err
    assert not out.exists()


CIRCADIAN_INPUTS = Path(__file__).resolve().parents[1] / "perfbench" / "inputs" / "circadian"


def warmup_argv(tmp_path: Path, command: str, run: dict) -> list[str]:
    """`command` on the circadian benchmark inputs (32 cases) with the run
    controls `run`, in the config file the command reads them from."""
    config = write_json(tmp_path / "config.json", run if command in ("simulate", "evaluate")
                        else {"maxSolutions": 3, "sim": run})
    inputs = ["--model", str(CIRCADIAN_INPUTS / "model.json"),
              "--policies", str(CIRCADIAN_INPUTS / "policies.json"), "--config", config]
    if command == "evaluate":
        return ["evaluate", str(CIRCADIAN_INPUTS / "front-hc-guided.json"),
                str(CIRCADIAN_INPUTS / "front-sa-guided.json")] + inputs
    return [command] + inputs


@pytest.mark.parametrize("command", ["simulate", "analyze", "optimize", "evaluate"])
@pytest.mark.parametrize(
    "run, total",
    [({"warmup": 32}, 32), ({"warmup": 40}, 32), ({"totalCases": 5, "warmup": 5}, 5)],
    ids=["model-count", "above-model-count", "config-count"],
)
def test_a_warmup_that_leaves_no_case_is_a_schema_failure_of_every_command(
    tmp_path, capsys, command, run, total
):
    # rejected at load, naming the config file, before anything simulates
    out = tmp_path / "out"
    assert main(warmup_argv(tmp_path, command, run) + ["--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert f"config file {tmp_path / 'config.json'}: warmup {run['warmup']} must be smaller " \
        f"than the case count {total}" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "analyze", "optimize", "evaluate"])
def test_a_warmup_one_below_the_case_count_runs(tmp_path, command):
    out = tmp_path / "out"
    argv = warmup_argv(tmp_path, command, {"totalCases": 5, "warmup": 4})
    assert main(argv + ["--out", str(out)]) == EXIT_OK


def two_batch_with(tmp_path: Path, mutate) -> tuple[list[str], list[str], Path]:
    """The model and policies arguments of a two-batch copy that
    `mutate(model_doc, policies_doc)` edits, two fronts of its policies for
    `evaluate`, and the output directory."""
    fixture = get_fixture("two-batch")
    model_doc = json.loads(json.dumps(fixture.model_doc))
    policies_doc = json.loads(json.dumps(fixture.policies_doc))
    mutate(model_doc, policies_doc)
    model = write_json(tmp_path / "model.json", model_doc)
    policies = write_json(tmp_path / "policies.json", policies_doc)
    fronts = [
        write_json(tmp_path / f"front-{i}.json",
                   {"solutions": [{"point": point, "policies": fixture.policies_doc}]})
        for i, point in enumerate(([1.0, 1.0], [2.0, 0.5]))
    ]
    return ["--model", model, "--policies", policies], fronts, tmp_path / "out"


def command_argv(command: str, inputs: list[str], fronts: list[str], out: Path) -> list[str]:
    return [command] + (fronts if command == "evaluate" else []) + inputs + ["--out", str(out)]


def overflow_cost(how):
    def mutate(model_doc, policies_doc):
        if how == "cost-per-time-unit":
            model_doc["resources"][0]["costPerTimeUnit"] = 1e308
        else:
            policies_doc["policies"][0]["cost"]["fixedCost"] = 1.7e308
    return mutate


@pytest.mark.parametrize("how", ["cost-per-time-unit", "fixed-cost"])
@pytest.mark.parametrize("command", ["simulate", "analyze", "optimize", "evaluate"])
def test_a_cost_total_that_overflows_is_a_runtime_failure_of_every_command(
    tmp_path, capsys, command, how
):
    # the cost total overflows to inf: no `Infinity` in a JSON output and
    # no traceback; evaluate --model fails too, though its gain reads only
    # cycle times
    inputs, fronts, out = two_batch_with(tmp_path, overflow_cost(how))
    assert main(command_argv(command, inputs, fronts, out)) == 4
    assert "objective totals overflow: cycle time 4800.0, cost inf" in capsys.readouterr().err
    assert not out.exists()


def past_last_instant(model_doc, policies_doc):
    # 2e11 s is below the last instant, so the model validates, but two
    # batches of it end at 4e11 s
    model_doc["activities"][0]["duration"] = {"kind": "fixed", "value": 2e11}


@pytest.mark.parametrize(
    "command, failure",
    [
        ("simulate", "simulation failed"),
        ("analyze", "analysis failed"),
        ("optimize", "optimization failed: initial solution failed to simulate"),
        ("evaluate", "initial simulation failed"),
    ],
)
def test_a_log_past_the_last_instant_is_a_runtime_failure_of_every_command(
    tmp_path, capsys, command, failure
):
    # the engine rejects the log, so no command reports its cycle times
    inputs, fronts, out = two_batch_with(tmp_path, past_last_instant)
    assert main(command_argv(command, inputs, fronts, out)) == 4
    err = capsys.readouterr().err
    assert f"{failure}: instant 400000003600 s lies past 9999-12-31T23:59:59" in err
    assert not out.exists()


@pytest.mark.parametrize("value", [1e300, 1e308, 251698233600.0])
@pytest.mark.parametrize("where", ["duration", "interArrival"])
@pytest.mark.parametrize("command", ["simulate", "analyze", "optimize", "evaluate"])
def test_a_distribution_parameter_past_the_last_instant_is_a_schema_failure_of_every_command(
    tmp_path, capsys, command, where, value
):
    # 1e308 s overflowed turning the log into floats; 1e300 s simulated in
    # analyze and optimize to a mean cycle time of 7.5e299 s
    def mutate(model_doc, policies_doc):
        dist = {"kind": "fixed", "value": value}
        if where == "duration":
            model_doc["activities"][0]["duration"] = dist
        else:
            model_doc["arrival"]["interArrival"] = dist

    inputs, fronts, out = two_batch_with(tmp_path, mutate)
    assert main(command_argv(command, inputs, fronts, out)) == 3
    err = capsys.readouterr().err
    assert f"value must be at most 251698233599 s, the last instant of a log, got {value!r}" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "config",
    [{"maxSolutions": 30, "intervention": {"scaleGrid": [1e308, 1e-308]}},
     {"guided": False, "intervention": {"maxSize": 10**18, "scaleGrid": [1e300]}}],
    ids=["guided", "unguided"],
)
def test_a_size_move_whose_product_overflows_lands_on_max_size(tmp_path, config):
    # lam x mean size overflows to inf; the move clamps it to maxSize
    # before rounding instead of failing to round inf
    model, policies = fixture_inputs(tmp_path, "monotone-tradeoff")
    out = tmp_path / "out"
    argv = ["optimize", "--model", model, "--policies", policies,
            "--config", write_json(tmp_path / "optimizer.json", config), "--out", str(out)]
    assert main(argv) == EXIT_OK
    max_size = config["intervention"].get("maxSize", 50)
    rows = [json.loads(line) for line in read(out, "audit.jsonl").splitlines()]
    sizes = [r["delta"]["threshold"] for r in rows
             if r["delta"] and r["delta"]["kind"] == "scale-size" and r["delta"]["scale"] > 1]
    assert sizes and set(sizes) == {float(max_size)}


# -- the collector pause ------------------------------------------------------


@pytest.fixture
def collector():
    """Restores the cyclic collector's state after the test."""
    was_on = gc.isenabled()
    yield
    if was_on:
        gc.enable()
    else:
        gc.disable()


def unknown_activity(model_doc, policies_doc):
    policies_doc["policies"][0]["activity"] = "nowhere"


def unchanged(model_doc, policies_doc):
    pass


class TestCollectorPause:
    @pytest.mark.parametrize("collecting", [True, False], ids=["on", "off"])
    @pytest.mark.parametrize(
        "mutate, expected",
        [(unchanged, EXIT_OK), (unknown_activity, 3), (past_last_instant, 4)],
        ids=["exit-0", "exit-3", "exit-4"],
    )
    @pytest.mark.parametrize("command", ["simulate", "analyze", "optimize", "evaluate"])
    def test_main_leaves_the_collector_as_it_found_it(
        self, tmp_path, capsys, collector, command, mutate, expected, collecting
    ):
        inputs, fronts, out = two_batch_with(tmp_path, mutate)
        (gc.enable if collecting else gc.disable)()
        assert main(command_argv(command, inputs, fronts, out)) == expected
        assert gc.isenabled() is collecting

    @pytest.mark.parametrize("collecting", [True, False], ids=["on", "off"])
    def test_a_usage_error_inside_a_command_restores_the_collector(
        self, tmp_path, collector, collecting
    ):
        model, policies = fixture_inputs(tmp_path, "two-batch")
        config = write_json(tmp_path / "optimizer.json", {"maxSolutions": 0})
        (gc.enable if collecting else gc.disable)()
        with pytest.raises(SystemExit) as exit_:
            main(["optimize", "--model", model, "--policies", policies, "--config", config,
                  "--out", str(tmp_path / "out")])
        assert exit_.value.code == 2
        assert gc.isenabled() is collecting

    @pytest.mark.parametrize("collecting", [True, False], ids=["on", "off"])
    def test_an_unexpected_exception_restores_the_collector(
        self, tmp_path, monkeypatch, collector, collecting
    ):
        def broken(args, parser):
            assert not gc.isenabled()  # the command runs paused
            raise RuntimeError("broken command")

        monkeypatch.setitem(cli._COMMANDS, "simulate", broken)
        model, policies = fixture_inputs(tmp_path, "two-batch")
        (gc.enable if collecting else gc.disable)()
        with pytest.raises(RuntimeError, match="broken command"):
            main(["simulate", "--model", model, "--policies", policies,
                  "--out", str(tmp_path / "out")])
        assert gc.isenabled() is collecting


def cyclic_garbage(argv: list[str]) -> int:
    """The objects in reference cycles that one `main(argv)` leaves, with
    the collector off throughout."""
    gc.collect()
    gc.disable()
    assert main(argv) == EXIT_OK
    return gc.collect()


class TestCyclicGarbage:
    """What keeps the pause safe: a command's cyclic garbage does not grow
    with its work. Each pair runs once unmeasured first, so the one-time
    garbage of a first call (lazy imports and caches) is not counted."""

    def busy_step(self, tmp_path: Path) -> list[str]:
        model, policies = fixture_inputs(tmp_path, "busy-step")
        return ["--model", model, "--policies", policies]

    def assert_same_garbage(self, tmp_path: Path, small: list[str], large: list[str]) -> None:
        out = ["--out", str(tmp_path / "out")]
        cyclic_garbage(small + out)
        assert cyclic_garbage(small + out) == cyclic_garbage(large + out)

    def test_simulate(self, tmp_path, collector):
        inputs = self.busy_step(tmp_path)
        small, large = (
            ["simulate", *inputs, "--config", write_json(tmp_path / f"run-{n}.json",
                                                        {"totalCases": n})]
            for n in (50, 2000)
        )
        self.assert_same_garbage(tmp_path, small, large)

    @pytest.mark.parametrize("strategy", ["hc", "sa", "rl"])
    def test_optimize(self, tmp_path, collector, strategy):
        inputs = self.busy_step(tmp_path)
        small, large = (
            ["optimize", *inputs, "--config", write_json(
                tmp_path / f"optimizer-{n}.json",
                {"strategy": strategy, "maxSolutions": n, "rl": {"maxIterations": n},
                 "sim": {"totalCases": 100}})]
            for n in (5, 30)
        )
        self.assert_same_garbage(tmp_path, small, large)

    def test_analyze(self, tmp_path, collector):
        inputs = self.busy_step(tmp_path)
        small, large = (
            ["analyze", *inputs, "--config", write_json(tmp_path / f"optimizer-{n}.json",
                                                       {"sim": {"totalCases": n}})]
            for n in (50, 1000)
        )
        self.assert_same_garbage(tmp_path, small, large)

    def test_evaluate(self, tmp_path, collector):
        inputs = self.busy_step(tmp_path)
        fronts = []
        for guided in ("--guided", "--unguided"):
            out = tmp_path / guided.strip("-")
            config = write_json(tmp_path / "optimizer.json",
                                {"maxSolutions": 10, "sim": {"totalCases": 50}})
            argv = ["optimize", *inputs, "--config", config, guided, "--out", str(out)]
            assert main(argv) == EXIT_OK
            fronts.append(str(out / "front.json"))
        small, large = (
            ["evaluate", *fronts, *inputs, "--config", write_json(tmp_path / f"run-{n}.json",
                                                                 {"totalCases": n})]
            for n in (50, 1000)
        )
        self.assert_same_garbage(tmp_path, small, large)
