"""scripts/search_grid.py prints the rows and verdict that
`metrics.compare_fronts` gives for the fronts its runs write, exits by
them, and pins the digests of the default grid only."""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from batchopt.codec import to_doc
from batchopt.metrics import compare_fronts, render_metrics_csv
from batchopt.optimize import OptimizerConfig
from batchopt.pareto import parse_front

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "search_grid.py"
spec = importlib.util.spec_from_file_location("search_grid", SCRIPT)
script = importlib.util.module_from_spec(spec)
spec.loader.exec_module(script)


def test_prints_the_comparison_of_the_fronts_it_writes(tmp_path, capsys):
    code = script.main(
        ["--fixture", "circadian", "--budget", "10", "--seeds", "2", "--max-size", "8",
         "--out", str(tmp_path)]
    )
    printed = capsys.readouterr().out.splitlines()
    for block, strategy in enumerate(("hc", "sa")):
        runs = [(arm, seed) for arm in "+-" for seed in (0, 1)]
        labels = [f"seed{seed}-{strategy}{arm}" for arm, seed in runs]
        docs = [tmp_path / "circadian" / f"{strategy}{arm}" / f"seed{seed}" / "front.json"
                for arm, seed in runs]
        _, rows, covered = compare_fronts(
            [(label, parse_front(json.loads(doc.read_text()))) for label, doc in zip(labels, docs)]
        )
        assert [row["label"] for row in rows] == labels + ["++", "--"]
        mean_plus = (rows[0]["hausdorff"] + rows[1]["hausdorff"]) / 2
        mean_minus = (rows[2]["hausdorff"] + rows[3]["hausdorff"]) / 2
        assert printed[10 * block : 10 * block + 10] == [
            f"circadian {strategy}:",
            *render_metrics_csv(rows).splitlines(),
            f"mean hausdorff: {strategy}+ {mean_plus!r}, {strategy}- {mean_minus!r}",
            f"++ weakly dominates --: {'yes' if covered else 'no'}",
        ]
        metrics = tmp_path / "circadian" / f"{strategy}-metrics.csv"
        assert metrics.read_text() == render_metrics_csv(rows)
        # on circadian the guided searches reach the whole reference front
        assert mean_plus < mean_minus and covered
    assert printed[20:] == ["guided arm better on 2 of 2 pairs"]
    assert code == 0


def test_exits_1_when_the_guided_runs_do_not_converge_better(capsys):
    # on window-misfit hc+ never leaves the initial set, which hc- dominates
    code = script.main(["--fixture", "window-misfit", "--budget", "10", "--seeds", "1"])
    out = capsys.readouterr().out
    assert "window-misfit hc:" in out and "++ weakly dominates --: no" in out
    assert code == 1


def _assert_usage_error(capsys, caught, message):
    assert caught.value.code == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1].endswith(f": error: {message}")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--seeds", "0"], "--seeds must be >= 1, got 0"),
        (["--budget", "0"], "max_solutions must be >= 1"),
        (["--fixture", "nosuch"], "unknown fixture 'nosuch'"),
        (["--max-size", "0"], "need 1 <= min_size <= max_size, got [1, 0]"),
    ],
    ids=["seeds", "budget", "fixture", "max-size"],
)
def test_a_bad_argument_is_a_usage_error(tmp_path, capsys, argv, message):
    with pytest.raises(SystemExit) as caught:
        script.main(argv + ["--out", str(tmp_path / "out")])
    _assert_usage_error(capsys, caught, message)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "flag",
    [["--fixture", "circadian"], ["--seeds", "1"], ["--budget", "10"], ["--max-size", "8"]],
    ids=["fixture", "seeds", "budget", "max-size"],
)
def test_check_of_a_sliced_grid_is_a_usage_error(tmp_path, capsys, flag):
    # the pin covers the whole default grid, so a slice has nothing to compare
    with pytest.raises(SystemExit) as caught:
        script.main(["--check", *flag, "--out", str(tmp_path / "out")])
    message = "--check pins the default grid: drop --fixture, --seeds, --budget, --max-size"
    _assert_usage_error(capsys, caught, message)
    assert not (tmp_path / "out").exists()


def test_a_sliced_run_writes_no_digests(tmp_path, capsys):
    pinned = script.DIGESTS_PATH.read_bytes()
    script.main(["--fixture", "window-misfit", "--seeds", "1", "--out", str(tmp_path)])
    assert "wrote" not in capsys.readouterr().out
    assert script.DIGESTS_PATH.read_bytes() == pinned


def test_a_digest_is_the_sha256_of_the_three_outputs(tmp_path):
    # the default grid's config, so the digests are the pinned ones
    config = tmp_path / "optimizer.json"
    config.write_text(json.dumps(to_doc(OptimizerConfig(max_solutions=script.BUDGET))))
    digests, fronts = script.run_grid(["window-misfit"], 1, config, tmp_path / "out")
    pinned = json.loads(script.DIGESTS_PATH.read_text())
    assert sorted(digests) == sorted(fronts) == [
        "window-misfit/hc+/seed0", "window-misfit/hc-/seed0", "window-misfit/rl+/seed0",
        "window-misfit/sa+/seed0", "window-misfit/sa-/seed0",
    ]
    for key, digest in digests.items():
        run = tmp_path / "out" / key
        texts = [(run / name).read_bytes() for name in script.HASHED_OUTPUTS]
        assert digest == hashlib.sha256(b"".join(texts)).hexdigest() == pinned[key]
        assert fronts[key] == parse_front(json.loads(texts[0]))
