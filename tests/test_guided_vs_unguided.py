"""scripts/run_guided_vs_unguided.py prints the rows and verdict that
`metrics.compare_fronts` gives for the fronts it writes, and exits by them."""

import importlib.util
import json
from pathlib import Path

import pytest

from batchopt.metrics import compare_fronts, render_metrics_csv
from batchopt.pareto import parse_front

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_guided_vs_unguided.py"
spec = importlib.util.spec_from_file_location("run_guided_vs_unguided", SCRIPT)
script = importlib.util.module_from_spec(spec)
spec.loader.exec_module(script)


def test_prints_the_comparison_of_the_fronts_it_writes(tmp_path, capsys):
    code = script.main(
        ["--fixture", "circadian", "--budget", "10", "--seeds", "2", "--out", str(tmp_path)]
    )
    printed = capsys.readouterr().out
    labels = ["seed0-hc+", "seed1-hc+", "seed0-hc-", "seed1-hc-"]
    fronts = [
        (label, parse_front(json.loads((tmp_path / f"{label}.json").read_text())))
        for label in labels
    ]
    _, rows, covered = compare_fronts(fronts)
    assert [row["label"] for row in rows] == labels + ["++", "--"]
    mean_plus = (rows[0]["hausdorff"] + rows[1]["hausdorff"]) / 2
    mean_minus = (rows[2]["hausdorff"] + rows[3]["hausdorff"]) / 2
    assert printed.splitlines()[:9] == [
        *render_metrics_csv(rows).splitlines(),
        f"mean hausdorff: hc+ {mean_plus!r}, hc- {mean_minus!r}",
        f"++ weakly dominates --: {'yes' if covered else 'no'}",
    ]
    assert (tmp_path / "metrics.csv").read_text() == render_metrics_csv(rows)
    # on circadian the guided climb reaches the whole reference front
    assert mean_plus < mean_minus and covered
    assert code == 0


def test_exits_1_when_the_guided_runs_do_not_converge_better(capsys):
    # on window-misfit hc+ never leaves the initial set, which hc- dominates
    code = script.main(["--fixture", "window-misfit", "--budget", "10", "--seeds", "1"])
    assert "++ weakly dominates --: no" in capsys.readouterr().out
    assert code == 1


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
    assert caught.value.code == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1].endswith(f": error: {message}")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()
