"""The pure helpers of scripts/bench_pairs.py: seed ranges, the pair
summary (medians, inclusive quartiles, win counts) and the host block."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


@pytest.mark.parametrize(
    "text, seeds",
    [("811-820", list(range(811, 821))), ("5", [5]), ("3-3", [3]), ("4-2", [])],
)
def test_parse_seeds_is_an_inclusive_range(text, seeds):
    assert bench_pairs.parse_seeds(text) == seeds


def test_summary_medians_and_inclusive_quartiles():
    parent = [4.0, 1.0, 3.0, 2.0, 5.0]
    change = [1.0, 1.0, 1.0, 1.0, 1.0]
    summary = bench_pairs.summarize(parent, change, "lower")
    assert summary["parent_median"] == 3.0
    assert summary["change_median"] == 1.0
    # inclusive method: the quartiles of 1..5 are 2 and 4
    assert summary["parent_quartiles"] == [2.0, 4.0]
    assert summary["parent_iqr"] == 2.0
    assert summary["parent"] == parent and summary["change"] == change
    assert summary["better"] == "lower"


def test_summary_even_count_median_and_quartiles():
    summary = bench_pairs.summarize([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0], "lower")
    assert summary["parent_median"] == 2.5
    assert summary["parent_quartiles"] == [1.75, 3.25]


@pytest.mark.parametrize(
    "better, wins",
    # pairs: change lower, change higher, tie, change lower
    [("lower", 2), ("higher", 1)],
)
def test_wins_count_the_declared_direction_and_a_tie_is_no_win(better, wins):
    parent = [2.0, 2.0, 2.0, 2.0]
    change = [1.0, 3.0, 2.0, 1.5]
    assert bench_pairs.summarize(parent, change, better)["change_wins"] == wins


def test_all_ties_win_nothing_either_way():
    values = [0.5, 0.7, 0.6]
    for better in ("lower", "higher"):
        assert bench_pairs.summarize(values, list(values), better)["change_wins"] == 0


def test_layer_comparison_pairs_each_declared_metric():
    declared = {"calendars.next_open.calls": "lower", "eventlog.evaluate_objectives.self_s": "lower"}
    parent = {"calendars.next_open.calls": 10, "eventlog.evaluate_objectives.self_s": 0.5}
    change = {"calendars.next_open.calls": 8}
    assert bench_pairs.compare_layers(parent, change, declared) == {
        "calendars.next_open.calls": {"better": "lower", "parent": 10, "change": 8},
        "eventlog.evaluate_objectives.self_s": {"better": "lower", "parent": 0.5, "change": None},
    }


STUB = """
import json, sys
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
correct = args["--workload"] != "broken"
metrics = {"trace": {"value": int(args["--trace"])},
           "seconds": {"value": float(args["--seconds"])},
           "seed": {"value": int(args["--seed"])}}
print("a report line")
print(json.dumps({"correct": correct, "metrics": metrics}))
"""


def _stub_tree(tmp_path):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(STUB)
    return str(tmp_path)


@pytest.mark.parametrize("trace", [0, 1])
def test_run_once_passes_the_trace_flag_and_reads_the_last_line(tmp_path, trace):
    tree = _stub_tree(tmp_path)
    metrics = bench_pairs.run_once(tree, "busy", 7, 1, trace=trace)
    assert metrics == {"trace": trace, "seconds": 1.0, "seed": 7}


def test_run_once_untraced_by_default(tmp_path):
    assert bench_pairs.run_once(_stub_tree(tmp_path), "busy", 7, 50)["trace"] == 0


def test_run_once_stops_on_an_incorrect_run(tmp_path):
    with pytest.raises(SystemExit, match="benchmark failed"):
        bench_pairs.run_once(_stub_tree(tmp_path), "broken", 7, 1, trace=1)


def test_wrote_bytecode_sees_a_pyc_anywhere_under_src(tmp_path):
    package = tmp_path / "src" / "batchopt"
    package.mkdir(parents=True)
    (package / "cli.py").write_text("")
    assert not bench_pairs.wrote_bytecode(str(tmp_path))
    (package / "__pycache__").mkdir()
    (package / "__pycache__" / "cli.cpython-311.pyc").write_bytes(b"")
    assert bench_pairs.wrote_bytecode(str(tmp_path))


def test_host_block_records_cores_python_and_bytecode(tmp_path):
    (tmp_path / "src").mkdir()
    host = bench_pairs.host_block(str(tmp_path))
    assert set(host) == {"cores", "python", "wrote_bytecode"}
    assert host["wrote_bytecode"] is False
    assert host["python"].count(".") == 2
