"""Tests of the benchmark's own helpers.

    python3 -m pytest perfbench/test_perfbench.py
"""

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from checks import hypervolume, output_digest  # noqa: E402
from layers import END, NAME, PARENT, START, Tracer, self_times  # noqa: E402


# -- hypervolume ---------------------------------------------------------------


def test_hypervolume_of_one_point_is_its_box_to_the_reference():
    assert hypervolume([(0.25, 0.5)], (1.0, 1.0), (1.0, 1.0)) == pytest.approx(0.75 * 0.5)


def test_hypervolume_of_a_staircase_sums_its_steps():
    points = [(0.2, 0.8), (0.5, 0.4), (0.9, 0.1)]
    expected = (1 - 0.2) * (1 - 0.8) + (1 - 0.5) * (0.8 - 0.4) + (1 - 0.9) * (0.4 - 0.1)
    assert hypervolume(points, (1.0, 1.0), (1.0, 1.0)) == pytest.approx(expected)
    assert hypervolume(list(reversed(points)), (1.0, 1.0), (1.0, 1.0)) == pytest.approx(expected)


def test_dominated_and_outside_points_add_nothing():
    base = hypervolume([(0.2, 0.2)], (1.0, 1.0), (1.0, 1.0))
    extra = [(0.2, 0.2), (0.5, 0.5), (0.2, 0.3), (1.5, 0.0), (0.0, 1.5)]
    assert hypervolume(extra, (1.0, 1.0), (1.0, 1.0)) == pytest.approx(base)
    assert hypervolume([], (1.0, 1.0), (1.0, 1.0)) == 0.0


def test_hypervolume_divides_by_the_scale_first():
    scaled = hypervolume([(1800.0, 5.0)], (3600.0, 10.0), (1.1, 1.1))
    assert scaled == pytest.approx((1.1 - 0.5) * (1.1 - 0.5))


def test_a_better_front_has_a_larger_hypervolume():
    worse = [(0.5, 0.5)]
    better = [(0.5, 0.5), (0.3, 0.6)]
    assert hypervolume(better, (1, 1), (1, 1)) > hypervolume(worse, (1, 1), (1, 1))


# -- self time -----------------------------------------------------------------


def span(name, start, end, parent=-1):
    return [name, start, end, parent, 0, False]


def test_self_time_subtracts_children_and_keeps_leaves_whole():
    spans = [
        span("root", 0.0, 10.0),
        span("a", 1.0, 3.0, parent=0),
        span("b", 4.0, 8.0, parent=0),
        span("c", 5.0, 6.0, parent=2),
    ]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0])


def test_self_time_counts_overlapping_children_once_and_clips_them():
    spans = [
        span("root", 0.0, 10.0),
        span("a", 2.0, 6.0, parent=0),
        span("b", 4.0, 7.0, parent=0),
        span("c", 9.0, 12.0, parent=0),
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


# -- digests -------------------------------------------------------------------


def write(directory, name, text):
    with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
        fh.write(text)


def test_digest_ignores_the_manifest_and_sees_every_other_byte(tmp_path):
    write(tmp_path, "events.csv", "a,b\n1,2\n")
    write(tmp_path, "manifest.json", '{"durationSeconds": 1.0}\n')
    first = output_digest(str(tmp_path))
    write(tmp_path, "manifest.json", '{"durationSeconds": 2.5}\n')
    assert output_digest(str(tmp_path)) == first
    write(tmp_path, "events.csv", "a,b\n1,3\n")
    assert output_digest(str(tmp_path)) != first


def test_digest_depends_on_file_names_not_only_contents(tmp_path):
    one, two = tmp_path / "one", tmp_path / "two"
    one.mkdir()
    two.mkdir()
    write(one, "x.csv", "ab")
    write(one, "y.csv", "c")
    write(two, "x.csv", "a")
    write(two, "y.csv", "bc")
    assert output_digest(str(one)) != output_digest(str(two))


# -- tracer --------------------------------------------------------------------


def test_tracer_observes_without_changing_results_and_restores_attributes():
    from batchopt import engine, optimize
    from batchopt.calendars import Calendar
    from batchopt.fixtures import get_fixture

    fixture = get_fixture("two-batch")
    expected = optimize.simulate(fixture.model(), fixture.policies(), fixture.sim_config())
    before = (optimize.simulate, engine.evaluate_activation_rule, Calendar.__dict__["next_open"])
    with Tracer() as tracer:
        tracer.begin_command("simulate")
        traced = optimize.simulate(fixture.model(), fixture.policies(), fixture.sim_config())
    after = (optimize.simulate, engine.evaluate_activation_rule, Calendar.__dict__["next_open"])

    assert traced == expected
    assert after == before
    names = [s[NAME] for s in tracer.spans]
    assert names[0] == "engine.simulate" and tracer.spans[0][PARENT] == -1
    assert "policy.evaluate_activation_rule" in names and "calendars.next_open" in names
    assert all(s[PARENT] >= 0 for s in tracer.spans[1:])
    assert all(s[START] <= s[END] for s in tracer.spans)
    assert tracer.counts["engine.instances"] == len(expected.log.instances)
