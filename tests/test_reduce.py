"""The pure-Python reductions against values recorded once from NumPy 2.4.6.

Inputs are built with division only, which IEEE 754 rounds the same way
on every machine. From 8 values on, each input is chosen so that NumPy's
pairwise sum differs from a plain running sum, so a sequential `mean`
would fail these tests.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from batchopt.reduce import dot, mean, median, pairwise_sum, percentile, running_sum

SRC = str(Path(__file__).resolve().parent.parent / "src")


def spiky(n: int, big: float) -> list[float]:
    return [(big if i % 5 == 0 else 1.0) / (i + 3) for i in range(n)]


def running_mean(values) -> float:
    total = 0.0
    for v in values:
        total += v
    return total / len(values)


# (length, spike, np.mean(spiky(length, spike)))
NUMPY_MEANS = [
    (1, 1e8, 33333333.333333332),
    (7, 1e8, 6547619.171995464),
    (8, 1e11, 5729166666.787995),
    (9, 1e11, 5092592592.710542),
    (127, 1e8, 756317.4531040093),
    (128, 1e8, 750408.7230617304),
    (129, 1e8, 744591.6012367061),
    (1000, 1e8, 136788.75454166258),
    (5000, 1e8, 33793.899299178716),
]


@pytest.mark.parametrize("n, big, expected", NUMPY_MEANS, ids=[str(row[0]) for row in NUMPY_MEANS])
def test_mean_reproduces_numpy(n, big, expected):
    values = spiky(n, big)
    assert mean(values) == expected
    if n >= 8:
        assert running_mean(values) != expected
    else:
        assert running_mean(values) == expected


def test_pairwise_sum_reproduces_numpy_sum():
    assert pairwise_sum(spiky(1000, 1e8)) == 136788754.54166257
    assert pairwise_sum([]) == 0.0
    assert str(pairwise_sum([-0.0])) == "0.0"  # NumPy adds its initial 0.0


def test_mean_of_ints():
    assert mean([(i * 7919) % 1000 for i in range(1000)]) == 499.5
    assert mean([3]) == 3.0 and isinstance(mean([3]), float)


def test_mean_of_nothing_raises():
    with pytest.raises(ValueError):
        mean([])


def test_percentile_upper_lerp_branch():
    # virtual index 6.75: t >= 0.5 takes b - (b - a) * (1 - t)
    values = [19.799999999999997, 0.007, 0.004, 142.85714285714286, 428.57142857142856,
              580000.0, 0.002, 386666.6666666667, 483333.3333333334, 285.7142857142857]
    assert percentile(values, 75.0) == 290107.14285714284
    a, b, t = 285.7142857142857, 386666.6666666667, 0.75
    assert a + (b - a) * t != 290107.14285714284


def test_percentile_lower_lerp_branch():
    # virtual index 3.4: t < 0.5 takes a + (b - a) * t
    values = [0.003, 1142.857142857143, 193333.33333333334, 0.001, 16.5]
    assert percentile(values, 85.0) == 78019.04761904762
    a, b, t = 1142.857142857143, 193333.33333333334, (85.0 / 100) * 4 - 3
    assert b - (b - a) * (1 - t) != 78019.04761904762


def test_percentile_ends():
    assert percentile([4.0, 1.0, 2.0], 100.0) == 4.0
    assert percentile([7.5], 30.0) == 7.5
    with pytest.raises(ValueError):
        percentile([], 50.0)


def test_median_odd_and_even():
    assert median([5.5, 0.1, 3.25, 9.0, 2.0]) == 3.25
    assert median([0.1, 0.2, 9.0, 0.7]) == 0.44999999999999996
    with pytest.raises(ValueError):
        median([])


def test_running_sum_adds_left_to_right_on_every_version():
    # builtin sum compensates from CPython 3.12 on and returns 1.0 here
    assert running_sum([0.1] * 10) == 0.9999999999999999
    assert running_sum([1e16, 1.0, -1e16, 1.0], 0.0) == 1.0
    assert running_sum([]) == 0 and running_sum([], -0.0) == -0.0


def test_dot_is_a_running_sum_of_products():
    a = [1e16, 1.0, -1e16, 1.0]
    assert dot(a, [1.0] * 4) == 1.0  # left to right: (1e16 + 1) rounds to 1e16
    assert dot([], []) == 0.0


def test_importing_the_cli_does_not_load_numpy():
    code = "import sys, batchopt.cli; print('numpy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={"PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"
