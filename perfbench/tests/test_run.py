import pytest

from run import TAIL_BEYOND, run_tail


def test_tail_leaves_ten_reports_of_a_pass_above_it():
    values = [float(v) for v in range(28, 0, -1)]
    value, percentile = run_tail(values, 28)
    assert sum(v > value for v in values) == TAIL_BEYOND
    assert value == 18.0
    assert percentile == pytest.approx(100.0 * 18 / 28)


def test_tail_percentile_does_not_move_with_the_number_of_passes():
    values = [float(v) for v in range(84, 0, -1)]
    value, percentile = run_tail(values, 28)
    assert sum(v > value for v in values) == 3 * TAIL_BEYOND
    assert percentile == pytest.approx(100.0 * 18 / 28)


def test_short_pass_gives_the_slowest_report():
    assert run_tail([3.0, 1.0, 2.0], 3) == (3.0, 100.0)
