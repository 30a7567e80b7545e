"""The tail-quantile rule and the open-loop latency accounting."""

import pytest

from stats import TAIL_BEYOND, lateness, open_loop_latency, tail


def test_tail_keeps_ten_samples_beyond():
    values = list(range(100))
    value, q, n = tail(values)
    assert n == 100
    assert sum(1 for v in values if v > value) == TAIL_BEYOND
    assert value == 89 and q == pytest.approx(0.90)


def test_tail_quantile_drops_with_fewer_samples():
    value, q, n = tail([float(v) for v in range(20)])
    assert (value, n) == (9.0, 20)
    assert q == pytest.approx(0.5)


def test_tail_is_order_independent():
    values = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 0.0, 10.0, 11.0]
    assert tail(values)[0] == 1.0


@pytest.mark.parametrize("n", [0, 1, TAIL_BEYOND])
def test_tail_refuses_too_few_samples(n):
    with pytest.raises(ValueError):
        tail([1.0] * n)


def test_open_loop_latency_counts_the_wait_before_sending():
    # Due at t=1.0, sent late at t=1.3 because no connection was free,
    # answered at t=1.4: the user waited 0.4 s, not 0.1 s.
    assert open_loop_latency(due=1.0, done=1.4) == pytest.approx(0.4)
    assert lateness(due=1.0, sent=1.3) == pytest.approx(0.3)
    assert lateness(due=1.0, sent=0.999) == 0.0
