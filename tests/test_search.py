"""Tests for the scalar search utilities: the safeguarded Newton
minimizer behind the scalar-weight bound and Brent's root-finder behind the
tail bound."""

import math

import pytest

from conftest import golden_section_minimize
from qembound._search import SEARCH_RTOL, brent_root, newton_minimize


def _counting(fdf):
    calls = []

    def wrapped(lam):
        calls.append(lam)
        return fdf(lam)

    return wrapped, calls


def test_interior_minimizer_of_a_convex_function():
    # f = lam - ln(lam) + (lam - 2)^2 has f' = 1 - 1/lam + 2(lam - 2) = 0 at
    # lam = (3 + sqrt(17))/4.
    def f(lam):
        return (lam - math.log(lam) + (lam - 2.0) ** 2,
                1.0 - 1.0 / lam + 2.0 * (lam - 2.0),
                1.0 / lam ** 2 + 2.0)

    fdf, calls = _counting(f)
    lam, value = newton_minimize(fdf, 0.1, 10.0)
    expected = (3.0 + math.sqrt(17.0)) / 4.0
    assert lam == pytest.approx(expected, rel=1e-12)
    assert len(calls) <= 10
    _, golden_value = golden_section_minimize(lambda x: f(x)[0], 0.1, 10.0)
    assert value <= golden_value + 1e-12


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["lower-edge", "upper-edge"])
def test_minimum_at_a_window_edge(sign):
    # f' has one sign on the whole window, so the minimum sits on the edge
    # it points away from; the search approaches it geometrically and stops,
    # and the final Newton step is clamped onto the edge.
    def f(lam):
        return sign * lam + 0.1 * lam * lam, sign + 0.2 * lam, 0.2

    fdf, calls = _counting(f)
    lam, value = newton_minimize(fdf, 1.0, 3.0)
    edge = 1.0 if sign > 0 else 3.0
    assert lam == edge
    assert value <= f(edge)[0] + 1e-12
    assert all(1.0 <= x <= 3.0 for x in calls)
    assert len(calls) <= 40


@pytest.mark.parametrize("value", [0.0, 7.5])
def test_flat_objective_terminates(value):
    fdf, calls = _counting(lambda lam: (value, 0.0, 0.0))
    lam, best = newton_minimize(fdf, -1.0, 2.0)
    assert best == value
    assert -1.0 <= lam <= 2.0
    assert len(calls) == 1


def test_nearly_flat_linear_objective_terminates():
    fdf, calls = _counting(lambda lam: (1e-20 * lam, 1e-20, 0.0))
    lam, best = newton_minimize(fdf, 0.0, 1.0)
    assert 0.0 <= lam <= 1e-6
    assert len(calls) <= 40


def test_returns_the_best_evaluated_point():
    # Derivatives that point the wrong way lead every step uphill; the
    # reported point is still the lowest one evaluated, the first.
    fdf, calls = _counting(lambda lam: (lam, -1.0, 0.0))
    lam, value = newton_minimize(fdf, 0.0, 1.0)
    assert len(calls) > 1
    assert lam == value == calls[0] == min(calls)


def test_returns_the_best_point_moved_by_its_newton_step():
    # The value stop can end before the slope is at round-off; the
    # reported value is still the best evaluated one, and the reported
    # point that one's Newton step -f'/f'', with no further evaluation.
    def f(lam):
        return (math.exp(lam) - 3.0 * lam, math.exp(lam) - 3.0, math.exp(lam))

    fdf, calls = _counting(f)
    lam, value = newton_minimize(fdf, -2.0, 4.0)
    best = min(calls, key=lambda x: f(x)[0])
    assert value == f(best)[0]
    assert lam == best - f(best)[1] / f(best)[2]
    assert lam == pytest.approx(math.log(3.0), rel=1e-15)


def test_empty_window_is_rejected():
    with pytest.raises(ValueError, match="empty interval"):
        newton_minimize(lambda lam: (0.0, 0.0, 0.0), 1.0, 1.0)


def _root_case(f, a, b):
    """brent_root on [a, b] with the ends' values given; returns the root
    and the points it evaluated."""
    g, calls = _counting(f)
    return brent_root(g, a, b, f(a), f(b)), calls


@pytest.mark.parametrize("f, a, b, root", [
    (lambda x: 3.0 * x - 1.2, 0.0, 1.0, 0.4),
    (lambda x: x ** 3 - 2.0, 0.5, 3.0, 2.0 ** (1.0 / 3.0)),
    (lambda x: 2.0 - math.exp(x), -1.0, 4.0, math.log(2.0)),
], ids=["linear", "cubic", "exponential"])
def test_root_of_a_smooth_function(f, a, b, root):
    x, calls = _root_case(f, a, b)
    assert abs(x - root) <= SEARCH_RTOL * max(abs(a), abs(b), 1.0)
    assert all(a <= c <= b for c in calls)
    assert len(calls) <= 12


@pytest.mark.parametrize("end", ["lower", "upper"])
def test_root_at_a_bracket_end(end):
    x, calls = _root_case(lambda x: x - 1.0 if end == "lower" else 2.0 - x, 1.0, 2.0)
    assert x == (1.0 if end == "lower" else 2.0)
    assert calls == []


def test_root_evaluations_stay_inside_the_bracket():
    # A step function defeats every interpolation, so the search falls
    # back to bisection and still keeps to [a, b].
    x, calls = _root_case(lambda x: 1.0 if x < 0.3 else -1.0, 0.2, 0.9)
    assert abs(x - 0.3) <= 1e-9
    assert all(0.2 < c < 0.9 for c in calls)
    assert len(calls) <= 200


def test_root_needs_a_sign_change():
    with pytest.raises(ValueError, match="bracket"):
        brent_root(lambda x: x, 1.0, 2.0, 1.0, 2.0)
