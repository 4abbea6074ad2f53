"""Tests for the scalar search utilities: the safeguarded Newton
minimizer behind the scalar-weight bound (one window, or many in lockstep),
the cubic-interpolation minimizer behind the tail bound, and Brent's
root-finder behind the exact engine's critical mu."""

import math

import numpy as np
import pytest

from conftest import golden_section_minimize
from qembound import ClassicalGaussian, tail_bound
from qembound._search import (SEARCH_RTOL, _cubic_step, brent_root, cubic_minimize,
                              newton_minimize_grid)
from qembound.classical import classical_gaussian_cgf_and_slope


def _one_window(fdf, lo, hi):
    """The one-window case: newton_minimize_grid on [lo, hi], with
    fdf(lam) giving (f, f', f'') at a float lam."""
    [result] = newton_minimize_grid(lambda lams, _: [fdf(lams[0])], [lo], [hi])
    return result


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
    lam, value = _one_window(fdf, 0.1, 10.0)
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
    lam, value = _one_window(fdf, 1.0, 3.0)
    edge = 1.0 if sign > 0 else 3.0
    assert lam == edge
    assert value <= f(edge)[0] + 1e-12
    assert all(1.0 <= x <= 3.0 for x in calls)
    assert len(calls) <= 40


@pytest.mark.parametrize("value", [0.0, 7.5])
def test_flat_objective_terminates(value):
    fdf, calls = _counting(lambda lam: (value, 0.0, 0.0))
    lam, best = _one_window(fdf, -1.0, 2.0)
    assert best == value
    assert -1.0 <= lam <= 2.0
    assert len(calls) == 1


def test_nearly_flat_linear_objective_terminates():
    fdf, calls = _counting(lambda lam: (1e-20 * lam, 1e-20, 0.0))
    lam, best = _one_window(fdf, 0.0, 1.0)
    assert 0.0 <= lam <= 1e-6
    assert len(calls) <= 40


def test_returns_the_best_evaluated_point():
    # Derivatives that point the wrong way lead every step uphill; the
    # reported point is still the lowest one evaluated, the first.
    fdf, calls = _counting(lambda lam: (lam, -1.0, 0.0))
    lam, value = _one_window(fdf, 0.0, 1.0)
    assert len(calls) > 1
    assert lam == value == calls[0] == min(calls)


def test_returns_the_best_point_moved_by_its_newton_step():
    # The value stop can end before the slope is at round-off; the
    # reported value is still the best evaluated one, and the reported
    # point that one's Newton step -f'/f'', with no further evaluation.
    def f(lam):
        return (math.exp(lam) - 3.0 * lam, math.exp(lam) - 3.0, math.exp(lam))

    fdf, calls = _counting(f)
    lam, value = _one_window(fdf, -2.0, 4.0)
    best = min(calls, key=lambda x: f(x)[0])
    assert value == f(best)[0]
    assert lam == best - f(best)[1] / f(best)[2]
    assert lam == pytest.approx(math.log(3.0), rel=1e-15)


def test_windows_solved_together_return_what_they_return_alone():
    # A minimum at the lower edge of [1, 100] (f' > 0 throughout, about 40
    # steps) and an interior one (about 4): in lockstep, each window sees
    # the points it sees alone and returns the same (lam, f), and each
    # round evaluates every open window in one call, so the calls number
    # as many as the slower window needs.
    cases = [
        (lambda lam: (lam + 0.1 * lam * lam, 1.0 + 0.2 * lam, 0.2), 1.0, 100.0),
        (lambda lam: (math.exp(lam) - 3.0 * lam, math.exp(lam) - 3.0, math.exp(lam)), -2.0, 4.0),
    ]
    alone = []
    for f, lo, hi in cases:
        fdf, calls = _counting(f)
        alone.append((_one_window(fdf, lo, hi), calls))
    assert len(alone[0][1]) >= 30 and len(alone[1][1]) <= 5
    rounds = []

    def fdf(lams, rows):
        rounds.append(dict(zip(rows, lams)))
        return [cases[i][0](lam) for i, lam in zip(rows, lams)]

    together = newton_minimize_grid(fdf, [lo for _, lo, _ in cases], [hi for _, _, hi in cases])
    assert together == [result for result, _ in alone]
    assert len(rounds) == max(len(calls) for _, calls in alone)
    for i, (_, calls) in enumerate(alone):
        assert [points[i] for points in rounds if i in points] == calls
    assert newton_minimize_grid(fdf, [], []) == []


def test_empty_window_is_rejected():
    with pytest.raises(ValueError, match="empty interval"):
        _one_window(lambda lam: (0.0, 0.0, 0.0), 1.0, 1.0)


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


def _cubic_case(f, a, b):
    """cubic_minimize of f(x) -> (f, f') on [a, b] with the ends' values and
    slopes given; returns its (x, f) and the points it evaluated."""
    fdf, calls = _counting(f)
    return cubic_minimize(fdf, a, b, *f(a), *f(b)), calls


def test_first_cubic_step_lands_on_a_quadratics_minimizer():
    # The cubic matching a quadratic's values and slopes at both ends is
    # the quadratic itself.
    (x, value), calls = _cubic_case(lambda x: (3.0 * (x - 0.7) ** 2 + 1.0, 6.0 * (x - 0.7)),
                                    0.0, 2.0)
    assert calls == [pytest.approx(0.7, rel=1e-15)]
    assert (x, value) == (calls[0], pytest.approx(1.0, rel=1e-15))


@pytest.mark.parametrize("ends", [
    (0.0, 0.0, 1.0, 1.0, 1.5, 2.0),
    (0.0, 0.0, 1.0, 1.0, 1.0, 3.0),
], ids=["outside-the-bracket", "negative-discriminant"])
def test_a_cubic_without_a_minimizer_inside_bisects(ends):
    # x + x^2/2 on [0, 1]: the cubic is that quadratic, whose minimizer -1
    # lies outside; slopes 1 and 3 with a secant slope of 1 leave the
    # cubic's slope without a root (d1^2 - f'(a) f'(b) = 1 - 3 < 0).
    assert _cubic_step(*ends) == 0.5


def test_a_step_rounded_onto_an_end_bisects():
    # f = x^3/3 - 1e-300 x on [0, 1]: the cubic is f itself, but its
    # minimizer 1e-150 rounds onto the end 0, so the search bisects, keeps
    # every point strictly inside and stops on the Newton decrement.
    (x, value), calls = _cubic_case(lambda x: (x ** 3 / 3.0 - 1e-300 * x, x * x - 1e-300),
                                    0.0, 1.0)
    assert calls[:3] == [0.5, 0.25, 0.125]
    assert all(0.0 < c < 1.0 for c in calls)
    assert len(calls) <= 40
    assert value <= 0.0


def test_a_kink_is_bracketed_at_least_geometrically():
    # Slopes -1 and 100 on either side of a kink at 0.3: the cubic steps
    # keep landing on the steep side, so one end barely moves, and no slope
    # is ever small.  The bisection after two steps that do not halve the
    # bracket halves it at least every third step, so the bracket width
    # stops the search within 3 * 36 steps (2/2^36 < 1e-10 * 0.3).
    def f(x):
        slope = 100.0 if x > 0.3 else -1.0
        return slope * (x - 0.3), slope

    (x, value), calls = _cubic_case(f, -1.0, 1.0)
    assert abs(x - 0.3) <= SEARCH_RTOL
    assert value == f(x)[0]
    assert all(-1.0 < c < 1.0 for c in calls)
    assert len(calls) <= 3 * 36


def test_an_exact_zero_slope_stops():
    # max(|x - 1| - 0.5, 0)^2 is flat on [0.5, 1.5], where the first step
    # lands: its slope there is exactly 0.
    def f(x):
        excess = max(abs(x - 1.0) - 0.5, 0.0)
        return excess * excess, math.copysign(2.0 * excess, x - 1.0)

    (x, value), calls = _cubic_case(f, 0.0, 3.0)
    assert len(calls) == 1 and 0.5 <= calls[0] <= 1.5
    assert (x, value) == (calls[0], 0.0)


@pytest.mark.parametrize("scale", [1e-20, 1e-300])
def test_flat_function_terminates(scale):
    # The slopes sit far below the decrement's floor of max(1, |f|).
    (x, value), calls = _cubic_case(lambda x: (scale * (x - 0.3) ** 2 + 5.0,
                                               2.0 * scale * (x - 0.3)), 0.0, 1.0)
    assert len(calls) == 1 and 0.0 < calls[0] < 1.0
    assert value == 5.0


def test_minimum_needs_bracketing_slopes():
    with pytest.raises(ValueError, match="bracket"):
        cubic_minimize(lambda x: (x, 1.0), 0.0, 1.0, 0.0, 1.0, 1.0, 1.0)


def test_classical_tail_bound_from_the_cubic_search():
    # X ~ N(0, 1): Upsilon(mu) = -ln(1 - mu)/2, so at eps = 2 the gain
    # 2 mu - Upsilon peaks at mu = 3/4, where it is 1.5 + ln(1/4)/2.
    calls = []

    def cgf(mu):
        calls.append(np.ndim(mu))
        return classical_gaussian_cgf_and_slope(ClassicalGaussian(mean=[0.0], cov=[[1.0]]), mu)

    result = tail_bound(cgf, eps=2.0, mu_max=0.999)
    assert abs(result.argmax_mu - 0.75) <= 1e-9
    assert abs(result.log_prob_bound + 1.5 + 0.5 * math.log(0.25)) <= 1e-12
    assert calls[0] == 1 and calls[1:] == [0] * len(calls[1:]) and len(calls) <= 4
