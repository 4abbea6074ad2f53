"""Scalar search utilities: golden-section minimization and monotone bisection."""

import math

GOLDEN_INV = (math.sqrt(5.0) - 1.0) / 2.0


def golden_section_minimize(f, lo, hi, rel_tol=1e-10, max_iter=200):
    """Minimize a scalar function on [lo, hi] by golden-section search.

    Assumes near-unimodality but tracks the best evaluated point, so the
    returned (x_best, f_best) never degrades if the assumption is off.
    """
    if not hi > lo:
        raise ValueError(f"empty interval [{lo}, {hi}]")
    a, b = float(lo), float(hi)
    c = b - GOLDEN_INV * (b - a)
    d = a + GOLDEN_INV * (b - a)
    fc, fd = f(c), f(d)
    if fc <= fd:
        best_x, best_f = c, fc
    else:
        best_x, best_f = d, fd
    for _ in range(max_iter):
        if (b - a) <= rel_tol * max(1.0, abs(a), abs(b)):
            break
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN_INV * (b - a)
            fc = f(c)
            if fc < best_f:
                best_x, best_f = c, fc
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN_INV * (b - a)
            fd = f(d)
            if fd < best_f:
                best_x, best_f = d, fd
    return best_x, best_f


def golden_section_maximize(f, lo, hi, rel_tol=1e-10, max_iter=200):
    """Maximize f on [lo, hi]; returns (x_best, f_best)."""
    x, neg = golden_section_minimize(
        lambda t: -f(t), lo, hi, rel_tol=rel_tol, max_iter=max_iter
    )
    return x, -neg


def bisect_nondecreasing(g, target, lo, hi, rel_tol=1e-10, max_iter=200):
    """Solve g(x) = target for nondecreasing g with g(lo) <= target <= g(hi)."""
    a, b = float(lo), float(hi)
    for _ in range(max_iter):
        if (b - a) <= rel_tol * max(abs(a), abs(b)):
            break
        mid = 0.5 * (a + b)
        if g(mid) < target:
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)
