"""Scalar search utilities: safeguarded Newton for convex objectives,
golden-section search and monotone bisection."""

import math

GOLDEN_INV = (math.sqrt(5.0) - 1.0) / 2.0

#: newton_minimize's logit bracket half-width (at |x| = 50 a point sits
#: within 2e-22 window widths of its edge), its Newton-decrement stop
#: relative to max(1, |f|) (the round-off level of f), its step stop and its
#: iteration cap.
LOGIT_SPAN = 50.0
DECREMENT_RTOL = 1e-15
STEP_TOL = 1e-12
NEWTON_MAX_ITER = 100

#: Bracket width at which golden-section search and bisection stop, relative
#: to max(1, |a|, |b|) and max(|a|, |b|) of the bracket [a, b], and their
#: iteration cap.
SEARCH_RTOL = 1e-10
SEARCH_MAX_ITER = 200


def newton_minimize(fdf, lo, hi):
    """Minimize a convex function on [lo, hi] by safeguarded Newton.

    fdf(lam) returns (f, f', f'').  The iterate is the logit
    x = ln((lam - lo)/(hi - lam)), started at x = 0 (the midpoint), so every
    step stays inside the window and a minimum at an edge is approached
    geometrically.  With phi(x) = f(lam(x)), each step is the Newton step
    -phi'/phi'' inside a bracket kept by the sign of f' (initially
    [-LOGIT_SPAN, LOGIT_SPAN]); a step that leaves the bracket, or a
    nonpositive phi'', bisects it instead.  The search stops on the Newton
    decrement phi'^2/phi'' <= DECREMENT_RTOL * max(1, |f|), on a step of at
    most STEP_TOL, on a zero slope, or after NEWTON_MAX_ITER evaluations.
    Returns (lam_best, f_best), the best evaluated point.
    """
    if not hi > lo:
        raise ValueError(f"empty interval [{lo}, {hi}]")
    lo, hi = float(lo), float(hi)
    width = hi - lo
    a, b = -LOGIT_SPAN, LOGIT_SPAN
    x = 0.0
    best_lam = None
    for _ in range(NEWTON_MAX_ITER):
        # up = sigma(x) and down = sigma(-x), each without cancellation
        e = math.exp(-abs(x))
        big, small = 1.0 / (1.0 + e), e / (1.0 + e)
        up, down = (big, small) if x >= 0.0 else (small, big)
        lam = hi - width * down if x >= 0.0 else lo + width * up
        f, d1, d2 = fdf(lam)
        if best_lam is None or f < best_f:
            best_lam, best_f = lam, f
        jac = width * up * down
        slope = d1 * jac
        curvature = d2 * jac * jac + slope * (down - up)
        if slope > 0.0:
            b = x
        elif slope < 0.0:
            a = x
        else:
            break
        if slope * slope <= DECREMENT_RTOL * max(1.0, abs(f)) * curvature:
            break
        newton = x - slope / curvature if curvature > 0.0 else math.nan
        step = newton if a < newton < b else 0.5 * (a + b)
        if abs(step - x) <= STEP_TOL:
            break
        x = step
    return best_lam, best_f


def golden_section_minimize(f, lo, hi):
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
    for _ in range(SEARCH_MAX_ITER):
        if (b - a) <= SEARCH_RTOL * max(1.0, abs(a), abs(b)):
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


def bisect_nondecreasing(g, target, lo, hi):
    """Solve g(x) = target for nondecreasing g with g(lo) <= target <= g(hi)."""
    a, b = float(lo), float(hi)
    for _ in range(SEARCH_MAX_ITER):
        if (b - a) <= SEARCH_RTOL * max(abs(a), abs(b)):
            break
        mid = 0.5 * (a + b)
        if g(mid) < target:
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)
