"""Scalar search utilities: safeguarded Newton for convex objectives, a
safeguarded cubic-interpolation minimizer for convex functions known by
value and slope, and Brent's bracketed root-finder."""

import math

#: _newton_search's logit bracket half-width (at |x| = 50 a point sits
#: within 2e-22 window widths of its edge), its Newton-decrement stop
#: relative to max(1, |f|) (the round-off level of f), its step stop and its
#: iteration cap.
LOGIT_SPAN = 50.0
DECREMENT_RTOL = 1e-15
STEP_TOL = 1e-12
NEWTON_MAX_ITER = 100

#: Bracket width at which cubic_minimize and brent_root stop, relative to
#: max(|a|, |b|) of the bracket [a, b], and their iteration cap.
SEARCH_RTOL = 1e-10
SEARCH_MAX_ITER = 200


def newton_minimize_grid(fdf, lo, hi):
    """Minimize convex functions on the windows [lo[i], hi[i]] in lockstep.

    Each round makes one call fdf(lams, rows), with lams the current point
    of every window still open (a list of floats) and rows their indices,
    and it returns one (f, f', f'') per open window, in that order; so a
    grid costs as many calls as its slowest window needs, and one window is
    the one-point case.  Each window runs _newton_search on its own, in
    Python floats, so its points and result do not depend on the other
    windows.  Returns a list of (lam, f), one per window.
    """
    searches = [_newton_search(a, b) for a, b in zip(lo, hi)]
    rows = list(range(len(searches)))
    lams = [next(search) for search in searches]
    results = [None] * len(searches)
    while rows:
        open_rows, open_lams = [], []
        for i, derivatives in zip(rows, fdf(lams, rows)):
            try:
                open_lams.append(searches[i].send(derivatives))
                open_rows.append(i)
            except StopIteration as stop:
                results[i] = stop.value
        rows, lams = open_rows, open_lams
    return results


def _newton_search(lo, hi):
    """One window's safeguarded Newton search, as a generator: it yields
    each lam to evaluate, is sent (f, f', f'') there, and returns (lam, f).

    The iterate is the logit x = ln((lam - lo)/(hi - lam)), started at
    x = 0 (the midpoint), so every step stays inside the window and a
    minimum at an edge is approached geometrically.  With
    phi(x) = f(lam(x)), each step is the Newton step -phi'/phi'' inside a
    bracket kept by the sign of f' (initially [-LOGIT_SPAN, LOGIT_SPAN]); a
    step that leaves the bracket, or a nonpositive phi'', bisects it
    instead.  The search stops on the Newton decrement
    phi'^2/phi'' <= DECREMENT_RTOL * max(1, |f|), on a step of at most
    STEP_TOL, on a zero slope, or after NEWTON_MAX_ITER evaluations.  That
    stop can leave the best point sqrt(DECREMENT_RTOL) relative off the
    minimizer, so it returns (lam, f): that point moved by its own Newton
    step -f'/f'' (clamped to [lo, hi], skipped where f'' <= 0), and the
    best value.
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
        f, d1, d2 = map(float, (yield lam))
        if best_lam is None or f < best_f:
            best_lam, best_f, best_d1, best_d2 = lam, f, d1, d2
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
    if best_d2 > 0.0:
        best_lam = min(max(best_lam - best_d1 / best_d2, lo), hi)
    return best_lam, best_f


def cubic_minimize(fdf, a, b, fa, da, fb, db):
    """Minimize a convex f on [a, b], given fa = f(a), da = f'(a) < 0,
    fb = f(b) and db = f'(b) > 0; fdf(x) returns (f(x), f'(x)) at a float x.

    Each step evaluates the minimizer of the cubic that matches the values
    and slopes at both ends of the bracket (see _cubic_step), and the sign
    of f' there picks the end it replaces.  When the bracket has not halved
    over the last two steps, the step bisects instead, which caps the worst
    case.  The search stops on an exact zero slope, on the Newton decrement
    f'(x)^2/c <= DECREMENT_RTOL * max(1, |f_best|), with c the secant
    curvature (f'(b) - f'(a))/(b - a) of the bracket (the rule of
    _newton_search), on a bracket narrower than SEARCH_RTOL * max(|a|, |b|),
    or after SEARCH_MAX_ITER steps.  Returns (x, f) of the lowest point
    evaluated, the ends included.
    """
    if not da < 0.0 < db:
        raise ValueError(f"slopes {da} at {a} and {db} at {b} do not bracket a minimum")
    a, b = float(a), float(b)
    best_x, best_f = (a, fa) if fa <= fb else (b, fb)
    # widths of the bracket before the last step and before the one ahead of it
    width_1 = width_2 = math.inf
    for _ in range(SEARCH_MAX_ITER):
        width = b - a
        if width <= SEARCH_RTOL * max(abs(a), abs(b)):
            break
        if width > 0.5 * width_2:
            x = 0.5 * (a + b)
        else:
            x = _cubic_step(a, fa, da, b, fb, db)
        width_2, width_1 = width_1, width
        f, d = map(float, fdf(x))
        if f < best_f:
            best_x, best_f = x, f
        if d < 0.0:
            a, fa, da = x, f, d
        elif d > 0.0:
            b, fb, db = x, f, d
        else:
            break
        if d * d * (b - a) <= DECREMENT_RTOL * max(1.0, abs(best_f)) * (db - da):
            break
    return best_x, best_f


def _cubic_step(a, fa, da, b, fb, db):
    """The minimizer of the cubic with values fa, fb and slopes da, db at
    a < b (Nocedal & Wright, Numerical Optimization, 2nd ed., eq. 3.59), or
    the midpoint of [a, b] where that point is NaN (the cubic has no local
    minimum, a negative discriminant) or not strictly inside the bracket.
    With da < 0 < db, as in cubic_minimize, the discriminant is positive
    and so is the denominator."""
    d1 = da + db - 3.0 * (fb - fa) / (b - a)
    disc = d1 * d1 - da * db
    x = math.nan
    if disc >= 0.0:
        d2 = math.sqrt(disc)
        x = b - (b - a) * (db + d2 - d1) / (db - da + 2.0 * d2)
    return x if a < x < b else 0.5 * (a + b)


def brent_root(f, a, b, fa, fb):
    """Root of f in [a, b] by Brent's zeroin (Algorithms for Minimization
    without Derivatives, 1973, ch. 4), given fa = f(a) and fb = f(b) of
    opposite signs or with one zero.  Secant or inverse quadratic steps fall
    back to bisection when they would not shrink the bracket fast enough,
    so every evaluation lies inside it.  Stops at a bracket narrower than
    SEARCH_RTOL * max(|a|, |b|) or at an exact zero.
    """
    if fa == 0.0 or fb == 0.0:
        return float(a) if fa == 0.0 else float(b)
    if (fa > 0.0) == (fb > 0.0):
        raise ValueError(f"f({a}) = {fa} and f({b}) = {fb} do not bracket a root")
    # cur is the best iterate, pre the one before it, blk the far end of
    # the bracket; step and prev_step are the last two steps taken.
    pre, f_pre, cur, f_cur = float(a), fa, float(b), fb
    step = prev_step = 0.0
    for _ in range(SEARCH_MAX_ITER):
        if (f_pre > 0.0) != (f_cur > 0.0):
            blk, f_blk = pre, f_pre
            step = prev_step = cur - pre
        if abs(f_blk) < abs(f_cur):
            pre, cur, blk = cur, blk, cur
            f_pre, f_cur, f_blk = f_cur, f_blk, f_cur
        tol = 0.5 * SEARCH_RTOL * max(abs(cur), abs(blk))
        half = 0.5 * (blk - cur)
        if f_cur == 0.0 or abs(half) <= tol:
            break
        trial = math.inf
        if abs(prev_step) > tol and abs(f_cur) < abs(f_pre):
            if pre == blk:
                trial = -f_cur * (cur - pre) / (f_cur - f_pre)
            else:
                d_pre = (f_pre - f_cur) / (pre - cur)
                d_blk = (f_blk - f_cur) / (blk - cur)
                trial = -f_cur * (f_blk * d_blk - f_pre * d_pre) / (d_blk * d_pre * (f_blk - f_pre))
        if 2.0 * abs(trial) < min(abs(prev_step), 3.0 * abs(half) - tol):
            prev_step, step = step, trial
        else:
            prev_step = step = half
        pre, f_pre = cur, f_cur
        cur += step if abs(step) > tol else math.copysign(tol, half)
        f_cur = f(cur)
    return cur
