"""Property tests for the scalar-weight bound engine, the exact-CGF engine,
the Monte-Carlo estimator and their invariants.

States are admissible by construction (C = W W^T + ||Theta|| I, as in
conftest.random_admissible_state); hypothesis draws the commutation
spectrum, the component count, the seed of the random matrices, and the
position of mu inside the bound's validity range.
"""

import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from conftest import (bisect_nondecreasing, block_ccr, brent_tail, eigh_exact_chunk,
                      golden_section_minimize, log_propagated_norm, per_sample_randomized_mc,
                      random_admissible_state)
from qembound import (
    GaussianState,
    MixtureMgf,
    matrix_function,
    OqhoModel,
    WeightMatrix,
    aux_covariance,
    dynamics_matrices,
    exact_cgf,
    gramian_finite,
    propagate_mgf,
    qem_exact,
    qem_randomized_mc,
    qem_upper_bound,
    scalar_bound_cgf,
    symplectic_eigenbasis,
    tail_bound,
)
from qembound._search import SEARCH_RTOL
from qembound.ccr import _diag_kron_j2, _eigh_basis, _verify_basis, validate_ccr
from qembound.cli import ScenarioConfig, run
from qembound.errors import (EmptyFeasibleWindow, NumericalOverflowDespiteLogSpace,
                             QemBoundError, RiskParameterTooLarge)
from qembound.qem import (
    CGF_SAFETY,
    GRID_CHUNK,
    WINDOW_MARGIN,
    ExactEngine,
    ScalarBoundEngine,
    _log_bound_prefactor,
    saturation_mu,
    scalar_weight_limit,
)
from qembound.sampling import BLOCK_SIZE

# hypothesis's failure report imports mypy_extensions.TypedDict, whose
# DeprecationWarning would turn into an INTERNALERROR under -W error and
# hide the falsifying example.
pytestmark = pytest.mark.filterwarnings(
    "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")

PROPERTY_SETTINGS = settings(max_examples=15, deadline=None)


def _squeezed_state(rng, ccr, freqs):
    """Admissible state on block_ccr(freqs) whose mode k has the pure
    squeezed covariance freq_k diag(r_k, 1/r_k), r_k up to e^3, plus W W^T."""
    r = np.exp(rng.uniform(0.0, 3.0, size=len(freqs)))
    w = rng.normal(scale=0.3, size=(ccr.n, ccr.n))
    cov = np.diag(np.ravel([[f * q, f / q] for f, q in zip(freqs, r)])) + w @ w.T
    return GaussianState(mean=rng.normal(scale=0.5, size=ccr.n), cov=cov, ccr=ccr)


@st.composite
def mixtures(draw, max_components=3, squeezed=False):
    """(mixture, basis) with 1-3 modes and 1 to max_components admissible
    components; with squeezed, each may be a squeezed state instead."""
    freqs = draw(st.lists(st.floats(0.5, 2.5), min_size=1, max_size=3))
    k = draw(st.integers(1, max_components))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ccr = block_ccr(freqs)
    kinds = draw(st.lists(st.booleans(), min_size=k, max_size=k)) if squeezed else [False] * k
    comps = tuple(_squeezed_state(rng, ccr, freqs) if is_squeezed
                  else random_admissible_state(rng, ccr) for is_squeezed in kinds)
    weights = rng.uniform(0.5, 1.5, size=k)
    weights /= weights.sum()
    return MixtureMgf(weights=tuple(weights), components=comps), symplectic_eigenbasis(ccr)


def _random_model(rng, ccr):
    r = rng.normal(scale=0.4, size=(ccr.n, ccr.n))
    return OqhoModel(R=0.5 * (r + r.T), N=rng.normal(scale=0.6, size=(ccr.n, ccr.n)), ccr=ccr)


def _mu_inside(state, basis, frac):
    """mu at fraction frac of the scalar-weight bound's validity range."""
    _, mu_max = scalar_bound_cgf(state, basis)
    return frac * mu_max


fractions = st.floats(0.05, 0.9)


@PROPERTY_SETTINGS
@given(mixtures(), fractions)
def test_engine_matches_general_weight_route(case, frac):
    state, basis = case
    mu = _mu_inside(state, basis, frac)
    value, lam = ScalarBoundEngine(state, basis).bound(mu)
    reference = qem_upper_bound(state, basis, mu, WeightMatrix(lam * np.eye(basis.n)))
    assert abs(value.log_qem - reference.log_qem) <= 1e-10


def _scalar_objective(engine, mu):
    """ScalarBoundEngine.bound's objective f(lam) -> (f, f', f''), without
    the prefactor, and its window (lo, hi) shrunk by WINDOW_MARGIN."""
    upper = engine.basis.gamma / np.tanh(mu * engine.basis.gamma)
    lam_hi = scalar_weight_limit(engine.basis, mu)
    width = lam_hi - engine.lam_lo

    def objective(x):
        norm, slope, curvature = engine.log_norm_derivatives(x)
        inv = 1.0 / (upper - x)
        return (norm - 0.5 * float(np.log(upper - x).sum()),
                slope + 0.5 * float(inv.sum()), curvature + 0.5 * float((inv * inv).sum()))

    return objective, engine.lam_lo + WINDOW_MARGIN * width, lam_hi - WINDOW_MARGIN * width


@PROPERTY_SETTINGS
@given(mixtures(), st.floats(0.001, 0.999))
def test_newton_bound_is_the_minimum_of_the_scalar_objective(case, frac):
    # Up to 0.999 of the validity range, so draws near the window edge,
    # where the minimizer crowds the upper end, repeat.
    state, basis = case
    mu = _mu_inside(state, basis, frac)
    engine = ScalarBoundEngine(state, basis)
    value, lam = engine.bound(mu)
    objective, lo, hi = _scalar_objective(engine, mu)
    width = scalar_weight_limit(basis, mu) - engine.lam_lo
    _, golden = golden_section_minimize(lambda x: objective(x)[0], lo, hi)
    assert value.log_qem <= _log_bound_prefactor(basis, mu) + golden + 1e-12
    f, slope, curvature = objective(lam)
    at_edge = min(lam - lo, hi - lam) <= 1e-9 * width
    assert at_edge or slope * slope <= 1e-10 * max(1.0, abs(f)) * curvature


def _converged_minimizer(engine, mu, lam):
    """Newton in lam on the scalar objective from lam, clamped to its window,
    until a step no longer moves the iterate (at most 50 steps)."""
    objective, lo, hi = _scalar_objective(engine, mu)
    for _ in range(50):
        _, slope, curvature = objective(lam)
        step = min(max(lam - slope / curvature, lo), hi)
        if step == lam:
            break
        lam = step
    return lam


def _assert_lam_opt_converged(engine, mu):
    _, lam = engine.bound(mu)
    reference = _converged_minimizer(engine, mu, lam)
    assert abs(lam - reference) <= 1e-12 * abs(reference)


@PROPERTY_SETTINGS
@given(mixtures(), st.integers(1, 24))
def test_bound_grid_matches_one_window_solves(case, split):
    # A grid from 1e-3 to 1.1 times the scalar window's edge, after a
    # subnormal mu where the weight limit overflows.  Each row equals the
    # one-point bound, or is NaN exactly where that raises (empty marks the
    # empty windows); it lies between the exact value and the golden-section
    # minimum of the objective; and it does not depend on the rest of the
    # grid, so a reversed or split grid gives the same arrays.  The draws'
    # covariances exceed ||Theta|| I, so the edge is finite and the last
    # row's window is empty.
    state, basis = case
    engine = ScalarBoundEngine(state, basis)
    mus = np.concatenate([[1e-310], np.linspace(1e-3, 1.1, 24) * engine.mu_max() / CGF_SAFETY])
    values, lams, status = engine.grid(mus)
    empty = status == "empty_interval"
    assert values.shape == lams.shape == empty.shape == mus.shape
    exact = ExactEngine(state, basis).grid(mus)[0]
    with pytest.raises(NumericalOverflowDespiteLogSpace):
        engine.bound(mus[0])
    assert math.isnan(values[0]) and math.isnan(lams[0]) and not empty[0]
    for mu, value, lam, is_empty, floor in zip(mus[1:], values[1:], lams[1:], empty[1:], exact[1:]):
        try:
            reference, reference_lam = engine.bound(mu)
        except EmptyFeasibleWindow:
            assert is_empty and math.isnan(value) and math.isnan(lam)
            continue
        assert not is_empty
        assert value == pytest.approx(reference.log_qem, rel=1e-12, abs=0.0)
        assert lam == pytest.approx(reference_lam, rel=1e-12, abs=0.0)
        if math.isfinite(floor):
            assert value >= floor - 1e-12 * max(1.0, abs(floor))
        objective, lo, hi = _scalar_objective(engine, mu)
        _, golden = golden_section_minimize(lambda x: objective(x)[0], lo, hi)
        assert value <= _log_bound_prefactor(basis, mu) + golden + 1e-12
    assert empty[-1]
    reversed_grid = [a[::-1] for a in engine.grid(mus[::-1])]
    halves = zip(engine.grid(mus[:split]), engine.grid(mus[split:]))
    for again in (reversed_grid, [np.concatenate(pair) for pair in halves]):
        for result, other in zip((values, lams), again):
            np.testing.assert_allclose(other, result, rtol=1e-12, atol=0.0)
        assert np.array_equal(again[2] == "empty_interval", empty)


@PROPERTY_SETTINGS
@given(mixtures(), st.floats(0.001, 0.999))
def test_lam_opt_is_the_minimizer(case, frac):
    state, basis = case
    _assert_lam_opt_converged(ScalarBoundEngine(state, basis), _mu_inside(state, basis, frac))


@pytest.mark.parametrize("seed", [13, 190])
def test_lam_opt_is_the_minimizer_at_tiny_mu(seed):
    # One mode, two components, mu = 5.7e-8: lam_opt ~ 1/(2 mu), and the
    # envelope slope moves by about 2 per unit of lam_opt's offset, so a
    # point 1e-7 relative off the minimizer, where the value stop can leave
    # the best evaluated point, would move it by about half its value.
    rng = np.random.default_rng(seed)
    ccr = block_ccr([rng.uniform(0.5, 2.5)])
    comps = tuple(random_admissible_state(rng, ccr) for _ in range(2))
    weights = rng.uniform(0.5, 1.5, size=2)
    state = MixtureMgf(weights=tuple(weights / weights.sum()), components=comps)
    engine = ScalarBoundEngine(state, symplectic_eigenbasis(ccr))
    mu = 5.7e-8
    _assert_lam_opt_converged(engine, mu)
    # The bound's values carry round-off of about 1e-15 here, so a central
    # difference needs a wide step; the bound is smooth across it.
    h = 0.1 * mu
    _, slope = engine.cgf_and_slope(mu)
    difference = (engine.cgf_and_slope(mu + h)[0] - engine.cgf_and_slope(mu - h)[0]) / (2.0 * h)
    assert abs(slope - difference) <= 1e-5 * abs(slope)


@PROPERTY_SETTINGS
@given(mixtures(), st.floats(0.001, 0.999))
def test_log_norm_derivatives_match_central_differences(case, position):
    # The log-norm falls and is strictly convex for lam > lam_lo, so both
    # derivatives are bounded away from 0 and compare relatively.
    state, basis = case
    engine = ScalarBoundEngine(state, basis)
    lam = engine.lam_lo * (1.0 + position)
    h = 1e-4 * (lam - engine.lam_lo)
    _, slope, curvature = engine.log_norm_derivatives(lam)
    up, down = engine.log_norm_derivatives(lam + h), engine.log_norm_derivatives(lam - h)
    assert slope < 0.0 < curvature
    assert abs(slope - (up[0] - down[0]) / (2.0 * h)) <= 1e-5 * abs(slope)
    assert abs(curvature - (up[1] - down[1]) / (2.0 * h)) <= 1e-5 * curvature


@PROPERTY_SETTINGS
@given(mixtures(), fractions)
def test_bound_dominates_exact(case, frac):
    state, basis = case
    mu = _mu_inside(state, basis, frac)
    bound, _ = ScalarBoundEngine(state, basis).bound(mu)
    try:
        exact = qem_exact(state, basis, mu).log_qem
    except RiskParameterTooLarge:
        return
    assert bound.log_qem >= exact - 1e-10


@PROPERTY_SETTINGS
@given(mixtures(), st.floats(0.0, 1.5), fractions, st.integers(0, 2**32 - 1))
def test_time_bound_is_static_bound_on_propagated_state(case, t, frac, seed):
    state, basis = case
    model = _random_model(np.random.default_rng(seed), state.ccr)
    propagated = propagate_mgf(state, model, t)
    mu = _mu_inside(propagated, basis, frac)
    timed, lam = ScalarBoundEngine(propagated, basis).bound(mu)
    # The paper's transport formula at lam: the initial-state norm at
    # Pi(t, lam) and the gap term over u = theta/tanh(mu theta).  The oracle
    # pulls the weight back through e^{-tA}, which loses digits on stiff
    # horizons, so it is compared only where t ||A||_1 <= 3.
    if t * float(np.abs(dynamics_matrices(model)[0]).sum(axis=0).max()) <= 3.0:
        upper = basis.gamma / np.tanh(mu * basis.gamma)
        transported = (_log_bound_prefactor(basis, mu) + log_propagated_norm(state, model, t, lam)
                       - 0.5 * float(np.log(upper - lam).sum()))
        assert abs(timed.log_qem - transported) <= 1e-10 * max(1.0, abs(timed.log_qem))
    general = qem_upper_bound(propagated, basis, mu, WeightMatrix(lam * np.eye(basis.n)))
    assert abs(timed.log_qem - general.log_qem) <= 1e-10
    engine = ScalarBoundEngine(state, basis)
    if t == 0.0:
        at_zero, _ = engine.bound(mu)
        assert timed.log_qem == at_zero.log_qem
    # Past the window edge, where scalar_weight_limit(mu) = lam_lo, the t = 0
    # bound fails as the static bound does.  The draws' covariances exceed
    # ||Theta|| I, so lam_lo > theta_min and the edge is finite.
    theta_min = float(basis.gamma.min())
    beyond = 1.1 * math.atanh(theta_min / engine.lam_lo) / theta_min
    with pytest.raises(EmptyFeasibleWindow):
        ScalarBoundEngine(propagate_mgf(state, model, 0.0), basis).bound(beyond)
    with pytest.raises(EmptyFeasibleWindow):
        engine.bound(beyond)


@PROPERTY_SETTINGS
@given(mixtures(), st.floats(0.0, 2.0, exclude_min=True), st.integers(0, 2**32 - 1))
def test_propagated_window_lies_above_the_gramian(case, t, seed):
    # Each propagated covariance is e^{tA} C e^{tA^T} + Sigma_t with C > 0,
    # so the window's lower end exceeds lambda_max(Sigma_t) unaided.
    state, basis = case
    model = _random_model(np.random.default_rng(seed), state.ccr)
    sigma = gramian_finite(*dynamics_matrices(model), t).sigma
    engine = ScalarBoundEngine(propagate_mgf(state, model, t), basis)
    assert engine.lam_lo >= float(np.linalg.eigvalsh(sigma)[-1])


@PROPERTY_SETTINGS
@given(mixtures(), st.lists(st.floats(0.0, 2.0), min_size=1, max_size=4, unique=True),
       st.booleans(), st.integers(0, 2**32 - 1))
def test_sweep_is_its_horizons(case, ts, at_zero, seed):
    # A sweep through cli.run prints, byte for byte, its horizons run one at
    # a time; each ok row is the static bound on the state propagated to its
    # t, at its mu, within 1e-12, and the t = 0 rows are the upper_bound rows
    # of the initial state.  The mu grid reaches past the initial state's
    # scalar window, so rows past a horizon's own window read empty_interval.
    state, basis = case
    model = _random_model(np.random.default_rng(seed), state.ccr)
    ts = tuple(sorted(set(ts) | ({0.0} if at_zero else set())))
    edge = ScalarBoundEngine(state, basis).mu_max() / CGF_SAFETY
    config = ScenarioConfig(kind="oqho_sweep", ccr=state.ccr, state=state, model=model,
                            mu_grid=tuple(f * edge for f in (0.05, 0.3, 0.7, 0.95, 1.2)),
                            t_grid=ts)
    sweep, _ = run(config)
    texts = [run(replace(config, t_grid=(t,)))[0].to_csv_text() for t in ts]
    assert sweep.to_csv_text() == texts[0] + "".join(t.split("\n", 1)[1] for t in texts[1:])
    assert [(r.t, r.mu) for r in sweep.rows] == [(t, mu) for t in ts for mu in config.mu_grid]
    engines = {t: ScalarBoundEngine(propagate_mgf(state, model, t), basis) for t in ts}
    for row in sweep.rows:
        try:
            value, lam = engines[row.t].bound(row.mu)
        except EmptyFeasibleWindow:
            assert row.status == "empty_interval"
            continue
        assert row.status == "ok"
        assert abs(row.upsilon_bound - value.log_qem) <= 1e-12 * max(1.0, abs(value.log_qem))
        assert abs(row.lambda_opt - lam) <= 1e-12 * lam
    if at_zero:
        static, _ = run(replace(config, kind="upper_bound", model=None, t_grid=None))
        assert [r._replace(t=0.0) for r in static.rows] == list(sweep.rows[:len(static.rows)])


def _mean_half_quadratic(state):
    """E X^T X / 2 of the mixture, the CGF slope at mu = 0."""
    return sum(w * 0.5 * (float(np.trace(c.cov)) + float(c.mean @ c.mean))
               for w, c in zip(state.weights, state.components))


@PROPERTY_SETTINGS
@given(mixtures(), st.floats(0.0, 4.0))
def test_tail_bound_on_bound_cgf_is_nonpositive(case, eps_scale):
    state, basis = case
    cgf, mu_max = scalar_bound_cgf(state, basis)
    result = tail_bound(cgf, eps_scale * _mean_half_quadratic(state), mu_max, grid_points=8)
    assert result.log_prob_bound <= 0.0
    assert math.isfinite(result.log_prob_bound)


@PROPERTY_SETTINGS
@given(mixtures(), fractions)
def test_bound_slope_matches_central_difference(case, frac):
    # The envelope slope is the derivative of the optimized bound; the
    # difference's own error at h = 1e-6 mu is far below the tolerance.
    state, basis = case
    engine = ScalarBoundEngine(state, basis)
    mu = frac * engine.mu_max()
    h = 1e-6 * mu
    value, slope = engine.cgf_and_slope(mu)
    assert value == engine.cgf_and_slope(mu)[0]
    difference = (engine.cgf_and_slope(mu + h)[0] - engine.cgf_and_slope(mu - h)[0]) / (2.0 * h)
    assert abs(slope - difference) <= 1e-6 * abs(slope)


def _golden_tail(cgf, eps, mu_max, grid_points):
    """Value-only reference for tail_bound's log bound: the same grid, then
    golden-section search on the gain over the best point's neighbours, and
    the same edge probe and clamp."""
    def gain(mu):
        return eps * mu - cgf(mu)[0]

    grid = mu_max * np.arange(1, grid_points + 1) / (grid_points + 1)
    values = [gain(mu) for mu in grid]
    j = int(np.argmax(values))
    lo = grid[j - 1] if j > 0 else grid[0] * 1e-6
    boundary = j == grid_points - 1
    hi = mu_max * (1.0 - 1e-9) if boundary else grid[j + 1]
    x, loss = golden_section_minimize(lambda mu: -gain(mu), lo, hi)
    best = max(-loss, values[j])
    if boundary and hi - x <= 1e-6 * mu_max:
        try:
            best = max(best, gain(mu_max))
        except QemBoundError:
            pass
    return min(-best, 0.0)


@PROPERTY_SETTINGS
@given(mixtures(), st.sampled_from([exact_cgf, scalar_bound_cgf]), st.floats(0.0, 4.0))
def test_tail_bound_matches_golden_oracle(case, factory, eps_scale):
    state, basis = case
    cgf, mu_max = factory(state, basis)
    calls = []

    def counted(mu):
        calls.append(mu)
        return cgf(mu)

    eps = eps_scale * _mean_half_quadratic(state)
    result = tail_bound(counted, eps, mu_max, grid_points=8)
    assert len(calls) <= 8 + 14
    reference = _golden_tail(cgf, eps, mu_max, grid_points=8)
    assert abs(result.log_prob_bound - reference) <= 1e-9 * abs(reference) + 1e-15


@PROPERTY_SETTINGS
@given(mixtures(), st.sampled_from([exact_cgf, scalar_bound_cgf]), st.floats(0.0, 4.0),
       st.sampled_from([1, 8, 64]))
def test_tail_bound_one_grid_call_matches_point_by_point(case, factory, eps_scale, grid_points):
    # The engine answers the coarse grid's array call in one grid call; the
    # reference answers it one mu at a time.
    state, basis = case
    cgf, mu_max = factory(state, basis)

    def point_by_point(mu):
        if not np.ndim(mu):
            return cgf(mu)
        pairs = [cgf(m) for m in mu.tolist()]
        return np.array([value for value, _ in pairs]), np.array([slope for _, slope in pairs])

    eps = eps_scale * _mean_half_quadratic(state)
    grid_call = tail_bound(cgf, eps, mu_max, grid_points)
    by_point = tail_bound(point_by_point, eps, mu_max, grid_points)
    assert grid_call.log_prob_bound == pytest.approx(by_point.log_prob_bound, rel=1e-12, abs=0.0)
    assert grid_call.argmax_mu == by_point.argmax_mu


@PROPERTY_SETTINGS
@given(mixtures(squeezed=True), st.sampled_from([exact_cgf, scalar_bound_cgf]),
       st.floats(0.0, 4.0), st.sampled_from([1, 8, 64]))
def test_tail_bound_matches_brent_oracle(case, factory, eps_scale, grid_points):
    # The cubic search and Brent's root of the slope refine the same
    # half-bracket [a, b], and every one-point call but the edge probe at
    # mu_max lies in it.  The cubic search stops on a Newton decrement
    # relative to max(1, |gain|), so the tolerance is relative to that.
    state, basis = case
    cgf, mu_max = factory(state, basis)
    points = []

    def counted(mu):
        if not np.ndim(mu):
            points.append(mu)
        return cgf(mu)

    eps = eps_scale * _mean_half_quadratic(state)
    result = tail_bound(counted, eps, mu_max, grid_points)
    reference, (a, b) = brent_tail(cgf, eps, mu_max, grid_points)
    assert result.log_prob_bound <= 0.0
    assert (abs(result.log_prob_bound - reference.log_prob_bound)
            <= 1e-12 * max(1.0, abs(reference.log_prob_bound)))
    assert all(a <= mu <= b for mu in points if mu != mu_max)


def _dense_exact(state, basis, mu):
    """Closed form from dense matrix functions, independent of ExactEngine:
    ln sum_k w_k exp((mu M^T K (I - mu C K)^-1 M
                      - ln det(cos(mu Theta) - mu C sinc(mu Theta))) / 2)."""
    cos = matrix_function(basis, "cos", mu)
    sinc = matrix_function(basis, "sinc", mu)
    k_mat = matrix_function(basis, "tanc", mu)
    eye = np.eye(basis.n)
    logs = []
    for weight, comp in zip(state.weights, state.components):
        sign, logdet = np.linalg.slogdet(cos - mu * comp.cov @ sinc)
        assert sign > 0.0
        quad = mu * comp.mean @ k_mat @ np.linalg.solve(eye - mu * comp.cov @ k_mat, comp.mean)
        logs.append(math.log(weight) + 0.5 * (quad - logdet))
    top = max(logs)
    return top + math.log(sum(math.exp(x - top) for x in logs))


def _exact_mu(engine, frac):
    """mu at fraction frac of min(0.9 mu*, the exact CGF's validity limit)."""
    return frac * min(0.9 * engine.mu_star, engine.mu_max())


@PROPERTY_SETTINGS
@given(mixtures(), fractions)
def test_exact_engine_matches_dense_closed_form(case, frac):
    state, basis = case
    engine = ExactEngine(state, basis)
    mu = _exact_mu(engine, frac)
    reference = _dense_exact(state, basis, mu)
    assert abs(engine.cgf_and_slope(mu)[0] - reference) <= 1e-10 * max(1.0, abs(reference))


@PROPERTY_SETTINGS
@given(mixtures())
def test_exact_slope_is_positive_and_nondecreasing(case):
    state, basis = case
    engine = ExactEngine(state, basis)
    slopes = [engine.cgf_and_slope(_exact_mu(engine, frac))[1]
              for frac in np.linspace(0.02, 1.0, 12)]
    assert slopes[0] > 0.0
    for lower, upper in zip(slopes, slopes[1:]):
        assert upper >= lower * (1.0 - 1e-12)


@PROPERTY_SETTINGS
@given(mixtures(), fractions)
def test_exact_slope_matches_central_difference(case, frac):
    state, basis = case
    engine = ExactEngine(state, basis)
    mu = _exact_mu(engine, frac)
    h = 1e-7 * mu
    difference = (engine.cgf_and_slope(mu + h)[0] - engine.cgf_and_slope(mu - h)[0]) / (2.0 * h)
    _, slope = engine.cgf_and_slope(mu)
    assert abs(slope - difference) <= 1e-5 * abs(slope)


@PROPERTY_SETTINGS
@given(mixtures())
def test_feasibility_flips_at_critical_mu(case):
    state, basis = case
    engine = ExactEngine(state, basis)
    mu_star = engine.mu_star
    assert math.isfinite(mu_star)
    assert engine.top([mu_star * (1.0 - 1e-8)])[0] < 1.0
    assert engine.top([mu_star * (1.0 + 1e-8)])[0] >= 1.0


@PROPERTY_SETTINGS
@given(mixtures(), st.integers(1, GRID_CHUNK - 1))
def test_grid_matches_scalar_evaluations(case, chunk):
    # A grid longer than one chunk that crosses mu*: every point equals the
    # one-point evaluation, is NaN exactly where that raises, and does not
    # depend on where the chunks split.
    state, basis = case
    engine = ExactEngine(state, basis)
    mus = np.linspace(0.01, 1.5, GRID_CHUNK + 9) * engine.mu_star
    values, slopes, status = engine.grid(mus, slope=True)
    feasible = status == "ok"
    top = engine.top(mus)
    assert values.shape == slopes.shape == top.shape == feasible.shape == mus.shape
    assert np.any(top >= 1.0) and np.any(top < 1.0)
    for mu, value, slope, t in zip(mus, values, slopes, top):
        assert math.isnan(value) == math.isnan(slope) == (t >= 1.0)
        try:
            reference = engine.cgf_and_slope(mu)
        except RiskParameterTooLarge:
            assert math.isnan(value)
            continue
        assert value == pytest.approx(reference[0], rel=1e-12, abs=0.0)
        assert slope == pytest.approx(reference[1], rel=1e-12, abs=0.0)
    with mock.patch("qembound.qem.GRID_CHUNK", chunk):
        rechunked = engine.grid(mus, slope=True)
    for result, again in zip((values, slopes), rechunked):
        np.testing.assert_allclose(again, result, rtol=1e-12, atol=0.0)
    assert np.array_equal(rechunked[2] == "ok", feasible)
    assert engine.grid(mus)[1] is None


@PROPERTY_SETTINGS
@given(mixtures())
def test_exact_and_mc_rows_share_one_verdict(case):
    # Both kinds read feasibility from one ExactEngine.grid call: the same
    # rows are infeasible_mu or numerical_error, and the Monte-Carlo rows
    # read infinite_variance exactly where 1/2 <= top < 1.
    state, basis = case
    engine = ExactEngine(state, basis)
    mus = np.linspace(0.02, 1.5, 40) * engine.mu_star
    top = engine.top(mus)

    def statuses(kind):
        config = ScenarioConfig(kind=kind, ccr=basis.ccr, state=state,
                                mu_grid=tuple(mus.tolist()), samples=2, seed=1)
        return [row.status for row in run(config)[0].rows]

    exact, mc = statuses("gaussian_exact"), statuses("randomized_mc")
    flags = ("infeasible_mu", "numerical_error")
    assert any(status in flags for status in exact)
    assert [s if s in flags else None for s in mc] == [s if s in flags else None for s in exact]
    assert [s == "infinite_variance" for s in mc] == ((top >= 0.5) & (top < 1.0)).tolist()


@st.composite
def pure_mode_mixtures(draw):
    """mixtures() with one mode made pure in every component: its 2 x 2
    block of the covariance becomes freq * I and its other entries 0."""
    state, basis = draw(mixtures())
    theta = basis.ccr.theta
    block = slice(2 * (k := draw(st.integers(0, basis.n_modes - 1))), 2 * k + 2)
    components = []
    for comp in state.components:
        cov = comp.cov.copy()
        cov[block, :] = cov[:, block] = 0.0
        cov[block, block] = theta[2 * k, 2 * k + 1] * np.eye(2)
        components.append(GaussianState(mean=comp.mean, cov=cov, ccr=basis.ccr))
    return MixtureMgf(weights=state.weights, components=tuple(components)), basis


mixtures_with_pure_modes = st.one_of(mixtures(), pure_mode_mixtures())


@PROPERTY_SETTINGS
@given(st.one_of(mixtures(squeezed=True), pure_mode_mixtures()),
       st.lists(st.one_of(st.floats(0.01, 0.98), st.floats(1.02, 1.5)), max_size=8))
def test_grid_matches_eigh_oracle(case, fractions):
    # The batched elimination against the eigh route it replaced (conftest),
    # at subnormal and tiny mu and on a grid across mu* (or the span, where
    # mu* is not resolved below it), squeezed components and pure modes
    # included.  Its feasibility mask is the eigh route's top < 1, except
    # at rows within 1e-12 relative of mu*, which are counted.  The eigh
    # route knows no span; from the span on top reads inf and no row is
    # feasible.
    state, basis = case
    engine = ExactEngine(state, basis)
    span = saturation_mu(basis)
    scale = engine.mu_star if math.isfinite(engine.mu_star) else span
    mus = np.concatenate([[5e-324, 1e-300], np.array(fractions + [0.5, 1.25]) * scale])
    values, slopes, status = engine.grid(mus, slope=True)
    feasible = status == "ok"
    ref_values, ref_slopes, ref_top = eigh_exact_chunk(engine, mus, True)
    top, below = engine.top(mus), mus < span
    assert np.all(top[~below] == math.inf) and not feasible[~below].any()
    assert np.all(np.abs(top[below] - ref_top[below]) <= 16 * np.spacing(ref_top[below]))
    assert np.array_equal(np.isnan(values), ~feasible)
    assert np.array_equal(np.isnan(slopes), ~feasible)
    near = np.abs(mus / engine.mu_star - 1.0) <= 1e-12
    event(f"rows within 1e-12 of mu*: {int(near.sum())}")
    assert np.array_equal(feasible[below & ~near], ref_top[below & ~near] < 1.0)
    both = feasible & (ref_top < 1.0)
    np.testing.assert_allclose(values[both], ref_values[both], rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(slopes[both], ref_slopes[both], rtol=1e-12, atol=0.0)


def _statuses_reading_mu_star_first(kind, state, basis, mus):
    """Statuses of an exact-engine kind from the rule with mu* read first:
    ok where the row is feasible (from grid's pivots, or top < 1 from
    ExactEngine.top for Monte-Carlo rows) and below the span and (for tail)
    mu_max, else infeasible_mu for a mu* below the span and numerical_error
    otherwise; Monte-Carlo rows read infinite_variance where an ok row has
    top >= 1/2."""
    engine = ExactEngine(state, basis)
    span = saturation_mu(basis)
    flag = "infeasible_mu" if engine.mu_star < span else "numerical_error"
    limit = min(engine.mu_max(), span) if kind == "tail" else span
    top = engine.top(mus)
    feasible = top < 1.0 if kind == "randomized_mc" else engine.grid(mus)[2] == "ok"
    statuses = ["ok" if f and mu < limit else flag for mu, f in zip(mus, feasible)]
    if kind == "randomized_mc":
        statuses = ["infinite_variance" if s == "ok" and x >= 0.5 else s
                    for s, x in zip(statuses, top)]
    return statuses


@PROPERTY_SETTINGS
@given(mixtures(), st.lists(st.floats(0.01, 1.5), min_size=1, max_size=12),
       st.sampled_from([[], [0.9995]]))
def test_statuses_match_the_rule_read_from_mu_star(case, fractions, between):
    # cli reads mu* only where a row's own top cannot decide its status;
    # every kind still gives the statuses of the rule that reads mu* first,
    # also with a row between the tail's cut CGF_SAFETY mu* and mu*.
    state, basis = case
    mus = np.unique(np.array(fractions + between) * ExactEngine(state, basis).mu_star)
    for kind in ("gaussian_exact", "tail", "randomized_mc"):
        config = ScenarioConfig(kind=kind, ccr=basis.ccr, state=state,
                                mu_grid=tuple(mus.tolist()), samples=16, seed=1)
        statuses = [row.status for row in run(config)[0].rows]
        assert statuses == _statuses_reading_mu_star_first(kind, state, basis, mus)


@PROPERTY_SETTINGS
@given(mixtures_with_pure_modes)
def test_mu_star_matches_bisection_oracle(case):
    # mu_star closes its bracket [atanh(1/r)/theta_max, atanh(1/r)/theta_min]
    # (r the top eigenvalue of the limit matrix D C~ D, D = diag(theta)^-1/2,
    # here read directly, not in gap form) by Brent on the engine's top,
    # clipped below the span; bisection on the same top and bracket is the
    # reference.  No top is read from the span on.
    state, basis = case
    engine = ExactEngine(state, basis)
    d = 1.0 / np.sqrt(engine.theta)
    r = float(np.linalg.eigvalsh(d[:, None] * engine.covs * d).max())
    reach = math.atanh(1.0 / r) if r > 1.0 else math.inf
    lo, hi = reach / engine.theta.max(), reach / engine.theta.min()
    span = saturation_mu(basis)
    reads = []
    bare_top = ExactEngine.top

    def spy(self, mus):
        reads.extend(np.asarray(mus, dtype=float).tolist())
        return bare_top(self, mus)

    with mock.patch.object(ExactEngine, "top", spy):
        mu_star = engine.mu_star
    assert len(reads) <= 15 and all(mu < span for mu in reads)
    end = min(hi, math.nextafter(span, 0.0))

    def top(mu):
        return engine.top([mu])[0]

    if not math.isfinite(mu_star):
        # The bracket starts at or past the span, or its end is clipped below
        # the span, where top still reads below 1.
        assert lo * (1.0 + 1e-12) >= span or (hi * (1.0 + 1e-12) >= span and top(end) < 1.0)
        return
    assert lo * (1.0 - 1e-12) <= mu_star <= hi * (1.0 + 1e-12)
    reference = bisect_nondecreasing(top, 1.0, lo, end)
    assert abs(mu_star - reference) <= 2.0 * SEARCH_RTOL * reference


@PROPERTY_SETTINGS
@given(mixtures_with_pure_modes, st.lists(st.floats(0.01, 1.5), min_size=1, max_size=8),
       st.lists(st.floats(0.5, 2.0), min_size=1, max_size=8))
def test_library_refuses_exactly_the_rows_the_cli_flags(case, fractions, past_span):
    # A grid to 1.5 min(mu*, span) and from 0.5 to 2 times the span: every
    # gaussian_exact row is ok exactly where qem_exact returns, with its
    # value bit for bit, and qem_exact raises RiskParameterTooLarge at every
    # other row's mu.
    state, basis = case
    span = saturation_mu(basis)
    scale = min(ExactEngine(state, basis).mu_star, span)
    mus = np.unique(np.concatenate([np.array(fractions) * scale, np.array(past_span) * span]))
    config = ScenarioConfig(kind="gaussian_exact", ccr=basis.ccr, state=state,
                            mu_grid=tuple(mus.tolist()))
    for row in run(config)[0].rows:
        if row.status == "ok":
            assert qem_exact(state, basis, row.mu).log_qem == row.upsilon_exact
        else:
            with pytest.raises(RiskParameterTooLarge):
                qem_exact(state, basis, row.mu)


# A lone Gaussian, or a mixture of one to four components.
gaussians_or_mixtures = st.one_of(
    mixtures(max_components=1).map(lambda case: (case[0].components[0], case[1])),
    mixtures(max_components=4))


@PROPERTY_SETTINGS
@given(gaussians_or_mixtures, fractions, st.sampled_from([100, BLOCK_SIZE + 1]),
       st.integers(0, 2**64 - 1))
def test_randomized_mc_matches_per_sample_oracle(case, frac, samples, seed):
    # The components are mapped through a = sqrt(mu) L once per mu; the
    # oracle maps every draw.  Same draws, so only rounding may differ.
    # (A handful of samples is left out: two nearly equal summands make
    # rel_std_error small and its relative rounding error large.)
    state, basis = case
    engine = ExactEngine(state, basis)
    mu_var = bisect_nondecreasing(lambda mu: engine.top([mu])[0], 0.5, 0.0, engine.mu_star)
    mu = frac * mu_var
    value = qem_randomized_mc(state, basis, mu, samples, seed)
    log_qem, rel_se = per_sample_randomized_mc(state, basis, mu, samples, seed)
    assert abs(value.log_qem - log_qem) <= 1e-12
    assert abs(value.rel_std_error - rel_se) <= 1e-12 * rel_se


@PROPERTY_SETTINGS
@given(st.lists(st.floats(0.05, 20.0), min_size=1, max_size=5, unique=True))
def test_closed_form_basis_is_the_eigh_basis_on_distinct_frequencies(freqs):
    # On distinct frequencies the eigensolver's basis is unique up to the
    # phase its route fixes, and the closed form gives it value for value
    # (eigh writes -0.0 where the closed form writes 0.0).
    ccr = validate_ccr(_diag_kron_j2(freqs))
    basis, reference = symplectic_eigenbasis(ccr), _eigh_basis(ccr)
    np.testing.assert_array_equal(basis.gamma, reference.gamma)
    np.testing.assert_array_equal(basis.H, reference.H)


@PROPERTY_SETTINGS
@given(st.lists(st.floats(0.05, 20.0), min_size=1, max_size=3, unique=True),
       st.lists(st.integers(0, 2), min_size=1, max_size=5), st.floats(1e-3, 30.0))
def test_closed_form_basis_on_repeated_frequencies(values, picks, mu):
    # Inside a degenerate eigenspace the eigensolver may pick another
    # basis; the frequencies and every symmetric function agree.
    freqs = [values[i % len(values)] for i in picks + picks[:1]]
    ccr = validate_ccr(_diag_kron_j2(freqs))
    basis, reference = symplectic_eigenbasis(ccr), _eigh_basis(ccr)
    np.testing.assert_array_equal(basis.gamma, reference.gamma)
    _verify_basis(ccr.theta, reference, float(np.abs(ccr.theta).max()))
    aux, aux_reference = aux_covariance(basis, mu), aux_covariance(reference, mu)
    assert np.abs(aux - aux_reference).max() <= 1e-15 * np.abs(aux_reference).max()
