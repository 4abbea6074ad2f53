"""Acceptance suite: one test per criterion, each at its stated tolerance
and runtime budget, printing one line per criterion (run with -s to see
them live)."""

import json
import math
import time

import numpy as np

from conftest import random_admissible_state, random_ccr, simple_mixture, thermal_state
from qembound import (
    ClassicalGaussian,
    GaussianState,
    J2,
    MixtureMgf,
    OqhoModel,
    classical_gaussian_qem,
    critical_mu,
    dynamics_matrices,
    empirical_tail,
    exact_cgf,
    gramian_finite,
    gramian_infinite,
    log_propagated_norm,
    log_scalar_norm,
    propagate_mgf,
    qem_bound_time,
    qem_exact,
    qem_randomized_mc,
    qem_upper_bound_scalar_opt,
    randomized_identity_check,
    scalar_bound_cgf,
    symplectic_eigenbasis,
    tail_bound,
    validate_ccr,
)
from qembound.cli import BoundReport, main
from qembound.ccr import mode_matrix
from qembound.errors import EmptyFeasibleWindow

CCR2 = validate_ccr(J2)
BASIS2 = symplectic_eigenbasis(CCR2)


def _report(number, name, started):
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE {number} {name}: PASS ({elapsed:.2f}s)")
    return elapsed


def test_criterion_01_vacuum_golden_value():
    started = time.perf_counter()
    vacuum = GaussianState(mean=[0.0, 0.0], cov=np.eye(2), ccr=CCR2)
    for i in range(1, 21):
        mu = 0.1 * i
        value = qem_exact(vacuum, BASIS2, mu)
        assert abs(value.log_qem - mu) <= 1e-12
    elapsed = _report(1, "vacuum golden value", started)
    assert elapsed < 1.0


def _mu_with_radius(state, basis, target):
    """mu at which mu * rho(C K(mu)) equals target (< 1)."""
    gamma = basis.gamma
    cov = state.cov

    def radius(mu):
        s = mode_matrix(basis, np.sqrt(np.tanh(mu * gamma) / gamma))
        return float(np.linalg.eigvalsh(s @ cov @ s)[-1])

    lo, hi = 1e-6, 1e-6
    while radius(hi) < target and hi < 1e6:
        lo, hi = hi, hi * 2.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if radius(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_criterion_02_randomized_matches_exact():
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    hits = 0
    for case in range(20):
        n_modes = 1 if case % 2 == 0 else 2
        ccr, _ = random_ccr(rng, n_modes)
        basis = symplectic_eigenbasis(ccr)
        if case % 3 == 0:
            state = random_admissible_state(rng, ccr, mean_scale=0.4)
        else:
            occ = rng.uniform(0.2, 1.2, size=n_modes)
            state = thermal_state(basis, ccr, occ, mean=rng.normal(scale=0.3, size=ccr.n))
        # keep the sampler in the finite-variance regime while staying
        # well below the criterion's 0.9 * mu_star ceiling
        mu = _mu_with_radius(state, basis, 0.45)
        assert mu < 0.9 * critical_mu(state, basis)
        exact = qem_exact(state, basis, mu).log_qem
        est = qem_randomized_mc(state, basis, mu, 100000, seed=1000 + case)
        if abs(est.log_qem - exact) <= 3.0 * est.rel_std_error:
            hits += 1
    assert hits >= 19
    elapsed = _report(2, f"randomized representation ({hits}/20 within 3 SE)", started)
    assert elapsed < 30.0


def test_criterion_03_bound_dominates_exact():
    started = time.perf_counter()
    rng = np.random.default_rng(303)
    for case in range(10):
        n_modes = 1 if case % 2 == 0 else 2
        ccr, _ = random_ccr(rng, n_modes)
        basis = symplectic_eigenbasis(ccr)
        occ = rng.uniform(0.1, 0.9, size=n_modes)
        state = thermal_state(basis, ccr, occ, mean=rng.normal(scale=0.4, size=ccr.n))
        _, mu_exact = exact_cgf(state, basis)
        _, mu_bound = scalar_bound_cgf(state, basis)
        top = 0.9 * min(mu_exact, mu_bound)
        for mu in np.linspace(0.05 * top, top, 10):
            exact = qem_exact(state, basis, mu).log_qem
            bound, _ = qem_upper_bound_scalar_opt(state, basis, mu)
            assert bound.log_qem >= exact - 1e-12
    elapsed = _report(3, "weighted-norm bound dominates exact", started)
    assert elapsed < 10.0


def test_criterion_04_classical_limit_convergence():
    started = time.perf_counter()
    mean = [1.0, -0.5]
    cov = np.diag([0.8, 0.5])
    mu = 0.5
    classical = classical_gaussian_qem(ClassicalGaussian(mean=mean, cov=cov), mu)
    gaps = []
    for eta in (1e-1, 1e-2, 1e-3):
        ccr = validate_ccr(eta * J2)
        basis = symplectic_eigenbasis(ccr)
        state = GaussianState(mean=mean, cov=cov, ccr=ccr)
        gaps.append(abs(qem_exact(state, basis, mu).log_qem - classical))
    r1, r2 = gaps[0] / gaps[1], gaps[1] / gaps[2]
    assert 80.0 <= r1 <= 120.0
    assert 80.0 <= r2 <= 120.0
    elapsed = _report(4, f"classical limit (gap ratios {r1:.1f}, {r2:.1f})", started)
    assert elapsed < 1.0


def test_criterion_05_gramian_golden_values():
    started = time.perf_counter()
    model = OqhoModel(R=np.zeros((2, 2)), N=np.eye(2), ccr=CCR2)
    a, b = dynamics_matrices(model)
    np.testing.assert_allclose(a, -2.0 * np.eye(2), atol=1e-14)
    np.testing.assert_allclose(b, 2.0 * J2, atol=1e-14)

    finite = gramian_finite(a, b, 0.5)
    assert np.abs(finite.sigma - (1.0 - math.exp(-2.0)) * np.eye(2)).max() <= 1e-10

    infinite = gramian_infinite(a, b)
    np.testing.assert_allclose(infinite.sigma, np.eye(2), atol=1e-10)
    residual = a @ infinite.sigma + infinite.sigma @ a.T + b @ b.T
    assert np.linalg.norm(residual) < 1e-9

    grid = np.linspace(0.0, 2.5, 10)
    sigmas = [gramian_finite(a, b, t).sigma for t in grid]
    for s_small, s_big in zip(sigmas, sigmas[1:]):
        assert np.linalg.eigvalsh(s_big - s_small)[0] >= -1e-10
    elapsed = _report(5, "Gramian golden values and monotonicity", started)
    assert elapsed < 1.0


def test_criterion_06_norm_transport_identity():
    started = time.perf_counter()
    rng = np.random.default_rng(606)
    for case in range(20):
        n_modes = 1 if case % 2 == 0 else 2
        ccr, _ = random_ccr(rng, n_modes)
        r = rng.normal(scale=0.3, size=(ccr.n, ccr.n))
        # keep ||tA|| moderate so the two closed forms stay comparable at
        # 1e-8; ill-conditioned exponentials degrade both routes alike
        model = OqhoModel(R=0.5 * (r + r.T), N=rng.normal(scale=0.45, size=(ccr.n, ccr.n)), ccr=ccr)
        mix = MixtureMgf(
            weights=(0.6, 0.4),
            components=(
                random_admissible_state(rng, ccr),
                random_admissible_state(rng, ccr),
            ),
        )
        t = rng.uniform(0.1, 0.8)
        propagated = propagate_mgf(mix, model, t)
        lam = 1.3 * max(
            float(np.linalg.eigvalsh(c.cov)[-1]) for c in propagated.components
        ) + 0.2
        lhs = log_propagated_norm(mix, model, t, lam)
        rhs = log_scalar_norm(propagated, lam)
        assert abs(lhs - rhs) <= 1e-8
    elapsed = _report(6, "norm transport identity (20 triples)", started)
    assert elapsed < 5.0


def test_criterion_07_time_dependent_bound_pipeline():
    started = time.perf_counter()
    model = OqhoModel(R=np.zeros((2, 2)), N=np.eye(2), ccr=CCR2)
    mix = simple_mixture(
        CCR2,
        means=[[0.0, 0.0], [1.0, 0.0], [-0.5, 0.5]],
        covs=[np.eye(2), 1.5 * np.eye(2), 3.0 * np.eye(2)],
        weights=(0.5, 0.3, 0.2),
    )
    mu_grid = [0.1, 0.2, 0.3, 0.4, 0.5]
    t_grid = [0.0, 0.25, 0.5, 1.0, 2.0]

    checked = 0
    infeasible = []
    for ti, t in enumerate(t_grid):
        for mi, mu in enumerate(mu_grid):
            # feasibility has a closed form here: the weight window is
            # (lambda_max(C_t), 1/tanh(mu)) with C_t = 1 + 2 exp(-4t)
            lam_lo = 1.0 + 2.0 * math.exp(-4.0 * t)
            feasible = 1.0 / math.tanh(mu) > lam_lo
            try:
                bound, _ = qem_bound_time(mix, model, mu, t, basis=BASIS2)
            except EmptyFeasibleWindow:
                assert not feasible
                infeasible.append((t, mu))
                continue
            assert feasible
            propagated = propagate_mgf(mix, model, t)
            est = qem_randomized_mc(
                propagated, BASIS2, mu, 100000, seed=7000 + 10 * ti + mi
            )
            assert bound.log_qem >= est.log_qem - 3.0 * est.rel_std_error
            checked += 1
    assert infeasible == [(0.0, 0.4), (0.0, 0.5)]
    assert checked == 23
    elapsed = _report(
        7, f"time-dependent pipeline ({checked} cells, {len(infeasible)} flagged)", started
    )
    assert elapsed < 60.0


def test_criterion_08_randomized_identity_classical():
    started = time.perf_counter()
    rng = np.random.default_rng(808)
    for case in range(10):
        mean = rng.normal(scale=0.7, size=2)
        root = rng.normal(size=(2, 2))
        cov = root @ root.T / 2.0 + 0.2 * np.eye(2)
        g = ClassicalGaussian(mean=mean, cov=cov)
        mu = rng.uniform(0.3, 0.7) / float(np.linalg.eigvalsh(cov)[-1])
        check = randomized_identity_check(g, mu, 100000, seed=8000 + case)
        assert check.passed, (
            f"case {case}: |{check.log_lhs:.6f} - {check.log_rhs:.6f}|"
            f" > 3 * {check.combined_se:.2g}"
        )
    elapsed = _report(8, "randomized moment identity (10/10)", started)
    assert elapsed < 20.0


def test_criterion_09_chernoff_validity():
    started = time.perf_counter()
    g = ClassicalGaussian(mean=[0.0], cov=[[1.0]])

    def cgf(mu):
        return classical_gaussian_qem(g, mu)

    for eps in (0.5, 1.0, 2.0, 4.0):
        bound = tail_bound(cgf, eps, mu_max=0.999)
        p_hat, _ = empirical_tail(g, eps, 1000000, seed=909)
        assert p_hat <= math.exp(bound.log_prob_bound)

    bound_two = tail_bound(cgf, 2.0, mu_max=0.999)
    assert abs(math.exp(bound_two.log_prob_bound) - math.exp(-0.806853)) <= 1e-4
    elapsed = _report(9, "Chernoff validity and golden bound", started)
    assert elapsed < 10.0


def test_criterion_10_thread_count_determinism(tmp_path):
    started = time.perf_counter()
    config_path = tmp_path / "scenario.json"
    config_path.write_text(
        json.dumps(
            {
                "kind": "randomized_mc",
                "ccr": [1.0],
                "state": {"mean": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]},
                "mu_grid": [0.2, 0.5, 1.0],
                "samples": 20000,
                "seed": 12345,
            }
        )
    )
    out_first = tmp_path / "first.csv"
    out_second = tmp_path / "second.csv"
    # Sweeps run sequentially, so determinism is two runs giving one byte
    # string.  mu = 1.0 is past the vacuum's mu_var = artanh(1/2): that row
    # reads infinite_variance, so the exit code is 2.
    assert main(["run", str(config_path), "--output", str(out_first)]) == 2
    assert main(["run", str(config_path), "--output", str(out_second)]) == 2
    assert out_first.read_bytes() == out_second.read_bytes()
    rows = BoundReport.read_csv(str(out_first)).rows
    assert [r.status for r in rows] == ["ok", "ok", "infinite_variance"]
    _report(10, "byte-identical reports across two runs", started)
