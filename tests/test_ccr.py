"""Tests for CCR validation, eigenstructure, and matrix functions."""

import json
import math
import warnings

import numpy as np
import pytest
import scipy.linalg

from conftest import block_ccr, random_ccr, random_orthogonal
from qembound import (
    J2,
    aux_covariance,
    log_det_cos,
    matrix_function,
    symplectic_eigenbasis,
    validate_ccr,
)
from qembound import ccr as ccr_module
from qembound.ccr import _diag_kron_j2, _eigh_basis, lnsinh
from qembound.cli import parse_config
from qembound.errors import (
    DimensionMismatch,
    EigenSolverFailure,
    NotAntisymmetric,
    OddDimension,
    SingularCcr,
    UnsupportedFunction,
)


@pytest.mark.parametrize("values", [[1.0], [0.5, 2.0, 3.0], np.ones(4), [-1.5, 0.0, 2.0]],
                         ids=["one", "frequencies", "identity", "signed-and-zero"])
def test_diag_kron_j2_is_np_kron_bit_for_bit(values):
    # Bytes, not values: np.kron writes 0 * J2 off the diagonal blocks,
    # with a -0.0 that an equality test would not see.
    assert _diag_kron_j2(values).tobytes() == np.kron(np.diag(values), J2).tobytes()


class TestValidateCcr:
    def test_canonical_block(self):
        ccr = validate_ccr(J2)
        assert ccr.n == 2
        assert ccr.n_modes == 1
        np.testing.assert_allclose(ccr.theta, J2)

    def test_block_diagonal(self):
        ccr = block_ccr([1.0, 3.0])
        assert ccr.n == 4
        assert ccr.n_modes == 2

    def test_odd_dimension_rejected(self):
        theta = np.zeros((3, 3))
        theta[0, 1], theta[1, 0] = 1.0, -1.0
        with pytest.raises(OddDimension):
            validate_ccr(theta)

    def test_non_square_rejected(self):
        with pytest.raises(DimensionMismatch):
            validate_ccr(np.zeros((2, 4)))

    def test_not_antisymmetric(self):
        theta = np.array([[0.0, 1.0], [-1.0 + 1e-6, 0.0]])
        with pytest.raises(NotAntisymmetric):
            validate_ccr(theta)

    def test_small_violation_symmetrized(self):
        theta = np.array([[0.0, 1.0], [-1.0 + 1e-14, 0.0]])
        ccr = validate_ccr(theta)
        np.testing.assert_array_equal(ccr.theta, -ccr.theta.T)

    @pytest.mark.parametrize("raw", [[1.7e308], [[0.0, 1.7e308], [-1.7e308, 0.0]]],
                             ids=["frequency-list", "matrix-literal"])
    def test_huge_frequency_canonicalised_without_overflow(self, raw):
        # 0.5 * (theta - theta^T) overflowed to +-inf for entries above half
        # the double range; 0.5 theta - 0.5 theta^T keeps every entry's bits,
        # and so does 0.5 C + 0.5 C^T for a covariance there.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            config = parse_config(json.dumps({
                "kind": "gaussian_exact", "ccr": raw, "mu_grid": [0.1],
                "state": {"mean": [0, 0], "cov": [[1.75e308, 0], [0, 1.75e308]]}}))
            basis = symplectic_eigenbasis(config.ccr)
            chol, _ = ccr_module._cholesky(config.state.cov, ValueError, "not positive definite")
        assert config.ccr.theta.tolist() == [[0.0, 1.7e308], [-1.7e308, 0.0]]
        assert config.state.cov.tolist() == [[1.75e308, 0.0], [0.0, 1.75e308]]
        assert basis.gamma.tolist() == [1.7e308]
        assert chol.tolist() == [[math.sqrt(1.75e308), 0.0], [0.0, math.sqrt(1.75e308)]]

    def test_singular_rejected(self):
        theta = scipy.linalg.block_diag(J2, np.zeros((2, 2)))
        theta[2, 3], theta[3, 2] = 1e-14, -1e-14
        with pytest.raises(SingularCcr):
            validate_ccr(theta)


def _degenerate_ccr():
    """Frequencies [1, 1, 2] in a rotated basis: a two-dimensional eigenspace
    whose basis the eigensolver may choose freely."""
    q = random_orthogonal(np.random.default_rng(29), 6)
    return validate_ccr(q @ np.kron(np.diag([1.0, 1.0, 2.0]), J2) @ q.T)


class TestSymplecticEigenbasis:
    def test_canonical(self):
        basis = symplectic_eigenbasis(validate_ccr(J2))
        np.testing.assert_allclose(basis.gamma, [1.0])
        np.testing.assert_allclose(basis.H, np.eye(2) / math.sqrt(2), atol=1e-14)

    def test_block_spectrum_sorted(self):
        basis = symplectic_eigenbasis(block_ccr([2.0, 0.5]))
        np.testing.assert_allclose(basis.gamma, [2.0, 0.5])

    @pytest.mark.parametrize("n_modes", [2, 3])
    def test_round_trip_spectrum(self, n_modes):
        rng = np.random.default_rng(101 + n_modes)
        ccr, freqs = random_ccr(rng, n_modes)
        basis = symplectic_eigenbasis(ccr)
        np.testing.assert_allclose(basis.gamma, freqs, atol=1e-10)

    @pytest.mark.parametrize("case", [0, 1, 2, "degenerate"])
    def test_defining_relations(self, case):
        if case == "degenerate":
            ccr = _degenerate_ccr()
        else:
            ccr, _ = random_ccr(np.random.default_rng(case), 2)
        basis = symplectic_eigenbasis(ccr)
        h, gamma = basis.H, basis.gamma
        np.testing.assert_allclose(h.T @ h, 0.5 * np.eye(ccr.n), atol=1e-10)
        core = np.kron(np.diag(gamma), J2)
        np.testing.assert_allclose(ccr.theta @ h, h @ core, atol=1e-10)
        np.testing.assert_allclose(basis.reconstruct(), ccr.theta, atol=1e-9)

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        ccr, _ = random_ccr(rng, 3)
        b1 = symplectic_eigenbasis(ccr)
        b2 = symplectic_eigenbasis(validate_ccr(ccr.theta.copy()))
        np.testing.assert_array_equal(b1.H, b2.H)
        np.testing.assert_array_equal(b1.gamma, b2.gamma)

    def test_sign_convention(self):
        rng = np.random.default_rng(13)
        for ccr in [random_ccr(rng, 2)[0] for _ in range(5)] + [_degenerate_ccr()]:
            basis = symplectic_eigenbasis(ccr)
            for k in range(basis.n_modes):
                u = basis.H[:, 2 * k]
                nz = np.flatnonzero(np.abs(u) > 1e-12 * np.abs(u).max())
                assert u[nz[0]] > 0.0


class TestClosedFormBasis:
    """A block-diagonal Theta with positive frequencies gets its basis in
    closed form, any other Theta from the eigensolver; both are verified."""

    @staticmethod
    def _spy(monkeypatch, refuse_eigh):
        calls = {"eigh": 0, "verify": 0}
        eigh, verify = np.linalg.eigh, ccr_module._verify_basis

        def counted_eigh(*args, **kwargs):
            if refuse_eigh:
                raise AssertionError("symplectic_eigenbasis called np.linalg.eigh")
            calls["eigh"] += 1
            return eigh(*args, **kwargs)

        def counted_verify(*args, **kwargs):
            calls["verify"] += 1
            return verify(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
        monkeypatch.setattr(ccr_module, "_verify_basis", counted_verify)
        return calls

    @pytest.mark.parametrize("freqs", [[1.0], [2.5, 1.0], [0.5, 3.0, 0.5], [1.0, 1.5, 2.0, 2.5]])
    def test_frequency_list_needs_no_eigh(self, monkeypatch, freqs):
        n = 2 * len(freqs)
        config = parse_config(json.dumps({
            "kind": "gaussian_exact", "ccr": freqs, "mu_grid": [0.1],
            "state": {"mean": [0.0] * n, "cov": (3.0 * np.eye(n)).tolist()}}))
        calls = self._spy(monkeypatch, refuse_eigh=True)
        basis = symplectic_eigenbasis(config.ccr)
        assert calls["verify"] == 1
        order = np.argsort(-np.asarray(freqs), kind="stable")
        assert basis.gamma.tolist() == sorted(freqs, reverse=True)
        expected = np.zeros((n, n))
        for j, k in enumerate(order):
            expected[2 * k, 2 * j] = expected[2 * k + 1, 2 * j + 1] = 1.0 / math.sqrt(2.0)
        np.testing.assert_array_equal(basis.H, expected)

    def test_block_diagonal_literal_needs_no_eigh(self, monkeypatch):
        ccr = block_ccr([2.0, 0.5])
        calls = self._spy(monkeypatch, refuse_eigh=True)
        assert symplectic_eigenbasis(ccr).gamma.tolist() == [2.0, 0.5]
        assert calls["verify"] == 1

    @pytest.mark.parametrize("check", ["H", "gamma"])
    def test_a_nan_basis_is_rejected(self, monkeypatch, check):
        # Each check fails on an error that is not finite: a NaN compares
        # False with any tolerance, so "err > tol" let a NaN basis through.
        ccr, _ = random_ccr(np.random.default_rng(5), 2)
        eigh_basis = ccr_module._eigh_basis

        def nan_basis(c):
            basis = eigh_basis(c)
            parts = {"H": basis.H, "gamma": basis.gamma}
            parts[check] = np.full_like(parts[check], np.nan)
            return ccr_module.SymplecticBasis(ccr=c, **parts)

        monkeypatch.setattr(ccr_module, "_eigh_basis", nan_basis)
        with pytest.raises(EigenSolverFailure):
            symplectic_eigenbasis(ccr)

    @pytest.mark.parametrize("case", ["negative-frequency", "rotated"])
    def test_other_literals_take_eigh(self, monkeypatch, case):
        if case == "negative-frequency":
            ccr = validate_ccr(_diag_kron_j2([-1.0, 2.0]))
        else:
            ccr, _ = random_ccr(np.random.default_rng(5), 3)
        reference = _eigh_basis(ccr)
        calls = self._spy(monkeypatch, refuse_eigh=False)
        basis = symplectic_eigenbasis(ccr)
        assert calls == {"eigh": 1, "verify": 1}
        np.testing.assert_array_equal(basis.H, reference.H)
        np.testing.assert_array_equal(basis.gamma, reference.gamma)


def _series_cos(a, terms=30):
    out = np.eye(a.shape[0])
    power = np.eye(a.shape[0])
    fact = 1.0
    for k in range(1, terms):
        power = power @ a @ a
        fact *= (2 * k - 1) * (2 * k)
        out = out + ((-1) ** k) * power / fact
    return out


def _series_sinc(a, terms=30):
    out = np.eye(a.shape[0])
    power = np.eye(a.shape[0])
    fact = 1.0
    for k in range(1, terms):
        power = power @ a @ a
        fact *= (2 * k) * (2 * k + 1)
        out = out + ((-1) ** k) * power / fact
    return out


class TestMatrixFunction:
    def test_cos_canonical(self):
        basis = symplectic_eigenbasis(validate_ccr(J2))
        np.testing.assert_allclose(
            matrix_function(basis, "cos", 1.0), math.cosh(1.0) * np.eye(2), atol=1e-12
        )

    def test_constant_gives_identity(self):
        rng = np.random.default_rng(23)
        ccr, _ = random_ccr(rng, 2)
        basis = symplectic_eigenbasis(ccr)
        np.testing.assert_allclose(matrix_function(basis, "one", 0.7), np.eye(4), atol=1e-12)

    def test_trace_identity(self):
        rng = np.random.default_rng(29)
        ccr, freqs = random_ccr(rng, 3)
        basis = symplectic_eigenbasis(ccr)
        mu = 0.8
        trace = np.trace(matrix_function(basis, "cos", mu))
        assert trace == pytest.approx(2.0 * np.sum(np.cosh(mu * freqs)), rel=1e-12)

    @pytest.mark.parametrize("n_modes", [2, 3])
    def test_power_series_oracle(self, n_modes):
        rng = np.random.default_rng(31 + n_modes)
        ccr, _ = random_ccr(rng, n_modes)
        basis = symplectic_eigenbasis(ccr)
        mu = 0.3 / np.linalg.norm(ccr.theta, 2)
        a = mu * ccr.theta
        np.testing.assert_allclose(
            matrix_function(basis, "cos", mu), _series_cos(a), atol=1e-9
        )
        np.testing.assert_allclose(
            matrix_function(basis, "sinc", mu), _series_sinc(a), atol=1e-9
        )
        tanc_oracle = np.linalg.solve(_series_cos(a).T, _series_sinc(a).T).T
        np.testing.assert_allclose(
            matrix_function(basis, "tanc", mu), tanc_oracle, atol=1e-9
        )

    def test_unsupported_name(self):
        basis = symplectic_eigenbasis(validate_ccr(J2))
        with pytest.raises(UnsupportedFunction):
            matrix_function(basis, "exp", 1.0)

    def test_basis_independence_under_degeneracy(self):
        # two equal eigenfrequencies: f(Theta) must not depend on the basis choice
        rng = np.random.default_rng(37)
        q = random_orthogonal(rng, 4)
        theta = q @ np.kron(np.eye(2), J2) @ q.T
        basis = symplectic_eigenbasis(validate_ccr(theta))
        np.testing.assert_allclose(
            matrix_function(basis, "cos", 0.9),
            _series_cos(0.9 * theta),
            atol=1e-9,
        )


class TestAuxCovariance:
    def test_canonical(self):
        basis = symplectic_eigenbasis(validate_ccr(J2))
        np.testing.assert_allclose(
            aux_covariance(basis, 1.0), math.tanh(1.0) * np.eye(2), atol=1e-12
        )

    def test_small_mu_limit(self):
        basis = symplectic_eigenbasis(validate_ccr(J2))
        np.testing.assert_allclose(aux_covariance(basis, 1e-8), np.eye(2), atol=1e-8)

    def test_scaled_block(self):
        basis = symplectic_eigenbasis(validate_ccr(3.0 * J2))
        np.testing.assert_allclose(
            aux_covariance(basis, 2.0), (math.tanh(6.0) / 6.0) * np.eye(2), atol=1e-12
        )

    @pytest.mark.parametrize("mu", [1e-3, 0.1, 1.0, 10.0])
    def test_contraction_spectrum(self, mu):
        rng = np.random.default_rng(41)
        ccr, _ = random_ccr(rng, 2)
        basis = symplectic_eigenbasis(ccr)
        eigs = np.linalg.eigvalsh(aux_covariance(basis, mu))
        assert np.all(eigs > 0.0)
        assert np.all(eigs < 1.0)

    def test_product_identity(self):
        # K(mu) cos(mu Theta) = sinc(mu Theta)
        rng = np.random.default_rng(43)
        ccr, _ = random_ccr(rng, 3)
        basis = symplectic_eigenbasis(ccr)
        for mu in (0.2, 1.0, 3.0):
            lhs = aux_covariance(basis, mu) @ matrix_function(basis, "cos", mu)
            np.testing.assert_allclose(lhs, matrix_function(basis, "sinc", mu), atol=1e-9)


class TestLogDetCos:
    def test_canonical(self):
        basis = symplectic_eigenbasis(validate_ccr(J2))
        assert log_det_cos(basis, 1.0) == pytest.approx(2.0 * math.log(math.cosh(1.0)), abs=1e-12)

    def test_zero_limit(self):
        basis = symplectic_eigenbasis(validate_ccr(J2))
        assert log_det_cos(basis, 1e-12) == pytest.approx(0.0, abs=1e-12)

    def test_block_sum(self):
        basis = symplectic_eigenbasis(block_ccr([1.0, 3.0]))
        expected = 2.0 * (math.log(math.cosh(1.0)) + math.log(math.cosh(3.0)))
        assert log_det_cos(basis, 1.0) == pytest.approx(expected, abs=1e-12)

    def test_nonnegative_and_nondecreasing(self):
        rng = np.random.default_rng(47)
        ccr, _ = random_ccr(rng, 2)
        basis = symplectic_eigenbasis(ccr)
        values = [log_det_cos(basis, mu) for mu in np.linspace(0.05, 5.0, 25)]
        assert all(v >= 0.0 for v in values)
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_no_overflow_at_large_mu(self):
        basis = symplectic_eigenbasis(block_ccr([1.0, 5.0]))
        value = log_det_cos(basis, 500.0)
        expected = 2.0 * ((500.0 - math.log(2.0)) + (2500.0 - math.log(2.0)))
        assert value == pytest.approx(expected, rel=1e-12)


class TestLnsinh:
    @pytest.mark.parametrize("x", [1e-20, 1e-12, 1e-9])
    def test_small_argument_does_not_cancel(self, x):
        # 1 - exp(-2x) rounds away below x ~ 1e-8; expm1 keeps it.
        assert float(lnsinh(x)) == pytest.approx(math.log(math.sinh(x)), rel=1e-15)

    def test_large_argument_does_not_overflow(self):
        assert float(lnsinh(800.0)) == pytest.approx(800.0 - math.log(2.0), rel=1e-15)
