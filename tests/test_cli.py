"""Tests for config parsing, scenario execution, CSV reports, and the
command-line entry point."""

import csv
import functools
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qembound
from qembound.cli import (
    CSV_COLUMNS,
    STATUSES,
    BoundReport,
    ReportRow,
    main,
    parse_config,
    run,
    verify_checks,
)
from qembound.errors import ConfigParse


def _vacuum_config(**overrides):
    cfg = {
        "kind": "gaussian_exact",
        "ccr": [1.0],
        "state": {"mean": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]},
        "mu_grid": [round(0.1 * i, 10) for i in range(1, 11)],
    }
    cfg.update(overrides)
    return cfg


class TestParseConfig:
    def test_minimal_with_defaults(self):
        config = parse_config(json.dumps(_vacuum_config()))
        assert config.kind == "gaussian_exact"
        assert config.samples == 100000
        assert config.seed == 42
        assert config.output is None
        assert len(config.mu_grid) == 10

    def test_unknown_key_named(self):
        with pytest.raises(ConfigParse, match="gamma_matrix"):
            parse_config(json.dumps(_vacuum_config(gamma_matrix=[[0, 1], [-1, 0]])))

    def test_non_increasing_grid(self):
        with pytest.raises(ConfigParse, match="mu_grid"):
            parse_config(json.dumps(_vacuum_config(mu_grid=[0.2, 0.1])))

    def test_bad_json_reports_line(self):
        with pytest.raises(ConfigParse, match="line"):
            parse_config('{\n "kind": "gaussian_exact",\n}')

    def test_ccr_shorthand_expands_blocks(self):
        cfg = _vacuum_config(
            ccr=[2.0, 0.5],
            state={"mean": [0.0] * 4, "cov": (2.5 * np.eye(4)).tolist()},
        )
        config = parse_config(json.dumps(cfg))
        assert config.ccr.n == 4
        expected = np.array(
            [
                [0.0, 2.0, 0.0, 0.0],
                [-2.0, 0.0, 0.0, 0.0],
                [0.0, 0.0, 0.0, 0.5],
                [0.0, 0.0, -0.5, 0.0],
            ]
        )
        np.testing.assert_array_equal(config.ccr.theta, expected)

    def test_full_matrix_ccr(self):
        cfg = _vacuum_config(ccr=[[0.0, 1.0], [-1.0, 0.0]])
        config = parse_config(json.dumps(cfg))
        assert config.ccr.n == 2

    def test_mixture_state(self):
        cfg = _vacuum_config(
            state={
                "weights": [0.5, 0.5],
                "components": [
                    {"mean": [1.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]},
                    {"mean": [-1.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]},
                ],
            }
        )
        config = parse_config(json.dumps(cfg))
        assert len(config.state.components) == 2

    def test_dimension_mismatch_rejected(self):
        cfg = _vacuum_config(state={"mean": [0.0] * 4, "cov": np.eye(4).tolist()})
        with pytest.raises(ConfigParse):
            parse_config(json.dumps(cfg))

    def test_inadmissible_state_rejected(self):
        cfg = _vacuum_config(state={"mean": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, 0.5]]})
        with pytest.raises(ConfigParse):
            parse_config(json.dumps(cfg))

    def test_bad_kind(self):
        with pytest.raises(ConfigParse, match="kind"):
            parse_config(json.dumps(_vacuum_config(kind="qem")))

    def test_model_requires_oqho_kind(self):
        cfg = _vacuum_config(model={"R": [[0, 0], [0, 0]], "N": [[1, 0], [0, 1]]})
        with pytest.raises(ConfigParse):
            parse_config(json.dumps(cfg))

    @pytest.mark.parametrize(
        "paths",
        [
            [("model",), ("t_grid",)],
            [("ccr",)],
            [("state",)],
            [("mu_grid",)],
            [("model",)],
            [("t_grid",)],
            [("state", "components")],
            [("model", "R")],
        ],
        ids=["model+t_grid", "ccr", "state", "mu_grid", "model", "t_grid", "components", "R"],
    )
    def test_oqho_requires_model_and_t_grid(self, paths):
        cfg = {
            "kind": "oqho_sweep",
            "ccr": [1.0],
            "state": {"weights": [1.0],
                      "components": [{"mean": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]}]},
            "model": {"R": [[1.0, 0.0], [0.0, 1.0]], "N": [[1.0, 0.0], [0.0, 1.0]]},
            "mu_grid": [0.1],
            "t_grid": [0.0],
        }
        parse_config(json.dumps(cfg))
        for *parents, key in paths:
            node = cfg
            for parent in parents:
                node = node[parent]
            del node[key]
        with pytest.raises(ConfigParse, match=f"'{paths[0][-1]}'"):
            parse_config(json.dumps(cfg))


    @pytest.mark.parametrize(
        "name, literal",
        [
            ("mu_grid", '["0.1"]'),
            ("mu_grid", "[true]"),
            ("mu_grid", "[Infinity]"),
            ("mu_grid", "[0.1, NaN]"),
            ("mu_grid", "[1" + "0" * 400 + "]"),
            ("t_grid", "[0, 1e400]"),
        ],
        ids=["string", "boolean", "infinity", "nan", "huge-integer", "overflowing-float"],
    )
    def test_grid_entries_must_be_finite_numbers(self, tmp_path, name, literal):
        cfg = {
            "kind": "oqho_sweep",
            "ccr": [1.0],
            "state": {"mean": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]},
            "model": {"R": [[1.0, 0.0], [0.0, 1.0]], "N": [[1.0, 0.0], [0.0, 1.0]]},
            "mu_grid": [0.1],
            "t_grid": [0.0],
        }
        text = json.dumps(dict(cfg, **{name: "GRID"})).replace('"GRID"', literal)
        with pytest.raises(ConfigParse, match=f"{name} must contain finite numbers"):
            parse_config(text)
        config_path = tmp_path / "scenario.json"
        config_path.write_text(text)
        assert main(["run", str(config_path)]) == 1

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ('"ccr": [1.0]', '"ccr": [1e400]', "finite and positive"),
            ('"ccr": [1.0]', '"ccr": [1' + "0" * 400 + "]", "finite and positive"),
            ('"ccr": [1.0]', '"ccr": [[0, NaN], [-1, 0]]', "invalid ccr: commutation matrix"),
            ('"ccr": [1.0]', '"ccr": [[0, 1' + "0" * 400 + "], [-1, 0]]", "invalid ccr: int too large"),
            ('"mean": [0.0, 0.0]', '"mean": [1' + "0" * 400 + ", 0.0]", "invalid state: int too large"),
            ('"mean": [0.0, 0.0]', '"mean": [NaN, 0.0]', "invalid state: mean"),
            ('"mean": [0.0, 0.0]', '"mean": {"x": 0.0}', "invalid state: float"),
            ('"cov": [[1.0, 0.0], [0.0, 1.0]]', '"cov": [[Infinity, 0.0], [0.0, 1.0]]',
             "invalid state: covariance"),
            ('"weights": [1.0]', '"weights": [NaN]', "invalid mixture: mixture weight"),
            ('"R": [[1.0, 0.0], [0.0, 1.0]]', '"R": [[Infinity, 0.0], [0.0, 1.0]]',
             "invalid model: energy matrix"),
            ('"N": [[1.0, 0.0], [0.0, 1.0]]', '"N": [[NaN, 0.0], [0.0, 1.0]]',
             "invalid model: coupling matrix"),
        ],
        ids=["ccr-infinity", "ccr-huge-integer", "ccr-matrix-nan", "ccr-matrix-huge-integer",
             "mean-huge-integer", "mean-nan", "mean-object", "cov-infinity", "weight-nan",
             "energy-infinity", "coupling-nan"],
    )
    def test_state_and_model_entries_must_be_finite_numbers(self, tmp_path, old, new, message):
        component = {"mean": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]}
        cfg = {
            "kind": "oqho_sweep",
            "ccr": [1.0],
            "state": {"weights": [1.0], "components": [component]},
            "model": {"R": [[1.0, 0.0], [0.0, 1.0]], "N": [[1.0, 0.0], [0.0, 1.0]]},
            "mu_grid": [0.1],
            "t_grid": [0.0],
        }
        text = json.dumps(cfg)
        assert old in text
        text = text.replace(old, new)
        with pytest.raises(ConfigParse, match=message):
            parse_config(text)
        config_path = tmp_path / "scenario.json"
        config_path.write_text(text)
        assert main(["run", str(config_path)]) == 1

    @pytest.mark.parametrize("literal", ['"1.0"', "true"], ids=["string", "boolean"])
    @pytest.mark.parametrize(
        "old, new, name",
        [
            ('"ccr": [1.0]', '"ccr": [[0, ENTRY], [-1, 0]]', "ccr"),
            ('"mean": [0.0, 0.0]', '"mean": [ENTRY, 0.0]', "mean"),
            ('"cov": [[1.0, 0.0], [0.0, 1.0]]', '"cov": [[ENTRY, 0.0], [0.0, 1.0]]', "cov"),
            ('"weights": [1.0]', '"weights": [ENTRY]', "weights"),
            ('"R": [[1.0, 0.0], [0.0, 1.0]]', '"R": [[ENTRY, 0.0], [0.0, 1.0]]', "R"),
            ('"N": [[1.0, 0.0], [0.0, 1.0]]', '"N": [[ENTRY, 0.0], [0.0, 1.0]]', "N"),
        ],
        ids=["ccr-matrix", "mean", "cov", "weights", "energy", "coupling"],
    )
    def test_numeric_entries_must_be_json_numbers(self, tmp_path, old, new, name, literal):
        # float() and numpy read "1.0" and true as numbers; the parser does not.
        component = {"mean": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]}
        cfg = {
            "kind": "oqho_sweep",
            "ccr": [1.0],
            "state": {"weights": [1.0], "components": [component]},
            "model": {"R": [[1.0, 0.0], [0.0, 1.0]], "N": [[1.0, 0.0], [0.0, 1.0]]},
            "mu_grid": [0.1],
            "t_grid": [0.0],
        }
        text = json.dumps(cfg)
        assert old in text
        text = text.replace(old, new.replace("ENTRY", literal))
        with pytest.raises(ConfigParse, match=f"{name} must contain finite numbers"):
            parse_config(text)
        config_path = tmp_path / "scenario.json"
        config_path.write_text(text)
        assert main(["run", str(config_path)]) == 1

    def test_samples_at_least_two(self):
        cfg = _vacuum_config(kind="randomized_mc", mu_grid=[0.5], samples=2)
        assert parse_config(json.dumps(cfg)).samples == 2
        with pytest.raises(ConfigParse, match="samples"):
            parse_config(json.dumps(dict(cfg, samples=1)))

    @pytest.mark.parametrize(
        "key, value, message",
        [("seed", 2**64 + 5, "seed must be a 64-bit unsigned integer"),
         ("seed", -1, "seed must be a 64-bit unsigned integer"),
         ("seed", 5.0, "seed must be a 64-bit unsigned integer"),
         ("seed", True, "seed must be a 64-bit unsigned integer"),
         ("samples", 1e4, "samples must be an integer >= 2"),
         ("samples", "100", "samples must be an integer >= 2")],
    )
    def test_samples_and_seed_keys_checked(self, key, value, message):
        # The library's sampling checks, reported in the parser's own words.
        cfg = _vacuum_config(kind="randomized_mc", mu_grid=[0.5], samples=2, seed=2**64 - 1)
        assert parse_config(json.dumps(cfg)).seed == 2**64 - 1
        with pytest.raises(ConfigParse, match=f"^{message}$"):
            parse_config(json.dumps(dict(cfg, **{key: value})))

    @pytest.mark.parametrize(
        "flag, value",
        [("--samples", "1"), ("--seed", "-1"), ("--seed", str(2**64)), ("--seed", "abc"),
         ("--samples", "1.5")],
        ids=["samples-1", "seed-negative", "seed-2**64", "seed-text", "samples-fraction"],
    )
    def test_samples_and_seed_flags_checked(self, tmp_path, capsys, flag, value):
        # The flags share the config keys' checks: samples >= 2, seed in [0, 2**64).
        # A value that is no integer is a config error too (exit 1), not a
        # usage error (argparse's 2, the code of a flagged row).
        cfg = _vacuum_config(kind="randomized_mc", mu_grid=[0.5], samples=2)
        config_path = tmp_path / "scenario.json"
        config_path.write_text(json.dumps(cfg))
        assert main(["run", str(config_path), flag, value]) == 1
        assert capsys.readouterr().err.startswith(f"error: {flag} must be")


class TestRun:
    def test_vacuum_exact_sweep(self):
        config = parse_config(json.dumps(_vacuum_config()))
        report, code = run(config)
        assert code == 0
        assert len(report.rows) == 10
        for row, mu in zip(report.rows, config.mu_grid):
            assert row.status == "ok"
            assert row.mu == mu
            assert abs(row.upsilon_exact - mu) <= 1e-12

    def test_thermal_grid_crossing_critical(self):
        cfg = _vacuum_config(
            state={"mean": [0.0, 0.0], "cov": [[3.0, 0.0], [0.0, 3.0]]},
            mu_grid=[0.1, 0.2, 0.3, 0.4, 0.5],
        )
        report, code = run(parse_config(json.dumps(cfg)))
        assert code == 2
        statuses = [r.status for r in report.rows]
        # critical mu = artanh(1/3) ~ 0.3466
        assert statuses == ["ok", "ok", "ok", "infeasible_mu", "infeasible_mu"]
        assert report.rows[3].upsilon_exact is None

    def test_upper_bound_sweep(self):
        cfg = _vacuum_config(kind="upper_bound", mu_grid=[0.2, 0.5, 1.0])
        report, code = run(parse_config(json.dumps(cfg)))
        assert code == 0
        for row, mu in zip(report.rows, (0.2, 0.5, 1.0)):
            assert row.upsilon_bound >= mu - 1e-12
            assert row.lambda_opt is not None

    def test_oqho_sweep_orders_rows(self):
        cfg = {
            "kind": "oqho_sweep",
            "ccr": [1.0],
            "state": {"mean": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]},
            "model": {"R": [[0.0, 0.0], [0.0, 0.0]], "N": [[1.0, 0.0], [0.0, 1.0]]},
            "mu_grid": [0.3, 0.6],
            "t_grid": [0.0, 0.5],
        }
        report, code = run(parse_config(json.dumps(cfg)))
        assert code == 0
        assert [(r.t, r.mu) for r in report.rows] == [
            (0.0, 0.3),
            (0.0, 0.6),
            (0.5, 0.3),
            (0.5, 0.6),
        ]

    def test_oqho_sweep_long_horizons(self):
        # The vacuum is stationary for R = I, N = I; the Gramian at t = 100
        # must not lose it to cancellation.
        cfg = {
            "kind": "oqho_sweep",
            "ccr": [1.0],
            "state": {"mean": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]},
            "model": {"R": [[1.0, 0.0], [0.0, 1.0]], "N": [[1.0, 0.0], [0.0, 1.0]]},
            "mu_grid": [0.1, 0.3],
            "t_grid": [0.0, 10.0, 100.0],
        }
        report, code = run(parse_config(json.dumps(cfg)))
        assert code == 0
        assert [r.t for r in report.rows] == [0.0, 0.0, 10.0, 10.0, 100.0, 100.0]
        for row, at_zero in zip(report.rows[2:], report.rows[:2] * 2):
            assert abs(row.upsilon_bound - at_zero.upsilon_bound) < 1e-9

    def test_tail_rows_use_the_analytic_slope(self):
        # Thermal state cov 3 I on ccr [1]: Upsilon = -ln(cosh mu - 3 sinh mu),
        # slope (3 cosh mu - sinh mu) / (cosh mu - 3 sinh mu); mu* ~ 0.3466.
        # The slope's 1/mu terms must not cancel at tiny mu.
        cfg = _vacuum_config(
            kind="tail",
            state={"mean": [0.0, 0.0], "cov": [[3.0, 0.0], [0.0, 3.0]]},
            mu_grid=[5e-324, 1e-310, 1e-300, 1e-12, 1e-6, 0.1, 0.2, 0.3, 0.4],
        )
        report, code = run(parse_config(json.dumps(cfg)))
        assert code == 2
        assert [r.status for r in report.rows] == ["ok"] * 8 + ["infeasible_mu"]
        for row in report.rows[:8]:
            c, s = math.cosh(row.mu), math.sinh(row.mu)
            # cosh mu - 1 = 2 sinh^2(mu/2), so the reference keeps its digits
            upsilon = -math.log1p(2.0 * math.sinh(0.5 * row.mu) ** 2 - 3.0 * s)
            slope = (3.0 * c - s) / (c - 3.0 * s)
            assert row.upsilon_exact == pytest.approx(upsilon, rel=1e-12)
            assert row.tail_eps == pytest.approx(slope, rel=1e-12)
            if row.mu < 0.1:
                # Upsilon - mu Upsilon' ~ -mu^2 Upsilon''/2 cancels in both.
                assert row.tail_log_bound == pytest.approx(upsilon - row.mu * slope, abs=1e-15)
                continue
            assert row.tail_log_bound == pytest.approx(upsilon - row.mu * slope, rel=1e-12)
            assert row.tail_log_bound < 0.0

    @pytest.mark.parametrize("kind", ["gaussian_exact", "randomized_mc", "tail"])
    def test_rows_where_mu_theta_underflows(self, kind):
        # On ccr [0.5], mu theta = 2.5e-324 rounds to 0 at mu = 5e-324;
        # tanh(x)/x and x/sinh(x) then read their limit 1, so the rows keep
        # the tiny-mu values: Upsilon ~ mu (tr C + |M|^2)/2, slope 1.625.
        cfg = _vacuum_config(
            kind=kind,
            ccr=[0.5],
            state={"mean": [0.5, 0.0], "cov": [[1.5, 0.0], [0.0, 1.5]]},
            mu_grid=[5e-324, 1e-300],
            samples=1000,
            seed=1,
        )
        report, code = run(parse_config(json.dumps(cfg)))
        assert code == 0
        for row in report.rows:
            assert row.status == "ok"
            if kind != "randomized_mc":
                assert 0.0 < row.upsilon_exact <= 2.0 * row.mu
            if kind == "tail":
                assert row.tail_eps == pytest.approx(1.625, rel=1e-12)

    @pytest.mark.parametrize("mu", [1e-20, 1e-300])
    def test_mc_error_bar_at_tiny_mu(self, mu):
        # The log summands spread by about sqrt(mu) |M|: 1e-10 at mu = 1e-20,
        # where a one-pass variance cancels to 0 beside a visibly noisy
        # estimate, and 1e-150 at mu = 1e-300, where every exp(a - max a)
        # rounds to 1 and a max-shifted sum returns the largest summand.
        # Upsilon(mu) ~ mu (tr C + |M|^2)/2 = 1.625 mu.
        cfg = _vacuum_config(
            kind="randomized_mc",
            state={"mean": [0.5, 0.0], "cov": [[1.5, 0.0], [0.0, 1.5]]},
            mu_grid=[mu],
            samples=1000,
            seed=1,
        )
        report, code = run(parse_config(json.dumps(cfg)))
        assert code == 0
        (row,) = report.rows
        assert row.status == "ok"
        assert row.mc_se > 0.0
        assert abs(row.upsilon_mc - 1.625 * mu) <= 5.0 * row.mc_se

    def test_mc_rows_past_critical_mu_are_infeasible(self):
        # mu* = artanh(1/3) ~ 0.3466: past it the moment is infinite, so no
        # estimate or error bar may be printed.  mu = 0.2 lies past
        # mu_var = artanh(1/6) ~ 0.168, so its estimate has no error bar.
        cfg = _vacuum_config(
            kind="randomized_mc",
            state={"mean": [0.5, 0.0], "cov": [[3.0, 0.0], [0.0, 3.0]]},
            mu_grid=[0.2, 0.5, 1.0],
            samples=20000,
            seed=1,
        )
        report, code = run(parse_config(json.dumps(cfg)))
        assert code == 2
        assert [r.status for r in report.rows] == [
            "infinite_variance", "infeasible_mu", "infeasible_mu"]
        assert report.rows[0].upsilon_mc is not None
        assert report.rows[0].mc_se is None
        for row in report.rows[1:]:
            assert row.upsilon_mc is None
            assert row.mc_se is None

    @pytest.mark.parametrize("kind", ["gaussian_exact", "randomized_mc"])
    @pytest.mark.parametrize("scale, mu, statuses", [
        (6.0, 1e308, ["ok", "infeasible_mu"]),
        (2.0, 1e308, ["ok", "numerical_error"]),
        (2.0, 1e300, ["ok", "numerical_error"]),
    ], ids=["finite-mu-star", "infinite-mu-star", "pure-state-saturated-gap"])
    def test_mc_rows_where_mu_theta_overflows(self, kind, scale, mu, statuses):
        # At mu = 1e308, mu * theta = inf, where tanh(x)/x reads 0; the
        # grid's top reads inf there.  Cov 6 I has mu* ~ 0.173, so that row
        # is infeasible; cov 2 I is pure, with mu* = inf, so a top of 1 or
        # more means the contraction gap is lost to rounding while the
        # moment (Upsilon = 2 mu) stays finite: a numerical fault, also at
        # mu = 1e300, where mu * theta is finite and top rounds to 1.
        cfg = _vacuum_config(
            kind=kind,
            ccr=[2.0],
            state={"mean": [0.0, 0.0], "cov": [[scale, 0.0], [0.0, scale]]},
            mu_grid=[0.01, mu],
            samples=1000,
            seed=1,
        )
        report, code = run(parse_config(json.dumps(cfg)))
        assert code == 2
        assert [r.status for r in report.rows] == statuses
        row = report.rows[1]
        assert row.upsilon_exact is None and row.upsilon_mc is None and row.mc_se is None

    @pytest.mark.parametrize("kind, statuses", [
        ("gaussian_exact", ["ok", "ok", "numerical_error", "numerical_error"]),
        ("tail", ["ok", "ok", "numerical_error", "numerical_error"]),
        ("randomized_mc", ["infinite_variance", "infinite_variance", "numerical_error",
                           "numerical_error"]),
    ])
    def test_rows_past_the_saturation_span_of_a_pure_state(self, kind, statuses):
        # Cov 2 I on ccr [2] is pure: mu* = inf and Upsilon = 2 mu.  Past
        # mu_max = SATURATION_SPAN/theta_max = 7, 1 - tanh(mu theta) nears
        # double precision and the closed form loses its digits (16.0006 at
        # mu = 8) while top stays below 1: those rows are numerical faults
        # in every exact-engine kind, not ok and not infeasible.
        cfg = _vacuum_config(
            kind=kind,
            ccr=[2.0],
            state={"mean": [0.0, 0.0], "cov": [[2.0, 0.0], [0.0, 2.0]]},
            mu_grid=[1.0, 6.0, 8.0, 9.0],
            samples=1000,
            seed=1,
        )
        report, code = run(parse_config(json.dumps(cfg)))
        assert code == 2
        assert [r.status for r in report.rows] == statuses
        for row in report.rows[:2]:
            if kind != "randomized_mc":
                assert row.upsilon_exact == pytest.approx(2.0 * row.mu, abs=1e-5)
        for row in report.rows[2:]:
            assert row.upsilon_exact is None and row.upsilon_mc is None and row.tail_eps is None

    @pytest.mark.parametrize("kind", ["gaussian_exact", "tail"])
    def test_rows_past_the_saturation_span_with_a_finite_mu_star(self, kind):
        # On ccr [0.1, 10] the theta = 0.1 mode (cov 0.2) crosses at
        # mu* = atanh(0.5)/0.1 ~ 5.49, and the theta = 10 mode (cov 10) has
        # limit radius 1, which it reads once tanh(10 mu) rounds to 1.  The
        # span is 14/10 = 1.4: past it neither the closed form nor the mu*
        # solve is trusted, so those rows are numerical faults, not ok with
        # wrong values and not infeasible for a finite moment.
        cfg = _vacuum_config(
            kind=kind,
            ccr=[0.1, 10.0],
            state={"mean": [0.0] * 4, "cov": np.diag([0.2, 0.2, 10.0, 10.0]).tolist()},
            mu_grid=[0.5, 1.0, 1.3, 1.5, 2.0, 3.0],
        )
        report, code = run(parse_config(json.dumps(cfg)))
        assert code == 2
        assert [r.status for r in report.rows] == ["ok"] * 3 + ["numerical_error"] * 3
        for row in report.rows[3:]:
            assert row.upsilon_exact is None and row.tail_eps is None

    @pytest.fixture
    def mu_star_solves(self, monkeypatch):
        """The engine of every ExactEngine.mu_star solve (the property is
        cached, so each engine solves at most once)."""
        solves = []
        solve = qembound.qem.ExactEngine.mu_star.func

        def spy(engine):
            solves.append(engine)
            return solve(engine)

        counted = functools.cached_property(spy)
        counted.__set_name__(qembound.qem.ExactEngine, "mu_star")
        monkeypatch.setattr(qembound.qem.ExactEngine, "mu_star", counted)
        return solves

    @pytest.mark.parametrize("kind, mu_grid, statuses", [
        ("gaussian_exact", [0.1, 0.2, 0.3], ["ok"] * 3),
        ("tail", [0.1, 0.2, 0.3], ["ok"] * 3),
        ("gaussian_exact", [0.1, 0.5], ["ok", "infeasible_mu"]),
        ("tail", [0.1, 0.5], ["ok", "infeasible_mu"]),
        ("randomized_mc", [0.1, 0.5], ["ok", "infeasible_mu"]),
    ], ids=["exact-below-the-cut", "tail-below-the-cut", "exact-past-mu-star",
            "tail-past-mu-star", "mc-past-mu-star"])
    def test_rows_that_decide_their_status_read_no_radius(self, mu_star_solves, kind, mu_grid,
                                                          statuses):
        # Cov 3 I on ccr [1]: mu* = atanh(1/3) ~ 0.3466 and top = 3 tanh(mu).
        # At mu <= 0.3, top <= 0.874 < CGF_SAFETY, so no row can lie at or
        # past CGF_SAFETY mu*; at 0.5, a finite top >= 1 proves a finite mu*.
        # Neither needs the mu* solve.
        cfg = _vacuum_config(kind=kind, state={"mean": [0.5, 0.0], "cov": [[3.0, 0.0], [0.0, 3.0]]},
                             mu_grid=mu_grid, samples=1000, seed=1)
        report, _ = run(parse_config(json.dumps(cfg)))
        assert [r.status for r in report.rows] == statuses
        assert mu_star_solves == []

    @pytest.fixture
    def grid_linalg(self, monkeypatch):
        """The numpy.linalg.solve calls of a run, and the numpy.linalg.eigvalsh
        calls made inside ExactEngine.grid, as counts."""
        calls = {"solve": 0, "eigvalsh": 0}
        depth = [0]
        grid, eigvalsh, solve = qembound.qem.ExactEngine.grid, np.linalg.eigvalsh, np.linalg.solve

        def spied_grid(engine, *args, **kwargs):
            depth[0] += 1
            try:
                return grid(engine, *args, **kwargs)
            finally:
                depth[0] -= 1

        def spied_eigvalsh(*args, **kwargs):
            calls["eigvalsh"] += depth[0] > 0
            return eigvalsh(*args, **kwargs)

        def spied_solve(*args, **kwargs):
            calls["solve"] += 1
            return solve(*args, **kwargs)

        monkeypatch.setattr(qembound.qem.ExactEngine, "grid", spied_grid)
        monkeypatch.setattr(np.linalg, "eigvalsh", spied_eigvalsh)
        monkeypatch.setattr(np.linalg, "solve", spied_solve)
        return calls

    @pytest.mark.parametrize("kind, mean, mu_grid, statuses", [
        ("tail", 0.5, [0.1, 0.3462, 0.3464, 0.3467], ["ok", "ok", "infeasible_mu", "infeasible_mu"]),
        ("gaussian_exact", 0.5, [0.1, 0.3462, 0.3464, 0.3467], ["ok", "ok", "ok", "infeasible_mu"]),
        ("randomized_mc", 0.5, [0.1, 0.3462, 0.3464, 0.3467],
         ["ok", "infinite_variance", "infinite_variance", "infeasible_mu"]),
        ("tail", 0.0, [0.1, 0.2, 0.3, 0.3462, 0.4], ["ok"] * 4 + ["infeasible_mu"]),
        ("gaussian_exact", 0.0, [0.1, 0.2, 0.3, 0.3462, 0.4], ["ok"] * 4 + ["infeasible_mu"]),
    ], ids=["tail-statuses0", "gaussian_exact-statuses1", "randomized_mc-statuses2",
            "tail-centred", "gaussian_exact-centred"])
    def test_rows_between_the_cut_and_mu_star(self, mu_star_solves, grid_linalg, kind, mean,
                                              mu_grid, statuses):
        # mu* = atanh(1/3) ~ 0.346574 and CGF_SAFETY mu* ~ 0.346227.  At
        # 0.3462 top = 3 tanh(0.3462) ~ 0.99900 >= CGF_SAFETY, yet the row
        # lies below the cut, and 0.3464 lies past it with top < 1: only the
        # tail reads mu_max to tell them apart, by one mu* solve (on one
        # frequency the closed form, which reads no top and one eigvalsh).
        # The grid reads values and feasibility from its pivots: no solve in
        # the whole run, and no eigvalsh in the grid but mu*'s.  With
        # t = tanh mu, Upsilon = -ln(1 - 3t) - ln cosh mu + |m|^2 t/(2 (1 - 3t)).
        cfg = _vacuum_config(kind=kind, state={"mean": [mean, 0.0], "cov": [[3.0, 0.0], [0.0, 3.0]]},
                             mu_grid=mu_grid, samples=1000, seed=1)
        report, _ = run(parse_config(json.dumps(cfg)))
        assert [r.status for r in report.rows] == statuses
        assert len(mu_star_solves) == (1 if kind == "tail" else 0)
        assert grid_linalg == {"solve": 0, "eigvalsh": len(mu_star_solves)}
        for row in report.rows:
            if row.upsilon_exact is not None:
                t = math.tanh(row.mu)
                exact = (-math.log1p(-3.0 * t) - math.log(math.cosh(row.mu))
                         + 0.5 * mean ** 2 * t / (1.0 - 3.0 * t))
                assert row.upsilon_exact == pytest.approx(exact, rel=1e-12)

    def test_oqho_sweep_at_zero_time_is_upper_bound(self):
        # cov 3 I: the weight limit 1/tanh(0.5) ~ 2.16 is below the top
        # covariance eigenvalue at mu = 0.5, so that window is empty in both
        # kinds alike, at t = 0 and at a short horizon.
        cfg = _vacuum_config(
            kind="upper_bound",
            state={"mean": [0.0, 0.0], "cov": [[3.0, 0.0], [0.0, 3.0]]},
            mu_grid=[0.1, 0.5],
        )
        static, _ = run(parse_config(json.dumps(cfg)))
        sweep, code = run(parse_config(json.dumps(dict(
            cfg, kind="oqho_sweep", t_grid=[0.0, 0.01],
            model={"R": [[0.0, 0.0], [0.0, 0.0]], "N": [[1.0, 0.0], [0.0, 1.0]]}))))
        assert code == 2
        assert [r.status for r in static.rows] == ["ok", "empty_interval"]
        assert [r._replace(t=None) for r in sweep.rows[:2]] == list(static.rows)
        assert [r.status for r in sweep.rows[2:]] == ["ok", "empty_interval"]

    def test_oqho_sweep_flags_faulty_horizon(self):
        # A = +2 I is unstable: the block expm overflows at t = 400, which
        # flags that horizon's rows without losing the earlier horizons; the
        # sweep prints the bytes of its horizons run one at a time.
        cfg = {
            "kind": "oqho_sweep",
            "ccr": [1.0],
            "state": {"mean": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]},
            "model": {"R": [[0.0, 0.0], [0.0, 0.0]], "N": [[0.0, 1.0], [1.0, 0.0]]},
            "mu_grid": [0.1, 0.2],
            "t_grid": [0.0, 1.0, 2.0, 400.0],
        }
        report, code = run(parse_config(json.dumps(cfg)))
        assert code == 2
        assert len(report.rows) == 8
        healthy, _ = run(parse_config(json.dumps(dict(cfg, t_grid=[0.0, 1.0, 2.0]))))
        assert report.rows[:6] == healthy.rows
        assert [(r.t, r.status) for r in report.rows[6:]] == [(400.0, "numerical_error")] * 2
        assert all(r.upsilon_bound is None for r in report.rows[6:])
        texts = [run(parse_config(json.dumps(dict(cfg, t_grid=[t]))))[0].to_csv_text()
                 for t in cfg["t_grid"]]
        assert report.to_csv_text() == texts[0] + "".join(t.split("\n", 1)[1] for t in texts[1:])

    def test_oqho_sweep_flags_overflowing_horizon(self):
        # t * ||A||_1 overflows at t = 1e308: the block exponential cannot
        # be scaled, so that horizon's rows are flagged and t = 0 stays ok.
        cfg = {
            "kind": "oqho_sweep",
            "ccr": [1.0],
            "state": {"mean": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]},
            "model": {"R": [[1.0, 0.0], [0.0, 1.0]], "N": [[1.0, 0.0], [0.0, 1.0]]},
            "mu_grid": [0.1, 0.3],
            "t_grid": [0.0, 1e308],
        }
        report, code = run(parse_config(json.dumps(cfg)))
        assert code == 2
        assert [(r.t, r.status) for r in report.rows] == [
            (0.0, "ok"), (0.0, "ok"), (1e308, "numerical_error"), (1e308, "numerical_error")]
        assert all(r.upsilon_bound is None for r in report.rows[2:])


class TestDeterminism:
    def test_two_runs_give_identical_bytes(self):
        cfg = _vacuum_config(
            kind="randomized_mc", mu_grid=[0.2, 0.5, 1.0], samples=20000, seed=7
        )
        config = parse_config(json.dumps(cfg))
        first, _ = run(config)
        second, _ = run(config)
        assert first.to_csv_text() == second.to_csv_text()

    def test_mc_rows_have_errors(self):
        cfg = _vacuum_config(kind="randomized_mc", mu_grid=[0.5], samples=20000)
        report, _ = run(parse_config(json.dumps(cfg)))
        row = report.rows[0]
        assert row.upsilon_mc is not None
        assert row.mc_se > 0.0


class TestReportSerialization:
    def test_header_exact(self):
        report = BoundReport(rows=())
        header = report.to_csv_text().splitlines()[0]
        assert header == "t,mu,upsilon_exact,upsilon_mc,mc_se,upsilon_bound,lambda_opt,tail_eps,tail_log_bound,status"
        assert CSV_COLUMNS[-1] == "status"

    def test_round_trip_identity(self):
        rows = (
            ReportRow(None, 0.1, 0.1, None, None, None, None, None, None, "ok"),
            ReportRow(0.5, 1.0 / 3.0, None, 0.987654321012345678, 1e-3, None, None, None, None, "ok"),
            ReportRow(2.0, 0.9, None, None, None, None, None, None, None, "empty_interval"),
        )
        report = BoundReport(rows=rows)
        again = BoundReport.from_csv_text(report.to_csv_text())
        assert again == report

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(
        st.lists(st.one_of(st.none(), st.floats(allow_nan=False, allow_infinity=False),
                           st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                                            1e308, -1e308, sys.float_info.max])),
                 min_size=len(CSV_COLUMNS) - 1, max_size=len(CSV_COLUMNS) - 1),
        st.sampled_from(STATUSES)), max_size=6),
        st.sets(st.integers(0, len(CSV_COLUMNS) - 2)))
    @example([], set())
    def test_csv_text_is_what_csv_writer_writes(self, rows, blank_columns):
        # Every None pattern (whole columns blank too), subnormals, signed
        # zeros, the double range's ends and every status: the by-column
        # text equals csv.writer's over format(v, ".17g"), so no field ever
        # needed quoting, and it reads back as the same rows.
        rows = [([None if i in blank_columns else v for i, v in enumerate(values)], status)
                for values, status in rows]
        report = BoundReport(rows=tuple(ReportRow(*values, status=status)
                                        for values, status in rows))
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        writer.writerows(["" if v is None else format(v, ".17g") for v in values] + [status]
                         for values, status in rows)
        text = report.to_csv_text()
        assert text == buffer.getvalue()
        assert BoundReport.from_csv_text(text) == report

    def test_round_trip_of_every_status(self):
        rows = tuple(ReportRow(mu=0.5, status=status) for status in STATUSES)
        assert len(set(STATUSES)) == 5
        assert BoundReport.from_csv_text(BoundReport(rows=rows).to_csv_text()).rows == rows

    @pytest.mark.parametrize("row", [",0.1,,,,,,,ok", ",abc,,,,,,,,ok", ",nan,,,,,,,,ok",
                                     ",0.1,inf,,,,,,,ok", ",0.1,,-inf,,,,,,ok",
                                     ",0.1,,,,,,,,bogus", ",0.1,,,,,,,,", ",nan,inf,,,,,,,bogus"],
                             ids=["short", "non-numeric", "nan", "inf", "minus-inf",
                                  "unknown-status", "blank-status", "nan-inf-bogus"])
    def test_malformed_row_rejected(self, row):
        text = BoundReport(rows=()).to_csv_text() + row + "\n"
        with pytest.raises(ConfigParse, match="malformed report row"):
            BoundReport.from_csv_text(text)

    def test_file_round_trip(self, tmp_path):
        rows = (ReportRow(None, 0.25, math.pi, None, None, None, None, None, None, "ok"),)
        report = BoundReport(rows=rows)
        path = tmp_path / "report.csv"
        report.write_csv(str(path))
        assert BoundReport.read_csv(str(path)) == report


class TestMain:
    def test_run_writes_csv(self, tmp_path):
        config_path = tmp_path / "scenario.json"
        out_path = tmp_path / "out.csv"
        config_path.write_text(json.dumps(_vacuum_config(mu_grid=[0.25, 0.5])))
        code = main(["run", str(config_path), "--output", str(out_path)])
        assert code == 0
        report = BoundReport.read_csv(str(out_path))
        assert len(report.rows) == 2

    def test_flag_overrides(self, tmp_path):
        config_path = tmp_path / "scenario.json"
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        config_path.write_text(
            json.dumps(_vacuum_config(kind="randomized_mc", mu_grid=[0.5], samples=5000))
        )
        assert main(["run", str(config_path), "--output", str(out_a), "--seed", "1"]) == 0
        assert main(["run", str(config_path), "--output", str(out_b), "--seed", "2"]) == 0
        assert out_a.read_text() != out_b.read_text()

    def test_missing_config_is_io_error(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.json")]) == 1

    def test_invalid_config_exit_one(self, tmp_path):
        config_path = tmp_path / "bad.json"
        config_path.write_text("{not json")
        assert main(["run", str(config_path)]) == 1

    def test_exit_two_on_infeasible(self, tmp_path):
        config_path = tmp_path / "scenario.json"
        cfg = _vacuum_config(
            state={"mean": [0.0, 0.0], "cov": [[3.0, 0.0], [0.0, 3.0]]},
            mu_grid=[0.1, 0.4],
            output=str(tmp_path / "r.csv"),
        )
        config_path.write_text(json.dumps(cfg))
        assert main(["run", str(config_path)]) == 2

    def test_verify_quick(self, capsys):
        assert main(["verify", "--quick"]) == 0
        assert "[PASS]" in capsys.readouterr().out

    def test_verify_checks_at_the_largest_seed(self):
        # Case k draws from seed + k, which wraps modulo 2^64.
        checks = verify_checks(2000, 2**64 - 1)
        assert [name for name, _, _ in checks][:4] == [f"moment-identity-{k}" for k in range(4)]
        assert all(passed for _, passed, _ in checks)

    @pytest.mark.parametrize("key", ["seed", "output"])
    def test_verify_is_not_a_scenario_kind(self, tmp_path, capsys, key):
        # The oracle checks run only as `qembound verify`; no report is written.
        out_path = tmp_path / "r.csv"
        config_path = tmp_path / "verify.json"
        value = {"seed": 2**64 - 1, "output": str(out_path)}[key]
        config_path.write_text(json.dumps({"kind": "verify", key: value}))
        assert main(["run", str(config_path)]) == 1
        assert "error: kind must be one of" in capsys.readouterr().err
        assert not out_path.exists()


class TestHonestRows:
    @pytest.mark.parametrize("kind, cov, mu_grid", [
        *(pytest.param(kind, 1.0, [0.5, 1.0], id=kind)
          for kind in ("gaussian_exact", "randomized_mc", "upper_bound", "tail", "oqho_sweep")),
        *(pytest.param(kind, 3.0, [0.1], id=f"{kind}-below-mu-star")
          for kind in ("gaussian_exact", "upper_bound", "tail")),
    ])
    def test_overflowing_state_flags_every_row(self, kind, cov, mu_grid):
        # A mean of 1e308 overflows every route; no row may read ok with a
        # nan, and no cell may abort the sweep.  Cov 3 I at mu = 0.1 has
        # top = 0.299 < 1, below mu* = atanh(1/3): the row is a numerical
        # fault, not an infinite moment.
        cfg = _vacuum_config(
            kind=kind,
            state={"mean": [1e308, 0.0], "cov": [[cov, 0.0], [0.0, cov]]},
            mu_grid=mu_grid,
            samples=4096,
            seed=1,
        )
        if kind == "oqho_sweep":
            cfg.update(model={"R": [[1.0, 0.0], [0.0, 1.0]], "N": [[1.0, 0.0], [0.0, 1.0]]},
                       t_grid=[0.0, 1.0])
        report, code = run(parse_config(json.dumps(cfg)))
        assert code == 2
        assert len(report.rows) == len(mu_grid) * (2 if kind == "oqho_sweep" else 1)
        for row in report.rows:
            assert row.status == "numerical_error"
            assert all(getattr(row, name) is None for name in CSV_COLUMNS[2:-1])

    @pytest.mark.parametrize("ccr", [[1.7e308], [[0.0, 1.7e308], [-1.7e308, 0.0]]],
                             ids=["frequency-list", "matrix-literal"])
    def test_huge_frequency_finishes_every_kind_quietly(self, ccr, tmp_path):
        # Theta and the covariance lie above half the double range, where
        # canonicalising as 0.5 * (a -+ a^T) overflowed.  Every kind now
        # finishes with no warning, through the command line to its CSV, and
        # flags what it cannot resolve; the exact row at mu = 1e-320 is ok,
        # about mu (tr C)/2.
        base = _vacuum_config(ccr=ccr, mu_grid=[1e-320, 1e-300, 0.1], samples=1000,
                              state={"mean": [0, 0], "cov": [[1.75e308, 0], [0, 1.75e308]]},
                              model={"R": [[1, 0], [0, 1]], "N": [[1, 0], [0, 1]]}, t_grid=[0, 1])
        config_path, out_path = tmp_path / "huge.json", tmp_path / "huge.csv"
        for kind in qembound.cli.KINDS:
            cfg = {key: value for key, value in base.items()
                   if kind == "oqho_sweep" or key not in ("model", "t_grid")}
            config_path.write_text(json.dumps(dict(cfg, kind=kind)))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = main(["run", str(config_path), "--output", str(out_path)])
            report = BoundReport.read_csv(str(out_path))
            assert code == 2 and all(row.status in STATUSES for row in report.rows)
            if kind == "gaussian_exact":
                first, *rest = report.rows
                assert first.status == "ok"
                assert first.upsilon_exact == pytest.approx(first.mu * 1.75e308, rel=1e-12)
                assert [row.status for row in rest] == ["infeasible_mu"] * 2

    @pytest.mark.parametrize("overrides, message", [
        ({"ccr": [[0.0, 1.7e308], [1.7e308, 0.0]]},
         r"invalid ccr: max \|theta \+ theta\^T\| = 3\.400e\+308 exceeds"),
        ({"state": {"mean": [0, 0], "cov": [[1.7e308, 1.7e308], [-1.7e308, 1.7e308]]}},
         "invalid state: covariance is not symmetric within tolerance"),
    ], ids=["ccr", "cov"])
    def test_huge_asymmetry_is_a_config_error(self, overrides, message, tmp_path):
        # The sums a + a^T and a - a^T of these inputs overflow; the symmetry
        # checks read the halved sums, so both configs are rejected quietly.
        doc = _vacuum_config(mu_grid=[0.1], **overrides)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigParse, match=message):
                parse_config(json.dumps(doc))
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        src = str(Path(qembound.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        command = [sys.executable, "-W", "error", "-m", "qembound.cli", "run", str(path)]
        proc = subprocess.run(command, capture_output=True, text=True, env=env, timeout=600)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
        assert proc.stderr.startswith("error: invalid ")

    def test_tiny_ccr_bound_matches_exact(self):
        # mu * theta = 1e-201 must not cancel in the bound's ln sinh; for a
        # centered Gaussian with C = I the scalar optimum is exact.
        cfg = _vacuum_config(ccr=[1e-200], mu_grid=[0.1, 0.5])
        exact, code = run(parse_config(json.dumps(cfg)))
        assert code == 0
        bound, code = run(parse_config(json.dumps(dict(cfg, kind="upper_bound"))))
        assert code == 0
        for b, e in zip(bound.rows, exact.rows):
            assert b.status == "ok"
            assert b.upsilon_bound == pytest.approx(e.upsilon_exact, abs=1e-12)

    @pytest.mark.parametrize("freq", [1.0, 0.5])
    @pytest.mark.parametrize("kind", ["upper_bound", "oqho_sweep"])
    def test_subnormal_mu_flags_its_rows(self, kind, freq):
        # At a subnormal mu the scalar weight limit theta/tanh(mu theta)
        # overflows (or divides by zero); those rows are flagged and the
        # sweep goes on to mu = 0.1.
        cfg = _vacuum_config(kind=kind, ccr=[freq], mu_grid=[5e-324, 1e-310, 0.1])
        if kind == "oqho_sweep":
            cfg.update(model={"R": [[1.0, 0.0], [0.0, 1.0]], "N": [[1.0, 0.0], [0.0, 1.0]]},
                       t_grid=[0.0, 1.0])
        report, code = run(parse_config(json.dumps(cfg)))
        assert code == 2
        assert [r.status for r in report.rows] == (
            ["numerical_error", "numerical_error", "ok"] * (2 if kind == "oqho_sweep" else 1))
        for row in report.rows:
            assert (row.upsilon_bound is None) == (row.status != "ok")

    def test_mc_rows_past_mu_var_have_no_error_bar(self):
        # cov 3 I on ccr [1]: mu * rho(C K(mu)) = 3 tanh(mu), so the MC
        # variance is infinite from mu_var = artanh(1/6) ~ 0.168 and the
        # moment from mu* = artanh(1/3) ~ 0.347.
        cfg = _vacuum_config(
            kind="randomized_mc",
            state={"mean": [0.5, 0.0], "cov": [[3.0, 0.0], [0.0, 3.0]]},
            mu_grid=[0.1, 0.25],
            samples=20000,
            seed=1,
        )
        report, code = run(parse_config(json.dumps(cfg)))
        assert code == 2
        ok, past_var = report.rows
        assert ok.status == "ok" and ok.mc_se > 0.0
        assert past_var.status == "infinite_variance"
        assert past_var.upsilon_mc is not None
        assert past_var.mc_se is None


# Blocks scipy before qembound is imported, runs one scenario of every kind
# and then the oracle checks; exits nonzero if any of them fails.
NUMPY_ONLY_SCRIPT = """
import json, sys
sys.modules["scipy"] = None
from qembound.cli import main, parse_config, run
for doc in json.loads(sys.argv[1]):
    report, code = run(parse_config(json.dumps(doc)))
    assert code == 0 and report.rows, doc["kind"]
sys.exit(main(["verify", "--quick"]))
"""


def test_runs_without_scipy():
    model = {"R": [[0.0, 0.0], [0.0, 0.0]], "N": [[1.0, 0.0], [0.0, 1.0]]}
    docs = [_vacuum_config(kind=kind, mu_grid=[0.2, 0.4], samples=4096)
            for kind in ("gaussian_exact", "randomized_mc", "upper_bound", "tail")]
    docs.append(_vacuum_config(kind="oqho_sweep", mu_grid=[0.2, 0.4], model=model,
                               t_grid=[0.0, 0.5]))
    src = str(Path(qembound.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", NUMPY_ONLY_SCRIPT, json.dumps(docs)],
                          capture_output=True, text=True, env=env, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert "[FAIL]" not in proc.stdout


def _four_component_mc_doc():
    """randomized_mc at n = 8 with four components, its mu grid below mu_var."""
    rng = np.random.default_rng(14)
    freqs = [1.0, 1.5, 2.0, 2.5]
    comps = []
    for _ in range(4):
        w = rng.normal(scale=0.5, size=(8, 8))
        comps.append({"mean": rng.normal(scale=0.3, size=8).tolist(),
                      "cov": (w @ w.T + 2.5 * np.eye(8)).tolist()})
    doc = {"kind": "randomized_mc", "ccr": freqs,
           "state": {"weights": [0.25] * 4, "components": comps},
           "mu_grid": [0.01, 0.02], "samples": qembound.sampling.BLOCK_SIZE + 1, "seed": 3}
    return doc


def test_mc_rows_do_not_depend_on_blas_threads():
    # MC draws are bit-reproducible for a fixed seed however the BLAS
    # splits its work; two blocks and four components run here.
    doc = _four_component_mc_doc()
    report, code = run(parse_config(json.dumps(doc)))
    assert code == 0 and all(row.mc_se is not None for row in report.rows)
    src = str(Path(qembound.__file__).resolve().parents[1])
    script = "import sys; from qembound.cli import main; sys.exit(main(sys.argv[1:]))"
    outputs = []
    with_path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=with_path, OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", script, "run", "/dev/stdin"],
                              input=json.dumps(doc).encode(), capture_output=True, env=env,
                              timeout=600)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1] == report.to_csv_text().encode()
