"""Config-driven command-line front end.

Scenarios are JSON documents with a strict schema; sweeps over the risk
sensitivity mu (and horizon t) are dispatched to a worker pool and written
as CSV reports with a fixed column set.  Per-point infeasibility never
aborts a sweep: the row is flagged with a status and the sweep continues.

Commands:
    qembound run <config.json> [--output PATH] [--seed U64] [--samples N]
    qembound verify [--quick]

The QEMBOUND_THREADS environment variable caps the worker pool.
"""

import argparse
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import classical, oqho, qem
from .ccr import J2, CcrMatrix, symplectic_eigenbasis, validate_ccr
from .errors import (
    ConfigParse,
    EmptyFeasibleWindow,
    EmptyInterval,
    NormDivergent,
    QemBoundError,
    RiskParameterTooLarge,
    StepTooLargeNearBoundary,
    SuspectedDivergence,
)
from .states import GaussianState, MixtureMgf

CSV_COLUMNS = (
    "t",
    "mu",
    "upsilon_exact",
    "upsilon_mc",
    "mc_se",
    "upsilon_bound",
    "lambda_opt",
    "tail_eps",
    "tail_log_bound",
    "status",
)

STATUS_OK = "ok"
STATUS_INFEASIBLE = "infeasible_mu"
STATUS_EMPTY = "empty_interval"
STATUS_DIVERGENT = "divergent_norm"

KINDS = ("gaussian_exact", "randomized_mc", "upper_bound", "tail", "oqho_sweep", "verify")

_ALLOWED_KEYS = {
    "gaussian_exact": {"kind", "ccr", "state", "mu_grid", "samples", "seed", "output"},
    "randomized_mc": {"kind", "ccr", "state", "mu_grid", "samples", "seed", "output"},
    "upper_bound": {"kind", "ccr", "state", "mu_grid", "samples", "seed", "output"},
    "tail": {"kind", "ccr", "state", "mu_grid", "samples", "seed", "output"},
    "oqho_sweep": {"kind", "ccr", "state", "model", "mu_grid", "t_grid", "samples", "seed", "output"},
    "verify": {"kind", "samples", "seed", "output"},
}

DEFAULT_SAMPLES = 100000
DEFAULT_SEED = 42


@dataclass(frozen=True)
class ReportRow:
    t: float | None
    mu: float | None
    upsilon_exact: float | None
    upsilon_mc: float | None
    mc_se: float | None
    upsilon_bound: float | None
    lambda_opt: float | None
    tail_eps: float | None
    tail_log_bound: float | None
    status: str


def _row(status=STATUS_OK, **kwargs):
    values = {name: None for name in CSV_COLUMNS[:-1]}
    values.update(kwargs)
    return ReportRow(status=status, **values)


def _fmt(value):
    return "" if value is None else format(value, ".17g")


@dataclass(frozen=True)
class BoundReport:
    """Ordered sweep results; serializes to and from the fixed CSV layout."""

    rows: tuple

    def to_csv_text(self) -> str:
        lines = [",".join(CSV_COLUMNS)]
        for r in self.rows:
            lines.append(
                ",".join(
                    [
                        _fmt(r.t),
                        _fmt(r.mu),
                        _fmt(r.upsilon_exact),
                        _fmt(r.upsilon_mc),
                        _fmt(r.mc_se),
                        _fmt(r.upsilon_bound),
                        _fmt(r.lambda_opt),
                        _fmt(r.tail_eps),
                        _fmt(r.tail_log_bound),
                        r.status,
                    ]
                )
            )
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv_text(cls, text: str) -> "BoundReport":
        lines = [ln for ln in text.splitlines() if ln]
        if not lines or lines[0] != ",".join(CSV_COLUMNS):
            raise ConfigParse("unrecognized report header")
        rows = []
        for ln in lines[1:]:
            parts = ln.split(",")
            if len(parts) != len(CSV_COLUMNS):
                raise ConfigParse(f"malformed report row: {ln!r}")
            vals = [None if p == "" else float(p) for p in parts[:-1]]
            rows.append(ReportRow(*vals, status=parts[-1]))
        return cls(rows=tuple(rows))

    def write_csv(self, path: str):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(self.to_csv_text())

    @classmethod
    def read_csv(cls, path: str) -> "BoundReport":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_csv_text(fh.read())


@dataclass(frozen=True)
class ScenarioConfig:
    kind: str
    ccr: CcrMatrix | None
    state: GaussianState | MixtureMgf | None
    model: oqho.OqhoModel | None
    mu_grid: tuple
    t_grid: tuple | None
    samples: int
    seed: int
    output: str | None


def _require(cond, message):
    if not cond:
        raise ConfigParse(message)


def _parse_grid(raw, name, *, positive):
    _require(isinstance(raw, list) and raw, f"{name} must be a nonempty list")
    try:
        grid = [float(x) for x in raw]
    except (TypeError, ValueError):
        raise ConfigParse(f"{name} must contain numbers") from None
    low = 0.0 if positive else -math.inf
    _require(all(x > low for x in grid) if positive else all(x >= 0.0 for x in grid),
             f"{name} entries must be {'positive' if positive else 'nonnegative'}")
    _require(all(a < b for a, b in zip(grid, grid[1:])), f"{name} must be strictly increasing")
    return tuple(grid)


def _parse_ccr(raw):
    _require(isinstance(raw, list) and raw, "ccr must be a nonempty list")
    if all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in raw):
        _require(all(x > 0 for x in raw), "ccr eigenfrequencies must be positive")
        theta = scipy.linalg.block_diag(*[float(f) * J2 for f in raw])
    else:
        theta = raw
    try:
        return validate_ccr(theta)
    except QemBoundError as exc:
        raise ConfigParse(f"invalid ccr: {exc}") from exc


def _parse_gaussian(raw, ccr):
    _require(isinstance(raw, dict), "state component must be an object")
    unknown = set(raw) - {"mean", "cov"}
    _require(not unknown, f"unknown state keys: {sorted(unknown)}")
    _require("mean" in raw and "cov" in raw, "state component needs 'mean' and 'cov'")
    try:
        return GaussianState(mean=np.asarray(raw["mean"], dtype=float),
                             cov=np.asarray(raw["cov"], dtype=float), ccr=ccr)
    except (QemBoundError, ValueError) as exc:
        raise ConfigParse(f"invalid state: {exc}") from exc


def _parse_state(raw, ccr):
    _require(isinstance(raw, dict), "state must be an object")
    if "weights" in raw:
        unknown = set(raw) - {"weights", "components"}
        _require(not unknown, f"unknown state keys: {sorted(unknown)}")
        _require("components" in raw, "mixture state needs 'components'")
        comps = raw["components"]
        _require(isinstance(comps, list) and comps, "components must be a nonempty list")
        try:
            return MixtureMgf(
                weights=tuple(float(w) for w in raw["weights"]),
                components=tuple(_parse_gaussian(c, ccr) for c in comps),
            )
        except (QemBoundError, ValueError) as exc:
            raise ConfigParse(f"invalid mixture: {exc}") from exc
    return _parse_gaussian(raw, ccr)


def _parse_model(raw, ccr):
    _require(isinstance(raw, dict), "model must be an object")
    unknown = set(raw) - {"R", "N"}
    _require(not unknown, f"unknown model keys: {sorted(unknown)}")
    _require("R" in raw and "N" in raw, "model needs 'R' and 'N'")
    try:
        return oqho.OqhoModel(R=np.asarray(raw["R"], dtype=float),
                              N=np.asarray(raw["N"], dtype=float), ccr=ccr)
    except QemBoundError as exc:
        raise ConfigParse(f"invalid model: {exc}") from exc


def parse_config(text: str) -> ScenarioConfig:
    """Parse and validate a JSON scenario document.

    The schema is strict: unknown keys are rejected by name, grids must be
    nonempty and strictly increasing, and all referenced dimensions must be
    mutually consistent.  Defaults: samples=100000, seed=42.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigParse(f"invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    _require(isinstance(raw, dict), "config must be a JSON object")
    kind = raw.get("kind")
    _require(kind in KINDS, f"kind must be one of {list(KINDS)}, got {kind!r}")
    unknown = set(raw) - _ALLOWED_KEYS[kind]
    _require(not unknown, f"unknown config keys for kind {kind!r}: {sorted(unknown)}")

    samples = raw.get("samples", DEFAULT_SAMPLES)
    _require(isinstance(samples, int) and not isinstance(samples, bool) and samples > 0,
             "samples must be a positive integer")
    seed = raw.get("seed", DEFAULT_SEED)
    _require(isinstance(seed, int) and not isinstance(seed, bool) and 0 <= seed < 2**64,
             "seed must be a 64-bit unsigned integer")
    output = raw.get("output")
    _require(output is None or isinstance(output, str), "output must be a string path")

    if kind == "verify":
        return ScenarioConfig(kind=kind, ccr=None, state=None, model=None,
                              mu_grid=(), t_grid=None, samples=samples,
                              seed=seed, output=output)

    _require("ccr" in raw, "missing required key 'ccr'")
    _require("state" in raw, "missing required key 'state'")
    _require("mu_grid" in raw, "missing required key 'mu_grid'")
    ccr = _parse_ccr(raw["ccr"])
    state = _parse_state(raw["state"], ccr)
    mu_grid = _parse_grid(raw["mu_grid"], "mu_grid", positive=True)

    model = None
    t_grid = None
    if kind == "oqho_sweep":
        _require("model" in raw, "missing required key 'model'")
        _require("t_grid" in raw, "missing required key 't_grid'")
        model = _parse_model(raw["model"], ccr)
        t_grid = _parse_grid(raw["t_grid"], "t_grid", positive=False)

    return ScenarioConfig(kind=kind, ccr=ccr, state=state, model=model,
                          mu_grid=mu_grid, t_grid=t_grid, samples=samples,
                          seed=seed, output=output)


def _thread_count():
    raw = os.environ.get("QEMBOUND_THREADS")
    cap = min(8, os.cpu_count() or 1)
    if raw:
        try:
            cap = max(1, int(raw))
        except ValueError:
            raise ConfigParse(f"QEMBOUND_THREADS must be an integer, got {raw!r}") from None
    return cap


def _row_seed(seed, index):
    return int(np.random.SeedSequence(seed, spawn_key=(index,)).generate_state(1, np.uint64)[0])


def _exact_row(config, basis, mu, _seed):
    try:
        value = qem.qem_exact(config.state, basis, mu)
    except RiskParameterTooLarge:
        return _row(mu=mu, status=STATUS_INFEASIBLE)
    return _row(mu=mu, upsilon_exact=value.log_qem)


def _mc_row(config, basis, mu, seed):
    value = qem.qem_randomized_mc(config.state, basis, mu, config.samples, seed)
    return _row(mu=mu, upsilon_mc=value.log_qem, mc_se=value.rel_std_error)


def _bound_row(config, basis, mu, _seed):
    try:
        value, lam = qem.qem_upper_bound_scalar_opt(config.state, basis, mu)
    except EmptyFeasibleWindow:
        return _row(mu=mu, status=STATUS_EMPTY)
    except NormDivergent:
        return _row(mu=mu, status=STATUS_DIVERGENT)
    return _row(mu=mu, upsilon_bound=value.log_qem, lambda_opt=lam)


def _tail_row(config, basis, mu, _seed, cgf, mu_max):
    # One threshold-bound pair per mu from the CGF slope; the threshold
    # doubles as the eps column.
    if mu >= mu_max:
        return _row(mu=mu, status=STATUS_INFEASIBLE)
    step = min(1e-6 * max(1.0, mu), 0.5 * mu, 0.5 * (mu_max - mu))
    try:
        threshold, log_bound = qem.tail_bound_bregman(cgf, mu, step, mu_max)
        upsilon = cgf(mu)
    except (RiskParameterTooLarge, StepTooLargeNearBoundary):
        return _row(mu=mu, status=STATUS_INFEASIBLE)
    return _row(mu=mu, upsilon_exact=upsilon, tail_eps=0.5 * threshold,
                tail_log_bound=min(0.0, log_bound))


def _oqho_cell(config, basis, t, mu, _seed):
    try:
        value, lam = oqho.qem_bound_time(config.state, config.model, mu, t, basis=basis)
    except EmptyInterval:
        return _row(t=t, mu=mu, status=STATUS_EMPTY)
    except NormDivergent:
        return _row(t=t, mu=mu, status=STATUS_DIVERGENT)
    return _row(t=t, mu=mu, upsilon_bound=value.log_qem, lambda_opt=lam)


def run(config: ScenarioConfig):
    """Execute a scenario; returns (BoundReport, exit_code).

    Exit code 0 when every row is ok, 2 when any row is infeasible.  Rows
    are ordered by (t, mu) regardless of worker completion order.
    """
    if config.kind == "verify":
        checks = verify_checks(config.samples, config.seed)
        for name, passed, detail in checks:
            print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
        ok = all(passed for _, passed, _ in checks)
        return BoundReport(rows=()), 0 if ok else 2

    basis = symplectic_eigenbasis(config.ccr)
    tasks = []
    if config.kind == "oqho_sweep":
        for t in config.t_grid:
            for mu in config.mu_grid:
                tasks.append((t, mu))
        runner = lambda cell, seed: _oqho_cell(config, basis, cell[0], cell[1], seed)
    else:
        per_row = {
            "gaussian_exact": _exact_row,
            "randomized_mc": _mc_row,
            "upper_bound": _bound_row,
        }
        if config.kind == "tail":
            cgf, mu_max = qem.exact_cgf(config.state, basis)
            runner = lambda cell, seed: _tail_row(config, basis, cell, seed, cgf, mu_max)
        else:
            fn = per_row[config.kind]
            runner = lambda cell, seed: fn(config, basis, cell, seed)
        tasks = list(config.mu_grid)

    seeds = [_row_seed(config.seed, i) for i in range(len(tasks))]
    rows = [None] * len(tasks)
    with ThreadPoolExecutor(max_workers=_thread_count()) as pool:
        futures = {
            pool.submit(runner, cell, seeds[i]): i for i, cell in enumerate(tasks)
        }
        for fut, i in futures.items():
            rows[i] = fut.result()
    report = BoundReport(rows=tuple(rows))
    code = 0 if all(r.status == STATUS_OK for r in report.rows) else 2
    return report, code


def verify_checks(samples: int = DEFAULT_SAMPLES, seed: int = DEFAULT_SEED):
    """Run the commutative-oracle verification suite.

    Returns a list of (name, passed, detail) covering the randomized moment
    identity, divergence detection, Chernoff dominance of empirical tails,
    and convergence of the quantum closed form to the classical one as the
    commutation matrix is scaled to zero.
    """
    results = []
    rng = np.random.default_rng(seed)

    for case in range(4):
        mean = rng.normal(scale=0.7, size=2)
        root = rng.normal(size=(2, 2))
        cov = root @ root.T / 2.0 + 0.2 * np.eye(2)
        g = classical.ClassicalGaussian(mean=mean, cov=cov)
        mu = 0.6 / float(np.linalg.eigvalsh(cov)[-1])
        check = classical.randomized_identity_check(g, mu, samples, seed + case)
        results.append(
            (
                f"moment-identity-{case}",
                check.passed,
                f"lhs={check.log_lhs:.6f} rhs={check.log_rhs:.6f} se={check.combined_se:.2g}",
            )
        )

    g1 = classical.ClassicalGaussian(mean=[0.0], cov=[[1.0]])
    try:
        classical.classical_qem_mc(g1, 1.5, samples, seed)
        results.append(("divergence-detection", False, "supercritical mu not flagged"))
    except SuspectedDivergence:
        results.append(("divergence-detection", True, "supercritical mu flagged"))

    def cgf(mu):
        return classical.classical_gaussian_qem(g1, mu)

    dominated = True
    details = []
    for eps in (0.5, 1.0, 2.0, 4.0):
        bound = qem.tail_bound(cgf, eps, mu_max=0.999)
        p_hat, se = classical.empirical_tail(g1, eps, samples, seed)
        ok = p_hat <= math.exp(bound.log_prob_bound) + 3.0 * se
        dominated = dominated and ok
        details.append(f"eps={eps}: p={p_hat:.4g} bound={math.exp(bound.log_prob_bound):.4g}")
    results.append(("chernoff-dominance", dominated, "; ".join(details)))

    gaps = []
    for eta in (1e-1, 1e-2, 1e-3):
        ccr = validate_ccr(eta * J2)
        basis = symplectic_eigenbasis(ccr)
        state = GaussianState(mean=[1.0, -0.5], cov=np.diag([0.8, 0.5]), ccr=ccr)
        quantum = qem.qem_gaussian_exact(state, basis, 0.5).log_qem
        cl = classical.classical_gaussian_qem(
            classical.ClassicalGaussian(mean=[1.0, -0.5], cov=np.diag([0.8, 0.5])), 0.5
        )
        gaps.append(abs(quantum - cl))
    ratios = [gaps[0] / gaps[1], gaps[1] / gaps[2]]
    ok = all(80.0 <= r <= 120.0 for r in ratios)
    results.append(
        ("classical-limit", ok, f"gap ratios per decade: {ratios[0]:.1f}, {ratios[1]:.1f}")
    )
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="qembound",
        description="Quadratic-exponential moment bounds for linear quantum stochastic systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_parser = sub.add_parser("run", help="execute a JSON scenario and emit a CSV report")
    run_parser.add_argument("config", help="path to the scenario JSON document")
    run_parser.add_argument("--output", help="CSV output path (overrides config)")
    run_parser.add_argument("--seed", type=int, help="seed override")
    run_parser.add_argument("--samples", type=int, help="sample-count override")
    verify_parser = sub.add_parser("verify", help="run the commutative-oracle checks")
    verify_parser.add_argument("--quick", action="store_true", help="smaller sample counts")
    args = parser.parse_args(argv)

    if args.command == "verify":
        samples = 20000 if args.quick else DEFAULT_SAMPLES
        config = ScenarioConfig(kind="verify", ccr=None, state=None, model=None,
                                mu_grid=(), t_grid=None, samples=samples,
                                seed=DEFAULT_SEED, output=None)
        _, code = run(config)
        return code

    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 1
    try:
        config = parse_config(text)
        if args.seed is not None or args.samples is not None:
            overrides = {}
            if args.seed is not None:
                if not 0 <= args.seed < 2**64:
                    raise ConfigParse("--seed must be a 64-bit unsigned integer")
                overrides["seed"] = args.seed
            if args.samples is not None:
                if args.samples <= 0:
                    raise ConfigParse("--samples must be positive")
                overrides["samples"] = args.samples
            config = ScenarioConfig(
                kind=config.kind, ccr=config.ccr, state=config.state,
                model=config.model, mu_grid=config.mu_grid, t_grid=config.t_grid,
                samples=overrides.get("samples", config.samples),
                seed=overrides.get("seed", config.seed), output=config.output,
            )
        report, code = run(config)
    except ConfigParse as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    destination = args.output or config.output
    try:
        if destination:
            report.write_csv(destination)
        elif config.kind != "verify":
            sys.stdout.write(report.to_csv_text())
    except OSError as exc:
        print(f"error: cannot write report: {exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
