"""Config-driven command-line front end.

Scenarios are JSON documents with a strict schema; sweeps over the risk
sensitivity mu (and horizon t) are evaluated in order and written as CSV
reports with a fixed column set.  Per-point infeasibility never aborts a
sweep: the row is flagged with a status and the sweep continues.

Commands:
    qembound run <config.json> [--output PATH] [--seed U64] [--samples N]
    qembound verify [--quick]
"""

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import classical, oqho, qem
from .ccr import J2, CcrMatrix, symplectic_eigenbasis, validate_ccr
from .errors import (
    ConfigParse,
    EmptyFeasibleWindow,
    EmptyInterval,
    NormDivergent,
    QemBoundError,
    RiskParameterTooLarge,
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
STATUS_NUMERICAL = "numerical_error"
STATUS_INFINITE_VARIANCE = "infinite_variance"

#: Status of a cell whose evaluation raised; the first matching class wins,
#: so any other library error reads as a numerical fault.
ERROR_STATUS = (
    (RiskParameterTooLarge, STATUS_INFEASIBLE),
    ((EmptyFeasibleWindow, EmptyInterval), STATUS_EMPTY),
    (NormDivergent, STATUS_DIVERGENT),
    (QemBoundError, STATUS_NUMERICAL),
)

KINDS = ("gaussian_exact", "randomized_mc", "upper_bound", "tail", "oqho_sweep", "verify")

_BASE_KEYS = {"kind", "samples", "seed", "output"}
_STATE_KEYS = _BASE_KEYS | {"ccr", "state", "mu_grid"}
_ALLOWED_KEYS = {kind: _STATE_KEYS for kind in KINDS} | {
    "oqho_sweep": _STATE_KEYS | {"model", "t_grid"},
    "verify": _BASE_KEYS,
}

DEFAULT_SAMPLES = 100000
DEFAULT_SEED = 42

#: What a config value of the wrong shape, type or size raises on its way
#: into a library object (an integer past the double range raises
#: OverflowError); the parser reports each as ConfigParse.
_BAD_VALUE = (QemBoundError, ValueError, TypeError, OverflowError)


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
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for r in self.rows:
            writer.writerow([_fmt(getattr(r, name)) for name in CSV_COLUMNS[:-1]] + [r.status])
        return buffer.getvalue()

    @classmethod
    def from_csv_text(cls, text: str) -> "BoundReport":
        lines = [row for row in csv.reader(io.StringIO(text)) if row]
        if not lines or tuple(lines[0]) != CSV_COLUMNS:
            raise ConfigParse("unrecognized report header")
        rows = []
        for parts in lines[1:]:
            if len(parts) != len(CSV_COLUMNS):
                raise ConfigParse(f"malformed report row: {','.join(parts)!r}")
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
    ccr: CcrMatrix | None = None
    state: GaussianState | MixtureMgf | None = None
    model: oqho.OqhoModel | None = None
    mu_grid: tuple = ()
    t_grid: tuple | None = None
    samples: int = DEFAULT_SAMPLES
    seed: int = DEFAULT_SEED
    output: str | None = None


def _require(cond, message):
    if not cond:
        raise ConfigParse(message)


def _parse_grid(raw, name, *, positive):
    _require(isinstance(raw, list) and raw, f"{name} must be a nonempty list")
    # Exact comparison keeps NaN, infinities and integers past the double
    # range out, so float() below neither overflows nor yields inf.
    _require(all(isinstance(x, (int, float)) and not isinstance(x, bool)
                 and abs(x) <= sys.float_info.max for x in raw),
             f"{name} must contain finite numbers")
    grid = [float(x) for x in raw]
    _require(all(x > 0.0 for x in grid) if positive else all(x >= 0.0 for x in grid),
             f"{name} entries must be {'positive' if positive else 'nonnegative'}")
    _require(all(a < b for a, b in zip(grid, grid[1:])), f"{name} must be strictly increasing")
    return tuple(grid)


def _parse_ccr(raw):
    _require(isinstance(raw, list) and raw, "ccr must be a nonempty list")
    if all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in raw):
        _require(all(0 < x <= sys.float_info.max for x in raw),
                 "ccr eigenfrequencies must be finite and positive")
        theta = np.kron(np.diag([float(f) for f in raw]), J2)
    else:
        theta = raw
    try:
        return validate_ccr(theta)
    except _BAD_VALUE as exc:
        raise ConfigParse(f"invalid ccr: {exc}") from exc


def _parse_gaussian(raw, ccr):
    _require(isinstance(raw, dict), "state component must be an object")
    unknown = set(raw) - {"mean", "cov"}
    _require(not unknown, f"unknown state keys: {sorted(unknown)}")
    _require("mean" in raw and "cov" in raw, "state component needs 'mean' and 'cov'")
    try:
        return GaussianState(mean=np.asarray(raw["mean"], dtype=float),
                             cov=np.asarray(raw["cov"], dtype=float), ccr=ccr)
    except _BAD_VALUE as exc:
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
        except _BAD_VALUE as exc:
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
    except _BAD_VALUE as exc:
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
    _require(isinstance(samples, int) and not isinstance(samples, bool) and samples >= 2,
             "samples must be an integer >= 2")
    seed = raw.get("seed", DEFAULT_SEED)
    _require(isinstance(seed, int) and not isinstance(seed, bool) and 0 <= seed < 2**64,
             "seed must be a 64-bit unsigned integer")
    output = raw.get("output")
    _require(output is None or isinstance(output, str), "output must be a string path")

    if kind == "verify":
        return ScenarioConfig(kind=kind, samples=samples, seed=seed, output=output)

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


def _row_seed(seed, index):
    return int(np.random.SeedSequence(seed, spawn_key=(index,)).generate_state(1, np.uint64)[0])


def _attempt(compute):
    """(compute(), "ok"), or (None, ERROR_STATUS's status for the error it raised)."""
    try:
        return compute(), STATUS_OK
    except QemBoundError as exc:
        return None, next(s for cls, s in ERROR_STATUS if isinstance(exc, cls))


def _cell(compute, mu, t=None, status=STATUS_OK):
    """Report row from compute(), a dict of value columns (None for blank).
    An error, or any non-finite value, flags the row and blanks its values."""
    values, error = _attempt(compute)
    if values is None:
        return _row(t=t, mu=mu, status=error)
    if not all(math.isfinite(v) for v in values.values() if v is not None):
        return _row(t=t, mu=mu, status=STATUS_NUMERICAL)
    return _row(t=t, mu=mu, status=status, **values)


def _exact_row(engine, mu):
    return _cell(lambda: {"upsilon_exact": engine.cgf(mu)}, mu)


def _mc_row(config, engine, mu, seed):
    # One eigvalsh gives mu * rho(C K(mu)).  From 1 the moment is infinite
    # (the cached mu* keeps a saturated contraction gap from reading so);
    # from 1/2 the estimator's variance is, so no error bar is printed.
    radius = engine.radius(mu)
    if radius >= 1.0 and mu >= engine.mu_star:
        return _row(mu=mu, status=STATUS_INFEASIBLE)
    finite_variance = radius < 0.5

    def values():
        value = qem.qem_randomized_mc(config.state, engine.basis, mu, config.samples, seed)
        se = value.rel_std_error if finite_variance else None
        return {"upsilon_mc": value.log_qem, "mc_se": se}

    return _cell(values, mu, status=STATUS_OK if finite_variance else STATUS_INFINITE_VARIANCE)


def _bound_values(engine, mu):
    value, lam = engine.bound(mu)
    return {"upsilon_bound": value.log_qem, "lambda_opt": lam}


def _bound_row(engine, mu):
    return _cell(lambda: _bound_values(engine, mu), mu)


def _tail_values(engine, mu):
    # One threshold-bound pair per mu from the analytic CGF slope:
    # ln P(Q >= 2 Upsilon'(mu)) <= Upsilon(mu) - mu Upsilon'(mu).  The
    # slope doubles as the eps column.
    upsilon, slope = engine.cgf_and_slope(mu)
    return {"upsilon_exact": upsilon, "tail_eps": slope,
            "tail_log_bound": min(0.0, upsilon - mu * slope)}


def _tail_row(engine, mu, mu_max):
    if mu >= mu_max:
        return _row(mu=mu, status=STATUS_INFEASIBLE)
    return _cell(lambda: _tail_values(engine, mu), mu)


def _oqho_cell(engine, mu):
    return _cell(lambda: _bound_values(engine, mu), mu, t=engine.t)


def _horizon_rows(config, basis, t):
    # The engine is built when the sweep reaches its horizon, so a fault
    # there flags this horizon's rows and the sweep goes on.
    engine, status = _attempt(lambda: oqho.HorizonBoundEngine(config.state, config.model, t, basis))
    if engine is None:
        return [_row(t=t, mu=mu, status=status) for mu in config.mu_grid]
    return [_oqho_cell(engine, mu) for mu in config.mu_grid]


def run(config: ScenarioConfig):
    """Execute a scenario; returns (BoundReport, exit_code).

    Exit code 0 when every row is ok, 2 when any row is not.  Rows are
    ordered by (t, mu).
    """
    if config.kind == "verify":
        checks = verify_checks(config.samples, config.seed)
        for name, passed, detail in checks:
            print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
        ok = all(passed for _, passed, _ in checks)
        return BoundReport(rows=()), 0 if ok else 2

    basis = symplectic_eigenbasis(config.ccr)
    mus = config.mu_grid
    # Overflow warnings are not printed: _cell flags every non-finite value.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if config.kind == "oqho_sweep":
            rows = [row for t in config.t_grid for row in _horizon_rows(config, basis, t)]
        elif config.kind == "upper_bound":
            engine = qem.ScalarBoundEngine(config.state, basis)
            rows = [_bound_row(engine, mu) for mu in mus]
        else:
            engine = qem.ExactEngine(config.state, basis)
            if config.kind == "tail":
                mu_max = engine.mu_max()
                rows = [_tail_row(engine, mu, mu_max) for mu in mus]
            elif config.kind == "randomized_mc":
                # Only Monte-Carlo rows draw samples, so only they get a row seed.
                rows = [_mc_row(config, engine, mu, _row_seed(config.seed, i))
                        for i, mu in enumerate(mus)]
            else:
                rows = [_exact_row(engine, mu) for mu in mus]

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
        _, code = run(ScenarioConfig(kind="verify", samples=samples))
        return code

    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 1
    try:
        config = parse_config(text)
        if args.seed is not None:
            _require(0 <= args.seed < 2**64, "--seed must be a 64-bit unsigned integer")
            config = replace(config, seed=args.seed)
        if args.samples is not None:
            _require(args.samples >= 2, "--samples must be at least 2")
            config = replace(config, samples=args.samples)
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
