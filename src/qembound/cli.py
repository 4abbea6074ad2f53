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
from typing import NamedTuple

import numpy as np

from . import classical, oqho, qem
from .ccr import J2, CcrMatrix, _diag_kron_j2, symplectic_eigenbasis, validate_ccr
from .errors import ConfigParse, QemBoundError, SuspectedDivergence
from .qem import STATUS_INFINITE_VARIANCE, STATUS_NUMERICAL, STATUS_OK, STATUSES
from .sampling import check_samples, check_seed
from .states import GaussianState, MixtureMgf

#: Config keys every kind requires, and those every kind takes ("kind" is
#: checked first, the others are optional); _KINDS adds a kind's own keys.
_STATE_KEYS = ("ccr", "state", "mu_grid")
_COMMON_KEYS = ("kind", "samples", "seed", "output")

DEFAULT_SAMPLES = 100000
DEFAULT_SEED = 42

#: What a config value of the wrong shape, type or size raises on its way
#: into a library object (an integer past the double range raises
#: OverflowError); the parser reports each as ConfigParse.
_BAD_VALUE = (QemBoundError, ValueError, TypeError, OverflowError)


class ReportRow(NamedTuple):
    t: float | None = None
    mu: float | None = None
    upsilon_exact: float | None = None
    upsilon_mc: float | None = None
    mc_se: float | None = None
    upsilon_bound: float | None = None
    lambda_opt: float | None = None
    tail_eps: float | None = None
    tail_log_bound: float | None = None
    status: str = STATUS_OK


CSV_COLUMNS = ReportRow._fields


@dataclass(frozen=True)
class BoundReport:
    """Ordered sweep results; serializes to and from the fixed CSV layout."""

    rows: tuple

    def to_csv_text(self) -> str:
        """The report as CSV: the header, then one line per row, each value
        at 17 significant digits ("%.17g", the bytes of format(v, ".17g"))
        and None as an empty field.  Rows are transposed once and formatted
        column by column; a column that is blank on every row is written
        without formatting.  No field needs csv quoting (numbers, blanks and
        STATUSES), so each line is one join."""
        lines = [",".join(CSV_COLUMNS)]
        if self.rows:
            *columns, statuses = zip(*self.rows)
            blank = [""] * len(statuses)
            columns = [blank if col.count(None) == len(col)
                       else ["" if v is None else "%.17g" % v for v in col] for col in columns]
            lines += map(",".join, zip(*columns, statuses))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv_text(cls, text: str) -> "BoundReport":
        lines = [row for row in csv.reader(io.StringIO(text)) if row]
        if not lines or tuple(lines[0]) != CSV_COLUMNS:
            raise ConfigParse("unrecognized report header")
        rows = []
        for parts in lines[1:]:
            try:
                vals = [None if p == "" else float(p) for p in parts[:-1]]
            except ValueError:
                vals = None
            # run writes finite values and one of the STATUSES only.
            if (vals is None or len(parts) != len(CSV_COLUMNS) or parts[-1] not in STATUSES
                    or not all(math.isfinite(v) for v in vals if v is not None)):
                raise ConfigParse(f"malformed report row: {','.join(parts)!r}")
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


def _keys(raw, what, required, optional=()):
    """Check that raw is an object with every required key and no key
    outside required and optional; unknown and missing keys are named."""
    _require(isinstance(raw, dict), f"{what} must be an object")
    unknown = set(raw) - set(required) - set(optional)
    _require(not unknown, f"{what}: unknown keys {sorted(unknown)}")
    missing = [key for key in required if key not in raw]
    _require(not missing, f"{what}: missing required keys {missing}")


def _build(what, make):
    """make(), with a bad value on its way in reported as ConfigParse."""
    try:
        return make()
    except _BAD_VALUE as exc:
        raise ConfigParse(f"invalid {what}: {exc}") from exc


def _numbers(raw, name):
    """raw, checked to hold no string or boolean, which float() reads as numbers."""
    stack = [raw]
    while stack:
        value = stack.pop()
        if isinstance(value, (str, bool)):
            raise ConfigParse(f"{name} must contain finite numbers, got {value!r}")
        if isinstance(value, list):
            stack += value
    return raw


def _checked(check, value, name, rule):
    """check(value) from qembound.sampling, a ValueError reported as ConfigParse;
    a flag's text (name "--seed" or "--samples") is read by int() first."""
    try:
        return check(int(value) if name.startswith("--") else value)
    except ValueError:
        raise ConfigParse(f"{name} must be {rule}") from None


def _samples(value, name="samples"):
    return _checked(lambda v: check_samples(v, 2), value, name, "an integer >= 2")


def _seed(value, name="seed"):
    return _checked(check_seed, value, name, "a 64-bit unsigned integer")


def _parse_grid(raw, name, *, positive):
    _require(isinstance(raw, list) and raw, f"{name} must be a nonempty list")
    # Exact comparison keeps NaN, infinities and integers past the double
    # range out, so float() below neither overflows nor yields inf.
    _require(all(isinstance(x, (int, float)) and abs(x) <= sys.float_info.max
                 for x in _numbers(raw, name)), f"{name} must contain finite numbers")
    grid = [float(x) for x in raw]
    _require(all(x > 0.0 for x in grid) if positive else all(x >= 0.0 for x in grid),
             f"{name} entries must be {'positive' if positive else 'nonnegative'}")
    _require(all(a < b for a, b in zip(grid, grid[1:])), f"{name} must be strictly increasing")
    return tuple(grid)


def _parse_ccr(raw):
    _require(isinstance(raw, list) and raw, "ccr must be a nonempty list")
    if all(isinstance(x, (int, float)) for x in _numbers(raw, "ccr")):
        _require(all(0 < x <= sys.float_info.max for x in raw),
                 "ccr eigenfrequencies must be finite and positive")
        raw = _diag_kron_j2([float(f) for f in raw])
    return _build("ccr", lambda: validate_ccr(raw))


def _parse_gaussian(raw, ccr):
    _keys(raw, "state component", ("mean", "cov"))
    return _build("state", lambda: GaussianState(mean=_numbers(raw["mean"], "mean"),
                                                 cov=_numbers(raw["cov"], "cov"), ccr=ccr))


def _parse_state(raw, ccr):
    if not (isinstance(raw, dict) and "weights" in raw):
        return _parse_gaussian(raw, ccr)
    _keys(raw, "mixture state", ("weights", "components"))
    comps = raw["components"]
    _require(isinstance(comps, list) and comps, "components must be a nonempty list")
    components = tuple(_parse_gaussian(c, ccr) for c in comps)
    return _build("mixture", lambda: MixtureMgf(weights=_numbers(raw["weights"], "weights"),
                                                components=components))


def _parse_model(raw, ccr):
    _keys(raw, "model", ("R", "N"))
    return _build("model", lambda: oqho.OqhoModel(R=_numbers(raw["R"], "R"),
                                                  N=_numbers(raw["N"], "N"), ccr=ccr))


def parse_config(text: str) -> ScenarioConfig:
    """Parse and validate a JSON scenario document.

    The schema is strict: unknown and missing keys are rejected by name,
    grids must be nonempty and strictly increasing, and all referenced
    dimensions must be mutually consistent.  Defaults: samples=100000,
    seed=42.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigParse(f"invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    _require(isinstance(raw, dict), "config must be a JSON object")
    kind = raw.get("kind")
    _require(kind in KINDS, f"kind must be one of {list(KINDS)}, got {kind!r}")
    _keys(raw, f"config for kind {kind!r}", _STATE_KEYS + _KINDS[kind][2], _COMMON_KEYS)
    output = raw.get("output")
    _require(output is None or isinstance(output, str), "output must be a string path")
    config = ScenarioConfig(kind=kind, samples=_samples(raw.get("samples", DEFAULT_SAMPLES)),
                            seed=_seed(raw.get("seed", DEFAULT_SEED)), output=output)
    ccr = _parse_ccr(raw["ccr"])
    config = replace(config, ccr=ccr, state=_parse_state(raw["state"], ccr),
                     mu_grid=_parse_grid(raw["mu_grid"], "mu_grid", positive=True))
    if kind == "oqho_sweep":
        config = replace(config, model=_parse_model(raw["model"], ccr),
                         t_grid=_parse_grid(raw["t_grid"], "t_grid", positive=False))
    return config


def _row_seed(seed, index):
    return int(np.random.SeedSequence(seed, spawn_key=(index,)).generate_state(1, np.uint64)[0])


def _attempt(compute):
    """(compute(), "ok"), or (None, "numerical_error") if it raised a library
    error; an infinite moment or an empty window is an engine's row status."""
    try:
        return compute(), STATUS_OK
    except QemBoundError:
        return None, STATUS_NUMERICAL


def _grid_rows(t, grid, status, **columns):
    """Report rows of one engine grid call, built by column: each row's status
    from the engine, and the value columns blank where it is not ok."""
    statuses = status.tolist()
    ok = [s == STATUS_OK for s in statuses]
    blank = [None] * len(statuses)
    columns = {name: [v if keep else None for v, keep in zip(c.tolist(), ok)]
               for name, c in columns.items()}
    columns.update(t=[t] * len(statuses), mu=grid, status=statuses)
    return list(map(ReportRow._make, zip(*(columns.get(name, blank) for name in CSV_COLUMNS))))


# Routes: (config, engine, t, grid) -> list of ReportRow, one per mu.


def _exact_rows(config, engine, t, grid):
    values, _, status = engine.grid(grid)
    return _grid_rows(t, grid, status, upsilon_exact=values)


def _tail_rows(config, engine, t, grid):
    # Rows are cut at the CGF's mu_max.  One threshold-bound pair per mu from
    # the analytic slope, ln P(Q >= 2 Upsilon') <= Upsilon - mu Upsilon'; the
    # slope doubles as the eps column.
    upsilon, slope, status = engine.grid(grid, slope=True, cut=True)
    return _grid_rows(t, grid, status, upsilon_exact=upsilon, tail_eps=slope,
                      tail_log_bound=np.minimum(0.0, upsilon - np.asarray(grid) * slope))


def _mc_rows(config, engine, t, grid):
    statuses = engine.mc_status(grid).tolist()
    return [_mc_row(config, engine, t, i, mu, s) for i, (mu, s) in enumerate(zip(grid, statuses))]


def _mc_row(config, engine, t, index, mu, status):
    if status not in (STATUS_OK, STATUS_INFINITE_VARIANCE):
        return ReportRow(t=t, mu=mu, status=status)

    # Only Monte-Carlo rows draw samples, so only they get a row seed.  The
    # estimate and its error bar are finite, or qem_randomized_mc raises;
    # infinite_variance rows print no error bar.
    value, error = _attempt(lambda: qem.qem_randomized_mc(
        config.state, engine.basis, mu, config.samples, _row_seed(config.seed, index)))
    if value is None:
        return ReportRow(t=t, mu=mu, status=error)
    mc_se = value.rel_std_error if status == STATUS_OK else None
    return ReportRow(t=t, mu=mu, status=status, upsilon_mc=value.log_qem, mc_se=mc_se)


def _bound_rows(config, engine, t, grid):
    values, lams, status = engine.grid(grid)
    return _grid_rows(t, grid, status, upsilon_bound=values, lambda_opt=lams)


#: Engine class, route and required keys beyond _STATE_KEYS of each kind,
#: in the order KINDS (and the parse message naming them) lists the kinds.
#: Every route reads its rows' statuses from one engine call per scenario
#: (or oqho_sweep horizon): grid, or mc_status.  Only the Monte-Carlo route
#: then calls a row function per mu, _mc_row, by its module name, so a
#: wrapper bound to that name (perfbench's cli.cell span) sees those rows.
_KINDS = {
    "gaussian_exact": (qem.ExactEngine, _exact_rows, ()),
    "randomized_mc": (qem.ExactEngine, _mc_rows, ()),
    "upper_bound": (qem.ScalarBoundEngine, _bound_rows, ()),
    "tail": (qem.ExactEngine, _tail_rows, ()),
    "oqho_sweep": (qem.ScalarBoundEngine, _bound_rows, ("model", "t_grid")),
}
KINDS = tuple(_KINDS)


def run(config: ScenarioConfig):
    """Execute a scenario; returns (BoundReport, exit_code).

    Each scenario, or each horizon of an oqho_sweep (on the state
    propagated to that horizon), builds its kind's engine once and hands
    it the whole mu_grid through the kind's route; a fault while
    propagating the state or building the engine flags that engine's rows.
    Exit code 0 when every row is ok, 2 when any row is not.  Rows are
    ordered by (t, mu).
    """
    basis = symplectic_eigenbasis(config.ccr)
    engine_class, route, _ = _KINDS[config.kind]
    rows = []
    # Overflow warnings are not printed: every non-finite value is flagged.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for t in config.t_grid or (None,):
            # An oqho_sweep horizon's engine runs on the state propagated to t.
            engine, status = _attempt(lambda: engine_class(
                config.state if t is None else oqho.propagate_mgf(config.state, config.model, t),
                basis))
            rows += ([ReportRow(t=t, mu=mu, status=status) for mu in config.mu_grid]
                     if engine is None else route(config, engine, t, config.mu_grid))

    return BoundReport(rows=tuple(rows)), 0 if all(r.status == STATUS_OK for r in rows) else 2


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
        check = classical.randomized_identity_check(g, mu, samples, (seed + case) % 2**64)
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
        return classical.classical_gaussian_cgf_and_slope(g1, mu)

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
        quantum = qem.qem_exact(state, basis, 0.5).log_qem
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
    run_parser.add_argument("--seed", help="seed override")
    run_parser.add_argument("--samples", help="sample-count override")
    verify_parser = sub.add_parser("verify", help="run the commutative-oracle checks")
    verify_parser.add_argument("--quick", action="store_true", help="smaller sample counts")
    args = parser.parse_args(argv)

    if args.command == "verify":
        checks = verify_checks(20000 if args.quick else DEFAULT_SAMPLES)
        for name, passed, detail in checks:
            print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
        return 0 if all(passed for _, passed, _ in checks) else 2

    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 1
    try:
        config = parse_config(text)
        if args.seed is not None:
            config = replace(config, seed=_seed(args.seed, "--seed"))
        if args.samples is not None:
            config = replace(config, samples=_samples(args.samples, "--samples"))
        report, code = run(config)
    except ConfigParse as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    destination = args.output or config.output
    try:
        if destination:
            report.write_csv(destination)
        else:
            sys.stdout.write(report.to_csv_text())
    except OSError as exc:
        print(f"error: cannot write report: {exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
