"""Seeded inputs for the four benchmark workloads.

Every state is admissible by construction: component k has covariance
c_k * |Theta| + W_k W_k^T with c_k >= 1, where |Theta| is the matrix
mode_matrix(basis, gamma) of the block-diagonal commutation matrix built
from the `ccr` eigenfrequency list (so c_k * |Theta| is
mode_matrix(basis, c_k * gamma)), and a random mean.  Only the generated
scenario documents and library arguments reach the program; the
thresholds the correctness gate needs (mu_var, mu*) and the exact values
it compares against are computed here with the frozen seed-commit copy of
the library in `qembound_seed`, so they do not move when the program does.

Sizes are chosen so one pass takes about half a second (bound_tail: about
a second) on a 2-core machine, which gives a timed run enough passes for
a tail percentile (see README.md).  The grids of oqho_sweep, mc_mixture
and exact_grid run as a few consecutive scenarios of 0.05 to 0.3 s each:
the steps at which the timed run interleaves the program with the
reference copy.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

import qembound_seed as ref
from qembound_seed import cli as ref_cli
from qembound_seed import oqho as ref_oqho
from qembound_seed.errors import RiskParameterTooLarge

NAMES = ("oqho_sweep", "mc_mixture", "bound_tail", "exact_grid")

#: Coarse grid of the Chernoff supremum search in bound_tail's library call.
TAIL_GRID_POINTS = 8


@dataclass
class Workload:
    """Inputs of one workload plus what the gate needs to judge the outputs.

    scenarios: (label, scenario JSON text) pairs run through `cli.run`.
    tail_eps: eps values for `tail_bound(scalar_bound_cgf(...))` on the
        state of the first scenario (bound_tail only).
    row_context: per scenario label, one dict per report row with the
        keys the gate reads: `exact` (exact log-moment or None) and
        `role` ("mc_below_var", "mc_past_var" or None).
    """

    name: str
    scenarios: list
    tail_eps: tuple = ()
    row_context: dict = field(default_factory=dict)
    notes: dict = field(default_factory=dict)

    @property
    def cells(self):
        """Report rows plus tail bounds in one pass."""
        return sum(len(c) for c in self.row_context.values()) + len(self.tail_eps)


def _floats(a):
    return [float(x) for x in np.asarray(a).reshape(-1)]


def _mixture(rng, freqs, scales, w_scale, mean_scale):
    """Mixture JSON with covariances scales[k] * |Theta| + W W^T."""
    n = 2 * len(freqs)
    abs_theta = np.diag(np.repeat(np.asarray(freqs, dtype=float), 2))
    components = []
    for c in scales:
        w = rng.normal(scale=w_scale / math.sqrt(n), size=(n, n))
        cov = c * abs_theta + w @ w.T
        cov = 0.5 * (cov + cov.T)
        components.append({"mean": _floats(rng.normal(scale=mean_scale, size=n)),
                           "cov": [_floats(row) for row in cov]})
    weights = rng.uniform(0.5, 1.5, size=len(scales))
    weights /= weights.sum()
    return {"weights": _floats(weights), "components": components}


def _chunks(values, size):
    return [values[i:i + size] for i in range(0, len(values), size)]


def _parse(doc):
    return ref_cli.parse_config(json.dumps(doc))


def _threshold_mu(state, basis, target):
    """Smallest mu with mu * rho(C K(mu)) = target, minimized over components.

    target 1 gives the critical mu*; target 1/2 gives the finite-variance
    threshold mu_var of the Monte-Carlo route.  Uses only public ccr
    functions: K(mu) = aux_covariance(basis, mu).
    """
    def radius(comp, mu):
        k = ref.aux_covariance(basis, mu)
        return mu * float(np.max(np.linalg.eigvals(comp.cov @ k).real))

    best = math.inf
    for comp in ref.as_mixture(state).components:
        lo, hi = 0.0, 1.0 / float(basis.gamma.max())
        for _ in range(200):
            if radius(comp, hi) >= target:
                break
            lo, hi = hi, 2.0 * hi
        else:
            raise ValueError(f"mu * rho(C K(mu)) never reaches {target}")
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if radius(comp, mid) < target:
                lo = mid
            else:
                hi = mid
        best = min(best, hi)
    return best


def _exact_or_none(state, basis, mu):
    try:
        return ref.qem_exact(state, basis, mu).log_qem
    except RiskParameterTooLarge:
        return None


def oqho_sweep(rng, smoke):
    freqs = [1.0, 1.5, 2.0, 2.5]
    n = 8
    weights = rng.uniform(0.5, 1.5, size=2)
    weights /= weights.sum()
    state = {"weights": _floats(weights),
             "components": [{"mean": _floats(rng.normal(scale=0.3, size=n)),
                             "cov": [_floats(row) for row in c * np.eye(n)]} for c in (2.6, 2.7)]}
    mus = np.linspace(0.01, 0.2, 2 if smoke else 5)
    ts = np.linspace(0.0, 2.25, 2 if smoke else 4)
    doc = {"kind": "oqho_sweep", "ccr": freqs, "state": state,
           "model": {"R": [_floats(r) for r in np.eye(n)], "N": [_floats(r) for r in np.eye(n)[:2]]},
           "mu_grid": _floats(mus)}
    cfg = _parse(dict(doc, t_grid=_floats(ts)))
    basis = ref.symplectic_eigenbasis(cfg.ccr)
    scenarios, contexts = [], {}
    for i, t in enumerate(cfg.t_grid):
        at_t = ref_oqho.propagate_mgf(cfg.state, cfg.model, t)
        label = f"oqho_sweep.t{i}"
        scenarios.append((label, json.dumps(dict(doc, t_grid=[float(t)]))))
        contexts[label] = [{"exact": _exact_or_none(at_t, basis, mu), "role": None}
                           for mu in cfg.mu_grid]
    return Workload("oqho_sweep", scenarios, row_context=contexts)


def mc_mixture(rng, smoke):
    freqs = _floats(np.linspace(1.0, 2.5, 2 if smoke else 16))
    scales = rng.uniform(1.2, 1.6, size=4)
    state = _mixture(rng, freqs, scales, w_scale=0.5, mean_scale=0.3)
    probe = _parse({"kind": "gaussian_exact", "ccr": freqs, "state": state, "mu_grid": [1.0]})
    basis = ref.symplectic_eigenbasis(probe.ccr)
    mu_var = _threshold_mu(probe.state, basis, 0.5)
    mu_star = _threshold_mu(probe.state, basis, 1.0)
    # Four cells below mu_var, one between mu_var and mu*, one past mu*.
    # The last two have an infinite MC variance (and past mu* an infinite
    # moment); at the seed commit they read `ok` with an error bar.
    grid = [0.2 * mu_var, 0.4 * mu_var, 0.6 * mu_var, 0.8 * mu_var,
            0.5 * (mu_var + mu_star), 1.2 * mu_star]
    scenarios, contexts = [], {}
    for i, mus in enumerate(_chunks(grid, 2)):
        label = f"randomized_mc.{i}"
        doc = {"kind": "randomized_mc", "ccr": freqs, "state": state, "mu_grid": mus,
               "samples": 1024 if smoke else 8192, "seed": int(rng.integers(2**63))}
        scenarios.append((label, json.dumps(doc)))
        contexts[label] = [{"exact": _exact_or_none(probe.state, basis, mu),
                            "role": "mc_below_var" if mu < mu_var else "mc_past_var"}
                           for mu in mus]
    return Workload("mc_mixture", scenarios, row_context=contexts,
                    notes={"mu_var": mu_var, "mu_star": mu_star})


def _first_moment(state):
    """E[X^T X] / 2, the slope of the CGF at mu = 0."""
    return sum(w * 0.5 * (float(np.trace(c.cov)) + float(c.mean @ c.mean))
               for w, c in zip(state.weights, state.components))


def bound_tail(rng, smoke):
    freqs = [1.0, 1.5, 2.0, 2.5]
    scales = rng.uniform(1.0, 1.3, size=1 if smoke else 2)
    state = _mixture(rng, freqs, scales, w_scale=0.5, mean_scale=0.3)
    probe = _parse({"kind": "upper_bound", "ccr": freqs, "state": state, "mu_grid": [1e-3]})
    basis = ref.symplectic_eigenbasis(probe.ccr)
    _, bound_mu_max = ref.scalar_bound_cgf(probe.state, basis)
    # The grid reaches 10% past the edge of the scalar-weight window, so
    # its last row reports `empty_interval`.
    edge = bound_mu_max / ref.qem.CGF_SAFETY
    grid = _floats(np.linspace(0.05, 1.1, 3 if smoke else 6) * edge)
    doc = {"kind": "upper_bound", "ccr": freqs, "state": state, "mu_grid": grid}
    mix = ref.as_mixture(probe.state)
    context = [{"exact": _exact_or_none(mix, basis, mu), "role": None} for mu in grid]
    # Thresholds well above the mean of X^T X / 2, where the bound is below 0.
    eps = (1.6 * _first_moment(mix),)
    return Workload("bound_tail", [("upper_bound", json.dumps(doc))], tail_eps=eps,
                    row_context={"upper_bound": context},
                    notes={"tail_grid_points": TAIL_GRID_POINTS})


def exact_grid(rng, smoke):
    freqs = [1.0, 1.5, 2.0, 2.5]
    scales = rng.uniform(1.1, 1.4, size=4)
    state = _mixture(rng, freqs, scales, w_scale=0.5, mean_scale=0.3)
    probe = _parse({"kind": "gaussian_exact", "ccr": freqs, "state": state, "mu_grid": [1.0]})
    basis = ref.symplectic_eigenbasis(probe.ccr)
    mu_star = _threshold_mu(probe.state, basis, 1.0)
    points = 10 if smoke else 100
    # Midpoints of one grid to 1.25 mu*, so a fifth of the rows are
    # infeasible and none sits on mu* itself, where the closed form is
    # singular.
    grid = _floats(1.25 * mu_star * (np.arange(points) + 0.5) / points)
    scenarios = []
    context = {}
    for kind in ("gaussian_exact", "tail"):
        for i, mus in enumerate(_chunks(grid, points // 4)):
            label = f"{kind}.{i}"
            doc = {"kind": kind, "ccr": freqs, "state": state, "mu_grid": mus}
            scenarios.append((label, json.dumps(doc)))
            context[label] = [{"exact": None, "role": None} for _ in mus]
    return Workload("exact_grid", scenarios, row_context=context,
                    notes={"mu_star": mu_star})


def build(name, seed, smoke=False):
    """Workload `name` with inputs drawn from `seed`."""
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; expected one of {list(NAMES)}")
    return globals()[name](np.random.default_rng([seed, NAMES.index(name)]), smoke)
