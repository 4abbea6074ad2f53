"""Correctness gate: every output cell against a seed-commit reference and
the paper's invariants.

Runs outside the timed region.  A cell fails when its status differs from
the reference, when a compared value lies outside its column's tolerance,
or when it breaks an invariant:

* the bound is at least the exact log-moment wherever that is finite;
* a tail log-bound is at most 0;
* an MC cell below the finite-variance threshold mu_var lies within
  5 mc_se of the exact log-moment;
* an MC cell at or past mu_var does not read `ok` with an error bar.

The last invariant is ROADMAP item 3's defect and fails at the seed
commit.  The reference is wrong there too, so those cells are judged by
the invariant alone and their failures are marked as the known defect.
"""

import math
from dataclasses import dataclass

COLUMNS = ("t", "mu", "upsilon_exact", "upsilon_mc", "mc_se", "upsilon_bound",
           "lambda_opt", "tail_eps", "tail_log_bound", "status")

#: (rtol, atol) per compared column: |value - ref| <= atol + rtol * |ref|.
#: Grid echoes must match exactly.  The closed form keeps its value to
#: round-off under a re-ordered (eigen-reduced) evaluation; the optimized
#: bound moves by far less than 1e-7 under a Newton optimizer, while a
#: loosened search moves it more.  The tail columns allow an analytic CGF
#: derivative in place of the 1e-6 central difference.  An MC estimate may
#: move by up to 6 standard errors; its error bar by half of itself.
#: lambda_opt is not compared: a flat objective leaves it ill-determined.
TOLERANCE = {
    "t": (0.0, 0.0),
    "mu": (0.0, 0.0),
    "upsilon_exact": (1e-9, 1e-9),
    "upsilon_mc": None,
    "mc_se": (0.5, 1e-12),
    "upsilon_bound": (1e-7, 1e-7),
    "tail_eps": (1e-5, 1e-6),
    "tail_log_bound": (1e-5, 1e-6),
}
MC_REFERENCE_SE = 6.0
MC_EXACT_SE = 5.0
TAIL_TOLERANCE = (1e-7, 1e-7)
BOUND_SLACK = 1e-9

KNOWN_DEFECT = "mc_error_bar_past_var"


@dataclass(frozen=True)
class CellFailure:
    scenario: str
    row: int
    reasons: tuple

    @property
    def known_defect(self):
        return all(r.startswith(KNOWN_DEFECT) for r in self.reasons)


def parse_csv(text):
    """Rows of a report CSV as dicts; blank cells become None."""
    lines = [ln for ln in text.splitlines() if ln]
    if not lines or tuple(lines[0].split(",")) != COLUMNS:
        raise ValueError("report header differs from the fixed 10-column layout")
    rows = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != len(COLUMNS):
            raise ValueError(f"malformed report row {ln!r}")
        row = {c: (None if p == "" else float(p)) for c, p in zip(COLUMNS[:-1], parts)}
        row["status"] = parts[-1]
        rows.append(row)
    return rows


def _close(value, ref, tol):
    rtol, atol = tol
    return math.isfinite(value) and abs(value - ref) <= atol + rtol * abs(ref)


def _reference_reasons(row, ref):
    if row["status"] != ref["status"]:
        return [f"status {row['status']} != reference {ref['status']}"]
    reasons = []
    for col, tol in TOLERANCE.items():
        got, want = row[col], ref[col]
        if (got is None) != (want is None):
            reasons.append(f"{col} blank mismatch")
        elif got is None:
            continue
        elif tol is None:
            se = max(row["mc_se"] or 0.0, ref["mc_se"] or 0.0)
            if not abs(got - want) <= MC_REFERENCE_SE * se + 1e-12:
                reasons.append(f"{col} {got!r} off reference {want!r} by > {MC_REFERENCE_SE} se")
        elif not _close(got, want, tol):
            reasons.append(f"{col} {got!r} != reference {want!r}")
    return reasons


def _invariant_reasons(row, ctx):
    reasons = []
    exact = ctx.get("exact")
    bound = row["upsilon_bound"]
    if bound is not None and exact is not None and bound < exact - BOUND_SLACK * max(1.0, abs(exact)):
        reasons.append(f"bound {bound!r} below exact {exact!r}")
    if row["tail_log_bound"] is not None and row["tail_log_bound"] > 0.0:
        reasons.append(f"tail_log_bound {row['tail_log_bound']!r} > 0")
    role = ctx.get("role")
    if role == "mc_below_var":
        mc, se = row["upsilon_mc"], row["mc_se"]
        if row["status"] != "ok" or mc is None or se is None or exact is None:
            reasons.append("mc cell below mu_var has no estimate")
        elif abs(mc - exact) > MC_EXACT_SE * se:
            reasons.append(f"mc {mc!r} off exact {exact!r} by {abs(mc - exact) / se:.2f} se")
    elif role == "mc_past_var" and row["status"] == "ok" and row["mc_se"] is not None:
        reasons.append(f"{KNOWN_DEFECT}: reads ok with mc_se {row['mc_se']!r} past mu_var")
    return reasons


def check_report(label, text, ref_text, context):
    """Failures of one scenario's CSV report against its reference."""
    try:
        rows = parse_csv(text)
    except ValueError as exc:
        return [CellFailure(label, i, (str(exc),)) for i in range(len(context))]
    ref_rows = parse_csv(ref_text)
    if len(rows) != len(ref_rows):
        return [CellFailure(label, i, (f"{len(rows)} rows, reference has {len(ref_rows)}",))
                for i in range(max(len(rows), len(ref_rows)))]
    failures = []
    for i, (row, ref, ctx) in enumerate(zip(rows, ref_rows, context)):
        reasons = _invariant_reasons(row, ctx)
        if ctx.get("role") != "mc_past_var":
            reasons += _reference_reasons(row, ref)
        if reasons:
            failures.append(CellFailure(label, i, tuple(reasons)))
    return failures


def check_tail(label, index, value, ref_value):
    """Failures of one `tail_bound` log-probability bound."""
    reasons = []
    if not value <= 0.0:
        reasons.append(f"log_prob_bound {value!r} > 0")
    if not _close(value, ref_value, TAIL_TOLERANCE):
        reasons.append(f"log_prob_bound {value!r} != reference {ref_value!r}")
    return [CellFailure(label, index, tuple(reasons))] if reasons else []


def bound_excess(text, context):
    """Bound minus exact log-moment for each row where both are finite."""
    return [row["upsilon_bound"] - ctx["exact"]
            for row, ctx in zip(parse_csv(text), context)
            if row["upsilon_bound"] is not None and ctx.get("exact") is not None]
