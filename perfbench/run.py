"""qembound benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a repository checkout; the program is imported from
`src/`.  One process acts as a single closed-loop client: each pass runs
the workload's scenarios through `qembound.cli.run` (and, for bound_tail,
the library's tail bound) one after another, and the next pass starts
when the previous one ends.  Passes repeat until S seconds have elapsed.
With --trace 0 nothing is traced, every step of a pass also runs on the
frozen reference copy `qembound_seed` right before or after the program,
and the end-to-end metrics compare the two sides' times; with --trace 1
traced and untraced passes of the program alternate and the per-layer
metrics are reported.  Every output cell of every pass goes
through the correctness gate after the clock stops.  The last line of
standard output is the JSON result; the line before it is a JSON record
of the environment, the scenarios and details.
"""

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

THREAD_VARS = ("QEMBOUND_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_REPEATS = 5
TAIL_BEYOND = 10


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and one set-up probe, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    return args


def pass_steps(workload):
    """Number of steps in one pass: one per scenario, plus the tail bounds."""
    return len(workload.scenarios) + bool(workload.tail_eps)


def run_step(pkg, configs, workload, step, tracer=None, pass_index=None):
    """Step `step` of a pass; returns its outputs (CSV texts or tail bounds)."""
    if step < len(workload.scenarios):
        if tracer is not None:
            tracer.scenario = f"p{pass_index}:{workload.scenarios[step][0]}"
        report, _code = pkg.cli.run(configs[step])
        return [report.to_csv_text()]
    config = configs[0]
    if tracer is not None:
        tracer.scenario = f"p{pass_index}:tail_bound"
    basis = pkg.symplectic_eigenbasis(config.ccr)
    cgf, mu_max = pkg.scalar_bound_cgf(config.state, basis)
    return [pkg.tail_bound(cgf, eps, mu_max,
                           grid_points=workload.notes["tail_grid_points"]).log_prob_bound
            for eps in workload.tail_eps]


def run_pass(pkg, configs, workload, tracer=None, pass_index=None):
    """One pass over the workload; returns the CSV texts and tail bounds."""
    outputs = []
    for step in range(pass_steps(workload)):
        outputs += run_step(pkg, configs, workload, step, tracer, pass_index)
    return outputs


def run_paired_pass(sides, workload, pass_index):
    """One pass of the program interleaved step by step with the reference.

    `sides` maps "program" and "reference" to (package, configs).  Each
    step runs on both sides back to back, the side that goes first
    alternating from step to step and pass to pass, so both see the same
    machine speed.  Returns the program's outputs and each side's summed
    step time.
    """
    outputs = []
    elapsed = {"program": 0.0, "reference": 0.0}
    for step in range(pass_steps(workload)):
        order = ("program", "reference") if (pass_index + step) % 2 == 0 else ("reference", "program")
        for side in order:
            pkg, configs = sides[side]
            # Each side starts from an empty young generation, so neither
            # inherits a collection the other's garbage made due.
            gc.collect()
            start = perf_counter()
            step_outputs = run_step(pkg, configs, workload, step)
            elapsed[side] += perf_counter() - start
            if side == "program":
                outputs += step_outputs
    return outputs, elapsed


def measure_setup(texts, repeats):
    """Median wall time of a fresh interpreter importing qembound and parsing."""
    payload = json.dumps(texts)
    times = []
    for _ in range(repeats):
        start = perf_counter()
        subprocess.run([sys.executable, str(HERE / "setup_probe.py"), str(SRC)],
                       input=payload, text=True, capture_output=True, check=True, timeout=120)
        times.append(perf_counter() - start)
    return statistics.median(times)


def tail_percentile(times):
    """Highest percentile with at least TAIL_BEYOND samples above it.

    Returns (value, percentile, samples).  The percentile is never taken
    below the median: with fewer than 2 * TAIL_BEYOND samples the median
    is returned at percentile 50.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND:
        return statistics.median(ordered), 50.0, n
    k = n - TAIL_BEYOND
    return ordered[k - 1], 100.0 * k / n, n


def environment():
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = blas.get("openblas configuration") or blas.get("name")
    except (KeyError, TypeError, ValueError):
        openblas = None
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "qembound").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def gate_pass(gate, workload, outputs, ref_outputs):
    """Failures of one pass against the reference outputs."""
    labels = [label for label, _ in workload.scenarios]
    failures = []
    for label, text, ref_text in zip(labels, outputs, ref_outputs):
        failures += gate.check_report(label, text, ref_text, workload.row_context[label])
    for i, (value, ref_value) in enumerate(zip(outputs[len(labels):], ref_outputs[len(labels):])):
        failures += gate.check_tail("tail_bound", i, value, ref_value)
    return failures


def accuracy(gate, workload, outputs):
    """Bound excess over the exact log-moment and mean tail log-bound, in nats."""
    excess = []
    labels = [label for label, _ in workload.scenarios]
    for label, text in zip(labels, outputs):
        excess += gate.bound_excess(text, workload.row_context[label])
    tails = outputs[len(labels):]
    return {
        "bound_excess_nats": statistics.fmean(excess) if excess else None,
        "tail_log_bound_nats": statistics.fmean(tails) if tails else None,
    }


def main(argv=None):
    args = _parse_args(argv)
    if not (SRC / "qembound" / "__init__.py").is_file():
        print(f"perfbench: program source {SRC / 'qembound'} not found; "
              "run from the root of a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import qembound
    import qembound.cli
    import qembound_seed
    import qembound_seed.cli

    if Path(qembound.__file__).resolve().parent != SRC / "qembound":
        print(f"perfbench: imported qembound from {qembound.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import gate
    import spans
    import workloads

    try:
        workload = workloads.build(args.workload, args.seed, smoke=args.smoke)
    except ValueError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    texts = [text for _, text in workload.scenarios]
    # The frozen seed-commit copy produces the reference outputs; it also
    # warms numpy, scipy and BLAS before the clock starts.
    ref_configs = [qembound_seed.cli.parse_config(t) for t in texts]
    ref_outputs = run_pass(qembound_seed, ref_configs, workload)

    tracer = spans.Tracer() if args.trace else None
    instrumentation = spans.Instrumentation(tracer) if args.trace else None
    setup_s = None
    if not args.trace:
        setup_s = measure_setup(texts, 1 if args.smoke else SETUP_REPEATS)
    if instrumentation:
        instrumentation.install()
    configs = [qembound.cli.parse_config(t) for t in texts]
    if instrumentation:
        instrumentation.remove()

    sides = {"program": (qembound, configs), "reference": (qembound_seed, ref_configs)}
    times = {True: [], False: []}
    ref_times = []
    runs = []
    error = None
    # Objects made during set-up are not scanned again by timed collections.
    gc.collect()
    gc.freeze()
    deadline = perf_counter() + args.seconds
    index = 0
    while True:
        traced = bool(args.trace) and index % 2 == 1
        if traced:
            tracer.pass_index = index
            instrumentation.install()
        start = perf_counter()
        try:
            if args.trace:
                outputs = run_pass(qembound, configs, workload, tracer if traced else None, index)
                elapsed = perf_counter() - start
            else:
                outputs, both = run_paired_pass(sides, workload, index)
                elapsed = both["program"]
                ref_times.append(both["reference"])
        except Exception as exc:  # a crashing pass is reported as failed cells
            traceback.print_exc()
            error = f"pass {index}: {type(exc).__name__}: {exc}"
            break
        finally:
            if traced:
                instrumentation.remove()
                tracer.pass_index = None
        times[traced].append(elapsed)
        runs.append(outputs)
        index += 1
        if perf_counter() >= deadline and (not args.trace or index >= 2):
            break

    cells = workload.cells
    failures = [f for outputs in runs for f in gate_pass(gate, workload, outputs, ref_outputs)]
    attempted = cells * (len(runs) + (error is not None))
    failed = len(failures) + (cells if error is not None else 0)
    unexpected = [f for f in failures if not f.known_defect]
    correct = error is None and not unexpected

    untraced = times[False]
    detail = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": environment(),
        "scenarios": [json.loads(t) for t in texts],
        "tail_eps": list(workload.tail_eps),
        "notes": workload.notes,
        "accuracy": accuracy(gate, workload, runs[0]) if runs else None,
        "passes": {"untraced": len(untraced), "traced": len(times[True])},
        "pass_s": {"untraced": untraced, "traced": times[True], "reference": ref_times},
        "cells_per_pass": cells,
        "gate": {
            "attempted": attempted,
            "failed": failed,
            "known_defect_cells": len(failures) - len(unexpected),
            "error": error,
            "first_failures": [
                {"scenario": f.scenario, "row": f.row, "reasons": list(f.reasons)}
                for f in (unexpected or failures)[:5]
            ],
        },
    }
    metrics = {}
    if untraced and not args.trace:
        p50 = statistics.median(untraced)
        tail, pct, samples = tail_percentile(untraced)
        slowdown = [p / r for p, r in zip(untraced, ref_times)]
        rel_tail, rel_pct, _ = tail_percentile(slowdown)
        detail["absolute"] = {
            "cells_per_s": cells / p50,
            "pass_s_p50": p50,
            "pass_s_tail": tail,
            "reference_pass_s_p50": statistics.median(ref_times),
        }
        detail["pass_s_tail"] = {"percentile": pct, "samples": samples}
        detail["rel_pass_tail"] = {"percentile": rel_pct, "samples": samples}
        metrics = {
            "setup_s": (setup_s, "s"),
            "rel_cells_per_s": (sum(ref_times) / sum(untraced), "x"),
            "rel_pass_tail": (rel_tail, "x"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "passed_ratio": ((attempted - failed) / attempted, "ratio"),
        }
    elif untraced and times[True]:
        overhead = statistics.median(times[True]) / statistics.median(untraced)
        metrics, mismatched = spans.layer_metrics(tracer, len(times[True]), cells, overhead)
        detail["count_mismatch"] = mismatched
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        span_file = out_dir / f"spans-{workload.name}-seed{args.seed}.jsonl"
        tracer.write_jsonl(span_file)
        detail["spans_file"] = str(span_file.relative_to(ROOT))
    print(json.dumps(detail))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
