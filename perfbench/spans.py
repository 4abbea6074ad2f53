"""Span tracing from outside the program, and the per-layer metrics.

The library binds functions by name across modules (for example
`from .states import log_weighted_norm` in both `qem` and `oqho`), so a
function is wrapped at every module-level binding under `qembound` that
holds it, and the originals are put back afterwards.  Each span records
its name, start, end, parent and scenario id.  Spans opened on a thread
with no open span (the `cli.run` worker pool) take the open `cli.run`
span as their parent; the benchmark is a single closed-loop client, so
at most one is open.  Spans stay in memory until the run ends.
"""

import functools
import json
import sys
import threading
from collections import Counter, defaultdict
from time import perf_counter

#: (span name, home module, attribute, argument hook) for plain functions.
FUNCTIONS = (
    ("cli.run", "qembound.cli", "run", None),
    ("cli.parse", "qembound.cli", "parse_config", None),
    ("cli.cell", "qembound.cli", "_exact_row", None),
    ("cli.cell", "qembound.cli", "_mc_row", None),
    ("cli.cell", "qembound.cli", "_bound_row", None),
    ("cli.cell", "qembound.cli", "_tail_row", None),
    ("cli.cell", "qembound.cli", "_oqho_cell", None),
    ("ccr.eigenbasis", "qembound.ccr", "symplectic_eigenbasis", None),
    ("ccr.mode_matrix", "qembound.ccr", "mode_matrix", None),
    ("qem.exact", "qembound.qem", "qem_exact", None),
    ("qem.critical_mu", "qembound.qem", "critical_mu", None),
    ("qem.upper_bound", "qembound.qem", "qem_upper_bound", None),
    ("qem.scalar_opt", "qembound.qem", "qem_upper_bound_scalar_opt", None),
    ("qem.mc", "qembound.qem", "qem_randomized_mc", None),
    ("qem.tail_bound", "qembound.qem", "tail_bound", "count_evals"),
    ("qem.bregman", "qembound.qem", "tail_bound_bregman", "count_evals"),
    ("search.golden", "qembound._search", "golden_section_minimize", "count_evals"),
    ("search.bisect", "qembound._search", "bisect_nondecreasing", "count_evals"),
    ("states.norm", "qembound.states", "log_weighted_norm", "count_pairs"),
    ("states.mgf_batch", "qembound.states", "log_mgf_batch", "count_rows"),
    ("sampling.normal", "qembound.sampling", "standard_normal_blocks", "generator"),
    ("sampling.aggregate", "qembound.sampling", "log_mean_exp_stats", None),
    ("oqho.bound_time", "qembound.oqho", "qem_bound_time", None),
)

#: (span name, home module, class, method) for methods patched on the class.
METHODS = (
    ("cli.csv", "qembound.cli", "BoundReport", "to_csv_text"),
    ("states.weight_matrix", "qembound.states", "WeightMatrix", "__post_init__"),
)

#: (span name, module, attribute) outside the package; only oqho calls expm.
EXTERNAL = (("oqho.expm", "scipy.linalg", "expm"),)

CELL = "cli.cell"
ROOT = "cli.run"


class Span:
    __slots__ = ("name", "start", "end", "parent", "scenario", "pass_index", "count", "prev_root")

    def __init__(self, name, parent, scenario, pass_index):
        self.name = name
        self.parent = parent
        self.scenario = scenario
        self.pass_index = pass_index
        self.count = 0
        self.start = perf_counter()
        self.end = None


class Tracer:
    """In-memory span recorder; `scenario` and `pass_index` are set by the client."""

    def __init__(self):
        self.spans = []
        self.scenario = None
        self.pass_index = None
        self._local = threading.local()
        self._root = None

    def open(self, name):
        stack = self._local.__dict__.setdefault("stack", [])
        span = Span(name, stack[-1] if stack else self._root, self.scenario, self.pass_index)
        if name == ROOT:
            span.prev_root, self._root = self._root, span
        stack.append(span)
        self.spans.append(span)
        return span

    def close(self, span):
        span.end = perf_counter()
        self._local.stack.pop()
        if span.name == ROOT:
            self._root = span.prev_root

    def write_jsonl(self, path):
        ids = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "start": s.start, "end": s.end,
                    "parent": ids.get(id(s.parent)), "scenario": s.scenario, "count": s.count,
                }) + "\n")


def _hooked_call(tracer, name, fn, hook):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.open(name)
        try:
            if hook == "count_evals" and args:
                inner = args[0]

                def counted(x):
                    span.count += 1
                    return inner(x)

                args = (counted,) + args[1:]
            elif hook == "count_pairs":
                span.count = len(getattr(args[0], "components", (None,))) ** 2
            elif hook == "count_rows" and len(args) > 1:
                shape = getattr(args[1], "shape", (1,))
                span.count = shape[0] if len(shape) == 2 else 1
            return fn(*args, **kwargs)
        finally:
            tracer.close(span)

    return wrapper


def _hooked_generator(tracer, name, fn):
    """Times each `next()` of a generator; the span count is the block's bytes."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        gen = fn(*args, **kwargs)
        while True:
            span = tracer.open(name)
            try:
                block = next(gen)
            except StopIteration:
                return
            finally:
                tracer.close(span)
            span.count = block.nbytes
            yield block

    return wrapper


class Instrumentation:
    """Installs span wrappers at every binding; `remove()` restores them."""

    def __init__(self, tracer):
        self.tracer = tracer
        self._patched = []

    def _patch(self, owner, attr, new):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "qembound" or n.startswith("qembound."))]
        for name, home, attr, hook in FUNCTIONS:
            original = getattr(sys.modules.get(home), attr, None)
            if original is None:
                continue
            if hook == "generator":
                wrapper = _hooked_generator(self.tracer, name, original)
            else:
                wrapper = _hooked_call(self.tracer, name, original, hook)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)
        for name, home, cls_name, method in METHODS:
            cls = getattr(sys.modules.get(home), cls_name, None)
            if cls is not None and method in vars(cls):
                self._patch(cls, method, _hooked_call(self.tracer, name, vars(cls)[method], None))
        for name, home, attr in EXTERNAL:
            module = sys.modules.get(home)
            if module is not None and hasattr(module, attr):
                self._patch(module, attr, _hooked_call(self.tracer, name, getattr(module, attr), None))
        return self

    def remove(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def _union_length(intervals):
    total = 0.0
    end = -float("inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def layer_metrics(tracer, passes, cells_per_pass, trace_overhead):
    """Per-pass layer metrics from the spans of `passes` traced passes.

    Counts are per pass and must be the same for every pass; a mismatch
    is returned in the second element.  Times are seconds per pass.  Only
    the outermost span of a recursion (a span whose parent has the same
    name) is counted.  `cli.parse_s` is the parse time of the workload's
    scenarios, traced once before the passes.
    """
    parse_s = sum(s.end - s.start for s in tracer.spans if s.name == "cli.parse")
    spans = [s for s in tracer.spans if s.pass_index is not None]
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[id(s.parent)].append(s)
    outer = defaultdict(list)
    for s in spans:
        if s.parent is None or s.parent.name != s.name:
            outer[s.name].append(s)

    def dur(name):
        return sum(s.end - s.start for s in outer[name]) / passes

    def self_time(name):
        total = 0.0
        for s in outer[name]:
            kids = [(max(k.start, s.start), min(k.end, s.end)) for k in children[id(s)]]
            total += (s.end - s.start) - _union_length([(a, b) for a, b in kids if b > a])
        return total / passes

    per_pass = defaultdict(Counter)
    for name, group in outer.items():
        for s in group:
            per_pass[s.pass_index][name + ".calls"] += 1
            per_pass[s.pass_index][name + ".count"] += s.count
    for s in outer["sampling.normal"]:
        per_pass[s.pass_index]["sampling.blocks"] += 1 if s.count else 0
    tables = list(per_pass.values())
    mismatched = sorted({k for t in tables for k in t if len({u[k] for u in tables}) > 1})
    first = tables[0] if tables else Counter()

    def count(key):
        return first[key]

    run_total = sum(s.end - s.start for s in outer[ROOT])
    cell_total = sum(s.end - s.start for s in outer[CELL])
    golden_evals = count("search.golden.count")
    metrics = {
        "cli.parse_s": (parse_s, "s"),
        "cli.self_s": (self_time(ROOT), "s"),
        "cli.csv_s": (dur("cli.csv"), "s"),
        "cli.cell_overlap": (cell_total / run_total if run_total else 0.0, "ratio"),
        "ccr.eigenbasis_s": (dur("ccr.eigenbasis"), "s"),
        "ccr.mode_matrix.calls": (count("ccr.mode_matrix.calls"), "count"),
        "ccr.mode_matrix_s": (dur("ccr.mode_matrix"), "s"),
        "qem.exact.calls": (count("qem.exact.calls"), "count"),
        "qem.exact_s": (dur("qem.exact"), "s"),
        "qem.critical_mu.calls": (count("qem.critical_mu.calls"), "count"),
        "qem.critical_mu_s": (dur("qem.critical_mu"), "s"),
        "qem.cgf_evals": (count("qem.tail_bound.count") + count("qem.bregman.count"), "count"),
        "qem.tail_bound.cgf_evals": (count("qem.tail_bound.count"), "count"),
        "qem.bregman.cgf_evals": (count("qem.bregman.count"), "count"),
        "qem.upper_bound.calls": (count("qem.upper_bound.calls"), "count"),
        "qem.upper_bound_self_s": (self_time("qem.upper_bound"), "s"),
        "qem.scalar_opt.calls": (count("qem.scalar_opt.calls"), "count"),
        "qem.scalar_opt_s": (dur("qem.scalar_opt"), "s"),
        "qem.mc_self_s": (self_time("qem.mc"), "s"),
        "search.golden.calls": (count("search.golden.calls"), "count"),
        "search.golden.evals": (golden_evals, "count"),
        "search.evals_per_cell": (golden_evals / cells_per_pass, "count"),
        "search.bisect.evals": (count("search.bisect.count"), "count"),
        "states.norm.calls": (count("states.norm.calls"), "count"),
        "states.norm_s": (dur("states.norm"), "s"),
        "states.pair_integrals": (count("states.norm.count"), "count"),
        "states.weight_matrix.calls": (count("states.weight_matrix.calls"), "count"),
        "states.mgf_batch.rows": (count("states.mgf_batch.count"), "rows"),
        "states.mgf_batch_s": (dur("states.mgf_batch"), "s"),
        "sampling.blocks": (count("sampling.blocks"), "count"),
        "sampling.normal_s": (dur("sampling.normal"), "s"),
        "sampling.bytes_computed": (count("sampling.normal.count"), "bytes"),
        "sampling.aggregate_s": (dur("sampling.aggregate"), "s"),
        "oqho.bound_time.calls": (count("oqho.bound_time.calls"), "count"),
        "oqho.bound_time_self_s": (self_time("oqho.bound_time"), "s"),
        "oqho.expm.calls": (count("oqho.expm.calls"), "count"),
        "oqho.expm_s": (dur("oqho.expm"), "s"),
        "trace_overhead": (trace_overhead, "ratio"),
    }
    return metrics, mismatched
