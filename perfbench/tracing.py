"""Span tracing of mutvis from outside the package.

``Tracer.install()`` replaces the public functions at each module boundary
of ``mutvis`` with wrappers that record a span per call: its name, start,
end, parent span and the id of the benchmark call that caused it.  A name
re-bound by ``from .x import y`` is replaced in every module that binds it,
so calls are seen in the module that makes them.  A few hot, cheap entry
points are counted instead of spanned.  ``uninstall()`` puts the originals
back.  Spans stay in memory; ``layer_metrics()`` folds them into the
per-layer metrics and ``write_spans()`` writes them out.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter
from time import perf_counter

# (defining module, function name, span name).  Span names are
# "<layer>.<what>"; the layers are the modules of mutvis.
SPANNED_FUNCTIONS = (
    ("mutvis._search", "lex_first_maximum", "search"),
    ("mutvis.graph", "all_pairs_distances", "graph.apsp"),
    ("mutvis.visibility", "bypass_set", "visibility.bypass"),
    ("mutvis.solvers", "max_total_mv", "solvers.mut"),
    ("mutvis.solvers", "max_independent_total_mv", "solvers.muit"),
    ("mutvis.solvers", "max_mv", "solvers.mu"),
    ("mutvis.solvers", "naive_oracle", "solvers.naive"),
    ("mutvis.graph", "max_independent_set", "solvers.alpha"),
    ("mutvis.solvers", "_validate", "solvers.validate"),
    ("mutvis.products", "k_fold_product", "products.product"),
    ("mutvis.products", "cartesian_product", "products.product"),
    ("mutvis.products", "over_visible_witness", "products.witness"),
    ("mutvis.products", "lower_bound_witness", "products.witness"),
    ("mutvis.specs", "build", "specs.build"),
    ("mutvis.verify", "run_suite", "verify.suite"),
    ("mutvis.cli", "main", "cli.main"),
)

# VisibilityOracle methods: (method, span name); the class attribute is
# replaced, which every caller looks up at call time.
SPANNED_METHODS = (
    ("__init__", "visibility.oracle_build"),
    ("tmv_holds", "visibility.tmv"),
    ("mv_holds", "visibility.mv"),
    ("minimal_tmv_blocker", "visibility.blocker"),
    ("minimal_mv_blocker", "visibility.blocker"),
)
COUNTED_METHODS = (("pair_visible", "visibility.pair_calls"),)

SOLVER_KINDS = ("mu", "mut", "muit", "alpha", "naive")

# Per-layer metrics reported by a traced pass, with their units.
LAYER_UNITS = {
    "search.calls": "count",
    "search.feasible_calls": "count",
    "search.feasible_hit_ratio": "ratio",
    "search.learn_calls": "count",
    "search.blockers_learned": "count",
    "search.pair_blockers": "count",
    "search.self_s": "s",
    "visibility.tmv_calls": "count",
    "visibility.tmv_s": "s",
    "visibility.tmv_us": "us",
    "visibility.mv_calls": "count",
    "visibility.mv_s": "s",
    "visibility.mv_us": "us",
    "visibility.blocker_calls": "count",
    "visibility.blocker_s": "s",
    "visibility.pair_calls": "count",
    "visibility.oracle_builds": "count",
    "visibility.oracle_build_s": "s",
    "visibility.bypass_s": "s",
    "graph.apsp_calls": "count",
    "graph.apsp_s": "s",
    **{f"solvers.calls.{kind}": "count" for kind in SOLVER_KINDS},
    "solvers.distinct_graph_ratio": "ratio",
    "solvers.validate_s": "s",
    "solvers.self_s": "s",
    "products.product_s": "s",
    "products.witness_s": "s",
    "specs.build_s": "s",
    "cli.self_s": "s",
}


def layer_unit(name: str) -> str:
    if name.startswith("verify.suite_s."):
        return "s"
    if name.startswith("verify.records."):
        return "count"
    return LAYER_UNITS[name]


def suite_metric_names(suite_id: str) -> tuple[str, str]:
    """Metric names for one verification suite; ':' is not allowed in
    metric names, so it becomes '_'."""
    safe = suite_id.replace(":", "_")
    return f"verify.suite_s.{safe}", f"verify.records.{safe}"


class Tracer:
    def __init__(self) -> None:
        # One entry per span: [name, start, end, parent, call_id].
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.call_id = -1
        self.solver_inputs: set = set()
        self.suite_records: dict[str, int] = {}
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.call_id])
        self.stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.spans[sid][2] = perf_counter()
        self.stack.pop()

    def spanned(self, fn, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(sid)

        return wrapper

    def counted(self, fn, counter: str):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _solver(self, fn, name: str):
        kind = name.split(".", 1)[1]
        inner = self.spanned(fn, name)

        @functools.wraps(fn)
        def wrapper(g, *args, **kwargs):
            # Key on (kind, structure) so a memo over repeated graphs would show.
            self.solver_inputs.add((kind, g.order, tuple(g.edges())))
            return inner(g, *args, **kwargs)

        return wrapper

    def _search(self, fn):
        inner = self.spanned(fn, "search")
        counts = self.counts

        @functools.wraps(fn)
        def lex_first_maximum(candidates, feasible, learn=None, seed_blockers=()):
            seeds = list(seed_blockers)
            known = set(seeds)
            counts["search.calls"] += 1

            def counted_feasible(mask):
                ok = feasible(mask)
                counts["search.feasible_calls"] += 1
                counts["search.feasible_true"] += bool(ok)
                return ok

            def counted_learn(mask):
                b = learn(mask)
                counts["search.learn_calls"] += 1
                if b and b not in known:
                    known.add(b)
                    counts["search.blockers_learned"] += 1
                    counts["search.pair_blockers"] += b.bit_count() == 2
                return b

            return inner(candidates, counted_feasible, counted_learn if learn else None, seeds)

        return lex_first_maximum

    def _suite(self, fn):
        @functools.wraps(fn)
        def run_suite(theorem_id, opts=None):
            sid = self._open("verify.suite:" + theorem_id)
            try:
                records = fn(theorem_id, opts)
            finally:
                self._close(sid)
            self.suite_records[theorem_id] = self.suite_records.get(theorem_id, 0) + len(records)
            return records

        return run_suite

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        import mutvis  # noqa: F401  (loads every submodule)
        from mutvis.visibility import VisibilityOracle

        modules = [m for n, m in list(sys.modules.items()) if n == "mutvis" or n.startswith("mutvis.")]
        for modname, attr, name in SPANNED_FUNCTIONS:
            orig = getattr(sys.modules[modname], attr)
            if name == "search":
                wrapper = self._search(orig)
            elif name == "verify.suite":
                wrapper = self._suite(orig)
            elif name.startswith("solvers.") and name != "solvers.validate":
                wrapper = self._solver(orig, name)
            else:
                wrapper = self.spanned(orig, name)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._undo.append((mod, key, orig))
                        setattr(mod, key, wrapper)
        for method, name in SPANNED_METHODS:
            orig = vars(VisibilityOracle)[method]
            self._undo.append((VisibilityOracle, method, orig))
            setattr(VisibilityOracle, method, self.spanned(orig, name))
        for method, counter in COUNTED_METHODS:
            orig = vars(VisibilityOracle)[method]
            self._undo.append((VisibilityOracle, method, orig))
            setattr(VisibilityOracle, method, self.counted(orig, counter))

    def uninstall(self) -> None:
        while self._undo:
            owner, key, orig = self._undo.pop()
            setattr(owner, key, orig)

    # -- results -------------------------------------------------------------

    def layer_metrics(self, suite_ids=()) -> dict[str, float]:
        """Fold the spans into the per-layer metrics.

        A ``*_s`` metric is the total duration of the outermost spans of its
        name (a span nested in one of the same name is not counted twice);
        a ``self_s`` metric subtracts the time covered by child spans.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        total: Counter = Counter()
        calls: Counter = Counter()
        self_time: Counter = Counter()
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for sid, (name, start, end, parent, _) in enumerate(spans):
            calls[name] += 1
            self_time[name] += end - start - child_time[sid]
            if parent < 0 or spans[parent][0] != name:
                total[name] += end - start
        c = self.counts
        m = {
            "search.calls": c["search.calls"],
            "search.feasible_calls": c["search.feasible_calls"],
            "search.feasible_hit_ratio": _ratio(c["search.feasible_true"], c["search.feasible_calls"]),
            "search.learn_calls": c["search.learn_calls"],
            "search.blockers_learned": c["search.blockers_learned"],
            "search.pair_blockers": c["search.pair_blockers"],
            "search.self_s": self_time["search"],
            "visibility.tmv_calls": calls["visibility.tmv"],
            "visibility.tmv_s": total["visibility.tmv"],
            "visibility.tmv_us": 1e6 * _ratio(total["visibility.tmv"], calls["visibility.tmv"]),
            "visibility.mv_calls": calls["visibility.mv"],
            "visibility.mv_s": total["visibility.mv"],
            "visibility.mv_us": 1e6 * _ratio(total["visibility.mv"], calls["visibility.mv"]),
            "visibility.blocker_calls": calls["visibility.blocker"],
            "visibility.blocker_s": total["visibility.blocker"],
            "visibility.pair_calls": c["visibility.pair_calls"],
            "visibility.oracle_builds": calls["visibility.oracle_build"],
            "visibility.oracle_build_s": total["visibility.oracle_build"],
            "visibility.bypass_s": total["visibility.bypass"],
            "graph.apsp_calls": calls["graph.apsp"],
            "graph.apsp_s": total["graph.apsp"],
        }
        solver_calls = 0
        for kind in SOLVER_KINDS:
            m[f"solvers.calls.{kind}"] = calls[f"solvers.{kind}"]
            solver_calls += calls[f"solvers.{kind}"]
        m["solvers.distinct_graph_ratio"] = _ratio(len(self.solver_inputs), solver_calls)
        m["solvers.validate_s"] = total["solvers.validate"]
        m["solvers.self_s"] = sum(self_time[f"solvers.{kind}"] for kind in SOLVER_KINDS)
        m["products.product_s"] = total["products.product"]
        m["products.witness_s"] = total["products.witness"]
        m["specs.build_s"] = total["specs.build"]
        m["cli.self_s"] = self_time["cli.main"]
        for tid in suite_ids:
            s_name, r_name = suite_metric_names(tid)
            m[s_name] = total["verify.suite:" + tid]
            m[r_name] = self.suite_records.get(tid, 0)
        return m

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, start, end, parent, call_id) in enumerate(self.spans):
                fh.write(json.dumps([sid, name, start, end, parent, call_id]) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
