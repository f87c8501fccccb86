"""Verification suites: each registered suite checks one structural claim
about the visibility invariants on a family of concrete instances.

A suite yields ``(instance, expected, check)`` triples, and ``check()``
returns ``(observed, ok)``.  ``run_suite`` alone turns a check into a
record: pass or fail by ``ok``, or skipped-cap when the check raises
CapExceeded, so a cap shortfall never hides a failure or aborts the run.
It calls each check before it resumes the suite, so a check may read the
suite's loop variables directly.  A suite does capped work only inside its
checks, and computes every invariant through ``solvers.INVARIANTS``, so that
table alone picks each invariant's solver and cap.  Each run asks the table
and the exhaustive reference each question once: answers are kept, for that
run only, by kind and graph structure (see ``_solve``).  Where a claim has a
constructive side (an explicit witness set), the suite builds the witness
and runs the definitional checker on it rather than trusting the equality
alone.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import combinations_with_replacement
from typing import Callable, Iterable, Iterator

from .errors import CapExceeded, WitnessError
from .generators import random_connected_graph, random_tree
from .graph import (
    Graph,
    girth,
    is_independent_set,
    leaf_set,
    min_degree,
)
from .products import cartesian_product, k_fold_product, lower_bound_witness, over_visible_witness
from .solvers import (
    DEFAULT_BP_CAP,
    INVARIANTS,
    InvariantReport,
    mut_is_zero,
    naive_oracle,
)
from .specs import build, graph_of
from .visibility import bypass_set, is_bypass_vertex, is_mv_set, is_total_mv_set


@dataclass(frozen=True)
class SuiteOptions:
    """Shared knobs: seed and count drive the randomized corpora, the caps
    mirror the solver flags.  max_n bounds only the orders of the named
    corpus (at most 10 in fam:oracle) and cor:theta's length budget; the
    random and tree corpora and the product suites ignore it.  n_cap
    bounds both the mu and the alpha search; None keeps each search's
    default."""

    seed: int = 0
    count: int = 20
    max_n: int = 12
    bp_cap: int = DEFAULT_BP_CAP
    n_cap: int | None = None


@dataclass(frozen=True)
class VerificationRecord:
    theorem_id: str
    instance: str
    expected: str
    observed: str
    status: str  # pass | fail | skipped-cap

    @property
    def passed(self) -> bool:
        return self.status != "fail"

    def to_dict(self) -> dict:
        return dict(vars(self))


Check = Callable[[], tuple[str, bool]]
Checks = Iterator[tuple[str, str, Check]]  # (instance, expected, check)
Suite = Callable[[SuiteOptions], Checks]

_SUITES: dict[str, tuple[str, Suite]] = {}


def _suite(theorem_id: str, description: str):
    def register(fn):
        _SUITES[theorem_id] = (description, fn)
        return fn

    return register


def suite_ids() -> list[str]:
    return list(_SUITES)


def describe_suites() -> dict[str, str]:
    return {tid: desc for tid, (desc, _) in _SUITES.items()}


# Answers of the run in progress, keyed by (question, adjacency masks); None
# between runs.  The key holds no Graph, so no graph or oracle outlives its
# suite's use of it.
_memo: dict[tuple[str, tuple[int, ...]], InvariantReport] | None = None


@contextmanager
def _run_memo():
    """Open the memo for one run, unless a run already has one open, and
    drop it when that run ends."""
    global _memo
    if _memo is not None:
        yield
        return
    _memo = {}
    try:
        yield
    finally:
        _memo = None


def _recall(question: str, g: Graph, answer: Callable[[], InvariantReport]) -> InvariantReport:
    # Called only from checks, which run_suite runs with the memo open.  A
    # CapExceeded from answer() propagates and stores nothing.
    key = (question, g.adjacency_masks())
    report = _memo.get(key)
    if report is None:
        report = _memo[key] = answer()
    elif report.graph_name != g.name:
        report = replace(report, graph_name=g.name)
    return report


def _solve(kind: str, g: Graph, opts: SuiteOptions) -> InvariantReport:
    """``INVARIANTS[kind](g, opts)``, asked once per run and graph structure.
    Every suite shares its run's options, and each answer is a function of
    the adjacency masks and the caps, so a recalled report differs from a
    fresh one at most in its graph name, which is set to g's."""
    return _recall(kind, g, lambda: INVARIANTS[kind](g, opts))


def _reference(kind: str, g: Graph) -> InvariantReport:
    """``naive_oracle(g, kind)``, asked once per run and graph structure."""
    return _recall("naive " + kind, g, lambda: naive_oracle(g, kind))


def run_suite(theorem_id: str, opts: SuiteOptions | None = None) -> list[VerificationRecord]:
    """Run one suite: call each check it yields, before resuming it, and
    turn the outcome into a record.

    The suite's solver and reference answers are kept for the run, keyed by
    kind and adjacency masks, so a repeated question is answered once.  A
    call from ``run_all`` shares that run's memo; a call alone opens its
    own, dropped when it returns."""
    if theorem_id not in _SUITES:
        known = ", ".join(_SUITES)
        raise KeyError(f"unknown suite {theorem_id!r}; known suites: {known}")
    _, suite = _SUITES[theorem_id]
    records = []
    with _run_memo():
        for instance, expected, check in suite(opts or SuiteOptions()):
            try:
                observed, ok = check()
                status = "pass" if ok else "fail"
            except CapExceeded as exc:
                observed, status = f"cap exceeded: {exc}", "skipped-cap"
            records.append(VerificationRecord(theorem_id, instance, expected, observed, status))
    return records


def run_all(opts: SuiteOptions | None = None) -> list[VerificationRecord]:
    """Run every suite in registry order under one memo of answers, so a
    question two suites share is answered once; the records equal those of
    running each suite alone.  The memo is dropped when the run ends."""
    opts = opts or SuiteOptions()
    with _run_memo():
        return [record for tid in _SUITES for record in run_suite(tid, opts)]


# -- corpora -----------------------------------------------------------------

_NAMED_SPECS = (
    "path:2", "path:3", "path:4", "path:5", "path:7", "path:9", "path:12",
    "cycle:3", "cycle:4", "cycle:5", "cycle:6", "cycle:7", "cycle:9", "cycle:12",
    "complete:2", "complete:3", "complete:4", "complete:5", "complete:6", "complete:8",
    "biclique:2,2", "biclique:2,3", "biclique:3,3", "biclique:3,4", "biclique:4,4",
    "biclique:4,5", "biclique:5,5", "biclique:1,4",
    "star:2", "star:3", "star:4", "star:6",
    "theta:1,2", "theta:1,3", "theta:1,4", "theta:1,5", "theta:2,2", "theta:2,3",
    "theta:2,2,2", "theta:2,2,3", "theta:2,2,4", "theta:1,2,2", "theta:2,3,4",
    "theta:3,3,3", "theta:2,2,2,3",
    "gencomplete:2", "gencomplete:1,1", "gencomplete:1,2", "gencomplete:2,2",
    "gencomplete:2,3", "gencomplete:3,3", "gencomplete:1,1,1", "gencomplete:1,2,3",
    "gm:1", "gm:2", "gm:3",
    "petersen", "fig1", "fig2",
    "randomtree:6,1", "randomtree:8,2", "randomtree:10,3", "randomtree:12,4",
)


@lru_cache(maxsize=None)
def named_corpus(max_n: int = 12) -> tuple[Graph, ...]:
    """One instance of every generator family, orders capped at max_n."""
    graphs = []
    for spec in _NAMED_SPECS:
        g = graph_of(build(spec))
        if g.order <= max_n:
            graphs.append(g)
    return tuple(graphs)


@lru_cache(maxsize=None)
def random_corpus(count: int = 30, max_n: int = 10, seed: int = 0) -> tuple[Graph, ...]:
    span = max_n - 2 + 1
    return tuple(
        random_connected_graph(2 + (i % span), seed + i) for i in range(count)
    )


@lru_cache(maxsize=None)
def tree_corpus(count: int = 12, lo: int = 2, hi: int = 9, seed: int = 0) -> tuple[Graph, ...]:
    span = hi - lo + 1
    return tuple(random_tree(lo + (i % span), seed + i) for i in range(count))


def _pool(specs: Iterable[str]) -> list[Graph]:
    return [graph_of(build(s)) for s in specs]


def _pair_name(a: Graph, b: Graph) -> str:
    return f"{a.name} x {b.name}"


# -- single-graph structure suites -------------------------------------------


@_suite("prop:for-trees", "the leaves of a tree form a mutual-visibility set and mu equals the leaf count")
def _suite_for_trees(opts: SuiteOptions) -> Checks:
    trees = list(tree_corpus(opts.count, 2, 9, opts.seed)) + _pool(["path:5", "path:2", "star:4"])
    for t in trees:
        leaves = leaf_set(t)

        def check():
            if not is_mv_set(t, leaves):
                return ("leaf set fails the mutual-visibility check", False)
            value = _solve("mu", t, opts).value
            ok = value == len(leaves)
            if t.order >= 3:
                # On trees the total and independent-total invariants match
                # the leaf count as well; on two vertices they split.
                mut = _solve("mut", t, opts).value
                muit = _solve("muit", t, opts).value
                ok = ok and mut == len(leaves) and muit == len(leaves)
                return (f"mu={value}, mut={mut}, independent mut={muit}, leaves={len(leaves)}", ok)
            return (f"mu={value}, leaves={len(leaves)}", ok)

        yield t.name, "mu == leaf count, leaf set is a mutual-visibility set", check


@_suite("prop:subsets-are-ok", "subsets of (total) mutual-visibility sets keep the property")
def _suite_subsets(opts: SuiteOptions) -> Checks:
    rng = random.Random(opts.seed)
    for g in named_corpus(opts.max_n):

        def check():
            w_total = _solve("mut", g, opts).witness
            for _ in range(opts.count):
                sub = frozenset(v for v in w_total if rng.random() < 0.5)
                if not is_total_mv_set(g, sub):
                    return (f"total subset {sorted(sub)} fails", False)
            w_mv = _solve("mu", g, opts).witness
            for _ in range(opts.count):
                sub = frozenset(v for v in w_mv if rng.random() < 0.5)
                if not is_mv_set(g, sub):
                    return (f"mutual subset {sorted(sub)} fails", False)
            return (f"{2 * opts.count} sampled subsets pass", True)

        yield g.name, "sampled witness subsets stay feasible", check


@_suite("lem:mut-0-iff-singletons", "the total invariant vanishes exactly when every singleton fails")
def _suite_singletons(opts: SuiteOptions) -> Checks:
    for g in named_corpus(opts.max_n):

        def check():
            zero = _solve("mut", g, opts).value == 0
            no_single = all(not is_total_mv_set(g, {x}) for x in range(g.order))
            return (f"mut==0 is {zero}, all singletons fail is {no_single}", zero == no_single)

        yield g.name, "mut == 0 iff no singleton works", check


@_suite("lem:bypass-vertex-is-good", "a singleton is total mutual-visible exactly when its vertex is bypass")
def _suite_singleton_bypass(opts: SuiteOptions) -> Checks:
    for g in named_corpus(opts.max_n):

        def check():
            bad = [
                u for u in range(g.order)
                if is_total_mv_set(g, {u}) != is_bypass_vertex(g, u)
            ]
            return ("all vertices agree" if not bad else f"disagreement at {bad}", not bad)

        yield g.name, "singleton check agrees with bypass check on every vertex", check


@_suite("lem:non-bypass-in-not-in", "no total mutual-visibility set contains a non-bypass vertex")
def _suite_non_bypass(opts: SuiteOptions) -> Checks:
    for g in named_corpus(opts.max_n):

        def check():
            non_bp = sorted(set(range(g.order)) - bypass_set(g))
            if any(is_total_mv_set(g, {u}) for u in non_bp):
                return ("some non-bypass singleton passes", False)
            w = _reference("mut", g).witness
            hit = sorted(set(w) & set(non_bp))
            if hit:
                return (f"unrestricted-search witness contains {hit}", False)
            return ("singletons and unrestricted witness avoid non-bypass vertices", True)

        yield g.name, "non-bypass vertices appear in no witness", check


@_suite("eq:bounded-by-bp", "the total invariant never exceeds the bypass count")
def _suite_bp_bound(opts: SuiteOptions) -> Checks:
    for g in named_corpus(opts.max_n):

        def check():
            value = _solve("mut", g, opts).value
            bp = len(bypass_set(g))
            return (f"mut={value}, bp={bp}", value <= bp)

        yield g.name, "mut <= bp", check


@_suite("thm:main-characterization-for-0", "the total invariant vanishes exactly when there is no bypass vertex")
def _suite_zero_char(opts: SuiteOptions) -> Checks:
    corpus = list(named_corpus(opts.max_n)) + list(random_corpus(opts.count, 10, opts.seed))
    for g in corpus:

        def check():
            zero = _solve("mut", g, opts).value == 0
            bp = len(bypass_set(g))
            return (f"mut==0 is {zero}, bp={bp}", zero == (bp == 0))

        yield g.name, "mut == 0 iff bp == 0", check


@_suite("cor:girth", "without short cycles, the total invariant vanishes exactly on min degree >= 2")
def _suite_girth(opts: SuiteOptions) -> Checks:
    corpus = list(named_corpus(opts.max_n)) + list(tree_corpus(opts.count, 2, 9, opts.seed))
    for g in corpus:
        gg = girth(g)
        if gg is not None and gg < 5:
            continue

        def check():
            zero = mut_is_zero(g)
            deg = min_degree(g)
            return (f"girth={gg if gg is not None else 'acyclic'}, mut==0 is {zero}, min degree {deg}",
                    zero == (deg >= 2))

        yield g.name, "mut == 0 iff min degree >= 2 (girth >= 5)", check


def _theta_vectors(budget: int) -> list[tuple[int, ...]]:
    found: list[tuple[int, ...]] = []

    def grow(prefix: list[int], remaining: int) -> None:
        if len(prefix) >= 2:
            found.append(tuple(prefix))
        lo = max(prefix[-1], 2) if len(prefix) == 1 else prefix[-1]
        for p in range(lo, remaining + 1):
            prefix.append(p)
            grow(prefix, remaining - p)
            prefix.pop()

    for p1 in range(1, budget + 1):
        grow([p1], budget - p1)
    return found


def _theta_zero_expected(lengths: tuple[int, ...]) -> bool:
    p1, p2 = lengths[0], lengths[1]
    return (p1 == 1 and p2 >= 4) or (p1 == 2 and p2 >= 3) or p1 >= 3


@_suite("cor:theta", "the hub-and-paths graphs with vanishing total invariant are exactly three length patterns")
def _suite_theta(opts: SuiteOptions) -> Checks:
    for lengths in _theta_vectors(min(opts.max_n, 12)):
        g = graph_of(build("theta:" + ",".join(map(str, lengths))))
        want = _theta_zero_expected(lengths)

        def check():
            zero = mut_is_zero(g)
            return (f"mut == 0 observed {zero}", zero == want)

        yield g.name, f"mut == 0 expected {want}", check


# -- product suites ----------------------------------------------------------


@_suite("thm:cp", "a two-factor product has vanishing total invariant exactly when a factor does")
def _suite_cp_zero(opts: SuiteOptions) -> Checks:
    pool = _pool([
        "complete:2", "complete:3", "path:3", "path:4", "cycle:3", "cycle:4",
        "cycle:5", "cycle:6", "star:3", "theta:2,2,2", "fig2",
    ])
    for a, b in combinations_with_replacement(pool, 2):

        def check():
            p = cartesian_product(a, b)
            pv = _solve("mut", p.graph, opts).value
            av = _solve("mut", a, opts).value
            bv = _solve("mut", b, opts).value
            ok = (pv == 0) == (av == 0 or bv == 0)
            return (f"mut(product)={pv}, factors {av} and {bv}", ok)

        yield _pair_name(a, b), "product vanishes iff some factor vanishes", check


@_suite("cor:cp", "a multi-factor product has vanishing total invariant exactly when some factor does")
def _suite_cp_zero_k(opts: SuiteOptions) -> Checks:
    pool = _pool(["complete:2", "complete:3", "path:3", "cycle:5", "cycle:3"])
    for triple in combinations_with_replacement(pool, 3):

        def check():
            p = k_fold_product(list(triple))
            pv = _solve("mut", p.graph, opts).value
            vals = [_solve("mut", f, opts).value for f in triple]
            ok = (pv == 0) == any(v == 0 for v in vals)
            return (f"mut(product)={pv}, factors {vals}", ok)

        name = " x ".join(f.name for f in triple)
        yield name, "product vanishes iff some factor vanishes", check


@_suite("thm:cp-bounds", "the product total invariant sits between the mixed products and the layer bound")
def _suite_cp_bounds(opts: SuiteOptions) -> Checks:
    pool = _pool([
        "complete:2", "complete:3", "complete:4", "path:3", "path:4",
        "cycle:4", "star:3", "biclique:2,2", "theta:2,2,2",
    ])
    # The bounds are stated for factors with muit >= 1, that is for factors
    # with a bypass vertex: such a vertex alone is an independent total
    # mutual-visibility set, and without one even mut is 0.  The bypass set
    # needs no search, so choosing the factors cannot exceed a cap.
    usable = [g for g in pool if bypass_set(g)]
    for a, b in combinations_with_replacement(usable, 2):

        def check():
            mg = _solve("mut", a, opts).value
            mh = _solve("mut", b, opts).value
            ig = _solve("muit", a, opts).value
            ih = _solve("muit", b, opts).value
            p = cartesian_product(a, b)
            pv = _solve("mut", p.graph, opts).value
            lo = max(ih * mg, ig * mh)
            hi = min(mg * b.order, mh * a.order)
            return (f"{lo} <= {pv} <= {hi}", lo <= pv <= hi)

        yield _pair_name(a, b), "lower and upper product bounds hold", check


@_suite("prop:both-factors-mut-1", "a product with total invariant 1 forces both factors to 1")
def _suite_both_one(opts: SuiteOptions) -> Checks:
    pairs = [
        ("fig1", "fig1"),
        ("theta:2,2,4", "theta:2,2,4"),
        ("complete:3", "fig1"),
        ("cycle:4", "complete:2"),
        ("biclique:3,3", "complete:3"),
        ("path:4", "theta:2,2,4"),
    ]
    for sa, sb in pairs:
        a = graph_of(build(sa))
        b = graph_of(build(sb))

        def check():
            ra = _solve("mut", a, opts)
            rb = _solve("mut", b, opts)
            p = cartesian_product(a, b)
            pv = _solve("mut", p.graph, opts).value
            ok = pv != 1 or (ra.value == 1 and rb.value == 1)
            # The two-point construction behind the claim: two witness
            # vertices of one factor in a single layer stay visible.
            if ra.value >= 2 and rb.value >= 1:
                two = {p.encode((ra.witness[0], rb.witness[0])),
                       p.encode((ra.witness[1], rb.witness[0]))}
                ok = ok and is_total_mv_set(p.graph, two) and pv >= 2
            return (f"mut(product)={pv}, factors {ra.value} and {rb.value}", ok)

        yield _pair_name(a, b), "product value 1 implies both factors 1", check


@_suite("prop:cp-complete-by-complete", "products of complete graphs take the larger order as total invariant")
def _suite_complete_product(opts: SuiteOptions) -> Checks:
    for n in range(2, 6):
        for m in range(2, 6):

            def check():
                p = cartesian_product(graph_of(build(f"complete:{n}")), graph_of(build(f"complete:{m}")))
                pv = _solve("mut", p.graph, opts).value
                return (f"mut={pv}", pv == max(n, m))

            yield f"complete:{n} x complete:{m}", f"mut == max({n},{m})", check


@_suite("thm:cp-cycle-by-complete-graphs", "cycle-by-complete products: invariant n for short cycles, 0 from girth 5 on")
def _suite_cycle_complete(opts: SuiteOptions) -> Checks:
    for s in range(3, 8):
        for n in range(3, 6):
            p = cartesian_product(graph_of(build(f"cycle:{s}")), graph_of(build(f"complete:{n}")))

            def check():
                if s >= 5:
                    zero = mut_is_zero(p.graph)
                    return (f"bp={len(bypass_set(p.graph))}", zero)
                pv = _solve("mut", p.graph, opts).value
                return (f"mut={pv}", pv == n)

            expected = "mut == 0 (no bypass vertex)" if s >= 5 else f"mut == {n}"
            yield f"cycle:{s} x complete:{n}", expected, check


@_suite("thm:cp-tree-by-graphs", "tree-by-graph products multiply the factors' total invariants")
def _suite_tree_product(opts: SuiteOptions) -> Checks:
    trees = list(tree_corpus(min(opts.count, 8), 3, 8, opts.seed + 17)) + _pool(["star:5"])
    pool = _pool(["complete:2", "complete:3", "cycle:3", "cycle:4", "theta:2,2,4", "fig1"])
    for t in trees:
        for h in pool:

            def check():
                p = cartesian_product(t, h)
                pv = _solve("mut", p.graph, opts).value
                tv = _solve("mut", t, opts).value
                hv = _solve("mut", h, opts).value
                return (f"mut(product)={pv}, factors {tv} and {hv}", pv == tv * hv)

            yield _pair_name(t, h), "product invariant is the factor product", check


@_suite("cor:tree-by-complete", "tree-by-complete products scale the tree invariant by the clique order")
def _suite_tree_complete(opts: SuiteOptions) -> Checks:
    trees = list(tree_corpus(6, 3, 7, opts.seed + 29)) + _pool(["star:4", "path:5"])
    for t in trees:
        leaves = leaf_set(t)
        for n in range(2, 5):

            def check():
                kn = graph_of(build(f"complete:{n}"))
                p = cartesian_product(t, kn)
                image = lower_bound_witness(p, leaves, range(n))
                pv = _solve("mut", p.graph, opts).value
                ok = len(image) == n * len(leaves) and pv == n * _solve("mut", t, opts).value
                return (f"mut(product)={pv}, witness image {len(image)}", ok)

            yield f"{t.name} x complete:{n}", "product invariant is n times the tree invariant", check


@_suite("thm:cp-generalized-complete-graphs", "apex-plus-cliques products: bound (n-1)(m-1), tight exactly for stars")
def _suite_gencomplete_product(opts: SuiteOptions) -> Checks:
    shapes = [(1, 1), (2, 2), (1, 2), (1, 1, 1), (3, 3), (2, 3), (1, 1, 2), (1, 3)]
    pool = [graph_of(build("gencomplete:" + ",".join(map(str, s)))) for s in shapes]
    stars = {g.name: all(c == 1 for c in s) for g, s in zip(pool, shapes)}
    for a, b in combinations_with_replacement(pool, 2):

        def check():
            bound = (a.order - 1) * (b.order - 1)
            p = cartesian_product(a, b)
            bp_set = bypass_set(p.graph)
            tight = len(bp_set) == bound and is_total_mv_set(p.graph, bp_set)
            want_tight = stars[a.name] or stars[b.name]
            ok = len(bp_set) <= bound and tight == want_tight
            if a.order <= 5 and b.order <= 5:
                pv = _solve("mut", p.graph, opts).value
                ok = ok and pv <= bound and (pv == bound) == want_tight
                return (f"mut={pv}, bound={bound}, tight={tight}", ok)
            return (f"bp(product)={len(bp_set)}, bound={bound}, tight={tight}", ok)

        yield _pair_name(a, b), "bounded by (n-1)(m-1), equality exactly for a star factor", check


@_suite("the:over-visible", "paired spare bypass vertices push the product invariant past the factor product")
def _suite_over_visible(opts: SuiteOptions) -> Checks:
    # (spec_g, base, extras) triples: base is a largest total mutual-visibility
    # set, base+extras an independent set of bypass vertices.
    setups = {
        "theta:2,2,4": ({2}, [3]),
        "theta:2,2,2,3": ({2, 3}, [4]),
        "gm:1": ({0, 3, 4}, [5]),
        "gm:2": ({0, 4, 5, 6}, [7, 8]),
    }
    instances = [
        ("theta:2,2,4", "theta:2,2,4"),
        ("theta:2,2,2,3", "theta:2,2,2,3"),
        ("gm:1", "gm:1"),
        ("gm:2", "gm:2"),
        ("theta:2,2,4", "gm:1"),
    ]
    for sa, sb in instances:
        a = graph_of(build(sa))
        b = graph_of(build(sb))
        s_a, e_a = setups[sa]
        s_b, e_b = setups[sb]
        k = min(len(e_a), len(e_b))

        def check():
            ma = _solve("mut", a, opts).value
            mb = _solve("mut", b, opts).value
            if len(s_a) != ma or len(s_b) != mb:
                return ("configured base sets are not largest", False)
            p = cartesian_product(a, b)
            try:
                witness = over_visible_witness(p, s_a, e_a[:k], s_b, e_b[:k])
            except WitnessError as exc:
                return (f"witness construction failed: {exc}", False)
            ok = len(witness) == ma * mb + k and len(witness) > ma * mb
            observed = f"verified witness of size {len(witness)} > {ma * mb}"
            try:
                pv = _solve("mut", p.graph, opts).value
            except CapExceeded:
                return (observed, ok)
            return (f"{observed}, exact mut={pv}", ok and pv > ma * mb)

        yield _pair_name(a, b), "product exceeds the factor product", check


# -- family suites -----------------------------------------------------------


@_suite("fam:theta-i", "uniform short-path hub graphs: i bypass vertices, total invariant i-1")
def _suite_theta_i(opts: SuiteOptions) -> Checks:
    instances = [
        (2, (2, 2, 3)), (2, (2, 2, 4)), (2, (2, 2, 5)), (2, (2, 2, 3, 3)),
        (3, (2, 2, 2, 3)), (3, (2, 2, 2, 4)), (3, (2, 2, 2, 3, 3)),
        (4, (2, 2, 2, 2, 3)), (4, (2, 2, 2, 2, 3, 3)),
    ]
    for i, lengths in instances:
        g = graph_of(build("theta:" + ",".join(map(str, lengths))))

        def check():
            middles = frozenset(range(2, 2 + i))
            bp_set = bypass_set(g)
            if bp_set != middles:
                return (f"bypass set {sorted(bp_set)} is not the short-path middles", False)
            if not is_independent_set(g, bp_set):
                return ("bypass set is not independent", False)
            if is_total_mv_set(g, bp_set):
                return ("full bypass set unexpectedly passes", False)
            for v in middles:
                if not is_total_mv_set(g, middles - {v}):
                    return (f"bypass set minus {v} fails", False)
            value = _solve("mut", g, opts).value
            ivalue = _solve("muit", g, opts).value
            return (f"bp={len(bp_set)}, mut={value}, independent mut={ivalue}",
                    value == i - 1 and ivalue == i - 1)

        yield g.name, f"bp == {i} and mut == {i - 1}", check


@_suite("fam:gm", "the rung-gadget family: bp 2m+2, total invariant m+2, spare bypass slack m")
def _suite_gm(opts: SuiteOptions) -> Checks:
    for m in range(1, 5):
        g = graph_of(build(f"gm:{m}"))

        def check():
            expected_bp = frozenset({0, m + 2}) | frozenset(range(m + 3, 3 * m + 3))
            bp_set = bypass_set(g)
            if bp_set != expected_bp:
                return (f"bypass set {sorted(bp_set)} differs", False)
            if not is_independent_set(g, bp_set):
                return ("bypass set is not independent", False)
            if g.degree(0) != 1 or g.degree(m + 2) != 1:
                return ("pendant ends have the wrong degree", False)
            if any(g.degree(v) != 2 for v in range(m + 3, 3 * m + 3)):
                return ("rung vertices have the wrong degree", False)
            witness = frozenset({0, m + 2}) | frozenset(range(m + 3, 2 * m + 3))
            if not (is_total_mv_set(g, witness) and is_independent_set(g, witness)):
                return ("documented witness fails", False)
            value = _solve("mut", g, opts).value
            ivalue = _solve("muit", g, opts).value
            ok = value == m + 2 and ivalue == m + 2 and len(bp_set) - value == m
            return (f"bp={len(bp_set)}, mut={value}, independent mut={ivalue}", ok)

        yield g.name, f"bp == {2 * m + 2} and mut == {m + 2}", check


@_suite("fam:sporadic", "pinned values for the fixed example graphs and small complete bipartite graphs")
def _suite_sporadic(opts: SuiteOptions) -> Checks:
    def fig1_check():
        g = graph_of(build("fig1"))
        value = _solve("mut", g, opts).value
        bp_set = bypass_set(g)
        return (f"mut={value}, bypass={sorted(bp_set)}", value == 1 and bp_set == {5, 6})

    yield "fig1", "mut == 1 and bypass set {5, 6}", fig1_check

    def fig2_check():
        g = graph_of(build("fig2"))
        value = _solve("mut", g, opts).value
        return (f"mut={value}, bp={len(bypass_set(g))}", value == 0 and not bypass_set(g))

    yield "fig2", "mut == 0 and bp == 0", fig2_check

    def petersen_check():
        g = graph_of(build("petersen"))
        value = _solve("mut", g, opts).value
        return (f"mut={value}, girth={girth(g)}, min degree {min_degree(g)}",
                value == 0 and girth(g) == 5 and min_degree(g) == 3)

    yield "petersen", "mut == 0, girth 5, min degree 3", petersen_check

    for n in range(3, 6):
        for m in range(n, 6):

            def biclique_check():
                g = graph_of(build(f"biclique:{n},{m}"))
                value = _solve("mut", g, opts).value
                return (f"mut={value}, bp={len(bypass_set(g))}",
                        value == n + m - 2 and len(bypass_set(g)) == n + m)

            yield f"biclique:{n},{m}", f"mut == {n + m - 2} and bp == {n + m}", biclique_check

    def small_biclique_check():
        # Below the 3,3 threshold the bypass bound is still n+m but the
        # invariant drops differently; pin the computed truth.
        g = graph_of(build("theta:2,2,2"))
        value = _solve("mut", g, opts).value
        return (f"mut={value}, bp={len(bypass_set(g))}",
                value == 3 and len(bypass_set(g)) == 5)

    yield "theta:2,2,2", "mut == 3 and bp == 5 (equals biclique:2,3)", small_biclique_check

    for n in range(3, 7):

        def complete_check():
            g = graph_of(build(f"complete:{n}"))
            mu = _solve("mu", g, opts).value
            mut = _solve("mut", g, opts).value
            muit = _solve("muit", g, opts).value
            return (f"mu={mu}, mut={mut}, independent mut={muit}",
                    mu == n and mut == n and muit == 1)

        yield f"complete:{n}", f"mu == mut == {n}, independent mut == 1", complete_check

    def gencomplete_check():
        g = graph_of(build("gencomplete:2,2"))
        value = _solve("mut", g, opts).value
        return (f"mut={value}", value == g.order - 1)

    yield "gencomplete:2,2", "mut == order - 1 for a non-trivial instance", gencomplete_check


@_suite("fam:sandwich", "leaf count <= independent total invariant <= min(total invariant, independence number)")
def _suite_sandwich(opts: SuiteOptions) -> Checks:
    corpus = [g for g in named_corpus(opts.max_n) if g.order >= 3]
    for g in corpus:

        def check():
            leaves = len(leaf_set(g))
            muit = _solve("muit", g, opts).value
            mut = _solve("mut", g, opts).value
            alpha = _solve("alpha", g, opts).value
            ok = leaves <= muit <= min(mut, alpha)
            return (f"{leaves} <= {muit} <= min({mut}, {alpha})", ok)

        yield g.name, "the chain holds", check


@_suite("fam:oracle", "pruned solvers agree with the exhaustive reference search")
def _suite_oracle(opts: SuiteOptions) -> Checks:
    corpus = [g for g in named_corpus(min(opts.max_n, 10))]
    corpus += [g for g in random_corpus(min(opts.count, 12), 8, opts.seed + 5)]
    for g in corpus:

        def check():
            for kind in ("mut", "muit", "mu"):
                fast = _solve(kind, g, opts)
                slow = _reference(kind, g)
                if fast.value != slow.value or fast.witness != slow.witness:
                    return (
                        f"{kind}: search {fast.value} {fast.witness} vs reference {slow.value} {slow.witness}",
                        False,
                    )
            return ("all three invariants and witnesses agree", True)

        yield g.name, "search equals reference on values and witnesses", check
