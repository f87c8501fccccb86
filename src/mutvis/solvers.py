"""Exact solvers for the visibility invariants.

Each maximization runs the shared branch-and-bound searcher over a
downward-closed family:

* largest total mutual-visibility set, searched over bypass vertices only
  (a non-bypass vertex is the unique middle of some geodesic pair, so any
  set containing it hides that pair), with every distance-two core inside
  the candidates seeded as a blocker;
* largest mutual-visibility set, searched over all vertices;
* largest independent total mutual-visibility set, with edges inside the
  candidate list seeded as blockers as well.

``naive_oracle`` recomputes the same numbers by scanning every subset with
the definitional checkers, no candidate restriction and no pruning.  It is
deliberately redundant: the two routes must agree, and tests hold them to
that.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from ._search import lex_first_maximum
from .errors import CapExceeded, GraphError, WitnessError
from .graph import (
    DEFAULT_ALPHA_CAP,
    Graph,
    girth,
    independence_number,
    is_connected,
    is_independent_set,
    leaf_set,
    max_independent_set,
)
from .visibility import VisibilityOracle, bypass_set, distance_two_cores, is_mv_set, is_total_mv_set

DEFAULT_BP_CAP = 30
DEFAULT_N_CAP = 20
DEFAULT_ORACLE_CAP = 14

_KIND_NAMES = {
    "mu": "mutual-visibility number",
    "mut": "total mutual-visibility number",
    "muit": "independent total mutual-visibility number",
    "bp": "bypass number",
    "alpha": "independence number",
}


@dataclass(frozen=True)
class InvariantReport:
    """Outcome of one invariant computation, witness included."""

    kind: str
    value: int | None  # None only for the girth of an acyclic graph
    witness: tuple[int, ...]
    method: str
    graph_name: str = ""

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "value": self.value,
            "witness": list(self.witness),
            "method": self.method,
            "graph_name": self.graph_name,
        }


def _require_connected(g: Graph) -> None:
    if not is_connected(g):
        raise GraphError("visibility invariants need a connected graph")


def _validate(g: Graph, kind: str, value: int, witness: tuple[int, ...]) -> None:
    # Belt-and-braces recheck of the searcher's answer; failures here mean
    # a solver bug, not bad input.
    if value == 0 and not witness:
        return  # the empty set qualifies for every kind; no oracle needed
    ok = len(witness) == value
    s = frozenset(witness)
    if kind == "mut":
        ok = ok and is_total_mv_set(g, s) and s <= bypass_set(g)
    elif kind == "muit":
        ok = ok and is_total_mv_set(g, s) and is_independent_set(g, s) and s <= bypass_set(g)
    elif kind == "mu":
        ok = ok and is_mv_set(g, s)
    if not ok:
        raise WitnessError(f"internal check failed for {_KIND_NAMES[kind]} witness {sorted(s)}")


def _total_search(g: Graph, kind: str, cap: int) -> InvariantReport:
    # Shared by mut and muit.  The candidates are the bypass vertices, and a
    # set of them is total mutual-visible exactly when it holds no
    # distance-two core (see distance_two_cores).  So the cores inside the
    # candidates, and for muit the candidate edges, are seeded as blockers
    # and describe the family completely: the search needs no membership
    # test and learns nothing.  _validate re-checks the witness by BFS.
    _require_connected(g)
    candidates = sorted(bypass_set(g))
    if len(candidates) > cap:
        raise CapExceeded(
            f"{len(candidates)} bypass candidates exceed the search cap {cap};"
            " raise it with --cap-bp"
        )
    within = sum(1 << u for u in candidates)
    seeds = distance_two_cores(g, within)
    if kind == "muit":
        seeds.update((1 << u) | (1 << v) for u, v in g.edges() if within >> u & within >> v & 1)
    value, witness = lex_first_maximum(candidates, lambda mask: True, seed_blockers=seeds)
    _validate(g, kind, value, witness)
    return InvariantReport(kind, value, witness, "pruned-search", g.name)


def max_total_mv(g: Graph, *, cap: int = DEFAULT_BP_CAP) -> InvariantReport:
    """Largest total mutual-visibility set of a connected graph.

    Candidates are the bypass vertices; the search prunes by the seeded
    distance-two cores and a clique-cover bound.  Raises CapExceeded when
    the graph has more than ``cap`` bypass vertices.
    """
    return _total_search(g, "mut", cap)


def max_independent_total_mv(g: Graph, *, cap: int = DEFAULT_BP_CAP) -> InvariantReport:
    """Largest set that is independent and total mutual-visible at once.

    Same candidate list and cap as max_total_mv; edges between candidates
    are seeded as two-vertex conflict cores so the searcher never proposes
    a dependent set.
    """
    return _total_search(g, "muit", cap)


def max_mv(g: Graph, *, cap: int = DEFAULT_N_CAP) -> InvariantReport:
    """Largest mutual-visibility set: only pairs inside the set must stay
    visible, so every vertex is a candidate and there is no bypass
    restriction.  Raises CapExceeded when the order exceeds ``cap``."""
    _require_connected(g)
    if g.order > cap:
        raise CapExceeded(
            f"order {g.order} exceeds the search cap {cap}; raise it with --cap-n"
        )
    oracle = VisibilityOracle.for_graph(g)
    value, witness = lex_first_maximum(
        range(g.order), oracle.mv_grows, learn=oracle.minimal_mv_blocker
    )
    _validate(g, "mu", value, witness)
    return InvariantReport("mu", value, witness, "pruned-search", g.name)


def naive_oracle(g: Graph, kind: str, *, cap: int = DEFAULT_ORACLE_CAP) -> InvariantReport:
    """Reference recomputation of mu, mut, or muit by scanning every subset.

    No candidate restriction, no pruning, no reliance on downward closure:
    all 2^n subsets are checked against the definitional predicate, smallest
    sets first, and the first feasible set of each size is remembered.  The
    reported witness therefore matches the pruned solvers' tie-break (the
    lexicographically smallest maximum).  Meant for cross-validation only.
    """
    if kind not in ("mu", "mut", "muit"):
        raise GraphError(f"unknown invariant kind {kind!r}")
    _require_connected(g)
    if g.order > cap:
        raise CapExceeded(f"order {g.order} exceeds the exhaustive-search cap {cap}")
    oracle = VisibilityOracle.for_graph(g)

    def feasible(vs: tuple[int, ...]) -> bool:
        mask = 0
        for v in vs:
            mask |= 1 << v
        if kind == "mu":
            return oracle.mv_holds(mask)
        if kind == "muit":
            return is_independent_set(g, frozenset(vs)) and oracle.tmv_holds(mask)
        return oracle.tmv_holds(mask)

    first_by_size: dict[int, tuple[int, ...]] = {0: ()}
    for r in range(1, g.order + 1):
        for vs in combinations(range(g.order), r):
            if feasible(vs) and r not in first_by_size:
                first_by_size[r] = vs
    value = max(first_by_size)
    return InvariantReport(kind, value, first_by_size[value], "naive-oracle", g.name)


def mut_is_zero(g: Graph) -> bool:
    """Whether the graph has no nonempty total mutual-visibility set.

    Equivalent to having no bypass vertex: a singleton is total
    mutual-visible exactly when its vertex is bypass, and supersets of a
    blocked singleton stay blocked.  On the one-vertex graph this returns
    False (the lone vertex is trivially visible with everything).
    """
    _require_connected(g)
    return not bypass_set(g)


def bypass_report(g: Graph) -> InvariantReport:
    """Bypass number of a connected graph, with the full bypass set as
    witness."""
    _require_connected(g)
    bp = sorted(bypass_set(g))
    return InvariantReport("bp", len(bp), tuple(bp), "formula", g.name)


def alpha_report(g: Graph, *, cap: int = DEFAULT_ALPHA_CAP) -> InvariantReport:
    """Independence number via the same branch-and-bound searcher."""
    witness = tuple(sorted(max_independent_set(g, cap=cap)))
    return InvariantReport("alpha", len(witness), witness, "pruned-search", g.name)


# Each invariant the CLI computes, as a function of the graph and an object
# carrying the caps ``bp_cap``, ``n_cap`` and ``alpha_cap`` (such as
# verify.SuiteOptions).  The lambdas look the solvers up by name at call
# time, so a wrapper bound over a module-level name sees every call.
INVARIANTS = {
    "mu": lambda g, caps: max_mv(g, cap=caps.n_cap),
    "mut": lambda g, caps: max_total_mv(g, cap=caps.bp_cap),
    "muit": lambda g, caps: max_independent_total_mv(g, cap=caps.bp_cap),
    "bp": lambda g, caps: bypass_report(g),
    "alpha": lambda g, caps: alpha_report(g, cap=caps.alpha_cap),
    "girth": lambda g, caps: InvariantReport("girth", girth(g), (), "formula", g.name),
}


def sandwich_check(g: Graph, *, cap: int = DEFAULT_BP_CAP, alpha_cap: int = DEFAULT_ALPHA_CAP) -> bool:
    """Cross-validation chain: leaf count <= muit <= min(mut, alpha).

    Evaluates the chain honestly, so it can come back False on degenerate
    inputs (the two-vertex path has two leaves but muit 1).
    """
    _require_connected(g)
    leaves = len(leaf_set(g))
    muit = max_independent_total_mv(g, cap=cap).value
    mut = max_total_mv(g, cap=cap).value
    alpha = independence_number(g, cap=alpha_cap)
    return leaves <= muit <= min(mut, alpha)
