"""Exact solvers for the visibility invariants.

Each maximization runs the shared branch-and-bound searcher over a family
closed under dropping its highest member:

* largest total mutual-visibility set, searched over bypass vertices only
  (a non-bypass vertex is the unique middle of some geodesic pair, so any
  set containing it hides that pair), with every distance-two core inside
  the candidates seeded as a blocker;
* largest mutual-visibility set, searched over all vertices, with every
  blocker of a pair at distance two or three seeded, a BFS check of the
  farther pairs, and the lex-leader orbit rules of ``max_mv`` breaking
  symmetry at the root and one level below;
* largest independent total mutual-visibility set, with edges inside the
  candidate list seeded as blockers as well.

``naive_oracle`` recomputes the same numbers by scanning subsets, largest
first, with the definitional checkers, no candidate restriction and no
pruning.  It is deliberately redundant: the two routes must agree, and
tests hold them to that.
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
from .visibility import (
    VisibilityOracle,
    automorphism_orbits,
    bypass_set,
    distance_two_cores,
    is_mv_set,
    is_total_mv_set,
    short_pair_blockers,
)

DEFAULT_BP_CAP = 30
DEFAULT_N_CAP = 20
DEFAULT_ORACLE_CAP = 14

_KIND_NAMES = {
    "mu": "mutual-visibility number",
    "mut": "total mutual-visibility number",
    "muit": "independent total mutual-visibility number",
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
        return {**vars(self), "witness": list(self.witness)}


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
    restriction.  Raises CapExceeded when the order exceeds ``cap``.

    The close pairs are decided by seeds (``short_pair_blockers``), by a
    lemma: a set X that holds x and y hides them at distance two exactly
    when it holds N(x) & N(y), and at distance three exactly when it
    covers H, the edges between the middle layers N(x) & L_2(y) and N(y) &
    L_2(x).  Proof: the geodesics are the paths x-w-y over the common
    neighbours w, or the paths x-a-b-y, whose middle edge ab lies in H
    since d(a, y) = d(x, b) = 2; and every such w or edge ab gives a
    geodesic.  So the pair's blockers are {x, y} with its common
    neighbourhood, or with each minimal vertex cover of H, and a set that
    holds none of them sees the pair.  The seeds lie in no
    mutual-visibility set, so they prune nothing feasible, and the
    searcher never calls ``feasible`` on a mask that holds a seeded or
    learned blocker.  So ``mv_grows`` searches by BFS only the pairs at
    distance four or more and the close pairs left without seeds (past
    ``BLOCKER_LIMIT``, or with a smaller middle layer past
    ``SHORT_PAIR_LAYER_LIMIT``).

    The search breaks symmetry with a lex-leader rule: it accepts a set S
    only when every member u has rep(u) >= min(S), where rep(u) is the
    lowest vertex of u's orbit (``automorphism_orbits``).  So a root child
    is an orbit representative, and within it no member may have a
    lower-numbered automorphic image than the set's lowest vertex.  One
    level down, a two-vertex set {low, s} is accepted only when s is the
    lowest vertex of its orbit under the automorphisms found that fix low
    (``automorphism_orbits(g, (low,))``).  Those orbits are searched for
    only when some vertex below s shares s's orbit and its distance from
    low, as s's image under an automorphism fixing low must; so never on a
    graph whose orbits are trivial.  Values and lex-first witnesses stay
    the same:

    * if some u in the lex-first maximum S* had rep(u) < min(S*), an
      automorphism sigma with sigma(u) = rep(u) would map S* to a maximum
      sigma(S*) holding rep(u), which is lex-smaller.  So S* passes the
      first rule;
    * let low < s be the two lowest members of S*.  If an automorphism
      sigma fixing low had sigma(s) = t < s, then sigma(S*) would be a
      maximum holding low and t, whose lowest member is below low or is
      low with a second member at most t: lex-smaller again.  So s is the
      lowest of its orbit under the automorphisms fixing low, and the
      lowest of the finer orbits found too;
    * the accepted family is closed under dropping its highest member,
      which is all the searcher needs of it: a set of three or more keeps
      its two lowest members;
    * a mask refused by the first rule learns its highest vertex ``{top}``.
      That singleton lies in no accepted set whose lowest vertex is at
      least the mask's lowest vertex ``low``, and every set the search
      visits later has such a lowest vertex, since root children come in
      ascending order.  A mask refused by the second rule learns nothing,
      since {low, s} can still lie in an accepted set whose second vertex
      is lower; the refusal itself cuts every set with second vertex s.

    The rule stops at depth one.  A third vertex would need the
    automorphisms fixing both lower members, one more orbit search per
    accepted pair; on graphs of order 18 to 20 that was no faster.
    """
    _require_connected(g)
    if g.order > cap:
        raise CapExceeded(
            f"order {g.order} exceeds the search cap {cap}; raise it with --cap-n"
        )
    oracle = VisibilityOracle.for_graph(g)
    rep = automorphism_orbits(g)
    orbit = [0] * g.order  # representative -> mask of its orbit
    for u, r in enumerate(rep):
        orbit[r] |= 1 << u

    def refusal(mask: int) -> int | None:
        """The blocker to learn when a symmetry rule refuses mask, else None.
        The rest of mask was accepted, so only the new top can break a rule."""
        top = mask.bit_length() - 1
        low = (mask & -mask).bit_length() - 1
        if rep[top] < low:
            return 1 << top
        if low < top and mask == (1 << low) | (1 << top):
            for near in oracle.levels[low]:  # the level holding top
                if near >> top & 1:
                    break
            if orbit[rep[top]] & near & ((1 << top) - 1) and automorphism_orbits(g, (low,))[top] < top:
                return 0
        return None

    seeds, far = short_pair_blockers(g)

    def feasible(mask: int) -> bool:
        return refusal(mask) is None and oracle.mv_grows(mask, far)

    def learn(mask: int) -> int:
        blocker = refusal(mask)
        return oracle.minimal_mv_blocker(mask) if blocker is None else blocker

    value, witness = lex_first_maximum(range(g.order), feasible, learn=learn, seed_blockers=seeds)
    _validate(g, "mu", value, witness)
    return InvariantReport("mu", value, witness, "pruned-search", g.name)


def naive_oracle(g: Graph, kind: str) -> InvariantReport:
    """Reference recomputation of mu, mut, or muit by scanning subsets.

    No candidate restriction, no pruning, no reliance on downward closure:
    sizes are scanned from the largest down, each in lexicographic order,
    and the first subset that passes the definitional predicate is returned
    (the empty set if none does).  That is the pruned solvers' tie-break,
    the lexicographically smallest maximum.  Meant for cross-validation only.

    ``tmv_holds`` drops every obstacle outside ``oracle.inner`` (no geodesic
    passes through such a vertex), so within one scan the check runs once
    per distinct ``mask & oracle.inner`` and its answer serves every subset
    with that inner part.  Independence is read off the adjacency masks.
    Neither changes the scan order or the predicate.
    """
    if kind not in _KIND_NAMES:
        raise GraphError(f"unknown invariant kind {kind!r}")
    _require_connected(g)
    if g.order > DEFAULT_ORACLE_CAP:
        raise CapExceeded(f"order {g.order} exceeds the exhaustive-search cap {DEFAULT_ORACLE_CAP}")
    oracle = VisibilityOracle.for_graph(g)
    adj, inner = oracle.adj, oracle.inner
    # By inner part: 0 not checked yet, 1 fails, 2 holds.  At most 2**14 bytes.
    tmv_by_inner = bytearray(1 << g.order)

    def tmv(mask: int) -> bool:
        key = mask & inner
        if not tmv_by_inner[key]:
            tmv_by_inner[key] = 1 + oracle.tmv_holds(key)
        return tmv_by_inner[key] == 2

    def feasible(vs: tuple[int, ...]) -> bool:
        mask = 0
        for v in vs:
            mask |= 1 << v
        if kind == "mu":
            return oracle.mv_holds(mask)
        if kind == "muit":
            return not any(adj[v] & mask for v in vs) and tmv(mask)
        return tmv(mask)

    for r in range(g.order, 0, -1):
        for vs in combinations(range(g.order), r):
            if feasible(vs):
                return InvariantReport(kind, r, vs, "naive-oracle", g.name)
    return InvariantReport(kind, 0, (), "naive-oracle", g.name)


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


# Each invariant that ``compute`` and the verify suites use, as a function of
# the graph and an object carrying the caps ``bp_cap`` and ``n_cap`` (such as
# verify.SuiteOptions).  ``n_cap`` bounds both the mu and the alpha search;
# None keeps each search's own default.  The lambdas look the solvers up by
# name at call time, so a wrapper bound over a module-level name sees every
# call.
INVARIANTS = {
    "mu": lambda g, caps: max_mv(g, cap=DEFAULT_N_CAP if caps.n_cap is None else caps.n_cap),
    "mut": lambda g, caps: max_total_mv(g, cap=caps.bp_cap),
    "muit": lambda g, caps: max_independent_total_mv(g, cap=caps.bp_cap),
    "bp": lambda g, caps: bypass_report(g),
    "alpha": lambda g, caps: alpha_report(g, cap=DEFAULT_ALPHA_CAP if caps.n_cap is None else caps.n_cap),
    "girth": lambda g, caps: InvariantReport("girth", girth(g), (), "formula", g.name),
}


def sandwich_check(g: Graph) -> bool:
    """Cross-validation chain at default caps: leaf count <= muit <= min(mut, alpha).

    Evaluates the chain honestly, so it can come back False on degenerate
    inputs (the two-vertex path has two leaves but muit 1).
    """
    _require_connected(g)
    leaves = len(leaf_set(g))
    muit = max_independent_total_mv(g).value
    mut = max_total_mv(g).value
    alpha = independence_number(g)
    return leaves <= muit <= min(mut, alpha)
