"""Branch-and-bound maximization over a downward-closed family of vertex sets.

The searcher grows subsets of a fixed candidate list in ascending vertex
order, so the first maximum it completes is the lexicographically smallest
one, and the result never depends on timing.  Every prune only drops
branches that cannot beat the incumbent, which keeps it exact:

* a failed membership test cuts the whole branch, since every superset of an
  infeasible set is infeasible too;
* known infeasible "blockers" are never proposed.  A blocker of two
  vertices is an edge of the *conflict graph*: each candidate carries a
  bitmask of the candidates it conflicts with, and choosing a vertex drops
  its conflicts from the remaining suffix.  Blockers of any other size are
  kept in a list, which each search node scans once on entry.  For a
  blocker b inside ``chosen | suffix``, the *residual* r = b - chosen is
  never empty, since the chosen set was accepted, and no set of this
  subtree may hold all of r.  A residual of one vertex drops that vertex
  from the suffix; a residual of two vertices is a pair conflict that holds
  in this subtree only, and the chosen vertex's local conflicts also filter
  its child's suffix.  This is unit propagation on learned nogoods
  (Marques-Silva & Sakallah's GRASP).  A blocker learned after the scan is
  caught by a lookup of the blockers whose highest vertex is the one just
  added: the set grown was accepted, so a blocker inside the new set must
  hold the new vertex, and that vertex is above all the others;
* a branch is abandoned when an upper bound on what the remaining suffix
  can add cannot beat the incumbent.  The main bound is the greedy clique
  cover of the max-clique solvers (Tomita & Seki's MCQ, San Segundo et
  al.'s BBMC, applied to the complement) over the global and the node's
  local pair conflicts: one back-to-front pass over the suffix puts each
  vertex into the first clique it fully conflicts with, so ``bound[j]``,
  the number of cliques covering ``suffix[j:]``, caps a feasible subset of
  it (at most one vertex per clique).  Without pair conflicts the pass is
  skipped and ``bound[j] = len(suffix) - j``.  The residuals of three or
  more vertices feed a greedy packing of disjoint ones: a feasible subset
  of the suffix omits a vertex of each, so the node is abandoned when
  ``len(chosen) + len(suffix) - packed`` cannot beat the incumbent.  A
  residual that holds a dropped vertex is left out of the packing (and of
  the local conflicts), because the drop already omitted that vertex and
  counting it again would overstate the omissions.

The searcher calls ``feasible`` only on a set grown by one vertex above all
of its members from a set ``feasible`` has already accepted (or from the
empty set).  A membership test may rely on that, and check only what the
new vertex can break; the blocker lookup above relies on it too, so every
seeded or learned blocker must be infeasible.

Blockers may be seeded up front (e.g. edges, when independence is part of
the family, or every infeasible pair of candidates) or learned during the
search from a ``learn`` callback that shrinks a failed set to an infeasible
core.
"""

from __future__ import annotations

from bisect import insort
from typing import Callable, Iterable

BLOCKER_LIMIT = 4096


def _blocker_rank(mask: int) -> tuple[int, int]:
    return (mask.bit_count(), mask)


def _link(conflicts: dict[int, int], pair: int) -> None:
    """Record the two vertices of ``pair`` as conflicting with each other."""
    low = pair & -pair
    u, v = low.bit_length() - 1, (pair ^ low).bit_length() - 1
    conflicts[u] = conflicts.get(u, 0) | 1 << v
    conflicts[v] = conflicts.get(v, 0) | 1 << u


def lex_first_maximum(
    candidates: Iterable[int],
    feasible: Callable[[int], bool],
    learn: Callable[[int], int] | None = None,
    seed_blockers: Iterable[int] = (),
) -> tuple[int, tuple[int, ...]]:
    """Return ``(size, members)`` of a largest feasible subset of ``candidates``.

    ``feasible`` takes a bitmask over vertex ids and must describe a
    downward-closed family containing the empty set.  It is only called on
    a mask whose highest vertex was just added to the empty set or to a mask
    it accepted earlier.  Among maximum subsets the lexicographically
    smallest member sequence is returned.  ``learn``, when given, maps an
    infeasible bitmask to an infeasible subset of it (ideally minimal);
    both learned and seeded blockers are used only for pruning, so they
    never change the reported maximum.
    """
    order = sorted(candidates)
    blockers: list[int] = []  # blockers of other than two vertices, by size
    by_top: dict[int, list[int]] = {}  # the same, filed under their highest vertex
    conflicts: dict[int, int] = {}  # vertex -> mask of its pair conflicts
    known: set[int] = set()

    def add_blocker(b: int) -> None:
        if not b or b in known:
            return
        known.add(b)
        if b.bit_count() == 2:
            _link(conflicts, b)
        else:
            insort(blockers, b, key=_blocker_rank)
            by_top.setdefault(b.bit_length() - 1, []).append(b)

    for b in seed_blockers:
        add_blocker(b)

    best_size = 0
    best: tuple[int, ...] = ()

    def covered(mask: int) -> bool:
        # mask grew an accepted set by its highest vertex, so a blocker
        # inside it must hold that vertex, and only as its highest one.
        for b in by_top.get(mask.bit_length() - 1, ()):
            if b & mask == b:
                return True
        return False

    def cover_bounds(suffix: list[int], local: dict[int, int]) -> list[int] | range:
        m = len(suffix)
        if not conflicts and not local:
            return range(m, -1, -1)
        bound = [0] * (m + 1)
        cliques: list[int] = []
        for j in range(m - 1, -1, -1):
            v = suffix[j]
            near = conflicts.get(v, 0) | local.get(v, 0)
            for k, c in enumerate(cliques):
                if c & near == c:
                    cliques[k] = c | 1 << v
                    break
            else:
                cliques.append(1 << v)
            bound[j] = len(cliques)
        return bound

    def grow(chosen: list[int], mask: int, suffix: list[int]) -> None:
        nonlocal best_size, best
        # The one blocker scan of this node (see the module docstring).
        outside = mask
        for v in suffix:
            outside |= 1 << v
        outside = ~outside
        dropped = 0
        residuals = []
        for b in blockers:
            if not b & outside:
                r = b & ~mask
                if r.bit_count() == 1:
                    dropped |= r
                else:
                    residuals.append(r)
        local: dict[int, int] = {}
        used = 0
        packed = 0
        for r in residuals:
            if r & dropped:
                continue
            if r.bit_count() == 2:
                _link(local, r)
            elif not r & used:
                packed += 1
                used |= r
        if dropped:
            suffix = [v for v in suffix if not dropped >> v & 1]
        if len(chosen) + len(suffix) - packed <= best_size:
            return
        bound = cover_bounds(suffix, local)
        for i, v in enumerate(suffix):
            if len(chosen) + bound[i] <= best_size:
                break
            near = conflicts.get(v, 0)
            # Pair conflicts learned after this suffix was built.
            if near & mask:
                continue
            vmask = mask | (1 << v)
            if covered(vmask):
                continue
            if not feasible(vmask):
                if learn is not None and len(blockers) < BLOCKER_LIMIT:
                    add_blocker(learn(vmask))
                continue
            chosen.append(v)
            if len(chosen) > best_size:
                best_size = len(chosen)
                best = tuple(chosen)
            rest = suffix[i + 1 :]
            near |= local.get(v, 0)
            if near:
                rest = [u for u in rest if not near >> u & 1]
            if len(chosen) + min(bound[i + 1], len(rest)) > best_size:
                grow(chosen, vmask, rest)
            chosen.pop()

    grow([], 0, order)
    return best_size, best
