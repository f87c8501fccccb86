"""Branch-and-bound maximization over a family of vertex sets closed under
dropping its highest member (a downward-closed family is one).

The searcher grows subsets of a fixed candidate list in ascending vertex
order, so the first maximum it completes is the lexicographically smallest
one, and the result never depends on timing.  The chosen set and the
remaining suffix are bitmasks; children are taken from the suffix by
low-bit extraction.  Every prune only drops branches that cannot beat the
incumbent, which keeps it exact:

* a failed membership test cuts the whole branch, since every set of the
  branch adds higher vertices to the infeasible set, and dropping them
  again, highest first, would reach it; so each is infeasible too;
* known infeasible "blockers" are never proposed.  A blocker of two
  vertices is an edge of the *conflict graph*: each candidate carries a
  bitmask of the candidates it conflicts with, and choosing a vertex drops
  its conflicts from the remaining suffix.  Blockers of any other size go
  into an append-only log.  For a blocker b inside ``chosen | suffix``, the
  *residual* r = b - chosen is never empty, since the chosen set was
  accepted, and no set of this subtree may hold all of r.  A residual of
  one vertex drops that vertex from the suffix; a residual of two vertices
  is a pair conflict that holds in this subtree only, and the chosen
  vertex's local conflicts also filter its child's suffix.  This is unit
  propagation on learned nogoods (Marques-Silva & Sakallah's GRASP).  A
  child's region lies inside its parent's and a residual only shrinks
  down a branch, so this state is carried down the tree, not rebuilt at
  each node (as watched-literal solvers carry theirs; Moskewicz et al.'s
  Chaff).  Each node hands its children its local pair conflicts and, in
  rank order, the blockers of its region whose residual still has three
  or more vertices.  A child keeps those inside its own region; only the
  ones holding the vertex just chosen lost a residual vertex, so only
  they can become pair conflicts.  It examines whole the log entries added
  since its parent's test, the only blockers whose residual can be a
  single vertex.  An inherited pair conflict may have an end outside the
  child's suffix, where it constrains nothing, so every node makes the
  decisions it would make after rebuilding its state from all the
  blockers inside its region.  A blocker learned after a node's test is
  caught by a lookup of the blockers whose highest vertex is the one just
  added: the set grown was accepted, so a blocker inside the new set must
  hold the new vertex, and that vertex is above all the others;
* a branch is abandoned when an upper bound on what the remaining suffix
  can add cannot beat the incumbent.  The main bound is the greedy clique
  cover of the max-clique solvers (Tomita & Seki's MCQ, San Segundo et
  al.'s BBMC, applied to the complement) over the global and the node's
  local pair conflicts, built as bitmask colour classes (``_class_tops``):
  a class starts at the highest vertex v left in the suffix, takes the
  highest vertex w of ``left & near(v)``, narrows those by ``near(w)``, and
  so on until none is left.  These are the cliques of a back-to-front
  first-fit pass, and a feasible subset holds at most one vertex of each,
  so the class tops from a child on cap what its subtree can add.
  Without pair conflicts every vertex is its own top.  The residuals of
  three or more vertices feed a greedy packing of disjoint ones, in
  ``_blocker_rank`` order: a feasible subset of the suffix omits a vertex
  of each, so the node is abandoned when ``len(chosen) + len(suffix) -
  packed`` cannot beat the incumbent.  A residual that holds a dropped
  vertex is left out of the packing (and of the local conflicts), because
  the drop already omitted that vertex and counting it again would
  overstate the omissions.

The searcher calls ``feasible`` only on a set grown by one vertex above all
of its members from a set ``feasible`` has already accepted (or from the
empty set).  A membership test may rely on that, and check only what the
new vertex can break; the blocker lookup above relies on it too, so no
seeded or learned blocker may lie inside a set ``feasible`` accepts later.
Nor does ``feasible`` ever see a set that holds a seeded or learned
blocker: the pair-conflict test and the lookup run first.  So a
membership test need not check what the blockers already decide; the
total searches pass a constant True, and the ``mu`` search checks only
the pairs its seeds leave open.
Every set in the subtree of a root child v has lowest vertex v, and the
root takes its children in ascending order, so a blocker learned from a
mask with lowest vertex ``low`` need only lie in no feasible set whose
lowest vertex is at least ``low``; an infeasible subset of the mask always
qualifies when the family is downward closed.

Blockers may be seeded up front (edges, when independence is part of the
family, the distance-two cores of total mutual-visibility, or the
short-pair blockers of mutual-visibility) or learned
from a ``learn`` callback that shrinks a failed set to an infeasible core.
When every infeasible set holds a seed, ``feasible`` may be constant True.
"""

from __future__ import annotations

import sys
from bisect import insort
from typing import Callable, Iterable

BLOCKER_LIMIT = 4096
# Stack room for the search's callers, on top of one frame per chosen vertex.
_CALLER_FRAMES = 1000


def _blocker_rank(mask: int) -> tuple[int, int]:
    return (mask.bit_count(), mask)


def _link(conflicts: dict[int, int], pair: int) -> None:
    """Record the two vertices of ``pair`` as conflicting with each other."""
    low = pair & -pair
    u, v = low.bit_length() - 1, (pair ^ low).bit_length() - 1
    conflicts[u] = conflicts.get(u, 0) | 1 << v
    conflicts[v] = conflicts.get(v, 0) | 1 << u


def _class_tops(suffix: int, conflicts: dict[int, int], local: dict[int, int]) -> int:
    """The highest vertex of each colour class of ``suffix``, as a mask."""
    tops = 0
    while suffix:
        v = suffix.bit_length() - 1
        tops |= 1 << v
        suffix ^= 1 << v
        q = suffix & (conflicts.get(v, 0) | local.get(v, 0))
        while q:
            w = q.bit_length() - 1
            suffix ^= 1 << w
            q &= conflicts.get(w, 0) | local.get(w, 0)
    return tops


def lex_first_maximum(
    candidates: Iterable[int],
    feasible: Callable[[int], bool],
    learn: Callable[[int], int] | None = None,
    seed_blockers: Iterable[int] = (),
) -> tuple[int, tuple[int, ...]]:
    """Return ``(size, members)`` of a largest feasible subset of ``candidates``.

    ``feasible`` takes a bitmask over vertex ids and must describe a family
    that contains the empty set and is closed under dropping its highest
    member, so that every ascending prefix of a feasible set is feasible
    and the search reaches it.  It is only called on a mask whose highest
    vertex was just added to the empty set or to a mask it accepted
    earlier.
    Among maximum subsets the lexicographically smallest member sequence
    is returned.  ``learn``, when given, maps an infeasible bitmask to a
    blocker (ideally small) that lies in no feasible set whose lowest
    vertex is at least the mask's lowest vertex, such as an infeasible
    subset of the mask in a downward-closed family.  Seeded blockers must
    lie in no feasible set.  Both are used only for pruning, so they never
    change the reported maximum, and ``feasible`` is never called on a
    mask that holds one of them.
    """
    everyone = sum({1 << v for v in candidates})
    log: list[int] = []  # blockers of other than two vertices, oldest first
    by_top: dict[int, list[int]] = {}  # the same, filed under their highest vertex
    conflicts: dict[int, int] = {}  # vertex -> its pair conflicts; empty until a pair
    known: set[int] = set()

    def add_blocker(b: int) -> None:
        if not b or b in known:
            return
        known.add(b)
        if b.bit_count() == 2:
            _link(conflicts, b)
        else:
            log.append(b)
            by_top.setdefault(b.bit_length() - 1, []).append(b)

    for b in seed_blockers:
        add_blocker(b)

    best_size = best = 0  # best is the mask of the incumbent

    def covered(mask: int) -> bool:
        # mask grew an accepted set by its highest vertex, so a blocker
        # inside it must hold that vertex, and only as its highest one.
        for b in by_top.get(mask.bit_length() - 1, ()):
            if b & mask == b:
                return True
        return False

    def grow(mask: int, size: int, suffix: int, carried: list[int], local: dict[int, int], since: int) -> None:
        nonlocal best_size, best
        # The blockers of the parent's region whose residual had three or
        # more vertices there, in rank order, and the parent's pair
        # conflicts (see the module docstring).  A fresh blocker, logged
        # since the parent's test, is examined whole; an inherited one can
        # change its residual only through the vertex just chosen.
        pairs: list[int] = []  # residuals that became pairs at this node
        region = mask | suffix
        fresh = [b for b in log[since:] if b & region == b]
        since = len(log)
        if fresh:
            for b in fresh:
                r = b & ~mask
                if not r & (r - 1):
                    suffix &= ~r
            region = mask | suffix
            carried = carried[:]
            for b in fresh:
                if b & region != b:
                    continue  # through a dropped vertex
                r = b & ~mask
                if r.bit_count() == 2:
                    pairs.append(r)
                else:
                    insort(carried, b, key=_blocker_rank)
        outside = ~region
        inside = ~mask
        chosen = 1 << mask.bit_length() - 1 if mask else 0
        big: list[int] = []
        used = packed = 0
        for b in carried:
            if b & outside:
                continue
            r = b & inside
            if b & chosen and r.bit_count() == 2:
                pairs.append(r)
            else:
                big.append(b)
                if not r & used:
                    packed += 1
                    used |= r
        if pairs:
            local = dict(local)  # the parent and its other children keep theirs
            for r in pairs:
                _link(local, r)
        if size + suffix.bit_count() - packed <= best_size:
            return
        tops = _class_tops(suffix, conflicts, local) if conflicts or local else suffix
        rem = suffix
        while rem:
            if size + (tops & rem).bit_count() <= best_size:
                break
            low = rem & -rem
            rem ^= low
            v = low.bit_length() - 1
            near = conflicts.get(v, 0)
            # Pair conflicts learned after this suffix was built.
            if near & mask:
                continue
            vmask = mask | low
            if covered(vmask):
                continue
            if not feasible(vmask):
                if learn is not None and len(log) < BLOCKER_LIMIT:
                    add_blocker(learn(vmask))
                continue
            if size >= best_size:
                best_size, best = size + 1, vmask
            rest = rem & ~(near | local.get(v, 0))
            if size + 1 + min((tops & rem).bit_count(), rest.bit_count()) > best_size:
                grow(vmask, size + 1, rest, big, local, since)

    # grow recurses once per chosen vertex, so a large answer needs more
    # frames than Python's default limit allows.
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, everyone.bit_count() + _CALLER_FRAMES))
    try:
        grow(0, 0, everyone, [], {}, 0)
    finally:
        sys.setrecursionlimit(limit)
    return best_size, tuple(v for v in range(best.bit_length()) if best >> v & 1)
