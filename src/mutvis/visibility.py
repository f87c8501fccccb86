"""Visibility predicates: pair visibility, mutual-visibility set checks, and
bypass vertices.

Two vertices x, y are visible past an obstacle set X when some shortest
x,y-path has no internal vertex in X (the endpoints themselves may belong to
X).  A set X is a mutual-visibility set when all pairs inside X are visible
past X, and a total mutual-visibility set when every pair of vertices of the
graph is.

The checks run as absorbing breadth-first searches over adjacency bitmasks:
obstacle vertices receive a distance when first reached but are never
expanded, so the search computes, for every target at once, the length of a
shortest path whose internal vertices avoid the obstacles.  A pair is
visible exactly when that restricted length equals the true distance.
Pair visibility is the same search with a single target.

Total mutual-visibility is local: a set is total mutual-visible exactly
when it holds no *distance-two core*, the common neighbourhood of a pair at
distance two (``distance_two_cores``).  The exact ``mut`` and ``muit``
searches seed those cores and run no BFS; the public predicates and the
witness re-check keep the BFS route, so the re-check stays independent of
that lemma.

The ``mu`` search only ever grows a mutual-visibility set by one higher
vertex v, so it uses the incremental check ``mv_grows``.  Each vertex v
gets, on first use, its *interior mask*: one n*n-bit integer holding, at
bit x*n + y, the pairs x < y with v strictly inside some shortest
x,y-path.  One search from v covers the new pairs, and an old pair,
visible past the rest before, can break only when v lies strictly inside
one of its geodesics, so from each old member only the targets in
``interior(v)`` are searched.  ``tmv_holds`` and ``mv_holds`` stay the
full, non-incremental checks.

A vertex lies strictly inside some geodesic exactly when it has two
non-adjacent neighbours (the two are at distance two, through it).  Every
total-visibility check therefore drops the obstacles outside
``inner_mask(g)``, such as leaves and other simplicial vertices: they block
nothing, so the answers stay the same, and a set of them alone is total
mutual-visible without an oracle being built.

The oracle's distance levels come from one bitmask-frontier BFS per
source; no distance matrix is built.  Their size grows with n times the
sum of the eccentricities, so the oracle predicts it from the first BFS
and refuses, with ``CapExceeded``, a graph whose masks would pass
``LEVEL_MASK_LIMIT``.
"""

from __future__ import annotations

from itertools import combinations
from typing import AbstractSet

from .errors import CapExceeded, GraphError
from .graph import Graph, is_connected, _check_vertex, _check_vertex_set

# Largest predicted size, in bytes, of an oracle's distance-level masks.
LEVEL_MASK_LIMIT = 1 << 30


class VisibilityOracle:
    """Per-graph bundle of the bitmask structures the visibility checks use.

    Construction computes per-source distance-level masks (hence requires a
    connected graph, and refuses one whose masks would pass
    ``LEVEL_MASK_LIMIT``), the adjacency masks and the inner-vertex mask.
    All query methods take obstacle sets as plain bitmasks; after
    construction the instance only fills its cache of interior masks.
    """

    __slots__ = ("graph", "n", "adj", "inner", "full", "above", "levels", "_interior")

    def __init__(self, g: Graph):
        self.graph = g
        self.n = n = g.order
        self.adj = g.adjacency_masks()
        self.inner = inner_mask(g)
        self.full = (1 << n) - 1
        self.above = tuple((self.full >> (u + 1)) << (u + 1) for u in range(n))
        first = self._bfs_levels(0)
        # d(u, w) <= d(u, 0) + d(0, w), so every source has at most
        # 2 * ecc(0) + 1 levels, each an int of at most n bits: 4 bytes per
        # 30 bits plus a 28-byte header, and an 8-byte tuple slot.
        predicted = n * (2 * len(first) - 1) * (4 * (n // 30 + 1) + 36)
        if predicted > LEVEL_MASK_LIMIT:
            raise CapExceeded(
                f"distance levels of a graph of order {n} would take about"
                f" {predicted / 2**30:.1f} GiB, above the limit of"
                f" {LEVEL_MASK_LIMIT / 2**30:g} GiB"
            )
        self.levels = (first, *(self._bfs_levels(u) for u in range(1, n)))
        self._interior: dict[int, int] = {}

    def _bfs_levels(self, src: int) -> tuple[int, ...]:
        """Masks of the vertices at distance 0, 1, 2, ... from src."""
        adj = self.adj
        reached = frontier = 1 << src
        levels = [frontier]
        while True:
            nxt = 0
            while frontier:
                low = frontier & -frontier
                nxt |= adj[low.bit_length() - 1]
                frontier ^= low
            nxt &= ~reached
            if not nxt:
                break
            reached |= nxt
            levels.append(nxt)
            frontier = nxt
        if reached != self.full:
            raise GraphError("visibility checks need a connected graph")
        return tuple(levels)

    @classmethod
    def for_graph(cls, g: Graph) -> "VisibilityOracle":
        oracle = g._cache.get("oracle")
        if oracle is None:
            oracle = cls(g)
            g._cache["oracle"] = oracle
        return oracle

    # -- single-source engine ------------------------------------------------

    def _first_blocked_target(self, src: int, obstacles: int, targets: int) -> int:
        """Lowest target whose restricted distance from src exceeds the true
        one, or -1 when every target stays visible.  Obstacles absorb: they
        are reached but not expanded; the source always expands."""
        adj = self.adj
        levels = self.levels[src]
        depth = len(levels)
        reached = 1 << src
        frontier = reached
        pending = targets & ~reached
        k = 0
        while pending:
            expand = frontier if k == 0 else frontier & ~obstacles
            k += 1
            nxt = 0
            while expand:
                low = expand & -expand
                nxt |= adj[low.bit_length() - 1]
                expand &= expand - 1
            nxt &= ~reached
            if not nxt:
                miss = pending
                return (miss & -miss).bit_length() - 1
            reached |= nxt
            if k < depth:
                miss = levels[k] & pending & ~reached
                if miss:
                    return (miss & -miss).bit_length() - 1
            pending &= ~reached
            frontier = nxt
        return -1

    def pair_visible(self, x: int, y: int, obstacles: int) -> bool:
        """Some shortest x,y-path has all internal vertices outside obstacles."""
        return self._first_blocked_target(x, obstacles, 1 << y) < 0

    def interior(self, v: int) -> int:
        """Mask over pairs, bit ``x * n + y``: the pairs x < y with v strictly
        inside some shortest x,y-path, d(x,v) + d(v,y) = d(x,y) and v not in
        {x, y}.  Zero for a vertex outside ``inner``; otherwise built on
        first use and cached."""
        if not self.inner >> v & 1:
            return 0
        pairs = self._interior.get(v)
        if pairs is None:
            lv = self.levels[v]
            pairs = 0
            for dxv in range(1, len(lv)):
                rem = lv[dxv]
                while rem:
                    low = rem & -rem
                    rem ^= low
                    x = low.bit_length() - 1
                    lx = self.levels[x]
                    row = 0
                    for k in range(1, min(len(lv), len(lx) - dxv)):
                        row |= lv[k] & lx[dxv + k]
                    pairs |= (row & self.above[x]) << (x * self.n)
            self._interior[v] = pairs
        return pairs

    # -- set checks ------------------------------------------------------------

    def tmv_holds(self, obstacles: int) -> bool:
        obstacles &= self.inner
        if obstacles == 0:
            return True
        for src in range(self.n - 1):
            if self._first_blocked_target(src, obstacles, self.above[src]) >= 0:
                return False
        return True

    def tmv_violation(self, obstacles: int) -> tuple[int, int] | None:
        obstacles &= self.inner
        if obstacles == 0:
            return None
        for src in range(self.n - 1):
            y = self._first_blocked_target(src, obstacles, self.above[src])
            if y >= 0:
                return (src, y)
        return None

    def mv_holds(self, members: int) -> bool:
        rem = members
        while rem:
            low = rem & -rem
            rem &= rem - 1
            src = low.bit_length() - 1
            targets = members & self.above[src]
            if not targets:
                break
            if self._first_blocked_target(src, members, targets) >= 0:
                return False
        return True

    def mv_grows(self, members: int) -> bool:
        """mv_holds for a set grown by its highest vertex v, given that the
        rest is a mutual-visibility set.

        The new pairs (x, v) take one search from v.  An old pair of the
        rest was visible past the rest, and adding v can block it only when
        v lies strictly inside one of its geodesics, so from each x only
        the targets in ``interior(v)`` are searched."""
        if not members & (members - 1):
            return True  # the empty set, or one vertex
        v = members.bit_length() - 1
        rest = members ^ (1 << v)
        if self._first_blocked_target(v, members, rest) >= 0:
            return False
        inner = self.interior(v)
        n = self.n
        rem = rest
        while rem:
            low = rem & -rem
            rem ^= low
            x = low.bit_length() - 1
            targets = (inner >> (x * n)) & rem
            if targets and self._first_blocked_target(x, members, targets) >= 0:
                return False
        return True

    def mv_violation(self, members: int) -> tuple[int, int] | None:
        rem = members
        while rem:
            low = rem & -rem
            rem &= rem - 1
            src = low.bit_length() - 1
            targets = members & self.above[src]
            if not targets:
                break
            y = self._first_blocked_target(src, members, targets)
            if y >= 0:
                return (src, y)
        return None

    # -- conflict cores ----------------------------------------------------------

    def minimal_pair_blocker(self, obstacles: int, x: int, y: int) -> int:
        """Shrink obstacles to an inclusion-minimal set still blocking (x, y)."""
        core = obstacles & ~((1 << x) | (1 << y))
        rem = core
        while rem:
            low = rem & -rem
            rem &= rem - 1
            if not self.pair_visible(x, y, core & ~low):
                core &= ~low
        return core

    # No caller in the package; perfbench's tracer patches it by name.
    def minimal_tmv_blocker(self, obstacles: int) -> int:
        # The shrink would drop every vertex outside inner anyway.
        obstacles &= self.inner
        pair = self.tmv_violation(obstacles)
        if pair is None:
            return 0
        return self.minimal_pair_blocker(obstacles, *pair)

    def minimal_mv_blocker(self, members: int) -> int:
        pair = self.mv_violation(members)
        if pair is None:
            return 0
        x, y = pair
        return self.minimal_pair_blocker(members, x, y) | (1 << x) | (1 << y)


def _mask(s: AbstractSet[int]) -> int:
    mask = 0
    for v in s:
        mask |= 1 << v
    return mask


# -- public predicates ------------------------------------------------------


def is_pair_visible(g: Graph, x: int, y: int, obstacles: AbstractSet[int]) -> bool:
    """True iff some shortest x,y-path avoids ``obstacles`` internally.

    x and y themselves may belong to the obstacle set; only internal path
    vertices count.
    """
    _check_vertex(g, x)
    _check_vertex(g, y)
    if x == y:
        raise GraphError("pair visibility needs two distinct vertices")
    fs = _check_vertex_set(g, obstacles)
    return VisibilityOracle.for_graph(g).pair_visible(x, y, _mask(fs))


def _inner_obstacles(g: Graph, x: AbstractSet[int]) -> int:
    """The members of x that can block a pair, as a mask.  When there are
    none the caller answers without an oracle, so connectivity, which the
    oracle would check, is checked here."""
    mask = _mask(_check_vertex_set(g, x)) & inner_mask(g)
    if not mask and not is_connected(g):
        raise GraphError("visibility checks need a connected graph")
    return mask


def is_total_mv_set(g: Graph, x: AbstractSet[int]) -> bool:
    """True iff every pair of vertices of g is visible past x."""
    mask = _inner_obstacles(g, x)
    return not mask or VisibilityOracle.for_graph(g).tmv_holds(mask)


def total_mv_violation(g: Graph, x: AbstractSet[int]) -> tuple[int, int] | None:
    """First pair (by vertex id) that x blocks, or None when x is total
    mutual-visible.  Handy when a failing check needs explaining."""
    mask = _inner_obstacles(g, x)
    return VisibilityOracle.for_graph(g).tmv_violation(mask) if mask else None


def is_mv_set(g: Graph, x: AbstractSet[int]) -> bool:
    """True iff every pair inside x is visible past x."""
    fs = _check_vertex_set(g, x)
    return VisibilityOracle.for_graph(g).mv_holds(_mask(fs))


def inner_mask(g: Graph) -> int:
    """Mask of the vertices with two non-adjacent neighbours: exactly the
    vertices that lie strictly inside some geodesic, and so the only ones
    that can block a pair."""
    cached = g._cache.get("inner")
    if cached is None:
        adj = g.adjacency_masks()
        cached = 0
        for u, nbrs in enumerate(adj):
            rem = nbrs
            while rem:
                low = rem & -rem
                rem ^= low
                if nbrs & ~adj[low.bit_length() - 1] & ~low:
                    cached |= 1 << u
                    break
        g._cache["inner"] = cached
    return cached


def distance_two_cores(g: Graph, within: int) -> set[int]:
    """The distinct cores C(a, b) = N(a) & N(b) of the pairs a, b at
    distance two that lie inside the vertex mask ``within``, as masks.

    Lemma: in a connected graph, X is total mutual-visible exactly when it
    holds no core, that is, when every pair at distance two has a common
    neighbour outside X.  Such a pair's geodesics are the paths through its
    core, so the condition is necessary.  Conversely, let p_i be the first
    internal vertex in X of a shortest x,y-path.  p_(i-1) and p_(i+1) are at
    distance two, so they have a common neighbour w outside X; swapping p_i
    for w keeps the path shortest and moves its first internal vertex in X
    further along.  Repeating ends in a shortest path that X does not block.

    The singleton cores are exactly the non-bypass vertices.  Every core
    holds a common neighbour w of a and b, so the pass runs over the
    non-adjacent neighbour pairs of each w in ``within`` alone and keeps a
    core only from its lowest vertex: |within| * maxdeg^2 steps, not n *
    maxdeg^2.
    """
    adj = g.adjacency_masks()
    cores: set[int] = set()
    rem = within
    while rem:
        low = rem & -rem
        rem ^= low
        rest = adj[low.bit_length() - 1]
        while rest:
            a = rest & -rest
            rest ^= a
            nbrs = adj[a.bit_length() - 1]
            far = rest & ~nbrs
            while far:
                b = far & -far
                far ^= b
                core = nbrs & adj[b.bit_length() - 1]
                if not core & ~within and not core & (low - 1):
                    cores.add(core)
    return cores


def is_bypass_vertex(g: Graph, u: int) -> bool:
    """True iff u is not the middle vertex of any convex path on 3 vertices.

    A path x-u-y is convex exactly when x and y are non-adjacent and u is
    their only common neighbor: then x and y are at distance two and every
    geodesic between them runs through u.
    """
    _check_vertex(g, u)
    nbrs = sorted(g.neighbors(u))
    for x, y in combinations(nbrs, 2):
        if y in g.neighbors(x):
            continue
        if g.neighbors(x) & g.neighbors(y) == {u}:
            return False
    return True


def bypass_set(g: Graph) -> frozenset[int]:
    """All bypass vertices of g."""
    cached = g._cache.get("bypass")
    if cached is None:
        cached = frozenset(u for u in range(g.order) if is_bypass_vertex(g, u))
        g._cache["bypass"] = cached
    return cached
