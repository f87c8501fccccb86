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
that lemma.  The bypass vertices are the vertices that are not a singleton
core; ``is_bypass_vertex`` finds them by the same walk over neighbour pairs
(``_pair_cores``), the only code here that walks them.

The ``mu`` search only ever grows a mutual-visibility set by one higher
vertex v, so it uses the incremental check ``mv_grows``.  Each vertex v
gets, on first use, its *interior mask*: one n*n-bit integer holding, at
bit x*n + y, the pairs x < y with v strictly inside some shortest
x,y-path.  One search from v covers the new pairs, and an old pair,
visible past the rest before, can break only when v lies strictly inside
one of its geodesics, so from each old member only the targets in
``interior(v)`` are searched.  ``tmv_holds`` and ``mv_holds`` stay the
full, non-incremental checks.

Mutual visibility is local for close pairs.  Lemma: let X hold x and y.
At distance two, X hides the pair exactly when it holds the common
neighbourhood N(x) & N(y); at distance three, exactly when X & (L1 | L2)
covers H, the edges between the middle layers L1 = N(x) & L_2(y) and L2 =
N(y) & L_2(x).  Proof: the geodesics of a pair at distance two are the
paths x-w-y over its common neighbours w.  A geodesic x-a-b-y at distance
three has d(a, y) = d(x, b) = 2, so a is in L1, b is in L2 and ab is an
edge of H; and every edge ab of H gives the geodesic x-a-b-y.  So X hides
the pair exactly when every edge of H has an end in X.  A vertex cover
stays one when vertices are added, so that holds exactly when X holds a
minimal cover.  The pair's blockers are therefore {x, y} joined with its
common neighbourhood, or with each minimal vertex cover of H: the minimal
separators of its geodesic interval (Berry, Bordat & Cogis, *Generating
all the minimal separators of a graph*, 2000).  ``short_pair_blockers``
lists them; the ``mu`` search seeds them, and ``mv_grows`` then searches
only the pairs at distance four or more and any close pair left without
seeds.

A vertex lies strictly inside some geodesic exactly when it has two
non-adjacent neighbours (the two are at distance two, through it).  Every
total-visibility check therefore drops the obstacles outside
``inner_mask(g)``, such as leaves and other simplicial vertices: they block
nothing, so the answers stay the same, and a set of them alone is total
mutual-visible without an oracle being built.  ``inner_mask`` keeps its own
loop over single neighbours rather than the pair walk: it filters the
obstacles of the BFS checks, the witness re-check among them, and that
re-check must not share code with the cores the search is seeded from.

The oracle's distance levels come from one bitmask-frontier BFS per
source; no distance matrix is built.  Their size grows with n times the
sum of the eccentricities, so the oracle predicts it from the first BFS
and refuses, with ``CapExceeded``, a graph whose masks would pass
``LEVEL_MASK_LIMIT``.  ``automorphism_orbits``, for the ``mu`` search,
backtracks over the same levels.
"""

from __future__ import annotations

from typing import AbstractSet, Iterator

from . import _search
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

    __slots__ = ("n", "adj", "inner", "full", "levels", "_interior")

    def __init__(self, g: Graph):
        self.n = n = g.order
        self.adj = g.adjacency_masks()
        self.inner = inner_mask(g)
        self.full = (1 << n) - 1
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
        """A target whose restricted distance from src exceeds the true one,
        or -1 when every target stays visible.  Obstacles absorb: they are
        reached but not expanded; the source always expands.

        The search returns at the first depth k where it sees a blocked
        target: the lowest target at true distance k that k steps did not
        reach, or, when the restricted search dies out, the lowest target
        it never reached.  So a nearer blocked target wins over a lower one,
        and the target returned need not be the lowest blocked."""
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
                    pairs |= (row >> (x + 1)) << (x * self.n + x + 1)
            self._interior[v] = pairs
        return pairs

    # -- set checks ------------------------------------------------------------

    def tmv_holds(self, obstacles: int) -> bool:
        return self.tmv_violation(obstacles) is None

    def tmv_violation(self, obstacles: int) -> tuple[int, int] | None:
        obstacles &= self.inner
        return self._violation(obstacles, self.full) if obstacles else None

    def mv_holds(self, members: int) -> bool:
        return self.mv_violation(members) is None

    def mv_grows(self, members: int, far: list[int]) -> bool:
        """mv_holds for a set grown by its highest vertex v, given that the
        rest is a mutual-visibility set, over the pairs that ``far`` marks:
        far[x] is the mask of x's partners to check.  The other pairs are
        taken as visible, which ``short_pair_blockers`` makes true of every
        set that holds none of its blockers; with every partner marked,
        this is the whole check.

        The new pairs (x, v) take one search from v.  An old pair of the
        rest was visible past the rest, and adding v can block it only when
        v lies strictly inside one of its geodesics, so from each x only
        the targets in ``interior(v)`` are searched."""
        if not members & (members - 1):
            return True  # the empty set, or one vertex
        v = members.bit_length() - 1
        rest = members ^ (1 << v)
        new = rest & far[v]
        if new and self._first_blocked_target(v, members, new) >= 0:
            return False
        inner = self.interior(v)
        n = self.n
        rem = rest
        while rem:
            low = rem & -rem
            rem ^= low
            x = low.bit_length() - 1
            targets = (inner >> (x * n)) & rem & far[x]
            if targets and self._first_blocked_target(x, members, targets) >= 0:
                return False
        return True

    def mv_violation(self, members: int) -> tuple[int, int] | None:
        return self._violation(members, members)

    def _violation(self, obstacles: int, within: int) -> tuple[int, int] | None:
        """The first pair (src, y) of ``within`` that obstacles block, trying
        the sources in ascending order, each towards the members above it."""
        rem = within
        while rem & (rem - 1):  # some source has a member above it
            low = rem & -rem
            rem ^= low
            src = low.bit_length() - 1
            y = self._first_blocked_target(src, obstacles, rem)
            if y >= 0:
                return (src, y)
        return None

    # -- conflict cores ----------------------------------------------------------

    def minimal_pair_blocker(self, obstacles: int, x: int, y: int) -> int:
        """Shrink obstacles, which block (x, y), to an inclusion-minimal set
        still blocking it.

        Only an obstacle strictly inside some x,y-geodesic can change
        whether the pair is visible, so the greedy shrink would drop every
        other one; those are left out before it starts.  At distance d that
        interval is the union over 0 < k < d of the vertices at distance k
        from x and d - k from y."""
        lx, ly = self.levels[x], self.levels[y]
        d = 1
        while not lx[d] >> y & 1:
            d += 1
        between = 0
        for k in range(1, d):
            between |= lx[k] & ly[d - k]
        core = obstacles & between
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


# Most images automorphism_orbits tries over one graph.
ORBIT_STEP_BUDGET = 20_000


def automorphism_orbits(g: Graph, fixed: tuple[int, ...] = ()) -> tuple[int, ...]:
    """For each vertex, the lowest vertex of its orbit under the group
    generated by the automorphisms found that fix every vertex of
    ``fixed`` (all automorphisms when it is empty).  Cached per graph and
    fixed tuple.

    An automorphism of a connected graph is exactly a bijection that keeps
    every distance, so the search reads the oracle's distance levels.  A
    vertex's profile is its level sizes, then its distances to the fixed
    vertices, which every automorphism fixing them keeps; a fixed vertex,
    at distance 0 from itself, is alone with its profile.  The fixed
    vertices map to themselves.  For each vertex w not yet in a lower
    orbit, and each lower orbit representative v with the same profile, a
    backtracking search maps v to w, then the other vertices in BFS order
    from v (level by level, low bit first).  A vertex u may map to any x
    with u's profile that lies in level k of p's image for each placed p at
    distance k >= 1 from u, which keeps x off every image so far.  A
    union-find joins u and phi(u) for every vertex u of every automorphism
    phi found, so the classes are the orbits of the group those
    automorphisms generate.  At most ``ORBIT_STEP_BUDGET`` images are tried
    in all; running out only leaves the orbits finer, never wrong.
    """
    fixed = tuple(fixed)
    cache = g._cache.setdefault("orbits", {})
    cached = cache.get(fixed)
    if cached is not None:
        return cached
    n = g.order
    levels = VisibilityOracle.for_graph(g).levels
    pinned = 0
    for f in fixed:
        _check_vertex(g, f)
        pinned |= 1 << f
    profile = [
        tuple(level.bit_count() for level in lv)
        + tuple(next(k for k, level in enumerate(lv) if level >> f & 1) for f in fixed)
        for lv in levels
    ]
    alike: dict[tuple[int, ...], int] = {}
    for u, p in enumerate(profile):
        alike[p] = alike.get(p, 0) | 1 << u
    parent = list(range(n))
    budget = ORBIT_STEP_BUDGET

    def find(u: int) -> int:
        while parent[u] != u:
            parent[u] = u = parent[parent[u]]
        return u

    def isometry(v: int, w: int) -> list[int] | None:
        nonlocal budget
        order = [x for level in levels[v] for x in range(n) if (level & ~pinned) >> x & 1]
        image = list(range(n))  # the fixed vertices keep their own
        options = [1 << w] + [0] * (len(order) - 1)
        placed = 0
        i = 0
        while True:
            if not options[i]:
                if i == 0:
                    return None
                i -= 1
                placed ^= 1 << order[i]
                continue
            low = options[i] & -options[i]
            options[i] ^= low
            budget -= 1
            if budget < 0:
                return None
            image[order[i]] = low.bit_length() - 1
            placed |= 1 << order[i]
            i += 1
            if i == len(order):
                return image
            u = order[i]
            m = alike[profile[u]]
            for k, level in enumerate(levels[u]):
                rem = level & placed
                while rem and m:
                    p = rem & -rem
                    rem ^= p
                    m &= levels[image[p.bit_length() - 1]][k]
            options[i] = m

    for w in range(1, n):
        if parent[w] != w:
            continue
        for v in range(w):
            if budget <= 0:
                break
            if parent[v] != v or profile[v] != profile[w]:
                continue
            phi = isometry(v, w)
            if phi is not None:
                for u, x in enumerate(phi):
                    a, b = find(u), find(x)
                    if a != b:
                        parent[max(a, b)] = min(a, b)
                break
    cached = cache[fixed] = tuple(find(u) for u in range(n))
    return cached


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
    """A pair (a, b), a < b, that x blocks, or None when x is total
    mutual-visible.  Handy when a failing check needs explaining.

    a is the lowest vertex blocked from some higher vertex.  b is the first
    of those higher vertices that the BFS from a finds blocked (see
    ``VisibilityOracle._first_blocked_target``), which is not always the
    lowest of them."""
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


def _pair_cores(adj: tuple[int, ...], w: int) -> Iterator[int]:
    """Yield N(a) & N(b) for each non-adjacent pair a, b of neighbours of w:
    the cores of the pairs at distance two through w."""
    rest = adj[w]
    while rest:
        a = rest & -rest
        rest ^= a
        nbrs = adj[a.bit_length() - 1]
        far = rest & ~nbrs
        while far:
            b = far & -far
            far ^= b
            yield nbrs & adj[b.bit_length() - 1]


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
        for core in _pair_cores(adj, low.bit_length() - 1):
            if not core & ~within and not core & (low - 1):
                cores.add(core)
    return cores


def _middle_covers(
    adj: tuple[int, ...], levels: tuple[tuple[int, ...], ...], x: int, y: int, room: int
) -> list[int] | None:
    """The minimal vertex covers of H, the edges between the middle layers
    L1 = N(x) & L_2(y) and L2 = N(y) & L_2(x) of a pair at distance three,
    or None when the 2**k subsets of the smaller layer, of k vertices, are
    more than ``room``, the blockers still free; so neither the subsets
    walked nor the covers returned ever exceed the room left.

    Let S be the smaller layer and T the other.  A cover C that leaves out
    the part D of S must hold N_H(D); a vertex of T outside N_H(D) has all
    its H-edges covered by C & S, so a minimal C leaves it out.  A vertex
    of C & S is needed exactly when it keeps an H-edge into T - N_H(D).
    So each subset D of S gives one minimal cover, (S - D) | N_H(D), when
    every vertex of S - D keeps such an edge, and none otherwise."""
    s, t = adj[x] & levels[y][2], adj[y] & levels[x][2]
    if s.bit_count() > t.bit_count():
        s, t = t, s
    members = [u for u in range(s.bit_length()) if s >> u & 1]
    k = len(members)
    if 1 << k > room:
        return None
    edges = [adj[a] & t for a in members]
    reach = [0] * (1 << k)  # reach[d]: N_H of the members indexed by d
    for d in range(1, 1 << k):
        low = d & -d
        reach[d] = reach[d ^ low] | edges[low.bit_length() - 1]
    covers = []
    for d in range(1 << k):
        free = t & ~reach[d]
        cover = reach[d]
        for i in range(k):
            if not d >> i & 1:
                if not edges[i] & free:
                    break
                cover |= 1 << members[i]
        else:
            covers.append(cover)
    return covers


def short_pair_blockers(g: Graph) -> tuple[set[int], list[int]]:
    """Blockers for the pairs at distance two and three, and for each
    vertex the mask of partners whose pairs they leave to a BFS check.

    By the module docstring's lemma, a set that holds a pair x, y and none
    of its blockers sees the pair: a pair at distance two has the one
    blocker {x, y} | (N(x) & N(y)), and one at distance three has {x, y}
    joined with each minimal cover of its middle edges
    (``_middle_covers``).  At most ``_search.BLOCKER_LIMIT`` blockers are
    made, read at call time: the distance-two pairs come first, then the
    distance-three pairs in order, each with all of its covers or none; a
    distance-three pair gets its covers only when the 2**k subsets of its
    smaller middle layer fit in the room left.  A pair left out is marked
    in the returned masks, as is every pair at distance four or more.
    """
    oracle = VisibilityOracle.for_graph(g)
    adj, levels = oracle.adj, oracle.levels
    limit = _search.BLOCKER_LIMIT
    blockers: set[int] = set()
    # Levels are disjoint, so their sum is their union.
    far = [oracle.full & ~sum(lv[:4]) for lv in levels]
    for dist in (2, 3):
        for x, lx in enumerate(levels):
            rem = lx[dist] >> (x + 1) << (x + 1) if dist < len(lx) else 0
            while rem:
                low = rem & -rem
                rem ^= low
                y = low.bit_length() - 1
                pair = 1 << x | low
                if dist == 2:
                    new = {pair | adj[x] & adj[y]}
                else:
                    covers = _middle_covers(adj, levels, x, y, limit - len(blockers))
                    new = set() if covers is None else {pair | c for c in covers}
                if new and len(blockers) + len(new - blockers) <= limit:
                    blockers |= new
                else:
                    far[x] |= low
                    far[y] |= 1 << x
    return blockers, far


def is_bypass_vertex(g: Graph, u: int) -> bool:
    """True iff u is not the middle vertex of any convex path on 3 vertices.

    A path x-u-y is convex exactly when x and y are non-adjacent and u is
    their only common neighbor: then x and y are at distance two and every
    geodesic between them runs through u.  So u is a bypass vertex exactly
    when {u} is not the core of a pair through u.
    """
    _check_vertex(g, u)
    return (1 << u) not in _pair_cores(g.adjacency_masks(), u)


def bypass_set(g: Graph) -> frozenset[int]:
    """All bypass vertices of g."""
    cached = g._cache.get("bypass")
    if cached is None:
        cached = frozenset(u for u in range(g.order) if is_bypass_vertex(g, u))
        g._cache["bypass"] = cached
    return cached
