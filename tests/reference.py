"""Slow reference implementations used to cross-check the package.

Everything here is built from first principles on different primitives
than the library: Floyd-Warshall instead of BFS, explicit enumeration of
all shortest paths instead of bitset level masks, full subset scans
instead of pruned search.  Only usable for small graphs.
"""

from __future__ import annotations

from itertools import combinations, permutations

INF = float("inf")


def floyd_warshall(g):
    n = g.order
    dist = [[0 if i == j else INF for j in range(n)] for i in range(n)]
    for u, v in g.edges():
        dist[u][v] = dist[v][u] = 1
    for k in range(n):
        for i in range(n):
            dik = dist[i][k]
            if dik == INF:
                continue
            for j in range(n):
                if dik + dist[k][j] < dist[i][j]:
                    dist[i][j] = dik + dist[k][j]
    return dist


def all_shortest_paths(g, x, y, dist=None):
    """Every shortest x-y path, as vertex tuples."""
    dist = dist or floyd_warshall(g)
    if dist[x][y] == INF:
        return []
    paths = []

    def extend(path):
        last = path[-1]
        if last == y:
            paths.append(tuple(path))
            return
        for w in g.neighbors(last):
            if dist[w][y] == dist[last][y] - 1:
                path.append(w)
                extend(path)
                path.pop()

    extend([x])
    return paths


def visible(g, obstacles, x, y, dist=None):
    obstacles = set(obstacles) - {x, y}
    return any(
        not (set(p[1:-1]) & obstacles)
        for p in all_shortest_paths(g, x, y, dist)
    )


def is_tmv(g, members, dist=None):
    dist = dist or floyd_warshall(g)
    return all(
        visible(g, members, x, y, dist)
        for x, y in combinations(range(g.order), 2)
    )


def is_mv(g, members, dist=None):
    dist = dist or floyd_warshall(g)
    members = set(members)
    return all(visible(g, members, x, y, dist) for x, y in combinations(sorted(members), 2))


def is_independent(g, members):
    return all(not g.has_edge(u, v) for u, v in combinations(sorted(members), 2))


def is_convex(g, members, dist=None):
    dist = dist or floyd_warshall(g)
    members = set(members)
    return all(
        set(p) <= members
        for x, y in combinations(sorted(members), 2)
        for p in all_shortest_paths(g, x, y, dist)
    )


def is_bypass(g, u, dist=None):
    """Straight from the definition: u is bypass when no neighbor pair
    x,y makes x-u-y a path with convex vertex set."""
    dist = dist or floyd_warshall(g)
    for x, y in combinations(g.neighbors(u), 2):
        if g.has_edge(x, y):
            continue
        if is_convex(g, {x, u, y}, dist):
            return False
    return True


def bypass_vertices(g, dist=None):
    dist = dist or floyd_warshall(g)
    return frozenset(u for u in range(g.order) if is_bypass(g, u, dist))


def _lex_first_maximum(n, feasible):
    """Largest feasible subset; ties broken toward the lexicographically
    first vertex tuple, matching the library's search order."""
    for r in range(n, -1, -1):
        for combo in combinations(range(n), r):
            if feasible(frozenset(combo)):
                return combo
    return ()


def brute_mu(g):
    dist = floyd_warshall(g)
    return _lex_first_maximum(g.order, lambda s: is_mv(g, s, dist))


def brute_mut(g):
    dist = floyd_warshall(g)
    return _lex_first_maximum(g.order, lambda s: is_tmv(g, s, dist))


def brute_muit(g):
    dist = floyd_warshall(g)
    return _lex_first_maximum(
        g.order, lambda s: is_independent(g, s) and is_tmv(g, s, dist)
    )


def brute_alpha(g):
    return len(_lex_first_maximum(g.order, lambda s: is_independent(g, s)))


def orbit_minima(g, fixed=()):
    """For each vertex, the lowest vertex of its orbit under the
    automorphisms that fix every vertex of ``fixed`` (the full group when
    it is empty), found by trying every permutation of the other vertices."""
    edges = set(g.edges())
    free = [u for u in range(g.order) if u not in fixed]
    low = list(range(g.order))
    for images in permutations(free):
        p = list(range(g.order))
        for u, x in zip(free, images):
            p[u] = x
        if all((min(p[u], p[v]), max(p[u], p[v])) in edges for u, v in edges):
            for u in range(g.order):
                low[p[u]] = min(low[p[u]], u)
    return tuple(low)
