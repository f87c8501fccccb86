"""Slow reference implementations used to cross-check the package.

Everything here is built from first principles on different primitives
than the library: Floyd-Warshall instead of BFS, explicit enumeration of
all shortest paths instead of bitset level masks, full subset scans
instead of pruned search.  Only usable for small graphs.  The exception is
``rebuild_lex_first_maximum``, a kept copy of an earlier searcher that
the current one must match call for call.
"""

from __future__ import annotations

import sys
from itertools import combinations, permutations

from mutvis import _search

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


def short_pair_blockers(g, dist=None):
    """For every pair x < y at distance two or three, each inclusion-minimal
    set of vertices strictly inside its geodesics that meets every one of
    them, joined with {x, y}; as frozensets."""
    dist = dist or floyd_warshall(g)
    out = set()
    for x, y in combinations(range(g.order), 2):
        if dist[x][y] not in (2, 3):
            continue
        insides = [set(p[1:-1]) for p in all_shortest_paths(g, x, y, dist)]
        interval = sorted(set().union(*insides))
        hitting = [
            set(c)
            for r in range(len(interval) + 1)
            for c in combinations(interval, r)
            if all(inside & set(c) for inside in insides)
        ]
        out.update(frozenset(h | {x, y}) for h in hitting if not any(o < h for o in hitting))
    return out


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


def rebuild_lex_first_maximum(candidates, feasible, learn=None, seed_blockers=()):
    """``mutvis._search.lex_first_maximum`` as it was when each node rebuilt
    its drops, pair conflicts and packing from every blocker it inherited.
    The searcher now carries that state down the tree; both must make the
    same ``feasible`` and ``learn`` calls in the same order."""
    everyone = sum({1 << v for v in candidates})
    log = []
    by_top = {}
    conflicts = {}
    known = set()

    def add_blocker(b):
        if not b or b in known:
            return
        known.add(b)
        if b.bit_count() == 2:
            _search._link(conflicts, b)
        else:
            log.append(b)
            by_top.setdefault(b.bit_length() - 1, []).append(b)

    for b in seed_blockers:
        add_blocker(b)

    best_size = best = 0

    def covered(mask):
        for b in by_top.get(mask.bit_length() - 1, ()):
            if b & mask == b:
                return True
        return False

    def grow(mask, size, suffix, inherited, since):
        nonlocal best_size, best
        outside = ~(mask | suffix)
        hits = [b for b in inherited if not b & outside]
        fresh = [b for b in log[since:] if not b & outside]
        if fresh:
            hits += fresh
            hits.sort(key=_search._blocker_rank)
        since = len(log)
        dropped = 0
        for b in hits:
            r = b & ~mask
            if not r & (r - 1):
                dropped |= r
        if dropped:
            suffix &= ~dropped
            hits = [b for b in hits if not b & dropped]
        local = {}
        used = packed = 0
        for b in hits:
            r = b & ~mask
            if r.bit_count() == 2:
                _search._link(local, r)
            elif not r & used:
                packed += 1
                used |= r
        if size + suffix.bit_count() - packed <= best_size:
            return
        tops = _search._class_tops(suffix, conflicts, local) if conflicts or local else suffix
        rem = suffix
        while rem:
            if size + (tops & rem).bit_count() <= best_size:
                break
            low = rem & -rem
            rem ^= low
            v = low.bit_length() - 1
            near = conflicts.get(v, 0)
            if near & mask:
                continue
            vmask = mask | low
            if covered(vmask):
                continue
            if not feasible(vmask):
                if learn is not None and len(log) < _search.BLOCKER_LIMIT:
                    add_blocker(learn(vmask))
                continue
            if size >= best_size:
                best_size, best = size + 1, vmask
            rest = rem & ~(near | local.get(v, 0))
            if size + 1 + min((tops & rem).bit_count(), rest.bit_count()) > best_size:
                grow(vmask, size + 1, rest, hits, since)

    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, everyone.bit_count() + 1000))
    try:
        grow(0, 0, everyone, [], 0)
    finally:
        sys.setrecursionlimit(limit)
    return best_size, tuple(v for v in range(best.bit_length()) if best >> v & 1)
