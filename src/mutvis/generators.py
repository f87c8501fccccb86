"""Constructors for the graph families the library is exercised on.

Labelings are part of the contract: witnesses are reported as vertex ids,
so each constructor documents which id plays which structural role.  Every
generator stamps the graph with its canonical spec string (see specs) as
the name.
"""

from __future__ import annotations

import random
from heapq import heapify, heappop, heappush
from itertools import combinations
from typing import Sequence

from .errors import GraphError
from .graph import Graph


def path(n: int) -> Graph:
    if n < 1:
        raise GraphError("a path needs at least 1 vertex")
    return Graph(n, [(i, i + 1) for i in range(n - 1)], name=f"path:{n}")


def cycle(n: int) -> Graph:
    if n < 3:
        raise GraphError("a cycle needs at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)], name=f"cycle:{n}")


def complete(n: int) -> Graph:
    if n < 1:
        raise GraphError("a complete graph needs at least 1 vertex")
    return Graph(n, list(combinations(range(n), 2)), name=f"complete:{n}")


def biclique(n: int, m: int) -> Graph:
    """Complete bipartite graph; part A is ids 0..n-1, part B the rest."""
    if n < 1 or m < 1:
        raise GraphError("both biclique parts need at least 1 vertex")
    edges = [(a, n + b) for a in range(n) for b in range(m)]
    return Graph(n + m, edges, name=f"biclique:{n},{m}")


def star(k: int) -> Graph:
    """Star with k leaves: center id 0, leaves 1..k."""
    if k < 1:
        raise GraphError("a star needs at least 1 leaf")
    return Graph(k + 1, [(0, i) for i in range(1, k + 1)], name=f"star:{k}")


def theta(lengths: Sequence[int]) -> Graph:
    """Two hub vertices joined by internally disjoint paths.

    Hub a is id 0, hub b is id 1; the internal vertices of each path are
    numbered consecutively, path by path, starting at 2.  A length-1 path
    is the direct hub edge, so at most one length of 1 is allowed, and
    lengths must come sorted non-decreasing (the canonical form).
    """
    lengths = tuple(lengths)
    if len(lengths) < 2:
        raise GraphError("a theta graph needs at least 2 paths")
    if any(lengths[i] > lengths[i + 1] for i in range(len(lengths) - 1)):
        raise GraphError("theta path lengths must be sorted non-decreasing")
    if lengths[0] < 1:
        raise GraphError("theta path lengths must be at least 1")
    if lengths[1] < 2:
        raise GraphError("at most one theta path may be a single edge")
    edges: list[tuple[int, int]] = []
    nxt = 2
    for p in lengths:
        if p == 1:
            edges.append((0, 1))
            continue
        inner = range(nxt, nxt + p - 1)
        nxt += p - 1
        edges.append((0, inner[0]))
        edges.extend((inner[i], inner[i + 1]) for i in range(len(inner) - 1))
        edges.append((inner[-1], 1))
    name = "theta:" + ",".join(str(p) for p in lengths)
    return Graph(nxt, edges, name=name)


def generalized_complete(clique_sizes: Sequence[int]) -> Graph:
    """Apex vertex 0 joined to disjoint cliques numbered consecutively."""
    sizes = tuple(clique_sizes)
    if not sizes:
        raise GraphError("at least one clique size is required")
    if any(s < 1 for s in sizes):
        raise GraphError("clique sizes must be at least 1")
    edges: list[tuple[int, int]] = []
    nxt = 1
    for s in sizes:
        block = range(nxt, nxt + s)
        nxt += s
        edges.extend((0, v) for v in block)
        edges.extend(combinations(block, 2))
    name = "gencomplete:" + ",".join(str(s) for s in sizes)
    return Graph(nxt, edges, name=name)


def g_m(m: int) -> Graph:
    """Two pendant ends x0, x_{m+2} and m rungs of twin degree-2 vertices.

    Ids: x0..x_{m+2} are 0..m+2, y1..ym are m+3..2m+2, z1..zm are
    2m+3..3m+2.  Edges: x0-x1, x_{m+1}-x_{m+2}, and each y_i and z_i joins
    x_i with x_{i+1}; the x vertices in between are not adjacent to each
    other.
    """
    if m < 1:
        raise GraphError("the rung count must be at least 1")
    edges = [(0, 1), (m + 1, m + 2)]
    for i in range(1, m + 1):
        y = m + 2 + i
        z = 2 * m + 2 + i
        edges += [(i, y), (y, i + 1), (i, z), (z, i + 1)]
    return Graph(3 * m + 3, edges, name=f"gm:{m}")


def petersen() -> Graph:
    """Kneser graph on the 2-subsets of a 5-set, lexicographically labeled;
    vertices are adjacent when their subsets are disjoint."""
    pairs = list(combinations(range(5), 2))
    index = {p: i for i, p in enumerate(pairs)}
    edges = [
        (index[p], index[q])
        for p, q in combinations(pairs, 2)
        if not set(p) & set(q)
    ]
    return Graph(10, edges, name="petersen")


# Fixed sporadic graphs, ids 0-based in reading order of their labels.
_FIG1_EDGES = (
    (0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8),
    (8, 9), (9, 10), (10, 11), (11, 7), (0, 4), (4, 6), (5, 7),
)
_FIG2_EDGES = (
    (0, 1), (1, 2), (2, 3), (3, 4), (0, 5), (5, 1), (3, 6), (6, 4),
    (2, 7), (7, 8), (7, 9), (0, 8), (8, 9), (9, 4), (5, 6),
)


def fig1() -> Graph:
    return Graph(12, _FIG1_EDGES, name="fig1")


def fig2() -> Graph:
    return Graph(10, _FIG2_EDGES, name="fig2")


def random_tree(n: int, seed: int) -> Graph:
    """Uniform random labeled tree from a seeded sequence decode."""
    if n < 2:
        raise GraphError("a random tree needs at least 2 vertices")
    rng = random.Random(seed)
    return Graph(n, _prufer_edges(rng, n), name=f"randomtree:{n},{seed}")


def random_connected_graph(n: int, seed: int) -> Graph:
    """Seeded connected graph: a random tree plus extra edges at rate 0.3."""
    rng = random.Random(f"mutvis:{n}:{seed}")
    edges = set(_prufer_edges(rng, n)) if n >= 2 else set()
    for u, v in combinations(range(n), 2):
        if (u, v) not in edges and rng.random() < 0.3:
            edges.add((u, v))
    return Graph(n, sorted(edges), name=f"random:{n},{seed}")


def _prufer_edges(rng: random.Random, n: int) -> list[tuple[int, int]]:
    if n == 2:
        return [(0, 1)]
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapify(leaves)
    edges = []
    for v in seq:
        leaf = heappop(leaves)
        edges.append((min(leaf, v), max(leaf, v)))
        degree[v] -= 1
        if degree[v] == 1:
            heappush(leaves, v)
    a = heappop(leaves)
    b = heappop(leaves)
    edges.append((a, b))
    return edges
