"""Simple undirected graphs and the metric primitives everything else builds on.

Vertices are the integers ``0 .. order-1``.  Graphs are immutable once
constructed; derived data (adjacency bitmasks) is computed once per graph
and shared by all later queries.
"""

from __future__ import annotations

from collections import deque
from typing import AbstractSet, Iterable

from ._search import lex_first_maximum
from .errors import CapExceeded, GraphError, WitnessError

DEFAULT_ALPHA_CAP = 24


class Graph:
    """Immutable simple graph on vertices ``0 .. order-1``.

    Parallel edges collapse silently; self-loops and endpoints that are not
    vertex ids (``_is_index``) are rejected.  Equality and hashing are
    structural (order plus edge set), ignoring the display name.
    """

    __slots__ = ("order", "name", "_adj", "_edge_count", "_hash", "_cache")

    def __init__(self, order: int, edges: Iterable[tuple[int, int]] = (), name: str = ""):
        if not isinstance(order, int) or isinstance(order, bool) or order < 1:
            raise GraphError(f"graph order must be a positive integer, got {order!r}")
        adj: list[set[int]] = [set() for _ in range(order)]
        for edge in edges:
            try:
                u, v = edge
            except (TypeError, ValueError):
                raise GraphError(f"edge {edge!r} is not a pair of vertices") from None
            if not (type(u) is int and type(v) is int and 0 <= u < order and 0 <= v < order):
                raise GraphError(f"edge {tuple(edge)!r} out of range for order {order}")
            if u == v:
                raise GraphError(f"self-loop at vertex {u} rejected")
            adj[u].add(v)
            adj[v].add(u)
        self.order = order
        self.name = name
        self._adj = tuple(frozenset(s) for s in adj)
        self._edge_count = sum(len(s) for s in self._adj) // 2
        self._hash: int | None = None
        self._cache: dict = {}

    # -- basic queries ----------------------------------------------------

    def neighbors(self, u: int) -> frozenset[int]:
        _check_vertex(self, u)
        return self._adj[u]

    def degree(self, u: int) -> int:
        _check_vertex(self, u)
        return len(self._adj[u])

    def has_edge(self, u: int, v: int) -> bool:
        _check_vertex(self, u)
        _check_vertex(self, v)
        return v in self._adj[u]

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) pairs with u < v, sorted."""
        return [(u, v) for u in range(self.order) for v in sorted(self._adj[u]) if u < v]

    @property
    def num_edges(self) -> int:
        return self._edge_count

    def adjacency_masks(self) -> tuple[int, ...]:
        """Neighborhoods as bitmasks, one int per vertex."""
        masks = self._cache.get("adjmasks")
        if masks is None:
            masks = tuple(sum(1 << v for v in nbrs) for nbrs in self._adj)
            self._cache["adjmasks"] = masks
        return masks

    # -- identity ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.order == other.order and self._adj == other._adj

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.order, self._adj))
        return self._hash

    def __repr__(self) -> str:
        label = f", name={self.name!r}" if self.name else ""
        return f"Graph(order={self.order}, edges={self._edge_count}{label})"


def _bfs_distances(g: Graph, source: int) -> list[int]:
    dist = [-1] * g.order
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        du = dist[u] + 1
        for w in g._adj[u]:
            if dist[w] < 0:
                dist[w] = du
                queue.append(w)
    return dist


def is_connected(g: Graph) -> bool:
    return _bfs_distances(g, 0).count(-1) == 0


def all_pairs_distances(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Distance rows by BFS from every vertex; raises GraphError on disconnected input."""
    rows = []
    for source in range(g.order):
        row = _bfs_distances(g, source)
        if -1 in row:
            raise GraphError("distance matrix requires a connected graph")
        rows.append(tuple(row))
    return tuple(rows)


def min_degree(g: Graph) -> int:
    return min(len(g._adj[u]) for u in range(g.order))


def leaf_set(g: Graph) -> frozenset[int]:
    """Vertices of degree exactly one."""
    return frozenset(u for u in range(g.order) if len(g._adj[u]) == 1)


def girth(g: Graph) -> int | None:
    """Length of a shortest cycle, or None when the graph is acyclic.

    For each edge uv, a shortest cycle through uv has length d(u, v) + 1 in
    the graph with uv removed; the girth is the minimum over all edges.
    A forest (m = n - number of components) has no cycle and is not searched.
    """
    if g.num_edges == g.order - _component_count(g):
        return None
    best: int | None = None
    for u, v in g.edges():
        d = _distance_avoiding_edge(g, u, v)
        if d >= 0 and (best is None or d + 1 < best):
            best = d + 1
            if best == 3:
                return 3
    return best


def _component_count(g: Graph) -> int:
    seen = [False] * g.order
    count = 0
    for source in range(g.order):
        if seen[source]:
            continue
        count += 1
        seen[source] = True
        stack = [source]
        while stack:
            for w in g._adj[stack.pop()]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
    return count


def _distance_avoiding_edge(g: Graph, u: int, v: int) -> int:
    dist = [-1] * g.order
    dist[u] = 0
    queue = deque([u])
    while queue:
        x = queue.popleft()
        dx = dist[x] + 1
        for w in g._adj[x]:
            if dist[w] < 0 and not (x == u and w == v):
                dist[w] = dx
                if w == v:
                    return dx
                queue.append(w)
    return dist[v]


def is_independent_set(g: Graph, s: AbstractSet[int]) -> bool:
    """True iff no two members are adjacent."""
    fs = _check_vertex_set(g, s)
    return not any(g._adj[u] & fs for u in fs)


def max_independent_set(g: Graph, *, cap: int = DEFAULT_ALPHA_CAP) -> frozenset[int]:
    """A largest independent set, found by exact branch-and-bound.

    Refuses graphs larger than ``cap`` vertices; raise the cap via --cap-n
    on the command line when you really want a bigger exact search.
    """
    if g.order > cap:
        raise CapExceeded(
            f"order {g.order} exceeds the independence search cap {cap}; raise it with --cap-n"
        )
    edge_masks = [(1 << u) | (1 << v) for u, v in g.edges()]
    _, members = lex_first_maximum(range(g.order), lambda mask: True, seed_blockers=edge_masks)
    result = frozenset(members)
    if not is_independent_set(g, result):
        raise WitnessError("internal error: independence witness failed validation")
    return result


def independence_number(g: Graph) -> int:
    return len(max_independent_set(g))


# -- validation helpers ----------------------------------------------------


def _is_index(x: object, n: int) -> bool:
    # The one rule for vertex ids and product coordinates: exactly an int,
    # so not a bool, in range(n).  Graph() inlines it in its edge loop.
    return type(x) is int and 0 <= x < n


def _check_vertex(g: Graph, u: int) -> None:
    if not _is_index(u, g.order):
        raise GraphError(f"vertex {u!r} out of range for graph of order {g.order}")


def _check_vertex_set(g: Graph, s: AbstractSet[int]) -> frozenset[int]:
    fs = frozenset(s)
    for u in fs:
        _check_vertex(g, u)
    return fs
