"""Cartesian products of graphs, layers, and witness-set constructions.

A product vertex is a coordinate tuple over the factors; ids are assigned
mixed-radix with the last factor varying fastest, so for two factors the
pair (a, b) gets id a * n(H) + b.  Two product vertices are adjacent when
they differ in exactly one coordinate and differ there along a factor edge.

The witness constructors package the two set-building recipes the product
bounds rest on.  They verify their own preconditions with the definitional
checkers and assert the produced set really is total mutual-visible, so a
silently violated hypothesis surfaces as an error instead of a wrong bound.
"""

from __future__ import annotations

from math import prod
from typing import AbstractSet, Sequence

from .errors import GraphError, WitnessError
from .graph import Graph, is_connected, is_independent_set, _check_vertex_set, _is_index
from .visibility import bypass_set, is_total_mv_set


class ProductGraph:
    """A Cartesian product together with its coordinate maps.

    ``graph`` is an ordinary Graph over the product ids; ``factor_orders``
    fixes the mixed-radix encoding and ``weights`` holds each coordinate's
    id step, so coordinates c map to the id sum(c[i] * weights[i]).
    Instances are immutable.
    """

    __slots__ = ("graph", "factors", "factor_orders", "weights")

    def __init__(self, graph: Graph, factors: tuple[Graph, ...]):
        self.graph = graph
        self.factors = factors
        self.factor_orders = tuple(f.order for f in factors)
        self.weights = _weights(self.factor_orders)

    def encode(self, coords: Sequence[int]) -> int:
        if len(coords) != len(self.factor_orders):
            raise GraphError(
                f"expected {len(self.factor_orders)} coordinates, got {len(coords)}"
            )
        for c, base in zip(coords, self.factor_orders):
            if not _is_index(c, base):
                raise GraphError(f"coordinate {c} out of range for factor of order {base}")
        return sum(c * w for c, w in zip(coords, self.weights))

    def decode(self, vid: int) -> tuple[int, ...]:
        if not _is_index(vid, self.graph.order):
            raise GraphError(f"vertex {vid} out of range for order {self.graph.order}")
        return tuple(vid // w % base for w, base in zip(self.weights, self.factor_orders))

    def __repr__(self) -> str:
        inner = ", ".join(f.name or f"order {f.order}" for f in self.factors)
        return f"ProductGraph({inner})"


def _weights(orders: Sequence[int]) -> tuple[int, ...]:
    """Id step of each coordinate: the product of the orders after it."""
    return tuple(prod(orders[i + 1 :]) for i in range(len(orders)))


def cartesian_product(g: Graph, h: Graph) -> ProductGraph:
    """Cartesian product of two connected graphs, pair (a, b) -> a*n(h)+b."""
    return k_fold_product([g, h])


def k_fold_product(factors: Sequence[Graph]) -> ProductGraph:
    """Iterated Cartesian product with flattened coordinates.

    The product is associative, so the graph does not depend on grouping;
    building all factors in one pass keeps the coordinate maps flat.  Each
    factor edge (u, v), at a factor of weight w, yields the product edges
    (b + u*w, b + v*w) for every id b whose coordinate there is 0.  That
    makes sum_i |E_i| * prod_{j != i} n_j edges, the count ``specs._size``
    checks before building.
    """
    factors = tuple(factors)
    if len(factors) < 2:
        raise GraphError("a product needs at least two factors")
    for f in factors:
        if not is_connected(f):
            raise GraphError("product factors must be connected")
    orders = [f.order for f in factors]
    n = prod(orders)
    edges: list[tuple[int, int]] = []
    for f, base, w in zip(factors, orders, _weights(orders)):
        zeros = [hi + lo for hi in range(0, n, base * w) for lo in range(w)]
        for u, v in f.edges():
            edges.extend((b + u * w, b + v * w) for b in zeros)
    name = "cp(" + ",".join(f.name or f"?{f.order}" for f in factors) + ")"
    return ProductGraph(Graph(n, edges, name=name), factors)


def layer(p: ProductGraph, factor_index: int, fixed_coords: Sequence[int]) -> frozenset[int]:
    """Product ids of one layer: the factor at ``factor_index`` ranges freely,
    every other coordinate is pinned by ``fixed_coords`` (given in factor
    order, skipping the free one)."""
    k = len(p.factor_orders)
    if not _is_index(factor_index, k):
        raise GraphError(f"factor index {factor_index} out of range for {k} factors")
    if len(fixed_coords) != k - 1:
        raise GraphError(f"expected {k - 1} fixed coordinates, got {len(fixed_coords)}")
    slot = iter(fixed_coords)
    start = p.encode([0 if i == factor_index else next(slot) for i in range(k)])
    w = p.weights[factor_index]
    return frozenset(start + c * w for c in range(p.factor_orders[factor_index]))


def _two_factors(p: ProductGraph) -> tuple[Graph, Graph]:
    if len(p.factors) != 2:
        raise GraphError("witness constructions are defined for two-factor products")
    return p.factors


def lower_bound_witness(p: ProductGraph, i_g: AbstractSet[int], x_h: AbstractSet[int]) -> frozenset[int]:
    """Image of I x X in the product, where I is an independent total
    mutual-visibility set of the first factor and X a total
    mutual-visibility set of the second.

    The inputs are verified against those hypotheses and the result is
    verified to be total mutual-visible in the product, so the returned
    set is always a valid cardinality witness.
    """
    g, h = _two_factors(p)
    i_g = _check_vertex_set(g, i_g)
    x_h = _check_vertex_set(h, x_h)
    if not is_independent_set(g, i_g):
        raise WitnessError(f"first-factor set {sorted(i_g)} is not independent")
    if not is_total_mv_set(g, i_g):
        raise WitnessError(f"first-factor set {sorted(i_g)} is not total mutual-visible")
    if not is_total_mv_set(h, x_h):
        raise WitnessError(f"second-factor set {sorted(x_h)} is not total mutual-visible")
    image = frozenset(p.encode((a, b)) for a in i_g for b in x_h)
    if not is_total_mv_set(p.graph, image):
        raise WitnessError("product image of the factor sets failed the visibility check")
    return image


def over_visible_witness(
    p: ProductGraph,
    s_g: AbstractSet[int],
    extras_g: Sequence[int],
    s_h: AbstractSet[int],
    extras_h: Sequence[int],
) -> frozenset[int]:
    """(S_G x S_H) plus the positionally paired extras, verified total
    mutual-visible in the product.

    Hypotheses checked per factor: the base set is total mutual-visible,
    extras are nonempty and disjoint from it, both lists pair up one to
    one, and base plus extras together form an independent set of bypass
    vertices.  This is the construction that pushes a product witness past
    the plain box bound.
    """
    g, h = _two_factors(p)
    s_g = _check_vertex_set(g, s_g)
    s_h = _check_vertex_set(h, s_h)
    e_g = tuple(extras_g)
    e_h = tuple(extras_h)
    if not e_g or len(e_g) != len(e_h):
        raise WitnessError("extras must pair up one to one and be nonempty")
    for graph, base, extras, label in ((g, s_g, e_g, "first"), (h, s_h, e_h, "second")):
        ex = _check_vertex_set(graph, set(extras))
        if len(ex) != len(extras):
            raise WitnessError(f"{label}-factor extras repeat a vertex")
        if ex & base:
            raise WitnessError(f"{label}-factor extras overlap the base set")
        if not is_total_mv_set(graph, base):
            raise WitnessError(f"{label}-factor base set is not total mutual-visible")
        whole = base | ex
        if not is_independent_set(graph, whole):
            raise WitnessError(f"{label}-factor base plus extras is not independent")
        if not whole <= bypass_set(graph):
            raise WitnessError(f"{label}-factor base plus extras leaves the bypass set")
    members = {p.encode((a, b)) for a in s_g for b in s_h}
    members.update(p.encode((u, v)) for u, v in zip(e_g, e_h))
    result = frozenset(members)
    if not is_total_mv_set(p.graph, result):
        raise WitnessError("combined product set failed the visibility check")
    return result
