from __future__ import annotations

from itertools import product as cross

import pytest

import reference
from mutvis import (
    GraphError,
    WitnessError,
    cartesian_product,
    girth,
    is_connected,
    is_total_mv_set,
    k_fold_product,
    layer,
    lower_bound_witness,
    min_degree,
    over_visible_witness,
)
from mutvis.generators import complete, cycle, g_m, path, star, theta
from mutvis.specs import build


def _expected_edges(factors):
    """Product edges as pairs of ids, straight from the definition: the
    coordinate tuples are numbered in itertools.product order (the last
    factor varies fastest) and two tuples are adjacent when they differ in
    exactly one coordinate, along an edge of that factor."""
    coords = list(cross(*(range(f.order) for f in factors)))
    edges = set()
    for u, x in enumerate(coords):
        for v, y in enumerate(coords[u + 1 :], start=u + 1):
            diff = [i for i in range(len(factors)) if x[i] != y[i]]
            if len(diff) == 1 and factors[diff[0]].has_edge(x[diff[0]], y[diff[0]]):
                edges.add((u, v))
    return edges


def test_adjacency_follows_the_coordinate_rule():
    nested = build("cp(cp(path:2,complete:2),cp(cycle:3,path:2))")
    assert nested.factor_orders == (2, 2, 3, 2)
    assert (nested.graph.order, nested.graph.num_edges) == (24, 60)
    for p in [
        cartesian_product(path(3), cycle(3)),
        cartesian_product(star(2), complete(2)),
        cartesian_product(cycle(4), path(2)),
        k_fold_product([path(2), cycle(3), star(2)]),
        nested,
    ]:
        assert set(p.graph.edges()) == _expected_edges(p.factors)


def test_order_and_size_formulas():
    for g, h in [(path(4), cycle(5)), (complete(3), complete(4)), (star(3), path(2))]:
        p = cartesian_product(g, h)
        assert p.graph.order == g.order * h.order
        assert p.graph.num_edges == g.order * h.num_edges + h.order * g.num_edges
        assert is_connected(p.graph)


def test_degrees_add_coordinatewise():
    g, h = star(3), cycle(4)
    p = cartesian_product(g, h)
    for v in range(p.graph.order):
        a, b = p.decode(v)
        assert p.graph.degree(v) == g.degree(a) + h.degree(b)


def test_encode_decode_round_trip():
    p = k_fold_product([path(3), cycle(3), complete(2)])
    assert p.factor_orders == (3, 3, 2)
    for v in range(p.graph.order):
        assert p.encode(p.decode(v)) == v
    assert p.decode(0) == (0, 0, 0)
    assert p.decode(p.graph.order - 1) == (2, 2, 1)


def test_encode_validates_coordinates():
    p = cartesian_product(path(3), cycle(3))
    with pytest.raises(GraphError):
        p.encode((0,))
    with pytest.raises(GraphError):
        p.encode((3, 0))
    with pytest.raises(GraphError):
        p.encode((0, -1))
    # Coordinates and ids follow the vertex rule: exactly an int, in range.
    for coords in [(1.5, 0), (True, 0)]:
        with pytest.raises(GraphError):
            p.encode(coords)
    for vid in [2.5, True]:
        with pytest.raises(GraphError):
            p.decode(vid)


def test_nested_products_flatten_to_the_same_ids():
    flat = k_fold_product([complete(2), path(3), cycle(3)])
    left = build("cp(cp(complete:2,path:3),cycle:3)")
    right = build("cp(complete:2,cp(path:3,cycle:3))")
    assert left.graph == flat.graph == right.graph
    assert left.factor_orders == right.factor_orders == (2, 3, 3)


def test_product_needs_two_factors():
    with pytest.raises(GraphError):
        k_fold_product([path(3)])


def test_product_requires_connected_factors():
    from mutvis import Graph

    with pytest.raises(GraphError):
        cartesian_product(path(3), Graph(2))


def test_square_of_an_edge_is_a_square():
    p = cartesian_product(complete(2), complete(2))
    assert p.graph.order == 4
    assert girth(p.graph) == 4
    assert min_degree(p.graph) == 2


def test_layers():
    g, h = path(3), cycle(4)
    p = cartesian_product(g, h)
    column = layer(p, 1, (2,))
    assert column == frozenset(p.encode((2, b)) for b in range(4))
    row = layer(p, 0, (1,))
    assert row == frozenset(p.encode((a, 1)) for a in range(3))
    triple = k_fold_product([path(2), path(3), path(2)])
    assert layer(triple, 1, (1, 0)) == frozenset(
        triple.encode((1, b, 0)) for b in range(3)
    )
    with pytest.raises(GraphError):
        layer(p, 2, (0,))
    with pytest.raises(GraphError):
        layer(p, 0, (1, 2))
    with pytest.raises(GraphError):
        layer(p, 0, (1.5,))
    with pytest.raises(GraphError):
        layer(p, True, (1,))


def test_lower_bound_witness_builds_a_verified_set():
    p = cartesian_product(star(3), complete(2))
    image = lower_bound_witness(p, {1, 2, 3}, {0, 1})
    assert len(image) == 6
    assert is_total_mv_set(p.graph, image)


def test_lower_bound_witness_validates_inputs():
    p = cartesian_product(star(3), complete(2))
    with pytest.raises(WitnessError):
        lower_bound_witness(p, {0, 1}, {0, 1})  # hub+leaf is not independent
    q = cartesian_product(star(3), cycle(4))
    with pytest.raises(WitnessError):
        lower_bound_witness(q, {1, 2, 3}, {0, 2})  # opposite pair blocks the square
    with pytest.raises(GraphError):
        lower_bound_witness(k_fold_product([path(2)] * 3), {0}, {0})
    with pytest.raises(WitnessError) as info:
        lower_bound_witness(cartesian_product(path(3), complete(2)), {1}, {0})
    assert str(info.value) == "first-factor set [1] is not total mutual-visible"


def test_over_visible_witness_on_the_smallest_case():
    g = theta((2, 2, 4))
    p = cartesian_product(g, g)
    w = over_visible_witness(p, {2}, [3], {2}, [3])
    assert len(w) == 2
    assert is_total_mv_set(p.graph, w)
    assert sorted(p.decode(v) for v in w) == [(2, 2), (3, 3)]


def test_over_visible_witness_on_the_rung_gadget():
    g = g_m(1)
    p = cartesian_product(g, g)
    w = over_visible_witness(p, {0, 3, 4}, [5], {0, 3, 4}, [5])
    assert len(w) == 10
    assert is_total_mv_set(p.graph, w)


def test_over_visible_witness_validates_inputs():
    g = theta((2, 2, 4))
    p = cartesian_product(g, g)
    with pytest.raises(WitnessError):
        over_visible_witness(p, {2}, [], {2}, [3])
    with pytest.raises(WitnessError):
        over_visible_witness(p, {2}, [3, 3], {2}, [3, 3])
    with pytest.raises(WitnessError):
        over_visible_witness(p, {2}, [2], {2}, [3])
    with pytest.raises(WitnessError):
        over_visible_witness(p, {2}, [3], {2}, [3, 4])
    with pytest.raises(WitnessError):
        # vertex 5 sits inside the long path; it is not a bypass vertex
        over_visible_witness(p, {2}, [5], {2}, [3])
    with pytest.raises(WitnessError) as info:
        over_visible_witness(build("cp(gm:1,gm:1)"), {1}, [5], {0, 3, 4}, [5])
    assert str(info.value) == "first-factor base set is not total mutual-visible"
    with pytest.raises(WitnessError) as info:
        over_visible_witness(build("cp(theta:2,2,2,theta:2,2,2)"), {2}, [0], {2}, [0])
    assert str(info.value) == "first-factor base plus extras is not independent"


def test_product_bypass_is_the_factor_product():
    for g, h in [(cycle(4), path(3)), (theta((2, 2, 4)), star(3)), (complete(3), cycle(5))]:
        p = cartesian_product(g, h)
        expected = frozenset(
            p.encode((a, b))
            for a in reference.bypass_vertices(g)
            for b in reference.bypass_vertices(h)
        )
        assert reference.bypass_vertices(p.graph) == expected


def test_product_name():
    p = cartesian_product(path(3), cycle(4))
    assert p.graph.name == "cp(path:3,cycle:4)"
