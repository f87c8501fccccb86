from __future__ import annotations

import pytest

import mutvis.graph
import mutvis.visibility
import reference
from mutvis import (
    CapExceeded,
    Graph,
    GraphError,
    WitnessError,
    girth,
    independence_number,
    is_connected,
    is_independent_set,
    leaf_set,
    max_independent_set,
    min_degree,
)
from mutvis.generators import biclique, complete, cycle, fig1, path, petersen, random_tree, star
from mutvis.graph import all_pairs_distances
from mutvis.visibility import automorphism_orbits
from mutvis.specs import build, graph_of
from mutvis.verify import random_connected_graph


def test_rejects_bad_orders():
    with pytest.raises(GraphError):
        Graph(0)
    with pytest.raises(GraphError):
        Graph(-2)
    with pytest.raises(GraphError):
        Graph(True)
    with pytest.raises(GraphError):
        Graph("3")


def test_rejects_bad_edges():
    with pytest.raises(GraphError):
        Graph(3, [(0, 3)])
    with pytest.raises(GraphError):
        Graph(3, [(-1, 0)])
    with pytest.raises(GraphError):
        Graph(3, [(1, 1)])
    # Endpoints follow the vertex rule: exactly an int, so not a bool, in range.
    for edge in [(True, 2), (0.5, 1), ("0", 1), (0, 1, 2), (0,)]:
        with pytest.raises(GraphError):
            Graph(3, [edge])


def test_duplicate_edges_merge():
    g = Graph(3, [(0, 1), (1, 0), (0, 1)])
    assert g.num_edges == 1
    assert g.edges() == [(0, 1)]


def test_adjacency_accessors():
    g = Graph(4, [(2, 0), (0, 1), (2, 3)])
    assert g.neighbors(0) == {1, 2}
    assert g.degree(2) == 2
    assert g.has_edge(0, 2) and g.has_edge(2, 0)
    assert not g.has_edge(1, 3)
    assert g.edges() == [(0, 1), (0, 2), (2, 3)]
    with pytest.raises(GraphError):
        g.neighbors(4)
    with pytest.raises(GraphError):
        g.has_edge(0, 9)


def test_structural_equality_ignores_name():
    a = Graph(3, [(0, 1), (1, 2)], name="one")
    b = Graph(3, [(1, 2), (1, 0)], name="two")
    assert a == b
    assert hash(a) == hash(b)
    assert a != Graph(3, [(0, 1)])
    assert a != Graph(4, [(0, 1), (1, 2)])


def test_distances_match_floyd_warshall():
    for i in range(25):
        g = random_connected_graph(3 + i % 7, 100 + i)
        d = all_pairs_distances(g)
        slow = reference.floyd_warshall(g)
        for u in range(g.order):
            for v in range(g.order):
                assert d[u][v] == slow[u][v]


def test_distance_matrix_shape():
    g = cycle(6)
    d = all_pairs_distances(g)
    assert len(d) == 6
    assert d[0][3] == 3
    assert d[2][2] == 0
    assert d[0] == (0, 1, 2, 3, 2, 1)


def test_distances_require_connectivity():
    g = Graph(4, [(0, 1), (2, 3)])
    assert not is_connected(g)
    with pytest.raises(GraphError):
        all_pairs_distances(g)


def test_connectivity():
    assert is_connected(path(7))
    assert is_connected(Graph(1))
    assert not is_connected(Graph(2))


def test_girth_known_values():
    assert girth(cycle(5)) == 5
    assert girth(cycle(9)) == 9
    assert girth(complete(4)) == 3
    assert girth(petersen()) == 5
    assert girth(biclique(2, 3)) == 4
    assert girth(fig1()) == 3
    assert girth(path(6)) is None
    assert girth(star(5)) is None


def test_girth_of_a_forest_runs_no_search(monkeypatch):
    def refuse(g, u, v):
        raise AssertionError("searched an acyclic graph for a cycle")

    monkeypatch.setattr(mutvis.graph, "_distance_avoiding_edge", refuse)
    assert girth(path(5000)) is None
    assert girth(Graph(7, [(0, 1), (1, 2), (1, 3), (4, 5), (5, 6)])) is None


def test_leaves_and_degrees():
    assert leaf_set(path(5)) == {0, 4}
    assert leaf_set(star(4)) == {1, 2, 3, 4}
    assert leaf_set(cycle(4)) == frozenset()
    assert min_degree(path(3)) == 1
    assert min_degree(petersen()) == 3


def test_independence_matches_brute_force():
    for i in range(15):
        g = random_connected_graph(4 + i % 6, 500 + i)
        best = max_independent_set(g)
        assert is_independent_set(g, best)
        assert len(best) == reference.brute_alpha(g)
        assert independence_number(g) == len(best)


def test_independence_witness_failure_is_a_witness_error(monkeypatch):
    monkeypatch.setattr(mutvis.graph, "lex_first_maximum", lambda *args, **kwargs: (2, (0, 1)))
    with pytest.raises(WitnessError):
        max_independent_set(path(3))


def test_independence_cap():
    with pytest.raises(CapExceeded) as err:
        max_independent_set(petersen(), cap=4)
    assert "--cap-n" in str(err.value)


def test_independent_set_predicate():
    g = cycle(4)
    assert is_independent_set(g, {0, 2})
    assert not is_independent_set(g, {0, 1})
    assert is_independent_set(g, frozenset())


def test_automorphism_orbits_are_the_full_groups_orbits():
    # Brute force over every permutation, on seeded connected graphs and
    # trees of order up to 7; both kinds hold many symmetric graphs.
    graphs = [random_connected_graph(1 + i % 7, 2600 + i) for i in range(70)]
    graphs += [random_tree(2 + i % 6, 2700 + i) for i in range(30)]
    symmetric = 0
    for g in graphs:
        want = reference.orbit_minima(g)
        assert automorphism_orbits(g) == want, g.name
        symmetric += want != tuple(range(g.order))
    assert symmetric >= 50


def test_automorphism_orbits_of_known_graphs():
    for n in (3, 4, 7, 10):
        assert automorphism_orbits(cycle(n)) == (0,) * n
    for n in (1, 2, 5, 8):
        assert automorphism_orbits(path(n)) == tuple(min(i, n - 1 - i) for i in range(n))
    assert automorphism_orbits(star(1)) == (0, 0)
    for k in (2, 5):
        assert automorphism_orbits(star(k)) == (0,) + (1,) * k
    for spec in ("petersen", "cp(path:2,petersen)", "cp(complete:3,complete:4)", "cp(complete:5,complete:6)"):
        g = graph_of(build(spec))
        assert automorphism_orbits(g) == (0,) * g.order, spec
    grid = graph_of(build("cp(path:3,path:3)"))
    assert automorphism_orbits(grid) == (0, 1, 0, 1, 4, 1, 0, 1, 0)
    assert automorphism_orbits(grid) is automorphism_orbits(grid)


def test_stabiliser_orbits_of_known_graphs(monkeypatch):
    # Fixing a vertex keeps only the automorphisms that map it to itself.
    for n in (3, 4, 7, 8):
        assert automorphism_orbits(cycle(n), (0,)) == tuple(min(i, n - i) for i in range(n))
    for k in (2, 5):
        assert automorphism_orbits(star(k), (0,)) == (0,) + (1,) * k
        assert automorphism_orbits(star(k), (1,)) == (0, 1) + (2,) * (k - 1)
    for n in (2, 5):
        assert automorphism_orbits(complete(n), (0,)) == (0,) + (1,) * (n - 1)
    assert automorphism_orbits(complete(5), (0, 1)) == (0, 1) + (2,) * 3
    grid = graph_of(build("cp(path:3,path:3)"))
    assert automorphism_orbits(grid, (0,)) == (0, 1, 2, 1, 4, 5, 2, 5, 8)
    assert automorphism_orbits(grid, (0,)) is automorphism_orbits(grid, (0,))
    assert automorphism_orbits(grid) == (0, 1, 0, 1, 4, 1, 0, 1, 0)
    monkeypatch.setattr(mutvis.visibility, "ORBIT_STEP_BUDGET", 0)
    assert automorphism_orbits(cycle(6), (0,)) == tuple(range(6))
    assert automorphism_orbits(complete(4), (2,)) == tuple(range(4))


# The orbits found before a tight budget runs out depend on the order in
# which images are tried, which the full-group tests above cannot see.
TIGHT_BUDGET_ORBITS = {
    (12, "petersen"): (0, 0, 2, 3, 4, 5, 6, 5, 6, 9),
    (12, "cp(path:3,path:3)"): (0, 1, 0, 3, 4, 3, 6, 7, 6),
    (40, "cp(cycle:4,complete:5)"): (0, 0, 0, 3, 4, 5, 5, 5, 8, 9, 10, 10, 10, 13, 14, 15, 15, 15, 18, 19),
    (40, "cp(path:4,cycle:5)"): (0,) * 5 + (5,) * 5 + (10,) * 5 + (15,) * 5,
}


def test_automorphism_orbits_under_a_tight_budget(monkeypatch):
    for (budget, spec), want in TIGHT_BUDGET_ORBITS.items():
        monkeypatch.setattr(mutvis.visibility, "ORBIT_STEP_BUDGET", budget)
        assert automorphism_orbits(graph_of(build(spec))) == want, (budget, spec)
