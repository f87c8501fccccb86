from __future__ import annotations

import gc
import random
from itertools import combinations

import pytest

import mutvis.visibility
import reference
from mutvis import (
    CapExceeded,
    Graph,
    GraphError,
    bypass_set,
    cartesian_product,
    is_bypass_vertex,
    is_mv_set,
    is_pair_visible,
    is_total_mv_set,
    total_mv_violation,
)
from mutvis.generators import (
    biclique, complete, cycle, fig1, g_m, path, petersen, random_tree, star, theta,
)
from mutvis.specs import build, graph_of
from mutvis.verify import random_connected_graph
from mutvis.visibility import VisibilityOracle, distance_two_cores, inner_mask, short_pair_blockers


def test_pair_visibility_matches_path_enumeration():
    rng = random.Random(11)
    for i in range(20):
        g = random_connected_graph(4 + i % 5, 700 + i)
        slow = reference.floyd_warshall(g)
        for _ in range(10):
            obstacles = frozenset(
                v for v in range(g.order) if rng.random() < 0.4
            )
            for x, y in combinations(range(g.order), 2):
                assert is_pair_visible(g, x, y, obstacles) == reference.visible(
                    g, obstacles, x, y, slow
                )


def test_pair_visibility_rejects_degenerate_pair():
    g = path(3)
    with pytest.raises(GraphError):
        is_pair_visible(g, 1, 1, frozenset())


def test_pair_visible_of_a_vertex_with_itself():
    # The single-target engine treats x == y as trivially visible.
    g = cycle(5)
    oracle = VisibilityOracle.for_graph(g)
    assert all(oracle.pair_visible(x, x, oracle.full) for x in range(5))


def test_endpoints_do_not_block_themselves():
    # Obstacles only matter as internal vertices.
    g = path(4)
    assert is_pair_visible(g, 0, 3, frozenset({0, 3}))
    assert not is_pair_visible(g, 0, 3, frozenset({1}))


def test_total_sets_match_brute_force():
    rng = random.Random(13)
    for i in range(20):
        g = random_connected_graph(4 + i % 5, 900 + i)
        for _ in range(12):
            members = frozenset(v for v in range(g.order) if rng.random() < 0.4)
            assert is_total_mv_set(g, members) == reference.is_tmv(g, members)


def test_mutual_sets_match_brute_force():
    rng = random.Random(17)
    for i in range(20):
        g = random_connected_graph(4 + i % 5, 1100 + i)
        for _ in range(12):
            members = frozenset(v for v in range(g.order) if rng.random() < 0.5)
            assert is_mv_set(g, members) == reference.is_mv(g, members)


def test_known_square_cases():
    g = cycle(4)
    assert is_total_mv_set(g, frozenset())
    assert is_total_mv_set(g, {0})
    assert is_total_mv_set(g, {0, 1})
    assert not is_total_mv_set(g, {0, 2})
    assert is_mv_set(g, {0, 1, 2})
    assert not is_mv_set(g, frozenset(range(4)))


def test_long_cycles_admit_no_singleton():
    for n in (5, 6, 9):
        g = cycle(n)
        assert all(not is_total_mv_set(g, {u}) for u in range(n))


def test_violation_reports_a_blocked_pair():
    g = cycle(4)
    pair = total_mv_violation(g, {0, 2})
    assert pair is not None
    x, y = pair
    assert not reference.visible(g, {0, 2}, x, y)
    assert total_mv_violation(g, {0, 1}) is None


def test_violation_source_is_the_lowest_blocked_source():
    # The BFS from the source meets the blocked 6 (distance 2) before the
    # lower blocked 4 (distance 3), so the pair is not the lowest blocked
    # pair; its source is still the lowest vertex of any blocked pair.
    g = random_connected_graph(11, 9007)
    x = {0, 3, 4, 7, 9}
    slow = reference.floyd_warshall(g)
    blocked = [(a, b) for a, b in combinations(range(11), 2) if not reference.visible(g, x, a, b, slow)]
    pair = total_mv_violation(g, x)
    assert pair == (1, 6)
    assert pair in blocked and (1, 4) in blocked
    assert pair[0] == min(a for a, _ in blocked)


def test_bypass_matches_convexity_definition():
    graphs = [random_connected_graph(4 + i % 6, 1300 + i) for i in range(20)]
    # Dense graphs and products, where many neighbour pairs are adjacent.
    graphs += [complete(7), biclique(3, 4), g_m(3)]
    graphs += [graph_of(build(s)) for s in (
        "cp(complete:3,complete:4)", "cp(biclique:2,3,path:3)",
    )]
    for g in graphs:
        slow = reference.floyd_warshall(g)
        for u in range(g.order):
            assert is_bypass_vertex(g, u) == reference.is_bypass(g, u, slow), (g.name, u)


def test_bypass_set_runs_on_adjacency_masks(monkeypatch):
    # A scan over Python neighbour sets costs n * maxdeg^2 set operations even
    # on a complete graph, whose neighbour pairs are all adjacent.
    def neighbors(self, u):
        raise AssertionError("bypass vertices are found on adjacency masks")

    monkeypatch.setattr(Graph, "neighbors", neighbors)
    assert bypass_set(complete(300)) == frozenset(range(300))
    assert bypass_set(cycle(5)) == frozenset()


def test_bypass_known_sets():
    assert bypass_set(cycle(4)) == frozenset(range(4))
    assert bypass_set(cycle(5)) == frozenset()
    assert bypass_set(path(5)) == {0, 4}
    assert bypass_set(star(4)) == {1, 2, 3, 4}
    assert bypass_set(petersen()) == frozenset()
    assert bypass_set(fig1()) == {5, 6}
    assert bypass_set(complete(6)) == frozenset(range(6))
    # Both hub paths of length two put all five vertices in the set.
    assert bypass_set(theta((2, 2, 2))) == frozenset(range(5))
    assert bypass_set(biclique(3, 4)) == frozenset(range(7))


def test_bypass_set_is_cached_per_graph():
    g = petersen()
    assert bypass_set(g) is bypass_set(g)


def _grow_graphs():
    graphs = [random_connected_graph(4 + i % 6, 1500 + i) for i in range(24)]
    for i in range(6):
        g = random_connected_graph(3, 1600 + i)
        h = random_connected_graph(3 + i % 2, 1700 + i)
        graphs.append(cartesian_product(g, h).graph)
    graphs.append(cartesian_product(cycle(4), path(3)).graph)
    return graphs


def test_interior_masks_match_geodesics():
    for g in _grow_graphs()[:10] + [path(4), star(3), random_tree(9, 5)]:
        oracle = VisibilityOracle.for_graph(g)
        slow = reference.floyd_warshall(g)
        for v in range(g.order):
            inner = oracle.interior(v)
            anywhere = False
            for x, y in combinations(range(g.order), 2):
                inside = any(v in p[1:-1] for p in reference.all_shortest_paths(g, x, y, slow))
                assert bool(inner >> (x * g.order + y) & 1) == inside, (g.name, v, x, y)
                anywhere |= inside
            assert bool(inner_mask(g) >> v & 1) == anywhere == (inner != 0), (g.name, v)


def test_levels_match_floyd_warshall():
    for g in _grow_graphs():
        oracle = VisibilityOracle(g)
        slow = reference.floyd_warshall(g)
        for u in range(g.order):
            want = [0] * (max(slow[u]) + 1)
            for v, d in enumerate(slow[u]):
                want[d] |= 1 << v
            assert oracle.levels[u] == tuple(want), (g.name, u)


def test_oracle_refuses_disconnected_graphs():
    for g in (Graph(4, [(0, 1), (2, 3)]), Graph(3, [(1, 2)]), Graph(2)):
        with pytest.raises(GraphError, match="connected"):
            VisibilityOracle(g)
        with pytest.raises(GraphError, match="connected"):
            is_total_mv_set(g, {0})
    # An obstacle set that can block nothing still needs a connected graph.
    with pytest.raises(GraphError, match="connected"):
        is_total_mv_set(Graph(4, [(0, 1), (2, 3)]), frozenset())
    with pytest.raises(GraphError, match="connected"):
        total_mv_violation(Graph(3, [(0, 1)]), {2})


def test_oracle_refuses_level_masks_above_the_limit(monkeypatch):
    g = path(40)
    VisibilityOracle(g)
    # Order 40, ecc(0) = 39: 40 sources of at most 79 levels, 44 bytes each.
    monkeypatch.setattr(mutvis.visibility, "LEVEL_MASK_LIMIT", 40 * 79 * 44 - 1)
    with pytest.raises(CapExceeded) as err:
        VisibilityOracle(g)
    message = str(err.value)
    assert "order 40" in message and "limit of" in message and "\n" not in message
    VisibilityOracle(path(39))


def test_oracle_holds_no_reference_to_its_graph():
    # The graph caches its oracle, so a link back would make the pair a
    # cycle that only the cycle collector frees.
    g = cycle(6)
    assert g not in gc.get_referents(VisibilityOracle.for_graph(g))


def _filter_graphs():
    graphs = [random_tree(n, 300 + n) for n in range(2, 12)]
    graphs += [g_m(2), g_m(3), star(4), path(6), theta((1, 3))]
    for i in range(8):
        # A random graph with pendant paths hung on it.
        g = random_connected_graph(4 + i % 4, 2100 + i)
        edges = g.edges() + [(i % g.order, g.order), (g.order, g.order + 1), (0, g.order + 2)]
        graphs.append(Graph(g.order + 3, edges, name=f"pendant:{i}"))
    return graphs


def test_inner_filter_keeps_total_checks_exact():
    # The filtered checks against the path-enumeration reference and against
    # an oracle that keeps every obstacle.
    rng = random.Random(19)
    for g in _filter_graphs():
        slow = reference.floyd_warshall(g)
        oracle = VisibilityOracle.for_graph(g)
        unfiltered = VisibilityOracle(g)
        unfiltered.inner = unfiltered.full
        bp = sorted(bypass_set(g))
        subsets = [frozenset(bp), frozenset(range(g.order))]
        subsets += [frozenset(v for v in range(g.order) if rng.random() < 0.3) for _ in range(10)]
        subsets += [frozenset(u for u in bp if rng.random() < 0.5) for _ in range(6)]
        for s in subsets:
            mask = sum(1 << v for v in s)
            want = reference.is_tmv(g, s, slow)
            assert is_total_mv_set(g, s) == want, (g.name, sorted(s))
            pair = total_mv_violation(g, s)
            assert pair == unfiltered.tmv_violation(mask), (g.name, sorted(s))
            assert (pair is None) == want
            if pair is not None:
                assert not reference.visible(g, s, *pair, slow)
            core = oracle.minimal_tmv_blocker(mask)
            assert core == unfiltered.minimal_tmv_blocker(mask), (g.name, sorted(s))
            assert oracle.tmv_holds(core) == (core == 0)


def test_core_freeness_matches_brute_force():
    # The distance-two lemma on every subset of up to four vertices, bypass
    # or not: a set holds no core exactly when it is total mutual-visible.
    # The singleton cores are the non-bypass vertices.
    outcomes = set()
    for g in _grow_graphs():
        slow = reference.floyd_warshall(g)
        cores = distance_two_cores(g, (1 << g.order) - 1)
        singles = {c.bit_length() - 1 for c in cores if c.bit_count() == 1}
        assert singles == set(range(g.order)) - reference.bypass_vertices(g, slow), g.name
        for r in range(5):
            for s in combinations(range(g.order), r):
                mask = sum(1 << u for u in s)
                want = reference.is_tmv(g, s, slow)
                assert (not distance_two_cores(g, mask)) == want, (g.name, s)
                assert (not any(c & mask == c for c in cores)) == want, (g.name, s)
                outcomes.add(want)
    assert outcomes == {True, False}


def test_mv_grow_check_matches_brute_force():
    # Every mutual-visibility base of up to four vertices, grown by every
    # larger vertex, against the path-enumeration reference.
    grows = infeasible = 0
    for g in _grow_graphs():
        oracle = VisibilityOracle.for_graph(g)
        everyone = [oracle.full] * g.order
        slow = reference.floyd_warshall(g)
        for r in range(5):
            for base in combinations(range(g.order), r):
                if not reference.is_mv(g, base, slow):
                    continue
                mask = sum(1 << u for u in base)
                for v in range((base[-1] + 1) if base else 0, g.order):
                    want = reference.is_mv(g, {*base, v}, slow)
                    assert oracle.mv_grows(mask | 1 << v, everyone) == want, (g.name, base, v)
                    grows += 1
                    infeasible += not want
    assert grows > 5000 and infeasible > 1000


SHORT_PAIR_SPECS = ["theta:3,3,3", "cp(path:3,cycle:4)", "petersen", "fig1", "cp(biclique:2,2,path:3)"]


def _short_pair_graphs():
    graphs = [random_connected_graph(2 + i % 8, 7800 + i) for i in range(80)]
    graphs += [random_tree(4 + i % 6, 7900 + i) for i in range(20)]
    return graphs + [graph_of(build(spec)) for spec in SHORT_PAIR_SPECS]


def test_short_pair_blockers_match_brute_force():
    # Every minimal geodesic-hitting set of every pair at distance two or
    # three, against shortest-path enumeration; with every cover seeded,
    # only the pairs at distance four or more are left to the BFS.
    for g in _short_pair_graphs():
        slow = reference.floyd_warshall(g)
        seeds, far = short_pair_blockers(g)
        got = {frozenset(u for u in range(g.order) if b >> u & 1) for b in seeds}
        assert got == reference.short_pair_blockers(g, slow), g.name
        for x in range(g.order):
            assert far[x] == sum(1 << y for y in range(g.order) if slow[x][y] >= 4), (g.name, x)
        if g.name == "theta:3,3,3":
            # The poles' eight covers: one middle vertex of each path.
            assert sum(len(b) == 5 and {0, 1} <= b for b in got) == 8


def test_mv_grow_check_of_far_pairs_matches_brute_force():
    # With the short-pair masks, mv_grows checks only far pairs; on every
    # set that holds no seed its answer is still the whole check's.
    grows = infeasible = 0
    for g in _grow_graphs():
        oracle = VisibilityOracle.for_graph(g)
        slow = reference.floyd_warshall(g)
        seeds, far = short_pair_blockers(g)
        for r in range(5):
            for base in combinations(range(g.order), r):
                mask = sum(1 << u for u in base)
                if any(b & mask == b for b in seeds) or not reference.is_mv(g, base, slow):
                    continue
                for v in range((base[-1] + 1) if base else 0, g.order):
                    grown = mask | 1 << v
                    if any(b & grown == b for b in seeds):
                        continue
                    want = reference.is_mv(g, {*base, v}, slow)
                    assert oracle.mv_grows(grown, far) == want, (g.name, base, v)
                    grows += 1
                    infeasible += not want
    assert grows > 2000 and infeasible > 100


def _unfiltered_pair_blocker(oracle, obstacles, x, y):
    # minimal_pair_blocker's greedy shrink as it ran before the geodesic
    # interval filter: every obstacle but x and y is tried.
    core = obstacles & ~((1 << x) | (1 << y))
    rem = core
    while rem:
        low = rem & -rem
        rem &= rem - 1
        if not oracle.pair_visible(x, y, core & ~low):
            core &= ~low
    return core


def test_pair_blocker_filter_keeps_every_blocker():
    # Obstacles off every x,y-geodesic never change pair_visible(x, y, .),
    # so leaving them out before the shrink must give the same blocker, for
    # the pair, total and mutual blockers alike.
    rng = random.Random(29)
    graphs = [random_connected_graph(5 + i % 8, 7300 + i) for i in range(40)]
    graphs += [graph_of(build(spec)) for spec in ("cp(path:3,cycle:4)", "petersen", "fig1")]
    pairs = outside = 0
    for g in graphs:
        slow = reference.floyd_warshall(g)
        oracle = VisibilityOracle.for_graph(g)
        for _ in range(8):
            obstacles = sum(1 << v for v in range(g.order) if rng.random() < 0.4)
            for x, y in combinations(range(g.order), 2):
                if oracle.pair_visible(x, y, obstacles):
                    continue
                want = _unfiltered_pair_blocker(oracle, obstacles, x, y)
                assert oracle.minimal_pair_blocker(obstacles, x, y) == want, (g.name, obstacles, x, y)
                inside = {v for p in reference.all_shortest_paths(g, x, y, slow) for v in p[1:-1]}
                pairs += 1
                outside += any(obstacles >> v & 1 for v in set(range(g.order)) - inside - {x, y})
            pair = oracle.tmv_violation(obstacles)
            want = 0 if pair is None else _unfiltered_pair_blocker(oracle, obstacles & oracle.inner, *pair)
            assert oracle.minimal_tmv_blocker(obstacles) == want, (g.name, obstacles)
            pair = oracle.mv_violation(obstacles)
            want = 0
            if pair is not None:
                x, y = pair
                want = _unfiltered_pair_blocker(oracle, obstacles, x, y) | 1 << x | 1 << y
            assert oracle.minimal_mv_blocker(obstacles) == want, (g.name, obstacles)
    assert pairs > 2000 and outside > pairs // 2
