from __future__ import annotations

import random

from mutvis import (
    Graph,
    bypass_set,
    independence_number,
    is_mv_set,
    is_pair_visible,
    is_total_mv_set,
    leaf_set,
    max_independent_total_mv,
    max_mv,
    max_total_mv,
    random_tree,
)

from reference import brute_mut


def _sampled_subsets(rng, witness, count=20):
    for _ in range(count):
        if not witness:
            return
        k = rng.randrange(len(witness) + 1)
        yield frozenset(rng.sample(witness, k))


def test_solver_witnesses_are_downward_closed(corpus, random_graphs):
    rng = random.Random("downward")
    for g in corpus[:10] + random_graphs[:10]:
        mv = max_mv(g).witness
        tmv = max_total_mv(g).witness
        itmv = max_independent_total_mv(g).witness
        for sub in _sampled_subsets(rng, mv):
            assert is_mv_set(g, sub)
        for sub in _sampled_subsets(rng, tmv):
            assert is_total_mv_set(g, sub)
        for sub in _sampled_subsets(rng, itmv):
            assert is_total_mv_set(g, sub)


def test_pair_visibility_is_symmetric(random_graphs):
    rng = random.Random("symmetry")
    for g in random_graphs[:12]:
        for _ in range(8):
            obstacles = frozenset(rng.sample(range(g.order), rng.randrange(g.order)))
            for x in range(g.order):
                for y in range(x + 1, g.order):
                    assert is_pair_visible(g, x, y, obstacles) == is_pair_visible(
                        g, y, x, obstacles
                    )


def test_fewer_obstacles_never_hide_a_pair(random_graphs):
    rng = random.Random("monotone")
    for g in random_graphs[:12]:
        for _ in range(8):
            big = frozenset(rng.sample(range(g.order), rng.randrange(g.order)))
            small = frozenset(v for v in big if rng.random() < 0.5)
            for x in range(g.order):
                for y in range(x + 1, g.order):
                    if is_pair_visible(g, x, y, big):
                        assert is_pair_visible(g, x, y, small)


def test_invariant_chain(corpus, random_graphs):
    for g in corpus + random_graphs:
        mu = max_mv(g).value
        mut = max_total_mv(g).value
        muit = max_independent_total_mv(g).value
        assert muit <= mut <= mu
        assert mut <= len(bypass_set(g))
        assert muit <= independence_number(g)


def test_tree_invariants_collapse_to_leaf_count():
    for n in range(3, 13):
        for seed in range(3):
            t = random_tree(n, seed)
            leaves = len(leaf_set(t))
            assert max_mv(t).value == leaves
            assert max_total_mv(t).value == leaves
            assert max_independent_total_mv(t).value == leaves


def test_solvers_are_deterministic_across_fresh_objects(random_graphs):
    for g in random_graphs[:8]:
        twin = Graph(g.order, g.edges(), name=g.name)
        assert max_total_mv(g).to_dict() == max_total_mv(twin).to_dict()
        assert max_mv(g).to_dict() == max_mv(twin).to_dict()


def test_solver_agrees_with_plain_reference(random_graphs):
    for g in random_graphs[:6]:
        if g.order > 9:
            continue
        witness = brute_mut(g)
        report = max_total_mv(g)
        assert report.value == len(witness)
        assert tuple(report.witness) == witness
