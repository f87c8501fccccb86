from __future__ import annotations

import random
from itertools import combinations

import pytest

import mutvis.solvers
import reference
from mutvis import (
    bypass_set,
    cartesian_product,
    max_independent_total_mv,
    max_mv,
    max_total_mv,
    naive_oracle,
)
from mutvis._search import lex_first_maximum
from mutvis.generators import biclique, complete, cycle, path, star
from mutvis.verify import random_connected_graph
from mutvis.visibility import VisibilityOracle


def _random_family(rng: random.Random, n: int, largest: int = 4) -> list[int]:
    """Blockers of 2 to ``largest`` vertices over range(n); the family is
    every set that contains none of them, which is downward closed."""
    blockers = []
    for _ in range(rng.randint(0, 2 * n)):
        members = rng.sample(range(n), rng.randint(2, min(largest, n)))
        blockers.append(sum(1 << v for v in members))
    return blockers


def _brute_force(candidates: list[int], blockers: list[int]) -> tuple[int, tuple[int, ...]]:
    order = sorted(candidates)
    for r in range(len(order), -1, -1):
        for combo in combinations(order, r):
            mask = sum(1 << v for v in combo)
            if not any(b & mask == b for b in blockers):
                return r, combo
    raise AssertionError("the empty set is always feasible")


@pytest.mark.parametrize(
    "mode", ["plain", "learn", "learn-superset", "seed-half", "seed-all", "wide"]
)
def test_matches_brute_force_on_random_families(mode):
    # "wide" seeds half the blockers and learns the rest, on larger orders
    # and blockers of up to five vertices, so that residuals of one, two and
    # three or more vertices all occur below the root.
    wide = mode == "wide"
    rng = random.Random(f"search:{mode}")
    for _ in range(300):
        n = rng.randint(2, 13 if wide else 12)
        blockers = _random_family(rng, n, 5 if wide else 4)
        candidates = rng.sample(range(n), rng.randint(0, n))
        rng.shuffle(candidates)
        if mode == "seed-all":
            seeds = blockers
        elif mode == "seed-half" or wide:
            seeds = rng.sample(blockers, len(blockers) // 2)
        else:
            seeds = []
        known = list(seeds)
        accepted = {0}

        def feasible(mask):
            # A known blocker must prune the set before the oracle sees it.
            assert not any(b & mask == b for b in known)
            # The grow contract: mask minus its highest vertex was accepted.
            assert mask & ~(1 << (mask.bit_length() - 1)) in accepted
            ok = not any(b & mask == b for b in blockers)
            if ok:
                accepted.add(mask)
            return ok

        def learn(mask):
            # An infeasible subset of mask: a contained blocker, or in
            # learn-superset mode sometimes the whole failed set.
            if mode == "learn-superset" and rng.random() < 0.3:
                core = mask
            else:
                core = next(b for b in blockers if b & mask == b)
            known.append(core)
            return core

        got = lex_first_maximum(
            iter(candidates),
            feasible,
            learn=learn if mode.startswith("learn") or wide else None,
            seed_blockers=seeds,
        )
        assert got == _brute_force(candidates, blockers), (candidates, blockers)


def test_pair_conflicts_alone_give_an_independent_set():
    # Pair seeds only, with an always-true oracle: a maximum independent set.
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 5)]
    seeds = [(1 << u) | (1 << v) for u, v in edges]
    calls = []

    def feasible(mask):
        calls.append(mask)
        return True

    assert lex_first_maximum(range(6), feasible, seed_blockers=seeds) == (3, (1, 3, 5))
    for mask in calls:
        assert not any(s & mask == s for s in seeds)


def test_a_chosen_vertex_turns_its_blockers_into_pair_conflicts():
    # Every triple {0, a, b} is infeasible.  Once 0 is chosen, each residual
    # {a, b} is a pair conflict of that subtree, so the clique cover bounds
    # the subtree by one more vertex: after {0, 1} it cannot beat size 2.
    seeds = [1 | 1 << a | 1 << b for a, b in combinations(range(1, 9), 2)]
    with_zero = []

    def feasible(mask):
        if mask & 1:
            with_zero.append(mask)
        return not any(s & mask == s for s in seeds)

    assert lex_first_maximum(range(9), feasible, seed_blockers=seeds) == (8, tuple(range(1, 9)))
    assert with_zero == [0b1, 0b11]


def test_a_residual_through_a_dropped_vertex_is_not_packed():
    # 0, 1 and 2 are infeasible alone, so the root drops all three.  The
    # residual {0, 1, 2} then has no vertex of the suffix to omit: packing it
    # would count an omission that the drop already made, bound the root by
    # 1 - 1 = 0 and lose {3}.
    seeds = [0b1, 0b10, 0b100, 0b111]

    def feasible(mask):
        return not any(s & mask == s for s in seeds)

    assert lex_first_maximum(range(4), feasible, seed_blockers=seeds) == (1, (3,))


def _small_products():
    graphs = [
        cartesian_product(path(2), cycle(7)).graph,
        cartesian_product(complete(2), complete(7)).graph,
        cartesian_product(complete(3), complete(4)).graph,
        cartesian_product(star(2), path(4)).graph,
        cartesian_product(cycle(3), cycle(4)).graph,
    ]
    for i in range(6):
        g = random_connected_graph(3 + i % 2, 4000 + i)
        h = random_connected_graph(3, 4100 + i)
        graphs.append(cartesian_product(g, h).graph)
    return graphs


def test_total_solvers_match_the_oracle_on_small_products():
    for g in _small_products():
        assert g.order <= 14
        for kind, solver in (("mut", max_total_mv), ("muit", max_independent_total_mv)):
            o = naive_oracle(g, kind)
            r = solver(g)
            assert (r.value, r.witness) == (o.value, o.witness), (g.name, kind)


def test_total_solvers_seed_only_blocked_bypass_cores(monkeypatch):
    # Every blocker the total solvers seed lies in the bypass set and is not
    # total mutual-visible (or, for muit, is a candidate edge), so the seeds
    # prune nothing feasible; the solvers then ask no membership question.
    search = mutvis.solvers.lex_first_maximum
    seeded = []

    def checked(candidates, feasible, learn=None, seed_blockers=()):
        seeds = list(seed_blockers)
        seeded.append(seeds)
        assert learn is None
        return search(candidates, feasible, learn, seeds)

    monkeypatch.setattr(mutvis.solvers, "lex_first_maximum", checked)
    sizes = set()
    extra = [cartesian_product(biclique(2, 3), path(2)).graph, biclique(3, 3)]
    for g in _small_products()[:6] + extra:
        slow = reference.floyd_warshall(g)
        bp = bypass_set(g)
        for kind, solver in (("mut", max_total_mv), ("muit", max_independent_total_mv)):
            o = naive_oracle(g, kind)
            r = solver(g)
            assert (r.value, r.witness) == (o.value, o.witness), (g.name, kind)
            for core in seeded.pop():
                s = {u for u in range(g.order) if core >> u & 1}
                assert s <= bp, (g.name, kind, s)
                edge = kind == "muit" and len(s) == 2 and g.has_edge(*s)
                assert edge or not reference.is_tmv(g, s, slow), (g.name, kind, s)
                sizes.add(len(s))
    assert {2, 3} <= sizes


def test_mu_solver_grows_only_accepted_sets(monkeypatch):
    # mv_grows relies on the rest of its set being a mutual-visibility set;
    # hold max_mv to that on every call.
    grows = VisibilityOracle.mv_grows
    calls = []

    def checked(self, mask):
        v = mask.bit_length() - 1
        rest = mask ^ (1 << v)
        assert self.mv_holds(rest)
        calls.append(mask)
        return grows(self, mask)

    monkeypatch.setattr(VisibilityOracle, "mv_grows", checked)
    for g in _small_products()[:6]:
        o = naive_oracle(g, "mu")
        r = max_mv(g)
        assert (r.value, r.witness) == (o.value, o.witness), g.name
    assert calls
