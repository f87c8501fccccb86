from __future__ import annotations

import random
from itertools import combinations

import pytest

import mutvis._search
import mutvis.graph
import mutvis.solvers
import mutvis.visibility
import reference
from mutvis import (
    build,
    bypass_set,
    cartesian_product,
    graph_of,
    max_independent_total_mv,
    max_mv,
    max_total_mv,
    naive_oracle,
)
from mutvis._search import lex_first_maximum
from mutvis.generators import biclique, complete, cycle, path, star
from mutvis.verify import random_connected_graph
from mutvis.visibility import VisibilityOracle, automorphism_orbits


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


def test_matches_brute_force_on_lex_leader_families():
    # The contract's wider family: closed under dropping any member but the
    # lowest.  A set is feasible when it holds no blocker and every member u
    # has rep[u] >= its lowest member; a refusal by that rule learns {top},
    # which holds only for sets whose lowest vertex is at least the mask's.
    rng = random.Random("search:lex-leader")
    for _ in range(300):
        n = rng.randint(2, 12)
        blockers = _random_family(rng, n, 4)
        rep = [rng.randint(0, u) if rng.random() < 0.4 else u for u in range(n)]
        candidates = rng.sample(range(n), rng.randint(0, n))

        def allowed(mask):
            low = (mask & -mask).bit_length() - 1
            ok = all(rep[u] >= low for u in range(n) if mask >> u & 1)
            return ok and not any(b & mask == b for b in blockers)

        def feasible(mask):
            top = mask.bit_length() - 1
            return rep[top] >= (mask & -mask).bit_length() - 1 and allowed(mask)

        def learn(mask):
            top = mask.bit_length() - 1
            if rep[top] < (mask & -mask).bit_length() - 1:
                return 1 << top
            return next(b for b in blockers if b & mask == b)

        want = (0, ())
        for r in range(len(candidates), 0, -1):
            hit = next((c for c in combinations(sorted(candidates), r) if allowed(sum(1 << v for v in c))), None)
            if hit is not None:
                want = (r, hit)
                break
        assert lex_first_maximum(candidates, feasible, learn=learn) == want, (candidates, blockers, rep)


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
    # mv_grows relies on the rest of its set being a mutual-visibility set,
    # and on the set holding none of the seeded short-pair blockers, whose
    # pairs its far masks skip; hold max_mv to both on every call.
    grows = VisibilityOracle.mv_grows
    blockers = mutvis.solvers.short_pair_blockers
    seeded = []
    calls = []

    def seeding(g):
        seeds, far = blockers(g)
        seeded[:] = seeds
        return seeds, far

    def checked(self, mask, far):
        v = mask.bit_length() - 1
        rest = mask ^ (1 << v)
        assert self.mv_holds(rest)
        assert not any(b & mask == b for b in seeded), mask
        calls.append(mask)
        return grows(self, mask, far)

    monkeypatch.setattr(mutvis.solvers, "short_pair_blockers", seeding)
    monkeypatch.setattr(VisibilityOracle, "mv_grows", checked)
    for g in _small_products()[:6]:
        o = naive_oracle(g, "mu")
        r = max_mv(g)
        assert (r.value, r.witness) == (o.value, o.witness), g.name
    assert calls and seeded


@pytest.mark.parametrize("limit", [0, 3])
def test_blocker_limit_changes_no_answer(monkeypatch, limit):
    # Learned and seeded blockers only prune; with few or none kept, max_mv
    # must still return the default limit's value and witness, and the
    # oracle's.  The pairs at distance three then get no seeds, so the BFS
    # check must take them over.
    specs = ["cp(cycle:4,complete:3)", "cp(path:3,cycle:4)", "petersen", "fig1", "cp(path:2,cycle:5)"]
    graphs = [graph_of(build(spec)) for spec in specs]
    expected = [(r.value, r.witness) for r in map(max_mv, graphs)]
    grows = VisibilityOracle.mv_grows
    searched = []

    def checked(self, mask, far):
        # A pair of the set at distance three that far hands to the BFS.
        searched.extend(
            (x, y) for x, y in combinations(range(self.n), 2)
            if mask >> x & mask >> y & far[x] >> y & 1
            and len(self.levels[x]) > 3 and self.levels[x][3] >> y & 1
        )
        return grows(self, mask, far)

    monkeypatch.setattr(mutvis._search, "BLOCKER_LIMIT", limit)
    monkeypatch.setattr(VisibilityOracle, "mv_grows", checked)
    for spec, g, want in zip(specs, graphs, expected):
        r = max_mv(g)
        o = naive_oracle(g, "mu")
        assert (r.value, r.witness) == want == (o.value, o.witness), spec
    assert searched


def _plain_mu(g):
    oracle = VisibilityOracle.for_graph(g)
    everyone = [oracle.full] * g.order
    return lex_first_maximum(
        range(g.order), lambda mask: oracle.mv_grows(mask, everyone), learn=oracle.minimal_mv_blocker
    )


SYMMETRIC_SPECS = [
    "petersen", "cycle:8", "biclique:3,4", "cp(path:3,path:3)", "cp(cycle:4,cycle:4)",
    "cp(complete:3,complete:4)", "cp(star:3,path:3)", "cp(biclique:2,3,path:2)",
    "cp(cycle:5,complete:2)", "cp(path:2,petersen)",
]


def test_stabiliser_orbits_match_brute_force():
    # The orbits under the automorphisms that fix one vertex, for every
    # vertex, against every permutation fixing it, on seeded connected
    # graphs and the symmetric specs of order up to 8.
    graphs = [random_connected_graph(2 + i % 7, 7600 + i) for i in range(56)]
    graphs += [g for g in (graph_of(build(spec)) for spec in SYMMETRIC_SPECS) if g.order <= 8]
    moved = 0
    for g in graphs:
        for v in range(g.order):
            want = reference.orbit_minima(g, (v,))
            assert automorphism_orbits(g, (v,)) == want, (g.name, v)
            moved += want != tuple(range(g.order))
    assert moved >= 100


# The seven products of the benchmark's mu workload.
MU_ANCHORS = [
    "cp(cycle:4,complete:5)", "cp(complete:4,complete:5)", "cp(cycle:5,cycle:4)",
    "cp(biclique:2,2,path:5)", "cp(star:3,cycle:5)", "cp(path:4,cycle:5)", "cp(path:2,petersen)",
]


def test_orbit_pruning_keeps_every_mu_answer():
    # max_mv skips sets whose automorphic image was searched before; the
    # plain search with the same oracle must give the same value and
    # witness.  Most of these graphs have a non-trivial orbit, so a rule
    # that is not invariant under automorphisms (degree classes, say) fails,
    # and so does one that reads the whole-graph orbits for the second
    # vertex instead of those fixing the first (cycle:8 would give 1).
    graphs = [random_connected_graph(4 + i % 7, 5000 + i) for i in range(300)]
    specs = SYMMETRIC_SPECS + MU_ANCHORS + ["cp(complete:4,complete:4)", "cp(cycle:5,cycle:5)"]
    graphs += [graph_of(build(spec)) for spec in specs]
    symmetric = 0
    for g in graphs:
        r = max_mv(g, cap=g.order)
        assert (r.value, r.witness) == _plain_mu(g), g.name
        symmetric += automorphism_orbits(g) != tuple(range(g.order))
    assert symmetric >= 150


def test_mu_without_orbits_gives_the_same_answers(monkeypatch):
    # Out of orbit budget every vertex is its own orbit, and the rule
    # prunes nothing; values and witnesses must not move.
    specs = SYMMETRIC_SPECS + ["fig1", "cp(path:4,cycle:5)"]
    expected = [max_mv(graph_of(build(spec))) for spec in specs]
    monkeypatch.setattr(mutvis.visibility, "ORBIT_STEP_BUDGET", 0)
    for spec, want in zip(specs, expected):
        g = graph_of(build(spec))
        assert automorphism_orbits(g) == tuple(range(g.order)), spec
        assert max_mv(g) == want, spec


def test_mu_builds_no_distance_matrix(monkeypatch):
    # The orbits and the checks both run on the oracle's distance levels,
    # so a mu solve builds no list-BFS distance matrix.
    def graphs():
        return [graph_of(build(spec)) for spec in SYMMETRIC_SPECS] + [
            random_connected_graph(4 + i % 7, 5400 + i) for i in range(40)
        ]

    expected = [max_mv(g) for g in graphs()]

    def refuse(g):
        raise AssertionError("a mu solve built a distance matrix")

    monkeypatch.setattr(mutvis.graph, "all_pairs_distances", refuse)
    for g, want in zip(graphs(), expected):
        assert max_mv(g) == want, g.name
        assert "dist" not in g._cache, g.name


# Feasible and learn calls of the exact search on fixed inputs: the seven
# anchor products of the benchmark's mu workload, and one biclique product
# whose mut is proved by pair conflicts and colour classes alone.
SEARCH_EFFORT = {
    ("mu", "cp(cycle:4,complete:5)"): (407, 14),
    ("mu", "cp(complete:4,complete:5)"): (366, 16),
    ("mu", "cp(cycle:5,cycle:4)"): (205, 12),
    ("mu", "cp(biclique:2,2,path:5)"): (627, 92),
    ("mu", "cp(star:3,cycle:5)"): (377, 27),
    ("mu", "cp(path:4,cycle:5)"): (345, 38),
    ("mu", "cp(path:2,petersen)"): (72, 16),
    ("mut", "cp(biclique:3,4,biclique:4,4)"): (11127, 0),
}


def test_search_effort_is_pinned(monkeypatch):
    # A pruning rule that stops firing leaves every value right and only
    # costs calls, so the calls are pinned: a change that alters them
    # changes the search's decisions and must say so.
    search = mutvis.solvers.lex_first_maximum
    calls = {}

    def counted(candidates, feasible, learn=None, seed_blockers=()):
        def counted_feasible(mask):
            calls["feasible"] += 1
            return feasible(mask)

        def counted_learn(mask):
            calls["learn"] += 1
            return learn(mask)

        return search(candidates, counted_feasible, counted_learn if learn else None, seed_blockers)

    monkeypatch.setattr(mutvis.solvers, "lex_first_maximum", counted)
    got = {}
    for kind, spec in SEARCH_EFFORT:
        calls.update(feasible=0, learn=0)
        g = graph_of(build(spec))
        if kind == "mu":
            max_mv(g)
        else:
            max_total_mv(g, cap=64)
        got[kind, spec] = (calls["feasible"], calls["learn"])
    assert got == SEARCH_EFFORT


def _recorded(feasible, learn):
    """The two callbacks, logging each call and its mask in one list."""
    seen = []

    def rec_feasible(mask):
        seen.append(("feasible", mask))
        return feasible(mask)

    def rec_learn(mask):
        seen.append(("learn", mask))
        return learn(mask)

    return seen, rec_feasible, rec_learn if learn else None


def _same_calls_as_rebuilding(candidates, feasible, learn=None, seed_blockers=()):
    """Run the searcher and the rebuilding copy in tests/reference.py on
    one input; they must ask the same questions in the same order."""
    candidates, seeds = list(candidates), list(seed_blockers)
    seen, f, l = _recorded(feasible, learn)
    got = lex_first_maximum(candidates, f, l, seeds)
    want_seen, f, l = _recorded(feasible, learn)
    want = reference.rebuild_lex_first_maximum(candidates, f, l, seeds)
    assert (got, seen) == (want, want_seen)
    return got


def test_carried_state_makes_the_rebuilding_searchers_calls():
    # Seeded and learned blockers of up to five vertices, and in a third of
    # the cases learning the whole failed set, so that residuals of every
    # size occur below the root and some blockers hold dropped vertices.
    rng = random.Random("search:carried")
    for i in range(400):
        n = rng.randint(2, 13)
        blockers = _random_family(rng, n, 5)
        candidates = rng.sample(range(n), rng.randint(0, n))
        seeds = rng.sample(blockers, rng.randint(0, len(blockers)))
        whole = i % 3 == 0

        def feasible(mask):
            return not any(b & mask == b for b in blockers)

        def learn(mask):
            if whole and mask.bit_count() % 2:
                return mask
            return next(b for b in blockers if b & mask == b)

        got = _same_calls_as_rebuilding(candidates, feasible, learn if i % 4 else None, seeds)
        assert got == _brute_force(candidates, blockers), (candidates, blockers)


def test_carried_state_makes_the_same_calls_on_the_verify_corpora(monkeypatch):
    # Every mu, mut and muit solve of `verify --theorem all` at the default
    # options, with the solvers' own callbacks and seeds.
    solves = {"with learn": 0, "without": 0}

    def both(candidates, feasible, learn=None, seed_blockers=()):
        solves["with learn" if learn else "without"] += 1
        return _same_calls_as_rebuilding(candidates, feasible, learn, seed_blockers)

    monkeypatch.setattr(mutvis.solvers, "lex_first_maximum", both)
    records = mutvis.verify.run_all(mutvis.verify.SuiteOptions())
    assert all(r.status == "pass" for r in records)
    assert solves["with learn"] >= 70 and solves["without"] >= 300, solves


HIGH_DIAMETER_SPECS = ["cp(path:3,path:5)", "cp(cycle:4,cycle:5)", "theta:3,3,3,3,3"]


def test_mu_matches_the_oracle_and_the_plain_search():
    # Seeded pairs are not BFS-checked, so a missing seed or a far mask
    # that skips a distance changes answers: against the exhaustive oracle
    # on random graphs and trees of order at most 12, against the plain
    # search (every pair BFS-checked, no seeds, no symmetry rule) on the
    # benchmark's anchors and on graphs of diameter four and more.
    graphs = [random_connected_graph(3 + i % 10, 8000 + i) for i in range(200)]
    graphs += [graph_of(build(f"randomtree:{3 + i % 10},{8200 + i}")) for i in range(100)]
    far = 0
    for g in graphs:
        r, o = max_mv(g), naive_oracle(g, "mu")
        assert (r.value, r.witness) == (o.value, o.witness), g.name
        far += any(len(lv) > 4 for lv in VisibilityOracle.for_graph(g).levels)
    assert far >= 50
    for spec in MU_ANCHORS + HIGH_DIAMETER_SPECS:
        g = graph_of(build(spec))
        r = max_mv(g)
        assert (r.value, r.witness) == _plain_mu(g), spec


def test_seeds_stay_within_the_blocker_limit(monkeypatch):
    # The poles of theta:3,...,3 with k paths are at distance three with
    # 2**k minimal covers.  At k = 10 they fit and the pair gets no BFS
    # check; at k = 12 they do not fit with the distance-two seeds, so the
    # pair is left to the BFS whole; at a lowered limit, so is k = 8.
    blockers = mutvis.solvers.short_pair_blockers
    seeded = []

    def counted(g):
        seeds, far = blockers(g)
        assert len(seeds) <= mutvis._search.BLOCKER_LIMIT, g.name
        seeded.append((len(seeds), far[0] >> 1 & 1))
        return seeds, far

    monkeypatch.setattr(mutvis.solvers, "short_pair_blockers", counted)
    for k, limit, poles_checked in ((10, 4096, 0), (12, 4096, 1), (8, 200, 1)):
        monkeypatch.setattr(mutvis._search, "BLOCKER_LIMIT", limit)
        g = graph_of(build("theta:" + ",".join(["3"] * k)))
        r = max_mv(g, cap=g.order)
        assert (r.value, r.witness) == _plain_mu(g), (k, limit)
        size, checked = seeded.pop()
        assert checked == poles_checked, (k, limit)
        assert size >= (1 << k if not checked else 4 * k), (k, limit, size)
