from __future__ import annotations

import dataclasses

import pytest

import mutvis.solvers
import mutvis.visibility
import reference
from mutvis import (
    CapExceeded,
    Graph,
    GraphError,
    InvariantReport,
    WitnessError,
    alpha_report,
    build,
    bypass_report,
    bypass_set,
    graph_of,
    is_independent_set,
    is_mv_set,
    is_total_mv_set,
    max_independent_total_mv,
    max_mv,
    max_total_mv,
    mut_is_zero,
    naive_oracle,
    sandwich_check,
)
from mutvis.generators import biclique, complete, cycle, g_m, path, random_tree, star, theta
from mutvis.solvers import INVARIANTS
from mutvis.verify import SuiteOptions, random_connected_graph


def _small_batch():
    graphs = [
        path(2), path(5), cycle(3), cycle(4), cycle(5), cycle(6),
        complete(4), star(4), biclique(2, 3), theta((2, 2, 4)), theta((1, 3)),
    ]
    graphs += [random_connected_graph(3 + i % 5, 1500 + i) for i in range(14)]
    return graphs


def test_total_solver_matches_brute_force():
    for g in _small_batch():
        report = max_total_mv(g)
        expected = reference.brute_mut(g)
        assert report.value == len(expected)
        assert report.witness == expected
        assert is_total_mv_set(g, frozenset(report.witness))


def test_independent_total_solver_matches_brute_force():
    for g in _small_batch():
        report = max_independent_total_mv(g)
        expected = reference.brute_muit(g)
        assert report.value == len(expected)
        assert report.witness == expected
        w = frozenset(report.witness)
        assert is_total_mv_set(g, w) and is_independent_set(g, w)


def test_mutual_solver_matches_brute_force():
    for g in _small_batch():
        report = max_mv(g)
        expected = reference.brute_mu(g)
        assert report.value == len(expected)
        assert report.witness == expected
        assert is_mv_set(g, frozenset(report.witness))


def test_oracle_agrees_with_solvers():
    for g in _small_batch():
        for kind, solver in (
            ("mut", max_total_mv),
            ("muit", max_independent_total_mv),
            ("mu", max_mv),
        ):
            fast = solver(g)
            slow = naive_oracle(g, kind)
            assert (fast.value, fast.witness) == (slow.value, slow.witness)
            assert slow.method == "naive-oracle"
            assert fast.method == "pruned-search"


def test_oracle_matches_the_definitional_reference(monkeypatch):
    # Inputs where many subsets share their inner part: leaves and other
    # simplicial vertices lie inside no geodesic.  Each scan checks a given
    # inner part at most once, and never a vertex outside it.
    graphs = [random_tree(n, 40 + n) for n in range(2, 10)]
    graphs += [star(k) for k in (1, 2, 3, 5, 7)] + [g_m(m) for m in (1, 2, 3)]
    graphs += [random_connected_graph(2 + i % 8, 2600 + i) for i in range(16)]
    checked = []
    tmv_holds = mutvis.visibility.VisibilityOracle.tmv_holds

    def spy(self, mask):
        checked.append(mask)
        return tmv_holds(self, mask)

    monkeypatch.setattr(mutvis.visibility.VisibilityOracle, "tmv_holds", spy)
    for g in graphs:
        inner = mutvis.visibility.inner_mask(g)
        for kind, brute in (("mut", reference.brute_mut), ("muit", reference.brute_muit)):
            checked.clear()
            want = brute(g)
            got = naive_oracle(g, kind)
            assert (got.value, got.witness) == (len(want), want), (g.name, kind)
            assert len(set(checked)) == len(checked), (g.name, kind)
            assert all(mask & ~inner == 0 for mask in checked), (g.name, kind)


def test_oracle_rejects_unknown_kind():
    with pytest.raises(GraphError):
        naive_oracle(path(3), "girth")


def test_oracle_cap():
    with pytest.raises(CapExceeded):
        naive_oracle(path(15), "mut")


def test_oracle_stops_at_its_answer(monkeypatch):
    # Sizes are scanned from the largest down, so the complete graph is
    # answered by its first check, while a graph with no nonempty total
    # mutual-visibility set has every nonempty subset checked.
    calls = {"mv_holds": 0, "tmv_holds": 0}
    oracle = mutvis.visibility.VisibilityOracle

    def counted(name):
        check = getattr(oracle, name)

        def wrapper(self, mask):
            calls[name] += 1
            return check(self, mask)

        return wrapper

    for name in calls:
        monkeypatch.setattr(oracle, name, counted(name))
    report = naive_oracle(complete(8), "mu")
    assert (report.value, report.witness) == (8, tuple(range(8)))
    assert calls == {"mv_holds": 1, "tmv_holds": 0}
    report = naive_oracle(cycle(9), "mut")
    assert (report.value, report.witness) == (0, ())
    assert calls == {"mv_holds": 1, "tmv_holds": 2**9 - 1}


def test_report_shape():
    report = max_total_mv(cycle(4))
    assert isinstance(report, InvariantReport)
    assert report.kind == "mut"
    assert report.graph_name == "cycle:4"
    assert report.to_dict() == {
        "kind": "mut",
        "value": 2,
        "witness": [0, 1],
        "method": "pruned-search",
        "graph_name": "cycle:4",
    }
    with pytest.raises(dataclasses.FrozenInstanceError):
        report.value = 3


@pytest.mark.parametrize(
    "spec, value, witness",
    [
        ("cp(path:4,cycle:5)", 9, (0, 1, 3, 7, 9, 12, 14, 15, 16)),
        ("cp(path:2,petersen)", 10, (0, 1, 2, 3, 14, 15, 16, 17, 18, 19)),
        ("cp(star:3,cycle:5)", 9, (0, 2, 5, 7, 11, 13, 14, 18, 19)),
    ],
)
def test_mu_lex_first_witnesses_are_pinned(spec, value, witness):
    # Order-20 products beyond the exhaustive oracle: the search's tie-break
    # must keep returning the lexicographically first maximum.
    report = max_mv(graph_of(build(spec)))
    assert (report.value, report.witness) == (value, witness)


_GM3 = (
    0, 5, 6, 7, 8, 60, 65, 66, 67, 68, 72, 77, 78, 79, 80, 84, 89, 90, 91, 92,
    96, 101, 102, 103, 104, 117, 118, 119, 129, 130, 131, 141, 142, 143,
)
_GM4 = (
    0, 6, 7, 8, 9, 10, 90, 96, 97, 98, 99, 100, 105, 111, 112, 113, 114, 115,
    120, 126, 127, 128, 129, 130, 135, 141, 142, 143, 144, 145, 150, 156, 157,
    158, 159, 160, 176, 177, 178, 179, 191, 192, 193, 194, 206, 207, 208, 209,
    221, 222, 223, 224,
)
_B3433 = (18, 19, 21, 22, 24, 25, 27, 28, 30, 32, 33, 35, 37, 38, 40, 41)
_B3444 = (
    24, 25, 26, 28, 29, 30, 32, 33, 35, 36, 37, 39, 40, 42, 43, 44, 46, 47, 49,
    50, 51, 53, 54, 55,
)
_B3444_INDEPENDENT = (24, 25, 26, 32, 33, 34, 40, 41, 42, 52, 53, 54)


@pytest.mark.parametrize(
    "spec, cap, kind, value, witness",
    [
        ("cp(gm:3,gm:3)", 200, "mut", 34, _GM3),
        ("cp(gm:3,gm:3)", 200, "muit", 34, _GM3),
        ("cp(gm:4,gm:4)", 200, "mut", 52, _GM4),
        ("cp(gm:4,gm:4)", 200, "muit", 52, _GM4),
        ("cp(biclique:3,4,biclique:3,3)", 64, "mut", 16, _B3433),
        ("cp(biclique:3,4,biclique:3,3)", 64, "muit", 8, (0, 6, 19, 20, 25, 26, 31, 32)),
        ("cp(biclique:3,4,biclique:4,4)", 64, "mut", 24, _B3444),
        ("cp(biclique:3,4,biclique:4,4)", 64, "muit", 12, _B3444_INDEPENDENT),
    ],
)
def test_total_lex_first_witnesses_are_pinned(spec, cap, kind, value, witness):
    # Products of order 42 to 225, past the exhaustive oracle and the
    # default --cap-bp.  The pins come from the search that checked each
    # grown set by breadth-first search, independently of the distance-two
    # cores the solvers seed now.
    solver = max_total_mv if kind == "mut" else max_independent_total_mv
    report = solver(graph_of(build(spec)), cap=cap)
    assert (report.value, report.witness) == (value, witness)


def test_solver_determinism():
    g = random_connected_graph(8, 77)
    first = max_total_mv(g)
    again = max_total_mv(g)
    assert first == again


def test_caps_name_their_flags():
    with pytest.raises(CapExceeded) as err:
        max_total_mv(biclique(16, 16))
    assert "--cap-bp" in str(err.value)
    with pytest.raises(CapExceeded) as err:
        max_mv(path(25))
    assert "--cap-n" in str(err.value)


def test_caps_can_be_raised():
    assert max_total_mv(biclique(16, 16), cap=32).value == 30
    assert max_mv(path(25), cap=25).value == 2


def test_solvers_require_connected_input():
    g = Graph(4, [(0, 1), (2, 3)])
    for fn in (max_total_mv, max_independent_total_mv, max_mv, mut_is_zero):
        with pytest.raises(GraphError):
            fn(g)


@pytest.mark.parametrize(
    "solver, kind, g, answer",
    [
        (max_total_mv, "mut", cycle(4), (2, (0, 2))),  # the opposite pair blocks 1-3
        (max_independent_total_mv, "muit", cycle(4), (2, (0, 1))),  # adjacent
        (max_mv, "mu", path(4), (3, (0, 1, 3))),  # 1 blocks 0-3
    ],
)
def test_validate_refuses_a_wrong_witness(monkeypatch, solver, kind, g, answer):
    # A searcher that returns a right-sized but wrong set must not get its
    # answer through: _validate re-checks it against the definition.
    monkeypatch.setattr(mutvis.solvers, "lex_first_maximum", lambda *args, **kwargs: answer)
    with pytest.raises(WitnessError, match=f"for {mutvis.solvers._KIND_NAMES[kind]} witness"):
        solver(g)


def test_zero_test_agrees_with_solver():
    for g in _small_batch():
        assert mut_is_zero(g) == (max_total_mv(g).value == 0)


def test_empty_bypass_set_builds_no_oracle(monkeypatch):
    def refuse(self, g):
        raise AssertionError("oracle built for a graph without bypass vertices")

    monkeypatch.setattr(mutvis.visibility.VisibilityOracle, "__init__", refuse)
    for fn in (max_total_mv, max_independent_total_mv):
        report = fn(cycle(60))
        assert (report.value, report.witness) == (0, ())


def test_simplicial_candidates_build_no_oracle(monkeypatch):
    # No bypass vertex of a path or a tree lies inside a geodesic, so every
    # subset of them is total mutual-visible and no oracle is needed.
    def refuse(self, g):
        raise AssertionError("oracle built although no candidate can block")

    monkeypatch.setattr(mutvis.visibility.VisibilityOracle, "__init__", refuse)
    g = path(5000)
    for fn in (max_total_mv, max_independent_total_mv):
        report = fn(g)
        assert (report.value, report.witness) == (2, (0, 4999))
    tree = graph_of(build("randomtree:1200,1000"))
    assert is_total_mv_set(tree, bypass_set(tree))
    # The leaves of a tree on three or more vertices are pairwise
    # non-adjacent, so muit takes them all.
    tree = random_tree(30, 4)
    assert max_independent_total_mv(tree).witness == tuple(sorted(bypass_set(tree)))


def test_bypass_report():
    report = bypass_report(theta((2, 2, 4)))
    assert report.kind == "bp"
    assert report.method == "formula"
    assert report.value == 2
    assert report.witness == (2, 3)


def test_bypass_report_requires_connected_input():
    with pytest.raises(GraphError, match="connected"):
        bypass_report(Graph(3, [(0, 1)]))


def test_alpha_report():
    report = alpha_report(cycle(7))
    assert report.kind == "alpha"
    assert report.value == 3
    assert is_independent_set(cycle(7), frozenset(report.witness))


def test_sandwich_holds_from_three_vertices():
    graphs = [complete(4), star(3), cycle(6), theta((2, 2, 2))]
    graphs += [random_tree(n, n) for n in range(3, 8)]
    assert all(sandwich_check(g) for g in graphs)


def test_sandwich_boundary_on_two_vertices():
    # Both vertices are leaves and total mutual-visible, but no independent
    # set has two of them, so the leaf lower bound fails below order 3.
    assert not sandwich_check(path(2))


def test_invariant_table_reads_each_cap():
    g = complete(4)
    tight = SuiteOptions(bp_cap=3, n_cap=3)
    for kind in ("mu", "mut", "muit", "alpha"):
        with pytest.raises(CapExceeded):
            INVARIANTS[kind](g, tight)
        assert INVARIANTS[kind](g, SuiteOptions()).value == (1 if kind in ("muit", "alpha") else 4)
    assert INVARIANTS["bp"](g, tight) == bypass_report(g)
    assert INVARIANTS["girth"](g, tight).to_dict() == {
        "kind": "girth", "value": 3, "witness": [], "method": "formula", "graph_name": g.name,
    }


def test_invariant_table_owns_the_cap_defaults():
    # SuiteOptions holds only what the verify flags set; an unset n_cap
    # becomes each search's own default inside the table.
    assert [f.name for f in dataclasses.fields(SuiteOptions)] == ["seed", "count", "max_n", "bp_cap", "n_cap"]
    g = path(22)
    assert INVARIANTS["alpha"](g, SuiteOptions()).value == 11
    with pytest.raises(CapExceeded, match="--cap-n"):
        INVARIANTS["mu"](g, SuiteOptions())
    assert INVARIANTS["mu"](g, SuiteOptions(n_cap=22)).value == 2


def test_invariant_table_looks_solvers_up_at_call_time(monkeypatch):
    # A wrapper bound over a module-level solver name (a tracer, say) must
    # see the calls made through the table.
    seen = []
    real = mutvis.solvers.max_total_mv

    def spy(g, *, cap):
        seen.append(cap)
        return real(g, cap=cap)

    monkeypatch.setattr(mutvis.solvers, "max_total_mv", spy)
    assert INVARIANTS["mut"](complete(3), SuiteOptions(bp_cap=7)).value == 3
    assert seen == [7]
