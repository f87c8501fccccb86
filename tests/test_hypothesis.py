"""Property tests: the exact solvers agree with the brute-force reference on
random connected graphs of order at most 8, in value and in the
lexicographically first witness, and so do the distance-two lemma that
the total solvers rest on and the short-pair seeds of the mu search.  The
searcher's colour-class bound counts the cliques of a first-fit clique
cover.  The command line ends every graph expression and graph file in
exit 0, 1 or 2 with at most one line on stderr.

Examples are derandomized and no example database is kept, so the suite is
deterministic.  (Hypothesis's pytest plugin still caches the constants of
the local sources under ``.hypothesis/``, which git ignores.)
"""

from __future__ import annotations

import contextlib
import io
from itertools import combinations

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import example, given, settings, strategies as st

import mutvis.specs
import reference
from mutvis import Graph, cli, max_independent_total_mv, max_mv, max_total_mv
from mutvis._search import _class_tops
from mutvis.visibility import distance_two_cores, short_pair_blockers


@st.composite
def connected_graphs(draw) -> Graph:
    """A random spanning tree (each vertex hangs off a lower one) plus any
    subset of the remaining pairs."""
    n = draw(st.integers(1, 8))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    pairs = [p for p in combinations(range(n), 2) if p not in edges]
    extra = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges.update(p for p, keep in zip(pairs, extra) if keep)
    return Graph(n, sorted(edges))


@pytest.mark.parametrize(
    "solver, brute",
    [
        (max_mv, reference.brute_mu),
        (max_total_mv, reference.brute_mut),
        (max_independent_total_mv, reference.brute_muit),
    ],
    ids=["mu", "mut", "muit"],
)
@settings(derandomize=True, database=None, deadline=None)
@given(g=connected_graphs())
def test_solvers_match_brute_force(solver, brute, g):
    expected = brute(g)
    r = solver(g)
    assert (r.value, r.witness) == (len(expected), expected)


@settings(derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_core_freeness_matches_brute_force(data):
    g = data.draw(connected_graphs())
    members = data.draw(st.sets(st.integers(0, g.order - 1)))
    mask = sum(1 << u for u in members)
    assert (not distance_two_cores(g, mask)) == reference.is_tmv(g, members)


@settings(derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_short_pair_seeds_hold_the_hidden_close_pairs(data):
    # X holds no seed exactly when every pair of X at distance at most
    # three is visible past X.  Half the sets start from a seed, so that
    # a seed which hides no pair shows.
    g = data.draw(connected_graphs())
    seeds, _ = short_pair_blockers(g)
    mask = sum(1 << u for u in data.draw(st.sets(st.integers(0, g.order - 1))))
    if seeds and data.draw(st.booleans()):
        mask |= data.draw(st.sampled_from(sorted(seeds)))
    members = {u for u in range(g.order) if mask >> u & 1}
    slow = reference.floyd_warshall(g)
    close = all(
        reference.visible(g, members, x, y, slow)
        for x, y in combinations(sorted(members), 2)
        if slow[x][y] <= 3
    )
    assert (not any(b & mask == b for b in seeds)) == close


def _first_fit_bounds(order: list[int], near) -> list[int]:
    """bounds[j]: the cliques that a back-to-front first-fit pass, putting
    each vertex into the first clique it fully conflicts with, opens over
    order[j:]."""
    bounds = [0] * (len(order) + 1)
    cliques: list[int] = []
    for j in range(len(order) - 1, -1, -1):
        v = order[j]
        for k, c in enumerate(cliques):
            if c & near(v) == c:
                cliques[k] = c | 1 << v
                break
        else:
            cliques.append(1 << v)
        bounds[j] = len(cliques)
    return bounds


@settings(derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_colour_class_tops_count_first_fit_cliques(data):
    # Each pair is free, a global conflict or a local one; the suffix is
    # any subset, so conflicts also reach vertices outside it.
    n = data.draw(st.integers(0, 16))
    pairs = list(combinations(range(n), 2))
    kinds = data.draw(st.lists(st.integers(0, 2), min_size=len(pairs), max_size=len(pairs)))
    conflicts: dict[int, int] = {}
    local: dict[int, int] = {}
    for (u, v), kind in zip(pairs, kinds):
        if kind:
            table = conflicts if kind == 1 else local
            table[u] = table.get(u, 0) | 1 << v
            table[v] = table.get(v, 0) | 1 << u
    order = sorted(data.draw(st.sets(st.integers(0, max(n - 1, 0)), max_size=n)))
    bounds = _first_fit_bounds(order, lambda v: conflicts.get(v, 0) | local.get(v, 0))
    tops = _class_tops(sum(1 << v for v in order), conflicts, local)
    for j in range(len(order) + 1):
        assert (tops & sum(1 << v for v in order[j:])).bit_count() == bounds[j], (order, j)


_PARAMETRIC = (
    "path", "cycle", "complete", "star", "biclique", "theta", "gencomplete", "gm", "randomtree",
    "random",
)
_TOKENS = (
    *_PARAMETRIC, "petersen", "fig1", "cp(", ",", ")", ":", "-", "_", *"0123456789",
    "\u0663", "\u00b2",
)


def _expressions():
    """Token soup, and expressions shaped like the grammar over the same
    alphabet, so that some of them build a graph."""
    number = st.integers(1, 9).map(str) | st.text("0123456789-_\u0663", min_size=1, max_size=3)
    family = st.builds(
        lambda name, params: name + ":" + ",".join(params),
        st.sampled_from(_PARAMETRIC),
        st.lists(number, min_size=1, max_size=2),
    )
    shaped = st.recursive(
        family | st.sampled_from(("petersen", "fig1")),
        lambda inner: st.lists(inner, min_size=2, max_size=3).map(lambda xs: f"cp({','.join(xs)})"),
        max_leaves=4,
    )
    return st.lists(st.sampled_from(_TOKENS), max_size=12).map("".join) | shaped


def _cli_outcome(arg: str) -> tuple[int, str]:
    # The size limits are lowered so that no drawn graph is slow to build;
    # the paths that enforce them run all the same.
    err = io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mutvis.specs, "MAX_ORDER", 60)
        mp.setattr(mutvis.specs, "MAX_EDGES", 300)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(["compute", f"--graph={arg}", "--invariant", "bp"])
    return code, err.getvalue()


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(text=_expressions())
@example(text="--")  # argparse reads "--graph=--" as an empty list
def test_expressions_never_end_in_a_traceback(text):
    code, err = _cli_outcome(text)
    assert code in (0, 1, 2) and err.count("\n") <= 1, (text, err)


@settings(derandomize=True, database=None, deadline=None)
@given(blob=st.binary(max_size=64) | st.lists(
    st.sampled_from((b"3", b"5", b"0 1", b"1 2", b"0 0", b"-1", b"# graph: x", b"\xff", b" ")),
    max_size=8,
).map(b"\n".join))
def test_graph_files_never_end_in_a_traceback(tmp_path_factory, blob):
    path = tmp_path_factory.mktemp("blob") / "g.txt"
    path.write_bytes(blob)
    code, err = _cli_outcome(f"@{path}")
    assert code in (0, 1, 2) and err.count("\n") <= 1, (blob, err)
