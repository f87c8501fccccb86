"""Property tests: the exact solvers agree with the brute-force reference on
random connected graphs of order at most 8, in value and in the
lexicographically first witness.

Examples are derandomized and no example database is kept, so the suite is
deterministic.  (Hypothesis's pytest plugin still caches the constants of
the local sources under ``.hypothesis/``, which git ignores.)
"""

from __future__ import annotations

from itertools import combinations

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

import reference
from mutvis import Graph, max_independent_total_mv, max_mv, max_total_mv


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
