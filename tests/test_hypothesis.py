"""Property tests: the exact solvers agree with the brute-force reference on
random connected graphs of order at most 8, in value and in the
lexicographically first witness, and so does the distance-two lemma that
the total solvers rest on.  The command line ends every graph expression
and graph file in exit 0, 1 or 2 with at most one line on stderr.

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
from mutvis.visibility import distance_two_cores


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


_PARAMETRIC = (
    "path", "cycle", "complete", "star", "biclique", "theta", "gencomplete", "gm", "randomtree",
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
