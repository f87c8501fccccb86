"""Correctness checks on call results, run outside the timed region.

Each check returns a list of problems; an empty list means the result is
correct.  Witnesses are rechecked by a route independent of the package's
bitmask engine: the Floyd-Warshall and path-enumeration checkers of
tests/reference.py where they are affordable, and a plain adjacency-set
BFS on the graphs too large for them.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
from collections import deque
from functools import lru_cache
from pathlib import Path

import mutvis
from mutvis import verify

from workloads import Call

ROOT = Path(__file__).resolve().parent.parent
PINS_PATH = Path(__file__).resolve().parent / "pins.json"


def _load_reference():
    spec = importlib.util.spec_from_file_location("mutvis_reference", ROOT / "tests" / "reference.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


reference = _load_reference()


def load_pins() -> dict:
    with open(PINS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


# -- independent recomputation ---------------------------------------------


@lru_cache(maxsize=None)
def _factor_invariants(n: int, seed: int) -> tuple[int, int, int]:
    """(order, mut, muit) of a random factor, by full subset scan."""
    g = verify.random_connected_graph(n, seed)
    return n, len(reference.brute_mut(g)), len(reference.brute_muit(g))


def _bfs(adj, src, absorbing=frozenset()):
    # Distances from src; absorbing vertices are reached but not expanded.
    dist = {src: 0}
    queue = deque([src])
    while queue:
        u = queue.popleft()
        if u in absorbing and u != src:
            continue
        for w in adj[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def blocked_pair(g, members):
    """First pair (x, y) with no shortest path avoiding ``members``
    internally, or None when ``members`` is total mutual-visible."""
    adj = [g.neighbors(u) for u in range(g.order)]
    members = frozenset(members)
    for x in range(g.order):
        full = _bfs(adj, x)
        free = _bfs(adj, x, members)
        for y in range(x + 1, g.order):
            if free.get(y) != full[y]:
                return (x, y)
    return None


# -- per-call checks --------------------------------------------------------


def check(call: Call, value, witness, pins: dict) -> list[str]:
    problems: list[str] = []
    pin = pins.get(call.key)
    if pin is not None and (value != pin["value"] or pin_form(witness) != pin["witness"]):
        problems.append(f"differs from the pinned result {pin['value']}")
    kind = call.kind
    if kind in ("mut-pair", "mut-spec"):
        problems += _check_mut(call, value, witness)
    elif kind in ("mu-spec", "mu-random"):
        problems += _check_mu(call, value, witness)
    elif kind == "bp-tmv":
        problems += _check_bp_tmv(call, value, witness)
    elif kind == "over-visible":
        m = call.arg
        if value != (m + 2) ** 2 + m or len(set(witness)) != value:
            problems.append(f"witness size {value} != (m+2)^2 + m")
        elif blocked_pair(mutvis.graph_of(mutvis.build(f"cp(gm:{m},gm:{m})")), witness) is not None:
            problems.append("witness is not total mutual-visible")
    elif kind == "verify":
        problems += _check_verify(value, witness)
    return problems


def _check_mut(call: Call, value, witness) -> list[str]:
    problems = []
    if call.kind == "mut-pair":
        (ng, sg), (nh, sh) = call.arg
        n_g, mut_g, muit_g = _factor_invariants(ng, sg)
        n_h, mut_h, muit_h = _factor_invariants(nh, sh)
        lo = max(muit_h * mut_g, muit_g * mut_h)
        hi = min(mut_g * n_h, mut_h * n_g)
        if not lo <= value <= hi:
            problems.append(f"mut={value} outside the criterion-7 bounds [{lo}, {hi}]")
        g = mutvis.cartesian_product(verify.random_connected_graph(ng, sg),
                                     verify.random_connected_graph(nh, sh)).graph
    else:
        g = mutvis.graph_of(mutvis.build(call.arg))
    if len(set(witness)) != value:
        problems.append(f"witness size {len(set(witness))} != value {value}")
    elif witness and not reference.is_tmv(g, witness):
        problems.append("witness is not total mutual-visible")
    return problems


def _check_mu(call: Call, value, witness) -> list[str]:
    if call.kind == "mu-spec":
        g = mutvis.graph_of(mutvis.build(call.arg))
    else:
        g = verify.random_connected_graph(*call.arg)
    if len(set(witness)) != value:
        return [f"witness size {len(set(witness))} != value {value}"]
    dist = reference.floyd_warshall(g)
    if not reference.is_mv(g, witness, dist):
        return ["witness is not a mutual-visibility set"]
    # A largest set is in particular maximal: no vertex can join it.
    for v in range(g.order):
        if v not in witness and reference.is_mv(g, [*witness, v], dist):
            return [f"witness is not maximal: vertex {v} can join"]
    return []


def _check_bp_tmv(call: Call, value, witness) -> list[str]:
    (bp, tmv) = value
    g = mutvis.graph_of(mutvis.build(call.arg))
    if bp != len(witness):
        return [f"bp={bp} but the bypass set has {len(witness)} vertices"]
    if call.arg.startswith("randomtree:"):
        # A tree's bypass vertices are its leaves, which see each other and
        # everything else along the tree's unique paths.
        leaves = [u for u in range(g.order) if len(g.neighbors(u)) == 1]
        if witness != leaves:
            return ["bypass set differs from the leaf set"]
        if tmv is not True:
            return ["the leaf set of a tree is total mutual-visible, reported not"]
        return []
    # A product vertex is bypass exactly when both coordinates are bypass
    # in their factors; the factors are small enough for the reference.
    p = mutvis.build(call.arg)
    factor_bp = [sorted(reference.bypass_vertices(f)) for f in p.factors]
    expected = sorted(p.encode((a, b)) for a in factor_bp[0] for b in factor_bp[1])
    if witness != expected:
        return ["bypass set differs from the product of the factors' bypass sets"]
    if tmv != (blocked_pair(g, witness) is None):
        return [f"is_total_mv_set={tmv} disagrees with the BFS recheck"]
    return []


def _check_verify(code, output) -> list[str]:
    if code != 0:
        return [f"verify exited {code}"]
    try:
        payload = json.loads(output)
    except json.JSONDecodeError:
        return ["verify output is not JSON"]
    summary = payload.get("summary", {})
    records = payload.get("records", [])
    if summary.get("fail", 1) != 0 or any(r["status"] == "fail" for r in records):
        return [f"verify reported failures: {summary}"]
    if summary.get("pass", 0) + summary.get("skipped-cap", 0) != len(records) or not records:
        return [f"verify summary {summary} does not match {len(records)} records"]
    return []


def pin_form(witness):
    """Witness lists are pinned as they are, report texts by digest."""
    if isinstance(witness, str):
        return "sha256:" + hashlib.sha256(witness.encode()).hexdigest()
    return witness
