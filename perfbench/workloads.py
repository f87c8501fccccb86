"""The benchmark's workloads: inputs made from a seed, and one call each.

A call names its input by generated specs or (order, seed) pairs only; it
builds fresh Graph objects every time it runs, so no pass inherits the
distance matrices or oracles cached on an earlier pass's graphs.  ``run``
returns ``(value, witness)`` in plain JSON types.

Calls marked ``anchor`` do not depend on the seed.  They carry the cost of
their workload, so its timings stay comparable from seed to seed; the
seeded calls vary the inputs around them.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass

import mutvis
from mutvis import cli, verify

MUT_CAP = 64
MU_CAP = 20

# The criterion-7 pool of tests/test_acceptance.py::_bounded_pairs: orders
# 3 + i % 5 with graph seeds 1000 + i, paired in order.  Every graph of the
# first 40 attempts has a bypass vertex (muit >= 1), so none is skipped.
CRITERION7_POOL = tuple(
    ((3 + i % 5, 1000 + i), (3 + (i + 1) % 5, 1001 + i)) for i in range(0, 40, 2)
)
SLOW_PAIR = ((6, 1028), (7, 1029))

MU_PRODUCTS = (
    "cp(cycle:4,complete:5)",
    "cp(complete:4,complete:5)",
    "cp(cycle:5,cycle:4)",
    "cp(biclique:2,2,path:5)",
    "cp(star:3,cycle:5)",
    "cp(path:4,cycle:5)",
    "cp(path:2,petersen)",
)

# gm:m has the largest total mutual-visibility set {0, m+2, m+3..2m+2} and
# the spare bypass vertices 2m+3..3m+2 (see the fam:gm suite).
def gm_base(m: int) -> list[int]:
    return [0, m + 2, *range(m + 3, 2 * m + 3)]


def gm_extras(m: int) -> list[int]:
    return list(range(2 * m + 3, 3 * m + 3))


@dataclass(frozen=True)
class Call:
    key: str      # unique within a workload; pins are looked up by it
    kind: str     # mut-pair | mut-spec | mu-spec | mu-random | bp-tmv | over-visible | verify
    arg: object   # spec string, (order, seed) pairs, or CLI arguments
    anchor: bool  # True when the input does not depend on the seed


# -- input generation ------------------------------------------------------


def _has_bypass_vertex(g) -> bool:
    # muit >= 1 exactly when some singleton is total mutual-visible, which
    # holds exactly for bypass vertices.
    return bool(mutvis.bypass_set(g))


PROBE_SEED_OFFSET = 100_000  # keeps probe graphs apart from the pinned pool


def probe_pairs(seed: int, count: int) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """Seeded criterion-7 pairs on 3 to 5 vertices (products of order <= 25)."""
    found = []
    attempt = 0
    while len(found) < 2 * count:
        n, s = 3 + attempt % 3, PROBE_SEED_OFFSET + seed + attempt
        if _has_bypass_vertex(verify.random_connected_graph(n, s)):
            found.append((n, s))
        attempt += 1
    return list(zip(found[0::2], found[1::2]))


def _pair_key(pair) -> str:
    (ng, sg), (nh, sh) = pair
    return f"mut cp(random:{ng},{sg},random:{nh},{sh})"


def make_calls(workload: str, seed: int, tiny: bool = False) -> list[Call]:
    if workload == "mut-products":
        pool = CRITERION7_POOL[:2] if tiny else CRITERION7_POOL
        spec = "cp(complete:3,complete:3)" if tiny else "cp(complete:6,complete:6)"
        calls = [Call(_pair_key(p), "mut-pair", p, True) for p in pool]
        calls.append(Call(f"mut {spec}", "mut-spec", spec, True))
        calls += [Call(_pair_key(p), "mut-pair", p, False) for p in probe_pairs(seed, 1 if tiny else 4)]
        return calls
    if workload == "mu-graphs":
        specs = ("cp(path:2,cycle:4)",) if tiny else MU_PRODUCTS
        calls = [Call(f"mu {s}", "mu-spec", s, True) for s in specs]
        orders = (8,) if tiny else (18, 19, 20)
        for i, n in enumerate(orders):
            calls.append(Call(f"mu random:{n},{seed + i}", "mu-random", (n, seed + i), False))
        return calls
    if workload == "large-graphs":
        tree, cyc, ov, gm = (
            (f"randomtree:60,{seed}", "cycle:50", 1, "cp(gm:2,gm:2)")
            if tiny
            else (f"randomtree:1200,{seed}", "cycle:1500", 5, "cp(gm:3,gm:3)")
        )
        return [
            Call(f"bp-tmv {tree}", "bp-tmv", tree, False),
            Call(f"mut {cyc}", "mut-spec", cyc, True),
            Call(f"over-visible cp(gm:{ov},gm:{ov})", "over-visible", ov, True),
            Call(f"bp-tmv {gm}", "bp-tmv", gm, True),
        ]
    if workload == "verify-all":
        theorem = "fam:gm" if tiny else "all"
        argv = ["verify", "--theorem", theorem, "--stable", "--format", "json", "--seed", str(seed)]
        return [Call("verify " + " ".join(argv[1:]), "verify", tuple(argv), False)]
    raise KeyError(workload)


# -- running one call --------------------------------------------------------


def _report(r) -> tuple[int, list[int]]:
    return r.value, list(r.witness)


def run(call: Call):
    """Run one call from its generated input to a validated report."""
    kind, arg = call.kind, call.arg
    if kind == "mut-pair":
        (ng, sg), (nh, sh) = arg
        g = verify.random_connected_graph(ng, sg)
        h = verify.random_connected_graph(nh, sh)
        return _report(mutvis.max_total_mv(mutvis.cartesian_product(g, h).graph, cap=MUT_CAP))
    if kind == "mut-spec":
        return _report(mutvis.max_total_mv(mutvis.graph_of(mutvis.build(arg)), cap=MUT_CAP))
    if kind == "mu-spec":
        return _report(mutvis.max_mv(mutvis.graph_of(mutvis.build(arg)), cap=MU_CAP))
    if kind == "mu-random":
        return _report(mutvis.max_mv(verify.random_connected_graph(*arg), cap=MU_CAP))
    if kind == "bp-tmv":
        g = mutvis.graph_of(mutvis.build(arg))
        bp = mutvis.bypass_report(g)
        return [bp.value, mutvis.is_total_mv_set(g, frozenset(bp.witness))], list(bp.witness)
    if kind == "over-visible":
        m = arg
        p = mutvis.build(f"cp(gm:{m},gm:{m})")
        w = mutvis.over_visible_witness(p, gm_base(m), gm_extras(m), gm_base(m), gm_extras(m))
        return len(w), sorted(w)
    if kind == "verify":
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(list(arg))
        return code, out.getvalue()
    raise KeyError(kind)


def run_all_by_suite(opts):
    """run_all, as one run_suite call per suite id in registry order."""
    records = []
    for tid in verify.suite_ids():
        records.extend(verify.run_suite(tid, opts))
    return records
