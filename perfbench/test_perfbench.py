"""The benchmark's own tests: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
run.import_program()

import checks  # noqa: E402  (needs the program on sys.path)
import workloads  # noqa: E402
from mutvis import max_independent_total_mv, random_connected_graph  # noqa: E402
from tracing import layer_unit  # noqa: E402


def _run(*argv: str) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *argv],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    return proc.returncode, proc.stdout


def _tiny_args(workload: str, trace: int = 0):
    return run.parse_args(["--workload", workload, "--seconds", "0.3", "--size", "tiny",
                           "--trace", str(trace)])


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_smoke_run(workload, trace):
    code, out = _run("--workload", workload, "--seed", "7", "--seconds", "0.3",
                     "--trace", str(trace), "--size", "tiny")
    assert code == 0
    result = json.loads(out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for m in expected:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_wrong_expected_value_is_counted_as_failure():
    calls = workloads.make_calls("mut-products", run.DEFAULT_SEED, tiny=True)
    key = calls[0].key
    pins = checks.load_pins()
    assert key in pins
    pins[key] = dict(pins[key], value=pins[key]["value"] + 1)
    result = run.bench(_tiny_args("mut-products"), pins=pins)
    passes = result["attempted"] // len(calls)
    assert result["correct"] is False
    assert result["failed"] == passes
    assert result["attempted"] == passes * len(calls)
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}


def test_wrong_witness_is_caught_by_independent_check():
    call = workloads.make_calls("mu-graphs", 1, tiny=True)[0]
    value, witness = workloads.run(call)
    assert checks.check(call, value, witness, {}) == []
    assert checks.check(call, value, witness[:-1] + [witness[0]], {})
    assert checks.check(call, value - 1, witness[:-1], {})  # valid set, but not maximal


@pytest.mark.parametrize("workload", ["mut-products", "mu-graphs", "verify-all"])
def test_traced_counters_and_witnesses_repeat(workload):
    args = _tiny_args(workload, trace=1)
    deadline = time.monotonic() + 170
    first, second = (run.spawn(args, deadline, max_passes=2) for _ in range(2))
    for a, b in zip(first["passes"], second["passes"]):
        assert [r[:3] for r in a["results"]] == [r[:3] for r in b["results"]]
        if a["traced"]:
            counters = {k: v for k, v in a["layers"].items() if layer_unit(k) in ("count", "ratio")}
            assert counters == {k: b["layers"][k] for k in counters}
            assert counters["solvers.calls.mu"] + counters["solvers.calls.mut"] > 0


def test_anchor_pool_is_the_acceptance_pool():
    # Same selection as tests/test_acceptance.py::_bounded_pairs(20).
    found = []
    for attempt in itertools.count():
        n, s = 3 + attempt % 5, 1000 + attempt
        if max_independent_total_mv(random_connected_graph(n, s)).value >= 1:
            found.append((n, s))
        if len(found) == 40:
            break
    assert list(zip(found[0::2], found[1::2])) == list(workloads.CRITERION7_POOL)
    assert workloads.SLOW_PAIR in workloads.CRITERION7_POOL


def test_inputs_depend_only_on_the_seed():
    for w in run.WORKLOADS:
        assert workloads.make_calls(w, 5) == workloads.make_calls(w, 5)
        seeded = [c for c in workloads.make_calls(w, 5) if not c.anchor]
        assert seeded and seeded != [c for c in workloads.make_calls(w, 6) if not c.anchor]


def test_fails_without_the_program_sources():
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "mu-graphs", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, timeout=60, cwd=bare,
        )
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
