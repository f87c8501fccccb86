from __future__ import annotations

import contextlib
import csv
import functools
import hashlib
import io
import json
import re
import sys
from pathlib import Path

import pytest

import mutvis.verify
import mutvis.visibility
from mutvis import build, parse_graph_file, random_connected_graph
from mutvis.cli import MAX_COUNT, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_compute_json_stable(capsys):
    code, out, err = run_cli(
        capsys, "compute", "--graph", "theta:2,2,4", "--invariant", "mut",
        "--witness", "--stable",
    )
    assert code == 0 and not err
    payload = json.loads(out)
    assert payload["value"] == 1
    assert payload["witness"] == [2]
    assert payload["kind"] == "mut"
    assert payload["order"] == 7
    assert "timestamp" not in payload


def test_compute_json_timestamp_by_default(capsys):
    code, out, _ = run_cli(capsys, "compute", "--graph", "path:4", "--invariant", "bp")
    payload = json.loads(out)
    assert code == 0
    assert payload["value"] == 2
    assert "timestamp" in payload


def test_compute_json_keys(capsys):
    # The graph is named once, as "graph".
    base = ("compute", "--invariant", "mu", "--stable")
    keys = {"graph", "order", "kind", "value", "method"}
    code, out, _ = run_cli(capsys, *base, "--graph", "cycle:5")
    assert (code, set(json.loads(out))) == (0, keys)
    code, out, _ = run_cli(capsys, *base, "--graph", "cycle:5", "--witness")
    assert (code, set(json.loads(out))) == (0, keys | {"witness"})
    code, out, _ = run_cli(capsys, *base, "--graph", "cp(path:2,cycle:4)", "--witness")
    assert (code, set(json.loads(out))) == (0, keys | {"witness", "witness_coords"})


def test_stable_runs_are_byte_identical(capsys):
    args = ("compute", "--graph", "cycle:9", "--invariant", "mut", "--stable")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_compute_text_decodes_product_witnesses(capsys):
    code, out, _ = run_cli(
        capsys, "compute", "--graph", "cp(complete:3,complete:5)",
        "--invariant", "mut", "--witness", "--format", "text",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "mut(cp(complete:3,complete:5)) = 5"
    assert lines[1].startswith("witness:")
    assert "(0,4)" in lines[2]
    code, out, _ = run_cli(
        capsys, "compute", "--graph", "cp(path:2,cycle:3,complete:2)",
        "--invariant", "mut", "--witness", "--format", "text",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "mut(cp(path:2,cycle:3,complete:2)) = 3"
    assert lines[2] == "witness coords: (0,0,0) (0,1,0) (0,2,0)"


def test_compute_csv(capsys):
    code, out, _ = run_cli(
        capsys, "compute", "--graph", "cp(cycle:6,complete:4)",
        "--invariant", "mut", "--format", "csv",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["graph", "invariant", "value", "method", "witness"]
    assert rows[1][0] == "cp(cycle:6,complete:4)"
    assert rows[1][2:5] == ["0", "pruned-search", ""]


def test_compute_names_the_graph_by_its_canonical_name(capsys):
    for spec in ("cp(path:3,\npath:2)", " cp( path:3 ,  path:2 ) "):
        base = ("compute", "--graph", spec, "--invariant", "bp", "--stable")
        assert run_cli(capsys, *base, "--format", "text") == (0, "bp(cp(path:3,path:2)) = 4\n", "")
        code, out, _ = run_cli(capsys, *base, "--format", "csv")
        assert (code, list(csv.reader(io.StringIO(out)))[1]) == (
            0, ["cp(path:3,path:2)", "bp", "4", "formula", ""]
        )
        code, out, _ = run_cli(capsys, *base)
        assert (code, json.loads(out)["graph"]) == (0, "cp(path:3,path:2)")


def test_compute_girth_handles_acyclic(capsys):
    code, out, _ = run_cli(
        capsys, "compute", "--graph", "path:6", "--invariant", "girth",
        "--format", "text",
    )
    assert code == 0
    assert out.strip() == "girth(path:6) = none"


def test_compute_cap_exit(capsys):
    code, _, err = run_cli(capsys, "compute", "--graph", "path:25", "--invariant", "mu")
    assert code == 1
    assert "--cap-n" in err
    code, out, _ = run_cli(
        capsys, "compute", "--graph", "path:25", "--invariant", "mu", "--cap-n", "25",
        "--stable",
    )
    assert code == 0
    assert json.loads(out)["value"] == 2


def test_compute_alpha_honours_cap_n(capsys):
    spec = "cp(complete:5,complete:5)"
    code, _, err = run_cli(capsys, "compute", "--graph", spec, "--invariant", "alpha")
    assert code == 1
    assert "cap 24" in err and "--cap-n" in err
    code, out, _ = run_cli(
        capsys, "compute", "--graph", spec, "--invariant", "alpha", "--cap-n", "40", "--stable"
    )
    assert code == 0
    assert json.loads(out)["value"] == 5


def test_compute_parse_errors_exit_2(capsys):
    code, _, err = run_cli(capsys, "compute", "--graph", "wat:3", "--invariant", "mu")
    assert code == 2 and "wat" in err
    code, _, err = run_cli(
        capsys, "compute", "--graph", "@/no/such/file.txt", "--invariant", "mu"
    )
    assert code == 2


def test_compute_oversized_expression_exit_2(capsys):
    for spec in ("path:99999999", "complete:700", "cp(path:100,path:100)"):
        code, out, err = run_cli(capsys, "compute", "--graph", spec, "--invariant", "bp")
        assert code == 2 and not out
        assert err.startswith("mutvis: ") and "limit of" in err
        assert err.count("\n") == 1


def test_compute_oversized_graph_file_exit_2(tmp_path, capsys):
    for count in ("99999999", "5001"):
        f = tmp_path / f"n{count}.txt"
        f.write_text(f"{count}\n0 1\n")
        code, out, err = run_cli(capsys, "compute", "--graph", f"@{f}", "--invariant", "bp")
        assert code == 2 and not out
        assert err == f"mutvis: {f}:1: {count} vertices, above the limit of 5000\n"
    f = tmp_path / "path5000.txt"
    f.write_text("5000\n" + "".join(f"{v} {v + 1}\n" for v in range(4999)))
    code, out, _ = run_cli(capsys, "compute", "--graph", f"@{f}", "--invariant", "bp", "--stable")
    assert code == 0
    assert json.loads(out)["value"] == 2


def test_compute_mut_of_a_long_path(capsys):
    code, out, err = run_cli(
        capsys, "compute", "--graph", "path:5000", "--invariant", "mut", "--witness", "--stable"
    )
    assert code == 0 and not err
    assert json.loads(out)["witness"] == [0, 4999]


def test_compute_oracle_memory_limit_exit_1(monkeypatch, capsys):
    monkeypatch.setattr(mutvis.visibility, "LEVEL_MASK_LIMIT", 10_000)
    code, out, err = run_cli(
        capsys, "compute", "--graph", "cp(path:2,path:30)", "--invariant", "mut"
    )
    assert (code, out) == (1, "")
    assert err.startswith("mutvis: ") and err.count("\n") == 1
    assert "limit of" in err and "order 60" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--count", "-1"),
        ("verify", "--max-n", "-1"),
        ("verify", "--cap-bp", "-1"),
        ("verify", "--cap-n", "-2"),
        ("compute", "--graph", "path:3", "--invariant", "mut", "--cap-bp", "-1"),
        ("compute", "--graph", "path:3", "--invariant", "mu", "--cap-n", "-1"),
    ],
)
def test_negative_numbers_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    flag, value = argv[-2:]
    assert err == f"mutvis: {flag} must not be negative, got {value}\n"


def test_count_above_the_limit_exits_2(capsys):
    # The bound is checked before any suite runs, so "list" shows it cheaply.
    code, out, err = run_cli(capsys, "verify", "--theorem", "list", "--count", str(MAX_COUNT))
    assert code == 0 and out and not err
    code, out, err = run_cli(capsys, "verify", "--count", str(MAX_COUNT + 1))
    assert (code, out) == (2, "")
    assert err == f"mutvis: --count must be at most {MAX_COUNT}, got {MAX_COUNT + 1}\n"


def test_compute_disconnected_exit_1(tmp_path, capsys):
    f = tmp_path / "disc.txt"
    f.write_text("4\n0 1\n2 3\n")
    code, _, err = run_cli(capsys, "compute", "--graph", f"@{f}", "--invariant", "mut")
    assert code == 1
    assert "connected" in err


def test_compute_bp_disconnected_exit_1(tmp_path, capsys):
    f = tmp_path / "disc.txt"
    f.write_text("3\n0 1\n")
    code, out, err = run_cli(capsys, "compute", "--graph", f"@{f}", "--invariant", "bp")
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and "connected" in err
    # The same one-line message as the other visibility invariants.
    assert run_cli(capsys, "compute", "--graph", f"@{f}", "--invariant", "mut") == (1, "", err)


def test_verify_single_suite(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--theorem", "fam:gm", "--format", "text", "--stable"
    )
    assert code == 0
    assert "4 pass, 0 fail, 0 skipped-cap" in out


def test_verify_json_summary(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--theorem", "prop:cp-complete-by-complete",
        "--format", "json", "--stable",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"]["fail"] == 0
    assert payload["summary"]["pass"] == len(payload["records"]) == 16
    assert all(r["status"] == "pass" for r in payload["records"])


def test_verify_csv_shape(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--theorem", "fam:sporadic", "--format", "csv", "--stable"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "theorem_id,instance,expected,observed,status"
    assert all(line.endswith("pass") for line in lines[1:])


VERIFY_ALL_ARGV = ("verify", "--theorem", "all", "--stable", "--format", "json", "--seed", "1000")
PINS = Path(__file__).resolve().parents[1] / "perfbench" / "pins.json"


@functools.lru_cache(maxsize=None)
def _verify_all_output(argv: tuple[str, ...] = VERIFY_ALL_ARGV) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0
    return out.getvalue()


def test_verify_all_bytes_match_the_benchmark_pin():
    # The benchmark's verify-all workload pins the digest of these bytes.
    pin = json.loads(PINS.read_text())[" ".join(VERIFY_ALL_ARGV)]
    digest = hashlib.sha256(_verify_all_output().encode()).hexdigest()
    assert pin["witness"] == "sha256:" + digest


# sha256 of `verify --theorem all --stable` at other seeds and formats.  A
# fixed digest also catches output that differs from run to run.
VERIFY_ALL_DIGESTS = {
    ("json", "0"): "9494e1b05fa26eb0e06da0be6ffd7de65b99790bfd3741c8b0c99a9bff94f68b",
    ("json", "2000"): "638bbddc9dd8b0f8335fef223984a1fe66e556ecc7155869294214c1aa650d20",
    ("csv", "0"): "0167dc1a65ee8d2ecc629afb83609948faed167736506c06a7fcd1f55f60196f",
    ("text", "0"): "5c2581cfe3845f83d40e1660950ab3d0ec3aad781b5d9e2aacc0dfecfae344c8",
}


@pytest.mark.parametrize(("fmt", "seed"), list(VERIFY_ALL_DIGESTS))
def test_verify_all_bytes_match_their_digest(fmt, seed):
    argv = ("verify", "--theorem", "all", "--stable", "--format", fmt, "--seed", seed)
    digest = hashlib.sha256(_verify_all_output(argv).encode()).hexdigest()
    assert digest == VERIFY_ALL_DIGESTS[fmt, seed]


def test_verify_random_instance_names_rebuild():
    names = {
        match.group(0): (int(match.group(1)), int(match.group(2)))
        for record in json.loads(_verify_all_output())["records"]
        for match in re.finditer(r"random:(\d+),(\d+)", record["instance"])
    }
    assert len(names) >= 32
    for name, (n, seed) in names.items():
        g = build(name)
        want = random_connected_graph(n, seed)
        assert (g.name, g.edges()) == (want.name, want.edges()), name


def test_verify_unknown_id(capsys):
    code, _, err = run_cli(capsys, "verify", "--theorem", "thm:bogus")
    assert code == 2
    assert "known suites" in err


def test_verify_list(capsys):
    code, out, _ = run_cli(capsys, "verify", "--theorem", "list")
    assert code == 0
    assert "cor:theta" in out.split()


def test_verify_failure_exit_code(monkeypatch, capsys):
    def broken(opts):
        yield "k1", "1", lambda: ("2", False)

    monkeypatch.setitem(mutvis.verify._SUITES, "test:broken", ("a failing stub", broken))
    code, out, _ = run_cli(capsys, "verify", "--theorem", "test:broken", "--format", "text")
    assert code == 1
    assert "0 pass, 1 fail" in out


def test_verify_cap_skips_do_not_fail_the_run(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--theorem", "fam:gm", "--cap-bp", "4", "--format", "text"
    )
    assert code == 0
    assert "[skipped-cap]" in out
    assert "0 fail" in out
    code, out, _ = run_cli(
        capsys, "verify", "--theorem", "fam:sandwich", "--cap-n", "3", "--format", "text"
    )
    assert code == 0
    assert "independence search cap 3" in out
    assert "0 fail" in out
    code, out, _ = run_cli(
        capsys, "verify", "--theorem", "thm:cp-bounds", "--cap-bp", "2", "--format", "text"
    )
    assert code == 0
    assert "[skipped-cap]" in out
    assert "0 fail" in out


def test_export_round_trip(tmp_path, capsys):
    out_file = tmp_path / "gm5.txt"
    code, _, _ = run_cli(capsys, "export", "--graph", "gm:5", "--out", str(out_file))
    assert code == 0
    g = parse_graph_file(out_file)
    assert g.order == 18
    assert g.name == "gm:5"
    assert out_file.read_text().startswith("# graph: gm:5\n18\n")


def test_export_header_is_the_canonical_name_on_one_line(tmp_path, capsys):
    cases = {
        "cp(path:3,\npath:2)": "cp(path:3,path:2)",
        "cp(cp(path:3,cycle:4),complete:2)": "cp(path:3,cycle:4,complete:2)",
    }
    anon = tmp_path / "two\nlines.txt"
    anon.write_text("2\n0 1\n")
    cases[f"@{anon}"] = "two lines.txt"
    for i, (spec, name) in enumerate(cases.items()):
        out_file = tmp_path / f"g{i}.txt"
        assert run_cli(capsys, "export", "--graph", spec, "--out", str(out_file))[0] == 0
        assert out_file.read_text().startswith(f"# graph: {name}\n")
        code, out, _ = run_cli(capsys, "info", "--graph", f"@{out_file}")
        assert code == 0
        assert out.startswith(f"name: {name}\n")


def test_export_bad_path_exit_2(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "export", "--graph", "path:3", "--out", str(tmp_path / "no" / "dir.txt")
    )
    assert code == 2 and err


@pytest.mark.parametrize(
    ("graph", "invariant", "value"),
    [("star:1200", "mut", 1200), ("star:1200", "muit", 1200), ("path:2100", "alpha", 1050)],
)
def test_deep_searches_answer_without_a_traceback(capsys, graph, invariant, value):
    # Each answer holds more vertices than Python's default recursion limit.
    limit = sys.getrecursionlimit()
    code, out, err = run_cli(
        capsys, "compute", "--graph", graph, "--invariant", invariant,
        "--cap-bp", "5000", "--cap-n", "5000", "--format", "text",
    )
    assert (code, out, err) == (0, f"{invariant}({graph}) = {value}\n", "")
    assert sys.getrecursionlimit() == limit


def test_info_text(capsys):
    code, out, _ = run_cli(capsys, "info", "--graph", "petersen")
    assert code == 0
    assert "order: 10" in out
    assert "girth: 5" in out
    assert "bp: 0" in out


def test_info_json_disconnected(tmp_path, capsys):
    f = tmp_path / "disc.txt"
    f.write_text("4\n0 1\n2 3\n")
    code, out, _ = run_cli(capsys, "info", "--graph", f"@{f}", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["connected"] is False
    assert payload["girth"] is None
    assert "bp" not in payload
