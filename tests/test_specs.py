from __future__ import annotations

import pytest

import mutvis.specs
from mutvis import Graph, SpecError, build, graph_of, parse_graph_file, write_graph_file
from mutvis.generators import cycle, g_m, petersen, theta
from mutvis.products import ProductGraph
from mutvis.specs import MAX_EDGES, MAX_ORDER, _parse, _size


def test_build_simple_families():
    assert graph_of(build("cycle:7")) == cycle(7)
    assert graph_of(build("petersen")) == petersen()
    assert graph_of(build(" path:3 ")).order == 3
    assert graph_of(build("gm:2")) == g_m(2)
    assert graph_of(build("randomtree:6,4")).num_edges == 5


def test_build_products():
    p = build("cp(complete:3,complete:5)")
    assert isinstance(p, ProductGraph)
    assert p.graph.order == 15
    assert p.factor_orders == (3, 5)
    q = build("cp(path:2,path:2,path:2)")
    assert q.graph.order == 8
    assert len(q.factors) == 3


def test_product_grammar_keeps_factor_parameters_together():
    p = build("cp(theta:2,2,4,theta:2,2,4)")
    assert p.factor_orders == (7, 7)
    assert p.factors[0] == theta((2, 2, 4))
    q = build("cp(gencomplete:1,1,complete:3)")
    assert q.factor_orders == (3, 3)
    r = build("cp(theta:2,2,4,cp(path:2,star:2))")
    assert r.factor_orders == (7, 2, 3)


def test_build_rejects_malformed_expressions():
    for text in (
        "",
        "unknown:3",
        "petersen:2",
        "path",
        "path:two",
        "path:3,4",
        "cp(path:3)",
        "cp(path:2,path:2,path:2,path:2)",
        "cp(path:2,)",
        "cp(path:2",
        "cp(path:3,(cycle:4)",
        "cp(path:3),cycle:4)",
        "cp(2,2,path:2)",
        "theta",
        "path:1_000",
        "path:\u0663",
        "path:+3",
    ):
        with pytest.raises(SpecError):
            build(text)


def test_build_limits_product_depth():
    deep = "cp(cp(cp(cp(path:2,path:2),path:2),path:2),path:2)"
    with pytest.raises(SpecError):
        build(deep)
    ok = "cp(cp(cp(path:2,path:2),path:2),path:2)"
    assert build(ok).graph.order == 16


def test_predicted_sizes_match_built_graphs():
    for spec in (
        "path:6", "cycle:5", "complete:4", "biclique:2,3", "star:4",
        "theta:1,2,3", "theta:2,2,4", "gencomplete:1,2,3", "gm:5", "petersen",
        "fig1", "fig2", "randomtree:7,3", "cp(complete:2,complete:3)",
        "cp(path:3,cycle:4,gm:1)", "cp(theta:2,2,4,cp(path:2,star:2))",
    ):
        g = graph_of(build(spec))
        assert _size(_parse(spec, 1)) == (g.order, g.num_edges), spec


def test_build_refuses_oversized_expressions_before_building(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a graph was built")

    monkeypatch.setattr(Graph, "__init__", refuse)
    for text, limit in (
        ("path:99999999", f"limit of {MAX_ORDER}"),
        ("complete:700", f"limit of {MAX_EDGES}"),
        ("cp(path:100,path:100)", f"limit of {MAX_ORDER}"),
        ("cp(complete:60,complete:60)", f"limit of {MAX_EDGES}"),
        ("cp(path:2,gencomplete:99999999)", f"limit of {MAX_ORDER}"),
    ):
        with pytest.raises(SpecError, match=limit):
            build(text)


def test_build_accepts_the_largest_order():
    assert graph_of(build(f"path:{MAX_ORDER}")).order == MAX_ORDER
    with pytest.raises(SpecError):
        build(f"path:{MAX_ORDER + 1}")


def test_parse_graph_file(tmp_path):
    f = tmp_path / "square.txt"
    f.write_text("# graph: my square\n\n4\n0 1\n1 2\n2 3\n3 0\n1 0\n")
    g = parse_graph_file(f)
    assert g == cycle(4)
    assert g.name == "my square"


def test_parse_graph_file_defaults_name_to_basename(tmp_path):
    f = tmp_path / "plain.txt"
    f.write_text("2\n0 1\n")
    assert parse_graph_file(f).name == "plain.txt"


def test_parse_graph_file_errors(tmp_path):
    cases = [
        ("3\n0 3\n", "out of range"),
        ("3\n1 1\n", "self-loop"),
        ("3\n0 1 2\n", ""),
        ("0\n", "vertex count must be positive"),
        ("zero\n0 1\n", ""),
        ("", ""),
        ("# only a comment\n", ""),
        ("\u00b2\n0 1\n", "vertex count"),
        ("2\n0 \u00b2\n", "expected an edge"),
        ("99999999\n0 1\n", f"1: 99999999 vertices, above the limit of {MAX_ORDER}"),
        (f"# header\n{MAX_ORDER + 1}\n", f"2: {MAX_ORDER + 1} vertices, above the limit of {MAX_ORDER}"),
        ("9" * 5000 + "\n0 1\n", "expected a vertex count"),
        ("3\n0 " + "9" * 5000 + "\n", "expected an edge"),
    ]
    for i, (content, fragment) in enumerate(cases):
        f = tmp_path / f"bad{i}.txt"
        f.write_text(content, encoding="utf-8")
        with pytest.raises(SpecError) as err:
            parse_graph_file(f)
        assert fragment in str(err.value)


def test_parse_graph_file_limits(tmp_path, monkeypatch):
    f = tmp_path / "largest.txt"
    f.write_text(f"{MAX_ORDER}\n0 1\n")
    assert parse_graph_file(f).order == MAX_ORDER
    # The edge limit is read at call time; a small one keeps the file small.
    monkeypatch.setattr(mutvis.specs, "MAX_EDGES", 3)
    f = tmp_path / "edges.txt"
    f.write_text("5\n0 1\n1 2\n2 3\n3 4\n")
    with pytest.raises(SpecError) as err:
        parse_graph_file(f)
    assert str(err.value) == f"{f}:5: edge 4, above the limit of 3"
    f.write_text("5\n0 1\n1 2\n2 3\n")
    assert parse_graph_file(f).num_edges == 3


def test_parse_error_reports_line_numbers(tmp_path):
    f = tmp_path / "late.txt"
    f.write_text("# header\n4\n0 1\n0 9\n")
    with pytest.raises(SpecError) as err:
        parse_graph_file(f)
    assert ":4:" in str(err.value)


def test_round_trip_each_family(tmp_path):
    specs = [
        "path:6", "cycle:5", "complete:4", "biclique:2,3", "star:4",
        "theta:2,2,4", "gencomplete:1,2", "gm:5", "petersen", "fig1",
        "fig2", "randomtree:7,3", "cp(complete:2,complete:2)",
    ]
    for i, spec in enumerate(specs):
        g = graph_of(build(spec))
        f = tmp_path / f"g{i}.txt"
        write_graph_file(g, f)
        back = parse_graph_file(f)
        assert back == g
        assert back.name == spec


def test_export_header_is_optional(tmp_path):
    g = Graph(2, [(0, 1)])
    f = tmp_path / "anon.txt"
    write_graph_file(g, f)
    assert not f.read_text().startswith("#")
    assert parse_graph_file(f) == g
