"""Compact graph expressions and the plain-text edge-list file format.

An expression names either a generator family with its parameters
(``cycle:5``, ``theta:2,2,4``, ``randomtree:8,42``) or a Cartesian product
of expressions (``cp(complete:3,complete:5)``, nesting allowed to depth 3).
The file format is line-based: ``#`` starts a comment, the first
significant line is the vertex count, every following line is one edge
``u v``.  Exported files carry a ``# graph: <expression>`` header so they
can be traced back to the expression that produced them.
"""

from __future__ import annotations

import os
from typing import Sequence

from . import generators
from .errors import SpecError
from .graph import Graph
from .products import ProductGraph, k_fold_product

MAX_PRODUCT_DEPTH = 3

_NO_ARG = {
    "petersen": generators.petersen,
    "fig1": generators.fig1,
    "fig2": generators.fig2,
}
_ONE_ARG = {
    "path": generators.path,
    "cycle": generators.cycle,
    "complete": generators.complete,
    "star": generators.star,
    "gm": generators.g_m,
}


def build(text: str, _depth: int = 1):
    """Parse an expression and construct its graph.

    Returns a Graph, or a ProductGraph for ``cp(...)`` expressions; use
    :func:`graph_of` when only the plain graph is wanted.  Nested products
    are flattened into one multi-factor product, which assigns the same
    vertex ids as building them pairwise.
    """
    text = text.strip()
    if not text:
        raise SpecError("empty graph expression")
    if text.startswith("cp(") and text.endswith(")"):
        if _depth > MAX_PRODUCT_DEPTH:
            raise SpecError(f"products nest at most {MAX_PRODUCT_DEPTH} deep: {text!r}")
        parts = _split_args(text[3:-1], text)
        if len(parts) not in (2, 3):
            raise SpecError(f"cp() takes 2 or 3 factors, got {len(parts)}: {text!r}")
        factors: list[Graph] = []
        for part in parts:
            built = build(part, _depth + 1)
            if isinstance(built, ProductGraph):
                factors.extend(built.factors)
            else:
                factors.append(built)
        return k_fold_product(factors)
    head, sep, tail = text.partition(":")
    head = head.strip()
    if not sep:
        fn = _NO_ARG.get(head)
        if fn is None:
            raise SpecError(f"unknown graph family {head!r}")
        return fn()
    if head in _NO_ARG:
        raise SpecError(f"family {head!r} takes no parameters")
    params = _int_params(tail, text)
    if head in _ONE_ARG:
        _arity(head, params, 1, text)
        return _ONE_ARG[head](params[0])
    if head == "biclique":
        _arity(head, params, 2, text)
        return generators.biclique(params[0], params[1])
    if head == "randomtree":
        _arity(head, params, 2, text)
        return generators.random_tree(params[0], params[1])
    if head == "theta":
        return generators.theta(params)
    if head == "gencomplete":
        return generators.generalized_complete(params)
    raise SpecError(f"unknown graph family {head!r}")


def graph_of(obj) -> Graph:
    """The plain Graph behind a build() result."""
    return obj.graph if isinstance(obj, ProductGraph) else obj


def _split_args(inner: str, whole: str) -> list[str]:
    # Factor parameters share the comma with the factor separator, as in
    # cp(theta:2,2,4,complete:3).  Family names start with a letter and
    # parameters with a digit, so a new factor begins exactly at a
    # depth-zero segment whose first character is alphabetic.
    segments: list[str] = []
    depth = 0
    start = 0
    for i, ch in enumerate(inner):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise SpecError(f"unbalanced parentheses in {whole!r}")
        elif ch == "," and depth == 0:
            segments.append(inner[start:i])
            start = i + 1
    if depth:
        raise SpecError(f"unbalanced parentheses in {whole!r}")
    segments.append(inner[start:])
    if any(not s.strip() for s in segments):
        raise SpecError(f"empty factor in {whole!r}")
    parts: list[str] = []
    for segment in segments:
        if segment.strip()[0].isalpha() or not parts:
            parts.append(segment)
        else:
            parts[-1] += "," + segment
    return parts


def _int_params(tail: str, whole: str) -> list[int]:
    out = []
    for piece in tail.split(","):
        piece = piece.strip()
        try:
            out.append(int(piece))
        except ValueError:
            raise SpecError(f"bad integer parameter {piece!r} in {whole!r}") from None
    return out


def _arity(head: str, params: Sequence[int], want: int, whole: str) -> None:
    if len(params) != want:
        raise SpecError(
            f"family {head!r} takes {want} parameter{'s' if want != 1 else ''},"
            f" got {len(params)}: {whole!r}"
        )


def _is_count(field: str) -> bool:
    # str.isdigit alone accepts characters such as '²' that int() rejects.
    return field.isascii() and field.isdigit()


def parse_graph_file(path: str | os.PathLike) -> Graph:
    """Read an edge-list file; the graph is named by its ``# graph:``
    header when present, else by the file's base name."""
    name = os.path.basename(os.fspath(path))
    order: int | None = None
    edges: list[tuple[int, int]] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if line.startswith("#"):
                body = line[1:].strip()
                if body.startswith("graph:"):
                    name = body[len("graph:"):].strip() or name
                continue
            if not line:
                continue
            fields = line.split()
            if order is None:
                if len(fields) != 1 or not _is_count(fields[0]):
                    raise SpecError(f"{path}:{lineno}: expected a vertex count, got {line!r}")
                order = int(fields[0])
                if order < 1:
                    raise SpecError(f"{path}:{lineno}: vertex count must be positive")
                continue
            if len(fields) != 2 or not all(_is_count(f) for f in fields):
                raise SpecError(f"{path}:{lineno}: expected an edge 'u v', got {line!r}")
            u, v = int(fields[0]), int(fields[1])
            if u == v:
                raise SpecError(f"{path}:{lineno}: self-loop at vertex {u}")
            if not (u < order and v < order):
                raise SpecError(f"{path}:{lineno}: vertex id out of range for order {order}")
            edges.append((u, v))
    if order is None:
        raise SpecError(f"{path}: no vertex count found")
    return Graph(order, edges, name=name)


def write_graph_file(g: Graph, path: str | os.PathLike, label: str = "") -> None:
    """Write ``g`` in the edge-list format, labeled so it round-trips."""
    lines = []
    if label or g.name:
        lines.append(f"# graph: {label or g.name}")
    lines.append(str(g.order))
    lines += [f"{u} {v}" for u, v in g.edges()]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
