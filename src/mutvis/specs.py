"""Compact graph expressions and the plain-text edge-list file format.

An expression names either a generator family with its parameters
(``cycle:5``, ``theta:2,2,4``, ``randomtree:8,42``) or a Cartesian product
of expressions (``cp(complete:3,complete:5)``, nesting allowed to depth 3).
An expression above MAX_ORDER vertices or MAX_EDGES edges is refused
before anything is built; the counts follow from the parameters alone.
The file format is line-based: ``#`` starts a comment, the first
significant line is the vertex count, every following line is one edge
``u v``; a file whose count is above MAX_ORDER or that has more than
MAX_EDGES edge lines is refused at that line, before the graph is built.
Exported files carry a ``# graph: <name>`` header, the graph's canonical
expression or its file's name, so they can be traced back to their source.
"""

from __future__ import annotations

import os
from functools import partial
from math import prod
from typing import Callable, NamedTuple, Sequence

from . import generators
from .errors import SpecError
from .graph import Graph
from .products import ProductGraph, k_fold_product

MAX_PRODUCT_DEPTH = 3
MAX_ORDER = 5000
MAX_EDGES = 200_000

# family -> (constructor, parameter count, (order, edges) from the
# parameters).  A count of None means the parameters form one list, which
# the constructor takes as a single argument.
_FAMILIES: dict[str, tuple[Callable[..., Graph], int | None, Callable[..., tuple[int, int]]]] = {
    "petersen": (generators.petersen, 0, lambda: (10, 15)),
    "fig1": (generators.fig1, 0, lambda: (12, 15)),
    "fig2": (generators.fig2, 0, lambda: (10, 15)),
    "path": (generators.path, 1, lambda n: (n, n - 1)),
    "cycle": (generators.cycle, 1, lambda n: (n, n)),
    "complete": (generators.complete, 1, lambda n: (n, n * (n - 1) // 2)),
    "star": (generators.star, 1, lambda k: (k + 1, k)),
    "gm": (generators.g_m, 1, lambda m: (3 * m + 3, 4 * m + 2)),
    "biclique": (generators.biclique, 2, lambda a, b: (a + b, a * b)),
    "randomtree": (generators.random_tree, 2, lambda n, seed: (n, n - 1)),
    # The edge count depends on the seed; n(n-1)/2 bounds it.
    "random": (generators.random_connected_graph, 2, lambda n, seed: (n, n * (n - 1) // 2)),
    "theta": (
        generators.theta,
        None,
        lambda lengths: (2 + sum(max(p - 1, 0) for p in lengths), sum(lengths)),
    ),
    "gencomplete": (
        generators.generalized_complete,
        None,
        lambda sizes: (1 + sum(sizes), sum(s * (s + 1) // 2 for s in sizes)),
    ),
}


class _Family(NamedTuple):
    """One generator call, with the size it will have, not yet built."""

    make: Callable[[], Graph]
    order: int
    edges: int


def build(text: str):
    """Parse an expression and construct its graph.

    Returns a Graph, or a ProductGraph for ``cp(...)`` expressions; use
    :func:`graph_of` when only the plain graph is wanted.  Nested products
    are flattened into one multi-factor product, which assigns the same
    vertex ids as building them pairwise.  The vertex and edge counts are
    worked out from the parameters first: an expression above
    ``MAX_ORDER`` vertices or ``MAX_EDGES`` edges raises SpecError before
    any graph is built.
    """
    factors = _parse(text, 1)
    if len(factors) == 1:
        return factors[0].make()
    _check_size(*_size(factors), text.strip())
    return k_fold_product([f.make() for f in factors])


def _parse(text: str, depth: int) -> list[_Family]:
    """The factors of an expression; a family is a list of one."""
    text = text.strip()
    if not text:
        raise SpecError("empty graph expression")
    if text.startswith("cp(") and text.endswith(")"):
        if depth > MAX_PRODUCT_DEPTH:
            raise SpecError(f"products nest at most {MAX_PRODUCT_DEPTH} deep: {text!r}")
        parts = _split_args(text[3:-1], text)
        if len(parts) not in (2, 3):
            raise SpecError(f"cp() takes 2 or 3 factors, got {len(parts)}: {text!r}")
        return [f for part in parts for f in _parse(part, depth + 1)]
    head, sep, tail = text.partition(":")
    head = head.strip()
    entry = _FAMILIES.get(head)
    if entry is None:
        raise SpecError(f"unknown graph family {head!r}")
    make, arity, size = entry
    if arity == 0:
        if sep:
            raise SpecError(f"family {head!r} takes no parameters")
        args: tuple = ()
    elif not sep:
        raise SpecError(f"family {head!r} needs parameters: {text!r}")
    else:
        params = _int_params(tail, text)
        if arity is None:
            args = (params,)
        else:
            _arity(head, params, arity, text)
            args = tuple(params)
    order, edges = size(*args)
    _check_size(order, edges, text)
    return [_Family(partial(make, *args), order, edges)]


def _size(factors: list[_Family]) -> tuple[int, int]:
    """Order and edge count of the product of ``factors``, without building it."""
    # |E(G1 x ... x Gk)| is the sum over i of |E(Gi)| times the other orders.
    edges = sum(
        f.edges * prod(g.order for j, g in enumerate(factors) if j != i)
        for i, f in enumerate(factors)
    )
    return prod(f.order for f in factors), edges


def _check_size(order: int, edges: int, text: str) -> None:
    if order > MAX_ORDER:
        raise SpecError(f"{text!r} has {order} vertices, above the limit of {MAX_ORDER}")
    if edges > MAX_EDGES:
        raise SpecError(f"{text!r} has {edges} edges, above the limit of {MAX_EDGES}")


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
        # ASCII digits only, as in graph files: int() alone also takes
        # '1_000', '+3' and '٣'.  A '-' stays, for the families' own messages.
        digits = piece.removeprefix("-")
        try:
            if not (digits.isascii() and digits.isdigit()):
                raise ValueError(piece)
            out.append(int(piece))
        except ValueError:  # also a number past int()'s digit limit
            raise SpecError(f"bad integer parameter {piece!r} in {whole!r}") from None
    return out


def _arity(head: str, params: Sequence[int], want: int, whole: str) -> None:
    if len(params) != want:
        raise SpecError(
            f"family {head!r} takes {want} parameter{'s' if want != 1 else ''},"
            f" got {len(params)}: {whole!r}"
        )


def _is_count(field: str) -> bool:
    # str.isdigit alone accepts characters such as '²' that int() rejects,
    # and int() refuses strings of more than 4,300 digits; 18 digits are
    # far above any limit and still compare against it.
    return field.isascii() and field.isdigit() and len(field) <= 18


def parse_graph_file(path: str | os.PathLike) -> Graph:
    """Read an edge-list file; the graph is named by its ``# graph:``
    header when present, else by the file's base name.  A byte that is not
    UTF-8 reads as U+FFFD, so a count or an edge holding one is refused."""
    name = os.path.basename(os.fspath(path))
    order: int | None = None
    edges: list[tuple[int, int]] = []
    with open(path, encoding="utf-8", errors="replace") as fh:
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
                if order > MAX_ORDER:
                    raise SpecError(f"{path}:{lineno}: {order} vertices, above the limit of {MAX_ORDER}")
                continue
            if len(edges) == MAX_EDGES:
                raise SpecError(f"{path}:{lineno}: edge {MAX_EDGES + 1}, above the limit of {MAX_EDGES}")
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


def write_graph_file(g: Graph, path: str | os.PathLike) -> None:
    """Write ``g`` in the edge-list format, headed by its name so it
    round-trips; whitespace runs in the name become one space, since the
    header is one line."""
    lines = []
    name = " ".join(g.name.split())
    if name:
        lines.append(f"# graph: {name}")
    lines.append(str(g.order))
    lines += [f"{u} {v}" for u, v in g.edges()]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
