"""Finite directed multigraphs: the text format, predicates, and adjacency.

A graph is a finite set of vertices plus a finite set of named edges.  The
*order in which vertices are declared is part of the graph's identity*:
every adjacency matrix row/column, every coordinate vector, and every
report downstream indexes vertices in declaration order.  Edge order is
likewise declaration order.

Text format (line oriented, ``#`` starts a comment)::

    graph penrose
    vertex 1
    vertex 2
    edge a : 1 -> 1
    edge b : 1 -> 2
    edge c : 2 -> 1

``vertex`` lines may list several identifiers.  The edge name (``a :``) is
optional; unnamed edges are assigned ``e1``, ``e2``, ... counting unnamed
edges in declaration order.  Identifiers match ``[A-Za-z0-9_]+``.

``Graph(...)`` and :func:`parse_graph` validate; the parser checks each
line as it reads it and so builds its result with ``Graph._trusted`` and
its edges with ``tuple.__new__(Edge, ...)``, skipping Edge's Python-level
constructor, as do the graphs derived from valid ones (``ops.product``,
``ops.line_graph``, ``ops.quotient_graph``) and the catalog's families and
universe, whose identifiers are made from integers and fixed literals.

A graph stores only its name, vertices and edges when it is made.  Its four
lookup indices (vertex position, edge by id, out-edges and in-edges) are
built together by ``Graph._index`` on the first read that needs one, so a
graph that is only enumerated, compared or serialized never builds them.
Only this module reads the index slots.
"""

from __future__ import annotations

import re
from typing import Iterable, NamedTuple

from .errors import CertificateError, GuardError, ParseError

_ID_RE = re.compile(r"[A-Za-z0-9_]+\Z")
_GRAPH_RE = re.compile(r"graph\s+([A-Za-z0-9_]+)\s*\Z")
_VERTEX_RE = re.compile(r"vertex\s+(.+?)\s*\Z")
_EDGE_RE = re.compile(
    r"edge\s+(?:([A-Za-z0-9_]+)\s*:\s*)?([A-Za-z0-9_]+)\s*->\s*([A-Za-z0-9_]+)\s*\Z"
)


class Edge(NamedTuple):
    eid: str
    src: str
    dst: str


def _check_id(kind: str, name: str) -> None:
    if not _ID_RE.match(name):
        raise ValueError(f"invalid {kind} identifier {name!r} (expected [A-Za-z0-9_]+)")


class Graph:
    """An immutable finite directed multigraph with ordered vertices.

    ``Graph(...)`` checks the name, each vertex (identifier, duplicate) and
    each edge (identifier, duplicate id, source, range), in that order.
    It and ``Graph._trusted`` set only ``name``, ``vertices`` and ``edges``;
    the index slots stay unset until the first accessor that reads one
    calls ``_index``.
    """

    __slots__ = ("name", "vertices", "edges", "_vindex", "_eindex", "_out", "_in")

    def __init__(self, name: str, vertices: Iterable[str], edges: Iterable[tuple]):
        _check_id("graph", name)
        vertices = tuple(vertices)
        edges = tuple(Edge(*e) for e in edges)
        seen: set[str] = set()
        for v in vertices:
            _check_id("vertex", v)
            if v in seen:
                raise ValueError(f"duplicate vertex {v!r}")
            seen.add(v)
        eids: set[str] = set()
        for e in edges:
            _check_id("edge", e.eid)
            if e.eid in eids:
                raise ValueError(f"duplicate edge identifier {e.eid!r}")
            if e.src not in seen:
                raise ValueError(f"edge {e.eid!r} has undeclared source vertex {e.src!r}")
            if e.dst not in seen:
                raise ValueError(f"edge {e.eid!r} has undeclared range vertex {e.dst!r}")
            eids.add(e.eid)
        self.name = name
        self.vertices = vertices
        self.edges = edges

    @classmethod
    def _trusted(cls, name: str, vertices: Iterable[str], edges: Iterable[Edge]) -> "Graph":
        """A graph from identifiers already known valid, unique and declared."""
        g = cls.__new__(cls)
        g.name = name
        g.vertices = tuple(vertices)
        g.edges = tuple(edges)
        return g

    def _index(self) -> "Graph":
        """Build the four indices on first call; later calls do nothing."""
        if hasattr(self, "_in"):  # the last of the four to be set
            return self
        vertices, edges = self.vertices, self.edges
        self._vindex = {v: i for i, v in enumerate(vertices)}
        self._eindex = {e.eid: e for e in edges}
        out: dict[str, list[Edge]] = {v: [] for v in vertices}
        into: dict[str, list[Edge]] = {v: [] for v in vertices}
        for e in edges:
            out[e.src].append(e)
            into[e.dst].append(e)
        self._out = {v: tuple(es) for v, es in out.items()}
        self._in = {v: tuple(es) for v, es in into.items()}
        return self

    # -- basic accessors -------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    # each accessor reads its index and, on a fresh graph, builds the indices
    # and asks again

    def vertex_index(self, v: str) -> int:
        try:
            return self._vindex[v]
        except KeyError:
            raise ValueError(f"unknown vertex {v!r} in graph {self.name!r}") from None
        except AttributeError:
            return self._index().vertex_index(v)

    def has_vertex(self, v: str) -> bool:
        try:
            return v in self._vindex
        except AttributeError:
            return v in self._index()._vindex

    def has_edge(self, eid: str) -> bool:
        try:
            return eid in self._eindex
        except AttributeError:
            return eid in self._index()._eindex

    def edge(self, eid: str) -> Edge:
        try:
            return self._eindex[eid]
        except KeyError:
            raise ValueError(f"unknown edge {eid!r} in graph {self.name!r}") from None
        except AttributeError:
            return self._index().edge(eid)

    def out_edges(self, v: str) -> tuple[Edge, ...]:
        try:
            return self._out[v]
        except KeyError:
            raise ValueError(f"unknown vertex {v!r} in graph {self.name!r}") from None
        except AttributeError:
            return self._index().out_edges(v)

    def in_edges(self, v: str) -> tuple[Edge, ...]:
        try:
            return self._in[v]
        except KeyError:
            raise ValueError(f"unknown vertex {v!r} in graph {self.name!r}") from None
        except AttributeError:
            return self._index().in_edges(v)

    def in_degree(self, v: str) -> int:
        return len(self.in_edges(v))

    def is_sink(self, v: str) -> bool:
        return not self.out_edges(v)

    def sinks(self) -> tuple[str, ...]:
        out = self._index()._out
        return tuple(v for v in self.vertices if not out[v])

    def sources(self) -> tuple[str, ...]:
        into = self._index()._in
        return tuple(v for v in self.vertices if not into[v])

    def regular_vertices(self) -> tuple[str, ...]:
        """Vertices that emit at least one edge (all vertex sets are finite)."""
        out = self._index()._out
        return tuple(v for v in self.vertices if out[v])

    # -- identity --------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.name == other.name
            and self.vertices == other.vertices
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.name, self.vertices, self.edges))

    def __repr__(self) -> str:
        return (
            f"Graph({self.name!r}, |V|={len(self.vertices)}, |E|={len(self.edges)})"
        )


# the most edges a catalog graph or a derived graph (``ops.product``,
# ``ops.line_graph``) may have; each reads its count before the first edge is made
MAX_EDGES = 10**6


def check_edge_count(what: str, count: int) -> None:
    """Refuse with :class:`GuardError` a graph of more than ``MAX_EDGES`` edges."""
    if count > MAX_EDGES:
        raise GuardError(f"{what} would have {count} edges, more than the guard of {MAX_EDGES}")


# -- parsing and serialization -------------------------------------------


def parse_graph(text: str) -> Graph:
    """Parse the line-oriented graph format; see the module docstring.

    Raises :class:`ParseError` with a 1-based line number on bad input.
    """
    name: str | None = None
    vertices: list[str] = []
    seen_vertices: set[str] = set()
    # (lineno, eid-or-None, src, dst); auto ids are assigned afterwards
    raw_edges: list[tuple[int, str | None, str, str]] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        keyword = line.split(None, 1)[0]
        if keyword == "graph":
            m = _GRAPH_RE.match(line)
            if not m:
                raise ParseError("malformed graph declaration", lineno)
            if name is not None:
                raise ParseError("multiple graph declarations", lineno)
            name = m.group(1)
        elif keyword == "vertex":
            m = _VERTEX_RE.match(line)
            if not m:
                raise ParseError("malformed vertex declaration", lineno)
            for v in m.group(1).split():
                if not _ID_RE.match(v):
                    raise ParseError(f"invalid vertex identifier {v!r}", lineno)
                if v in seen_vertices:
                    raise ParseError(f"duplicate vertex {v!r}", lineno)
                seen_vertices.add(v)
                vertices.append(v)
        elif keyword == "edge":
            m = _EDGE_RE.match(line)
            if not m:
                raise ParseError("malformed edge declaration", lineno)
            raw_edges.append((lineno, m.group(1), m.group(2), m.group(3)))
        else:
            raise ParseError(f"unknown statement {keyword!r}", lineno)

    if name is None:
        raise ParseError("missing graph declaration")

    edges: list[Edge] = []
    seen_eids: set[str] = set()
    auto_counter = 0
    for lineno, eid, src, dst in raw_edges:
        if eid is None:
            auto_counter += 1
            eid = f"e{auto_counter}"
        if eid in seen_eids:
            raise ParseError(f"duplicate edge identifier {eid!r}", lineno)
        seen_eids.add(eid)
        if src not in seen_vertices:
            raise ParseError(f"edge {eid!r} references undeclared vertex {src!r}", lineno)
        if dst not in seen_vertices:
            raise ParseError(f"edge {eid!r} references undeclared vertex {dst!r}", lineno)
        edges.append(tuple.__new__(Edge, (eid, src, dst)))

    return Graph._trusted(name, vertices, edges)


def serialize_graph(g: Graph) -> str:
    """Serialize so that ``parse_graph(serialize_graph(g)) == g``.

    Vertex and edge declaration order is preserved; every edge identifier
    is written explicitly (auto-assigned ids survive the round trip).
    """
    lines = [f"graph {g.name}"]
    lines.extend(f"vertex {v}" for v in g.vertices)
    lines.extend(f"edge {e.eid} : {e.src} -> {e.dst}" for e in g.edges)
    return "\n".join(lines) + "\n"


# -- adjacency ------------------------------------------------------------


def adjacency(g: Graph):
    """Vertex adjacency matrix: entry (i, j) counts edges from vertex i to j.

    Rows and columns follow vertex declaration order.
    """
    from .linalg import Matrix

    n = g.n_vertices
    rows = [[0] * n for _ in range(n)]
    vindex = g._index()._vindex
    for e in g.edges:
        rows[vindex[e.src]][vindex[e.dst]] += 1
    return Matrix._trusted(tuple(map(tuple, rows)))


# -- structural classification --------------------------------------------


class GraphReport(NamedTuple):
    """Structural facts about a graph, all in vertex declaration order."""

    name: str
    n_vertices: int
    n_edges: int
    sinks: tuple[str, ...]
    sources: tuple[str, ...]
    regular: tuple[str, ...]
    is_functional: bool
    is_transposed_functional: bool
    is_connected: bool
    directed_cycle_count: int
    is_cycle_graph: bool


def _is_connected(g: Graph) -> bool:
    # connectivity through undirected walks; the empty graph is not connected
    if g.n_vertices == 0:
        return False
    neighbours: dict[str, set[str]] = {v: set() for v in g.vertices}
    for e in g.edges:
        neighbours[e.src].add(e.dst)
        neighbours[e.dst].add(e.src)
    seen = {g.vertices[0]}
    frontier = [g.vertices[0]]
    while frontier:
        v = frontier.pop()
        for w in neighbours[v]:
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return len(seen) == g.n_vertices


def directed_cycle_count(g: Graph) -> int:
    """Number of simple directed cycles, counted up to cyclic rotation.

    A cycle is a closed directed walk that repeats no vertex except for
    returning to the start; parallel edges give distinct cycles, and a loop
    is a cycle of length one.  Each cycle is counted once, rooted at its
    vertex of minimal declaration index.

    Every vertex of a cycle rooted at ``s`` comes after ``s`` and returns
    to ``s`` along the rest of the cycle, so (after Johnson 1975) the
    depth-first search from ``s`` only enters ``back``: the vertices after
    ``s`` that reach ``s`` through vertices after ``s``, found by one
    reverse walk over ``in_edges``.  The reverse walk costs the in-edges of
    ``s`` and ``back``; the search costs the out-edges of each simple path
    inside ``back``.  A start on no cycle through a later vertex costs only
    its own in- and out-edges, so ``sigma:n`` (loops on a triangular
    order) and ``cycle:n`` each take O(n + m) steps, where searching every
    increasing path took about 2^n and n^2.  Graphs with many cycles, such
    as ``full:n``, stay exponential.
    """
    vindex = g._index()._vindex
    count = 0

    def extend(current: str, start: str, back: set[str]) -> int:
        found = 0
        for e in g.out_edges(current):
            w = e.dst
            if w == start:
                found += 1
            elif w in back:
                back.discard(w)
                found += extend(w, start, back)
                back.add(w)
        return found

    for start_i, start in enumerate(g.vertices):
        back: set[str] = set()
        frontier = [start]
        while frontier:
            for e in g.in_edges(frontier.pop()):
                u = e.src
                if vindex[u] > start_i and u not in back:
                    back.add(u)
                    frontier.append(u)
        count += extend(start, start, back)
    return count


def classify(g: Graph) -> GraphReport:
    """Compute the structural report used by the CLI and the suites."""
    g._index()
    functional = all(len(g._out[v]) <= 1 for v in g.vertices)
    t_functional = all(len(g._in[v]) <= 1 for v in g.vertices)
    connected = _is_connected(g)
    cycles = directed_cycle_count(g)
    # a cycle graph: connected and every vertex has out- and in-degree one
    cycle_graph = (
        connected
        and g.n_vertices > 0
        and all(len(g._out[v]) == 1 and len(g._in[v]) == 1 for v in g.vertices)
    )
    if cycle_graph and cycles != 1:
        raise CertificateError(f"cycle graph {g.name!r} reported {cycles} cycles")
    return GraphReport(
        name=g.name,
        n_vertices=g.n_vertices,
        n_edges=g.n_edges,
        sinks=g.sinks(),
        sources=g.sources(),
        regular=g.regular_vertices(),
        is_functional=functional,
        is_transposed_functional=t_functional,
        is_connected=connected,
        directed_cycle_count=cycles,
        is_cycle_graph=cycle_graph,
    )


# -- walks ----------------------------------------------------------------
#
# A walk of length k is a flat tuple (v0, e1, v1, ..., ek, vk) alternating
# vertices and edge ids, with s(e_i) = v_{i-1} and r(e_i) = v_i.  A walk of
# length 0 is (v0,).


def walk_edges(walk: tuple) -> tuple:
    return walk[1::2]


def directed_walks(g: Graph, k: int) -> list[tuple]:
    """All directed walks of length ``k``, in deterministic order.

    Order: by start vertex declaration order, then by edge declaration
    order at each successive step.
    """
    if k < 0:
        raise ValueError(f"walk length must be nonnegative, got {k}")
    out = g._index()._out
    walks: list[tuple] = [(v,) for v in g.vertices]
    for _ in range(k):
        walks = [w + (e.eid, e.dst) for w in walks for e in out[w[-1]]]
    return walks

