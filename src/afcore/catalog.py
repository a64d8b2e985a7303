"""Named graph families, their expected facts, and the small-graph universe.

The catalog is one table of :class:`CatalogEntry` records, one per family.
Each declares its parameters as ``(name, converter, default)`` and carries
its builder, its edge count and its other closed-form facts, all called with
the same resolved keyword parameters.  The families are the recurring examples:

* ``penrose`` — two vertices, a loop at the first, and opposite edges;
  adjacency ``[[1,1],[1,0]]`` (Fibonacci dynamics).
* ``sigma:n`` — vertices ``1..n`` and one edge ``i -> j`` for every
  ``i <= j`` (the quantum odd-sphere / projective-space graph).
* ``cuntz:n`` (alias ``bouquet:n``) — one vertex with ``n`` loops.
* ``chambers:k`` — a hub with a loop and an edge to each of ``k`` sink
  chambers (the multichamber quantum-sphere family; ``k = 1`` is the
  Toeplitz graph).
* ``lens:k`` — ``chambers:k`` with a loop added at every chamber
  (quantum lens spaces; ``k = 1`` is quantum SU(2)).
* ``cycle:n`` — the directed ``n``-cycle.
* ``full:n`` — the complete directed graph with loops.
* ``tadpole`` — an edge into a loop (Toeplitz-like with a source).

:func:`build`, :func:`build_token` and :func:`verify_entry` share one name lookup
and one parameter resolver; a build of more than ``graphs.MAX_EDGES`` edges is
refused with ``GuardError`` before it starts.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

from . import graphs, linalg
from .graphs import Edge, Graph
from .report import CheckReport

_REQUIRED = object()


def _param_help(declared: tuple) -> str:
    return ", ".join(
        f"{pname}:{conv.__name__}" + ("" if default is _REQUIRED else f"={default!r}")
        for pname, conv, default in declared
    )


def _resolve(owner: str, declared: tuple, given: dict) -> dict:
    """Keyword arguments for ``owner`` from ``given``, checked and converted
    against its ``(name, converter, default-or-_REQUIRED)`` declarations."""
    for key in given:
        if key not in {pname for pname, _, _ in declared}:
            raise ValueError(
                f"{owner} takes parameters ({_param_help(declared)}), "
                f"got unexpected {key!r}"
            )
    kwargs = {}
    for pname, conv, default in declared:
        if pname in given:
            try:
                kwargs[pname] = conv(given[pname])
            except (TypeError, ValueError):
                raise ValueError(
                    f"{owner} parameter {pname!r} must be an {conv.__name__}, "
                    f"got {given[pname]!r}"
                ) from None
        elif default is _REQUIRED:
            raise ValueError(f"{owner} requires parameter {pname!r}")
        else:
            kwargs[pname] = default
    return kwargs


class CatalogEntry(NamedTuple):
    name: str
    summary: str
    params: tuple  # ((pname, converter, default-or-_REQUIRED), ...)
    build: Callable[..., Graph]
    # the edge count in O(1), read before a build (0 for negative sizes, which it refuses)
    n_edges: Callable[..., int]
    facts: Callable[..., dict]  # literal closed forms, never computed
    aliases: tuple = ()

    def param_help(self) -> str:
        return _param_help(self.params)


# The family builders make every identifier from integers and fixed
# literals, so once their parameters are checked they build with
# ``Graph._trusted``.


def _build_penrose(labels: str) -> Graph:
    if labels not in ("12", "01"):
        raise ValueError(f"labels must be '12' or '01', got {labels!r}")
    lo, hi = labels
    return Graph._trusted(
        "penrose", (lo, hi), (Edge("a", lo, lo), Edge("b", lo, hi), Edge("c", hi, lo))
    )


def _numbered(family: str, n: int, edges) -> Graph:
    """``family{n}`` on vertices ``1..n``, one edge per ``(eid, i, j)`` of ``edges``."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    names = tuple(str(i) for i in range(1, n + 1))
    return Graph._trusted(
        f"{family}{n}", names, [Edge(e, names[i - 1], names[j - 1]) for e, i, j in edges]
    )


def _build_cuntz(n: int) -> Graph:
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return Graph._trusted(f"cuntz{n}", ("1",), [Edge(f"g{i}", "1", "1") for i in range(1, n + 1)])


def _build_chambers(k: int, loops: bool = False) -> Graph:
    """The looped hub ``v0`` with an edge ``d{i}`` to each chamber ``i`` in
    ``1..k``; with ``loops`` (the lens family) a loop ``m{i}`` at each."""
    if k < 0:
        raise ValueError(f"need k >= 0, got {k}")
    chambers = tuple(str(i) for i in range(1, k + 1))
    edges = [Edge("ell", "v0", "v0")] + [Edge(f"d{c}", "v0", c) for c in chambers]
    if loops:
        edges += [Edge(f"m{c}", c, c) for c in chambers]
    return Graph._trusted(f"{'lens' if loops else 'chambers'}{k}", ("v0",) + chambers, edges)


def _t_minus_one_power(m: int) -> tuple:
    """Coefficients of ``(t - 1)^m``, constant term first."""
    return tuple((-1) ** (m - j) * math.comb(m, j) for j in range(m + 1))


_ENTRIES = (
    CatalogEntry(
        "penrose",
        "two vertices with Fibonacci adjacency [[1,1],[1,0]]",
        (("labels", str, "12"),),
        _build_penrose,
        lambda labels: 3,
        lambda labels: {
            "n_vertices": 2,
            "adjacency": ((1, 1), (1, 0)),
            "det": -1,
            "charpoly_reversed": (1, -1, -1),
            "n_sinks": 0,
            "directed_cycles": 2,
        },
    ),
    CatalogEntry(
        "sigma",
        "vertices 1..n with one edge i -> j for every i <= j",
        (("n", int, _REQUIRED),),
        lambda n: _numbered(
            "sigma", n, ((f"e{i}_{j}", i, j) for i in range(1, n + 1) for j in range(i, n + 1))
        ),
        lambda n: max(n, 0) * (n + 1) // 2,
        lambda n: {
            "n_vertices": n,
            "det": 1,
            "charpoly_reversed": _t_minus_one_power(n),  # det(t*Gamma - 1)
            "n_sinks": 0,
            "directed_cycles": n,
        },
    ),
    CatalogEntry(
        "cuntz",
        "one vertex with n loops",
        (("n", int, _REQUIRED),),
        _build_cuntz,
        lambda n: max(n, 0),
        lambda n: {
            "n_vertices": 1,
            "adjacency": ((n,),),
            "det": n,
            "n_sinks": 0,
            "directed_cycles": n,
        },
        aliases=("bouquet",),
    ),
    CatalogEntry(
        "chambers",
        "looped hub feeding k sink chambers",
        (("k", int, _REQUIRED),),
        _build_chambers,
        lambda k: max(k + 1, 0),
        lambda k: {
            "n_vertices": k + 1,
            "det": 1 if k == 0 else 0,
            "n_sinks": k,
            "directed_cycles": 1,
        },
    ),
    CatalogEntry(
        "lens",
        "looped hub feeding k looped chambers",
        (("k", int, _REQUIRED),),
        lambda k: _build_chambers(k, loops=True),
        lambda k: max(2 * k + 1, 0),
        lambda k: {
            "n_vertices": k + 1,
            "det": 1,
            "charpoly_reversed": _t_minus_one_power(k + 1),
            "n_sinks": 0,
            "directed_cycles": k + 1,
        },
    ),
    CatalogEntry(
        "cycle",
        "directed n-cycle",
        (("n", int, _REQUIRED),),
        lambda n: _numbered("cycle", n, ((f"c{i}", i, i % n + 1) for i in range(1, n + 1))),
        lambda n: max(n, 0),
        lambda n: {
            "n_vertices": n,
            "det": (-1) ** (n + 1),
            "n_sinks": 0,
            "directed_cycles": 1,
        },
    ),
    CatalogEntry(
        "full",
        "complete directed graph with loops on n vertices",
        (("n", int, _REQUIRED),),
        lambda n: _numbered(
            "full", n, ((f"e{i}_{j}", i, j) for i in range(1, n + 1) for j in range(1, n + 1))
        ),
        lambda n: max(n, 0) ** 2,
        lambda n: {
            "n_vertices": n,
            "det": 1 if n == 1 else 0,
            "n_sinks": 0,
        },
    ),
    CatalogEntry(
        "tadpole",
        "an edge feeding a loop (source at the tail)",
        (),
        lambda: Graph._trusted(
            "tadpole", ("1", "2"), (Edge("e12", "1", "2"), Edge("e22", "2", "2"))
        ),
        lambda: 2,
        lambda: {
            "n_vertices": 2,
            "adjacency": ((0, 1), (0, 1)),
            "det": 0,
            "n_sinks": 0,
            "directed_cycles": 1,
        },
    ),
)

_BY_NAME = {e.name: e for e in _ENTRIES}
_BY_NAME.update({alias: e for e in _ENTRIES for alias in e.aliases})


def list_entries() -> tuple:
    return _ENTRIES


def _lookup(name: str) -> CatalogEntry:
    entry = _BY_NAME.get(name)
    if entry is None:
        known = ", ".join(sorted(e.name for e in _ENTRIES))
        raise ValueError(f"unknown catalog graph {name!r}; known: {known}")
    return entry


def _instance(name: str, params: dict) -> tuple:
    """The entry of family ``name`` (or an alias) and its resolved parameters."""
    entry = _lookup(name)
    return entry, _resolve(repr(entry.name), entry.params, params)


def _make(entry: CatalogEntry, kwargs: dict) -> Graph:
    graphs.check_edge_count(f"catalog graph {entry.name!r}", entry.n_edges(**kwargs))
    return entry.build(**kwargs)


def build(name: str, **params) -> Graph:
    """Build a catalog graph by family name and keyword parameters."""
    return _make(*_instance(name, params))


def build_token(token: str) -> Graph:
    """Build from a compact token: ``name``, ``name:3``, or ``name:k=3,labels=01``;
    a parameter given twice is refused."""
    name, _, argstr = token.partition(":")
    entry = _lookup(name.strip())
    params: dict = {}
    for piece in argstr.split(","):
        key, sep, value = piece.strip().partition("=")
        if sep:
            key, value = key.strip(), value.strip()
        elif not key:
            continue
        elif not entry.params:
            raise ValueError(f"{entry.name!r} takes no parameters")
        else:
            key, value = entry.params[0][0], key
        if key in params:
            raise ValueError(f"{entry.name!r} parameter {key!r} is given more than once")
        params[key] = value
    return _make(entry, _resolve(repr(entry.name), entry.params, params))


def verify_entry(name: str, **params) -> CheckReport:
    """Re-derive the expected facts of a catalog instance and compare."""
    entry, kwargs = _instance(name, params)
    g = _make(entry, kwargs)
    facts = entry.facts(**kwargs)
    rep = CheckReport(f"expected facts for {g.name!r}")
    rep.add("vertex count", g.n_vertices == facts["n_vertices"])
    rep.add("edge count", g.n_edges == entry.n_edges(**kwargs))
    gamma = graphs.adjacency(g)
    if "adjacency" in facts:
        rep.add("adjacency matrix", gamma.rows == facts["adjacency"])
    rep.add("determinant", linalg.det(gamma) == facts["det"])
    if "charpoly_reversed" in facts:
        rep.add(
            "reversed characteristic polynomial",
            linalg.rev_charpoly(gamma) == facts["charpoly_reversed"],
        )
    rep.add("sink count", len(g.sinks()) == facts["n_sinks"])
    if "directed_cycles" in facts:
        rep.add(
            "directed cycle count",
            graphs.directed_cycle_count(g) == facts["directed_cycles"],
        )
    return rep


# -- exhaustive small-graph universe -------------------------------------------


_UNIVERSE_VERTICES = 3
_UNIVERSE_MULTIPLICITY = 2


def small_graph_universe():
    """Every multigraph on ordered vertex sets of size 1..3 with at most 2
    parallel edges per ordered vertex pair: 3 + 81 + 19683 = 19767 graphs,
    lazily, in order of vertex count.

    Graph ``u{k}`` is the k-th multiplicity vector over the ordered vertex
    pairs in ``itertools.product`` order, its edges ``e1, e2, ...`` listed
    pair by pair.  Each edge tuple is a head, over the first half of the
    pairs, joined to a tail over the last ⌊|pairs|/2⌋ pairs; the tails are
    made once per vertex count for every number of edges before them.
    The graphs are made with ``Graph._trusted`` and build no index.
    """
    counter = 0
    for n in range(1, _UNIVERSE_VERTICES + 1):
        vertices = tuple(str(i) for i in range(1, n + 1))
        pairs = [(a, b) for a in vertices for b in vertices]
        slots = range(1, len(pairs) * _UNIVERSE_MULTIPLICITY + 1)
        rows = [tuple(Edge(f"e{i}", a, b) for i in slots) for a, b in pairs]
        half = len(pairs) - len(pairs) // 2
        tails = [
            _edge_runs(rows[half:], before) for before in range(half * _UNIVERSE_MULTIPLICITY + 1)
        ]
        for head in _edge_runs(rows[:half], 0):
            for tail in tails[len(head)]:
                counter += 1
                yield Graph._trusted(f"u{counter}", vertices, head + tail)


def _edge_runs(rows: list, before: int) -> list:
    """The edge tuples of every multiplicity vector over ``rows``' pairs, in
    ``itertools.product`` order, numbered after ``before`` earlier edges;
    ``rows[p][i]`` is pair p's edge ``e{i + 1}``."""
    runs: list[tuple] = [()]
    for row in rows:
        runs = [
            run + row[before + len(run) : before + len(run) + c]
            for run in runs
            for c in range(_UNIVERSE_MULTIPLICITY + 1)
        ]
    return runs
