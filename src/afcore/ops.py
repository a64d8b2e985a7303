"""Graph morphisms, products, admissible embeddings, and derived graphs.

A morphism of directed graphs maps vertices to vertices and edges to edges
so that sources and ranges commute.  A morphism is *admissible* when it is
injective on vertices and edges and its image subgraph satisfies two
closure conditions:

* every codomain edge whose range lies in the image is itself in the
  image ("range-closed"), and
* every image vertex that is not a sink in the codomain emits at least
  one image edge ("emission-covered").

Admissible injections are exactly the morphisms that induce unital
algebra homomorphisms backwards between the associated algebras (see
``leavitt.induced_hom``).

Both conditions are local.  Under an injective vertex map f, the image
edges into f(v) are the images of the edges into v, and those out of f(v)
the images of the edges out of v.  So f extends to an admissible edge map
exactly when, for all domain vertices u and v,

* in-degree(v) = in-degree(f(v)), and
* the edges u -> v are as many as the edges f(u) -> f(v): together, every
  codomain edge into f(v) starts in the image and is hit exactly once
  (range-closed);
* v is a sink exactly when f(v) is (emission-covered).

The admissible edge maps of f are then the bijections between parallel-edge sets.
The search tries at most a fixed 200 000 assignments (``MAX_ASSIGNMENTS``).

``check_morphism`` validates a given morphism in one pass over the
codomain's edges, without building the codomain's lookup indices, and
refuses a map entry for anything that is not a domain vertex or edge.
"""

from __future__ import annotations

import itertools
import re
from operator import itemgetter
from typing import NamedTuple

from . import graphs
from .errors import GuardError, MorphismError, ParseError
from .graphs import Edge, Graph


class Morphism(NamedTuple):
    """A vertex map and an edge map between two graphs.

    Construction is deliberately lenient; ``check_morphism`` validates
    totality and commutation and raises :class:`MorphismError` naming an
    offending edge or vertex.
    """

    domain: Graph
    codomain: Graph
    vmap: dict
    emap: dict
    name: str = ""

    def __repr__(self) -> str:
        label = self.name or f"{self.domain.name}->{self.codomain.name}"
        return f"Morphism({label}, |vmap|={len(self.vmap)}, |emap|={len(self.emap)})"


class AdmissibilityVerdict(NamedTuple):
    """Outcome of the admissibility test, with witnesses for failures."""

    injective: bool
    range_closed: bool          # every codomain edge into the image is an image edge
    emission_covered: bool      # every non-sink image vertex emits an image edge
    injectivity_witnesses: tuple = ()
    range_witnesses: tuple = ()      # offending codomain edge ids
    emission_witnesses: tuple = ()   # offending codomain vertex ids

    @property
    def admissible(self) -> bool:
        return self.injective and self.range_closed and self.emission_covered


def check_morphism(m: Morphism) -> AdmissibilityVerdict:
    """Validate a morphism and decide admissibility.

    Raises :class:`MorphismError` when the data is not a morphism at all:
    missing assignments, unknown images, source/range commutation failures
    and, checked after those, a map entry for a key that is not a domain
    vertex or edge.  Otherwise returns a verdict with witnesses.

    The codomain is read in one pass over ``cod.edges`` and gets no lookup
    index.  The pass keeps the edges that end in the image: each image edge
    is validated against them, and the rest are the range witnesses, in
    codomain order.  An image edge the pass did not keep is no edge of the
    codomain or ends outside the image; only for it are ``cod.has_edge``
    and ``cod.edge`` asked, for the error message.  By commutation, an
    image vertex f(v) emits an image edge exactly when some domain edge
    leaves v, so the emission witnesses are the other image vertices that
    emit a codomain edge, in codomain vertex order.
    """
    dom, cod = m.domain, m.codomain
    vmap, emap = m.vmap, m.emap
    cod_vertices = set(cod.vertices)
    for v in dom.vertices:
        if v not in vmap:
            raise MorphismError(f"vertex {v!r} has no image under the vertex map")
        if vmap[v] not in cod_vertices:
            raise MorphismError(
                f"vertex {v!r} maps to {vmap[v]!r}, not a vertex of {cod.name!r}"
            )
    image_v = set(map(vmap.__getitem__, dom.vertices))
    edges = cod.edges
    into = {f[0]: f for f in edges if f[2] in image_v}  # the codomain edges into the image, by id
    for eid, src, dst in dom.edges:
        if eid not in emap:
            raise MorphismError(f"edge {eid!r} has no image under the edge map")
        fid = emap[eid]
        f = into.get(fid)
        if f is None:
            if not cod.has_edge(fid):
                raise MorphismError(f"edge {eid!r} maps to {fid!r}, not an edge of {cod.name!r}")
            f = cod.edge(fid)
        if vmap[src] != f.src:
            raise MorphismError(
                f"edge {eid!r}: source does not commute "
                f"({src!r} -> {vmap[src]!r} but image edge starts at {f.src!r})"
            )
        if vmap[dst] != f.dst:
            raise MorphismError(
                f"edge {eid!r}: range does not commute "
                f"({dst!r} -> {vmap[dst]!r} but image edge ends at {f.dst!r})"
            )
    # every domain vertex and edge is a key by now, so a longer map has a stray key
    if len(vmap) > len(dom.vertices) or len(emap) > len(dom.edges):
        for kind, entries, known in (("vertex", vmap, set(dom.vertices)),
                                     ("edge", emap, set(map(itemgetter(0), dom.edges)))):
            for k in entries:
                if k not in known:
                    raise MorphismError(f"the {kind} map has an entry for {k!r}, "
                                        f"not {'an' if kind == 'edge' else 'a'} {kind} "
                                        f"of {dom.name!r}")

    image_e = set(emap.values())
    # injectivity, with witnesses: (first preimage, later preimage)
    inj_witnesses = []
    if len(image_v) < len(vmap) or len(image_e) < len(emap):
        for keys, images in ((dom.vertices, vmap), ([e.eid for e in dom.edges], emap)):
            first: dict = {}
            for k in keys:
                if first.setdefault(images[k], k) != k:
                    inj_witnesses.append((first[images[k]], k))

    range_witnesses = tuple(itertools.filterfalse(image_e.__contains__, into))
    silent = image_v.difference(map(vmap.__getitem__, map(itemgetter(1), dom.edges)))
    emission_witnesses = ()
    if silent:
        silent.intersection_update(map(itemgetter(1), edges))  # a codomain sink needs no cover
        emission_witnesses = tuple(w for w in cod.vertices if w in silent)

    return AdmissibilityVerdict(
        injective=not inj_witnesses,
        range_closed=not range_witnesses,
        emission_covered=not emission_witnesses,
        injectivity_witnesses=tuple(inj_witnesses),
        range_witnesses=range_witnesses,
        emission_witnesses=emission_witnesses,
    )


# -- products ---------------------------------------------------------------


def product(e: Graph, f: Graph) -> Graph:
    """Cartesian product of multigraphs.

    Vertices are pairs written ``{v}_{w}`` and edges pairs ``{a}_{b}``,
    enumerated left-factor-major so that the adjacency matrix of the
    product is the Kronecker product of the factor adjacencies.  Raises
    ``ValueError`` when the underscore pairing of identifiers is ambiguous,
    and ``GuardError`` before any edge is made when the product would have
    more than ``graphs.MAX_EDGES`` edges.
    """
    graphs.check_edge_count(f"the product of {e.name!r} and {f.name!r}", e.n_edges * f.n_edges)
    names = {v: {w: f"{v}_{w}" for w in f.vertices} for v in e.vertices}
    vertices = [name for row in names.values() for name in row.values()]
    _check_unique(vertices, "product vertex", "rename factor vertices")
    new = tuple.__new__  # Edge's own constructor is a slower Python-level __new__
    edges = [
        new(Edge, (f"{a}_{b}", src[s], dst[d]))
        for a, src, dst in [(a, names[s], names[d]) for a, s, d in e.edges]
        for b, s, d in f.edges
    ]
    _check_unique([x[0] for x in edges], "product edge", "rename factor edges")
    return Graph._trusted(f"{e.name}_x_{f.name}", vertices, edges)


def _check_unique(ids: list, what: str, hint: str) -> None:
    if len(set(ids)) == len(ids):
        return
    seen: set = set()
    for i in ids:
        if i in seen:
            raise ValueError(f"ambiguous {what} id {i!r}; {hint}")
        seen.add(i)


def diagonal_embedding(e: Graph, within: Graph) -> Morphism:
    """The diagonal v -> (v, v), x -> (x, x) into ``within = product(e, e)``,
    which the caller builds once for bulk enumerations."""
    return Morphism(
        domain=e,
        codomain=within,
        vmap={v: f"{v}_{v}" for v in e.vertices},
        emap={x.eid: f"{x.eid}_{x.eid}" for x in e.edges},
        name=f"diag_{e.name}",
    )


def vertical_embedding(g: Graph, e: Graph, loop: str, within: Graph) -> Morphism:
    """The embedding of ``e`` into ``within = product(g, e)`` along a loop of ``g``.

    ``loop`` must name a loop edge of ``g`` based at some vertex ``w0``;
    the embedding sends v -> (w0, v) and x -> (loop, x).
    """
    le = g.edge(loop)
    if le.src != le.dst:
        raise ValueError(f"edge {loop!r} of {g.name!r} is not a loop")
    w0 = le.src
    return Morphism(
        domain=e,
        codomain=within,
        vmap={v: f"{w0}_{v}" for v in e.vertices},
        emap={x.eid: f"{loop}_{x.eid}" for x in e.edges},
        name=f"vert_{g.name}_{loop}",
    )


def _distinct_choices(n: int, options, step, fits=None):
    """Yield each tuple of ``n`` distinct choices, in lexicographic order.

    Slot ``i`` tries ``options(i)`` in order, ``step()`` runs once per
    candidate and ``fits(prefix, c)``, if given, prunes.  The stack is
    explicit, so ``n`` is not bounded by the recursion limit.
    """
    chosen: dict = {}  # the prefix, in order; a dict for O(1) membership
    stack = [iter(options(0))] if n else []
    if not n:
        yield ()
    while stack:
        c = next(stack[-1], None)
        if c is None:
            stack.pop()
            if stack:
                chosen.popitem()
            continue
        step()
        if c in chosen or (fits is not None and not fits(chosen, c)):
            continue
        if len(stack) == n:
            yield (*chosen, c)
        else:
            chosen[c] = None
            stack.append(iter(options(len(stack))))


MAX_ASSIGNMENTS = 200_000  # the most vertex and edge assignments one search tries


def enumerate_admissible_embeddings(e: Graph, f: Graph) -> tuple[Morphism, ...]:
    """All admissible injective morphisms ``e -> f``, deterministically ordered.

    A depth-first search maps ``e.vertices`` in order to ``f.vertices`` in
    order and keeps v -> w only when the three local conditions of the
    module docstring hold between v and every vertex mapped so far, v
    included.  The edge maps of each vertex map are the bijections between
    parallel-edge sets, searched over ``e.edges`` in ``f.edges`` order.
    Raises :class:`GuardError` when the search would try more than
    ``MAX_ASSIGNMENTS`` (a fixed 200 000) vertex and edge assignments.
    """
    if e.n_vertices > f.n_vertices:
        return ()
    e_par: dict = {}
    f_par: dict = {}
    e_shape, f_shape = {}, {}  # vertex -> (in-degree, is a sink), off the edge table
    for g, par, shape in ((e, e_par, e_shape), (f, f_par, f_shape)):
        into = dict.fromkeys(g.vertices, 0)
        for x in g.edges:
            par.setdefault((x.src, x.dst), []).append(x.eid)
            into[x.dst] += 1
        emits = {src for src, _ in par}
        shape.update((v, (n, v not in emits)) for v, n in into.items())
    tries = itertools.count(1)

    def step() -> None:
        if next(tries) > MAX_ASSIGNMENTS:
            raise GuardError(f"{MAX_ASSIGNMENTS + 1} vertex and edge assignments "
                             f"exceed the guard of {MAX_ASSIGNMENTS}")

    def fits(image: dict, w: str) -> bool:
        v = e.vertices[len(image)]
        same = e_shape[v] == f_shape[w]
        return same and all(
            len(e_par.get((u, v), ())) == len(f_par.get((fu, w), ()))
            and len(e_par.get((v, u), ())) == len(f_par.get((w, fu), ()))
            for u, fu in zip(e.vertices, [*image, w])
        )

    found = []
    for image in _distinct_choices(e.n_vertices, lambda i: f.vertices, step, fits):
        vmap = dict(zip(e.vertices, image))
        pools = [f_par[vmap[x.src], vmap[x.dst]] for x in e.edges]
        for fe in _distinct_choices(len(pools), pools.__getitem__, step):
            found.append(Morphism(e, f, vmap, {x.eid: c for x, c in zip(e.edges, fe)}))
    return tuple(found)


# -- hereditary / saturated subsets and quotients ----------------------------


class HereditarySaturated(NamedTuple):
    hereditary: bool
    saturated: bool


def hereditary_saturated(g: Graph, vset) -> HereditarySaturated:
    """Test whether a vertex subset is hereditary and whether it is saturated.

    *Hereditary*: every edge with source in the set has its range in the
    set.  *Saturated*: every non-sink vertex all of whose out-edges end in
    the set already belongs to the set.  (Sinks have no out-edges and are
    never forced in; the empty set is saturated in any graph.)
    """
    vs = frozenset(vset)
    for v in vs:
        g.vertex_index(v)
    hereditary = all(e.dst in vs for e in g.edges if e.src in vs)
    saturated = not any(
        g.out_edges(v) and all(e.dst in vs for e in g.out_edges(v))
        for v in g.vertices
        if v not in vs
    )
    return HereditarySaturated(hereditary, saturated)


def quotient_graph(g: Graph, vset) -> Graph:
    """Remove a vertex subset and every edge incident to it.

    The result keeps declaration order on survivors.  This is the graph
    of the quotient algebra when ``vset`` is hereditary and saturated;
    the construction itself is total, and edges with source *or* range in
    ``vset`` are dropped so the result is always a well-formed graph.
    """
    vs = frozenset(vset)
    for v in vs:
        g.vertex_index(v)
    vertices = [v for v in g.vertices if v not in vs]
    edges = [e for e in g.edges if e.src not in vs and e.dst not in vs]
    return Graph._trusted(f"{g.name}_quot", vertices, edges)


# -- line graph --------------------------------------------------------------


def line_graph(g: Graph) -> Graph:
    """The line graph: one vertex per edge, one edge per length-2 walk.

    The walk ``(e, f)`` with r(e) = s(f) becomes an edge named ``{e}_{f}``
    from vertex ``e`` to vertex ``f``.  The adjacency matrix of the result
    is the edge matrix of ``g``.  Raises ``ValueError`` if underscore
    concatenation of edge ids collides, and ``GuardError`` before any edge
    is made when it would have more than ``graphs.MAX_EDGES`` edges.
    """
    graphs.check_edge_count(f"the line graph of {g.name!r}",
                            sum(g.in_degree(v) * len(g.out_edges(v)) for v in g.vertices))
    vertices = [e.eid for e in g.edges]
    new = tuple.__new__  # as in product
    edges = [
        new(Edge, (f"{a.eid}_{b.eid}", a.eid, b.eid))
        for a in g.edges
        for b in g.out_edges(a.dst)
    ]
    _check_unique([x[0] for x in edges], "line-graph edge", "rename edges")
    return Graph._trusted(f"line_{g.name}", vertices, edges)


# -- morphism documents --------------------------------------------------------

_MORPHISM_RE = re.compile(r"morphism\s+([A-Za-z0-9_]+)\s*:\s*(.+?)\s*->\s*(.+?)\s*\Z")
_MAP_RE = re.compile(r"(vmap|emap)\s+([A-Za-z0-9_]+)\s*=>\s*([A-Za-z0-9_]+)\s*\Z")


def parse_morphism_document(text: str, graph_resolver=None) -> Morphism:
    """Parse a morphism from a text document.

    The document holds zero or more inline graph blocks (the graph file
    grammar), then exactly one morphism block::

        graph dom
        vertex 1
        edge a : 1 -> 1
        graph cod
        ...
        morphism f : dom -> cod
        vmap 1 => 1
        emap a => b

    Domain and codomain name an inline block, or — when ``graph_resolver``
    is given — any token the resolver accepts (a catalog token or a file
    path, say).  The returned morphism is *not* validated; run
    :func:`check_morphism` on it.
    """
    lines = text.splitlines()
    starts: list = []  # the line index of each 'graph' statement
    morphism_line = None
    header = None
    vmap: dict = {}
    emap: dict = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        word = line.split(None, 1)[0]
        if word == "morphism":
            match = _MORPHISM_RE.match(line)
            if not match:
                raise ParseError("expected 'morphism name : domain -> codomain'", lineno)
            if header is not None:
                raise ParseError("only one morphism statement per document", lineno)
            header = match.groups()
            morphism_line = lineno
            continue
        if word in ("vmap", "emap"):
            if header is None:
                raise ParseError(f"{word} before the morphism statement", lineno)
            match = _MAP_RE.match(line)
            if not match:
                raise ParseError(f"expected '{word} x => y'", lineno)
            kind, key, value = match.groups()
            target = vmap if kind == "vmap" else emap
            if key in target:
                raise ParseError(f"duplicate {kind} entry for {key!r}", lineno)
            target[key] = value
            continue
        if word == "graph":
            if header is not None:
                raise ParseError("graph blocks must precede the morphism statement", lineno)
            starts.append(lineno - 1)
            continue
        if word in ("vertex", "edge"):
            if header is not None:
                raise ParseError("graph statements after the morphism statement", lineno)
            if not starts:
                raise ParseError(f"{word} before any 'graph' statement", lineno)
            continue
        raise ParseError(f"unrecognized statement {word!r}", lineno)
    if header is None:
        raise ParseError("document has no morphism statement", line=len(lines) or 1)

    inline: dict = {}
    # a block runs to the next 'graph' or the 'morphism' statement; its raw
    # lines, padded with blank lines, keep their document line numbers
    for start, end in zip(starts, starts[1:] + [morphism_line - 1]):
        g = graphs.parse_graph("\n" * start + "\n".join(lines[start:end]))
        if g.name in inline:
            raise ParseError(f"duplicate graph block {g.name!r}", line=start + 1)
        inline[g.name] = g

    name, dom_token, cod_token = header

    def _resolve(token: str) -> Graph:
        if token in inline:
            return inline[token]
        if graph_resolver is not None:
            try:
                return graph_resolver(token)
            except (ValueError, OSError) as err:
                raise ParseError(
                    f"cannot resolve graph {token!r}: {err}", line=morphism_line
                ) from err
        raise ParseError(
            f"graph {token!r} has no inline block in this document",
            line=morphism_line,
        )

    return Morphism(_resolve(dom_token), _resolve(cod_token), vmap, emap, name)
