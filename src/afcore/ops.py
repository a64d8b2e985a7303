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
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass

from . import graphs
from .errors import GuardError, MorphismError, ParseError
from .graphs import Graph


@dataclass
class Morphism:
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


@dataclass(frozen=True)
class AdmissibilityVerdict:
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

    Raises :class:`MorphismError` when the data is not a morphism at all
    (missing assignments, unknown images, or source/range commutation
    failures).  Otherwise returns a verdict with witnesses.
    """
    dom, cod = m.domain, m.codomain
    for v in dom.vertices:
        if v not in m.vmap:
            raise MorphismError(f"vertex {v!r} has no image under the vertex map")
        if not cod.has_vertex(m.vmap[v]):
            raise MorphismError(
                f"vertex {v!r} maps to {m.vmap[v]!r}, not a vertex of {cod.name!r}"
            )
    for e in dom.edges:
        if e.eid not in m.emap:
            raise MorphismError(f"edge {e.eid!r} has no image under the edge map")
        fid = m.emap[e.eid]
        if not cod.has_edge(fid):
            raise MorphismError(
                f"edge {e.eid!r} maps to {fid!r}, not an edge of {cod.name!r}"
            )
        f = cod.edge(fid)
        if m.vmap[e.src] != f.src:
            raise MorphismError(
                f"edge {e.eid!r}: source does not commute "
                f"({e.src!r} -> {m.vmap[e.src]!r} but image edge starts at {f.src!r})"
            )
        if m.vmap[e.dst] != f.dst:
            raise MorphismError(
                f"edge {e.eid!r}: range does not commute "
                f"({e.dst!r} -> {m.vmap[e.dst]!r} but image edge ends at {f.dst!r})"
            )

    # injectivity, with witnesses
    inj_witnesses = []
    seen: dict = {}
    for v in dom.vertices:
        w = m.vmap[v]
        if w in seen:
            inj_witnesses.append((seen[w], v))
        else:
            seen[w] = v
    seen_e: dict = {}
    for e in dom.edges:
        f = m.emap[e.eid]
        if f in seen_e:
            inj_witnesses.append((seen_e[f], e.eid))
        else:
            seen_e[f] = e.eid

    image_v = set(m.vmap.values())
    image_e = set(m.emap.values())

    range_witnesses = tuple(
        f.eid for f in cod.edges if f.dst in image_v and f.eid not in image_e
    )
    emission_witnesses = tuple(
        w
        for w in cod.vertices
        if w in image_v
        and not cod.is_sink(w)
        and not any(f.eid in image_e for f in cod.out_edges(w))
    )

    return AdmissibilityVerdict(
        injective=not inj_witnesses,
        range_closed=not range_witnesses,
        emission_covered=not emission_witnesses,
        injectivity_witnesses=tuple(inj_witnesses),
        range_witnesses=range_witnesses,
        emission_witnesses=emission_witnesses,
    )


def compose(outer: Morphism, inner: Morphism) -> Morphism:
    """The composite morphism ``outer . inner`` (inner first)."""
    if inner.codomain != outer.domain:
        raise MorphismError(
            f"cannot compose: inner codomain {inner.codomain.name!r} "
            f"differs from outer domain {outer.domain.name!r}"
        )
    return Morphism(
        domain=inner.domain,
        codomain=outer.codomain,
        vmap={v: outer.vmap[w] for v, w in inner.vmap.items()},
        emap={e: outer.emap[f] for e, f in inner.emap.items()},
        name=f"{outer.name or 'outer'}.{inner.name or 'inner'}",
    )


def identity_morphism(g: Graph) -> Morphism:
    return Morphism(g, g, {v: v for v in g.vertices}, {e.eid: e.eid for e in g.edges}, name=f"id_{g.name}")


# -- products ---------------------------------------------------------------


def product(e: Graph, f: Graph) -> Graph:
    """Cartesian product of multigraphs.

    Vertices are pairs written ``{v}_{w}`` and edges pairs ``{a}_{b}``,
    enumerated left-factor-major so that the adjacency matrix of the
    product is the Kronecker product of the factor adjacencies.  Raises
    ``ValueError`` when the underscore pairing of identifiers is ambiguous.
    """
    vertices = []
    seen = set()
    for v in e.vertices:
        for w in f.vertices:
            name = f"{v}_{w}"
            if name in seen:
                raise ValueError(
                    f"ambiguous product vertex id {name!r}; rename factor vertices"
                )
            seen.add(name)
            vertices.append(name)
    edges = []
    seen_e = set()
    for a in e.edges:
        for b in f.edges:
            eid = f"{a.eid}_{b.eid}"
            if eid in seen_e:
                raise ValueError(
                    f"ambiguous product edge id {eid!r}; rename factor edges"
                )
            seen_e.add(eid)
            edges.append((eid, f"{a.src}_{b.src}", f"{a.dst}_{b.dst}"))
    return Graph(f"{e.name}_x_{f.name}", vertices, edges)


def diagonal_embedding(e: Graph, within: Graph | None = None) -> Morphism:
    """The diagonal v -> (v, v), x -> (x, x) into ``e`` x ``e``.

    ``within`` may supply a precomputed ``product(e, e)`` to avoid
    rebuilding it in bulk enumerations.
    """
    prod = within if within is not None else product(e, e)
    return Morphism(
        domain=e,
        codomain=prod,
        vmap={v: f"{v}_{v}" for v in e.vertices},
        emap={x.eid: f"{x.eid}_{x.eid}" for x in e.edges},
        name=f"diag_{e.name}",
    )


def vertical_embedding(
    g: Graph, e: Graph, loop: str, within: Graph | None = None
) -> Morphism:
    """The embedding of ``e`` into ``g`` x ``e`` along a loop of ``g``.

    ``loop`` must name a loop edge of ``g`` based at some vertex ``w0``;
    the embedding sends v -> (w0, v) and x -> (loop, x).
    """
    le = g.edge(loop)
    if le.src != le.dst:
        raise ValueError(f"edge {loop!r} of {g.name!r} is not a loop")
    w0 = le.src
    prod = within if within is not None else product(g, e)
    return Morphism(
        domain=e,
        codomain=prod,
        vmap={v: f"{w0}_{v}" for v in e.vertices},
        emap={x.eid: f"{loop}_{x.eid}" for x in e.edges},
        name=f"vert_{g.name}_{loop}",
    )


def enumerate_admissible_embeddings(
    e: Graph, f: Graph, guard: int = 200_000
) -> tuple[Morphism, ...]:
    """All admissible injective morphisms ``e -> f``, deterministically ordered.

    Brute force over injective vertex assignments (codomain vertices in
    declaration order), then over compatible edge assignments.  Intended
    for small graphs; raises :class:`GuardError` when the number of
    injective vertex maps exceeds ``guard``.
    """
    ne, nf = e.n_vertices, f.n_vertices
    if ne > nf:
        return ()
    n_vertex_maps = math.perm(nf, ne)
    if n_vertex_maps > guard:
        raise GuardError(
            f"{n_vertex_maps} injective vertex maps exceed the guard of {guard}"
        )
    found = []
    for image in itertools.permutations(f.vertices, ne):
        vmap = dict(zip(e.vertices, image))
        candidates = []
        ok = True
        for x in e.edges:
            cands = [
                fe.eid
                for fe in f.edges
                if fe.src == vmap[x.src] and fe.dst == vmap[x.dst]
            ]
            if not cands:
                ok = False
                break
            candidates.append(cands)
        if not ok:
            continue
        for combo in itertools.product(*candidates):
            if len(set(combo)) != len(combo):
                continue
            m = Morphism(e, f, vmap, dict(zip((x.eid for x in e.edges), combo)))
            if check_morphism(m).admissible:
                found.append(m)
    return tuple(found)


# -- hereditary / saturated subsets and quotients ----------------------------


@dataclass(frozen=True)
class HereditarySaturated:
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
    saturated = True
    for v in g.vertices:
        if v in vs:
            continue
        out = g.out_edges(v)
        if out and all(e.dst in vs for e in out):
            saturated = False
            break
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
    return Graph(f"{g.name}_quot", vertices, edges)


# -- line graph --------------------------------------------------------------


def line_graph(g: Graph) -> Graph:
    """The line graph: one vertex per edge, one edge per length-2 walk.

    The walk ``(e, f)`` with r(e) = s(f) becomes an edge named ``{e}_{f}``
    from vertex ``e`` to vertex ``f``.  The adjacency matrix of the result
    is the edge matrix of ``g``.  Raises ``ValueError`` if underscore
    concatenation of edge ids collides.
    """
    vertices = [e.eid for e in g.edges]
    edges = []
    seen = set()
    for a in g.edges:
        for b in g.edges:
            if a.dst == b.src:
                eid = f"{a.eid}_{b.eid}"
                if eid in seen:
                    raise ValueError(
                        f"ambiguous line-graph edge id {eid!r}; rename edges"
                    )
                seen.add(eid)
                edges.append((eid, a.eid, b.eid))
    return Graph(f"line_{g.name}", vertices, edges)


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
    blocks: list = []  # (start_line_index, [lines])
    morphism_line = None
    header = None
    vmap: dict = {}
    emap: dict = {}
    for idx, raw in enumerate(lines):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        word = line.split(None, 1)[0]
        if word == "morphism":
            match = _MORPHISM_RE.match(line)
            if not match:
                raise ParseError(
                    "expected 'morphism name : domain -> codomain'", line=idx + 1
                )
            if header is not None:
                raise ParseError(
                    "only one morphism statement per document", line=idx + 1
                )
            header = match.groups()
            morphism_line = idx + 1
            continue
        if word in ("vmap", "emap"):
            if header is None:
                raise ParseError(
                    f"{word} before the morphism statement", line=idx + 1
                )
            match = _MAP_RE.match(line)
            if not match:
                raise ParseError(f"expected '{word} x => y'", line=idx + 1)
            kind, key, value = match.groups()
            target = vmap if kind == "vmap" else emap
            if key in target:
                raise ParseError(f"duplicate {kind} entry for {key!r}", line=idx + 1)
            target[key] = value
            continue
        if word == "graph":
            if header is not None:
                raise ParseError(
                    "graph blocks must precede the morphism statement", line=idx + 1
                )
            blocks.append((idx, [raw]))
            continue
        if word in ("vertex", "edge"):
            if header is not None:
                raise ParseError(
                    "graph statements after the morphism statement", line=idx + 1
                )
            if not blocks:
                raise ParseError(
                    f"{word} before any 'graph' statement", line=idx + 1
                )
            blocks[-1][1].append(raw)
            continue
        raise ParseError(f"unrecognized statement {word!r}", line=idx + 1)
    if header is None:
        raise ParseError("document has no morphism statement", line=len(lines) or 1)

    inline: dict = {}
    for start, block_lines in blocks:
        # pad with blank lines so parse errors carry document line numbers
        g = graphs.parse_graph("\n" * start + "\n".join(block_lines))
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

    return Morphism(
        domain=_resolve(dom_token),
        codomain=_resolve(cod_token),
        vmap=vmap,
        emap=emap,
        name=name,
    )
