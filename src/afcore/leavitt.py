"""Symbolic arithmetic in the algebra attached to a directed graph.

Elements are integer combinations of monomials ``S_alpha S_beta^*`` where
``alpha`` and ``beta`` are directed walks with a common range vertex; the
walk pair ``((), (), v)`` is the vertex projection ``P_v``.  Multiplication
uses the reduction

    S_beta^* S_alpha = S_gamma    if alpha = beta.gamma,
                       S_gamma^*  if beta = alpha.gamma,
                       0          otherwise,

and everything else rests on the range relation

    S_alpha S_beta^* = sum over edges e leaving the range vertex of
                       S_(alpha.e) S_(beta.e)^*,

applied one step at a time by ``_expand``, the only raiser of
:class:`SinkError`.  Zero tests work by root: stripping the longest common
trailing string ``gamma`` from ``alpha = alpha'.gamma``, ``beta = beta'.gamma``
leaves the root ``(alpha', beta', v)``, ``v`` the source of ``gamma`` (the
base vertex if ``gamma`` is empty); ``gamma`` is the monomial's node in the
root's expansion tree.  Rewrites stay inside one root and distinct roots are
linearly independent (the monomial basis of Leavitt path algebras).  In a
tree only proper prefixes of present nodes are expanded, shortest first, so
zero tests never expand at a sink and answer exactly on every graph, as
does :func:`normal_form`, which leaves a monomial at a sink where it is.

Three carriers are integer combinations of basis keys, and the private base
:class:`_Combination` writes their ``+``, ``-``, ``*``, integer scaling and
``star()`` once, from how two keys multiply and what a key's adjoint is.
Plain elements (:class:`LeavittElem`) have monomial keys, elementary
tensors of two graph algebras (:class:`TensorElem`) monomial pairs, and
2x2 integer Laurent matrices (:class:`LaurentMat2`) keys ``(i, j, p)`` for
``z^p E_ij``.  Each adds ``is_zero()``, which completes what
:func:`ck_verify` needs.

Every algebra map is a generator family: an element of a carrier for each
vertex and edge, checked against the graph's relations by :func:`ck_verify`
and applied by :func:`evaluate_family`.  :func:`induced_hom` is the family
pulled back along an admissible embedding.
"""

from __future__ import annotations

import re
from functools import partial
from typing import Iterable, NamedTuple

from .errors import MorphismError, ParseError, SinkError, SourceError
from .graphs import Graph, walk_edges
from .ops import Morphism, check_morphism, line_graph  # noqa: F401 (traced here by perfbench)
from .report import CheckReport


class Monomial(NamedTuple):
    """``S_alpha S_beta^*`` with base vertex = common range of both walks."""

    alpha: tuple
    beta: tuple
    vertex: str

    @property
    def degree(self) -> int:
        return len(self.alpha) - len(self.beta)


# Monomial's own constructor is a slower Python-level __new__; the hot paths
# build it as ``_new(Monomial, (alpha, beta, vertex))``, as ops.product does Edge
_new = tuple.__new__


def _walk_ok(g: Graph, edges: tuple, end: str) -> bool:
    cur = end
    for eid in reversed(edges):
        e = g.edge(eid)
        if e.dst != cur:
            return False
        cur = e.src
    return True


def _mono_source(g: Graph, edges: tuple, base: str) -> str:
    return g.edge(edges[0]).src if edges else base


def _mono_mul(g: Graph, m1: Monomial, m2: Monomial):
    """Product of two monomials: a monomial or None (= zero)."""
    alpha, beta, v1 = m1
    mu, nu, v2 = m2
    # reduce S_beta^* S_mu
    if len(mu) >= len(beta):
        if mu[: len(beta)] != beta:
            return None
        if not beta and _mono_source(g, mu, v2) != v1:
            return None
        gamma = mu[len(beta):]
        return _new(Monomial, (alpha + gamma, nu, v2))
    if beta[: len(mu)] != mu:
        return None
    if not mu and _mono_source(g, beta, v1) != v2:
        return None
    gamma = beta[len(mu):]
    return _new(Monomial, (alpha, nu + gamma, v1))


def _mono_star(m: Monomial) -> Monomial:
    return _new(Monomial, (m.beta, m.alpha, m.vertex))


def _product(key_mul, left: dict, right: dict) -> dict:
    """The product of two term dicts, keys multiplied by ``key_mul`` (the
    product key, or None for zero); a coefficient may come out 0."""
    out: dict = {}
    for k1, c1 in left.items():
        for k2, c2 in right.items():
            k = key_mul(k1, k2)
            if k is not None:
                out[k] = out.get(k, 0) + c1 * c2
    return out


class _Combination:
    """An integer combination of basis keys: ``terms`` maps key -> nonzero int.

    The ring operations are written once here.  A carrier supplies
    ``_key_mul(k1, k2)`` (the product key, or None for zero),
    ``_key_star(k)``, ``_new(terms)`` (a sibling over the same graphs) and
    ``_same_graphs(other)`` (refuses an element over other graphs).
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict):
        self.terms = {k: c for k, c in terms.items() if c}

    def _same_graphs(self, other) -> None:
        pass

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        self._same_graphs(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, 0) + c
        return self._new(out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._new({k: -c for k, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            return self._new({k: c * other for k, c in self.terms.items()})
        if not isinstance(other, type(self)):
            return NotImplemented
        self._same_graphs(other)
        return self._new(_product(self._key_mul, self.terms, other.terms))

    def __rmul__(self, other):
        if isinstance(other, int):
            return self * other
        return NotImplemented

    def star(self):
        key_star = self._key_star
        return self._new({key_star(k): c for k, c in self.terms.items()})


class LeavittElem(_Combination):
    """An integer combination of monomials over a fixed graph.

    ``==`` compares representations (same graph, same term dict); use
    :func:`equals` for equality in the algebra.
    """

    __slots__ = ("graph",)

    def __init__(self, graph: Graph, terms: dict):
        self.graph = graph
        # the base's filter, inlined: every ring operation builds an element
        self.terms = {m: c for m, c in terms.items() if c}

    # -- constructors ----------------------------------------------------

    @staticmethod
    def zero(g: Graph) -> "LeavittElem":
        return LeavittElem(g, {})

    @staticmethod
    def vertex_projection(g: Graph, v: str) -> "LeavittElem":
        g.vertex_index(v)
        return LeavittElem(g, {Monomial((), (), v): 1})

    @staticmethod
    def edge_gen(g: Graph, eid: str) -> "LeavittElem":
        e = g.edge(eid)
        return LeavittElem(g, {Monomial((eid,), (), e.dst): 1})

    @staticmethod
    def monomial_elem(g: Graph, alpha: Iterable[str], beta: Iterable[str]) -> "LeavittElem":
        a, b = tuple(alpha), tuple(beta)
        end_a = g.edge(a[-1]).dst if a else None
        end_b = g.edge(b[-1]).dst if b else None
        v = end_a if end_a is not None else end_b
        if v is None:
            raise ValueError("monomial_elem needs at least one nonempty walk; use vertex_projection")
        if end_a is not None and end_b is not None and end_a != end_b:
            raise ValueError(f"walks have different ranges: {end_a!r} vs {end_b!r}")
        if not (_walk_ok(g, a, v) and _walk_ok(g, b, v)):
            raise ValueError(f"not a composable walk pair: {a!r}, {b!r}")
        return LeavittElem(g, {Monomial(a, b, v): 1})

    @staticmethod
    def unit(g: Graph) -> "LeavittElem":
        return LeavittElem(g, {Monomial((), (), v): 1 for v in g.vertices})

    # -- the carrier hooks -------------------------------------------------

    def _new(self, terms: dict) -> "LeavittElem":
        return LeavittElem(self.graph, terms)

    def _same_graphs(self, other: "LeavittElem") -> None:
        if self.graph != other.graph:
            raise ValueError(
                f"elements live over different graphs: "
                f"{self.graph.name!r} vs {other.graph.name!r}"
            )

    @property
    def _key_mul(self):
        # bound to the graph in C, so a product costs one Python call per pair
        return partial(_mono_mul, self.graph)

    _key_star = staticmethod(_mono_star)

    def is_zero(self) -> bool:
        return is_zero(self)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LeavittElem):
            return NotImplemented
        return self.graph == other.graph and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.graph, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        return f"LeavittElem({self.graph.name!r}, {to_string(self)!r})"


def _term_sort_key(m: Monomial):
    return (len(m.alpha) + len(m.beta), m.alpha, m.beta, m.vertex)


def to_string(x: LeavittElem) -> str:
    """Deterministic display form, shortest monomials first."""
    if not x.terms:
        return "0"
    parts = []
    for m, c in sorted(x.terms.items(), key=lambda mc: _term_sort_key(mc[0])):
        body = "".join(f"S({e})" for e in m.alpha)
        body += "".join(f"S({e})^*" for e in reversed(m.beta))
        if not body:
            body = f"P({m.vertex})"
        if c == 1:
            term = body
        elif c == -1:
            term = f"-{body}"
        else:
            term = f"{c}{body}"
        parts.append(term)
    out = parts[0]
    for term in parts[1:]:
        out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
    return out


# -- expansion trees and zero tests ---------------------------------------------


def _expand(g: Graph, m: Monomial) -> list:
    """The monomials ``S_(alpha.e) S_(beta.e)^*`` that the range relation
    rewrites ``m`` into; :class:`SinkError` if its base vertex emits none."""
    outgoing = g.out_edges(m.vertex)
    if not outgoing:
        raise SinkError(f"cannot expand at vertex {m.vertex!r}: it emits no edges")
    alpha, beta, _ = m
    return [_new(Monomial, (alpha + (e.eid,), beta + (e.eid,), e.dst)) for e in outgoing]


def normal_form(x: LeavittElem) -> LeavittElem:
    """Canonical representative: each degree component at its top level.

    A component whose longest ``beta`` has length ``L`` is written in the
    level-``L`` basis: ``|beta| = L``, or shorter with a sink as base
    vertex, where no expansion applies.  Coefficients are merged first, and
    a monomial that an earlier expansion cancelled is not expanded.
    """
    g = x.graph
    comps: dict = {}
    for m, c in x.terms.items():
        comps.setdefault(m.degree, {})[m] = c
    out: dict = {}
    for _, work in sorted(comps.items()):
        level = max(len(m.beta) for m in work)
        while pending := [m for m in work if len(m.beta) < level and not g.is_sink(m.vertex)]:
            for m in pending:
                c = work.pop(m, 0)
                if not c:
                    continue
                for key in _expand(g, m):
                    work[key] = work.get(key, 0) + c
        out.update(work)
    return LeavittElem(g, out)


def _prefixes(g: Graph, m: Monomial) -> list:
    """The proper prefixes of ``m``'s node in its root's tree, deepest first.

    Each strips one more edge of the common trailing string of ``alpha``
    and ``beta``; the last one is the root.
    """
    a, b, out = m.alpha, m.beta, []
    while a and b and a[-1] == b[-1]:
        a, b = a[:-1], b[:-1]
        out.append(_new(Monomial, (a, b, g.edge(m.alpha[len(a)]).src)))
    return out


def _refine(g: Graph, terms: dict):
    """Push ``terms`` down their roots' trees; yield (final node, coefficient).

    Only the proper prefixes of present nodes are expanded, shortest first
    and each once.  A child that is neither present nor a prefix is final
    when it is reached; the present nodes that are no prefix are final at
    the end.  Coefficients need only ``+``.
    """
    prefixes = {p for m in terms for p in _prefixes(g, m)}
    work = dict(terms)
    for p in sorted(prefixes, key=_term_sort_key):
        c = work.pop(p, None)
        if not c:
            continue
        for child in _expand(g, p):
            if child in prefixes or child in terms:
                work[child] = work[child] + c if child in work else c
            else:
                yield child, c
    yield from work.items()


def is_zero(x: LeavittElem) -> bool:
    """Exact zero test: every final node of every root must carry 0."""
    return not any(c for _, c in _refine(x.graph, x.terms))


def equals(x: LeavittElem, y: LeavittElem) -> bool:
    x._same_graphs(y)
    return is_zero(x - y)


# -- expression parser --------------------------------------------------------
#
# element := ['+'|'-'] term (('+'|'-') term)*
# term    := INTEGER | [INTEGER] factor ('.'? factor)*
# factor  := atom ('^' '*')*
# atom    := 'P' '(' ID ')' | 'S' '(' ID ')' | '(' element ')'
#
# An ID is a run of characters that are str.isalnum() or '_', an INTEGER a
# run of decimal digits, and a bare INTEGER that multiple of the unit (so
# "0" reads back as zero).  Whitespace (str.isspace()) is insignificant;
# '.' and juxtaposition multiply.


# Deepest parenthesis nesting the recursive-descent parser accepts; each
# level costs two Python frames (element and term), so this stays far below
# the stack limit.
MAX_NESTING = 100

# One token after optional whitespace, as group 1: an atom 'P(ID)' or
# 'S(ID)' (groups 2-5: the letter, '(', the ID, ')', each matched only after
# all before it, so a partial atom shows what is missing), an INTEGER
# (group 6), or any other one character ('' at the end of the input).
_TOKEN = re.compile(r"\s*(([PS])(?:\s*(\()(?:\s*(\w+)(?:\s*(\)))?)?)?|(\d+)|.?)")


def parse_elem(g: Graph, text: str) -> LeavittElem:
    """Parse an element expression like ``S(a)S(b)^* - 2P(1)``.

    One pass from left to right: each token is matched when the descent
    reaches it, every sub-expression is a ``{Monomial: coeff}`` dict, and
    one element is built at the end.
    """
    match = _TOKEN.match
    mul = partial(_mono_mul, g)

    def error(pos: int, message: str) -> ParseError:
        return ParseError(f"position {pos}: {message}")

    def expected(what: str, m) -> ParseError:
        pos = m.start(1)
        return error(pos, f"expected {what}, found {text[pos:pos + 1]!r}")

    def element(m, depth: int):
        # the terms are summed into one dict, so a long sum parses in linear
        # time; a key that cancels is dropped at once, as `+` would drop it
        terms: dict = {}
        sign = 1
        if m[1] in ("+", "-"):  # a tuple: m[1] is '' at the end of the input
            sign = -1 if m[1] == "-" else 1
            m = match(text, m.end())
        while True:
            part, m = term(m, depth)
            for k, c in part.items():
                c = terms.get(k, 0) + sign * c
                if c:
                    terms[k] = c
                else:
                    del terms[k]
            if m[1] not in ("+", "-"):
                return terms, m
            sign = -1 if m[1] == "-" else 1
            m = match(text, m.end())

    def times(terms, f: dict) -> dict:
        return f if terms is None else {k: c for k, c in _product(mul, terms, f).items() if c}

    def term(m, depth: int):
        coeff = 1
        if m[6]:
            coeff = int(m[6])
            m = match(text, m.end())
            if not m[2] and m[1] not in ("(", "."):
                unit = {_new(Monomial, ((), (), v)): coeff for v in g.vertices} if coeff else {}
                return unit, m
        # a run of S(e) atoms is one walk, zero once r(e) != s(f), multiplied into
        # terms when the run ends; a run starts only while terms hold at most one
        # key, so the products keep the order the ring operations give
        terms, walk = None, ()
        while True:
            kind, f = m[2], None
            if kind:
                name = m[4]
                if m[5] is None:  # an atom cut short: say what is missing
                    rest = match(text, m.end())
                    if m[3] is None:
                        raise expected("'('", rest)
                    if name is None:
                        raise error(rest.start(1), "expected an identifier")
                    raise expected("')'", rest)
                if kind == "P":
                    if not g.has_vertex(name):
                        raise error(m.end(), f"unknown vertex id {name!r}")
                    f = {_new(Monomial, ((), (), name)): 1}
                elif not g.has_edge(name):
                    raise error(m.end(), f"unknown edge id {name!r}")
            elif m[1] == "(":
                if depth == MAX_NESTING:
                    raise error(m.start(1), f"parentheses nested deeper than {MAX_NESTING}")
                f, m = element(match(text, m.end()), depth + 1)
                if m[1] != ")":
                    raise expected("')'", m)
            else:
                raise expected("'P', 'S', or '('", m)
            m = match(text, m.end())
            if f is None and m[1] != "^" and (walk or terms is None or len(terms) < 2):
                e = g.edge(name)
                if walk and end != e.src:
                    terms, walk = {}, ()
                else:
                    walk, end = walk + (name,), e.dst
            else:
                if walk:
                    terms, walk = times(terms, {_new(Monomial, (walk, (), end)): 1}), ()
                if f is None:
                    f = {_new(Monomial, ((name,), (), g.edge(name).dst)): 1}
                while m[1] == "^":
                    m = match(text, m.end())
                    if m[1] != "*":
                        raise expected("'*'", m)
                    f = {_mono_star(k): c for k, c in f.items()}
                    m = match(text, m.end())
                terms = times(terms, f)
            if m[1] == ".":
                m = match(text, m.end())
            elif not m[2] and m[1] != "(":
                break
        if walk:
            terms = times(terms, {_new(Monomial, (walk, (), end)): 1})
        if coeff != 1:
            terms = {k: c * coeff for k, c in terms.items()} if coeff else {}
        return terms, m

    terms, m = element(match(text), 0)
    if m[1]:
        pos = m.start(1)
        raise error(pos, f"unexpected trailing input {text[pos:]!r}")
    return LeavittElem(g, terms)


# -- distinguished projections and isometries ---------------------------------


def build_Q(g: Graph, v: str, k: int, chooser: str = "lex") -> LeavittElem:
    """``S_mu S_mu^*`` for a chosen length-``k`` walk ``mu`` with range ``v``.

    ``chooser`` picks the walk by its tuple of edge declaration indices:
    ``"lex"`` takes the least, ``"revlex"`` the greatest.  It is chosen edge
    by edge in O(k |E|): with ``R_j`` the vertices that have a length-``j``
    walk to ``v``, step ``i`` takes the first declared edge (the last for
    ``"revlex"``) that starts where the walk so far ends and ends in
    ``R_(k-i)``.  The element is zero if no length-``k`` walk ends at ``v``.
    """
    if chooser not in ("lex", "revlex"):
        raise ValueError(f"unknown chooser {chooser!r}; use 'lex' or 'revlex'")
    g.vertex_index(v)
    if k < 0:
        raise ValueError(f"walk length must be nonnegative, got {k}")
    reach = [{v}]  # reach[j] = R_j
    for _ in range(k):
        reach.append({e.src for e in g.edges if e.dst in reach[-1]})
    if not reach[-1]:
        return LeavittElem.zero(g)
    mu, steps = [], g.edges
    for target in reversed(reach[:-1]):
        e = [f for f in steps if f.dst in target][0 if chooser == "lex" else -1]
        mu.append(e.eid)
        steps = g.out_edges(e.dst)
    mu = tuple(mu)
    return LeavittElem(g, {Monomial(mu, mu, v): 1})


def incoming_edge_choice(g: Graph) -> dict:
    """The first declared incoming edge of each vertex; raises
    :class:`SourceError` on sources."""
    srcs = g.sources()
    if srcs:
        raise SourceError(
            f"graph {g.name!r} has source vertices {list(srcs)}; "
            f"every vertex must receive an edge"
        )
    return {v: g.in_edges(v)[0].eid for v in g.vertices}


def build_Z(g: Graph, eta: dict) -> LeavittElem:
    """The sum ``Z = sum_w S_(eta(w))`` over a one-incoming-edge selection.

    ``eta`` must assign to *every* vertex ``w`` an edge with range ``w``.
    ``Z`` is then an isometry of the algebra: ``Z* Z = 1``.
    """
    if set(eta.keys()) != set(g.vertices):
        raise ValueError("eta must select exactly one incoming edge per vertex")
    terms: dict = {}
    for w in g.vertices:
        e = g.edge(eta[w])
        if e.dst != w:
            raise ValueError(
                f"eta({w!r}) = {e.eid!r} has range {e.dst!r}, not {w!r}"
            )
        terms[Monomial((e.eid,), (), w)] = 1
    return LeavittElem(g, terms)


def eta_walk(g: Graph, eta: dict, w: str, k: int) -> tuple:
    """Edge ids of the length-``k`` walk into ``w`` selected by ``eta``.

    The walk is built backwards: the last edge is ``eta(w)``, the one
    before it is ``eta`` of that edge's source, and so on.
    """
    edges: list = []
    cur = w
    for _ in range(k):
        e = g.edge(eta[cur])
        edges.append(e.eid)
        cur = e.src
    edges.reverse()
    return tuple(edges)


def z_isometry_report(g: Graph, eta: dict, depth: int) -> CheckReport:
    """Verify ``Z* Z = 1`` and the range projections of ``Z^k`` up to ``depth``."""
    rep = CheckReport(f"isometry checks on {g.name!r}")
    z = build_Z(g, eta)
    unit = LeavittElem.unit(g)
    rep.add("Z^* Z = 1", equals(z.star() * z, unit))
    zk = LeavittElem.unit(g)
    for k in range(1, depth + 1):
        zk = zk * z
        expected = LeavittElem(
            g,
            {
                Monomial(rho, rho, w): 1
                for w in g.vertices
                for rho in (eta_walk(g, eta, w, k),)
            },
        )
        rep.add(
            f"Z^{k} (Z^*)^{k} = sum of selected range projections",
            equals(zk * zk.star(), expected),
        )
    return rep


def walk_unit_identity(g: Graph, k: int) -> bool:
    """Exact check of ``sum over length-k walks mu of S_mu S_mu^* = 1``.

    On a graph with sinks the identity fails for ``k >= 1``.
    """
    from .graphs import directed_walks

    terms: dict = {}
    for w in directed_walks(g, k):
        mu = walk_edges(w)
        m = Monomial(mu, mu, w[-1])
        terms[m] = terms.get(m, 0) + 1
    total = LeavittElem(g, terms)
    return equals(total, LeavittElem.unit(g))


# -- induced homomorphisms along admissible embeddings -------------------------


def induced_hom(m: Morphism, x: LeavittElem) -> LeavittElem:
    """Pull an element of the codomain algebra back along an admissible embedding.

    The pulled-back family sends ``P_w`` to ``P_v`` when ``w`` is the image
    of ``v``, ``S_f`` to ``S_e`` when ``f`` is the image of ``e``, and every
    vertex or edge outside the image to zero.  On every call the morphism
    must be admissible and the family must satisfy the codomain relations
    (:func:`ck_verify`), or :class:`MorphismError` is raised; the element
    is then mapped by :func:`evaluate_family`.
    """
    verdict = check_morphism(m)
    if not verdict.admissible:
        raise MorphismError(
            f"morphism is not admissible "
            f"(injective={verdict.injective}, range_closed={verdict.range_closed}, "
            f"emission_covered={verdict.emission_covered})"
        )
    if x.graph != m.codomain:
        raise ValueError("element does not live over the morphism codomain")
    dom, cod = m.domain, m.codomain
    zero = LeavittElem.zero(dom)
    pmap = dict.fromkeys(cod.vertices, zero)
    pmap.update({w: LeavittElem.vertex_projection(dom, v) for v, w in m.vmap.items()})
    smap = dict.fromkeys((f.eid for f in cod.edges), zero)
    smap.update({f: LeavittElem.edge_gen(dom, e) for e, f in m.emap.items()})
    rep = ck_verify(cod, pmap, smap)
    if not rep.ok:
        raise MorphismError(
            "induced map does not preserve the generator relations: "
            + "; ".join(item.label for item in rep.failures())
        )
    return evaluate_family(pmap, smap, x) if x.terms else zero


# -- generic Cuntz-Krieger family verification ---------------------------------


def ck_verify(g: Graph, pmap: dict, smap: dict, unit=None) -> CheckReport:
    """Verify the relations of ``g`` for a family in any carrier algebra.

    ``pmap`` assigns an element to every vertex, ``smap`` to every edge;
    carrier elements need ``+``, ``-``, ``*``, ``star()``, ``is_zero()``.
    Checks: the vertex images are orthogonal self-adjoint idempotents,
    ``S_e^* S_e = P_(r(e))`` for every edge, ``S_e S_e^* <= P_(s(e))``,
    and at each emitting vertex ``P_v = sum S_e S_e^*``.  When ``unit`` is
    given, also checks that the vertex images sum to it.
    """
    rep = CheckReport(f"relations of {g.name!r}")
    missing = [v for v in g.vertices if v not in pmap]
    missing += [e.eid for e in g.edges if e.eid not in smap]
    if missing:
        raise ValueError(f"family is missing assignments for {missing}")
    for v in g.vertices:
        pv = pmap[v]
        rep.add(f"P({v}) self-adjoint", (pv.star() - pv).is_zero())
        for w in g.vertices:
            expected = pv if v == w else None
            prod = pv * pmap[w]
            diff = (prod - expected) if expected is not None else prod
            label = f"P({v})P({w}) = " + (f"P({v})" if v == w else "0")
            rep.add(label, diff.is_zero())
    for e in g.edges:
        se = smap[e.eid]
        rep.add(
            f"CK1 for {e.eid}", (se.star() * se - pmap[e.dst]).is_zero()
        )
        range_proj = se * se.star()
        rep.add(
            f"CK2 for {e.eid}",
            (range_proj * pmap[e.src] - range_proj).is_zero(),
        )
    for v in g.vertices:
        out = g.out_edges(v)
        if not out:
            continue
        total = None
        for e in out:
            term = smap[e.eid] * smap[e.eid].star()
            total = term if total is None else total + term
        rep.add(f"CK3 at {v}", (total - pmap[v]).is_zero())
    if unit is not None:
        total = None
        for v in g.vertices:
            total = pmap[v] if total is None else total + pmap[v]
        rep.add("vertex images sum to the unit", (total - unit).is_zero())
    return rep


def evaluate_family(pmap: dict, smap: dict, x: LeavittElem):
    """Evaluate an element through a generator family into any carrier.

    Extends the family multiplicatively and linearly:
    ``S_alpha S_beta^* -> smap(a_1)...smap(a_k) pmap(v) smap(b_l)^*...smap(b_1)^*``.
    An element with no terms maps to the carrier's zero, which an empty
    family cannot give: :class:`ValueError`.
    """
    total = None
    for mono, c in x.terms.items():
        el = pmap[mono.vertex]
        for eid in reversed(mono.alpha):
            el = smap[eid] * el
        # (S_b1 ... S_bl)^* = S_bl^* ... S_b1^*
        for eid in reversed(mono.beta):
            el = el * smap[eid].star()
        el = c * el
        total = el if total is None else total + el
    if total is None:
        if not pmap:
            raise ValueError("an element with no terms has no value in an empty family")
        some = next(iter(pmap.values()))
        total = some - some
    return total


# -- tensor-product carrier ----------------------------------------------------


class TensorElem(_Combination):
    """Integer combinations of elementary tensors over a pair of graphs.

    Keys are monomial pairs ``(left, right)``.
    """

    __slots__ = ("left_graph", "right_graph")

    def __init__(self, left_graph: Graph, right_graph: Graph, terms: dict):
        self.left_graph = left_graph
        self.right_graph = right_graph
        super().__init__(terms)

    @staticmethod
    def pure(x: LeavittElem, y: LeavittElem) -> "TensorElem":
        return TensorElem(x.graph, y.graph, _product(lambda ml, mr: (ml, mr), x.terms, y.terms))

    def _new(self, terms: dict) -> "TensorElem":
        return TensorElem(self.left_graph, self.right_graph, terms)

    def _same_graphs(self, other: "TensorElem") -> None:
        if self.left_graph != other.left_graph or self.right_graph != other.right_graph:
            raise ValueError("tensor elements live over different graph pairs")

    def _key_mul(self, k1: tuple, k2: tuple):
        ml = _mono_mul(self.left_graph, k1[0], k2[0])
        if ml is None:
            return None
        mr = _mono_mul(self.right_graph, k1[1], k2[1])
        return None if mr is None else (ml, mr)

    @staticmethod
    def _key_star(k: tuple) -> tuple:
        return (_mono_star(k[0]), _mono_star(k[1]))

    def is_zero(self) -> bool:
        # push the left factors down their trees; the final left nodes are
        # independent, so each one's right-hand element must vanish
        right: dict = {}
        for (ml, mr), c in self.terms.items():
            right.setdefault(ml, {})[mr] = c
        left = {ml: LeavittElem(self.right_graph, ts) for ml, ts in right.items()}
        return all(is_zero(y) for _, y in _refine(self.left_graph, left))

    def __repr__(self) -> str:
        return (
            f"TensorElem({self.left_graph.name!r} x {self.right_graph.name!r}, "
            f"{len(self.terms)} terms)"
        )


def product_tensor_family(e: Graph, f: Graph):
    """The canonical family for ``product(e, f)`` in the tensor carrier.

    Returns ``(graph, pmap, smap)`` where the product vertex ``v_w`` maps
    to ``P_v (x) P_w`` and the product edge ``a_b`` to ``S_a (x) S_b``.
    """
    from .ops import product

    pmap = {}
    for v in e.vertices:
        for w in f.vertices:
            pmap[f"{v}_{w}"] = TensorElem.pure(
                LeavittElem.vertex_projection(e, v),
                LeavittElem.vertex_projection(f, w),
            )
    smap = {}
    for a in e.edges:
        for b in f.edges:
            smap[f"{a.eid}_{b.eid}"] = TensorElem.pure(
                LeavittElem.edge_gen(e, a.eid), LeavittElem.edge_gen(f, b.eid)
            )
    return product(e, f), pmap, smap


# -- 2x2 integer Laurent-matrix carrier ----------------------------------------


class LaurentMat2(_Combination):
    """2x2 matrices over integer Laurent polynomials in ``z``, with *-structure.

    The key ``(i, j, p)`` is ``z^p E_ij`` (1-indexed): ``(i, j, p)(j, l, q)
    = (i, l, p + q)``, the product is zero when the inner indices differ,
    and the adjoint of ``(i, j, p)`` is ``(j, i, -p)``.
    """

    __slots__ = ()

    @staticmethod
    def identity() -> "LaurentMat2":
        return LaurentMat2({(1, 1, 0): 1, (2, 2, 0): 1})

    @staticmethod
    def unit(i: int, j: int, z_power: int = 0) -> "LaurentMat2":
        """``z^z_power`` times the matrix unit ``E_ij`` (1-indexed)."""
        if i not in (1, 2) or j not in (1, 2):
            raise ValueError(f"no matrix unit E_{i}{j} in a 2x2 matrix")
        return LaurentMat2({(i, j, z_power): 1})

    def _new(self, terms: dict) -> "LaurentMat2":
        return LaurentMat2(terms)

    @staticmethod
    def _key_mul(k1: tuple, k2: tuple):
        i, j, p = k1
        j2, l, q = k2
        return (i, l, p + q) if j == j2 else None

    @staticmethod
    def _key_star(k: tuple) -> tuple:
        i, j, p = k
        return (j, i, -p)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentMat2):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __repr__(self) -> str:
        return f"LaurentMat2({self.terms!r})"
