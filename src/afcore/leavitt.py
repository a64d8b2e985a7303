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

applied one step at a time by ``_expand``.  Zero tests read the
special-edge basis: with the first edge a vertex emits as its special
edge, the ``P_v`` and the monomials whose walks do not both end in one
special edge are a basis (Abrams, Ara and Siles Molina, LNM 2191, 2017;
over Z, Tomforde 2011).  :func:`_basis_form` rewrites by the range
relation at the source of that edge, so zero tests never expand and
answer exactly on every graph, as does :func:`normal_form`, which leaves
a monomial at a sink where it is.  ``_expand`` raises :class:`SinkError`
at a sink, but its one caller, :func:`normal_form`, never expands there,
so no public call here raises it; only a direct call of ``_expand`` at a
sink does.

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

from .errors import GuardError, MorphismError, ParseError, SinkError
from .graphs import Graph
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


# -- expansion and zero tests -------------------------------------------------


def _expand(g: Graph, m: Monomial) -> list:
    """The monomials ``S_(alpha.e) S_(beta.e)^*`` that the range relation
    rewrites ``m`` into; :class:`SinkError` if its base vertex emits none."""
    outgoing = g.out_edges(m.vertex)
    if not outgoing:
        raise SinkError(f"cannot expand at vertex {m.vertex!r}: it emits no edges")
    alpha, beta, _ = m
    return [_new(Monomial, (alpha + (e.eid,), beta + (e.eid,), e.dst)) for e in outgoing]


MAX_NORMAL_TERMS = 10**6  # the most terms normal_form writes, as graphs.MAX_EDGES


def normal_form(x: LeavittElem) -> LeavittElem:
    """Canonical representative: each degree component at its top level.

    A component whose longest ``beta`` has length ``L`` is written in the
    level-``L`` basis: ``|beta| = L``, or shorter with a sink as base
    vertex, where no expansion applies.  Coefficients are merged first, and
    a monomial that an earlier expansion cancelled is not expanded.
    A level pass that could make more than ``MAX_NORMAL_TERMS`` terms,
    counted from the out-degrees, is refused first with :class:`GuardError`.
    """
    g = x.graph
    comps: dict = {}
    for m, c in x.terms.items():
        comps.setdefault(m.degree, {})[m] = c
    out: dict = {}
    for _, work in sorted(comps.items()):
        level = max(len(m.beta) for m in work)
        while pending := [m for m in work if len(m.beta) < level and not g.is_sink(m.vertex)]:
            size = len(out) + len(work) + sum(len(g.out_edges(m.vertex)) - 1 for m in pending)
            if size > MAX_NORMAL_TERMS:
                raise GuardError(f"the normal form would reach {size} terms, "
                                 f"more than the guard of {MAX_NORMAL_TERMS}")
            for m in pending:
                c = work.pop(m, 0)
                if not c:
                    continue
                for key in _expand(g, m):
                    work[key] = work.get(key, 0) + c
        out.update(work)
    return LeavittElem(g, out)


def _basis_form(g: Graph, terms: dict) -> dict:
    """``terms`` in the special-edge basis, 0 coefficients kept.

    A key whose walks end in the same special edge ``e`` becomes ``S_a S_b^*
    - sum over f != e with s(f) = s(e) of S_(a.f) S_(b.f)^*``, and only the
    first of these can need rewriting again.  Longest keys go first, so no
    key is rewritten twice.  Coefficients need only ``+`` and ``-``.
    """
    work = dict(terms)
    for m in sorted(terms, key=lambda m: len(m.alpha) + len(m.beta), reverse=True):
        a, b, _ = m
        while a and b and a[-1] == b[-1] and m in work:
            out = g.out_edges(g.edge(a[-1]).src)
            if out[0].eid != a[-1]:
                break
            c = work.pop(m)
            a, b = a[:-1], b[:-1]
            m = _new(Monomial, (a, b, out[0].src))
            work[m] = work[m] + c if m in work else c
            for f in out[1:]:
                key = _new(Monomial, (a + (f.eid,), b + (f.eid,), f.dst))
                work[key] = work[key] - c if key in work else -c
    return work


def is_zero(x: LeavittElem) -> bool:
    """Exact zero test: every coefficient in the special-edge basis is 0."""
    return not any(_basis_form(x.graph, x.terms).values())


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


# -- distinguished projections ------------------------------------------------


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
        # the left factors in the basis, their right-hand elements as
        # coefficients: each of those must vanish
        right: dict = {}
        for (ml, mr), c in self.terms.items():
            right.setdefault(ml, {})[mr] = c
        left = {ml: LeavittElem(self.right_graph, ts) for ml, ts in right.items()}
        return all(is_zero(y) for y in _basis_form(self.left_graph, left).values())

    def __repr__(self) -> str:
        return (
            f"TensorElem({self.left_graph.name!r} x {self.right_graph.name!r}, "
            f"{len(self.terms)} terms)"
        )


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
