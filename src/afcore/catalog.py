"""Named graph families, expected facts, and the verification suites.

The catalog is one table of :class:`CatalogEntry` records, one per family.
Each declares its parameters as ``(name, converter, default)`` and carries
its builder and its closed-form facts, both called with the same resolved
keyword parameters.  The families are the recurring examples:

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

:func:`build`, :func:`build_token`, :func:`expected_facts` and
:func:`verify_entry` share one name lookup and one parameter resolver.
``run_suite`` exposes one verification suite per acceptance area; the
suites declare their parameters in the same form and go through the same
resolver, and each re-derives every expected fact rather than trusting the
records here.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from . import graphs, ktheory, leavitt, linalg, ops, picard
from .errors import NotUnimodular, SourceError
from .graphs import Edge, Graph
from .linalg import Matrix
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


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    summary: str
    params: tuple  # ((pname, converter, default-or-_REQUIRED), ...)
    build: Callable[..., Graph]
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
        lambda labels: {
            "n_vertices": 2,
            "n_edges": 3,
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
        lambda n: {
            "n_vertices": n,
            "n_edges": n * (n + 1) // 2,
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
        lambda n: {
            "n_vertices": 1,
            "n_edges": n,
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
        lambda k: {
            "n_vertices": k + 1,
            "n_edges": k + 1,
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
        lambda k: {
            "n_vertices": k + 1,
            "n_edges": 2 * k + 1,
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
        lambda n: {
            "n_vertices": n,
            "n_edges": n,
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
        lambda n: {
            "n_vertices": n,
            "n_edges": n * n,
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
        lambda: {
            "n_vertices": 2,
            "n_edges": 2,
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


def build(name: str, **params) -> Graph:
    """Build a catalog graph by family name and keyword parameters."""
    entry, kwargs = _instance(name, params)
    return entry.build(**kwargs)


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
    return entry.build(**_resolve(repr(entry.name), entry.params, params))


def expected_facts(name: str, **params) -> dict:
    """Literal formulas for key invariants of a catalog instance.

    These records are written from the closed forms, not computed by the
    library; :func:`verify_entry` re-derives everything and compares.
    """
    entry, kwargs = _instance(name, params)
    return entry.facts(**kwargs)


def verify_entry(name: str, **params) -> CheckReport:
    """Re-derive the expected facts of a catalog instance and compare."""
    entry, kwargs = _instance(name, params)
    g = entry.build(**kwargs)
    facts = entry.facts(**kwargs)
    rep = CheckReport(f"expected facts for {g.name!r}")
    rep.add("vertex count", g.n_vertices == facts["n_vertices"])
    rep.add("edge count", g.n_edges == facts["n_edges"])
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


def small_graph_universe(max_vertices: int = 3, max_multiplicity: int = 2):
    """Every multigraph on ordered vertex sets of size 1..max_vertices with
    at most ``max_multiplicity`` parallel edges per ordered vertex pair.

    With the defaults this yields 3 + 81 + 19683 = 19767 graphs, lazily.
    Graph ``u{k}`` is the k-th multiplicity vector over the ordered vertex
    pairs in ``itertools.product`` order, its edges ``e1, e2, ...`` listed
    pair by pair.  Each edge tuple is a head, over the first half of the
    pairs, joined to a tail over the last ⌊|pairs|/2⌋ pairs; the tails are
    made once per vertex count for every number of edges before them.
    The graphs are made with ``Graph._trusted`` and build no index.
    """
    counter = 0
    for n in range(1, max_vertices + 1):
        vertices = tuple(str(i) for i in range(1, n + 1))
        pairs = [(a, b) for a in vertices for b in vertices]
        slots = range(1, len(pairs) * max_multiplicity + 1)
        rows = [tuple(Edge(f"e{i}", a, b) for i in slots) for a, b in pairs]
        half = len(pairs) - len(pairs) // 2
        tails = [
            _edge_runs(rows[half:], before, max_multiplicity)
            for before in range(half * max_multiplicity + 1)
        ]
        for head in _edge_runs(rows[:half], 0, max_multiplicity):
            for tail in tails[len(head)]:
                counter += 1
                yield Graph._trusted(f"u{counter}", vertices, head + tail)


def _edge_runs(rows: list, before: int, max_multiplicity: int) -> list:
    """The edge tuples of every multiplicity vector over ``rows``' pairs, in
    ``itertools.product`` order, numbered after ``before`` earlier edges;
    ``rows[p][i]`` is pair p's edge ``e{i + 1}``."""
    runs: list[tuple] = [()]
    for row in rows:
        runs = [
            run + row[before + len(run) : before + len(run) + c]
            for run in runs
            for c in range(max_multiplicity + 1)
        ]
    return runs


# -- verification suites ---------------------------------------------------------


def _fib(n: int) -> int:
    """Fibonacci with F_0 = 0, F_1 = 1, extended to n >= -2."""
    if n < -2:
        raise ValueError(f"not extended below -2, got {n}")
    a, b = -1, 1  # F_-2, F_-1
    for _ in range(n + 2):
        a, b = b, a + b
    return a


def suite_penrose() -> CheckReport:
    rep = CheckReport("Fibonacci-graph end-to-end checks")
    g = build("penrose")
    rep.extend(verify_entry("penrose"), prefix="facts: ")

    info = graphs.classify(g)
    rep.add(
        "classification",
        (
            not info.is_functional
            and not info.is_transposed_functional
            and info.is_connected
            and not info.sinks
            and not info.sources
        ),
    )
    t = ktheory.Tower(g)
    rep.add("adjacency inverse", t.gamma_inv.rows == ((0, 1), (1, -1)))

    fib_ok = True
    for k in range(0, 21):
        if t.orbit(k) != (_fib(k + 2), _fib(k + 1)):
            fib_ok = False
    rep.add("walk counts are consecutive Fibonacci numbers (k <= 20)", fib_ok)

    neg_ok = True
    for k in range(1, 21):
        expected = ((-1) ** (k + 1) * _fib(k - 2), (-1) ** k * _fib(k - 1))
        if t.orbit(-k) != expected:
            neg_ok = False
    rep.add("signed walk counts at negative powers (k <= 20)", neg_ok)

    el0 = t.line_class(0).vector
    el1 = t.line_class(1).vector
    rep.add("[L_0] is the unit vector of all ones", el0 == (1, 1))
    rep.add("[L_1] is the first vertex class", el1 == (1, 0))
    lfibo_ok = True
    for k in range(1, 21):
        got_pos = t.line_class(k).vector
        sign = (-1) ** k
        want_pos = tuple(
            sign * (_fib(k - 1) * a - _fib(k) * b) for a, b in zip(el0, el1)
        )
        got_neg = t.line_class(-k).vector
        want_neg = tuple(
            _fib(k + 1) * a + _fib(k) * b for a, b in zip(el0, el1)
        )
        if got_pos != want_pos or got_neg != want_neg:
            lfibo_ok = False
    rep.add("line classes satisfy the Fibonacci recursion (k <= 20, both signs)", lfibo_ok)

    rep.add(
        "inverse of the ring generator is x + 1",
        linalg.lambda_pow(t.rev_charpoly, -1).residue == (1, 1),
    )
    rep.add("phi matches powers (|k| <= 6)", t.verify_phi(6).ok)
    rep.add("phi is multiplicative (|j|,|k| <= 6)", t.semiring_check(6).ok)

    diagram = t.bratteli(8)
    sizes_ok = all(
        dict(level) == {"1": _fib(k + 1), "2": _fib(k)}
        for k, level in enumerate(diagram.levels, start=1)
    )
    rep.add("tower sizes are Fibonacci pairs (8 levels)", sizes_ok)
    return rep


def suite_cpq(n: int | None) -> CheckReport:
    rep = CheckReport("triangular-family (quantum projective space) checks")
    ns = [n] if n is not None else list(range(2, 9))
    for nn in ns:
        g = build("sigma", n=nn)
        rep.extend(verify_entry("sigma", n=nn), prefix=f"n={nn} facts: ")
        t = ktheory.Tower(g)

        ok_pow = True
        p = Matrix.identity(nn)
        for k in range(0, 11):
            for i in range(nn):
                for j in range(nn):
                    want = (-1) ** (j - i) * math.comb(k, j - i) if j >= i else 0
                    if p[(i, j)] != want:
                        ok_pow = False
            p = p * t.gamma_inv
        rep.add(f"n={nn}: inverse powers are signed binomials (k <= 10)", ok_pow)

        ok_m = True
        for k in range(0, 11):
            got = t.orbit(k)
            want = tuple(math.comb(j + k - 1, k) for j in range(1, nn + 1))
            if got != want:
                ok_m = False
        rep.add(f"n={nn}: walk counts match the binomial formula (k <= 10)", ok_m)

        ok_mneg = True
        for k in range(1, 11):
            got = t.orbit(-k)
            want = tuple(
                (-1) ** (j - 1) * math.comb(k - 1, j - 1) for j in range(1, nn + 1)
            )
            if got != want:
                ok_mneg = False
        rep.add(
            f"n={nn}: signed walk counts match the binomial formula (k <= 10)",
            ok_mneg,
        )

        # degree-lowering recursion at k = n (and above) with explicit coefficients
        ident = t.atiyah_todd(nn)
        want_coeffs = tuple(
            (j, (-1) ** (nn + 1) * (-1) ** j * math.comb(nn, j)) for j in range(nn)
        )
        rep.add(
            f"n={nn}: top-degree class recursion has the expected coefficients",
            ident.coeffs == want_coeffs and ident.verified,
        )
        up_ok = all(t.atiyah_todd(k).verified for k in range(nn, nn + 3))
        rep.add(f"n={nn}: degree-lowering recursions verify (k = n..n+2)", up_ok)

        ident_neg = t.atiyah_todd(-1)
        want_neg = tuple(
            (j, (-1) ** j * math.comb(nn, j + 1)) for j in range(nn)
        )
        rep.add(
            f"n={nn}: inverse-class expansion has the expected coefficients",
            ident_neg.coeffs == want_neg and ident_neg.verified,
        )
        down_ok = all(t.atiyah_todd(k).verified for k in (-1, -2, -3))
        rep.add(f"n={nn}: degree-raising recursions verify (k = -1..-3)", down_ok)

        one = linalg.quot_one(t.rev_charpoly)
        lam = linalg.lambda_pow(t.rev_charpoly, 1)
        nil = one - lam
        power = one
        for _ in range(nn):
            power = power * nil
        rep.add(f"n={nn}: (1 - x)^n vanishes in the class ring", power.is_zero())
        power_below = one
        for _ in range(nn - 1):
            power_below = power_below * nil
        rep.add(f"n={nn}: (1 - x)^(n-1) does not vanish", not power_below.is_zero())

        mm = t.line_class_matrix
        mprime = Matrix(
            [
                [(-1) ** (j) * math.comb(k, j) for j in range(nn)]
                for k in range(nn)
            ]
        )
        rep.add(
            f"n={nn}: line-class matrix factors through the signed Pascal matrix",
            mm == mprime * t.gamma,
        )
        rep.add(
            f"n={nn}: the signed Pascal matrix is an involution",
            mprime * mprime == Matrix.identity(nn),
        )
        rep.add(f"n={nn}: phi matches powers (|k| <= 6)", t.verify_phi(6).ok)
    return rep


def suite_uhf(n: int | None) -> CheckReport:
    rep = CheckReport("single-vertex multi-loop (UHF) checks")
    ns = [n] if n is not None else list(range(2, 6))
    for nn in ns:
        g = build("cuntz", n=nn)
        rep.extend(verify_entry("cuntz", n=nn), prefix=f"n={nn} facts: ")
        t = ktheory.Tower(g)
        rep.add(f"n={nn}: K0 is a colimit of rank 1", not t.unimodular and t.colimit.rank == 1)
        ok_embed = True
        for k in range(-6, 7):
            cls = t.line_class(k)
            if ktheory.uhf_embed(nn, cls) != Fraction(nn) ** (-k):
                ok_embed = False
        rep.add(f"n={nn}: line classes embed as n^-k (|k| <= 6)", ok_embed)

        ok_q = all(
            ktheory.uhf_embed(nn, t.q_class("1", k)) == Fraction(1, nn**k)
            for k in range(0, 7)
        )
        rep.add(f"n={nn}: distinguished projections embed as n^-k (k <= 6)", ok_q)

        unit = ktheory.class_of_unit(g)
        ok_power = all(
            t.k0_equal(t.line_class(-k), unit.scale(nn**k)) for k in range(0, 7)
        )
        rep.add(f"n={nn}: [L_-k] equals n^k times the unit class (k <= 6)", ok_power)
    return rep


def suite_admissibility() -> CheckReport:
    rep = CheckReport("admissibility criteria over the small-graph universe")
    total = 0
    diag_bad: list = []
    vert_checked = 0
    vert_bad: list = []
    for g in small_graph_universe():
        total += 1
        prod = ops.product(g, g)
        diag_admissible = ops.check_morphism(
            ops.diagonal_embedding(g, within=prod)
        ).admissible
        predicted = all(g.in_degree(v) <= 1 for v in g.vertices)
        if diag_admissible != predicted:
            diag_bad.append(g.name)
        for e in g.edges:
            if e.src != e.dst:
                continue
            vert_checked += 1
            vert_admissible = ops.check_morphism(
                ops.vertical_embedding(g, g, e.eid, within=prod)
            ).admissible
            predicted_v = g.in_edges(e.src) == (e,)
            if vert_admissible != predicted_v:
                vert_bad.append((g.name, e.eid))
    rep.add("universe size is 19767", total == 19767, f"{total} graphs")
    rep.add(
        "diagonal embedding admissible iff no vertex receives two edges",
        not diag_bad,
        f"{total} graphs, {len(diag_bad)} disagreements",
    )
    rep.add(
        "loop embedding admissible iff the loop is its vertex's only incoming edge",
        not vert_bad,
        f"{vert_checked} loop instances, {len(vert_bad)} disagreements",
    )
    return rep


def suite_embeddings() -> CheckReport:
    rep = CheckReport("embeddings of the 2-triangular graph into its square")
    g = build("sigma", n=2)
    prod = ops.product(g, g)
    found = ops.enumerate_admissible_embeddings(g, prod)
    rep.add("exactly two admissible embeddings", len(found) == 2, f"found {len(found)}")
    images = [frozenset(m.vmap.values()) for m in found]
    expected = [frozenset({"1_1", "1_2"}), frozenset({"1_1", "2_1"})]
    rep.add(
        "vertex images are the expected axis copies",
        sorted(map(sorted, images)) == sorted(map(sorted, expected)),
        "; ".join(",".join(sorted(s)) for s in images),
    )
    for m in found:
        rep.add(
            f"enumerated embedding {sorted(m.vmap.values())} is admissible",
            ops.check_morphism(m).admissible,
        )
    return rep


def suite_structure() -> CheckReport:
    rep = CheckReport("structure theorems over the small-graph universe")
    total = 0
    lemma_cases = 0
    lemma_bad: list = []
    prop_cases = 0
    prop_bad: list = []
    for g in small_graph_universe():
        total += 1
        info = graphs.classify(g)
        if info.is_connected and (info.is_functional or info.is_transposed_functional):
            lemma_cases += 1
            if info.directed_cycle_count > 1:
                lemma_bad.append(g.name)
        if info.is_connected and not info.sinks and info.is_transposed_functional:
            prop_cases += 1
            if not info.is_cycle_graph:
                prop_bad.append(g.name)
    rep.add("universe size is 19767", total == 19767, f"{total} graphs")
    rep.add(
        "connected + (out- or in-)degree <= 1 forces at most one cycle",
        not lemma_bad,
        f"{lemma_cases} applicable graphs, {len(lemma_bad)} counterexamples",
    )
    rep.add(
        "connected + sink-free + in-degree <= 1 forces a cycle graph",
        not prop_bad,
        f"{prop_cases} applicable graphs, {len(prop_bad)} counterexamples",
    )
    return rep


def _derive_vertex_images(g: Graph, smap: dict, unit, rep: CheckReport) -> dict:
    """Recover vertex images from edge images: ``P_(r(e)) = S_e^* S_e``.

    Vertices receiving several edges must give consistent answers, and a
    single uncovered vertex (a source) gets the complement of the unit.
    """
    pmap: dict = {}
    for v in g.vertices:
        incoming = g.in_edges(v)
        if not incoming:
            continue
        first = smap[incoming[0].eid].star() * smap[incoming[0].eid]
        for e in incoming[1:]:
            cand = smap[e.eid].star() * smap[e.eid]
            rep.add(
                f"vertex image at {v} consistent via {e.eid}",
                (cand - first).is_zero(),
            )
        pmap[v] = first
    uncovered = [v for v in g.vertices if v not in pmap]
    if len(uncovered) > 1:
        raise ValueError(
            f"cannot derive vertex images: several source vertices {uncovered}"
        )
    if uncovered:
        total = unit
        for el in pmap.values():
            total = total - el
        pmap[uncovered[0]] = total
        rep.add(f"vertex image at source {uncovered[0]} set to unit complement", True)
    return pmap


def _laurent_model_report() -> CheckReport:
    """Verify the two 2x2 Laurent-matrix models of the circle algebra.

    Model one realizes ``tadpole`` (an edge ``1 -> 2`` plus a loop at
    ``2``); model two realizes the two-cycle.  Edge images are fixed data;
    vertex images are derived from the relations and cross-checked.
    """
    rep = CheckReport("2x2 Laurent matrix models")
    mat = leavitt.LaurentMat2
    unit = mat.identity()
    models = (
        ("E", build("tadpole"), {"e12": mat.unit(2, 1), "e22": mat.unit(1, 1, z_power=1)}),
        ("F", build("cycle", n=2), {"c1": mat.unit(2, 1), "c2": mat.unit(1, 2, z_power=1)}),
    )
    for label, g, smap in models:
        pmap = _derive_vertex_images(g, smap, unit, rep)
        rep.extend(leavitt.ck_verify(g, pmap, smap, unit=unit), prefix=f"model {label}: ")
    return rep


def _cuntz_to_penrose_report() -> CheckReport:
    """Verify the factorization of the two-generator Cuntz family.

    Stage one maps ``cuntz:2`` into its line graph (each generator becomes
    the sum of the line-graph generators leaving the matching vertex).
    Stage two maps the line graph into ``penrose`` (edges a: 1->1, b: 1->2,
    c: 2->1) by walk substitution.  The composite sends the three
    distinguished products back to the single generators a, b, c.
    """
    rep = CheckReport("Cuntz family factorization")
    elem = leavitt.LeavittElem
    b2 = build("cuntz", n=2)
    lb2 = ops.line_graph(b2)
    pen = build("penrose")

    # stage one: generators of the two-loop graph inside the line-graph algebra
    f_pmap = {"1": elem.unit(lb2)}
    f_smap = {
        "g1": elem.edge_gen(lb2, "g1_g1") + elem.edge_gen(lb2, "g1_g2"),
        "g2": elem.edge_gen(lb2, "g2_g1") + elem.edge_gen(lb2, "g2_g2"),
    }
    rep.extend(leavitt.ck_verify(b2, f_pmap, f_smap, unit=elem.unit(lb2)), prefix="stage 1: ")

    # stage two: line-graph generators inside the two-vertex algebra
    g_pmap = {
        "g1": elem.vertex_projection(pen, "1"),
        "g2": elem.vertex_projection(pen, "2"),
    }
    g_smap = {
        "g1_g1": elem.edge_gen(pen, "a"),
        "g1_g2": elem.edge_gen(pen, "b"),
        "g2_g1": elem.monomial_elem(pen, ("c", "a"), ()),
        "g2_g2": elem.monomial_elem(pen, ("c", "b"), ()),
    }
    rep.extend(leavitt.ck_verify(lb2, g_pmap, g_smap, unit=elem.unit(pen)), prefix="stage 2: ")

    # composite identities: the distinguished products land on the generators
    def composite(x):
        mid = leavitt.evaluate_family(f_pmap, f_smap, x)
        return leavitt.evaluate_family(g_pmap, g_smap, mid)

    s1 = elem.edge_gen(b2, "g1")
    s2 = elem.edge_gen(b2, "g2")
    targets = [
        ("(S1)^2 S1^* -> a", s1 * s1 * s1.star(), elem.edge_gen(pen, "a")),
        ("S1 S2 S2^* -> b", s1 * s2 * s2.star(), elem.edge_gen(pen, "b")),
        ("S2 S1^* -> c", s2 * s1.star(), elem.edge_gen(pen, "c")),
    ]
    for label, source, expected in targets:
        rep.add(f"composite sends {label}", leavitt.equals(composite(source), expected))
    return rep


def suite_symbolic() -> CheckReport:
    rep = CheckReport("symbolic algebra checks")
    pen = build("penrose")
    sig2 = build("sigma", n=2)

    for left, right in ((pen, pen), (sig2, sig2)):
        prod, pmap, smap = leavitt.product_tensor_family(left, right)
        sub = leavitt.ck_verify(prod, pmap, smap)
        rep.add(
            f"tensor family satisfies the relations of {prod.name}",
            sub.ok,
            f"{len(sub.items)} relations",
        )

    lau = _laurent_model_report()
    rep.add("2x2 Laurent matrix models verify", lau.ok, f"{len(lau.items)} checks")
    fac = _cuntz_to_penrose_report()
    rep.add("Cuntz family factorization verifies", fac.ok, f"{len(fac.items)} checks")

    sink_free_tokens = (
        "penrose",
        "sigma:2",
        "sigma:3",
        "cuntz:2",
        "cuntz:3",
        "lens:1",
        "lens:2",
        "cycle:1",
        "cycle:2",
        "cycle:3",
        "full:1",
        "full:2",
        "full:3",
        "tadpole",
    )
    for token in sink_free_tokens:
        g = build_token(token)
        ok = all(leavitt.walk_unit_identity(g, k) for k in range(0, 5))
        rep.add(f"walk resolution of the unit on {token} (k <= 4)", ok)

    for token in ("penrose", "sigma:2", "cuntz:2", "cuntz:3"):
        g = build_token(token)
        eta = leavitt.incoming_edge_choice(g)
        zrep = leavitt.z_isometry_report(g, eta, 4)
        rep.add(f"isometry tower on {token} (k <= 4)", zrep.ok, f"{len(zrep.items)} checks")
    return rep


def suite_k0() -> CheckReport:
    rep = CheckReport("K0 bookkeeping cross-checks")
    towers: dict = {}

    def tower(token: str) -> ktheory.Tower:
        if token not in towers:
            towers[token] = ktheory.Tower(build_token(token))
        return towers[token]

    for token in ("penrose", "sigma:2", "sigma:3", "cycle:2", "cycle:3", "lens:2"):
        t = tower(token)
        rng = random.Random(f"k0:{token}")
        n = t.n
        agree = 0
        for _ in range(100):
            a = ktheory.K0Class(
                tuple(rng.randint(-3, 3) for _ in range(n)), rng.randint(0, 3)
            )
            b = ktheory.K0Class(
                tuple(rng.randint(-3, 3) for _ in range(n)), rng.randint(0, 3)
            )
            colimit_eq = t.k0_equal(a, b)
            free_eq = t.to_free(a).vector == t.to_free(b).vector
            if colimit_eq == free_eq:
                agree += 1
        rep.add(
            f"colimit equality matches the free transport on {token}",
            agree == 100,
            "100 seeded class pairs",
        )

    for token in (
        "penrose",
        "sigma:2",
        "sigma:3",
        "cuntz:2",
        "cuntz:3",
        "cycle:3",
        "full:2",
        "lens:2",
        "tadpole",
    ):
        rep.add(
            f"projection class recursion on {token} (k <= 5)",
            tower(token).verify_q_recursion(5).ok,
        )

    for token in ("penrose", "sigma:2", "cuntz:2", "tadpole", "full:2"):
        g = tower(token).graph
        all_ok = True
        for v in g.vertices:
            for k in range(1, 4):
                q_lex = leavitt.build_Q(g, v, k, "lex")
                q_rev = leavitt.build_Q(g, v, k, "revlex")
                if not q_lex.terms and not q_rev.terms:
                    continue
                mu = next(iter(q_lex.terms)).alpha
                mu_rev = next(iter(q_rev.terms)).alpha
                link = leavitt.LeavittElem.monomial_elem(g, mu_rev, mu)
                if not leavitt.equals(link.star() * link, q_lex):
                    all_ok = False
                if not leavitt.equals(link * link.star(), q_rev):
                    all_ok = False
        rep.add(
            f"chooser-independence witnesses on {token} (k <= 3)",
            all_ok,
            "equivalence implemented by the connecting partial isometry",
        )

    tado = tower("tadpole")
    p1 = ktheory.K0Class((1, 0), 0)
    p2 = ktheory.K0Class((0, 1), 0)
    rep.add("tadpole: the two vertex classes agree", tado.k0_equal(p1, p2))
    rep.add(
        "tadpole: the unit is twice the loop vertex class",
        tado.k0_equal(ktheory.class_of_unit(tado.graph), p2.scale(2)),
    )
    rep.add(
        "tadpole: distinguished projections all give the loop class (k <= 5)",
        all(
            tado.k0_equal(tado.q_class("2", k), p2)
            for k in range(0, 6)
        ),
    )
    neg_ok = all(
        tado.k0_equal(tado.line_class(-k), p2.scale(2))
        for k in range(1, 6)
    )
    rep.add("tadpole: negative line classes equal the unit class (k <= 5)", neg_ok)
    try:
        tado.line_class(1)
        raised = False
    except SourceError:
        raised = True
    rep.add("tadpole: positive line classes refuse (source present)", raised)

    cyc = tower("cycle:2")
    rep.add("two-cycle: K0 free of rank 2", cyc.unimodular and cyc.colimit.rank == 2)
    rep.add(
        "two-cycle: every line class is the unit class (|k| <= 6)",
        all(
            cyc.line_class(k).vector == (1, 1) for k in range(-6, 7)
        ),
    )
    rep.add(
        "two-cycle: line-class matrix is the all-ones matrix",
        cyc.line_class_matrix.rows == ((1, 1), (1, 1)),
    )
    try:
        cyc.phi(ktheory.class_of_unit(cyc.graph))
        raised = False
    except NotUnimodular:
        raised = True
    rep.add("two-cycle: phi refuses (line-class matrix is singular)", raised)
    return rep


def suite_kk() -> CheckReport:
    rep = CheckReport("shift-matrix checks")
    for token in ("penrose", "sigma:2", "sigma:3", "sigma:4", "sigma:5"):
        t = ktheory.Tower(build_token(token))
        sub = t.kk_report(6)
        rep.add(f"shift matrix checks on {token}", sub.ok, f"{len(sub.items)} checks")
        rep.add(
            f"shift matrix of {token} is the adjacency inverse",
            t.kk_matrix == linalg.inv_unimodular(t.gamma),
        )
    rep.add(
        "identity matrix is derogatory in size 2",
        not linalg.is_non_derogatory(Matrix.identity(2)),
    )
    return rep


def suite_picard() -> CheckReport:
    rep = CheckReport("Picard group checks")
    for n in range(1, 6):
        dims = tuple(range(1, n + 1))
        a = picard.FinDimCStar(dims)
        rep.add(
            f"order n! for distinct block sizes (n={n})",
            len(picard.pic_elements(a)) == math.factorial(n),
        )
        rep.add(
            f"order n! for equal block sizes (n={n})",
            len(picard.pic_elements(picard.FinDimCStar((2,) * n)))
            == math.factorial(n),
        )

    for n in range(1, 5):
        dims = tuple(range(1, n + 1))
        a = picard.FinDimCStar(dims)
        elems = picard.pic_elements(a)
        ident = picard.pic_identity(a)
        probe = tuple(10 * (i + 1) for i in range(n))
        closure = all(
            picard.pic_tensor(x, y) in elems for x in elems for y in elems
        )
        assoc = all(
            picard.pic_tensor(picard.pic_tensor(x, y), z)
            == picard.pic_tensor(x, picard.pic_tensor(y, z))
            for x in elems
            for y in elems
            for z in elems
        )
        unit_law = all(
            picard.pic_tensor(x, ident) == x and picard.pic_tensor(ident, x) == x
            for x in elems
        )
        inverse_law = all(
            picard.pic_tensor(x, picard.pic_inverse(x)) == ident
            and picard.pic_tensor(picard.pic_inverse(x), x) == ident
            for x in elems
        )
        sigma_law = all(
            picard.center_act(picard.sigma_of(picard.pic_tensor(x, y)), probe)
            == picard.center_act(
                picard.sigma_of(x), picard.center_act(picard.sigma_of(y), probe)
            )
            for x in elems
            for y in elems
        )
        sigma_injective = len({picard.sigma_of(x) for x in elems}) == len(elems)
        rep.add(
            f"group laws hold exhaustively (n={n})",
            closure and assoc and unit_law and inverse_law,
        )
        rep.add(f"centre action respects the product (n={n})", sigma_law)
        rep.add(f"centre map is injective (n={n})", sigma_injective)

    dims = (1, 2, 2, 3)
    a = picard.FinDimCStar(dims)
    rng = random.Random("picard-end-check")
    agree = 0
    for _ in range(200):
        mult = tuple(rng.randint(1, 4) for _ in dims)
        got = picard.end_check(a, mult)
        oracle = any(
            all(mult[i] == dims[tau[i]] for i in range(len(dims)))
            for tau in itertools.permutations(range(len(dims)))
        )
        if got == oracle:
            agree += 1
    rep.add(
        "endomorphism multiplicity test matches brute force",
        agree == 200,
        "200 seeded multiplicity vectors",
    )
    return rep


def suite_negative_controls() -> CheckReport:
    """Deliberately corrupted data; every check here must FAIL to pass."""
    rep = CheckReport("negative controls (corrupted inputs must fail)")

    # 1. matrix model with a corrupted edge image
    two_cycle = build("cycle", n=2)
    bad_smap = {
        "c1": leavitt.LaurentMat2.unit(2, 1) + leavitt.LaurentMat2.unit(1, 2),
        "c2": leavitt.LaurentMat2.unit(1, 2, z_power=1),
    }
    bad_pmap = {
        "1": leavitt.LaurentMat2.unit(2, 2),
        "2": leavitt.LaurentMat2.unit(1, 1),
    }
    bad = leavitt.ck_verify(two_cycle, bad_pmap, bad_smap, unit=leavitt.LaurentMat2.identity())
    rep.add("corrupted matrix model fails the relations", not bad.ok)

    # 2. dropped summand in the two-loop family
    b2 = build("cuntz", n=2)
    lb2 = ops.line_graph(b2)
    partial_smap = {
        "g1": leavitt.LeavittElem.edge_gen(lb2, "g1_g1"),  # second summand dropped
        "g2": leavitt.LeavittElem.edge_gen(lb2, "g2_g1")
        + leavitt.LeavittElem.edge_gen(lb2, "g2_g2"),
    }
    partial = leavitt.ck_verify(
        b2, {"1": leavitt.LeavittElem.unit(lb2)}, partial_smap
    )
    rep.add("dropped generator summand fails the relations", not partial.ok)

    # 3. perturbed class-recursion coefficients
    sig3 = ktheory.Tower(build("sigma", n=3))
    ident = sig3.atiyah_todd(3)
    lhs = sig3.line_class(3).vector
    rhs = (0,) * 3
    for idx, (j, coeff) in enumerate(ident.coeffs):
        bad_coeff = coeff + (1 if idx == 0 else 0)
        vec = sig3.line_class(j).vector
        rhs = tuple(r + bad_coeff * x for r, x in zip(rhs, vec))
    rep.add("perturbed recursion coefficients break the identity", lhs != rhs)

    # 4. adjacency used in place of its inverse as the shift
    pen = build("penrose")
    tpen = ktheory.Tower(pen)
    wrong = linalg.row_vec_mul(tpen.line_class(0).vector, tpen.gamma)
    rep.add(
        "the adjacency itself does not shift line classes",
        wrong != tpen.line_class(1).vector,
    )

    # 5. distinct classes stay distinct
    p1 = ktheory.K0Class((1, 0), 0)
    unit = ktheory.class_of_unit(pen)
    rep.add(
        "vertex class differs from the unit class (free case)",
        not tpen.k0_equal(p1, unit),
    )
    p2 = ktheory.K0Class((0, 1), 0)
    rep.add(
        "vertex class differs from its double (colimit case)",
        not ktheory.Tower(build("tadpole")).k0_equal(p2, p2.scale(2)),
    )

    # 6. corrupted tensor family
    prod, pmap, smap = leavitt.product_tensor_family(pen, pen)
    smap = dict(smap)
    smap["a_a"] = leavitt.TensorElem.pure(
        leavitt.LeavittElem.edge_gen(pen, "a"), leavitt.LeavittElem.edge_gen(pen, "b")
    )
    corrupted = leavitt.ck_verify(prod, pmap, smap)
    rep.add("corrupted tensor family fails the relations", not corrupted.ok)

    # 7. the two chooser policies give genuinely different projections
    q_lex = leavitt.build_Q(pen, "1", 2, "lex")
    q_rev = leavitt.build_Q(pen, "1", 2, "revlex")
    rep.add(
        "chooser policies differ at the element level",
        not leavitt.equals(q_lex, q_rev),
    )
    return rep


# name -> (suite, its ((pname, converter, default), ...) declarations)
SUITES = {
    "penrose": (suite_penrose, ()),
    "cpq": (suite_cpq, (("n", int, None),)),
    "uhf": (suite_uhf, (("n", int, None),)),
    "admissibility": (suite_admissibility, ()),
    "embeddings": (suite_embeddings, ()),
    "structure": (suite_structure, ()),
    "symbolic": (suite_symbolic, ()),
    "k0": (suite_k0, ()),
    "kk": (suite_kk, ()),
    "picard": (suite_picard, ()),
    "negative_controls": (suite_negative_controls, ()),
}


def run_suite(name: str, **params) -> CheckReport:
    """Run a named verification suite; unknown names and parameters raise
    ``ValueError`` before the suite runs."""
    if name not in SUITES:
        known = ", ".join(sorted(SUITES))
        raise ValueError(f"unknown suite {name!r}; known: {known}")
    fn, declared = SUITES[name]
    return fn(**_resolve(f"suite {name!r}", declared, params))
