"""Named graph families, expected facts, and the verification suites.

The catalog names the recurring examples:

* ``penrose`` — two vertices, a loop at the first, and opposite edges;
  adjacency ``[[1,1],[1,0]]`` (Fibonacci dynamics).
* ``sigma:n`` — vertices ``1..n`` and one edge ``i -> j`` for every
  ``i <= j`` (the quantum odd-sphere / projective-space graph).
* ``cuntz:n`` — one vertex with ``n`` loops.
* ``chambers:k`` — a hub with a loop and an edge to each of ``k`` sink
  chambers (the multichamber quantum-sphere family; ``k = 1`` is the
  Toeplitz graph).
* ``lens:k`` — ``chambers:k`` with a loop added at every chamber
  (quantum lens spaces; ``k = 1`` is quantum SU(2)).
* ``cycle:n`` — the directed ``n``-cycle.
* ``full:n`` — the complete directed graph with loops.
* ``tadpole`` — an edge into a loop (Toeplitz-like with a source).

``run_suite`` exposes one verification suite per acceptance area; each
suite re-derives every expected fact rather than trusting the records
here.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from . import graphs, ktheory, leavitt, linalg, ops, picard
from .errors import NotUnimodular, SourceError
from .graphs import Graph
from .linalg import Matrix
from .report import CheckReport

_REQUIRED = object()


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    summary: str
    params: tuple  # ((pname, converter, default-or-_REQUIRED), ...)
    aliases: tuple = ()

    def param_help(self) -> str:
        parts = []
        for pname, conv, default in self.params:
            kind = "int" if conv is int else "str"
            if default is _REQUIRED:
                parts.append(f"{pname}:{kind}")
            else:
                parts.append(f"{pname}:{kind}={default!r}")
        return ", ".join(parts)


def _build_penrose(labels: str = "12") -> Graph:
    if labels == "12":
        lo, hi = "1", "2"
    elif labels == "01":
        lo, hi = "0", "1"
    else:
        raise ValueError(f"labels must be '12' or '01', got {labels!r}")
    return Graph(
        "penrose", (lo, hi), (("a", lo, lo), ("b", lo, hi), ("c", hi, lo))
    )


def _build_sigma(n: int) -> Graph:
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    vertices = tuple(str(i) for i in range(1, n + 1))
    edges = tuple(
        (f"e{i}_{j}", str(i), str(j))
        for i in range(1, n + 1)
        for j in range(i, n + 1)
    )
    return Graph(f"sigma{n}", vertices, edges)


def _build_cuntz(n: int) -> Graph:
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return Graph(
        f"cuntz{n}", ("1",), tuple((f"g{i}", "1", "1") for i in range(1, n + 1))
    )


def _build_chambers(k: int) -> Graph:
    if k < 0:
        raise ValueError(f"need k >= 0, got {k}")
    vertices = ("v0",) + tuple(str(i) for i in range(1, k + 1))
    edges = (("ell", "v0", "v0"),) + tuple(
        (f"d{i}", "v0", str(i)) for i in range(1, k + 1)
    )
    return Graph(f"chambers{k}", vertices, edges)


def _build_lens(k: int) -> Graph:
    base = _build_chambers(k)
    extra = tuple((f"m{i}", str(i), str(i)) for i in range(1, k + 1))
    return Graph(f"lens{k}", base.vertices, base.edges + extra)


def _build_cycle(n: int) -> Graph:
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    vertices = tuple(str(i) for i in range(1, n + 1))
    edges = tuple(
        (f"c{i}", str(i), str(i % n + 1)) for i in range(1, n + 1)
    )
    return Graph(f"cycle{n}", vertices, edges)


def _build_full(n: int) -> Graph:
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    vertices = tuple(str(i) for i in range(1, n + 1))
    edges = tuple(
        (f"e{i}_{j}", str(i), str(j))
        for i in range(1, n + 1)
        for j in range(1, n + 1)
    )
    return Graph(f"full{n}", vertices, edges)


def _build_tadpole() -> Graph:
    return Graph("tadpole", ("1", "2"), (("e12", "1", "2"), ("e22", "2", "2")))


_ENTRIES = (
    CatalogEntry(
        "penrose",
        "two vertices with Fibonacci adjacency [[1,1],[1,0]]",
        (("labels", str, "12"),),
    ),
    CatalogEntry(
        "sigma",
        "vertices 1..n with one edge i -> j for every i <= j",
        (("n", int, _REQUIRED),),
    ),
    CatalogEntry(
        "cuntz",
        "one vertex with n loops",
        (("n", int, _REQUIRED),),
        aliases=("bouquet",),
    ),
    CatalogEntry(
        "chambers",
        "looped hub feeding k sink chambers",
        (("k", int, _REQUIRED),),
    ),
    CatalogEntry(
        "lens",
        "looped hub feeding k looped chambers",
        (("k", int, _REQUIRED),),
    ),
    CatalogEntry(
        "cycle",
        "directed n-cycle",
        (("n", int, _REQUIRED),),
    ),
    CatalogEntry(
        "full",
        "complete directed graph with loops on n vertices",
        (("n", int, _REQUIRED),),
    ),
    CatalogEntry(
        "tadpole",
        "an edge feeding a loop (source at the tail)",
        (),
    ),
)

_BUILDERS = {
    "penrose": _build_penrose,
    "sigma": _build_sigma,
    "cuntz": _build_cuntz,
    "chambers": _build_chambers,
    "lens": _build_lens,
    "cycle": _build_cycle,
    "full": _build_full,
    "tadpole": _build_tadpole,
}

_BY_NAME = {e.name: e for e in _ENTRIES}
_BY_NAME.update({alias: e for e in _ENTRIES for alias in e.aliases})


def list_entries() -> tuple:
    return _ENTRIES


def build(name: str, **params) -> Graph:
    """Build a catalog graph by family name and keyword parameters."""
    entry = _BY_NAME.get(name)
    if entry is None:
        known = ", ".join(sorted(e.name for e in _ENTRIES))
        raise ValueError(f"unknown catalog graph {name!r}; known: {known}")
    kwargs = {}
    declared = {pname for pname, _, _ in entry.params}
    for key in params:
        if key not in declared:
            raise ValueError(
                f"{entry.name!r} takes parameters ({entry.param_help()}), "
                f"got unexpected {key!r}"
            )
    for pname, conv, default in entry.params:
        if pname in params:
            kwargs[pname] = conv(params[pname])
        elif default is _REQUIRED:
            raise ValueError(f"{entry.name!r} requires parameter {pname!r}")
        else:
            kwargs[pname] = default
    return _BUILDERS[entry.name](**kwargs)


def build_token(token: str) -> Graph:
    """Build from a compact token: ``name``, ``name:3``, or ``name:k=3,labels=01``."""
    name, _, argstr = token.partition(":")
    name = name.strip()
    entry = _BY_NAME.get(name)
    if entry is None:
        known = ", ".join(sorted(e.name for e in _ENTRIES))
        raise ValueError(f"unknown catalog graph {name!r}; known: {known}")
    params: dict = {}
    if argstr.strip():
        for piece in argstr.split(","):
            piece = piece.strip()
            if not piece:
                continue
            if "=" in piece:
                key, _, value = piece.partition("=")
                params[key.strip()] = value.strip()
            else:
                if not entry.params:
                    raise ValueError(f"{entry.name!r} takes no parameters")
                params[entry.params[0][0]] = piece
    return build(name, **params)


def expected_facts(name: str, **params) -> dict:
    """Literal formulas for key invariants of a catalog instance.

    These records are written from the closed forms, not computed by the
    library; :func:`verify_entry` re-derives everything and compares.
    """
    if name == "penrose":
        return {
            "n_vertices": 2,
            "n_edges": 3,
            "adjacency": ((1, 1), (1, 0)),
            "det": -1,
            "charpoly_reversed": (1, -1, -1),
            "n_sinks": 0,
            "directed_cycles": 2,
        }
    if name == "sigma":
        n = int(params["n"])
        return {
            "n_vertices": n,
            "n_edges": n * (n + 1) // 2,
            "det": 1,
            # det(t*Gamma - 1) = (t - 1)^n
            "charpoly_reversed": tuple(
                (-1) ** (n - j) * math.comb(n, j) for j in range(n + 1)
            ),
            "n_sinks": 0,
            "directed_cycles": n,
        }
    if name in ("cuntz", "bouquet"):
        n = int(params["n"])
        return {
            "n_vertices": 1,
            "n_edges": n,
            "adjacency": ((n,),),
            "det": n,
            "n_sinks": 0,
            "directed_cycles": n,
        }
    if name == "chambers":
        k = int(params["k"])
        return {
            "n_vertices": k + 1,
            "n_edges": k + 1,
            "det": 1 if k == 0 else 0,
            "n_sinks": k,
            "directed_cycles": 1,
        }
    if name == "lens":
        k = int(params["k"])
        return {
            "n_vertices": k + 1,
            "n_edges": 2 * k + 1,
            "det": 1,
            "charpoly_reversed": tuple(
                (-1) ** (k + 1 - j) * math.comb(k + 1, j) for j in range(k + 2)
            ),
            "n_sinks": 0,
            "directed_cycles": k + 1,
        }
    if name == "cycle":
        n = int(params["n"])
        return {
            "n_vertices": n,
            "n_edges": n,
            "det": (-1) ** (n + 1),
            "n_sinks": 0,
            "directed_cycles": 1,
        }
    if name == "full":
        n = int(params["n"])
        return {
            "n_vertices": n,
            "n_edges": n * n,
            "det": 1 if n == 1 else 0,
            "n_sinks": 0,
        }
    if name == "tadpole":
        return {
            "n_vertices": 2,
            "n_edges": 2,
            "adjacency": ((0, 1), (0, 1)),
            "det": 0,
            "n_sinks": 0,
            "directed_cycles": 1,
        }
    raise ValueError(f"no expected facts recorded for {name!r}")


def verify_entry(name: str, **params) -> CheckReport:
    """Re-derive the expected facts of a catalog instance and compare."""
    g = build(name, **params)
    facts = expected_facts(name, **params)
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


def family_inclusion(small: Graph, large: Graph) -> ops.Morphism:
    """The identity-on-names inclusion between two instances of a family.

    Works whenever the smaller instance's vertex and edge identifiers all
    appear in the larger one (true for ``sigma``, ``chambers``, ``lens``).
    """
    return ops.Morphism(
        domain=small,
        codomain=large,
        vmap={v: v for v in small.vertices},
        emap={e.eid: e.eid for e in small.edges},
        name=f"{small.name}_into_{large.name}",
    )


# -- exhaustive small-graph universe -------------------------------------------


def small_graph_universe(max_vertices: int = 3, max_multiplicity: int = 2):
    """Every multigraph on ordered vertex sets of size 1..max_vertices with
    at most ``max_multiplicity`` parallel edges per ordered vertex pair.

    With the defaults this yields 3 + 81 + 19683 = 19767 graphs, lazily.
    """
    counter = 0
    for n in range(1, max_vertices + 1):
        vertices = tuple(str(i) for i in range(1, n + 1))
        pairs = [(a, b) for a in vertices for b in vertices]
        for counts in itertools.product(
            range(max_multiplicity + 1), repeat=len(pairs)
        ):
            counter += 1
            edges = []
            eid = 0
            for (a, b), c in zip(pairs, counts):
                for _ in range(c):
                    eid += 1
                    edges.append((f"e{eid}", a, b))
            yield Graph(f"u{counter}", vertices, edges)


# -- verification suites ---------------------------------------------------------


def _fib(n: int) -> int:
    """Fibonacci with F_0 = 0, F_1 = 1, extended to n >= -2."""
    if n < -2:
        raise ValueError(f"not extended below -2, got {n}")
    a, b = 1, 0  # F_-1, F_0
    if n == -2:
        return -1
    if n == -1:
        return 1
    for _ in range(n):
        a, b = b, a + b
    return b


def suite_penrose(**_ignored) -> CheckReport:
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


def suite_cpq(n: int | None = None, **_ignored) -> CheckReport:
    rep = CheckReport("triangular-family (quantum projective space) checks")
    ns = [int(n)] if n is not None else list(range(2, 9))
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


def suite_uhf(n: int | None = None, **_ignored) -> CheckReport:
    rep = CheckReport("single-vertex multi-loop (UHF) checks")
    ns = [int(n)] if n is not None else list(range(2, 6))
    for nn in ns:
        g = build("cuntz", n=nn)
        rep.extend(verify_entry("cuntz", n=nn), prefix=f"n={nn} facts: ")
        t = ktheory.Tower(g)
        rep.add(f"n={nn}: K0 is a colimit of rank 1", not t.unimodular and t.k0.rank == 1)
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


def suite_admissibility(**_ignored) -> CheckReport:
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


def suite_embeddings(**_ignored) -> CheckReport:
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


def suite_structure(**_ignored) -> CheckReport:
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


def suite_symbolic(**_ignored) -> CheckReport:
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

    lau = leavitt.laurent_model_report()
    rep.add("2x2 Laurent matrix models verify", lau.ok, f"{len(lau.items)} checks")
    fac = leavitt.cuntz_to_penrose_report()
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


def suite_k0(**_ignored) -> CheckReport:
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
    rep.add("two-cycle: K0 free of rank 2", cyc.unimodular and cyc.k0.rank == 2)
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


def suite_kk(**_ignored) -> CheckReport:
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


def suite_picard(**_ignored) -> CheckReport:
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


def suite_negative_controls(**_ignored) -> CheckReport:
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


SUITES = {
    "penrose": suite_penrose,
    "cpq": suite_cpq,
    "uhf": suite_uhf,
    "admissibility": suite_admissibility,
    "embeddings": suite_embeddings,
    "structure": suite_structure,
    "symbolic": suite_symbolic,
    "k0": suite_k0,
    "kk": suite_kk,
    "picard": suite_picard,
    "negative_controls": suite_negative_controls,
}


def run_suite(name: str, **params) -> CheckReport:
    """Run a named verification suite; unknown names raise ``ValueError``."""
    fn = SUITES.get(name)
    if fn is None:
        known = ", ".join(sorted(SUITES))
        raise ValueError(f"unknown suite {name!r}; known: {known}")
    return fn(**params)
