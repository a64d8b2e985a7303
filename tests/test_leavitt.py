import functools
import itertools
import operator
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from afcore import catalog, leavitt, ops, suites
from afcore.cli import main
from afcore.errors import GuardError, MorphismError, ParseError, SinkError, SourceError
from afcore.graphs import Graph, directed_walks, walk_edges
from afcore.leavitt import (
    LaurentMat2,
    LeavittElem,
    Monomial,
    TensorElem,
    build_Q,
    ck_verify,
    equals,
    evaluate_family,
    induced_hom,
    is_zero,
    normal_form,
    parse_elem,
    to_string,
)
from afcore.ops import Morphism
from afcore.report import CheckReport

# -- independent oracle: the action on walks of one fixed length -----------------
#
# A monomial S_alpha S_beta^* sends the basis vector of a walk w to the basis
# vector of alpha.gamma when w = beta.gamma, and to zero otherwise (for empty
# beta the source of w must be the base vertex).  Restricted to the walks of
# length exactly K, where K bounds every |beta| in sight, plus the shorter
# walks that end at a sink, this action is faithful: each monomial can be
# rewritten so that |beta| = K or its walks end at a sink, and the rewritten
# monomials act on disjoint matrix units.  The oracle below uses only this
# action -- no shared code with the zero-test machinery.


def walks_of_length(g: Graph, k: int):
    """All (source, edge-tuple) walks of length k, by direct recursion."""

    def extend(src, edges, end, remaining):
        if remaining == 0:
            yield (src, edges)
            return
        for e in g.edges:
            if e.src == end:
                yield from extend(src, edges + (e.eid,), e.dst, remaining - 1)

    for v in g.vertices:
        yield from extend(v, (), v, k)


def action_walks(g: Graph, k: int):
    """The walks of length k, plus the shorter walks that end at a sink."""
    for length in range(k + 1):
        for src, edges in walks_of_length(g, length):
            end = g.edge(edges[-1]).dst if edges else src
            if length == k or g.is_sink(end):
                yield (src, edges)


def action_matrix(x: LeavittElem, k: int) -> dict:
    """{(input walk, output walk): coefficient} for x on the action walks."""
    g = x.graph
    out: dict = {}
    for (src, edges) in action_walks(g, k):
        for (alpha, beta, v), c in x.terms.items():
            lb = len(beta)
            if lb > k or edges[:lb] != beta:
                continue
            if lb == 0 and src != v:
                continue
            res = alpha + edges[lb:]
            res_src = g.edge(res[0]).src if res else v
            key = ((src, edges), (res_src, res))
            out[key] = out.get(key, 0) + c
    return {key: c for key, c in out.items() if c}


def oracle_equal(x: LeavittElem, y: LeavittElem) -> bool:
    k = max(
        [len(m.beta) for m in x.terms] + [len(m.beta) for m in y.terms] + [0]
    )
    return action_matrix(x, k) == action_matrix(y, k)


def monomial_pool(g: Graph, max_len: int = 2):
    """Every monomial with both walks of length <= max_len."""
    by_range: dict = {v: [] for v in g.vertices}
    for length in range(max_len + 1):
        for src, edges in walks_of_length(g, length):
            end = g.edge(edges[-1]).dst if edges else src
            by_range[end].append(edges)
    pool = []
    for v in g.vertices:
        for a in by_range[v]:
            for b in by_range[v]:
                pool.append(Monomial(a, b, v))
    return pool


def ck3_expand(x: LeavittElem) -> LeavittElem:
    """Every monomial rewritten one level down by the range relation; distinct
    monomials expand to distinct children, so no coefficients merge."""
    g = x.graph
    return LeavittElem(g, {k: c for m, c in x.terms.items() for k in leavitt._expand(g, m)})


def random_elem(g: Graph, pool, rng, n_terms=3) -> LeavittElem:
    terms: dict = {}
    for _ in range(rng.randint(1, n_terms)):
        m = rng.choice(pool)
        terms[m] = terms.get(m, 0) + rng.randint(-3, 3)
    return LeavittElem(g, terms)


SINK_FREE_TOKENS = ("penrose", "sigma:2", "cuntz:2", "cycle:2")
SINK_TOKENS = ("chambers:1", "chambers:2", "chambers:3")


# -- equality machinery vs the oracle ---------------------------------------------


@pytest.mark.parametrize("token", SINK_FREE_TOKENS)
def test_ck_relations_hold_in_both_worlds(token):
    g = catalog.build_token(token)
    for e in g.edges:
        s = LeavittElem.edge_gen(g, e.eid)
        pr = LeavittElem.vertex_projection(g, e.dst)
        assert equals(s.star() * s, pr)
        assert oracle_equal(s.star() * s, pr)
        for f in g.edges:
            if f.eid != e.eid:
                t = LeavittElem.edge_gen(g, f.eid)
                assert is_zero(s.star() * t)
                assert oracle_equal(s.star() * t, LeavittElem.zero(g))
    for v in g.vertices:
        total = LeavittElem.zero(g)
        for e in g.out_edges(v):
            s = LeavittElem.edge_gen(g, e.eid)
            total = total + s * s.star()
        pv = LeavittElem.vertex_projection(g, v)
        assert equals(total, pv)
        assert oracle_equal(total, pv)


@pytest.mark.parametrize("token", SINK_FREE_TOKENS)
def test_equals_agrees_with_walk_action_oracle(token):
    g = catalog.build_token(token)
    pool = monomial_pool(g)
    rng = random.Random(f"leavitt-oracle:{token}")
    agree_true = agree_false = 0
    for _ in range(150):
        x = random_elem(g, pool, rng)
        y = random_elem(g, pool, rng)
        verdict = equals(x, y)
        assert verdict == oracle_equal(x, y)
        if verdict:
            agree_true += 1
        else:
            agree_false += 1
        # a pair that is equal by construction: add a CK3 rewrite of a term
        z = x + ck3_expand(random_elem(g, pool, rng, n_terms=1))
        w = z - ck3_expand(z - x)  # not generally x, but oracle must agree
        assert equals(z, w) == oracle_equal(z, w)
    # the random stream must exercise the negative branch; the positive
    # branch is covered explicitly below
    assert agree_false > 0


@pytest.mark.parametrize("token", SINK_TOKENS)
def test_equals_agrees_with_oracle_on_graphs_with_sinks(token):
    g = catalog.build_token(token)
    pool = monomial_pool(g)
    regular = [m for m in pool if not g.is_sink(m.vertex)]
    rng = random.Random(f"leavitt-sinks:{token}")
    verdicts = set()
    for _ in range(150):
        x = random_elem(g, pool, rng)
        y = random_elem(g, pool, rng)
        verdict = equals(x, y)  # answers; never a SinkError
        assert verdict == oracle_equal(x, y)
        verdicts.add(verdict)
        # an equal pair: rewrite one monomial at its emitting base vertex
        m = LeavittElem(g, {rng.choice(regular): 1})
        z = x + m - ck3_expand(m)
        assert equals(x, z)
        assert oracle_equal(x, z)
    # random pairs exercise the negative branch, the rewrites the positive one
    assert False in verdicts


@pytest.mark.parametrize("token", SINK_FREE_TOKENS)
def test_positive_equalities_cross_checked(token):
    g = catalog.build_token(token)
    pool = monomial_pool(g)
    rng = random.Random(f"leavitt-positive:{token}")
    for _ in range(60):
        x = random_elem(g, pool, rng)
        y = ck3_expand(x)
        assert equals(x, y)
        assert oracle_equal(x, y)
        assert is_zero(x - y)
        assert not equals(x, y + LeavittElem.unit(g))
        assert not oracle_equal(x, y + LeavittElem.unit(g))


def test_toeplitz_gap_motivates_fixed_length(penrose):
    # 1 - sum of S_e S_e^* over all edges is zero in the algebra, but acts
    # nontrivially on short walks: only the fixed-length action is faithful
    g = catalog.build("cuntz", n=1)
    (loop,) = [e.eid for e in g.edges]
    s = LeavittElem.edge_gen(g, loop)
    gap = LeavittElem.unit(g) - s * s.star()
    assert is_zero(gap)
    assert action_matrix(gap, 0) != {}  # the Toeplitz representation sees it
    assert action_matrix(gap, 1) == {}  # the level the oracle actually uses


# -- algebra laws -------------------------------------------------------------------


def _penrose_pool():
    g = catalog.build("penrose")
    return g, monomial_pool(g)


_G, _POOL = _penrose_pool()


def elems(max_terms=3):
    return st.lists(
        st.tuples(st.sampled_from(_POOL), st.integers(min_value=-2, max_value=2)),
        min_size=1,
        max_size=max_terms,
    ).map(lambda pairs: LeavittElem(_G, dict(pairs)))


@given(elems(), elems(), elems())
def test_mul_associative(x, y, z):
    assert equals((x * y) * z, x * (y * z))


@given(elems(), elems(), elems())
def test_mul_distributes(x, y, z):
    assert (x + y) * z == x * z + y * z
    assert z * (x + y) == z * x + z * y


@given(elems(), elems())
def test_star_antimultiplicative(x, y):
    assert (x * y).star() == y.star() * x.star()
    assert x.star().star() == x


@given(elems())
def test_ck3_expand_preserves_class(x):
    assert equals(ck3_expand(x), x)


@given(elems())
def test_normal_form_is_canonical(x):
    nf = normal_form(x)
    assert equals(nf, x)
    assert normal_form(nf) == nf


def test_degrees_add_under_multiplication():
    g = _G
    x = LeavittElem.monomial_elem(g, ("a", "b"), ("c", "b"))
    y = LeavittElem.monomial_elem(g, ("c",), ())
    for m in (x * y).terms:
        assert m.degree == 0 + 1
    unit_scaled = 4 * LeavittElem.unit(g)
    assert unit_scaled == LeavittElem.unit(g) * 4
    assert (0 * x).is_zero()


def test_mixed_graph_operations_rejected(penrose, sigma2):
    with pytest.raises(ValueError, match="different graphs"):
        LeavittElem.unit(penrose) + LeavittElem.unit(sigma2)


def test_monomial_elem_validates(penrose):
    with pytest.raises(ValueError, match="different ranges"):
        LeavittElem.monomial_elem(penrose, ("a",), ("b",))
    with pytest.raises(ValueError, match="not a composable walk"):
        LeavittElem.monomial_elem(penrose, ("b", "b"), ())
    with pytest.raises(ValueError, match="nonempty walk"):
        LeavittElem.monomial_elem(penrose, (), ())


# -- sinks: exact zero tests, lazy normal form ----------------------------------------


def test_normal_form_with_sinks_is_lazy():
    g = catalog.build("chambers", k=1)  # loop ell at v0, edge d1 to sink 1
    p0 = LeavittElem.vertex_projection(g, "v0")
    ell = LeavittElem.edge_gen(g, "ell")
    d1 = LeavittElem.edge_gen(g, "d1")
    # expansion happens at the regular vertex v0 only; this works
    assert equals(p0, ell * ell.star() + d1 * d1.star())
    # the zero test never expands at the sink, so it answers this exactly
    p_sink = LeavittElem.vertex_projection(g, "1")
    assert not equals(p_sink, d1 * d1.star())
    # an independent witness by multiplication alone: P(1) S(d1) = 0, so the
    # difference times P(1) is the nonzero P(1)
    assert equals((p_sink - d1 * d1.star()) * p_sink, p_sink)
    assert not is_zero(p_sink)
    # the normal form leaves the monomial at the sink where it is, and answers
    nf = normal_form(p_sink - d1 * d1.star())
    assert to_string(nf) == "P(1) - S(d1)S(d1)^*"
    # an explicit one-level expansion still refuses at the sink
    with pytest.raises(SinkError, match="emits no edges"):
        ck3_expand(p_sink)
    # cancellations that never touch the sink are fine
    assert is_zero(p_sink - p_sink)
    assert equals(d1.star() * d1, p_sink)  # reduces eagerly, no expansion


@pytest.mark.parametrize("token", SINK_TOKENS)
def test_normal_form_at_sinks_agrees_with_zero_test_and_oracle(token):
    g = catalog.build_token(token)
    pool = monomial_pool(g)
    regular = [m for m in pool if not g.is_sink(m.vertex)]
    rng = random.Random(f"leavitt-nf-sinks:{token}")
    zero = LeavittElem.zero(g)
    verdicts = set()
    for _ in range(150):
        x = random_elem(g, pool, rng)
        if rng.random() < 0.3:  # a zero element, written with a range relation
            m = LeavittElem(g, {rng.choice(regular): 1})
            x = m - ck3_expand(m)
        nf = normal_form(x)
        verdict = not nf.terms
        assert verdict == is_zero(x) == oracle_equal(x, zero)
        assert oracle_equal(x, nf)
        verdicts.add(verdict)
    assert verdicts == {True, False}


def test_normal_form_refuses_a_level_pass_above_its_guard(monkeypatch):
    # P(1) - S_mu S_mu^* on full:3, mu = (e1_1)^5: the last pass takes the
    # 3^4 + 1 terms to at most 3^5 + 1, and 3^5 - 1 of them are left
    assert leavitt.MAX_NORMAL_TERMS == 10**6
    g = catalog.build_token("full:3")
    mu = "S(e1_1)" * 5
    x = parse_elem(g, f"P(1) - {mu}({mu})^*")
    expected = normal_form(x)
    assert len(expected.terms) == 3**5 - 1
    monkeypatch.setattr(leavitt, "MAX_NORMAL_TERMS", 3**5 + 1)
    assert normal_form(x) == expected
    monkeypatch.setattr(leavitt, "MAX_NORMAL_TERMS", 3**5)
    message = "^the normal form would reach 244 terms, more than the guard of 243$"
    with pytest.raises(GuardError, match=message):
        normal_form(x)


def test_normal_form_answers_an_element_a_walk_count_bound_would_refuse(capsys):
    # P(1) - sum_j S(e1_j)S(e1_j)^* + S_mu S_mu^* on full:3, mu = (e1_1)^16.  Bounding
    # the terms by the walks of length 16 from each monomial's vertex would give
    # 3^16 + 3 * 3^15 + 1 = 86 093 443, past the guard of 10^6; but the expansion of
    # P(1) cancels in the first pass, and the normal form is one term
    g = catalog.build_token("full:3")
    mu = "S(e1_1)" * 16
    expr = f"P(1) - S(e1_1)S(e1_1)^* - S(e1_2)S(e1_2)^* - S(e1_3)S(e1_3)^* + {mu}({mu})^*"
    normal = mu + "S(e1_1)^*" * 16
    assert to_string(normal_form(parse_elem(g, expr))) == normal
    assert main(["leavitt", "full:3", "eval", expr]) == 0
    assert f"\nnormal: {normal}\nzero: no\n" in capsys.readouterr().out


def test_normal_form_skips_monomials_an_expansion_cancelled(monkeypatch):
    # expanding P(1) cancels S(a)S(a)^* and S(b)S(b)^*, which are then not expanded
    g = catalog.build("penrose")
    x = parse_elem(g, "-P(1) + S(a)S(a)^* + S(b)S(b)^* + S(a)S(a)(S(a)S(a))^*")
    calls = []
    expand = leavitt._expand

    def counted(graph, m):
        calls.append(m)
        return expand(graph, m)

    monkeypatch.setattr(leavitt, "_expand", counted)
    assert to_string(normal_form(x)) == "S(a)S(a)S(a)^*S(a)^*"
    assert calls == [Monomial((), (), "1")]


# -- work of the zero test and the tensor carrier ------------------------------------


def _walk_from(g: Graph, v: str, k: int) -> tuple:
    mu, cur = [], v
    for i in range(k):
        out = g.out_edges(cur)
        e = out[i % len(out)]
        mu.append(e.eid)
        cur = e.dst
    return tuple(mu)


def test_zero_test_work_is_linear_in_depth(monkeypatch):
    g = catalog.build_token("full:3")
    children = []  # every monomial the zero test builds
    new = leavitt._new

    def counted(cls, fields):
        children.append(1)
        return new(cls, fields)

    depth = 30
    mu = _walk_from(g, "1", depth)
    end = g.edge(mu[-1]).dst
    p = LeavittElem.vertex_projection(g, "1")
    q = LeavittElem(g, {Monomial(mu, mu, end): 1})
    # the comb: P(1) is S_mu S_mu^* plus the sibling projections along mu
    comb = q
    for i in range(depth):
        src = g.edge(mu[i]).src
        for e in g.out_edges(src):
            if e.eid != mu[i]:
                w = mu[:i] + (e.eid,)
                comb = comb + LeavittElem(g, {Monomial(w, w, e.dst): 1})
    x = p - comb
    monkeypatch.setattr(leavitt, "_new", counted)
    assert is_zero(x)
    assert sum(children) <= 3 * depth
    children.clear()
    assert not equals(p, q)
    assert sum(children) <= 3 * depth


def _expand_to(g: Graph, mono: Monomial, level: int) -> dict:
    out = {mono: 1}
    while True:
        pending = [m for m in out if len(m.beta) < level]
        if not pending:
            return out
        for m in pending:
            c = out.pop(m)
            for e in g.out_edges(m.vertex):
                key = Monomial(m.alpha + (e.eid,), m.beta + (e.eid,), e.dst)
                out[key] = out.get(key, 0) + c


def tensor_is_zero_by_levels(t: TensorElem) -> bool:
    """Reference: expand both factors of each bi-degree to a common level."""
    groups: dict = {}
    for (ml, mr), c in t.terms.items():
        groups.setdefault((ml.degree, mr.degree), {})[(ml, mr)] = c
    for comp in groups.values():
        kl = max(len(ml.beta) for ml, _ in comp)
        kr = max(len(mr.beta) for _, mr in comp)
        acc: dict = {}
        for (ml, mr), c in comp.items():
            for m1, c1 in _expand_to(t.left_graph, ml, kl).items():
                for m2, c2 in _expand_to(t.right_graph, mr, kr).items():
                    acc[(m1, m2)] = acc.get((m1, m2), 0) + c * c1 * c2
        if any(acc.values()):
            return False
    return True


@pytest.mark.parametrize("left, right", [("penrose", "cycle:2"), ("sigma:2", "cuntz:2")])
def test_tensor_zero_test_matches_level_expansion(left, right):
    lg, rg = catalog.build_token(left), catalog.build_token(right)
    lpool, rpool = monomial_pool(lg), monomial_pool(rg)
    rng = random.Random(f"tensor-zero:{left}:{right}")
    verdicts = set()
    for _ in range(60):
        t = TensorElem(lg, rg, {})
        for _ in range(rng.randint(1, 3)):
            x = random_elem(lg, lpool, rng, n_terms=1)
            y = random_elem(rg, rpool, rng, n_terms=1)
            t = t + TensorElem.pure(x, y)
        x = LeavittElem(lg, {rng.choice(lpool): 1})
        y = LeavittElem(rg, {rng.choice(rpool): 1})
        rewrite = TensorElem.pure(x, y) - TensorElem.pure(ck3_expand(x), ck3_expand(y))
        for u in (t, t + rewrite, rewrite):
            verdict = u.is_zero()
            assert verdict == tensor_is_zero_by_levels(u)
            verdicts.add(verdict)
    assert verdicts == {True, False}


def test_tensor_ring_operations_act_factorwise():
    lg, rg = catalog.build_token("penrose"), catalog.build_token("sigma:2")
    lpool, rpool = monomial_pool(lg), monomial_pool(rg)
    rng = random.Random("tensor-ring")
    for _ in range(40):
        x, x2 = random_elem(lg, lpool, rng), random_elem(lg, lpool, rng)
        y, y2 = random_elem(rg, rpool, rng), random_elem(rg, rpool, rng)
        prod = TensorElem.pure(x, y) * TensorElem.pure(x2, y2)
        assert prod.terms == TensorElem.pure(x * x2, y * y2).terms
        assert TensorElem.pure(x, y).star().terms == TensorElem.pure(x.star(), y.star()).terms


def test_tensor_elements_over_different_graph_pairs_rejected(penrose, sigma2):
    t = TensorElem.pure(LeavittElem.unit(penrose), LeavittElem.unit(sigma2))
    u = TensorElem.pure(LeavittElem.unit(sigma2), LeavittElem.unit(penrose))
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(ValueError, match="different graph pairs"):
            op(t, u)


def _no_additions(monkeypatch):
    def refuse(self, other):
        raise AssertionError("a pairwise + ran")

    monkeypatch.setattr(leavitt._Combination, "__add__", refuse)


def test_tensor_zero_test_groups_right_factors_without_additions(monkeypatch):
    # P(1) (x) x for x = S_mu over the 243 walks mu of length 4 in full:3, and
    # for x = P(1) - (the ranges of the 27 length-3 walks from 1), which is 0:
    # one left key with many right-hand terms, collected in one dict
    lg, rg = catalog.build_token("cuntz:2"), catalog.build_token("full:3")
    p1 = LeavittElem.vertex_projection(lg, lg.vertices[0])
    def s_mu(mu, star=False):
        return "".join(f"S({e})^*" if star else f"S({e})" for e in (mu[::-1] if star else mu))

    walks = [walk_edges(w) for w in directed_walks(rg, 4)]
    spans = parse_elem(rg, " + ".join(s_mu(mu) for mu in walks))
    ranges = [walk_edges(w) for w in directed_walks(rg, 3) if w[0] == "1"]
    cuntz_krieger = parse_elem(
        rg, "P(1)" + "".join(f" - {s_mu(mu)}{s_mu(mu, star=True)}" for mu in ranges)
    )
    nonzero, zero = TensorElem.pure(p1, spans), TensorElem.pure(p1, cuntz_krieger)
    assert len(nonzero.terms) == 243 and len(zero.terms) == 28
    _no_additions(monkeypatch)
    assert not nonzero.is_zero()
    assert zero.is_zero()


# -- the special-edge basis against the root-tree refiner it replaced ----------------
#
# The reference pushes each monomial down its root's expansion tree: stripping
# the longest common trailing string gamma of alpha and beta leaves the root,
# distinct roots are independent, and within a tree only the proper prefixes
# of present nodes are expanded, shortest first.


def root_prefixes(g: Graph, m: Monomial) -> list:
    """The proper prefixes of ``m``'s node in its root's tree, deepest first."""
    a, b, out = m.alpha, m.beta, []
    while a and b and a[-1] == b[-1]:
        a, b = a[:-1], b[:-1]
        out.append(Monomial(a, b, g.edge(m.alpha[len(a)]).src))
    return out


def refine_by_roots(g: Graph, terms: dict):
    """Yield (final node, coefficient) of ``terms`` pushed down their trees."""
    prefixes = {p for m in terms for p in root_prefixes(g, m)}
    work = dict(terms)
    for p in sorted(prefixes, key=lambda m: (len(m.alpha) + len(m.beta), m)):
        c = work.pop(p, None)
        if not c:
            continue
        for e in g.out_edges(p.vertex):
            child = Monomial(p.alpha + (e.eid,), p.beta + (e.eid,), e.dst)
            if child in prefixes or child in terms:
                work[child] = work[child] + c if child in work else c
            else:
                yield child, c
    yield from work.items()


def is_zero_by_roots(x: LeavittElem) -> bool:
    return not any(c for _, c in refine_by_roots(x.graph, x.terms))


def tensor_is_zero_by_roots(t: TensorElem) -> bool:
    right: dict = {}
    for (ml, mr), c in t.terms.items():
        right.setdefault(ml, {})[mr] = c
    left = {ml: LeavittElem(t.right_graph, ts) for ml, ts in right.items()}
    return all(is_zero_by_roots(y) for _, y in refine_by_roots(t.left_graph, left))


def rewritten(x: LeavittElem, rng, steps: int) -> LeavittElem:
    """``x`` with ``steps`` random terms at emitting vertices rewritten one
    level down by the range relation: equal to ``x`` in the algebra."""
    g, terms = x.graph, dict(x.terms)
    for _ in range(steps):
        regular = [m for m in terms if not g.is_sink(m.vertex)]
        if not regular:
            break
        m = rng.choice(regular)
        c = terms.pop(m)
        for k in leavitt._expand(g, m):
            terms[k] = terms.get(k, 0) + c
    return LeavittElem(g, terms)


# the graphs of the benchmark's leavitt-algebra workload
LEAVITT_TOKENS = ("penrose", "sigma:2", "sigma:3", "full:2", "full:3",
                  "cuntz:2", "cuntz:3", "lens:2", "chambers:2", "tadpole")


def test_the_basis_form_matches_the_root_tree_refiner():
    # x minus a rewrite of x is zero; a stray monomial makes about half of
    # the elements nonzero
    graphs = list(itertools.islice(catalog.small_graph_universe(), 84))
    graphs += [catalog.build_token(t) for t in LEAVITT_TOKENS]
    rng = random.Random("special-edge-basis")
    verdicts = {True: 0, False: 0}
    for g in graphs:
        pool = monomial_pool(g)
        right = catalog.build_token(rng.choice(("penrose", "sigma:2", "chambers:1")))
        rpool = monomial_pool(right)
        for _ in range(25):
            x = random_elem(g, pool, rng, n_terms=4)
            y = rewritten(x, rng, rng.randint(1, 6))
            if rng.random() < 0.5:
                y = y + random_elem(g, pool, rng, n_terms=1)
            verdict = equals(x, y)
            assert verdict == is_zero(x - y) == is_zero_by_roots(x - y), (g.name, x, y)
            verdicts[verdict] += 1
        for _ in range(5):
            x, z = random_elem(g, pool, rng), random_elem(right, rpool, rng)
            t = TensorElem.pure(x, z) - TensorElem.pure(rewritten(x, rng, 2), z)
            t = t + TensorElem.pure(x, z) - TensorElem.pure(x, rewritten(z, rng, 2))
            if rng.random() < 0.5:
                t = t + TensorElem.pure(random_elem(g, pool, rng, 1), z)
            assert t.is_zero() == tensor_is_zero_by_roots(t), (g.name, right.name)
            verdicts[t.is_zero()] += 1
    assert min(verdicts.values()) > 0.4 * sum(verdicts.values()), verdicts


def test_the_basis_form_of_a_deep_projection_difference_is_linear(monkeypatch):
    # P(1) - S_mu S_mu^* on full:3 with mu = (e1_1)^200: each rewrite peels one
    # e1_1 and leaves the two sibling projections, so P(1) cancels
    g = catalog.build_token("full:3")
    mu, nu = ("e1_1",) * 200, ("e1_1",) * 100
    x = LeavittElem.vertex_projection(g, "1") - LeavittElem(g, {Monomial(mu, mu, "1"): 1})
    y = x + LeavittElem(g, {Monomial(nu, nu, "1"): 1})
    new, built = leavitt._new, []  # every monomial the rewrites build
    monkeypatch.setattr(leavitt, "_new", lambda cls, fields: built.append(1) or new(cls, fields))
    basis = leavitt._basis_form(g, x.terms)
    assert sum(1 for c in basis.values() if c) == 2 * len(mu)
    assert len(built) == 3 * len(mu)
    # S_nu S_nu^* lies on mu's chain, which takes it on the way down, so no key
    # is rewritten twice; P(1) and the siblings deeper than nu are left
    built.clear()
    basis = leavitt._basis_form(g, y.terms)
    assert sum(1 for c in basis.values() if c) == 1 + 2 * (len(mu) - len(nu))
    assert len(built) == 3 * len(mu)
    assert not is_zero(x) and not is_zero(y)


# -- the shared ring operations and the Laurent-matrix carrier ------------------------


def test_carriers_share_the_ring_operations():
    for name in ("__add__", "__mul__", "star"):
        assert getattr(LeavittElem, name) is getattr(TensorElem, name)
        assert getattr(LeavittElem, name) is getattr(LaurentMat2, name)


# Reference: a 2x2 matrix (1-indexed in the carrier) of {power: coeff} dicts.


def _ref_clean(m):
    return [[{p: c for p, c in e.items() if c} for e in row] for row in m]


def _ref_of(x: LaurentMat2):
    m = [[{}, {}], [{}, {}]]
    for (i, j, p), c in x.terms.items():
        m[i - 1][j - 1][p] = c
    return m


def _ref_add(a, b, sign=1):
    out = [[dict(e) for e in row] for row in a]
    for i, j in itertools.product(range(2), repeat=2):
        for p, c in b[i][j].items():
            out[i][j][p] = out[i][j].get(p, 0) + sign * c
    return _ref_clean(out)


def _ref_scale(a, n):
    return _ref_clean([[{p: c * n for p, c in e.items()} for e in row] for row in a])


def _ref_mul(a, b):
    out = [[{}, {}], [{}, {}]]
    for i, j, k in itertools.product(range(2), repeat=3):
        for p, c in a[i][k].items():
            for q, d in b[k][j].items():
                out[i][j][p + q] = out[i][j].get(p + q, 0) + c * d
    return _ref_clean(out)


def _ref_star(a):
    return [[{-p: c for p, c in a[j][i].items()} for j in range(2)] for i in range(2)]


def _random_laurent(rng):
    x, ref = LaurentMat2({}), [[{}, {}], [{}, {}]]
    for _ in range(rng.randint(0, 4)):
        i, j, p, c = rng.randint(1, 2), rng.randint(1, 2), rng.randint(-2, 2), rng.randint(-2, 2)
        x = x + c * LaurentMat2.unit(i, j, z_power=p)
        ref[i - 1][j - 1][p] = ref[i - 1][j - 1].get(p, 0) + c
    return x, _ref_clean(ref)


def test_laurent_matrices_match_the_entrywise_reference():
    rng = random.Random("laurent-reference")
    verdicts = set()
    for _ in range(200):
        (x, rx), (y, ry) = _random_laurent(rng), _random_laurent(rng)
        assert _ref_of(x) == rx
        assert _ref_of(x + y) == _ref_add(rx, ry)
        assert _ref_of(x - y) == _ref_add(rx, ry, sign=-1)
        assert _ref_of(-x) == _ref_scale(rx, -1)
        n = rng.randint(-3, 3)
        assert _ref_of(n * x) == _ref_of(x * n) == _ref_scale(rx, n)
        assert _ref_of(x * y) == _ref_mul(rx, ry)
        assert _ref_of(x.star()) == _ref_star(rx)
        for z, rz in ((x, rx), (x * y, _ref_mul(rx, ry)), (x - x, _ref_add(rx, rx, sign=-1))):
            verdict = z.is_zero()
            assert verdict == (not any(e for row in rz for e in row))
            verdicts.add(verdict)
    assert verdicts == {True, False}


def test_laurent_identity_and_units():
    one = LaurentMat2.identity()
    x = -2 * LaurentMat2.unit(1, 2, z_power=3) + LaurentMat2.unit(2, 2)
    assert one * x == x == x * one
    assert LaurentMat2.unit(1, 2) * LaurentMat2.unit(1, 2) == LaurentMat2({})
    with pytest.raises(ValueError, match="E_31"):
        LaurentMat2.unit(3, 1)


# -- parser -------------------------------------------------------------------------


def test_parse_round_trip_random():
    rng = random.Random("parse-round-trip")
    for _ in range(80):
        x = random_elem(_G, _POOL, rng)
        assert parse_elem(_G, to_string(x)) == x


def test_to_string_frozen(penrose):
    x = -2 * LeavittElem.monomial_elem(penrose, ("a", "b"), ("c", "b"))
    y = LeavittElem.vertex_projection(penrose, "1")
    assert to_string(x + y) == "P(1) - 2S(a)S(b)S(b)^*S(c)^*"
    assert to_string(LeavittElem.zero(penrose)) == "0"


def test_parse_forms(penrose):
    p1 = LeavittElem.vertex_projection(penrose, "1")
    a = LeavittElem.edge_gen(penrose, "a")
    assert parse_elem(penrose, "2P(1)") == 2 * p1
    assert parse_elem(penrose, "S(a)  .  S(a)^*") == a * a.star()
    assert parse_elem(penrose, "-P(1) + P(1)") == LeavittElem.zero(penrose)
    assert parse_elem(penrose, "S(a)^*^*") == a  # star twice
    assert parse_elem(penrose, "3(P(1) + P(2))") == 3 * LeavittElem.unit(penrose)
    # bare integers are multiples of the unit, so "0" reads back as zero
    assert parse_elem(penrose, "0") == LeavittElem.zero(penrose)
    assert parse_elem(penrose, "2 + P(1)") == 2 * LeavittElem.unit(penrose) + p1
    # regression: a trailing complete term must not demand another one
    assert parse_elem(penrose, "S(a)^* P(1) S(a) + 2 P(2)") == parse_elem(
        penrose, "S(a)^*S(a) + 2P(2)"
    )


def test_long_sums_parse_without_pairwise_additions(monkeypatch):
    # a sum is collected in one dict; a key that cancels is dropped at once,
    # so the term order is the one that repeated `+` gives
    g = catalog.build_token("full:3")
    rng = random.Random("long-sum")
    edges = [e.eid for e in g.edges]
    parts = [f"S({rng.choice(edges)})S({rng.choice(edges)})^*" for _ in range(200)]
    parts += rng.sample(parts, 60)  # repeats that cancel or double
    rng.shuffle(parts)
    signs = [rng.choice("+-") for _ in parts]
    text = "".join(f" {s} {x}" for s, x in zip(signs, parts))
    reference = LeavittElem.zero(g)
    for s, x in zip(signs, parts):
        term = parse_elem(g, x)
        reference = reference + term if s == "+" else reference - term
    _no_additions(monkeypatch)
    got = parse_elem(g, text)
    assert list(got.terms.items()) == list(reference.terms.items())


# -- parser oracle: random expression trees, rendered to text and evaluated with
# the ring operations; the parse must give the same terms in the same order


_PARSE_GRAPHS = [catalog.build_token(t) for t in ("penrose", "full:2", "chambers:2")]
_WS = st.sampled_from(["", "", " ", "\t", "\n", " \t\n "])


@st.composite
def _sum_expr(draw, g, depth=0):
    text, value = "", None
    for i in range(draw(st.integers(1, 3))):
        sign = draw(st.sampled_from(["", "+", "-"] if i == 0 else ["+", "-"]))
        t_text, t_value = draw(_term_expr(g, depth))
        text += f"{draw(_WS)}{sign}{t_text}"
        if value is None:
            value = -t_value if sign == "-" else t_value
        else:
            value = value - t_value if sign == "-" else value + t_value
    return text, value


@st.composite
def _term_expr(draw, g, depth):
    coeff = draw(st.none() | st.integers(0, 3))
    if coeff is not None and draw(st.booleans()):  # a bare integer is coeff * 1
        return f"{draw(_WS)}{coeff}", coeff * LeavittElem.unit(g)
    text, value = draw(_factor_expr(g, depth))
    for _ in range(draw(st.integers(0, 2))):
        f_text, f_value = draw(_factor_expr(g, depth))
        text += f"{draw(_WS)}{draw(st.sampled_from(['', '.']))}{f_text}"
        value = value * f_value
    if coeff is None:
        return text, value
    return f"{draw(_WS)}{coeff}{text}", coeff * value


@st.composite
def _factor_expr(draw, g, depth):
    kind = draw(st.sampled_from("PSPS(" if depth < 4 else "PS"))
    if kind == "(":
        inner, value = draw(_sum_expr(g, depth + 1))
        text = f"{draw(_WS)}({inner}{draw(_WS)})"
    else:
        ids = g.vertices if kind == "P" else [e.eid for e in g.edges]
        name = draw(st.sampled_from(ids))
        text = f"{draw(_WS)}{kind}{draw(_WS)}({draw(_WS)}{name}{draw(_WS)})"
        if kind == "P":
            value = LeavittElem.vertex_projection(g, name)
        else:
            value = LeavittElem.edge_gen(g, name)
    for _ in range(draw(st.integers(0, 2))):
        text += f"{draw(_WS)}^{draw(_WS)}*"
        value = value.star()
    return text, value


# words of S(e) atoms, multiplied as one walk where they run unstarred: on a walk
# of the graph or off it, among starred atoms, projections, dots, coefficients and
# parenthesized sums, which give a term more than one key before a run

_WALK_GRAPHS = [catalog.build_token(t) for t in ("penrose", "full:3", "sigma:3", "chambers:2")]


@st.composite
def _word_expr(draw, g):
    on_walk = draw(st.booleans())
    edges, end = [e.eid for e in g.edges], None
    text, value = "", None
    for i in range(draw(st.integers(5, 12))):
        kind = draw(st.sampled_from("SSSSSS*P("))
        if kind == "(":
            f_text, f_value = draw(_factor_expr(g, 3))
        elif kind == "P":
            name = draw(st.sampled_from(g.vertices))
            f_text, f_value = f"P({name})", LeavittElem.vertex_projection(g, name)
        else:
            ahead = [e.eid for e in g.out_edges(end)] if end and on_walk else []
            name = draw(st.sampled_from(ahead or edges))
            f_text, f_value = f"S({name})", LeavittElem.edge_gen(g, name)
            if kind == "*":
                f_text, f_value = f_text + "^*", f_value.star()
        end = g.edge(name).dst if kind == "S" else None
        text += (draw(st.sampled_from(["", ".", " ", " . "])) if i else "") + f_text
        value = f_value if value is None else value * f_value
    coeff = draw(st.sampled_from([1, 1, 0, 2, 3]))
    return ("" if coeff == 1 else str(coeff)) + text, coeff * value


@st.composite
def _words_expr(draw, g):
    text, value = draw(_word_expr(g))
    if draw(st.booleans()):
        sign = draw(st.sampled_from("+-"))
        w_text, w_value = draw(_word_expr(g))
        text += f" {sign} {w_text}"
        value = value + w_value if sign == "+" else value - w_value
    return text, value


def _times(*factors):
    """The product of ``factors`` one at a time, as the ring operations take a term."""
    return functools.reduce(operator.mul, factors)


_PENROSE = _PARSE_GRAPHS[0]
_A, _C = (LeavittElem.edge_gen(_PENROSE, e) for e in "ac")
_S = {e: LeavittElem.edge_gen(_PENROSE, e) for e in "abc"}
_P1 = LeavittElem.vertex_projection(_PENROSE, "1")


@settings(max_examples=500, deadline=None)
@given(st.sampled_from(_PARSE_GRAPHS).flatmap(lambda g: st.tuples(st.just(g), _sum_expr(g)))
       | st.sampled_from(_WALK_GRAPHS).flatmap(lambda g: st.tuples(st.just(g), _words_expr(g))))
@example((_PENROSE, ("0S(a)", 0 * _A)))
# S(a)^*S(a) and S(c)^*S(c) are both P(1): the product cancels to zero, and in
# the second the key P(1) goes to 0 and back within one product
@example((_PENROSE, ("(S(a)^* - S(c)^*)(S(a) + S(c))", (_A.star() - _C.star()) * (_A + _C))))
@example((_PENROSE, ("(S(a)^* - S(c)^* + S(a)^*) S(a)", (_A.star() - _C.star() + _A.star()) * _A)))
@example((_PENROSE, ("S(a)S(a)S(a)S(a)S(a)S(b)S(c)S(a)S(b)S(c)S(b)S(c)",
                     _times(*(_S[e] for e in "aaaaabcabcbc")))))
# S(b)S(b) is no walk: the whole term is zero, whatever follows
@example((_PENROSE, ("S(a).S(b)S(b)S(c)(S(a))^*",
                     _times(_S["a"], _S["b"], _S["b"], _S["c"], _S["a"].star()))))
# a run after a sum of four keys: one atom at a time, P(1) - S(a)S(a)^* goes to 0
# at the first S(a) and S(c)S(a)S(a) comes out first; the walk S(a)S(a) applied in
# one step would put S(a)S(a) first
@example((_PENROSE, ("(P(1) - S(a)S(a)^* + S(c) + S(a)S(a)(S(a)S(a))^*) S(a)S(a)", _times(
    _P1 - _S["a"] * _S["a"].star() + _S["c"]
    + _times(_S["a"], _S["a"], (_S["a"] * _S["a"]).star()), _S["a"], _S["a"]))))
def test_parse_matches_the_ring_operations(case):
    g, (text, value) = case
    got = parse_elem(g, text)
    assert got.graph is g
    assert list(got.terms.items()) == list(value.terms.items())


@pytest.mark.parametrize(
    "text, message",
    [
        pytest.param("", "position 0: expected 'P', 'S', or '(', found ''", id="-position 0"),
        pytest.param("P(9)", "position 4: unknown vertex id '9'", id="P(9)-unknown vertex"),
        pytest.param("S(zz)", "position 5: unknown edge id 'zz'", id="S(zz)-unknown edge"),
        pytest.param("P(1", "position 3: expected ')', found ''", id="P(1-expected ')'"),
        pytest.param(
            "P(1) +",
            "position 6: expected 'P', 'S', or '(', found ''",
            id="P(1) +-expected 'P', 'S', or '('",
        ),
        pytest.param("(P(1)", "position 5: expected ')', found ''", id="(P(1)-expected ')'"),
        pytest.param("P(1) ^", "position 6: expected '*', found ''", id="P(1) ^-expected '*'"),
        pytest.param(
            "Q(1)",
            "position 0: expected 'P', 'S', or '(', found 'Q'",
            id="Q(1)-expected 'P', 'S', or '('",
        ),
        ("P 1)", "position 2: expected '(', found '1'"),
        ("S()", "position 2: expected an identifier"),
        ("S( zz )", "position 7: unknown edge id 'zz'"),
        ("S(a)^x", "position 5: expected '*', found 'x'"),
        ("P(1))", "position 4: unexpected trailing input ')'"),
        ("P(1) P(", "position 7: expected an identifier"),
        ("-", "position 1: expected 'P', 'S', or '(', found ''"),
        ("S(a)^* ^", "position 8: expected '*', found ''"),
        ("(" * 101 + "P(1)" + ")" * 101, "position 100: parentheses nested deeper than 100"),
    ],
)
def test_parse_errors(penrose, text, message):
    with pytest.raises(ParseError) as exc:
        parse_elem(penrose, text)
    assert str(exc.value) == message


# -- chosen-walk projections and isometries ---------------------------------------


def test_build_Q_choosers(penrose):
    q_lex = build_Q(penrose, "1", 2, chooser="lex")
    q_rev = build_Q(penrose, "1", 2, chooser="revlex")
    assert q_lex.terms == {Monomial(("a", "a"), ("a", "a"), "1"): 1}
    assert q_rev.terms == {Monomial(("c", "a"), ("c", "a"), "1"): 1}
    for q in (q_lex, q_rev):
        assert q.star() == q
        assert equals(q * q, q)
        assert oracle_equal(q * q, q)
    # distinct chosen walks give genuinely different projections
    assert not equals(q_lex, q_rev)
    assert not oracle_equal(q_lex, q_rev)
    # ... which are nevertheless unitarily linked inside the algebra
    v = LeavittElem.monomial_elem(penrose, ("c", "a"), ("a", "a"))
    assert (v.star() * v).terms == q_lex.terms
    assert (v * v.star()).terms == q_rev.terms


def test_build_Q_edge_cases(penrose, tadpole):
    assert build_Q(penrose, "1", 0) == LeavittElem.vertex_projection(penrose, "1")
    assert build_Q(tadpole, "1", 1).is_zero()  # vertex 1 receives nothing
    with pytest.raises(ValueError, match="unknown chooser"):
        build_Q(penrose, "1", 1, chooser="random")
    with pytest.raises(ValueError, match="^unknown vertex 'zz' in graph 'penrose'$"):
        build_Q(penrose, "zz", 1)
    with pytest.raises(ValueError, match="^walk length must be nonnegative, got -1$"):
        build_Q(penrose, "1", -1)


def test_build_Q_takes_the_least_and_greatest_walk(universe_sample):
    # oracle: list W_k(v) forward and key each walk by its edge declaration indices
    tokens = ("penrose", "sigma:3", "full:3", "cuntz:2", "chambers:2", "lens:2", "tadpole", "cycle:3")
    for g in universe_sample + [catalog.build_token(t) for t in tokens]:
        index = {e.eid: i for i, e in enumerate(g.edges)}
        for k in range(5):
            walks = directed_walks(g, k)
            for v in g.vertices:
                keyed = sorted(
                    (tuple(index[eid] for eid in walk_edges(w)), walk_edges(w))
                    for w in walks
                    if w[-1] == v
                )
                for chooser, pick in (("lex", 0), ("revlex", -1)):
                    expected = LeavittElem.zero(g)
                    if keyed:
                        mu = keyed[pick][1]
                        expected = LeavittElem(g, {Monomial(mu, mu, v): 1})
                    assert build_Q(g, v, k, chooser) == expected


def test_build_Q_on_long_walks():
    full3, cuntz2 = catalog.build_token("full:3"), catalog.build_token("cuntz:2")
    mu = ("e1_1",) * 200
    assert build_Q(full3, "1", 200) == LeavittElem(full3, {Monomial(mu, mu, "1"): 1})
    mu = ("g2",) * 300
    assert build_Q(cuntz2, "1", 300, "revlex") == LeavittElem(cuntz2, {Monomial(mu, mu, "1"): 1})


def test_incoming_edge_choice(penrose, tadpole):
    with pytest.raises(SourceError, match="source vertices"):
        suites.z_isometry_report(tadpole, 1)


def test_build_Z_is_isometry(penrose):
    z = LeavittElem(penrose, {Monomial((penrose.in_edges(w)[0].eid,), (), w): 1
                              for w in penrose.vertices})
    unit = LeavittElem.unit(penrose)
    assert equals(z.star() * z, unit)
    assert oracle_equal(z.star() * z, unit)
    # range projection of Z is a proper subprojection marker: Z Z^* != 1
    assert not equals(z * z.star(), unit)
    rep = suites.z_isometry_report(penrose, depth=3)
    assert rep.ok, rep.render()
    assert len(rep.items) == 4


@pytest.mark.parametrize("token", SINK_FREE_TOKENS)
def test_walk_unit_identity(token):
    g = catalog.build_token(token)
    for k in range(4):
        assert suites.walk_unit_identity(g, k)


# -- induced homomorphisms --------------------------------------------------------


def inclusion(small: Graph, large: Graph) -> Morphism:
    """The identity-on-names map from one sigma instance into a larger one."""
    return Morphism(
        small, large, {v: v for v in small.vertices}, {e.eid: e.eid for e in small.edges}
    )


def test_induced_hom_on_inclusion_chain(sigma2, sigma3):
    sigma4 = catalog.build("sigma", n=4)
    inc23 = inclusion(sigma2, sigma3)
    inc34 = inclusion(sigma3, sigma4)
    inc24 = inclusion(sigma2, sigma4)
    rng = random.Random("induced-chain")
    pool4 = monomial_pool(sigma4)
    for _ in range(40):
        x = random_elem(sigma4, pool4, rng)
        via_chain = induced_hom(inc23, induced_hom(inc34, x))
        direct = induced_hom(inc24, x)
        assert via_chain == direct
        assert induced_hom(inc24, x.star()) == direct.star()


def test_induced_hom_multiplicative_on_samples(sigma2, sigma3):
    inc = inclusion(sigma2, sigma3)
    rng = random.Random("induced-mult")
    pool = monomial_pool(sigma3)
    for _ in range(40):
        x = random_elem(sigma3, pool, rng)
        y = random_elem(sigma3, pool, rng)
        assert equals(
            induced_hom(inc, x * y), induced_hom(inc, x) * induced_hom(inc, y)
        )


def test_induced_hom_rejects_bad_input(penrose, sigma2):
    not_admissible = Morphism(
        catalog.build("cuntz", n=1),
        penrose,
        {catalog.build("cuntz", n=1).vertices[0]: "1"},
        {"g1": "a"},
    )
    with pytest.raises(MorphismError, match="not admissible"):
        induced_hom(not_admissible, LeavittElem.unit(penrose))
    inc = inclusion(sigma2, catalog.build("sigma", n=3))
    with pytest.raises(ValueError, match="codomain"):
        induced_hom(inc, LeavittElem.unit(sigma2))


def pullback_oracle(m: Morphism, x: LeavittElem) -> LeavittElem:
    """The direct monomial pullback: a monomial goes to the monomial of the
    preimages of its walks and base vertex, or to zero if one is missing."""
    inv_v = {w: v for v, w in m.vmap.items()}
    inv_e = {f: e for e, f in m.emap.items()}
    out: dict = {}
    for (alpha, beta, w), c in x.terms.items():
        if w in inv_v and all(f in inv_e for f in alpha + beta):
            key = Monomial(tuple(inv_e[f] for f in alpha), tuple(inv_e[f] for f in beta), inv_v[w])
            out[key] = out.get(key, 0) + c
    return LeavittElem(m.domain, out)


def _random_walk_into(g: Graph, v: str, rng) -> tuple:
    edges: list = []
    for _ in range(rng.randint(0, 2)):
        into = g.in_edges(v)
        if not into:
            break
        e = rng.choice(into)
        edges.append(e.eid)
        v = e.src
    return tuple(reversed(edges))


def _random_codomain_elem(m: Morphism, rng) -> LeavittElem:
    """Monomials pushed forward from the domain, mixed with arbitrary ones."""
    terms: dict = {}
    for _ in range(rng.randint(1, 4)):
        if rng.random() < 0.5:
            v = rng.choice(m.domain.vertices)
            a, b = (_random_walk_into(m.domain, v, rng) for _ in range(2))
            mono = Monomial(tuple(m.emap[e] for e in a), tuple(m.emap[e] for e in b), m.vmap[v])
        else:
            w = rng.choice(m.codomain.vertices)
            mono = Monomial(*(_random_walk_into(m.codomain, w, rng) for _ in range(2)), w)
        terms[mono] = terms.get(mono, 0) + rng.randint(-3, 3)
    return LeavittElem(m.codomain, terms)


def test_induced_hom_matches_direct_pullback_on_universe_squares():
    rng = random.Random("induced-universe")
    calls = 0
    for g in itertools.islice(catalog.small_graph_universe(), 84):
        assert g.n_vertices <= 2
        square = ops.product(g, g)
        for m in ops.enumerate_admissible_embeddings(g, square):
            for _ in range(6):
                x = _random_codomain_elem(m, rng)
                assert induced_hom(m, x) == pullback_oracle(m, x)
                calls += 1
    assert calls == 576


def test_induced_hom_names_the_failing_relation(monkeypatch, sigma2, sigma3):
    def failing(g, pmap, smap):
        rep = CheckReport("relations")
        rep.add("CK1 for e1", True)
        rep.add("CK2 for e2", False)
        return rep

    monkeypatch.setattr(leavitt, "ck_verify", failing)
    with pytest.raises(MorphismError, match=r"generator relations: CK2 for e2$"):
        induced_hom(inclusion(sigma2, sigma3), LeavittElem.unit(sigma3))


def test_induced_hom_of_an_element_with_no_terms(sigma2, sigma3):
    zero = induced_hom(inclusion(sigma2, sigma3), LeavittElem.zero(sigma3))
    assert zero == LeavittElem.zero(sigma2)
    empty = Graph("empty", [], [])
    m = Morphism(empty, empty, {}, {})
    assert induced_hom(m, LeavittElem.zero(empty)) == LeavittElem.zero(empty)


# -- generic family verification ------------------------------------------------------


def canonical_family(g):
    pmap = {v: LeavittElem.vertex_projection(g, v) for v in g.vertices}
    smap = {e.eid: LeavittElem.edge_gen(g, e.eid) for e in g.edges}
    return pmap, smap


def test_ck_verify_canonical(penrose):
    pmap, smap = canonical_family(penrose)
    rep = ck_verify(penrose, pmap, smap, unit=LeavittElem.unit(penrose))
    assert rep.ok, rep.render()
    labels = [item.label for item in rep.items]
    assert "vertex images sum to the unit" in labels


def test_ck_verify_detects_corruption(penrose):
    pmap, smap = canonical_family(penrose)
    smap["b"] = LeavittElem.edge_gen(penrose, "c")  # wrong range projection
    rep = ck_verify(penrose, pmap, smap)
    assert not rep.ok
    assert any("CK1" in item.label for item in rep.failures())


def test_ck_verify_requires_full_assignment(penrose):
    pmap, smap = canonical_family(penrose)
    del smap["c"]
    with pytest.raises(ValueError, match="missing assignments"):
        ck_verify(penrose, pmap, smap)


def test_evaluate_family_canonical_is_identity(penrose):
    pmap, smap = canonical_family(penrose)
    rng = random.Random("evaluate-family")
    for _ in range(40):
        x = random_elem(_G, _POOL, rng)
        assert equals(evaluate_family(pmap, smap, x), x)


def test_evaluate_family_of_no_terms(penrose):
    pmap, smap = canonical_family(penrose)
    assert evaluate_family(pmap, smap, LeavittElem.zero(penrose)) == LeavittElem.zero(penrose)
    with pytest.raises(ValueError, match="empty family"):
        evaluate_family({}, {}, LeavittElem.zero(Graph("empty", [], [])))
