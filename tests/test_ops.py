import itertools
import random

import pytest

from afcore import catalog, graphs, ops
from afcore.errors import GuardError, MorphismError, ParseError
from afcore.graphs import Graph, adjacency, parse_graph
from afcore.linalg import Matrix
from afcore.ops import (
    Morphism,
    check_morphism,
    diagonal_embedding,
    enumerate_admissible_embeddings,
    hereditary_saturated,
    line_graph,
    parse_morphism_document,
    product,
    quotient_graph,
    vertical_embedding,
)

# -- independent oracles -------------------------------------------------------


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product, left-factor-major block order."""
    return Matrix([x * y for x in ra for y in rb] for ra in a.rows for rb in b.rows)


def admissible_by_definition(m: Morphism) -> bool:
    """Admissibility straight from the definition, no shared code paths."""
    dom, cod = m.domain, m.codomain
    v_images = [m.vmap[v] for v in dom.vertices]
    e_images = [m.emap[e.eid] for e in dom.edges]
    if len(set(v_images)) != len(v_images) or len(set(e_images)) != len(e_images):
        return False
    image_v, image_e = set(v_images), set(e_images)
    for f in cod.edges:
        if f.dst in image_v and f.eid not in image_e:
            return False
    for w in image_v:
        out = cod.out_edges(w)
        if out and not any(f.eid in image_e for f in out):
            return False
    return True


def all_injective_morphisms(e: Graph, f: Graph):
    """Every injective morphism e -> f, by brute force."""
    for image in itertools.permutations(f.vertices, e.n_vertices):
        vmap = dict(zip(e.vertices, image))
        pools = []
        ok = True
        for x in e.edges:
            pool = [
                fe.eid
                for fe in f.edges
                if fe.src == vmap[x.src] and fe.dst == vmap[x.dst]
            ]
            if not pool:
                ok = False
                break
            pools.append(pool)
        if not ok:
            continue
        for combo in itertools.product(*pools):
            if len(set(combo)) == len(combo):
                yield Morphism(
                    e, f, vmap, dict(zip((x.eid for x in e.edges), combo))
                )


def check_morphism_by_definition(m: Morphism) -> tuple:
    """The verdict of ``check_morphism`` read off the codomain's indices,
    accessor by accessor, as the library did before it learned to read the
    codomain in one pass; with the stray-entry refusal that follows the
    per-edge checks."""
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
    for k in m.vmap:
        if k not in dom.vertices:
            raise MorphismError(f"the vertex map has an entry for {k!r}, not a vertex of {dom.name!r}")
    for k in m.emap:
        if not any(e.eid == k for e in dom.edges):
            raise MorphismError(f"the edge map has an entry for {k!r}, not an edge of {dom.name!r}")

    inj_witnesses = []
    for keys, images in ((dom.vertices, m.vmap), ([e.eid for e in dom.edges], m.emap)):
        first: dict = {}
        for k in keys:
            if first.setdefault(images[k], k) != k:
                inj_witnesses.append((first[images[k]], k))
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
    return (not inj_witnesses, not range_witnesses, not emission_witnesses,
            tuple(inj_witnesses), range_witnesses, emission_witnesses)


def outcome(check, m: Morphism) -> tuple:
    """A check's verdict tuple, or the type and message of what it raised."""
    try:
        return ("verdict", tuple(check(m)))
    except Exception as err:  # any type: the type and message are compared
        return ("raised", type(err), str(err))


# -- morphism validation ----------------------------------------------------------


def fib_square(penrose):
    return product(penrose, penrose)


def test_identity_is_admissible(penrose, sigma2):
    for g in (penrose, sigma2):
        identity = Morphism(g, g, {v: v for v in g.vertices}, {e.eid: e.eid for e in g.edges})
        verdict = check_morphism(identity)
        assert verdict.admissible
        assert verdict.injectivity_witnesses == ()
        assert verdict.range_witnesses == ()
        assert verdict.emission_witnesses == ()


def test_check_morphism_rejects_non_morphisms(penrose):
    with pytest.raises(MorphismError, match="no image"):
        check_morphism(Morphism(penrose, penrose, {"1": "1"}, {}))
    vmap = {"1": "1", "2": "2"}
    emap = {"a": "a", "b": "b", "c": "c"}
    with pytest.raises(MorphismError, match="not a vertex"):
        check_morphism(Morphism(penrose, penrose, {"1": "9", "2": "2"}, emap))
    with pytest.raises(MorphismError, match="source does not commute"):
        check_morphism(
            Morphism(penrose, penrose, vmap, {"a": "c", "b": "b", "c": "c"})
        )
    with pytest.raises(MorphismError, match="range does not commute"):
        check_morphism(
            Morphism(penrose, penrose, vmap, {"a": "b", "b": "b", "c": "c"})
        )


def test_verdict_witnesses(penrose):
    # collapse both vertices onto 1 via the loop: not injective, and the
    # codomain edges into 1 that are not hit are reported
    one_loop = catalog.build("cuntz", n=1)
    m = Morphism(
        one_loop,
        penrose,
        {one_loop.vertices[0]: "1"},
        {"g1": "a"},
    )
    verdict = check_morphism(m)
    assert verdict.injective and verdict.emission_covered
    assert not verdict.range_closed
    assert verdict.range_witnesses == ("c",)
    assert not verdict.admissible


def random_morphism(rng: random.Random, dom: Graph, cod: Graph) -> Morphism:
    """A seeded map from ``dom`` to ``cod``: the identity when they are the
    same graph, otherwise a random vertex map, often injective; each edge
    goes to an unused parallel edge where there is one.  Now and then an
    entry is missing, names an unknown image or a wrong edge, or a stray
    key is added; the keys come in a shuffled order."""
    if cod is dom:
        vmap = {v: v for v in dom.vertices}
    elif rng.random() < 0.5 and dom.n_vertices <= cod.n_vertices:
        vmap = dict(zip(dom.vertices, rng.sample(cod.vertices, dom.n_vertices)))
    else:
        vmap = {v: rng.choice(cod.vertices) for v in dom.vertices}
    for v in dom.vertices:
        r = rng.random()
        if r < 0.02:
            del vmap[v]
        elif r < 0.04:
            vmap[v] = "zz"
    emap: dict = {}
    for x in dom.edges:
        r = rng.random()
        if r < 0.02:
            continue
        parallel = [f.eid for f in cod.edges
                    if (f.src, f.dst) == (vmap.get(x.src), vmap.get(x.dst))]
        unused = [f for f in parallel if f not in emap.values()]
        if r < 0.04 or not cod.edges:
            emap[x.eid] = "zz"
        elif r < 0.94 and parallel:
            emap[x.eid] = rng.choice(unused or parallel)
        else:
            emap[x.eid] = rng.choice(cod.edges).eid
    for table, images in ((vmap, cod.vertices), (emap, [f.eid for f in cod.edges])):
        if rng.random() < 0.04:
            table[rng.choice(["zz", "stray"])] = rng.choice([*images, "zz"])
    vmap, emap = (dict(rng.sample(list(t.items()), len(t))) for t in (vmap, emap))
    return Morphism(dom, cod, vmap, emap)


REFUSALS = ("has an entry for", "has no image", "not a vertex of", "not an edge of",
            "source does not commute", "range does not commute")


def test_check_morphism_matches_the_definition_on_random_maps():
    universe = list(catalog.small_graph_universe())
    small = universe[:84]  # every graph on at most two vertices
    rng = random.Random(31)
    codomains = small + rng.sample(universe[84:], 40) + [product(g, g) for g in small[::3]]
    domains = small + rng.sample(universe[84:], 20)
    kinds = {}
    for _ in range(20_000):
        dom = rng.choice(domains)
        m = random_morphism(rng, dom, dom if rng.random() < 0.25 else rng.choice(codomains))
        got = outcome(check_morphism, m)
        assert got == outcome(check_morphism_by_definition, m), m
        if got[0] == "raised":
            kind = next(r for r in REFUSALS if r in got[2])
        else:
            kind = "admissible" if all(got[1][:3]) else "not admissible"
        kinds[kind] = kinds.get(kind, 0) + 1
    # each verdict and each refusal is drawn many times
    assert set(kinds) == {"admissible", "not admissible", *REFUSALS}, kinds
    assert min(kinds.values()) > 100, kinds


def test_canonical_embeddings_leave_the_square_unindexed():
    # every diagonal and loop embedding of the graphs on at most two vertices,
    # each into a fresh square: the verdicts are the definition's, and the
    # square, read in one pass per check, gets no lookup index
    for g in itertools.islice(catalog.small_graph_universe(), 84):
        square = product(g, g)
        loops = [x.eid for x in g.edges if x.src == x.dst]
        ms = [diagonal_embedding(g, within=square)]
        ms += [vertical_embedding(g, g, loop, within=square) for loop in loops]
        got = [outcome(check_morphism, m) for m in ms]
        assert not hasattr(square, "_in")
        assert got == [outcome(check_morphism_by_definition, m) for m in ms]


def test_check_morphism_refuses_stray_map_entries():
    dom = Graph("d", ("1",), (("a", "1", "1"),))
    cod = Graph("c", ("x", "y"), (("p", "x", "x"), ("q", "y", "x")))
    m = Morphism(dom, cod, {"1": "x"}, {"a": "p"})
    assert check_morphism(m).range_witnesses == ("q",)
    for vmap, emap, message in [
        ({"1": "x"}, {"a": "p", "zz": "q"},
         "the edge map has an entry for 'zz', not an edge of 'd'"),
        ({"1": "x", "7": "y"}, {"a": "p"},
         "the vertex map has an entry for '7', not a vertex of 'd'"),
        ({"7": "zz", "1": "x"}, {"b": "zz", "a": "p"},  # the vertex map is read first
         "the vertex map has an entry for '7', not a vertex of 'd'"),
        # every other error comes first
        ({"1": "x", "7": "y"}, {"a": "q"},
         "edge 'a': source does not commute ('1' -> 'x' but image edge starts at 'y')"),
        ({"1": "x"}, {"zz": "q"}, "edge 'a' has no image under the edge map"),
    ]:
        with pytest.raises(MorphismError) as info:
            check_morphism(Morphism(dom, cod, vmap, emap))
        assert str(info.value) == message


# -- products and the Kronecker identity --------------------------------------------


def test_product_adjacency_is_kronecker(penrose, sigma2, universe_sample):
    pairs = [(penrose, sigma2), (sigma2, penrose), (penrose, penrose)]
    pairs += [(universe_sample[3], universe_sample[11])]
    for e, f in pairs:
        # rename to avoid underscore ambiguity across arbitrary samples
        assert adjacency(product(e, f)) == kron(adjacency(e), adjacency(f))


def test_product_vertex_order_left_major(penrose, sigma2):
    p = product(penrose, sigma2)
    assert p.vertices == ("1_1", "1_2", "2_1", "2_2")
    assert p.name == "penrose_x_sigma2"
    assert p.n_edges == penrose.n_edges * sigma2.n_edges


def test_product_id_ambiguity():
    g = Graph("g", ("a_b", "a"), ())
    h = Graph("h", ("c", "b_c"), ())
    with pytest.raises(ValueError, match="ambiguous product vertex id"):
        product(g, h)
    g = Graph("g", ("v",), (("a_b", "v", "v"), ("a", "v", "v")))
    h = Graph("h", ("w",), (("c", "w", "w"), ("b_c", "w", "w")))
    with pytest.raises(ValueError) as exc:
        product(g, h)
    assert str(exc.value) == "ambiguous product edge id 'a_b_c'; rename factor edges"


def test_product_matches_the_pairs_of_names():
    # each product vertex name is formatted once and reused for the edge ends
    small = list(itertools.islice(catalog.small_graph_universe(), 84))
    for e, f in itertools.product(small, small[::5]):
        p = product(e, f)
        assert p.vertices == tuple(f"{v}_{w}" for v in e.vertices for w in f.vertices)
        assert p.edges == tuple(
            (f"{a.eid}_{b.eid}", f"{a.src}_{b.src}", f"{a.dst}_{b.dst}")
            for a in e.edges
            for b in f.edges
        )
        assert all(type(x) is graphs.Edge for x in p.edges)


def test_cuntz_product_is_cuntz(penrose):
    # B_m x B_n has one vertex and m*n loops, the shape of B_{mn}
    p = product(catalog.build("cuntz", n=2), catalog.build("cuntz", n=3))
    assert p.n_vertices == 1 and p.n_edges == 6
    assert all(e.src == e.dst for e in p.edges)


# -- canonical embeddings -------------------------------------------------------------


def test_diagonal_embedding_criterion(universe_sample):
    # admissible exactly when every in-degree is at most one
    for g in universe_sample[:70]:
        m = diagonal_embedding(g, within=product(g, g))
        expected = all(g.in_degree(v) <= 1 for v in g.vertices)
        assert check_morphism(m).admissible == expected
        assert admissible_by_definition(m) == expected


def test_vertical_embedding_criterion(universe_sample):
    # admissible exactly when the loop is its vertex's only incoming edge
    for g in universe_sample[:70]:
        for e in g.edges:
            if e.src != e.dst:
                continue
            m = vertical_embedding(g, g, e.eid, within=product(g, g))
            expected = g.in_degree(e.src) == 1
            assert check_morphism(m).admissible == expected
            assert admissible_by_definition(m) == expected


def test_vertical_embedding_needs_a_loop(penrose):
    with pytest.raises(ValueError, match="not a loop"):
        vertical_embedding(penrose, penrose, "b", within=product(penrose, penrose))


def admissible_embeddings_by_brute_force(e: Graph, f: Graph) -> list:
    return [m for m in all_injective_morphisms(e, f) if admissible_by_definition(m)]


def as_maps(morphisms) -> list:
    """Ordered (vmap, emap) item lists: sequence and key order both count."""
    return [(list(m.vmap.items()), list(m.emap.items())) for m in morphisms]


def assert_search_matches_brute_force(e: Graph, f: Graph) -> None:
    got = enumerate_admissible_embeddings(e, f)
    assert as_maps(got) == as_maps(admissible_embeddings_by_brute_force(e, f))
    assert all(m.domain is e and m.codomain is f and m.name == "" for m in got)
    assert all(check_morphism(m).admissible for m in got)


def test_enumerate_matches_brute_force(penrose, sigma2):
    lens2, cycle3 = catalog.build("lens", k=2), catalog.build("cycle", n=3)
    cases = [
        (sigma2, product(sigma2, sigma2)),
        (penrose, product(penrose, penrose)),
        (catalog.build("cycle", n=2), product(sigma2, sigma2)),
        (lens2, product(lens2, lens2)),
        (cycle3, product(cycle3, cycle3)),
        (Graph("empty", (), ()), penrose),
        (Graph("bare", ("v",), ()), product(sigma2, sigma2)),
        (Graph("bare", ("v",), ()), Graph("arrow", ("a", "b"), (("x", "a", "b"),))),
    ]
    for dom, cod in cases:
        assert_search_matches_brute_force(dom, cod)


def test_enumerate_matches_brute_force_on_two_vertex_universe():
    # all but u84, every ordered pair doubled: the brute force walks 786 432
    # edge assignments there (2 s), and at most 58 368 on the others
    for g in itertools.islice(catalog.small_graph_universe(), 83):
        assert_search_matches_brute_force(g, product(g, g))


def test_enumerate_matches_brute_force_between_two_vertex_graphs():
    # unlike g -> g x g, these pairs reach image vertices that emit edges
    # out of the image while their preimage is a sink
    two_vertex = list(itertools.islice(catalog.small_graph_universe(), 84))
    for e, f in itertools.product(two_vertex, repeat=2):
        assert_search_matches_brute_force(e, f)


def test_enumerate_matches_brute_force_on_three_vertex_sample():
    # three-vertex graphs with at most one doubled vertex pair, seeded sample
    few_parallel = [
        g
        for g in itertools.islice(catalog.small_graph_universe(), 84, None)
        if g.n_edges - len({(x.src, x.dst) for x in g.edges}) <= 1
    ]
    for g in random.Random(20240).sample(few_parallel, 100):
        assert_search_matches_brute_force(g, product(g, g))


@pytest.mark.parametrize(
    "token, count", [("sigma:5", 2), ("sigma:6", 2), ("cycle:6", 36), ("lens:3", 120)]
)
def test_enumerate_pinned_counts(token, count):
    # sigma:5, sigma:6 and cycle:6 exceeded the guard under the brute force;
    # lens:3 answers as it did then
    g = catalog.build_token(token)
    assert len(enumerate_admissible_embeddings(g, product(g, g))) == count


def test_enumerate_calls_no_check_morphism(monkeypatch):
    calls = []

    def counting(m):
        calls.append(m)
        return check_morphism(m)

    monkeypatch.setattr(ops, "check_morphism", counting)
    g = catalog.build_token("sigma:6")
    found = enumerate_admissible_embeddings(g, product(g, g))
    assert len(found) == 2
    assert calls == []


def test_enumerate_leaves_both_graphs_unindexed():
    # in-degrees and sinks come off the search's own edge tables; the brute
    # force tests above pin what it finds
    universe = list(catalog.small_graph_universe())
    for g in universe[:84] + random.Random(32).sample(universe[84:], 40):
        square = product(g, g)
        enumerate_admissible_embeddings(g, square)
        assert not hasattr(g, "_in") and not hasattr(square, "_in"), g.name


def test_enumerate_guard(penrose, monkeypatch):
    assert ops.MAX_ASSIGNMENTS == 200_000
    monkeypatch.setattr(ops, "MAX_ASSIGNMENTS", 10)
    big = product(product(penrose, penrose), product(penrose, penrose))
    with pytest.raises(GuardError, match="^11 vertex and edge assignments exceed the guard of 10$"):
        enumerate_admissible_embeddings(big, big)


def test_enumerate_guard_counts_assignments_tried(monkeypatch):
    # sigma:6 -> sigma:6 x sigma:6 has 1 402 410 240 injective vertex maps, but
    # the search tries a few hundred assignments
    monkeypatch.setattr(ops, "MAX_ASSIGNMENTS", 1_000)
    g = catalog.build_token("sigma:6")
    assert len(enumerate_admissible_embeddings(g, product(g, g))) == 2
    # one vertex, nine loops: 9! edge maps into itself, so the edge search
    # hits the guard
    monkeypatch.setattr(ops, "MAX_ASSIGNMENTS", 10_000)
    b9 = catalog.build("cuntz", n=9)
    with pytest.raises(GuardError, match="exceed the guard of 10000"):
        enumerate_admissible_embeddings(b9, b9)


def test_enumerate_into_smaller_codomain_is_empty(penrose):
    assert enumerate_admissible_embeddings(penrose, catalog.build("cuntz", n=1)) == ()


# -- hereditary / saturated subsets ---------------------------------------------------


def hereditary_by_definition(g, vs):
    return all(e.dst in vs for e in g.edges if e.src in vs)


def saturated_by_definition(g, vs):
    for v in g.vertices:
        if v in vs or g.is_sink(v):
            continue
        if all(e.dst in vs for e in g.out_edges(v)):
            return False
    return True


def test_hereditary_saturated_vs_definition(universe_sample, penrose, tadpole):
    graphs = list(universe_sample[:40]) + [penrose, tadpole, catalog.build("chambers", k=2)]
    for g in graphs:
        for r in range(g.n_vertices + 1):
            for subset in itertools.combinations(g.vertices, r):
                vs = frozenset(subset)
                verdict = hereditary_saturated(g, vs)
                assert verdict.hereditary == hereditary_by_definition(g, vs)
                assert verdict.saturated == saturated_by_definition(g, vs)


def test_hereditary_saturated_frozen_cases(penrose, tadpole):
    assert hereditary_saturated(penrose, ()) == hereditary_saturated(penrose, [])
    assert hereditary_saturated(penrose, ()).hereditary
    assert hereditary_saturated(penrose, ()).saturated
    # in the tadpole graph, the loop vertex absorbs: {2} is hereditary,
    # and saturation fails because vertex 1 only feeds into it
    verdict = hereditary_saturated(tadpole, {"2"})
    assert verdict.hereditary and not verdict.saturated
    with pytest.raises(ValueError, match="unknown vertex"):
        hereditary_saturated(penrose, {"9"})


def test_quotient_graph(penrose):
    chambers = catalog.build("chambers", k=2)
    q = quotient_graph(chambers, {"1", "2"})
    assert q.vertices == ("v0",)
    assert [e.eid for e in q.edges] == ["ell"]
    assert q.name == "chambers2_quot"
    # total even on non-hereditary sets: incident edges are dropped
    q2 = quotient_graph(penrose, {"2"})
    assert q2.vertices == ("1",) and [e.eid for e in q2.edges] == ["a"]


# -- derived graphs skip validation ---------------------------------------------------


def hereditary_closure(g: Graph, v: str) -> set:
    closure, frontier = {v}, [v]
    while frontier:
        for e in g.out_edges(frontier.pop()):
            if e.dst not in closure:
                closure.add(e.dst)
                frontier.append(e.dst)
    return closure


def test_derived_graphs_equal_their_validated_twins(trusted_sample, assert_validated_twin):
    rng = random.Random(11)
    for g in trusted_sample:
        assert_validated_twin(product(g, g))
        assert_validated_twin(line_graph(g))
        assert_validated_twin(quotient_graph(g, hereditary_closure(g, rng.choice(g.vertices))))


def test_derived_graphs_skip_the_validating_constructor(monkeypatch):
    sigma4 = catalog.build("sigma", n=4)
    init, calls = Graph.__init__, []

    def counting_init(self, *args):
        calls.append(args[0])
        init(self, *args)

    monkeypatch.setattr(Graph, "__init__", counting_init)
    assert sum(1 for _ in catalog.small_graph_universe()) == 19767
    product(sigma4, sigma4)
    line_graph(sigma4)
    quotient_graph(sigma4, {"1"})
    assert calls == []


# -- line graphs ------------------------------------------------------------------------


def test_line_graph_adjacency_is_edge_matrix(penrose, sigma3, universe_sample):
    for g in [penrose, sigma3] + list(universe_sample[:25]):
        lg = line_graph(g)
        assert lg.vertices == tuple(e.eid for e in g.edges)
        expected = Matrix(
            [
                [1 if a.dst == b.src else 0 for b in g.edges]
                for a in g.edges
            ]
        )
        assert adjacency(lg) == expected


def test_line_graph_id_collision():
    g = Graph("g", ("v",), (("a_a", "v", "v"), ("a", "v", "v")))
    with pytest.raises(ValueError) as exc:
        line_graph(g)
    assert str(exc.value) == "ambiguous line-graph edge id 'a_a_a'; rename edges"


def test_line_graph_of_penrose(penrose):
    lg = line_graph(penrose)
    assert lg.name == "line_penrose"
    assert {(e.src, e.dst) for e in lg.edges} == {
        ("a", "a"),
        ("a", "b"),
        ("b", "c"),
        ("c", "a"),
        ("c", "b"),
    }


def test_derived_graphs_above_the_edge_guard_are_refused(penrose, monkeypatch):
    # the counts are read before any edge is made: |E(e)| * |E(f)| and the sum
    # over vertices of in-degree times out-degree
    full = catalog.build_token("full:101")  # 10 201 edges
    guard = "more than the guard of 1000000$"
    with pytest.raises(GuardError, match=f"^the product of 'full101' and 'full101' "
                                         f"would have 104060401 edges, {guard}"):
        product(full, full)
    with pytest.raises(GuardError, match=f"^the line graph of 'full101' would have "
                                         f"1030301 edges, {guard}"):
        line_graph(full)
    # exactly at the bound they build, one edge past it they refuse
    monkeypatch.setattr(graphs, "MAX_EDGES", 9)
    assert product(penrose, penrose).n_edges == 9
    with pytest.raises(GuardError, match="would have 12 edges, more than the guard of 9$"):
        product(penrose, catalog.build("cuntz", n=4))
    monkeypatch.setattr(graphs, "MAX_EDGES", 5)
    assert line_graph(penrose).n_edges == 5
    monkeypatch.setattr(graphs, "MAX_EDGES", 4)
    with pytest.raises(GuardError, match="^the line graph of 'penrose' would have 5 edges"):
        line_graph(penrose)


# -- morphism documents -------------------------------------------------------------


MORPHISM_DOC = """\
# diagonal of the one-loop graph into its square
graph dom
vertex v
edge x : v -> v

graph cod
vertex v_v
edge x_x : v_v -> v_v

morphism diag : dom -> cod
vmap v => v_v
emap x => x_x
"""


def test_parse_morphism_document_inline():
    m = parse_morphism_document(MORPHISM_DOC)
    assert m.name == "diag"
    assert m.domain.name == "dom" and m.codomain.name == "cod"
    assert m.vmap == {"v": "v_v"} and m.emap == {"x": "x_x"}
    assert check_morphism(m).admissible


def test_parse_morphism_document_with_resolver(penrose):
    def resolver(token):
        return catalog.build_token(token)

    text = "morphism d : penrose -> penrose\n" + "".join(
        f"vmap {v} => {v}\n" for v in penrose.vertices
    ) + "".join(f"emap {e.eid} => {e.eid}\n" for e in penrose.edges)
    m = parse_morphism_document(text, graph_resolver=resolver)
    assert m.domain == penrose and m.codomain == penrose
    assert check_morphism(m).admissible


def test_parse_morphism_document_inline_beats_resolver(penrose):
    calls = []

    def resolver(token):
        calls.append(token)
        return penrose

    text = (
        "graph penrose\nvertex w\n"
        "morphism f : penrose -> penrose\nvmap w => w\n"
    )
    m = parse_morphism_document(text, graph_resolver=resolver)
    assert m.domain.vertices == ("w",)
    assert calls == []


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("vmap a => b\n", "vmap before the morphism"),
        ("morphism f\n", "expected 'morphism"),
        ("morphism f : a -> b\nmorphism g : a -> b\n", "only one morphism"),
        ("morphism f : a -> b\nvmap x =>\n", "expected 'vmap x => y'"),
        ("morphism f : a -> b\nvmap x => y\nvmap x => z\n", "duplicate vmap"),
        ("graph g\nvertex v\nmorphism f : g -> g\nvertex w\n", "after the morphism"),
        ("vertex v\n", "before any 'graph'"),
    ],
)
def test_parse_morphism_document_errors(text, fragment):
    with pytest.raises(ParseError) as exc:
        parse_morphism_document(text)
    assert fragment in str(exc.value)


def test_parse_morphism_document_error_lines():
    text = "graph dom\nvertex v\n\nmorphism f : dom -> dom\nvmap v => v\nvmap v => v\n"
    with pytest.raises(ParseError) as exc:
        parse_morphism_document(text)
    assert str(exc.value).startswith("line 6:")


def test_parse_morphism_document_unknown_graph():
    with pytest.raises(ParseError, match="no inline block"):
        parse_morphism_document("morphism f : nope -> nope\n")


def test_parse_morphism_document_inline_parse_error_keeps_document_lines():
    # blank and comment lines inside a block count towards the line number
    for text, expected in (
        ("graph dom\nvertex v\nedge a : v -> w\nmorphism f : dom -> dom\n",
         "line 3: edge 'a' references undeclared vertex 'w'"),
        ("graph dom\nvertex v\n\n# a loop\nedge x : v -> w\nmorphism f : dom -> dom\n",
         "line 5: edge 'x' references undeclared vertex 'w'"),
        ("graph dom\nvertex v\ngraph cod\nvertex w\nedge y : w -> w\n\nvertex w\n"
         "morphism f : dom -> cod\n",
         "line 7: duplicate vertex 'w'"),
    ):
        with pytest.raises(ParseError) as exc:
            parse_morphism_document(text)
        assert str(exc.value) == expected
