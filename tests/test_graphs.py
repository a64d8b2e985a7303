import pytest
from hypothesis import given, strategies as st

from afcore import catalog, linalg
from afcore.errors import ParseError
from afcore.graphs import (
    Graph,
    adjacency,
    classify,
    directed_cycle_count,
    directed_walks,
    parse_graph,
    serialize_graph,
    walk_edges,
    walks_into,
)

# -- independent oracles -------------------------------------------------------


def count_walks_by_enumeration(g: Graph, k: int) -> dict:
    """Walk counts per end vertex, by direct recursive enumeration."""
    counts = {v: 0 for v in g.vertices}

    def go(v: str, remaining: int) -> None:
        if remaining == 0:
            counts[v] += 1
            return
        for e in g.edges:
            if e.src == v:
                go(e.dst, remaining - 1)

    for v in g.vertices:
        go(v, k)
    return counts


def cycles_by_enumeration(g: Graph) -> int:
    """Simple directed cycles up to rotation, by brute force over closed walks."""
    seen = set()
    walks = [(e,) for e in g.edges]
    for length in range(1, g.n_vertices + 1):
        if length > 1:
            walks = [w + (e,) for w in walks for e in g.edges if e.src == w[-1].dst]
        for combo in walks:
            if combo[-1].dst != combo[0].src:
                continue
            starts = [e.src for e in combo]
            if len(set(starts)) != length:
                continue
            ids = tuple(e.eid for e in combo)
            canonical = min(ids[i:] + ids[:i] for i in range(length))
            seen.add(canonical)
    return len(seen)


# -- parsing ---------------------------------------------------------------------


def test_parse_basic_round_trip(penrose):
    text = serialize_graph(penrose)
    assert parse_graph(text) == penrose
    # the serialized form is the canonical document
    assert text == (
        "graph penrose\n"
        "vertex 1\n"
        "vertex 2\n"
        "edge a : 1 -> 1\n"
        "edge b : 1 -> 2\n"
        "edge c : 2 -> 1\n"
    )


def test_round_trip_catalog_instances():
    for token in ("sigma:4", "cuntz:3", "chambers:2", "lens:3", "cycle:5", "full:3"):
        g = catalog.build_token(token)
        assert parse_graph(serialize_graph(g)) == g


def test_round_trip_universe_sample(universe_sample):
    for g in universe_sample[:60]:
        assert parse_graph(serialize_graph(g)) == g


def test_parse_features():
    g = parse_graph(
        """
        # comment lines and blanks are fine
        graph demo
        vertex a b   # several vertices on one line
        edge a -> b  # unnamed edges count up e1, e2, ...
        edge x : b -> b
        edge b -> a
        """
    )
    assert g.vertices == ("a", "b")
    assert [e.eid for e in g.edges] == ["e1", "x", "e2"]


def test_parse_edges_may_precede_vertices():
    g = parse_graph("graph g\nedge u : p -> q\nvertex p q\n")
    assert g.edge("u").src == "p"


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("vertex v\n", "missing graph declaration"),
        ("graph g\ngraph h\n", "line 2"),
        ("graph g\nvertex v v\n", "duplicate vertex"),
        ("graph g\nvertex v\nedge a : v -> w\n", "undeclared vertex 'w'"),
        ("graph g\nvertex v\nedge a : v -> v\nedge a : v -> v\n", "duplicate edge"),
        ("graph g\nvertex v\nfoo bar\n", "unknown statement"),
        ("graph g\nvertex v!\n", "invalid vertex identifier"),
        ("graph g\nvertex v\nedge : v\n", "malformed edge"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(ParseError) as exc:
        parse_graph(text)
    assert fragment in str(exc.value)


def test_parse_error_line_numbers():
    with pytest.raises(ParseError) as exc:
        parse_graph("graph g\nvertex v\n\nedge a : v -> nope\n")
    assert str(exc.value).startswith("line 4:")


@pytest.mark.parametrize(
    "text, message, line",
    [
        ("vertex v\n", "missing graph declaration", None),
        ("graph g h\n", "line 1: malformed graph declaration", 1),
        ("graph g\nvertex v!\n", "line 2: invalid vertex identifier 'v!'", 2),
        ("graph g\nvertex v\nedge a : v -> v\nvertex v\n", "line 4: duplicate vertex 'v'", 4),
        ("graph g\nvertex v\nedge a b : v -> v\n", "line 3: malformed edge declaration", 3),
        ("graph g\nvertex v\nedge a : v -> v\nedge a : v -> v\n", "line 4: duplicate edge identifier 'a'", 4),
        ("graph g\nvertex v\n\nedge a : w -> v\n", "line 4: edge 'a' references undeclared vertex 'w'", 4),
        ("graph g\nvertex v\nedge a : v -> w\n", "line 3: edge 'a' references undeclared vertex 'w'", 3),
    ],
)
def test_parse_error_messages_are_exact(text, message, line):
    with pytest.raises(ParseError) as exc:
        parse_graph(text)
    assert str(exc.value) == message and exc.value.line == line


def test_parse_validates_once(monkeypatch, assert_validated_twin):
    # the parser checks every identifier, duplicate and endpoint as it reads,
    # so it builds the graph without the validating constructor
    docs = [serialize_graph(catalog.build_token(t)) for t in ("full:6", "chambers:2", "lens:3")]
    docs.append("graph demo\nvertex a b\nedge a -> b\nedge x : b -> b\nedge b -> a\n")
    calls = []
    real_init = Graph.__init__
    monkeypatch.setattr(Graph, "__init__", lambda *args: calls.append(args) or real_init(*args))
    parsed = [parse_graph(doc) for doc in docs]
    assert calls == []
    monkeypatch.undo()
    for g in parsed:
        assert_validated_twin(g)


def test_auto_id_collision_with_named_edge():
    # a named edge may claim 'e1'; the first unnamed edge then collides
    with pytest.raises(ParseError, match="duplicate edge identifier 'e1'"):
        parse_graph("graph g\nvertex v\nedge e1 : v -> v\nedge v -> v\n")


def test_graph_constructor_validation():
    cases = [
        ("g h", ("v!",), (), "invalid graph identifier 'g h' (expected [A-Za-z0-9_]+)"),
        ("g", ("v!",), (), "invalid vertex identifier 'v!' (expected [A-Za-z0-9_]+)"),
        ("g", ("v", "v"), (), "duplicate vertex 'v'"),
        ("g", ("v",), (("a b", "v", "v"),), "invalid edge identifier 'a b' (expected [A-Za-z0-9_]+)"),
        ("g", ("v",), (("a", "v", "v"), ("a", "v", "v")), "duplicate edge identifier 'a'"),
        ("g", ("v",), (("a", "w", "v"),), "edge 'a' has undeclared source vertex 'w'"),
        ("g", ("v",), (("a", "v", "w"),), "edge 'a' has undeclared range vertex 'w'"),
        # vertices before edges, edges in order, source before range
        ("g", ("v", "v"), (("a b", "w", "w"),), "duplicate vertex 'v'"),
        ("g", ("v",), (("a", "w", "v"), ("a b", "v", "v")), "edge 'a' has undeclared source vertex 'w'"),
        ("g", ("v",), (("a", "w", "x"),), "edge 'a' has undeclared source vertex 'w'"),
    ]
    for name, vertices, edges, message in cases:
        with pytest.raises(ValueError) as exc:
            Graph(name, vertices, edges)
        assert str(exc.value) == message


def test_trusted_graphs_equal_their_validated_twins(trusted_sample, assert_validated_twin):
    for g in trusted_sample:
        assert_validated_twin(g)
        # universe edges are numbered e1, e2, ... in vertex-pair order
        assert [e.eid for e in g.edges] == [f"e{i}" for i in range(1, g.n_edges + 1)]
        assert [e[1:] for e in g.edges] == sorted(e[1:] for e in g.edges)


# -- accessors and classification --------------------------------------------------


def test_accessor_order_follows_declaration():
    g = catalog.build("chambers", k=2)
    assert g.vertices == ("v0", "1", "2")
    assert [e.eid for e in g.out_edges("v0")] == ["ell", "d1", "d2"]
    assert g.sinks() == ("1", "2")
    assert g.sources() == ()
    assert g.regular_vertices() == ("v0",)
    assert len(g.out_edges("v0")) == 3 and g.in_degree("v0") == 1
    with pytest.raises(ValueError, match="unknown vertex"):
        g.out_edges("nope")
    with pytest.raises(ValueError, match="unknown edge"):
        g.edge("nope")


def test_adjacency_frozen_examples(penrose, sigma3):
    assert adjacency(penrose).rows == ((1, 1), (1, 0))
    assert adjacency(sigma3).rows == ((1, 1, 1), (0, 1, 1), (0, 0, 1))
    assert adjacency(catalog.build("tadpole")).rows == ((0, 1), (0, 1))


def test_walk_counts_against_enumeration(universe_sample):
    for g in universe_sample:
        gamma = adjacency(g)
        for k in range(0, 4):
            oracle = count_walks_by_enumeration(g, k)
            power = linalg.power(gamma, k)
            for j, v in enumerate(g.vertices):
                col = sum(power[(i, j)] for i in range(g.n_vertices))
                assert col == oracle[v]
            walks = directed_walks(g, k)
            assert len(walks) == sum(oracle.values())


def test_directed_walks_structure(penrose):
    walks = directed_walks(penrose, 2)
    assert all(len(w) == 5 for w in walks)
    for w in walks:
        for i, eid in enumerate(walk_edges(w)):
            e = penrose.edge(eid)
            assert e.src == w[2 * i] and e.dst == w[2 * i + 2]
    # deterministic order: first walk starts at the first vertex
    assert walks[0][0] == "1"
    assert directed_walks(penrose, 2) == walks
    with pytest.raises(ValueError):
        directed_walks(penrose, -1)


def test_walks_into_agrees_with_forward_enumeration(universe_sample):
    for g in universe_sample[:40]:
        for k in range(0, 3):
            forward = directed_walks(g, k)
            for v in g.vertices:
                backward = walks_into(g, v, k)
                assert sorted(backward) == sorted(
                    w for w in forward if w[-1] == v
                )


def test_cycle_count_against_enumeration(universe_sample):
    for g in universe_sample:
        assert directed_cycle_count(g) == cycles_by_enumeration(g)


@pytest.mark.parametrize(
    "token",
    [f"sigma:{n}" for n in range(1, 7)]
    + [f"cycle:{n}" for n in range(1, 9)]
    + [f"full:{n}" for n in range(1, 5)]
    + [f"lens:{k}" for k in range(1, 4)]
    + [f"chambers:{k}" for k in range(1, 4)]
    + ["penrose", "tadpole"],
)
def test_cycle_count_against_enumeration_on_catalog(token):
    g = catalog.build_token(token)
    assert directed_cycle_count(g) == cycles_by_enumeration(g)


@pytest.mark.parametrize("token, cycles", [("sigma:24", 24), ("cycle:300", 1)])
def test_cycle_count_work_is_linear(monkeypatch, token, cycles):
    # every edge the search reads comes through out_edges or in_edges; the
    # budget fails the test at once, so an exponential search cannot run on
    g = catalog.build_token(token)
    budget = 2 * (g.n_vertices + g.n_edges)
    visits = 0

    def counted(real):
        def accessor(self, v):
            nonlocal visits
            edges = real(self, v)
            visits += len(edges)
            if visits > budget:
                pytest.fail(f"more than {budget} edge visits")
            return edges

        return accessor

    monkeypatch.setattr(Graph, "out_edges", counted(Graph.out_edges))
    monkeypatch.setattr(Graph, "in_edges", counted(Graph.in_edges))
    assert directed_cycle_count(g) == cycles


def test_cycle_count_frozen_examples(penrose):
    assert directed_cycle_count(penrose) == 2
    assert directed_cycle_count(catalog.build("sigma", n=3)) == 3
    assert directed_cycle_count(catalog.build("cuntz", n=3)) == 3
    assert directed_cycle_count(catalog.build("cycle", n=4)) == 1
    assert directed_cycle_count(catalog.build("full", n=2)) == 3
    assert directed_cycle_count(catalog.build("full", n=3)) == 8
    assert directed_cycle_count(catalog.build("tadpole")) == 1


def test_classify_frozen_examples(penrose):
    info = classify(penrose)
    assert not info.is_functional and not info.is_transposed_functional
    assert info.is_connected and not info.is_cycle_graph
    assert info.directed_cycle_count == 2

    info = classify(catalog.build("cycle", n=3))
    assert info.is_functional and info.is_transposed_functional
    assert info.is_cycle_graph and info.directed_cycle_count == 1

    info = classify(catalog.build("chambers", k=1))
    assert info.sinks == ("1",) and info.regular == ("v0",)
    assert not info.is_cycle_graph


def test_classify_degree_flags_match_definitions(universe_sample):
    for g in universe_sample[:80]:
        info = classify(g)
        assert info.is_functional == all(len(g.out_edges(v)) <= 1 for v in g.vertices)
        assert info.is_transposed_functional == all(
            g.in_degree(v) <= 1 for v in g.vertices
        )


# -- property tests ----------------------------------------------------------------


@st.composite
def small_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    vertices = tuple(str(i) for i in range(1, n + 1))
    pairs = [(a, b) for a in vertices for b in vertices]
    counts = draw(
        st.lists(
            st.integers(min_value=0, max_value=2),
            min_size=len(pairs),
            max_size=len(pairs),
        )
    )
    edges = []
    for (a, b), c in zip(pairs, counts):
        for _ in range(c):
            edges.append((f"e{len(edges) + 1}", a, b))
    return Graph("h", vertices, edges)


@given(small_graphs())
def test_round_trip_property(g):
    assert parse_graph(serialize_graph(g)) == g


@given(small_graphs(), st.integers(min_value=0, max_value=3))
def test_walk_count_matches_adjacency_power(g, k):
    gamma = adjacency(g)
    total = sum(sum(row) for row in linalg.power(gamma, k).rows)
    assert total == len(directed_walks(g, k))
