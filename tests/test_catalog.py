import hashlib
import itertools
from collections import Counter

import pytest

from afcore import catalog, graphs, linalg, suites
from afcore.errors import GuardError
from afcore.graphs import Graph, adjacency, directed_walks, walk_edges
from afcore.linalg import det, rev_charpoly
from afcore.ops import Morphism, check_morphism


# -- builders and their frozen facts ---------------------------------------------


ALL_INSTANCES = (
    [("penrose", {"labels": "12"}), ("penrose", {"labels": "01"})]
    + [("sigma", {"n": n}) for n in range(1, 7)]
    + [("cuntz", {"n": n}) for n in range(1, 5)]
    + [("chambers", {"k": k}) for k in range(0, 4)]
    + [("lens", {"k": k}) for k in range(0, 4)]
    + [("cycle", {"n": n}) for n in range(1, 5)]
    + [("full", {"n": n}) for n in range(1, 4)]
    + [("tadpole", {})]
    + [("bouquet", {"n": 2})]  # the alias resolves to cuntz, facts included
)


@pytest.mark.parametrize("name, params", ALL_INSTANCES)
def test_verify_entry(name, params):
    rep = catalog.verify_entry(name, **params)
    assert rep.ok, rep.render()


def test_builds_validate_once(monkeypatch, assert_validated_twin):
    # the builders make every identifier from integers and literals, so they
    # build without the validating constructor
    calls = []
    real_init = Graph.__init__
    monkeypatch.setattr(Graph, "__init__", lambda *args: calls.append(args) or real_init(*args))
    built = [catalog.build(name, **params) for name, params in ALL_INSTANCES]
    assert calls == []
    monkeypatch.undo()
    families = {g.name.rstrip("0123456789") for g in built}
    assert families == {e.name for e in catalog.list_entries()}
    for g in built:
        assert_validated_twin(g)


def test_expected_facts_are_literal():
    # spot checks that the table really holds closed forms, not recomputations
    assert catalog.expected_facts("penrose")["det"] == -1
    assert catalog.expected_facts("sigma", n=5)["det"] == 1
    assert catalog.expected_facts("cuntz", n=4)["det"] == 4
    assert catalog.expected_facts("chambers", k=0)["det"] == 1
    assert catalog.expected_facts("chambers", k=2)["det"] == 0
    assert catalog.expected_facts("lens", k=3)["det"] == 1
    assert catalog.expected_facts("cycle", n=3)["det"] == 1
    assert catalog.expected_facts("cycle", n=4)["det"] == -1
    assert catalog.expected_facts("full", n=3)["det"] == 0
    assert catalog.expected_facts("tadpole")["det"] == 0
    assert catalog.expected_facts("lens", k=3)["directed_cycles"] == 4


def test_a_build_above_the_edge_guard_is_refused_before_any_edge(monkeypatch):
    # the guard reads each family's closed-form edge count, which counts what it builds
    for name, params in ALL_INSTANCES:
        entry, kwargs = catalog._instance(name, params)
        assert entry.n_edges(**kwargs) == catalog.build(name, **params).n_edges
    monkeypatch.setattr(catalog, "Edge", lambda *args: pytest.fail("an edge was made"))
    for refused in (
        lambda: catalog.build_token("full:5000"),
        lambda: catalog.build("sigma", n=1414),  # 1 000 405 edges
        lambda: catalog.build_token("lens:500000"),  # 1 000 001
        lambda: catalog.verify_entry("cuntz", n=10**6 + 1),
        lambda: catalog.build_token("cycle:1000001"),
        lambda: suites.run_suite("cpq", n=2000),
    ):
        with pytest.raises(GuardError, match="edges, more than the guard of 1000000$"):
            refused()
    # exactly at the bound the builder runs
    monkeypatch.setattr(catalog, "_numbered", lambda family, n, edges: (family, n))
    assert catalog.build_token("cycle:1000000") == ("cycle", 10**6)
    # a size the builders refuse is refused by them, not by the guard
    monkeypatch.undo()
    with pytest.raises(ValueError, match="need n >= 1, got -5000"):
        catalog.build_token("full:-5000")
    with pytest.raises(ValueError, match="need n >= 1, got -2000"):
        catalog.build("sigma", n=-2000)


def test_penrose_label_variants():
    g01 = catalog.build("penrose", labels="01")
    assert g01.vertices == ("0", "1")
    assert adjacency(g01).rows == ((1, 1), (1, 0))
    with pytest.raises(ValueError, match="labels"):
        catalog.build("penrose", labels="ab")


def test_build_errors():
    with pytest.raises(ValueError, match="unknown catalog graph"):
        catalog.build("mystery")
    with pytest.raises(ValueError, match="unexpected"):
        catalog.build("penrose", n=3)
    with pytest.raises(ValueError, match="requires parameter"):
        catalog.build("sigma")
    with pytest.raises(ValueError, match="takes no parameters"):
        catalog.build_token("tadpole:3")
    with pytest.raises(ValueError, match="unknown catalog graph"):
        catalog.build_token("nope:3")
    with pytest.raises(ValueError, match="unknown catalog graph 'mystery'"):
        catalog.expected_facts("mystery")
    for token, value in (("sigma:x", "'x'"), ("sigma:n=", "''"), ("cycle:n=2.5", "'2.5'")):
        with pytest.raises(ValueError) as info:
            catalog.build_token(token)
        family = token.partition(":")[0]
        assert str(info.value) == f"'{family}' parameter 'n' must be an int, got {value}"
    with pytest.raises(ValueError, match="'lens' parameter 'k' must be an int, got None"):
        catalog.build("lens", k=None)
    for token in ("sigma:3,4", "sigma:n=3,4", "sigma:3,n=4", "sigma:n=3,n=3", "cuntz:2,5"):
        family = token.partition(":")[0]
        with pytest.raises(ValueError) as info:
            catalog.build_token(token)
        assert str(info.value) == f"'{family}' parameter 'n' is given more than once"


def test_build_token_forms(penrose, sigma3):
    assert catalog.build_token("penrose") == penrose
    assert catalog.build_token("sigma:3") == sigma3
    assert catalog.build_token("sigma:n=3") == sigma3
    assert catalog.build_token("penrose:labels=01").vertices == ("0", "1")
    assert catalog.build_token("chambers:k=2,") == catalog.build("chambers", k=2)
    assert catalog.build_token("bouquet:3") == catalog.build("cuntz", n=3)


def test_list_entries_and_param_help():
    entries = {e.name: e for e in catalog.list_entries()}
    assert "penrose" in entries and "cuntz" in entries
    assert "bouquet" in entries["cuntz"].aliases
    assert entries["sigma"].param_help() == "n:int"
    assert "labels:str='12'" == entries["penrose"].param_help()
    for e in entries.values():
        assert e.summary


def test_penrose_walks_avoid_repeated_second_vertex(penrose):
    # vertex 2 has no loop, so no walk stays there for two steps
    for k in range(1, 7):
        for w in directed_walks(penrose, k):
            for i in range(0, len(w) - 2, 2):
                assert not (w[i] == "2" and w[i + 2] == "2")


def test_sigma_is_triangular(sigma3):
    gamma = adjacency(sigma3)
    for i in range(3):
        for j in range(3):
            assert gamma[(i, j)] == (1 if j >= i else 0)
    assert rev_charpoly(gamma) == (-1, 3, -3, 1)


def test_lens_contains_chambers():
    lens = catalog.build("lens", k=2)
    chambers = catalog.build("chambers", k=2)
    inc = Morphism(
        chambers,
        lens,
        {v: v for v in chambers.vertices},
        {e.eid: e.eid for e in chambers.edges},
    )
    verdict = check_morphism(inc)
    # the lens loops at the outer vertices break range-closedness
    assert verdict.injective
    assert not verdict.admissible


def test_family_inclusion_sigma_chain(sigma2, sigma3):
    sigma5 = catalog.build("sigma", n=5)
    for small, large in ((sigma2, sigma3), (sigma3, sigma5)):
        inc = Morphism(
            small,
            large,
            {v: v for v in small.vertices},
            {e.eid: e.eid for e in small.edges},
        )
        assert check_morphism(inc).admissible


# -- the exhaustive universe --------------------------------------------------------


def _up_to(max_vertices: int):
    """The universe's graphs on at most ``max_vertices`` vertices, which come first."""
    return itertools.takewhile(lambda g: g.n_vertices <= max_vertices, catalog.small_graph_universe())


def _multiplicity(g: Graph) -> int:
    """The largest number of parallel edges of ``g``."""
    return max(Counter((e.src, e.dst) for e in g.edges).values(), default=0)


def test_universe_counts_small():
    assert sum(1 for _ in _up_to(1)) == 3
    assert sum(1 for _ in _up_to(2)) == 84
    assert sum(1 for g in _up_to(2) if _multiplicity(g) <= 1) == 2 + 2**4


def test_universe_first_and_last():
    graphs = list(_up_to(2))
    assert graphs[0].name == "u1"
    assert graphs[0].n_vertices == 1 and graphs[0].n_edges == 0
    assert graphs[-1].name == "u84"
    assert graphs[-1].n_vertices == 2 and graphs[-1].n_edges == 8
    assert len({g.name for g in graphs}) == len(graphs)


def test_universe_covers_all_multiplicity_patterns():
    two_vertex = [g for g in _up_to(2) if g.n_vertices == 2]
    patterns = {
        tuple(
            sum(1 for e in g.edges if (e.src, e.dst) == pair)
            for pair in itertools.product(g.vertices, repeat=2)
        )
        for g in two_vertex
    }
    assert patterns == set(itertools.product(range(3), repeat=4))


def reference_universe(max_vertices: int, max_multiplicity: int):
    """The universe as plain ``(name, vertices, edges)`` data, by the
    slice-and-extend enumeration that the head-and-tail split replaced."""
    counter = 0
    for n in range(1, max_vertices + 1):
        vertices = tuple(str(i) for i in range(1, n + 1))
        pairs = [(a, b) for a in vertices for b in vertices]
        slots = range(1, len(pairs) * max_multiplicity + 1)
        rows = [[(f"e{i}", a, b) for i in slots] for a, b in pairs]
        for counts in itertools.product(range(max_multiplicity + 1), repeat=len(pairs)):
            counter += 1
            edges: list = []
            for row, c in zip(rows, counts):
                edges += row[len(edges) : len(edges) + c]
            yield f"u{counter}", vertices, tuple(edges)


def _universe_data(max_vertices: int, max_multiplicity: int):
    """The universe's graphs on at most ``max_vertices`` vertices with at most
    ``max_multiplicity`` parallel edges, as ``reference_universe`` gives them."""
    for g in _up_to(max_vertices):
        assert all(type(e) is graphs.Edge for e in g.edges)
        if _multiplicity(g) <= max_multiplicity:
            yield g.name, g.vertices, tuple(tuple(e) for e in g.edges)


@pytest.mark.parametrize(
    "max_vertices,max_multiplicity",
    [(v, m) for v in (1, 2, 3) for m in (0, 1, 2) if (v, m) != (3, 2)],
)
def test_universe_matches_the_reference_enumeration(max_vertices, max_multiplicity):
    got = list(_universe_data(max_vertices, max_multiplicity))
    want = list(reference_universe(max_vertices, max_multiplicity))
    if max_multiplicity < 2:  # the reference numbers only the graphs it makes
        got, want = [d[1:] for d in got], [d[1:] for d in want]
    assert got == want


def test_default_universe_matches_the_reference_by_hash():
    # the 19 767 graphs are compared through one digest of each sequence
    digests = []
    for data in (_universe_data(3, 2), reference_universe(3, 2)):
        h = hashlib.sha256()
        n = 0
        for item in data:
            h.update(repr(item).encode())
            n += 1
        digests.append((n, h.hexdigest()))
    assert digests[0] == digests[1]
    assert digests[0][0] == 19767


# -- verification suites ------------------------------------------------------------


# the calls the acceptance criteria do not already make
CHEAP_SUITES = [
    ("cpq", {"n": 2}),
    ("uhf", {"n": 2}),
    ("negative_controls", {}),
]


@pytest.mark.parametrize("name, params", CHEAP_SUITES)
def test_suite_passes(name, params):
    rep = suites.run_suite(name, **params)
    assert rep.ok, rep.render()


@pytest.mark.parametrize(
    "name, n_graphs", [("cpq", 7), ("penrose", 1), ("uhf", 4), ("kk", 5)]
)
def test_suite_reads_one_tower_per_graph(monkeypatch, name, n_graphs):
    counts = dict.fromkeys(("inv_unimodular", "adjacency"), 0)
    for module, fn in ((linalg, "inv_unimodular"), (graphs, "adjacency")):
        def counting(*args, _real=getattr(module, fn), _name=fn):
            counts[_name] += 1
            return _real(*args)

        monkeypatch.setattr(module, fn, counting)
    assert suites.run_suite(name).ok
    # per graph: Gamma^-1 and either the line-class inverse or the kk
    # cross-check; the tower's Gamma and the one in the catalog facts check
    assert counts["inv_unimodular"] <= 2 * n_graphs
    assert counts["adjacency"] <= 2 * n_graphs


def test_run_suite_unknown():
    with pytest.raises(ValueError, match="unknown suite"):
        suites.run_suite("mystery")


def test_run_suite_refuses_undeclared_and_malformed_params(monkeypatch):
    # refused before the suite runs: the suite itself is never called
    def never(*args, **kwargs):
        raise AssertionError("suite ran")

    monkeypatch.setitem(suites.SUITES, "penrose", (never, ()))
    monkeypatch.setitem(suites.SUITES, "cpq", (never, suites.SUITES["cpq"][1]))
    with pytest.raises(ValueError, match="suite 'penrose' .* got unexpected 'foo'"):
        suites.run_suite("penrose", foo=1)
    with pytest.raises(ValueError, match="suite 'cpq' .* got unexpected 'm'"):
        suites.run_suite("cpq", m=3)
    with pytest.raises(ValueError, match="suite 'cpq' parameter 'n' must be an int, got 'abc'"):
        suites.run_suite("cpq", n="abc")


def test_suite_names_cover_the_table():
    assert set(suites.SUITES) == {
        "penrose",
        "cpq",
        "uhf",
        "admissibility",
        "embeddings",
        "structure",
        "symbolic",
        "k0",
        "kk",
        "picard",
        "negative_controls",
    }


def test_cpq_suite_accepts_range_or_single():
    single = suites.run_suite("cpq", n=4)
    assert single.ok
    assert all("n=4" in item.label or "n = 4" in item.label for item in single.items)


def test_verify_entry_report_shape(penrose):
    rep = catalog.verify_entry("penrose")
    assert rep.summary().endswith("(7/7 checks)")
    labels = [item.label for item in rep.items]
    assert "determinant" in labels and "directed cycle count" in labels
