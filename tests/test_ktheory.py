import itertools
import json
import random
from collections import Counter
from fractions import Fraction
from math import comb

import pytest

from afcore import catalog, cli, graphs, linalg, suites
from afcore.errors import NotUnimodular, SinkError, SourceError
from afcore.graphs import Graph, adjacency
from afcore.ktheory import (
    K0Class,
    Tower,
    atiyah_todd,
    bratteli,
    class_of_unit,
    colimit_presentation,
    emit_dot,
    invariants_report,
    k0,
    kk_report,
    line_class,
    line_class_matrix,
    phi,
    uhf_embed,
    walk_counts,
)
from afcore.linalg import Matrix, power, rank_Q, rev_charpoly


def fib(n: int) -> int:
    """Fibonacci with F_0 = 0, F_1 = 1, extended to small negatives."""
    if n >= 0:
        a, b = 0, 1
        for _ in range(n):
            a, b = b, a + b
        return a
    return (-1) ** (n + 1) * fib(-n)


def counts_by_enumeration(g, k: int) -> tuple:
    """Number of length-k walks into each vertex, by direct recursion."""
    counts = [0] * g.n_vertices

    def tails(v: str, remaining: int) -> int:
        if remaining == 0:
            return 1
        return sum(
            tails(e.src, remaining - 1) for e in g.in_edges(v)
        )

    for i, v in enumerate(g.vertices):
        counts[i] = tails(v, k)
    return tuple(counts)


# -- walk counts ---------------------------------------------------------------


def test_walk_counts_against_enumeration(universe_sample):
    for g in universe_sample[:60]:
        for k in range(5):
            assert walk_counts(g, k) == counts_by_enumeration(g, k)


def test_walk_counts_fibonacci(penrose):
    for k in range(0, 12):
        assert walk_counts(penrose, k) == (fib(k + 2), fib(k + 1))
    for k in range(1, 9):
        assert walk_counts(penrose, -k) == (
            (-1) ** (k + 1) * fib(k - 2),
            (-1) ** k * fib(k - 1),
        )


def test_walk_counts_binomial(sigma3):
    n = 3
    for k in range(0, 6):
        assert walk_counts(sigma3, k) == tuple(
            comb(j + k - 1, k) for j in range(1, n + 1)
        )
    for k in range(1, 5):
        assert walk_counts(sigma3, -k) == tuple(
            (-1) ** (j - 1) * comb(k - 1, j - 1) for j in range(1, n + 1)
        )


# -- Bratteli diagrams ------------------------------------------------------------


def test_bratteli_levels_are_walk_counts(penrose, sigma2):
    for g in (penrose, sigma2, catalog.build("cuntz", n=2)):
        d = bratteli(g, 6)
        assert d.depth == 6 and len(d.levels) == 6
        for k in range(1, 7):
            counts = walk_counts(g, k - 1)
            expected = tuple(
                (v, counts[i]) for i, v in enumerate(g.vertices) if counts[i]
            )
            assert d.levels[k - 1] == expected


def test_bratteli_fibonacci_sizes(penrose):
    d = bratteli(penrose, 8)
    for k in range(1, 9):
        assert dict(d.levels[k - 1]) == {"1": fib(k + 1), "2": fib(k)}


def test_bratteli_rejects_bad_input(penrose):
    with pytest.raises(ValueError, match="depth"):
        bratteli(penrose, 0)
    with pytest.raises(SinkError):
        bratteli(catalog.build("chambers", k=2), 3)


def test_emit_dot_golden(penrose):
    d = bratteli(penrose, 3)
    assert emit_dot(d) == (
        "digraph bratteli {\n"
        "  rankdir=LR;\n"
        '  root [label="1"];\n'
        '  v1_1 [label="1"];\n'
        '  v2_1 [label="1"];\n'
        '  v1_2 [label="2"];\n'
        '  v2_2 [label="1"];\n'
        '  v1_3 [label="3"];\n'
        '  v2_3 [label="2"];\n'
        "  root -> v1_1;\n"
        "  root -> v2_1;\n"
        "  v1_1 -> v1_2;\n"
        "  v1_1 -> v2_2;\n"
        "  v2_1 -> v1_2;\n"
        "  v1_2 -> v1_3;\n"
        "  v1_2 -> v2_3;\n"
        "  v2_2 -> v1_3;\n"
        "}\n"
    )
    assert emit_dot(d) == emit_dot(bratteli(penrose, 3))


def test_emit_dot_multiplicity_labels():
    d = bratteli(catalog.build("cuntz", n=3), 2)
    dot = emit_dot(d)
    assert ' [label="x3"]' in dot


# -- presentations ------------------------------------------------------------------


def test_k0_presentation_kinds(penrose, tadpole):
    free = k0(penrose)
    assert Tower(penrose).unimodular
    assert free.rank == 2 and free.supports == ((0, 1),) and free.stable_level == 0

    col = k0(catalog.build("cuntz", n=2))
    assert col.rank == 1 and col.supports == ((0,),) and col.stable_level == 0

    td = k0(tadpole)
    assert td.supports == ((0, 1), (1,)) and td.stable_level == 1 and td.rank == 1

    full2 = k0(catalog.build("full", n=2))
    assert not Tower(full2.graph).unimodular and full2.rank == 1

    with pytest.raises(SinkError):
        k0(catalog.build("chambers", k=1))
    with pytest.raises(SinkError):
        colimit_presentation(catalog.build("chambers", k=1))


@pytest.mark.parametrize(
    "token", ["penrose", "sigma:2", "sigma:5", "cycle:3", "cycle:7", "lens:2", "lens:4",
              "cuntz:1", "full:1"]
)
def test_unimodular_colimit_is_free(token):
    # |det Gamma| = 1: full support from level 0 on and rank n
    t = Tower(catalog.build_token(token))
    assert t.unimodular
    assert t.colimit.supports == (tuple(range(t.n)),)
    assert t.colimit.stable_level == 0 and t.colimit.rank == t.n == rank_Q(power(t.gamma, t.n))


def colimit_rank_by_power(t: Tower) -> int:
    """The rank of the stable connecting map raised to the size of its block."""
    stable = t.colimit.supports[-1]
    restricted = Matrix([[t.gamma[(i, j)] for i in stable] for j in stable])
    return rank_Q(power(restricted, max(len(stable), 1)))


def test_colimit_rank_matches_the_rank_of_a_power(universe_sample):
    graphs = list(itertools.islice(catalog.small_graph_universe(), 84)) + universe_sample
    graphs += [catalog.build_token(f"full:{n}") for n in range(2, 17)]
    graphs += [catalog.build_token(f"cuntz:{n}") for n in range(2, 5)]
    graphs += [catalog.build_token(f"lens:{k}") for k in range(2, 7)]
    graphs.append(catalog.build("tadpole"))
    partial = 0
    for g in graphs:
        if g.sinks():
            continue
        t = Tower(g)
        assert t.colimit.rank == colimit_rank_by_power(t), g
        partial += len(t.colimit.supports[-1]) < t.n
    assert partial  # tadpole, at least, has a partial stable support


def test_colimit_refuses_supports_that_never_stabilize_under_python_O(run_python_O):
    # supports only shrink, so they settle within n steps; a fault that
    # makes them alternate must raise instead of looping for ever
    run_python_O(
        """
        from afcore import catalog
        from afcore.errors import CertificateError
        from afcore.ktheory import Tower

        g = catalog.build_token("cycle:3")
        # odd levels reach only the first vertex and even levels every vertex
        Tower.orbit = lambda self, k: (1, 0, 0) if k % 2 else (1, 1, 1)
        try:
            Tower(g).colimit
            raise SystemExit("support stabilization check skipped")
        except CertificateError:
            pass
        """
    )


# -- the tower read off Gamma, against the edge lists ----------------------------


def supports_by_edge_walk(g) -> tuple:
    """The level supports by walking each support's out-edges."""
    supports = [tuple(range(g.n_vertices))]
    while True:
        cur = supports[-1]
        nxt = tuple(
            sorted({g.vertex_index(e.dst) for i in cur for e in g.out_edges(g.vertices[i])})
        )
        if nxt == cur:
            return tuple(supports)
        supports.append(nxt)


def dot_by_edge_count(d) -> str:
    """The Bratteli rendering with each vertex's successors counted off its out-edges."""
    g = d.graph
    succ = {}
    for v in g.vertices:
        mult = Counter(e.dst for e in g.out_edges(v))
        succ[v] = [
            (w, f' [label="x{mult[w]}"]' if mult[w] > 1 else "")
            for w in sorted(mult, key=g.vertex_index)
        ]
    lines = ["digraph bratteli {", "  rankdir=LR;", '  root [label="1"];']
    for k, level in enumerate(d.levels, start=1):
        lines.extend(f'  v{v}_{k} [label="{size}"];' for v, size in level)
    lines.extend(f"  root -> v{v}_1;" for v, _ in d.levels[0])
    for k in range(1, d.depth):
        present_next = {v for v, _ in d.levels[k]}
        for v, _ in d.levels[k - 1]:
            lines.extend(
                f"  v{v}_{k} -> v{w}_{k + 1}{label};" for w, label in succ[v] if w in present_next
            )
    lines.append("}")
    return "\n".join(lines) + "\n"


LADDER_TOKENS = (
    [f"cycle:{n}" for n in range(6, 25, 3)]
    + [f"sigma:{n}" for n in range(3, 13, 3)]
    + [f"lens:{k}" for k in range(2, 13, 2)]
    + ["penrose", "tadpole"]
    + [f"full:{n}" for n in range(2, 17)]
    + [f"cuntz:{n}" for n in range(2, 7)]
    + [f"chambers:{k}" for k in range(1, 7)]
)


def tower_read_off_gamma_graphs() -> list:
    """Every universe graph on at most 2 vertices, 2 000 seeded ones on 3,
    and the ladder tokens."""
    picked = set(random.Random(20).sample(range(84, 19767), 2000))
    sample = [g for i, g in enumerate(catalog.small_graph_universe()) if i < 84 or i in picked]
    return sample + [catalog.build_token(token) for token in LADDER_TOKENS]


def test_tower_read_off_gamma_matches_the_edge_lists():
    checked = 0
    for g in tower_read_off_gamma_graphs():
        t = Tower(g)
        assert t.det == linalg.det(t.gamma), g
        if g.sinks():
            continue
        assert t.colimit.supports == supports_by_edge_walk(g), g
        d = t.bratteli(3)
        assert emit_dot(d) == dot_by_edge_count(d), g
        checked += 1
    assert checked > 1000


def test_tower_commands_never_walk_the_edge_lists(tmp_path, monkeypatch, capsys):
    path = tmp_path / "r1.graph"
    path.write_text(
        "graph r1\nvertex a b c\nedge a -> b\nedge b -> c\nedge c -> a\nedge c -> c\n",
        encoding="utf-8",
    )

    def no_edge_walk(self, v):
        raise AssertionError("the tower walked an edge list")

    monkeypatch.setattr(Graph, "out_edges", no_edge_walk)
    gammas, gamma_dets = [], []
    real_adjacency, real_det = graphs.adjacency, linalg.det

    def recording_adjacency(g):
        gammas.append(real_adjacency(g))
        return gammas[-1]

    def counting_det(m):
        gamma_dets.extend(m for gamma in gammas if m is gamma)
        return real_det(m)

    monkeypatch.setattr(graphs, "adjacency", recording_adjacency)
    monkeypatch.setattr(linalg, "det", counting_det)
    levels = ["--levels", "5"]
    variants = [["ktheory"], ["ktheory", "--json"], ["bratteli", *levels],
                ["bratteli", *levels, "--json"], ["bratteli", *levels, "--dot"]]
    for arg in ["penrose", "tadpole", "sigma:3", "full:4", "cuntz:2", "lens:3", "chambers:2",
                str(path)]:
        for command, *flags in variants:
            gammas.clear()
            gamma_dets.clear()
            code = cli.main([command, arg, *flags])
            assert code == (2 if arg == "chambers:2" and command == "bratteli" else 0)
            assert "Traceback" not in capsys.readouterr().err
            assert len(gamma_dets) <= 1, (command, arg, flags)


def test_class_validation(penrose, tadpole):
    t = Tower(penrose)
    with pytest.raises(ValueError, match="length"):
        t.k0_equal(K0Class((1,)), K0Class((1, 0)))
    with pytest.raises(ValueError, match="nonnegative"):
        t.k0_equal(K0Class((1, 0), level=-1), K0Class((1, 0)))
    # a unimodular graph carries classes at every level, each equal to its push
    cls = K0Class((1, 0), level=1)
    assert t.k0_equal(cls, t.push(cls))
    with pytest.raises(ValueError, match="unsupported vertex"):
        Tower(tadpole).k0_equal(K0Class((1, 0), level=1), K0Class((1, 0), level=1))


def test_k0_equal_collapsing_graph(tadpole):
    # both vertex classes agree in the colimit, and the unit is twice one
    t = Tower(tadpole)
    p1 = K0Class((1, 0), 0)
    p2 = K0Class((0, 1), 0)
    assert t.k0_equal(p1, p2)
    assert t.k0_equal(class_of_unit(tadpole), p2.scale(2))
    assert not t.k0_equal(p2, p2.scale(2))


def test_k0_equal_full_graph():
    t = Tower(catalog.build("full", n=2))
    p1 = K0Class((1, 0), 0)
    p2 = K0Class((0, 1), 0)
    assert t.k0_equal(p1, p2)
    assert not t.k0_equal(p2, p2.scale(2))
    assert not t.k0_equal(p2, K0Class((0, 0), 0))


def test_k0_equal_levels_align(penrose):
    # pushing a colimit class never changes its class
    g = catalog.build("cuntz", n=2)
    t = Tower(g)
    cls = t.q_class(g.vertices[0], 2)
    assert t.k0_equal(cls, t.push(cls).add(K0Class((0,), 3)).add(K0Class((0,), 3)))
    pushed = t.push(cls)
    assert pushed.level == cls.level + 1
    assert t.k0_equal(cls, pushed)


def test_colimit_vs_free_cross_oracle(penrose, sigma2):
    # on a unimodular sink-free graph the colimit is free on the vertex
    # projections; equality must agree after transporting to level 0
    rng = random.Random("colimit-vs-free")
    for g in (penrose, sigma2, catalog.build("cycle", n=3)):
        t = Tower(g)
        assert t.unimodular and colimit_presentation(g) == t.colimit
        n = g.n_vertices
        for _ in range(60):
            ka, kb = rng.randint(0, 3), rng.randint(0, 3)
            a = K0Class(tuple(rng.randint(-2, 2) for _ in range(n)), ka)
            b = K0Class(tuple(rng.randint(-2, 2) for _ in range(n)), kb)
            via_colimit = t.k0_equal(a, b)
            via_free = t.to_free(a).vector == t.to_free(b).vector
            assert via_colimit == via_free


# -- distinguished projection classes ----------------------------------------------


def test_q_class_free_and_colimit(penrose):
    t = Tower(penrose)
    assert t.q_class("1", 0).vector == (1, 0)
    assert t.q_class("1", 2) == K0Class((1, 0), 2)
    assert t.to_free(t.q_class("1", 2)).vector == power(adjacency(penrose), -2).rows[0]
    g = catalog.build("cuntz", n=2)
    assert Tower(g).q_class(g.vertices[0], 3) == K0Class((1,), 3)
    with pytest.raises(ValueError, match="nonnegative"):
        t.q_class("1", -1)


def test_q_class_vanishes_off_support(tadpole):
    t = Tower(tadpole)
    # no length-2 walk ends at vertex 1, so the class is zero
    assert t.q_class("1", 2).vector == (0, 0)
    assert t.q_class("2", 2).vector == (0, 1)


@pytest.mark.parametrize("token", ["penrose", "sigma:2", "cuntz:2", "tadpole", "full:2"])
def test_q_recursion_reports(token):
    assert suites.verify_q_recursion(Tower(catalog.build_token(token)), 4)


# -- line classes --------------------------------------------------------------------


def test_line_class_penrose_fibonacci(penrose):
    l0 = line_class(penrose, 0)
    l1 = line_class(penrose, 1)
    assert l0.vector == (1, 1) and l1.vector == (1, 0)
    for k in range(1, 9):
        expect_pos = tuple(
            (-1) ** k * (fib(k - 1) * a - fib(k) * b)
            for a, b in zip(l0.vector, l1.vector)
        )
        assert line_class(penrose, k).vector == expect_pos
        expect_neg = tuple(
            fib(k + 1) * a + fib(k) * b for a, b in zip(l0.vector, l1.vector)
        )
        assert line_class(penrose, -k).vector == expect_neg


def test_line_class_routing():
    with pytest.raises(SinkError):
        line_class(catalog.build("chambers", k=2), 1)
    with pytest.raises(SourceError):
        line_class(catalog.build("tadpole"), 1)
    assert line_class(catalog.build("tadpole"), -1) == K0Class((0, 2), 0)
    # singular but source-free: the class is a support indicator at level k
    g = catalog.build("cuntz", n=2)
    assert line_class(g, 2) == K0Class((1,), 2)
    assert line_class(g, -2) == K0Class((4,), 0)


def test_uhf_embedding_values():
    g = catalog.build("cuntz", n=2)
    t = Tower(g)
    for k in range(0, 5):
        assert uhf_embed(2, line_class(g, k)) == Fraction(1, 2**k)
        assert uhf_embed(2, line_class(g, -k)) == Fraction(2**k)
    # pushing a class does not move its embedded value
    cls = t.q_class(g.vertices[0], 1)
    assert uhf_embed(2, t.push(cls)) == uhf_embed(2, cls)
    with pytest.raises(ValueError, match="at least two loops"):
        uhf_embed(1, K0Class((1,), 0))
    with pytest.raises(ValueError, match="single-vertex"):
        uhf_embed(2, K0Class((1, 0), 0))


# -- class recursions ------------------------------------------------------------------


def test_atiyah_todd_penrose(penrose):
    ident = atiyah_todd(penrose, 2)
    assert ident.k == 2 and ident.verified
    assert ident.coeffs == ((0, 1), (1, -1))
    ident = atiyah_todd(penrose, -1)
    assert ident.coeffs == ((0, 1), (1, 1)) and ident.verified
    for k in list(range(-6, 0)) + list(range(2, 8)):
        assert atiyah_todd(penrose, k).verified


def test_atiyah_todd_binomial(sigma3):
    n = 3
    top = atiyah_todd(sigma3, n)
    assert top.verified
    assert top.coeffs == tuple(
        (j, (-1) ** (n - j + 1) * comb(n, j)) for j in range(n)
    )
    down = atiyah_todd(sigma3, -1)
    assert down.verified
    assert down.coeffs == tuple(
        (j, (-1) ** j * comb(n, j + 1)) for j in range(n)
    )


def test_atiyah_todd_rejects(penrose):
    for k in (0, 1):
        with pytest.raises(ValueError, match="base window"):
            atiyah_todd(penrose, k)
    with pytest.raises(NotUnimodular):
        atiyah_todd(catalog.build("full", n=2), 3)


# -- the ring identification ------------------------------------------------------------


def test_line_class_matrix_penrose(penrose):
    assert line_class_matrix(penrose) == Matrix([[1, 1], [1, 0]])
    with pytest.raises(NotUnimodular):
        line_class_matrix(catalog.build("cuntz", n=2))


def test_phi_basics(penrose):
    t = Tower(penrose)
    assert phi(penrose, class_of_unit(penrose)) == t.x_power(0)
    assert phi(penrose, line_class(penrose, 1)) == t.x_power(1)
    assert phi(penrose, line_class(penrose, -3)) == t.x_power(-3)
    with pytest.raises(ValueError, match="level-0"):
        phi(penrose, K0Class((1, 0), level=2))


def test_phi_additive(penrose):
    rng = random.Random("phi-additive")
    p = rev_charpoly(adjacency(penrose))
    for _ in range(40):
        a = K0Class((rng.randint(-4, 4), rng.randint(-4, 4)))
        b = K0Class((rng.randint(-4, 4), rng.randint(-4, 4)))
        assert phi(penrose, a.add(b)) == phi(penrose, a) + phi(penrose, b)


def test_phi_reports(penrose, sigma2):
    pen, sig = Tower(penrose), Tower(sigma2)
    assert suites.verify_phi(pen, 8)
    assert suites.semiring_check(pen, 4)
    assert suites.verify_phi(sig, 6)
    assert suites.semiring_check(sig, 3)


def test_phi_needs_unimodular_line_class_matrix():
    g = catalog.build("cycle", n=2)  # unimodular adjacency, singular matrix of classes
    with pytest.raises(NotUnimodular) as exc:
        phi(g, class_of_unit(g))
    assert "line-class matrix" in str(exc.value)
    with pytest.raises(NotUnimodular, match="line-class matrix"):
        kk_report(g)


# -- the shift matrix ---------------------------------------------------------------------


def test_kk_matrix_penrose(penrose):
    kkm = Tower(penrose).gamma_inv
    assert kkm == Matrix([[0, 1], [1, -1]])
    assert kkm * adjacency(penrose) == Matrix.identity(2)
    rep = kk_report(penrose)
    assert rep.ok, rep.render()


def test_kk_report_items(sigma2):
    rep = kk_report(sigma2, depth=4)
    assert rep.ok
    labels = [item.label for item in rep.items]
    assert "adjacency is non-derogatory" in labels
    assert "shift matrix is non-derogatory" in labels


# -- the aggregate report -------------------------------------------------------------------


def test_invariants_report_unimodular(penrose):
    rep = invariants_report(penrose)
    assert rep["graph"] == "penrose"
    assert rep["det"] == -1
    assert rep["charpoly_reversed"] == [1, -1, -1]
    assert set(rep["m_table"].keys()) == set(range(-3, 4))
    for key in ("class_recursions", "line_class_matrix", "phi_modulus", "phi_checks", "kk"):
        assert key in rep
    assert rep["k0"]["kind"] == "free"


def test_invariants_report_singular():
    rep = invariants_report(catalog.build("tadpole"))
    assert rep["det"] == 0
    assert set(rep["m_table"].keys()) == set(range(0, 4))  # negatives unavailable
    assert rep["k0"]["kind"] == "colimit"
    by_k = {row["k"]: row for row in rep["line_classes"]}
    assert by_k[-1]["vector"] == [0, 2]
    assert by_k[1]["available"] is False and "reason" in by_k[1]


def test_invariants_report_uhf():
    rep = invariants_report(catalog.build("cuntz", n=2))
    values = {row["k"]: row["value"] for row in rep["scaled_dimension_values"]}
    assert values[3] == Fraction(1, 8) and values[-3] == Fraction(8)


def test_invariants_report_is_jsonable(penrose, tadpole):
    for g in (penrose, tadpole, catalog.build("cuntz", n=3)):
        text = json.dumps(cli.jsonable(invariants_report(g)), sort_keys=True)
        assert json.loads(text)


def test_invariants_report_range_validation(penrose):
    with pytest.raises(ValueError, match="empty degree range"):
        invariants_report(penrose, k_min=2, k_max=-2)


def test_invariants_report_forms_each_power_of_x_once(monkeypatch):
    # one step by x or x^-1 per degree of the window past 0, each a shift and
    # one multiple of the modulus: no polynomial product at all
    t = Tower(catalog.build_token("sigma:8"))
    assert t.rev_charpoly  # the modulus, whose determinant expansion multiplies
    calls = []
    for name in ("poly_mul", "poly_mod_monic"):
        def counting(*args, _real=getattr(linalg, name), _name=name):
            calls.append(_name)
            return _real(*args)

        monkeypatch.setattr(linalg, name, counting)
    powers = [t.x_power(k) for k in range(-50, 51)]
    assert calls == []  # x^0 is the residue 1 on the tower's modulus
    assert [len(side) for side in t._x_sides] == [51, 51]
    assert [t.x_power(k) for k in range(-50, 51)] == powers and calls == []
    rep = invariants_report(catalog.build_token("sigma:8"), -50, 50)
    assert all(row["matches_power"] for row in rep["phi_checks"])
    assert "poly_mod_monic" not in calls  # phi's solved coordinates are already reduced


def test_invariants_report_derives_each_per_graph_datum_once(monkeypatch):
    sigma = catalog.build_token("sigma:12")
    full = catalog.build_token("full:16")
    mm_rows = line_class_matrix(sigma).rows
    counts = dict.fromkeys(("inv_unimodular", "charpoly", "rank_Q"), 0)
    for name in counts:
        def counting(*args, _real=getattr(linalg, name), _name=name):
            counts[_name] += 1
            return _real(*args)

        monkeypatch.setattr(linalg, name, counting)
    mm_builds = []
    real_init = Matrix.__init__

    def init(self, rows):
        real_init(self, rows)
        if self.rows == mm_rows:
            mm_builds.append(self)

    monkeypatch.setattr(Matrix, "__init__", init)

    invariants_report(sigma)
    assert counts["inv_unimodular"] <= 2  # Gamma and the line-class matrix
    assert counts["charpoly"] <= 1
    assert len(mm_builds) == 1

    counts["rank_Q"] = counts["charpoly"] = 0
    invariants_report(full)
    # the colimit reads its rank off the tower's characteristic polynomial
    # instead of ranking a power of Gamma
    assert counts["rank_Q"] == 0
    assert counts["charpoly"] <= 1


def test_a_tower_looks_for_sinks_once(monkeypatch):
    # the sinks are read off Gamma's zero rows, once per tower; the graph is not asked
    monkeypatch.setattr(Graph, "sinks", lambda g: pytest.fail("Graph.sinks was called"))
    calls = []
    sinks = Tower.__dict__["sinks"]
    monkeypatch.setattr(sinks, "func", lambda t, _real=sinks.func: calls.append(t) or _real(t))
    invariants_report(catalog.build_token("sigma:12"))
    assert len(calls) == 1
    t = Tower(catalog.build("chambers", k=2))
    for _ in range(2):
        with pytest.raises(SinkError) as info:
            t.line_class(1)
        assert str(info.value) == (
            "graph 'chambers2' has sinks ['1', '2']; line classes live over emission-complete graphs"
        )
    assert len(calls) == 2


def test_the_tower_reads_the_graph_without_indexing_it():
    # sinks, sources and Gamma come off the vertex and edge tuples, so a fresh
    # graph gets no lookup index, and the refusals read as before
    reports = {}
    for token in ("full:5", "chambers:2", "tadpole"):
        g = catalog.build_token(token)
        reports[token] = invariants_report(g)
        try:
            Tower(g).bratteli(5)
        except SinkError as err:
            reports[token]["bratteli"] = str(err)
        assert not any(hasattr(g, slot) for slot in ("_vindex", "_eindex", "_out", "_in"))
    assert reports["full:5"]["k0"] == {"kind": "colimit", "rank": 1, "stable_level": 0,
                                       "supports": [[0, 1, 2, 3, 4]]}
    assert reports["chambers:2"]["k0"] == {"available": False,
                                           "reason": "graph has sinks ['1', '2']"}
    assert reports["chambers:2"]["bratteli"] == (
        "graph 'chambers2' has sinks ['1', '2']; the tower sizes assume every vertex emits an edge"
    )
    assert reports["tadpole"]["line_classes"][4] == {
        "k": 1, "available": False,
        "reason": "graph 'tadpole' has sources ['1'] and a singular adjacency matrix; "
                  "positive-degree classes are not available",
    }

@pytest.mark.parametrize("token", ["cycle:40", "lens:10"])
def test_the_determinant_decides_the_line_basis(token, monkeypatch):
    # Gamma is unimodular but the line classes are not a basis: one inverse
    # (Gamma^-1), and two determinants (charpoly's self-check, then the
    # line-class matrix), with no attempt to invert the line-class matrix
    counts = dict.fromkeys(("det", "inv_unimodular"), 0)
    for name in counts:
        def counting(*args, _real=getattr(linalg, name), _name=name):
            counts[_name] += 1
            return _real(*args)

        monkeypatch.setattr(linalg, name, counting)
    rep = invariants_report(catalog.build_token(token))
    assert rep["kk"] == {"available": False, "reason": "line-class matrix is not unimodular"}
    assert counts == {"det": 2, "inv_unimodular": 1}


@pytest.mark.parametrize("token", ["cycle:40", "sigma:20"])
def test_invariants_report_makes_a_constant_number_of_matrix_products(token, monkeypatch):
    # the characteristic polynomial and the non-derogatory checks take the
    # Krylov route on these non-derogatory adjacencies, with vector products
    # only; what is left are the checks of the inverses of Gamma and the
    # line-class matrix and the shift-matrix check of kk_report
    products = []
    real_mul = Matrix.__mul__

    def counting_mul(a, b):
        if isinstance(b, Matrix):
            products.append((a.n_rows, b.n_cols))
        return real_mul(a, b)

    monkeypatch.setattr(Matrix, "__mul__", counting_mul)
    invariants_report(catalog.build_token(token))
    assert len(products) <= 3
