"""Seeded op lists with known answers, one generator per workload.

``generate(workload, seed, workdir)`` returns the op list and writes any
graph files it needs under ``workdir``.  The same seed always gives the
same list.  Expected answers come from the construction of each input
(the Cuntz-Krieger relations, the in-degree criteria, walk counts from
:mod:`oracle`) and never from afcore, which this module does not import.

Costs are kept steady from seed to seed on purpose: the expensive ops of
each workload are a fixed ladder whose order and details the seed draws,
so that the spread between seeds is the program's and not the draw's.
"""

from __future__ import annotations

import itertools
import json
import os
import random
from fractions import Fraction

import oracle
from checks import ANY

WORKLOADS = ("ktheory-ladder", "leavitt-algebra", "graph-universe")
DEFAULT_WINDOW = (-3, 3)


# -- catalog graphs, from the catalog's documented definitions -------------------


def catalog_graph(token: str):
    """``(name, vertices, edges)`` of a catalog token such as ``sigma:3``."""
    family, _, arg = token.partition(":")
    n = int(arg) if arg else 0
    nums = [str(i) for i in range(1, n + 1)]
    if family == "penrose":
        return "penrose", ["1", "2"], [("a", "1", "1"), ("b", "1", "2"), ("c", "2", "1")]
    if family == "tadpole":
        return "tadpole", ["1", "2"], [("e12", "1", "2"), ("e22", "2", "2")]
    if family == "sigma":
        return f"sigma{n}", nums, [(f"e{i}_{j}", i, j) for i in nums for j in nums if int(i) <= int(j)]
    if family == "full":
        return f"full{n}", nums, [(f"e{i}_{j}", i, j) for i in nums for j in nums]
    if family == "cuntz":
        return f"cuntz{n}", ["1"], [(f"g{i}", "1", "1") for i in nums]
    if family == "cycle":
        return f"cycle{n}", nums, [(f"c{i}", i, str(int(i) % n + 1)) for i in nums]
    if family in ("chambers", "lens"):
        edges = [("ell", "v0", "v0")] + [(f"d{i}", "v0", i) for i in nums]
        if family == "lens":
            edges += [(f"m{i}", i, i) for i in nums]
        return f"{family}{n}", ["v0"] + nums, edges
    raise ValueError(f"no construction for {token!r}")


# -- op records -------------------------------------------------------------------


def _cli_op(kind, argv, outcomes, json_mode, defect=False):
    return {"kind": kind, "argv": argv, "outcomes": outcomes, "json": json_mode, "defect": defect}


def _window(rng):
    lo = rng.randint(-6, 6)
    return lo, rng.randint(lo, 6)


# -- ktheory and bratteli known answers ------------------------------------------


def ktheory_report(name, vertices, edges, k_min, k_max) -> dict:
    """The ``ktheory --json`` report, with ``ANY`` where only a flag is known."""
    rows = oracle.adjacency(vertices, edges)
    n = len(vertices)
    d = oracle.det(rows)
    uni = d in (1, -1)
    out_deg, in_deg = oracle.degrees(vertices, edges)
    sinks = [v for v in vertices if not out_deg[v]]
    has_sources = any(not in_deg[v] for v in vertices)
    reach = max(abs(k_min), abs(k_max), n)
    m = oracle.walk_counts(rows, -reach if uni else 0, reach)
    window = range(k_min, k_max + 1)
    rep = {
        "graph": name,
        "vertices": list(vertices),
        "gamma": rows,
        "det": d,
        "charpoly_reversed": ANY,
        "m_table": {str(k): m[k] for k in window if k >= 0 or uni},
    }
    sup = oracle.supports(vertices, edges)
    if sinks:
        rep["k0"] = {"available": False, "reason": f"graph has sinks {sinks!r}"}
    elif uni:
        rep["k0"] = {"kind": "free", "rank": n, "basis": list(vertices)}
    else:
        rep["k0"] = {
            "kind": "colimit",
            "rank": oracle.colimit_rank(rows, sup[-1]),
            "stable_level": len(sup) - 1,
            "supports": [list(s) for s in sup],
        }
    classes = []
    for k in window:
        if sinks:
            classes.append({"k": k, "available": False, "reason": "graph has sinks"})
        elif k == 0:
            classes.append({"k": 0, "vector": [1] * n, "level": 0})
        elif k < 0 or uni:
            classes.append({"k": k, "vector": m[-k], "level": 0})
        elif has_sources:
            classes.append({"k": k, "available": False, "reason": ANY})
        else:
            s = sup[min(k, len(sup) - 1)]
            classes.append({"k": k, "vector": [int(i in s) for i in range(n)], "level": k})
    rep["line_classes"] = classes
    if uni:
        rep["class_recursions"] = [
            {"k": k, "coeffs": ANY, "verified": True} for k in window if not 0 <= k < n
        ]
        lcm = [m[-k] for k in range(n)]
        rep["line_class_matrix"] = lcm
        if oracle.det(lcm) in (1, -1):
            rep["phi_modulus"] = ANY
            rep["phi_checks"] = [{"k": k, "residue": ANY, "matches_power": True} for k in window]
            rep["kk"] = {"matrix": oracle.inverse(rows), "checks_pass": True}
        else:
            missing = {"available": False, "reason": "line-class matrix is not unimodular"}
            rep["phi_checks"] = dict(missing)
            rep["kk"] = dict(missing)
    elif not sinks and n == 1 and rows[0][0] >= 2:
        rep["scaled_dimension_values"] = [
            {"k": k, "value": str(Fraction(rows[0][0]) ** -k)} for k in window
        ]
    return rep


def ktheory_op(arg, graph, window, json_mode):
    name, vertices, edges = graph
    argv = ["ktheory", arg]
    if window is not None:
        argv.append(f"--range={window[0]}..{window[1]}")
    k_min, k_max = window or DEFAULT_WINDOW
    rep = ktheory_report(name, vertices, edges, k_min, k_max)
    if json_mode:
        outcome = {"exit": 0, "json": rep}
        argv.append("--json")
    else:
        table = rep["m_table"]
        lines = [f"det: {rep['det']}", "m_table:" if table else "m_table: {}"]
        lines += [f"  {k}: {json.dumps(v)}" for k, v in table.items()]
        outcome = {"exit": 0, "lines": lines}
    return _cli_op("ktheory", argv, [outcome], json_mode)


def bratteli_levels(vertices, edges, depth):
    rows = oracle.adjacency(vertices, edges)
    sizes, levels = [1] * len(vertices), []
    for _ in range(depth):
        levels.append([[v, s] for v, s in zip(vertices, sizes) if s > 0])
        sizes = oracle.vec_mat(sizes, rows)
    return rows, levels


def bratteli_dot(vertices, rows, levels) -> str:
    index = {v: i for i, v in enumerate(vertices)}
    lines = ["digraph bratteli {", "  rankdir=LR;", '  root [label="1"];']
    for k, level in enumerate(levels, start=1):
        lines += [f'  v{v}_{k} [label="{s}"];' for v, s in level]
    lines += [f"  root -> v{v}_1;" for v, _ in levels[0]]
    for k in range(1, len(levels)):
        present = {v for v, _ in levels[k]}
        for v, _ in levels[k - 1]:
            for w in vertices:
                mult = rows[index[v]][index[w]]
                if w in present and mult:
                    suffix = f' [label="x{mult}"]' if mult > 1 else ""
                    lines.append(f"  v{v}_{k} -> v{w}_{k + 1}{suffix};")
    return "\n".join(lines + ["}"]) + "\n"


def bratteli_op(arg, graph, depth, dot, json_mode):
    name, vertices, edges = graph
    out_deg, _ = oracle.degrees(vertices, edges)
    has_sinks = any(not out_deg[v] for v in vertices)
    json_mode = json_mode or has_sinks  # the refusal type is read from JSON
    argv = ["bratteli", arg, "--levels", str(depth)] + ["--dot"] * dot + ["--json"] * json_mode
    if has_sinks:
        return _cli_op("bratteli", argv, [{"exit": 2, "error": "SinkError"}], json_mode)
    rows, levels = bratteli_levels(vertices, edges, depth)
    if dot:
        text = bratteli_dot(vertices, rows, levels)
        outcome = (
            {"exit": 0, "json": {"graph": name, "depth": depth, "dot": text}}
            if json_mode else {"exit": 0, "stdout": text}
        )
    elif json_mode:
        outcome = {"exit": 0, "json": {"graph": name, "depth": depth, "levels": levels}}
    else:
        text = "".join(
            f"level {k}: {' '.join(f'{v}:{s}' for v, s in level)}\n"
            for k, level in enumerate(levels, start=1)
        )
        outcome = {"exit": 0, "stdout": text}
    return _cli_op("bratteli", argv, [outcome], json_mode)


def _random_unimodular(rng, n):
    """Adjacency ``P U``: a row permutation of an upper unitriangular matrix
    with small nonnegative entries, so ``det = +-1`` by construction."""
    upper = [[int(i == j) if j <= i else rng.choice((0, 0, 1, 1, 2)) for j in range(n)]
             for i in range(n)]
    perm = list(range(n))
    rng.shuffle(perm)
    return [upper[p] for p in perm]


def _random_rows(rng, n):
    """Small nonnegative entries, redrawn until ``det != +-1``."""
    while True:
        rows = [[rng.choices((0, 1, 2), (55, 30, 15))[0] for _ in range(n)] for _ in range(n)]
        if oracle.det(rows) not in (1, -1):
            return rows


def _key(rows):
    return tuple(map(tuple, rows))


RANDOM_FILES = 60
# draws of a new matrix before a unimodular slot gives up and takes a
# non-unimodular one: only six two-vertex matrices are unimodular here
DRAWS = 200


def _random_matrices(rng, taken):
    """``RANDOM_FILES`` adjacency matrices, each unlike any other and unlike
    every matrix in ``taken``, so that no kernel sees the same matrix twice.

    Two are one-vertex, a sink and a loop (the third one-vertex matrix,
    ``[[2]]``, is ``cuntz:2``); the others have 2 to 6 vertices, every size
    equally often, alternately unimodular by construction and not."""
    seen = set(taken)
    out = [rows for rows in ([[0]], [[1]]) if _key(rows) not in seen]
    seen.update(map(_key, out))
    i = 0
    while len(out) < RANDOM_FILES:
        n, unimodular = 2 + i % 5, (i // 5) % 2 == 1
        i += 1
        draws = (_random_unimodular(rng, n) for _ in range(DRAWS if unimodular else 0))
        rows = next((r for r in draws if _key(r) not in seen), None)
        while rows is None or _key(rows) in seen:
            rows = _random_rows(rng, n)
        seen.add(_key(rows))
        out.append(rows)
    return out


def _write_graph_file(rng, workdir, name, rows):
    """Write a graph file in a seeded mix of the format's spellings."""
    style = rng.choice(("num", "v", "letter"))
    n = len(rows)
    vertices = [
        {"num": str(i + 1), "v": f"v{i + 1}", "letter": "abcdef"[i]}[style] for i in range(n)
    ]
    named = rng.random() < 0.5
    lines = [f"# seeded graph {name}", f"graph {name}"]
    if rng.random() < 0.5:
        lines.append("vertex " + " ".join(vertices))
    else:
        lines += [f"vertex {v}" for v in vertices]
    edges, auto = [], 0
    for i, row in enumerate(rows):
        for j, mult in enumerate(row):
            for _ in range(mult):
                if named:
                    eid = f"x{len(edges) + 1}"
                    lines.append(f"edge {eid} : {vertices[i]} -> {vertices[j]}")
                else:
                    auto += 1
                    eid = f"e{auto}"
                    lines.append(f"edge {vertices[i]} -> {vertices[j]}")
                edges.append((eid, vertices[i], vertices[j]))
    path = os.path.join(workdir, f"{name}.graph")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return path, (name, vertices, edges)



def ktheory_ladder(rng, workdir):
    # every third rung of the cycle and sigma ladders and every other lens
    # rung, both ends kept: a round then takes about five seconds, and a
    # run gets enough rounds for steady median latencies
    unimodular = (
        [f"cycle:{n}" for n in range(6, 25, 3)]
        + [f"sigma:{n}" for n in range(3, 13, 3)]
        + [f"lens:{k}" for k in range(2, 13, 2)]
        + ["penrose"]
    )
    others = (
        [f"full:{n}" for n in range(2, 17)]
        + [f"cuntz:{n}" for n in range(2, 7)]
        + [f"chambers:{k}" for k in range(1, 7)]
        + ["tadpole"]
    )
    inputs = [(tok, catalog_graph(tok)) for tok in others]
    catalog_rows = [oracle.adjacency(*catalog_graph(tok)[1:]) for tok in unimodular + others]
    for i, rows in enumerate(_random_matrices(rng, map(_key, catalog_rows))):
        inputs.append(_write_graph_file(rng, workdir, f"r{i + 1}", rows))
    # a quarter get ktheory, the rest bratteli: cheap commands are the
    # majority by a margin, so the median op is per-command overhead
    kinds = [i % 4 == 0 for i in range(len(inputs))]
    rng.shuffle(kinds)

    # the rungs keep the default window, so that their cost does not depend
    # on the seed: they are the costliest ops, and the 90th percentile falls
    # among them
    ops = [ktheory_op(tok, catalog_graph(tok), None, rng.random() < 0.5) for tok in unimodular]
    for (arg, graph), ktheory in zip(inputs, kinds):
        if ktheory:
            ops.append(ktheory_op(arg, graph, _window(rng), rng.random() < 0.5))
        else:
            ops.append(bratteli_op(arg, graph, rng.randint(1, 30),
                                   rng.random() < 0.3, rng.random() < 0.5))
    empty = os.path.join(workdir, "empty.graph")
    with open(empty, "w", encoding="utf-8") as fh:
        fh.write("graph empty\n")
    json_mode = rng.random() < 0.5
    # known defect: today this is refused with an unrelated message; an
    # answer or any typed refusal is acceptable
    ops.append(_cli_op("ktheory", ["ktheory", empty] + ["--json"] * json_mode,
                       [{"exit": 0}, {"exit": 2, "error": "*"}], json_mode, defect=True))
    return ops


# -- Leavitt path algebra ------------------------------------------------------------


LEAVITT_GRAPHS = ("penrose", "sigma:2", "sigma:3", "full:2", "full:3",
                  "cuntz:2", "cuntz:3", "lens:2", "chambers:2", "tadpole")


class _Walks:
    """Random walks in one graph, as tuples of edge ids."""

    def __init__(self, token):
        self.token = token
        self.name, self.vertices, self.edges = catalog_graph(token)
        self.src = {e: s for e, s, _ in self.edges}
        self.dst = {e: d for e, _, d in self.edges}
        self.out = {v: [e for e, s, _ in self.edges if s == v] for v in self.vertices}
        self.into = {v: [e for e, _, d in self.edges if d == v] for v in self.vertices}

    def ending_at(self, rng, v, length):
        walk = []
        for _ in range(length):
            if not self.into[v]:
                break
            e = rng.choice(self.into[v])
            walk.insert(0, e)
            v = self.src[e]
        return tuple(walk)

    def starting_at(self, rng, v, length):
        walk = []
        for _ in range(length):
            e = rng.choice(self.out[v])
            walk.append(e)
            v = self.dst[e]
        return tuple(walk)

    def expansion(self, alpha, beta, v, depth):
        """Leaves of the CK2 expansion of ``S_alpha S_beta^*`` to ``depth``;
        vertices that emit nothing stay leaves."""
        leaves, todo = [], [((), v)]
        while todo:
            gamma, w = todo.pop(0)
            if len(gamma) == depth or not self.out[w]:
                leaves.append((alpha + gamma, beta + gamma, w))
            else:
                todo += [(gamma + (e,), self.dst[e]) for e in self.out[w]]
        return leaves


def mono_text(alpha, beta, v, coeff=1) -> str:
    body = "".join(f"S({e})" for e in alpha)
    if beta:
        body += "(" + "".join(f"S({e})" for e in beta) + ")^*"
    body = body or f"P({v})"
    if coeff == 1:
        return body
    return ("-" if coeff < 0 else "") + (str(abs(coeff)) if abs(coeff) != 1 else "") + body


def mono_display(alpha, beta, v, coeff=1) -> str:
    """How ``leavitt.to_string`` prints one term."""
    body = "".join(f"S({e})" for e in alpha) + "".join(f"S({e})^*" for e in reversed(beta))
    body = body or f"P({v})"
    return body if coeff == 1 else "-" + body if coeff == -1 else f"{coeff}{body}"


def sum_text(terms) -> str:
    out = terms[0]
    for t in terms[1:]:
        out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
    return out


def _positional(texts):
    """Expressions as arguments; a leading minus needs ``--`` before it."""
    return (["--"] if any(t.startswith("-") for t in texts) else []) + texts


def _eval_op(w, text, raw, normal, zero, json_mode, extra=()):
    """``leavitt eval``; ``raw``/``normal`` may be None when not predicted."""
    argv = ["leavitt", w.token, "eval"] + ["--json"] * json_mode + _positional([text])
    if json_mode:
        want = {"graph": w.name, "input": text, "raw": raw or ANY,
                "normal": normal or ANY, "is_zero": zero}
        outcome = {"exit": 0, "json": want}
    elif raw is not None and normal is not None:
        outcome = {"exit": 0, "stdout": f"raw: {raw}\nnormal: {normal}\nzero: {'yes' if zero else 'no'}\n"}
    else:
        lines = [f"zero: {'yes' if zero else 'no'}"] + ([f"normal: {normal}"] if normal else [])
        outcome = {"exit": 0, "lines": lines}
    op = _cli_op("eval", argv, [outcome] + list(extra), json_mode)
    op["exprs"] = [text]
    return op


def _equals_op(w, left, right, equal, json_mode, extra=()):
    argv = ["leavitt", w.token, "equals"] + ["--json"] * json_mode + _positional([left, right])
    if json_mode:
        outcome = {"exit": 0 if equal else 1,
                   "json": {"graph": w.name, "left": ANY, "right": ANY, "equal": equal}}
    else:
        outcome = {"exit": 0 if equal else 1, "stdout": f"equal: {'yes' if equal else 'no'}\n"}
    op = _cli_op("equals", argv, [outcome] + list(extra), json_mode)
    op["exprs"] = [left, right]
    return op


def _random_monomial(rng, w):
    v = rng.choice(w.vertices)
    return (w.ending_at(rng, v, rng.randint(0, 2)), w.ending_at(rng, v, rng.randint(0, 2)), v,
            rng.choice((1, 1, 2, 3, -1, -2)))


# how many short evals of each family a round holds; fixed, like the share
# in JSON mode, so that the median op does not move with the seed
EVAL_FAMILIES = {"mono": 24, "degrees": 16, "ck1": 12, "ck2": 12, "orth": 16}
EVAL_JSON_SHARE = 0.3


def _op_key(op):
    return op["kind"], op["argv"][1], tuple(op["exprs"])


def _new_op(draw, seen, tokens):
    """``draw(token)`` on the first of ``tokens`` that gives an op unlike
    those in ``seen``, so that no command is run twice in a round: a user
    runs each in a process of its own, and a cache kept across ops must not
    win here."""
    for token in tokens:
        for _ in range(DRAWS):
            op = draw(token)
            if _op_key(op) not in seen:
                seen.add(_op_key(op))
                return op
    raise ValueError("every draw repeats an earlier op")


def _short_evals(rng, walks, seen):
    ops = []
    json_flags = [i < EVAL_JSON_SHARE * sum(EVAL_FAMILIES.values())
                  for i in range(sum(EVAL_FAMILIES.values()))]
    rng.shuffle(json_flags)
    for family, count in EVAL_FAMILIES.items():
        # the CK2 relation needs a vertex that emits, so no chambers:2
        pool = [t for t in LEAVITT_GRAPHS if family != "ck2" or t != "chambers:2"]
        tokens = []
        while len(tokens) < count:
            tokens += rng.sample(pool, len(pool))
        for token in tokens[:count]:
            json_mode = json_flags[len(ops)]
            ops.append(_new_op(lambda t: _short_eval(rng, walks[t], family, json_mode), seen,
                               [token] + rng.sample(pool, len(pool))))
    return ops


def _short_eval(rng, w, family, json_mode):
    """One short ``eval`` whose zero-ness, and often display, is known."""
    if family == "mono":
        a, b, v, c = _random_monomial(rng, w)
        disp = mono_display(a, b, v, c)
        return _eval_op(w, mono_text(a, b, v, c), disp, disp, False, json_mode)
    if family == "degrees":
        terms, seen = [], set()
        for _ in range(rng.randint(2, 3)):
            a, b, v, c = _random_monomial(rng, w)
            if len(a) - len(b) not in seen:
                seen.add(len(a) - len(b))
                terms.append((a, b, v, c))
        text = sum_text([mono_text(*t) for t in terms])
        ordered = sorted(terms, key=lambda t: (len(t[0]) + len(t[1]), t[0], t[1], t[2]))
        disp = sum_text([mono_display(*t) for t in ordered])
        return _eval_op(w, text, disp, disp, False, json_mode)
    if family == "ck1":
        e = rng.choice([e for e, _, _ in w.edges])
        c = rng.choice((1, 2, 3))
        cs = "" if c == 1 else str(c)
        return _eval_op(w, f"{cs}S({e})^* S({e}) - {cs}P({w.dst[e]})", "0", "0", True, json_mode)
    if family == "ck2":
        v = rng.choice(w.vertices)
        text = f"P({v})" + "".join(f" - S({e})S({e})^*" for e in w.out[v])
        return _eval_op(w, text, None, "0", True, json_mode)
    # orthogonality: S_a^* S_b = 0 for a != b, and S_a S_b = 0 when r(a) != s(b)
    pairs = [(a, b) for a, _, _ in w.edges for b, _, _ in w.edges if w.dst[a] != w.src[b]]
    if pairs and rng.random() < 0.5:
        a, b = rng.choice(pairs)
        return _eval_op(w, f"S({a})S({b})", "0", "0", True, json_mode)
    if len(w.edges) < 2:
        e = w.edges[0][0]
        return _eval_op(w, f"S({e})^*S({e})", f"P({w.dst[e]})", f"P({w.dst[e]})", False, json_mode)
    a, b = rng.sample([e for e, _, _ in w.edges], 2)
    return _eval_op(w, f"S({a})^*S({b})", "0", "0", True, json_mode)


# (graph, depth) of the CK2-expansion equalities; fixed so that their cost
# does not depend on the seed
CK2_LADDER = (("penrose", 2), ("penrose", 4), ("sigma:2", 3), ("sigma:3", 2), ("sigma:3", 3),
              ("full:2", 3), ("full:2", 4), ("full:3", 2), ("full:3", 3), ("cuntz:2", 3),
              ("cuntz:2", 4), ("cuntz:3", 2), ("cuntz:3", 3), ("lens:2", 2), ("lens:2", 3),
              ("tadpole", 3))

# walk lengths of the deep zero tests P(v) = S_mu S_mu^* on full:3; the
# block at one depth straddles the 90th percentile and keeps it steady
DEEP_LADDER = (7,) * 12 + (8, 9, 10)


def leavitt_algebra(rng, workdir):
    walks = {t: _Walks(t) for t in LEAVITT_GRAPHS}
    ch = walks["chambers:2"]
    sink_refusal = {"exit": 2, "error": "SinkError"}
    sinks = []
    sinks.append(_equals_op(ch, "S(d1)^*S(d1)", "P(1)", True, rng.random() < 0.3))
    sinks.append(_equals_op(ch, "P(v0)", "S(ell)S(ell)^* + S(d1)S(d1)^* + S(d2)S(d2)^*", True,
                            rng.random() < 0.3))
    # these differ, but the current engine needs an expansion at a sink to
    # see it: a typed SinkError or the answer "no" are both acceptable
    sinks.append(_equals_op(ch, "P(1)", "S(d1)S(d1)^*", False, True, [sink_refusal]))
    sinks.append(_equals_op(ch, "S(d2)S(d2)^*", "S(ell)S(d2)(S(ell)S(d2))^*", False, True,
                            [sink_refusal]))
    sinks.append(_eval_op(ch, "P(1) - S(d1)S(d1)^*", None, None, False, True, [sink_refusal]))
    sinks.append(_eval_op(ch, "S(d1)^*S(d1) - P(1)", "0", "0", True, False))

    seen = set(map(_op_key, sinks))
    ops = sinks + _short_evals(rng, walks, seen)

    for token, depth in CK2_LADDER:
        w = walks[token]
        v = rng.choice(w.vertices)
        a, b = w.ending_at(rng, v, rng.randint(0, 2)), w.ending_at(rng, v, rng.randint(0, 2))
        leaves = w.expansion(a, b, v, depth)
        coeffs = [1] * len(leaves)
        variant = rng.choice(("equal", "equal", "dropped", "changed"))
        if variant == "dropped":
            del leaves[rng.randrange(len(leaves))]
            coeffs.pop()
        elif variant == "changed":
            coeffs[rng.randrange(len(coeffs))] = 2
        right = " + ".join(mono_text(*leaf, c) for leaf, c in zip(leaves, coeffs)) or "0"
        ops.append(_equals_op(w, mono_text(a, b, v), right, variant == "equal",
                              rng.random() < 0.3))
        seen.add(_op_key(ops[-1]))

    def unit(token):
        w = walks[token]
        e = rng.choice([e for e, _, _ in w.edges])
        return _equals_op(w, f"S({e})^*S({e})", f"P({w.dst[e]})", True, rng.random() < 0.3)

    for _ in range(4):
        ops.append(_new_op(unit, seen, rng.sample(LEAVITT_GRAPHS, len(LEAVITT_GRAPHS))))

    def deep(k):
        w = walks["full:3"]
        v = rng.choice(w.vertices)
        mu = w.starting_at(rng, v, k)
        # P(v) - S_mu S_mu^* is the sum of the other length-k walk projections
        return _equals_op(w, f"P({v})", mono_text(mu, mu, v), False, rng.random() < 0.3)

    for k in DEEP_LADDER:
        ops.append(_new_op(deep, seen, [k]))

    # known defect: 1500 nested parentheses exhaust the recursive parser
    w = walks[rng.choice(LEAVITT_GRAPHS)]
    v = rng.choice(w.vertices)
    text = "(" * 1500 + f"P({v})" + ")" * 1500
    op = _eval_op(w, text, f"P({v})", f"P({v})", False, False, [{"exit": 2, "error": "*"}])
    op["defect"] = True
    ops.append(op)
    return ops


# -- graph universe ------------------------------------------------------------------


UNIVERSE_SMALL = 84  # graphs on one or two vertices come first
UNIVERSE_SIZE = 19767


def universe_graph(index):
    """Graph number ``index`` (1-based) of ``catalog.small_graph_universe()``:
    vertex counts 1..3 in turn, edge multiplicities 0..2 per ordered pair in
    lexicographic order."""
    counter = 0
    for n in (1, 2, 3):
        block = 3 ** (n * n)
        if index <= counter + block:
            vertices = [str(i) for i in range(1, n + 1)]
            pairs = list(itertools.product(vertices, vertices))
            offset = index - counter - 1
            counts = [(offset // 3 ** (len(pairs) - 1 - p)) % 3 for p in range(len(pairs))]
            edges = []
            for (a, b), c in zip(pairs, counts):
                edges += [(f"e{len(edges) + 1 + i}", a, b) for i in range(c)]
            return f"u{index}", vertices, edges
        counter += block
    raise ValueError(f"universe index {index} out of range")


# above this many edge assignments, enumerating the admissible embeddings
# of a graph into its square takes over the workload (u84 needs 786 432,
# 7.9 s); such graphs get the rest of the battery
ENUMERATION_CAP = 3072


def edge_assignments(vertices, edges) -> int:
    """Edge maps ``enumerate_admissible_embeddings(g, g x g)`` walks through:
    over injective vertex maps, the product of each edge's candidates."""
    mult = {}
    for _, s, d in edges:
        mult[(s, d)] = mult.get((s, d), 0) + 1
    square = list(itertools.product(vertices, vertices))
    total = 0
    for image in itertools.permutations(square, len(vertices)):
        phi = dict(zip(vertices, image))
        ways = 1
        for _, s, d in edges:
            (a1, a2), (b1, b2) = phi[s], phi[d]
            ways *= mult.get((a1, b1), 0) * mult.get((a2, b2), 0)
        total += ways
    return total


def battery_expect(vertices, edges, hs_seed, enumerate_embeddings):
    """Known answers for the battery of checks run on one graph."""
    out_deg, in_deg = oracle.degrees(vertices, edges)
    n, m = len(vertices), len(edges)
    hs = oracle.hereditary_saturated_closure(vertices, edges, hs_seed)
    want = {
        "classify": oracle.facts(vertices, edges),
        "product": [n * n, m * m],
        # criterion: the diagonal is admissible iff no vertex receives two edges
        "diagonal": all(in_deg[v] <= 1 for v in vertices),
        # criterion: a loop embedding is admissible iff the loop is the only
        # edge into its vertex
        "loops": [in_deg[s] == 1 for _, s, d in edges if s == d],
        "round_trip": True,
        "line": [m, sum(in_deg[v] * out_deg[v] for v in vertices)],
        "hereditary_saturated": [True, True],
        "quotient": [[v for v in vertices if v not in hs],
                     sum(1 for _, s, d in edges if s not in hs and d not in hs)],
    }
    if enumerate_embeddings:
        want["diagonal_enumerated"] = want["diagonal"]
    return hs, want


def _analyze_op(token, json_mode, defect=False):
    name, vertices, edges = catalog_graph(token)
    n = len(vertices)
    family = token.partition(":")[0]
    # by construction: sigma:n has only its n loops as cycles and is
    # unitriangular; cycle:n is one cycle whose matrix is an n-cycle permutation
    cycles, det = (n, 1) if family == "sigma" else (1, (-1) ** (n - 1))
    argv = ["analyze", token] + ["--json"] * json_mode
    if json_mode and not defect:
        want = {
            "name": name, "vertices": vertices, "edges": [list(e) for e in edges],
            "sinks": [], "sources": [], "regular": vertices,
            "is_functional": family == "cycle", "is_transposed_functional": family == "cycle",
            "is_connected": True, "directed_cycle_count": cycles,
            "is_cycle_graph": family == "cycle",
            "adjacency": oracle.adjacency(vertices, edges), "det": det,
        }
        outcome = {"exit": 0, "json": want}
    else:
        lines = [f"graph {name}: {n} vertices, {len(edges)} edges", "sinks: (none)",
                 "connected: yes", f"directed cycles: {cycles}",
                 f"cycle graph: {'yes' if family == 'cycle' else 'no'}", f"det: {det}"]
        outcome = {"exit": 0, "lines": lines}
    outcomes = [outcome] + ([{"exit": 2, "error": "*"}] if defect else [])
    return _cli_op("analyze", argv, outcomes, json_mode, defect=defect)


def _random_rows4(rng, seen):
    """A seeded four-vertex adjacency matrix not in ``seen`` (the universe
    has none with four vertices), added to it."""
    while True:
        rows = [[rng.choices((0, 1, 2), (55, 35, 10))[0] for _ in range(4)] for _ in range(4)]
        if _key(rows) not in seen:
            seen.add(_key(rows))
            return rows


def graph_universe(rng, workdir):
    # every graph on one or two vertices, so that the enumerations, whose
    # cost swings by orders of magnitude between graphs, are the same each run
    picks = ([("universe", i) for i in range(1, UNIVERSE_SMALL + 1)]
             + [("universe", i) for i in rng.sample(range(UNIVERSE_SMALL + 1, UNIVERSE_SIZE + 1), 150)]
             + [("random4", i) for i in range(75)])
    ops, seen = [], set()
    for source, i in picks:
        if source == "universe":
            name, vertices, edges = universe_graph(i)
        else:
            name, vertices = f"w{i + 1}", ["1", "2", "3", "4"]
            rows = _random_rows4(rng, seen)
            edges = [(f"x{j + 1}", a, b) for j, (a, b) in enumerate(
                (a, b) for x, a in enumerate(vertices) for y, b in enumerate(vertices)
                for _ in range(rows[x][y]))]
        enum = len(vertices) <= 2 and edge_assignments(vertices, edges) <= ENUMERATION_CAP
        hs, want = battery_expect(vertices, edges, rng.choice(vertices), enum)
        ops.append({"kind": "battery", "source": source, "index": i, "name": name,
                    "vertices": vertices, "edges": edges, "hs": hs, "enumerate": enum,
                    "expect": want, "defect": False})
    for n in range(8, 19):
        ops.append(_analyze_op(f"sigma:{n}", rng.random() < 0.5))
    for base in (50, 100, 150, 200):
        ops.append(_analyze_op(f"cycle:{base + rng.randint(0, 9)}", rng.random() < 0.5))
    # known defect: the recursive cycle count overflows the stack
    ops.append(_analyze_op("cycle:3000", False, defect=True))
    return ops


_GENERATORS = {
    "ktheory-ladder": ktheory_ladder,
    "leavitt-algebra": leavitt_algebra,
    "graph-universe": graph_universe,
}


def generate(workload: str, seed: int, workdir: str) -> list:
    """The op list of ``workload`` for ``seed``, in seeded order."""
    rng = random.Random(f"{workload}/{seed}")
    ops = _GENERATORS[workload](rng, workdir)
    rng.shuffle(ops)
    for i, op in enumerate(ops):
        op["id"] = i
    return ops
